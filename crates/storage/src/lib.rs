//! Storage substrates for the disk-resident indexes (paper §5).
//!
//! The paper's I/O metric is the number of page accesses (PA), not
//! wall-clock disk time, so the "disk" here is a counting, paged in-memory
//! store ([`DiskSim`]) — this reproduces PA exactly and removes machine
//! noise. On top of it sit:
//!
//! * an optional LRU page cache (the paper's 128 KB cache for MkNNQ, §6.1),
//! * [`Raf`], the random access file used by OmniR-tree / M-index / SPB-tree
//!   to keep objects out of the index structure,
//! * [`sfc`], an n-dimensional Hilbert space-filling curve (SPB-tree, §5.4).

pub mod disk;
pub mod raf;
pub mod sfc;

pub use disk::{DiskSim, PageId, DEFAULT_PAGE_SIZE, KNN_CACHE_BYTES, LARGE_PAGE_SIZE};
pub use raf::Raf;
