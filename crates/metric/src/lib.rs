//! Metric-space foundations for pivot-based metric indexing.
//!
//! This crate provides everything the index crates share:
//!
//! * the [`Object`] trait — an owned object and the view (`[f32]`, `str`)
//!   it derefs to — and the [`Metric`] trait over views, with the concrete
//!   distance functions used by the paper's evaluation (L1 / L2 / L∞ / Lp
//!   norms and edit distance),
//! * [`CountingMetric`], the instrumented wrapper through which every index
//!   computes distances so that the `compdists` cost metric of the paper can
//!   be measured uniformly,
//! * the four pivot filtering / validation lemmas of the paper ([`lemmas`]),
//! * the flat pivot-distance matrix ([`PivotMatrix`]) built once, in
//!   parallel, and quantised once into the u16 bucket codes that are the
//!   only form a stored row takes from then on: the planar
//!   [`PivotColumns`] every pivot table stores and the blocked
//!   [`ScanKernel`] filters, and the [`CodeBox`]es that bound a set of rows
//!   (see [`matrix`] for why a bucket keeps answers exact and the
//!   clone-shares, writer-copies rule),
//! * the persistent chunked vector ([`CowVec`]) that lets an index fork and
//!   a snapshot publication share everything they do not write,
//! * reusable per-worker query scratch space ([`QueryScratch`]) for the
//!   allocation-free batch query path,
//! * the object-safe [`MetricIndex`] trait implemented by all seventeen index
//!   variants, and the [`ObjTable`] the in-memory ones keep their objects
//!   in — one arena per table ([`Flat`] for vectors: the coordinates back
//!   to back, whole objects a chunk),
//! * binary object encoding ([`object`]) used by the disk-resident indexes,
//! * synthetic dataset generators matching the paper's Table 2 ([`datasets`]).

pub mod cow;
pub mod datasets;
pub mod distance;
pub mod fault;
pub mod index;
pub mod lemmas;
pub mod matrix;
pub mod object;
pub mod parallel;
pub mod scratch;
pub mod simd;
pub mod stats;
pub mod table;

pub use cow::CowVec;
pub use distance::{
    dists_from, views, CountingMetric, DistanceCounter, EditDistance, LInf, Lp, Metric, L1, L2,
};
pub use index::{BruteForce, MetricIndex};
pub use matrix::{CodeBox, PivotColumns, PivotMatrix, ScanKernel};
pub use object::{EncodeObject, Object};
pub use scratch::{KnnBest, QueryScratch};
pub use simd::SimdTier;
pub use stats::{Counters, Neighbor, ObjId, StorageFootprint};
pub use table::{Arena, Flat, ObjTable};

/// A dense vector object. All vector datasets in the paper (LA, Color,
/// Synthetic) are represented this way; coordinates are stored as `f32`
/// and distances are accumulated in `f64`.
pub type Vector = Vec<f32>;
