//! A simulated paged disk with access counting and an optional LRU cache.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a page on a [`DiskSim`].
pub type PageId = u32;

/// Default page size: 4 KB, "to maintain consistency with the operating
/// system" (paper §6.1).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Large page size used by CPT and the PM-tree on high-dimensional datasets
/// (paper §6.1: 40 KB on Color and Synthetic).
pub const LARGE_PAGE_SIZE: usize = 40 * 1024;

/// LRU cache budget used to improve MkNNQ efficiency (paper §6.1: 128 KB).
pub const KNN_CACHE_BYTES: usize = 128 * 1024;

struct LruCache {
    capacity_pages: usize,
    map: HashMap<PageId, (Arc<[u8]>, u64)>,
    order: std::collections::VecDeque<(u64, PageId)>,
    seq: u64,
}

impl LruCache {
    fn new(capacity_pages: usize) -> Self {
        LruCache {
            capacity_pages,
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            seq: 0,
        }
    }

    fn get(&mut self, id: PageId) -> Option<Arc<[u8]>> {
        self.seq += 1;
        let seq = self.seq;
        let (data, stamp) = self.map.get_mut(&id)?;
        *stamp = seq;
        let data = data.clone();
        self.order.push_back((seq, id));
        Some(data)
    }

    fn put(&mut self, id: PageId, data: Arc<[u8]>) {
        if self.capacity_pages == 0 {
            return;
        }
        self.seq += 1;
        self.map.insert(id, (data, self.seq));
        self.order.push_back((self.seq, id));
        while self.map.len() > self.capacity_pages {
            // Lazy eviction: pop stale order entries until a current one.
            let Some((stamp, victim)) = self.order.pop_front() else {
                break;
            };
            if let Some((_, cur)) = self.map.get(&victim) {
                if *cur == stamp {
                    self.map.remove(&victim);
                }
            }
        }
    }

    fn invalidate(&mut self, id: PageId) {
        self.map.remove(&id);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// Page access counters, shared by a store and every [`DiskSim::fork`] of it.
#[derive(Default)]
struct PageCounters {
    reads: AtomicU64,
    writes: AtomicU64,
}

struct DiskInner {
    page_size: usize,
    pages: Mutex<Vec<Arc<[u8]>>>,
    cache: Mutex<LruCache>,
    counters: Arc<PageCounters>,
}

/// A counting, paged in-memory "disk".
///
/// Reads and writes are counted per page; reads served from the LRU cache
/// are free, matching how the paper's experiments count PA with the 128 KB
/// cache enabled. Cloning shares the underlying store and counters;
/// [`fork`](Self::fork) makes an independent store over the same page bytes.
///
/// ```
/// use pmi_storage::DiskSim;
/// let disk = DiskSim::new(4096);
/// let page = disk.alloc_write(&[7u8; 4096]);
/// assert_eq!(disk.read(page)[0], 7);
/// assert_eq!((disk.reads(), disk.writes()), (1, 1));
/// ```
#[derive(Clone)]
pub struct DiskSim {
    inner: Arc<DiskInner>,
}

impl DiskSim {
    /// Creates a disk with the given page size and no cache.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to be useful");
        DiskSim {
            inner: Arc::new(DiskInner {
                page_size,
                pages: Mutex::new(Vec::new()),
                cache: Mutex::new(LruCache::new(0)),
                counters: Arc::default(),
            }),
        }
    }

    /// A new store holding the same pages: the page vector's `Arc<[u8]>`
    /// handles are cloned (`O(pages)` pointers, no bytes) and a write to
    /// either side replaces that side's handle only, so neither sees the
    /// other's later writes or allocations. The cache starts cold with the
    /// same capacity; the read/write counters are **shared**, so totals
    /// stay monotone when an index moves from a store to its fork.
    pub fn fork(&self) -> Self {
        let capacity_pages = self.inner.cache.lock().capacity_pages;
        DiskSim {
            inner: Arc::new(DiskInner {
                page_size: self.inner.page_size,
                pages: Mutex::new(self.inner.pages.lock().clone()),
                cache: Mutex::new(LruCache::new(capacity_pages)),
                counters: Arc::clone(&self.inner.counters),
            }),
        }
    }

    /// Creates a disk with the default 4 KB pages.
    pub fn default_pages() -> Self {
        Self::new(DEFAULT_PAGE_SIZE)
    }

    /// Enables an LRU page cache of `bytes` capacity (rounded down to whole
    /// pages; 0 disables caching).
    pub fn set_cache_bytes(&self, bytes: usize) {
        let pages = bytes / self.inner.page_size;
        let mut cache = self.inner.cache.lock();
        *cache = LruCache::new(pages);
    }

    /// Drops all cached pages (counters unaffected).
    pub fn clear_cache(&self) {
        self.inner.cache.lock().clear();
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.inner.pages.lock().len()
    }

    /// Total allocated bytes (pages × page size).
    pub fn disk_bytes(&self) -> u64 {
        (self.num_pages() * self.inner.page_size) as u64
    }

    /// Allocates a zeroed page and returns its id. Allocation itself is not
    /// counted; the subsequent write is.
    pub fn alloc(&self) -> PageId {
        let mut pages = self.inner.pages.lock();
        let id = pages.len() as PageId;
        pages.push(Arc::from(
            vec![0u8; self.inner.page_size].into_boxed_slice(),
        ));
        id
    }

    /// Reads a page. Counted unless served from the cache.
    pub fn read(&self, id: PageId) -> Arc<[u8]> {
        if let Some(hit) = self.inner.cache.lock().get(id) {
            return hit;
        }
        let data = {
            let pages = self.inner.pages.lock();
            pages
                .get(id as usize)
                .unwrap_or_else(|| panic!("read of unallocated page {id}"))
                .clone()
        };
        self.inner.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.cache.lock().put(id, data.clone());
        data
    }

    /// Writes a page (must be exactly `page_size` bytes). Always counted;
    /// the cache is updated in place.
    pub fn write(&self, id: PageId, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.inner.page_size,
            "page write must be exactly one page"
        );
        let arc: Arc<[u8]> = Arc::from(data.to_vec().into_boxed_slice());
        {
            let mut pages = self.inner.pages.lock();
            let slot = pages
                .get_mut(id as usize)
                .unwrap_or_else(|| panic!("write of unallocated page {id}"));
            *slot = arc.clone();
        }
        self.inner.counters.writes.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.inner.cache.lock();
        cache.invalidate(id);
        cache.put(id, arc);
    }

    /// Allocates a page and writes `data` to it.
    pub fn alloc_write(&self, data: &[u8]) -> PageId {
        let id = self.alloc();
        self.write(id, data);
        id
    }

    /// Page reads so far.
    pub fn reads(&self) -> u64 {
        self.inner.counters.reads.load(Ordering::Relaxed)
    }

    /// Page writes so far.
    pub fn writes(&self) -> u64 {
        self.inner.counters.writes.load(Ordering::Relaxed)
    }

    /// Resets both counters.
    pub fn reset_counters(&self) {
        self.inner.counters.reads.store(0, Ordering::Relaxed);
        self.inner.counters.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let d = DiskSim::new(128);
        let p = d.alloc();
        let mut data = vec![0u8; 128];
        data[0] = 42;
        d.write(p, &data);
        assert_eq!(d.read(p)[0], 42);
        assert_eq!(d.writes(), 1);
        // No cache: every read counted.
        assert_eq!(d.reads(), 1);
        let _ = d.read(p);
        assert_eq!(d.reads(), 2);
    }

    #[test]
    #[should_panic]
    fn wrong_size_write_panics() {
        let d = DiskSim::new(128);
        let p = d.alloc();
        d.write(p, &[0u8; 64]);
    }

    #[test]
    fn cache_absorbs_repeat_reads() {
        let d = DiskSim::new(128);
        d.set_cache_bytes(4 * 128);
        let pages: Vec<PageId> = (0..3).map(|_| d.alloc_write(&[7u8; 128])).collect();
        d.clear_cache();
        d.reset_counters();
        for _ in 0..10 {
            for &p in &pages {
                let _ = d.read(p);
            }
        }
        // 3 cold misses, everything else cached.
        assert_eq!(d.reads(), 3);
    }

    #[test]
    fn cache_evicts_lru() {
        let d = DiskSim::new(128);
        d.set_cache_bytes(2 * 128); // 2-page cache
        let p: Vec<PageId> = (0..3).map(|_| d.alloc_write(&[1u8; 128])).collect();
        d.clear_cache();
        d.reset_counters();
        let _ = d.read(p[0]); // miss
        let _ = d.read(p[1]); // miss
        let _ = d.read(p[0]); // hit
        let _ = d.read(p[2]); // miss, evicts p[1]
        let _ = d.read(p[1]); // miss
        assert_eq!(d.reads(), 4);
    }

    #[test]
    fn write_updates_cache() {
        let d = DiskSim::new(128);
        d.set_cache_bytes(4 * 128);
        let p = d.alloc_write(&[1u8; 128]);
        let _ = d.read(p);
        d.write(p, &[9u8; 128]);
        d.reset_counters();
        assert_eq!(d.read(p)[0], 9, "cache must reflect the write");
        assert_eq!(d.reads(), 0, "served from cache");
    }

    #[test]
    fn fork_shares_pages_and_counters_but_no_writes() {
        let d = DiskSim::new(128);
        d.set_cache_bytes(2 * 128);
        let p = d.alloc_write(&[1u8; 128]);
        let _ = d.read(p);
        let f = d.fork();
        // Cold cache of the same capacity: the first read is counted, the
        // second is not; both land in the shared counters.
        d.reset_counters();
        assert_eq!(f.read(p)[0], 1);
        assert_eq!(f.read(p)[0], 1);
        assert_eq!((d.reads(), f.reads()), (1, 1));
        // A write or allocation on either side is invisible to the other.
        f.write(p, &[2u8; 128]);
        let q = f.alloc_write(&[3u8; 128]);
        assert_eq!((d.read(p)[0], f.read(p)[0]), (1, 2));
        assert_eq!((d.num_pages(), f.num_pages()), (1, 2));
        d.write(p, &[4u8; 128]);
        let q2 = d.alloc_write(&[5u8; 128]);
        assert_eq!(q, q2, "each side allocates from its own page vector");
        assert_eq!((d.read(q)[0], f.read(q)[0]), (5, 3));
        assert_eq!((d.read(p)[0], f.read(p)[0]), (4, 2));
        assert_eq!(d.writes(), 4);
        assert_eq!(f.writes(), 4);
        // The parent can go away; the fork keeps its pages.
        drop(d);
        assert_eq!(f.read(p)[0], 2);
    }

    #[test]
    fn counters_shared_across_clones() {
        let d = DiskSim::new(128);
        let d2 = d.clone();
        let p = d.alloc_write(&[0u8; 128]);
        let _ = d2.read(p);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.disk_bytes(), 128);
    }
}
