//! The unified, object-safe index interface implemented by all seventeen
//! index variants, plus a brute-force reference implementation used as the
//! correctness oracle in tests.

use crate::distance::{CountingMetric, Metric};
use crate::matrix::PivotColumns;
use crate::object::Object;
use crate::scratch::{KnnBest, QueryScratch};
use crate::stats::{Counters, Neighbor, ObjId, StorageFootprint};
use crate::table::ObjTable;
use std::borrow::Cow;

/// A metric index over objects of type `O`, supporting the paper's two query
/// types (Definitions 1 and 2) and updates (§6.3).
///
/// `Send + Sync` are supertraits so that boxed indexes can be sharded and
/// queried concurrently by the serving engine (`pmi-engine`): all query
/// methods take `&self`, and all interior mutability in this workspace is
/// atomic (distance counters) or lock-guarded (the simulated disk), so
/// concurrent queries keep the paper's cost accounting exact.
pub trait MetricIndex<O: Object>: Send + Sync {
    /// Index name as used in the paper's tables ("LAESA", "EPT*", ...).
    fn name(&self) -> &str;

    /// Number of live (not removed) objects.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metric range query `MRQ(q, r)`: ids of all objects within distance
    /// `r` of `q`. Order is unspecified. Provided:
    /// [`range_query_into`](Self::range_query_into) over a fresh scratch.
    fn range_query(&self, q: &O, r: f64) -> Vec<ObjId> {
        let mut out = Vec::new();
        self.range_query_into(q, r, &mut QueryScratch::new(), &mut out);
        out
    }

    /// Metric k-nearest-neighbor query `MkNNQ(q, k)`, sorted by ascending
    /// `(distance, id)` — ties at the k-th distance go to the smaller id.
    /// Returns fewer than `k` entries only when the index holds fewer than
    /// `k` objects. Provided: the unseeded
    /// [`knn_query_into_seeded`](Self::knn_query_into_seeded) over a fresh
    /// scratch.
    fn knn_query(&self, q: &O, k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_query_into_seeded(q, k, f64::INFINITY, &mut QueryScratch::new(), &mut out);
        out
    }

    /// The one range method a kind implements: `MRQ(q, r)` for the
    /// batch-serving hot path. Answers are *appended* to `out` and the
    /// transient state the kind shares with the kernel lives in `scratch`,
    /// so the flat pivot tables and the in-memory trees perform no
    /// per-query heap allocations once a worker's buffers are warm.
    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>);

    /// The one kNN method a kind implements: `MkNNQ(q, k)` under a
    /// *pruning seed*, for the batch-serving hot path. The (ascending-sorted)
    /// neighbors are appended to `out`, with the same scratch-reuse
    /// contract as [`range_query_into`](Self::range_query_into). The caller already holds `k` candidates whose worst
    /// distance is `seed` (the sharded engine's running top-k threshold
    /// when probing shards in sequence), so any object — or subtree, page,
    /// cluster — with a lower bound **strictly above** `seed` can be
    /// skipped without being verified: it can only lose the merge. A kind
    /// keeps its k best in a [`KnnBest`], which
    /// prunes with `min(local k-th, seed)` and pushes by the local
    /// `(distance, id)` rule alone; `k = 0` is an empty answer.
    ///
    /// Exactness contract: the merged results must be *identical* to the
    /// unseeded call's. This holds because a skipped object has
    /// `d(q, o) ≥ lb > seed`, and the caller's k-full merge rejects every
    /// candidate at distance strictly above its threshold (which starts at
    /// `seed` and only tightens); a skipped object's absence from this
    /// shard's local top-k can only admit *worse* local candidates, which
    /// are rejected the same way. Pass `f64::INFINITY` when no candidates
    /// are held yet — the plain query. Ignoring the seed is always
    /// correct, just unpruned, and has to be written down (`let _ = seed`
    /// and the reason): there is no default to inherit it from.
    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    );

    /// Inserts an object, returning its id.
    fn insert(&mut self, o: O) -> ObjId;

    /// Inserts a copy of the object `o` views whose pivot-distance row the
    /// caller already computed and stored: `codes`, its distances to the
    /// shared pivot set
    /// as u16 bucket codes under the step of
    /// [`pivot_rows`](Self::pivot_rows) — the sharded engine's mutation
    /// path, which maps and quantises each insert exactly once and calls
    /// this only on an index whose rows are the engine's. Kinds that own
    /// such rows append `codes` as they are, without computing any distance
    /// beyond what their auxiliary structures need (e.g. CPT's M-tree
    /// clustering); the object tables copy the view into their arena, so an
    /// object the engine moves between shards is never made owned. A kind
    /// that keeps no rows ignores `codes` and calls
    /// [`insert`](Self::insert).
    fn insert_adopted(&mut self, o: &O::Target, codes: &[u16]) -> ObjId {
        let _ = codes;
        self.insert(o.to_owned())
    }

    /// The stored pivot-distance rows this index owns and scans, aligned
    /// with its slot ids (a tombstoned slot keeps its row) — LAESA, CPT and
    /// an engine's FQA shard, all one pivot table. When they have the
    /// engine's width they are the shard's share of its pivot space: what
    /// the engine reads to maintain routing boxes and to move objects
    /// between shards without recomputing a distance. `None` for kinds
    /// that keep no such rows; their shard holds its rows itself, as it
    /// does beside an index whose rows are over pivots of its own.
    fn pivot_rows(&self) -> Option<&PivotColumns> {
        None
    }

    /// Engine-level compaction: drops every tombstoned slot, keeping the
    /// survivors in `keep` order (old local ids — ascending global id, the
    /// order a from-scratch rebuild would use). After a successful
    /// compaction local id `i` holds the object — and the pivot row —
    /// previously at `keep[i]` and serving is byte-identical to a rebuild
    /// over the survivors.
    ///
    /// Returns `false` (and must change nothing) for kinds without adopted
    /// rows; the engine then only remaps its own id tables and leaves the
    /// index's tombstones in place.
    fn compact_rows(&mut self, keep: &[ObjId]) -> bool {
        let _ = keep;
        false
    }

    /// Removes an object by id; returns whether it was present.
    fn remove(&mut self, id: ObjId) -> bool;

    /// A live object: borrowed from the index's object table where it has
    /// one, decoded from its pages where it does not.
    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>>;

    /// Retrieves a copy of a live object (used by the update experiment to
    /// delete-then-reinsert, §6.3). Provided: [`object`](Self::object),
    /// owned.
    fn get(&self, id: ObjId) -> Option<O> {
        self.object(id).map(Cow::into_owned)
    }

    /// Current storage footprint, split between memory and disk as in
    /// Table 4's `(I)` / `(D)` annotations.
    fn storage(&self) -> StorageFootprint;

    /// Snapshot of the cost counters.
    fn counters(&self) -> Counters;

    /// Resets all cost counters to zero.
    fn reset_counters(&self);

    /// Configures an LRU page cache of `bytes` capacity on the index's
    /// simulated disk (the paper's 128 KB MkNNQ cache, §6.1). No-op for
    /// in-memory indexes; 0 disables caching.
    fn set_page_cache(&self, bytes: usize) {
        let _ = bytes;
    }

    /// The index as its concrete type, for inspecting a boxed one (a
    /// shard's) through `downcast_ref`; `None` for kinds that offer
    /// nothing to inspect beyond this trait.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// An independently mutable copy of this index: the engine's one write
    /// path forks the shards an `apply` batch touches, mutates the forks
    /// off to the side, and publishes them in one snapshot swap while
    /// readers keep serving from the originals.
    ///
    /// Contract, for every kind: the fork answers every query
    /// byte-identically to the original at fork time, no later write to
    /// either side is visible to the other, and the fork **shares** the
    /// original's cost counters — the distance counter (a
    /// [`CountingMetric`] clone shares its
    /// [`DistanceCounter`](crate::DistanceCounter)) and, for disk kinds, the
    /// page counters — so engine-level totals stay monotone across
    /// snapshot publications.
    ///
    /// Every index is `Clone` and `fork` is that clone; what it costs is
    /// decided by the kind's containers, not per call: the tables (EPT
    /// included) share [`CowVec`](crate::CowVec) chunks, the disk kinds
    /// share pages (`DiskSim::fork`, in-memory directories cloned), the
    /// trees share nodes behind `Arc`s and path-copy what they write, and
    /// AESA and FQA copy their rows.
    fn fork(&self) -> Box<dyn MetricIndex<O>>;
}

/// Brute-force linear scan; the correctness oracle for every other index.
///
/// Cloning shares the distance counter (see [`CountingMetric`]) and the
/// object table's chunks (see [`ObjTable`]) — the clone is the
/// [`MetricIndex::fork`] of the original.
#[derive(Clone)]
pub struct BruteForce<O: Object, M> {
    table: ObjTable<O>,
    metric: CountingMetric<M>,
}

impl<O: Object, M: Metric<O>> BruteForce<O, M> {
    /// Builds the oracle over `objects`.
    pub fn new(objects: impl Into<ObjTable<O>>, metric: M) -> Self {
        BruteForce {
            table: ObjTable::fresh(objects),
            metric: CountingMetric::new(metric),
        }
    }

    /// The instrumented metric (shared counter).
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }
}

impl<O, M> MetricIndex<O> for BruteForce<O, M>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        "BruteForce"
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, _scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        for (id, o) in self.table.iter() {
            if self.metric.dist(q, o) <= r {
                out.push(id);
            }
        }
    }

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if k == 0 {
            return;
        }
        // The oracle has no lower bound to hold against the radius: every
        // distance is computed, seeded or not.
        let mut best = KnnBest::new(&mut scratch.heap, k, seed);
        for (id, o) in self.table.iter() {
            best.offer(id, self.metric.dist(q, o));
        }
        best.finish(out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        self.table.push(&o)
    }

    fn insert_adopted(&mut self, o: &O::Target, _codes: &[u16]) -> ObjId {
        self.table.push(o)
    }

    fn remove(&mut self, id: ObjId) -> bool {
        self.table.remove(id)
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        StorageFootprint::mem((self.table.slots() * std::mem::size_of::<O>()) as u64)
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.metric.count(),
            page_reads: 0,
            page_writes: 0,
        }
    }

    fn reset_counters(&self) {
        self.metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::L2;

    fn sample() -> BruteForce<Vec<f32>, L2> {
        let pts = vec![
            vec![0.0f32, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 5.0],
        ];
        BruteForce::new(pts, L2)
    }

    #[test]
    fn range_and_knn() {
        let idx = sample();
        let q = vec![0.0f32, 0.0];
        let mut r = idx.range_query(&q, 1.5);
        r.sort();
        assert_eq!(r, vec![0, 1]);
        let knn = idx.knn_query(&q, 2);
        assert_eq!(knn[0].id, 0);
        assert_eq!(knn[1].id, 1);
        assert!(idx.counters().compdists > 0);
    }

    #[test]
    fn updates() {
        let mut idx = sample();
        assert_eq!(idx.len(), 4);
        let o = idx.get(1).unwrap();
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert_eq!(idx.len(), 3);
        let q = vec![0.0f32, 0.0];
        assert_eq!(idx.range_query(&q, 1.5), vec![0]);
        let id = idx.insert(o);
        assert_eq!(idx.len(), 4);
        let mut r = idx.range_query(&q, 1.5);
        r.sort();
        assert_eq!(r, vec![0, id]);
    }

    #[test]
    fn knn_smaller_than_k() {
        let idx = sample();
        let q = vec![0.0f32, 0.0];
        assert_eq!(idx.knn_query(&q, 10).len(), 4);
    }
}
