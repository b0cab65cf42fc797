//! CPT (paper §3.3): clustered pivot table — LAESA's distance table in main
//! memory, with the objects themselves clustered on disk in an M-tree.
//!
//! Queries run the same table body as LAESA; whenever an object survives
//! Lemma 1 it must first be *fetched from disk* (one page read through the
//! M-tree leaf directory) before the distance can be computed. This is the
//! CPU/I-O overhead the paper attributes to CPT. What CPT adds to the table
//! is only that: a slot liveness bitmap and the M-tree the objects are
//! fetched from.

use crate::pivot_table::PivotTable;
use pmi_metric::{
    Counters, CountingMetric, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object, PivotColumns,
    QueryScratch, StorageFootprint,
};
use pmi_mtree::MTree;
use pmi_storage::DiskSim;
use std::borrow::Cow;

/// CPT: in-memory pivot table + on-disk M-tree holding the objects.
pub struct Cpt<O: Object, M> {
    table: PivotTable<O, M>,
    /// Liveness per slot (tombstoned removal keeps ids stable).
    alive: Vec<bool>,
    mtree: MTree<O, CountingMetric<M>>,
    live: usize,
}

impl<O, M> Cpt<O, M>
where
    O: Object,
    M: Metric<O> + Clone,
{
    /// Builds CPT on `disk` (the paper uses 40 KB pages for Color/Synthetic
    /// because objects are stored inline in the M-tree).
    pub fn build(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        disk: DiskSim,
    ) -> Self {
        let objects = ObjTable::fresh(objects);
        let table = PivotTable::compute(&objects, metric, pivots);
        Self::finish(objects, table, disk)
    }

    /// Builds CPT by *adopting* stored pivot-distance rows (row `i` =
    /// `objects[i]`'s distances to `pivots` — a shard's rows of the
    /// engine's one matrix): the `n · l` table costs nothing here; only
    /// the M-tree build computes distances. Queries are byte-identical to
    /// [`build`](Self::build)'s, and engine inserts bring their row along
    /// ([`MetricIndex::insert_adopted`]).
    pub fn build_with_matrix(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        rows: PivotColumns,
        disk: DiskSim,
    ) -> Self {
        let objects = ObjTable::fresh(objects);
        let table = PivotTable::adopt(objects.len(), metric, pivots, rows);
        Self::finish(objects, table, disk)
    }

    /// Pages the objects into the M-tree, which keeps them from then on.
    fn finish(objects: ObjTable<O>, table: PivotTable<O, M>, disk: DiskSim) -> Self {
        // Plain M-tree (no pivot augmentation): it only clusters objects.
        let mut mtree = MTree::new(disk, table.metric.clone(), Vec::new());
        for (i, o) in objects.iter() {
            mtree.insert(i, &o.to_owned());
        }
        Cpt {
            table,
            alive: vec![true; objects.len()],
            mtree,
            live: objects.len(),
        }
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.table.metric
    }

    /// The on-disk M-tree.
    pub fn mtree(&self) -> &MTree<O, CountingMetric<M>> {
        &self.mtree
    }

    /// Adds an object under the slot its row was just pushed to; only the
    /// M-tree clustering computes distances.
    fn push(&mut self, o: &O, local: usize) -> ObjId {
        let id = local as ObjId;
        self.alive.push(true);
        self.mtree.insert(id, o);
        self.live += 1;
        id
    }
}

/// The [`MetricIndex::fork`]: the M-tree moves onto a [`DiskSim::fork`] of
/// its disk (pages shared until written, page counters shared), the rows
/// share every full chunk of their columns, and the liveness bitmap and the
/// M-tree's leaf directory are copied (`O(n)` small entries).
impl<O, M> Clone for Cpt<O, M>
where
    O: Object,
    M: Metric<O> + Clone,
{
    fn clone(&self) -> Self {
        Cpt {
            table: self.table.clone(),
            alive: self.alive.clone(),
            mtree: self.mtree.fork_onto(&self.mtree.disk().fork()),
            live: self.live,
        }
    }
}

impl<O, M> MetricIndex<O> for Cpt<O, M>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        "CPT"
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.live
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        let live = |id: ObjId| self.alive[id as usize];
        let get = |id| Cow::<O::Target>::Owned(self.mtree.fetch(id).expect("object on disk"));
        self.table.range(q, r, scratch, live, "cpt.dist", get, out);
    }

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        // A slot never verified is a disk fetch saved too — the biggest win
        // for CPT, whose verification pages objects in from the M-tree.
        let get = |id| {
            let fetch = || Cow::<O::Target>::Owned(self.mtree.fetch(id).expect("object on disk"));
            self.alive[id as usize].then(fetch)
        };
        self.table.knn(q, k, seed, scratch, get, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        let local = self.table.push_mapped(&o);
        self.push(&o, local)
    }

    fn insert_adopted(&mut self, o: &O::Target, codes: &[u16]) -> ObjId {
        // The `n · l` table row comes with the object; only the M-tree
        // clustering computes distances (its normal insert cost).
        let local = self.table.rows.push_codes(codes);
        self.push(&o.to_owned(), local)
    }

    fn pivot_rows(&self) -> Option<&PivotColumns> {
        Some(&self.table.rows)
    }

    fn compact_rows(&mut self, keep: &[ObjId]) -> bool {
        // Relabel the M-tree's entries onto the dense new local ids: fetch
        // every survivor, empty the tree, reinsert under the new id. This
        // pays the normal M-tree clustering cost (like a rebuild would);
        // the n × l table itself is copied without computing a distance.
        let objs: Vec<O> = keep
            .iter()
            .map(|&id| self.mtree.fetch(id).expect("survivor on disk"))
            .collect();
        for (&id, o) in keep.iter().zip(&objs) {
            assert!(self.mtree.remove(id, o), "survivor removable");
        }
        for (new_id, o) in objs.iter().enumerate() {
            self.mtree.insert(new_id as ObjId, o);
        }
        self.alive.clear();
        self.alive.resize(keep.len(), true);
        self.live = keep.len();
        self.table.select(keep);
        true
    }

    fn remove(&mut self, id: ObjId) -> bool {
        match self.alive.get_mut(id as usize) {
            Some(slot @ true) => {
                *slot = false;
                let o = self.mtree.fetch(id).expect("object on disk");
                assert!(self.mtree.remove(id, &o));
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        if !*self.alive.get(id as usize)? {
            return None;
        }
        self.mtree.fetch(id).map(Cow::Owned)
    }

    fn storage(&self) -> StorageFootprint {
        StorageFootprint {
            mem_bytes: self.table.mem_bytes() + self.alive.len() as u64,
            disk_bytes: self.mtree.disk_bytes(),
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.table.metric.count(),
            page_reads: self.mtree.disk().reads(),
            page_writes: self.mtree.disk().writes(),
        }
    }

    fn reset_counters(&self) {
        self.table.metric.reset();
        self.mtree.disk().reset_counters();
    }

    fn set_page_cache(&self, bytes: usize) {
        self.mtree.disk().set_cache_bytes(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::{BruteForce, L2};
    use pmi_pivots::select_hfi;

    fn build(n: usize) -> (Vec<Vec<f32>>, Cpt<Vec<f32>, L2>) {
        let pts = datasets::la(n, 21);
        let pv: Vec<Vec<f32>> = select_hfi(&pts, &L2, 4, 21)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect();
        let idx = Cpt::build(pts.clone(), L2, pv, DiskSim::new(1024));
        (pts, idx)
    }

    #[test]
    fn range_matches_brute_force() {
        let (pts, idx) = build(300);
        let oracle = BruteForce::new(pts.clone(), L2);
        for r in [100.0, 1200.0] {
            let mut got = idx.range_query(&pts[11], r);
            got.sort();
            let mut want = oracle.range_query(&pts[11], r);
            want.sort();
            assert_eq!(got, want, "r={r}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, idx) = build(300);
        let oracle = BruteForce::new(pts.clone(), L2);
        let got = idx.knn_query(&pts[200], 9);
        let want = oracle.knn_query(&pts[200], 9);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_adoption_skips_the_table_cost() {
        let (pts, idx) = build(250);
        let adopted = Cpt::build_with_matrix(
            pts.clone(),
            L2,
            idx.table.pivots.clone(),
            idx.table.rows.clone(),
            DiskSim::new(1024),
        );
        // The adopted build pays only the M-tree construction: exactly the
        // n·l table cost less than the recompute path.
        assert_eq!(
            idx.counters().compdists - adopted.counters().compdists,
            250 * 4
        );
        for r in [100.0, 1200.0] {
            assert_eq!(
                adopted.range_query(&pts[11], r),
                idx.range_query(&pts[11], r)
            );
        }
        assert_eq!(adopted.knn_query(&pts[60], 8), idx.knn_query(&pts[60], 8));
    }

    #[test]
    fn queries_cost_page_reads() {
        let (pts, idx) = build(300);
        idx.reset_counters();
        let _ = idx.range_query(&pts[50], 500.0);
        let c = idx.counters();
        assert!(c.page_reads > 0, "verification must hit the disk");
        assert!(c.compdists > 0);
    }

    #[test]
    fn construction_costs_more_than_laesa() {
        // Table 4: CPT pays the M-tree build on top of the n·l table.
        let (_, idx) = build(300);
        assert!(idx.counters().compdists > 300 * 4);
        let s = idx.storage();
        assert!(s.mem_bytes > 0 && s.disk_bytes > 0);
        // In memory: 2·l bytes of rows and one liveness byte per slot, plus
        // the pivots (a 2-d f32 point encodes to 12 bytes).
        assert_eq!(s.mem_bytes, 300 * (2 * 4 + 1) + 4 * 12);
    }

    #[test]
    fn update_cycle() {
        let (pts, mut idx) = build(200);
        let o = idx.get(33).unwrap();
        assert_eq!(o, pts[33]);
        assert!(idx.remove(33));
        assert!(!idx.remove(33));
        assert_eq!(idx.len(), 199);
        assert!(
            idx.range_query(&pts[33], 0.0).is_empty()
                || !idx.range_query(&pts[33], 0.0).contains(&33)
        );
        let id = idx.insert(o);
        assert!(idx.range_query(&pts[33], 0.0).contains(&id));
        assert_eq!(idx.len(), 200);
    }
}
