//! LAESA (paper §3.1): the pivot table over a shared pivot set, with the
//! objects in main memory.

use crate::pivot_table::PivotTable;
use pmi_metric::{
    Counters, CountingMetric, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object, PivotColumns,
    QueryScratch, StorageFootprint,
};
use std::borrow::Cow;

/// LAESA: `n × l` pre-computed distances + linear scan with Lemma 1.
///
/// The distance table is stored as planar u16 bucket [`PivotColumns`] the
/// index owns (2 bytes per distance where the paper's implementation uses
/// 8; a bucket only ever loosens a bound, so every answer stays exact),
/// aligned with the object table's slots: removal tombstones the slot (the
/// row stays in place, unverified). A query runs the table's one body,
/// written once for LAESA and CPT: one pass of the blocked
/// [`ScanKernel`](pmi_metric::ScanKernel) computes every slot's lower bound
/// over contiguous storage (no lock, no indirection), survivors are
/// collected into the caller's [`QueryScratch`], and only then does the
/// exact-distance verification pass run — for a kNN scan nearest bound
/// first ([`QueryScratch::knn_verify`]). A sharded engine hands every shard
/// its own rows of the one precomputed matrix
/// ([`build_with_matrix`](Laesa::build_with_matrix)) and grows them through
/// [`MetricIndex::insert_adopted`].
///
/// An engine's FQA is this index under FQA's name
/// ([`fqa_with_matrix`](Laesa::fqa_with_matrix)): an FQA that holds the
/// rows scans them and never reads a signature array.
///
/// Cloning shares the distance counter and every full chunk of the columns
/// and of the object table ([`CowVec`](pmi_metric::CowVec)), so the clone
/// costs `O(n / chunk)` and each side then copies only the chunks it
/// writes. It is the [`MetricIndex::fork`].
#[derive(Clone)]
pub struct Laesa<O: Object, M> {
    table: PivotTable<O, M>,
    /// The objects, slot-aligned with the table's rows.
    objects: ObjTable<O>,
    /// The name the index answers to ([`MetricIndex::name`]).
    name: &'static str,
    /// The fault point range verification passes (`fault::dist`).
    point: &'static str,
}

impl<O, M> Laesa<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Builds LAESA over `objects` with the given pivot objects (selected by
    /// the caller with the shared HFI strategy, §6.1). Construction computes
    /// exactly `n · l` distances.
    pub fn build(objects: impl Into<ObjTable<O>>, metric: M, pivots: Vec<O>) -> Self {
        let objects = ObjTable::fresh(objects);
        Laesa {
            table: PivotTable::compute(&objects, metric, pivots),
            objects,
            name: "LAESA",
            point: "laesa.dist",
        }
    }

    /// Builds LAESA by *adopting* stored pivot-distance rows (row `i` =
    /// `objects[i]`'s distances to `pivots`) — the sharded build path
    /// hands each shard its rows of the one matrix the engine computed, so
    /// a sharded build costs `n · l` once instead of once per shard, and
    /// later engine inserts bring their row along
    /// ([`MetricIndex::insert_adopted`]). Computes **zero** distances;
    /// queries are byte-identical to [`build`](Self::build)'s.
    pub fn build_with_matrix(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        rows: PivotColumns,
    ) -> Self {
        let objects = ObjTable::fresh(objects);
        Laesa {
            table: PivotTable::adopt(objects.len(), metric, pivots, rows),
            objects,
            name: "LAESA",
            point: "laesa.dist",
        }
    }

    /// [`build_with_matrix`](Self::build_with_matrix) under FQA's name
    /// (`name()` is `"FQA"`, range verification passes the `fqa.dist`
    /// fault point): the FQA a sharded engine builds. Its signature array
    /// would never be read, because an FQA over stored rows answers by
    /// scanning them, so only the table is kept.
    ///
    /// # Panics
    ///
    /// Unless `metric` is discrete, as FQA's is (paper §4.2).
    pub fn fqa_with_matrix(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        rows: PivotColumns,
    ) -> Self {
        assert!(
            metric.is_discrete(),
            "FQA requires a discrete distance function (paper §4.2)"
        );
        Laesa {
            name: "FQA",
            point: "fqa.dist",
            ..Self::build_with_matrix(objects, metric, pivots, rows)
        }
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.table.metric
    }

    /// Number of pivots.
    pub fn num_pivots(&self) -> usize {
        self.table.pivots.len()
    }

    /// The stored pivot-distance rows (aligned with slot ids, including
    /// tombstoned slots).
    pub fn rows(&self) -> &PivotColumns {
        &self.table.rows
    }

    /// Appends an object under the slot its row was just pushed to.
    fn push(&mut self, o: &O::Target, local: usize) -> ObjId {
        let id = self.objects.push(o);
        debug_assert_eq!(id as usize, local);
        id
    }
}

impl<O, M> MetricIndex<O> for Laesa<O, M>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        self.name
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        let live = |id| self.objects.is_live(id);
        let get = |id| self.objects.get(id).expect("survivor is live");
        self.table.range(q, r, scratch, live, self.point, get, out);
    }

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        let get = |id| self.objects.get(id);
        self.table.knn(q, k, seed, scratch, get, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        let local = self.table.push_mapped(&o);
        self.push(&o, local)
    }

    fn insert_adopted(&mut self, o: &O::Target, codes: &[u16]) -> ObjId {
        // The caller already mapped the object: zero distance computations.
        let local = self.table.rows.push_codes(codes);
        self.push(o, local)
    }

    fn pivot_rows(&self) -> Option<&PivotColumns> {
        Some(&self.table.rows)
    }

    fn compact_rows(&mut self, keep: &[ObjId]) -> bool {
        self.objects.compact(keep);
        self.table.select(keep);
        true
    }

    /// Clears the slot's liveness bit; the stored row stays in place — a
    /// tombstoned slot is simply never verified. The paper prices a LAESA
    /// delete as a sequential scan to locate the row (§6.3); ids here *are*
    /// slot positions, so that cost is not modelled.
    fn remove(&mut self, id: ObjId) -> bool {
        self.objects.remove(id)
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.objects.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        // The columns keep tombstoned rows (ids stay stable), so their
        // footprint counts slots, not live objects.
        StorageFootprint::mem(self.table.mem_bytes() + self.objects.encoded_bytes())
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.table.metric.count(),
            ..Counters::default()
        }
    }

    fn reset_counters(&self) {
        self.table.metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::matrix::quantise;
    use pmi_metric::{BruteForce, L2};
    use pmi_pivots::select_hfi;

    fn build(n: usize, l: usize) -> (Vec<Vec<f32>>, Laesa<Vec<f32>, L2>) {
        let pts = datasets::la(n, 5);
        let pv = select_hfi(&pts, &L2, l, 5)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect();
        let idx = Laesa::build(pts.clone(), L2, pv);
        (pts, idx)
    }

    #[test]
    fn construction_compdists_is_n_times_l() {
        let (_, idx) = build(300, 5);
        assert_eq!(idx.counters().compdists, 300 * 5);
    }

    #[test]
    fn matrix_adoption_computes_zero_distances_and_matches() {
        let (pts, idx) = build(400, 4);
        let matrix = idx.rows().clone();
        let adopted = Laesa::build_with_matrix(pts.clone(), L2, idx.table.pivots.clone(), matrix);
        assert_eq!(adopted.counters().compdists, 0, "adoption is free");
        for qi in [0usize, 57, 399] {
            assert_eq!(
                adopted.range_query(&pts[qi], 700.0),
                idx.range_query(&pts[qi], 700.0)
            );
            assert_eq!(adopted.knn_query(&pts[qi], 7), idx.knn_query(&pts[qi], 7));
        }
    }

    #[test]
    fn insert_adopted_is_free_and_byte_identical() {
        let (pts, mut plain) = build(200, 3);
        let matrix = plain.rows().clone();
        let mut adopted =
            Laesa::build_with_matrix(pts.clone(), L2, plain.table.pivots.clone(), matrix);
        // Hand over the row the way the engine does; the plain insert pays
        // |P| distances to map the same object.
        let o = pts[17].clone();
        let row: Vec<f64> = plain.table.pivots.iter().map(|p| L2.dist(&o, p)).collect();
        let step = adopted.pivot_rows().unwrap().step();
        let codes: Vec<u16> = row.iter().map(|&x| quantise(x, step)).collect();
        adopted.reset_counters();
        plain.reset_counters();
        let a = adopted.insert_adopted(&o, &codes);
        let b = plain.insert(o.clone());
        assert_eq!(a, b, "same slot id");
        assert_eq!(adopted.counters().compdists, 0, "adoption computes nothing");
        assert_eq!(plain.counters().compdists, 3, "remap pays |P|");
        assert_eq!(
            adopted.range_query(&o, 0.0),
            plain.range_query(&o, 0.0),
            "identical answers after the insert"
        );
        // The stored row is the codes handed over, and each bucket holds
        // its distance.
        let rows = adopted.pivot_rows().unwrap();
        assert!(rows.codes(a as usize).eq(codes.iter().copied()));
        for (y, &x) in rows.row(a as usize).zip(&row) {
            assert!(y <= x && x < y + step);
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let (pts, idx) = build(400, 5);
        let oracle = BruteForce::new(pts.clone(), L2);
        for qi in [0usize, 57, 399] {
            for r in [50.0, 700.0, 4000.0] {
                let mut got = idx.range_query(&pts[qi], r);
                got.sort();
                let mut want = oracle.range_query(&pts[qi], r);
                want.sort();
                assert_eq!(got, want, "q={qi} r={r}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, idx) = build(400, 5);
        let oracle = BruteForce::new(pts.clone(), L2);
        for k in [1usize, 10, 50] {
            let got = idx.knn_query(&pts[33], k);
            let want = oracle.knn_query(&pts[33], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn pruning_actually_helps() {
        let (pts, idx) = build(600, 5);
        idx.reset_counters();
        let _ = idx.range_query(&pts[10], 200.0);
        let cd = idx.counters().compdists;
        // 5 pivot distances + far fewer than n verifications.
        assert!(cd < 600 / 2, "expected pruning, got {cd} compdists");
    }

    #[test]
    fn update_cycle() {
        let (pts, mut idx) = build(200, 3);
        let o = idx.get(17).unwrap();
        assert!(idx.remove(17));
        assert!(!idx.remove(17));
        assert_eq!(idx.len(), 199);
        assert!(!idx.range_query(&pts[17], 0.0).contains(&17));
        let nid = idx.insert(o);
        assert_eq!(idx.len(), 200);
        let hits = idx.range_query(&pts[17], 0.0);
        assert!(hits.contains(&nid));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let (pts, idx) = build(300, 4);
        let mut scratch = QueryScratch::new();
        let mut out_ids = Vec::new();
        let mut out_nn = Vec::new();
        for qi in [3usize, 150, 299] {
            out_ids.clear();
            idx.range_query_into(&pts[qi], 500.0, &mut scratch, &mut out_ids);
            assert_eq!(out_ids, idx.range_query(&pts[qi], 500.0), "qi={qi}");
            out_nn.clear();
            idx.knn_query_into_seeded(&pts[qi], 9, f64::INFINITY, &mut scratch, &mut out_nn);
            assert_eq!(out_nn, idx.knn_query(&pts[qi], 9), "qi={qi}");
        }
    }

    #[test]
    fn storage_is_memory_only() {
        let (_, idx) = build(100, 3);
        let s = idx.storage();
        assert!(s.mem_bytes > 0);
        assert_eq!(s.disk_bytes, 0);
        assert_eq!(idx.counters().page_accesses(), 0);
        // Rows cost 2·l bytes per slot and nothing else is per slot; a
        // 2-d f32 point encodes to 12 bytes.
        let objects_and_pivots = (100 + 3) * 12;
        assert_eq!(s.mem_bytes, 100 * 2 * 3 + objects_and_pivots);
    }
}
