//! LAESA (paper §3.1): a linear pivot table over a shared pivot set.

use pmi_metric::{
    Counters, CountingMetric, EncodeObject, Metric, MetricIndex, Neighbor, ObjId, ObjTable,
    PivotColumns, PivotMatrix, QueryScratch, StorageFootprint,
};

/// LAESA: `n × l` pre-computed distances + linear scan with Lemma 1.
///
/// The distance table is stored as planar u16 bucket [`PivotColumns`] the
/// index owns (2 bytes per distance where the paper's implementation uses
/// 8; a bucket only ever loosens a bound, so every answer stays exact),
/// aligned with the
/// object table's slots: removal tombstones the slot (the row stays in
/// place, unverified). The Lemma 1 filter runs through the blocked
/// [`ScanKernel`](pmi_metric::ScanKernel): one pass computes every slot's
/// lower bound over contiguous storage (no lock, no indirection), survivors
/// are collected into the caller's [`QueryScratch`], and only then does the
/// exact-distance verification pass run — for a kNN scan nearest bound
/// first ([`QueryScratch::knn_verify`]). A sharded engine hands every shard
/// its own rows of the one precomputed matrix
/// ([`build_with_matrix`](Laesa::build_with_matrix)) and grows them through
/// [`MetricIndex::insert_adopted`].
///
/// Cloning shares the distance counter and every full chunk of the columns
/// and of the object table ([`CowVec`](pmi_metric::CowVec)), so the clone
/// costs `O(n / chunk)` and each side then copies only the chunks it
/// writes. It is the [`MetricIndex::fork`].
#[derive(Clone)]
pub struct Laesa<O, M> {
    metric: CountingMetric<M>,
    pivots: Vec<O>,
    /// Stored pivot-distance rows, aligned with the object table's slots.
    rows: PivotColumns,
    table: ObjTable<O>,
}

impl<O, M> Laesa<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O>,
{
    /// Builds LAESA over `objects` with the given pivot objects (selected by
    /// the caller with the shared HFI strategy, §6.1). Construction computes
    /// exactly `n · l` distances.
    pub fn build(objects: Vec<O>, metric: M, pivots: Vec<O>) -> Self {
        let metric = CountingMetric::new(metric);
        let matrix = PivotMatrix::compute(&objects, &metric, &pivots, 1);
        Laesa {
            metric,
            rows: PivotColumns::from(&matrix),
            pivots,
            table: ObjTable::new(objects),
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
        objects: Vec<O>,
        metric: M,
        pivots: Vec<O>,
        rows: PivotColumns,
    ) -> Self {
        assert_eq!(rows.rows(), objects.len(), "one matrix row per object");
        assert_eq!(rows.width(), pivots.len(), "one matrix column per pivot");
        Laesa {
            metric: CountingMetric::new(metric),
            pivots,
            rows,
            table: ObjTable::new(objects),
        }
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }

    /// Number of pivots.
    pub fn num_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// The stored pivot-distance rows (aligned with slot ids, including
    /// tombstoned slots).
    pub fn rows(&self) -> &PivotColumns {
        &self.rows
    }

    /// Appends an object and its pivot-distance row under one slot id.
    fn push(&mut self, o: O, row: &[f64]) -> ObjId {
        let local = self.rows.push_row(row);
        let id = self.table.push(o);
        debug_assert_eq!(id as usize, local);
        id
    }
}

impl<O, M> MetricIndex<O> for Laesa<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        "LAESA"
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        // Malformed radii are rejected at the engine boundary
        // (`QueryError::NanRadius` / `NegativeRadius`); below it they are an
        // empty answer, never a panic. `+∞` stays a valid "match all".
        debug_assert!(!r.is_nan(), "NaN radius must be rejected upstream");
        if r.is_nan() || r < 0.0 {
            return;
        }
        scratch.note_kernel(self.rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        let QueryScratch {
            qd, lbs, survivors, ..
        } = scratch;
        // Blocked kernel over all slots, then collect survivors (live and
        // under the bound) before the exact-distance pass.
        self.rows.lower_bounds_into(qd, lbs);
        survivors.clear();
        survivors.extend(
            self.table
                .iter()
                .filter(|&(id, _)| lbs[id as usize] <= r)
                .map(|(id, _)| id),
        );
        let get = |id| self.table.get(id).expect("survivor is live");
        scratch.range_verify(&self.metric, q, r, "laesa.dist", get, out);
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
        scratch.note_kernel(self.rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        // Lower bounds are radius-independent: one blocked kernel pass,
        // then verification nearest bound first (the paper's LAESA scans in
        // storage order and notes that as suboptimal, §3.1 discussion).
        self.rows.lower_bounds_into(&scratch.qd, &mut scratch.lbs);
        let dist = |id| self.table.get(id).map(|o| self.metric.dist(q, o));
        scratch.knn_verify(k, seed, dist, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        // |P| distance computations (Table 6), appended as one row.
        let row: Vec<f64> = self
            .pivots
            .iter()
            .map(|p| self.metric.dist(&o, p))
            .collect();
        self.push(o, &row)
    }

    fn insert_adopted(&mut self, o: O, row: &[f64]) -> Result<ObjId, O> {
        // The caller already mapped the object: zero distance computations.
        Ok(self.push(o, row))
    }

    fn pivot_rows(&self) -> Option<&PivotColumns> {
        Some(&self.rows)
    }

    fn compact_rows(&mut self, keep: &[ObjId]) -> bool {
        self.table.compact(keep);
        self.rows = self.rows.select(keep);
        true
    }

    /// Clears the slot's liveness bit; the stored row stays in place — a
    /// tombstoned slot is simply never verified. The paper prices a LAESA
    /// delete as a sequential scan to locate the row (§6.3); ids here *are*
    /// slot positions, so that cost is not modelled.
    fn remove(&mut self, id: ObjId) -> bool {
        self.table.remove(id)
    }

    fn get(&self, id: ObjId) -> Option<O> {
        self.table.get(id).cloned()
    }

    fn storage(&self) -> StorageFootprint {
        // The columns keep tombstoned rows (ids stay stable), so their
        // footprint counts slots, not live objects.
        let objs: u64 = self.table.iter().map(|(_, o)| o.encoded_len() as u64).sum();
        let pivots: u64 = self.pivots.iter().map(|p| p.encoded_len() as u64).sum();
        StorageFootprint::mem(self.rows.mem_bytes() + objs + pivots)
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.metric.count(),
            ..Counters::default()
        }
    }

    fn reset_counters(&self) {
        self.metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
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
        let adopted = Laesa::build_with_matrix(pts.clone(), L2, idx.pivots.clone(), matrix);
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
        let mut adopted = Laesa::build_with_matrix(pts.clone(), L2, plain.pivots.clone(), matrix);
        // Hand over the row the way the engine does; the plain insert pays
        // |P| distances to map the same object.
        let o = pts[17].clone();
        let row: Vec<f64> = plain.pivots.iter().map(|p| L2.dist(&o, p)).collect();
        adopted.reset_counters();
        plain.reset_counters();
        let a = adopted
            .insert_adopted(o.clone(), &row)
            .expect("LAESA owns its rows");
        let b = plain.insert(o.clone());
        assert_eq!(a, b, "same slot id");
        assert_eq!(adopted.counters().compdists, 0, "adoption computes nothing");
        assert_eq!(plain.counters().compdists, 3, "remap pays |P|");
        assert_eq!(
            adopted.range_query(&o, 0.0),
            plain.range_query(&o, 0.0),
            "identical answers after the insert"
        );
        // The stored row stands for the row handed over.
        let rows = adopted.pivot_rows().unwrap();
        for (y, &x) in rows.row(a as usize).zip(&row) {
            let (lo, hi) = pmi_metric::matrix::stored_interval(y, rows.step());
            assert!(lo <= x && x <= hi && hi - lo == rows.step());
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
