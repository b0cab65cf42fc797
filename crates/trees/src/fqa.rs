//! FQA — Fixed Queries Array (paper §2.2, Table 1; Chávez et al. [11]).
//!
//! The FQA is the array form of the FQT: instead of materializing tree
//! nodes, every object's vector of (bucketed) distances to the `l` level
//! pivots is stored as a *signature*, and the signatures are kept in one
//! lexicographically sorted array. A tree node corresponds to a contiguous
//! run of equal signature prefixes, found by binary search, so the FQA
//! trades pointer chasing for `log n` searches and is far more compact —
//! the reason it historically scaled past the FQT in memory-constrained
//! settings.
//!
//! A matrix-adopting FQA ([`Fqa::build_with_matrix`]) additionally holds
//! the *exact* pivot distances as slot-aligned [`PivotColumns`] — columns
//! whose step divides 1 hold every discrete distance below their top
//! bucket as itself ([`PivotColumns::holds_integers_exactly`], the
//! condition for adopting them: FQA's own buckets are far coarser than the
//! columns') — and its hot-path queries
//! ([`MetricIndex::range_query_into`] /
//! [`MetricIndex::knn_query_into_seeded`] and the wrappers over them)
//! filter through the blocked
//! [`ScanKernel`](pmi_metric::ScanKernel) over those rows instead of
//! descending bucketed signature runs: the exact Lemma 1 bound is at least
//! as tight as the bucket bound, the scan is a contiguous linear kernel
//! pass, and results remain exact. A plain-built FQA (no matrix) keeps the
//! classic signature descent.

use pmi_metric::{
    Counters, CountingMetric, EncodeObject, KnnBest, Metric, MetricIndex, Neighbor, ObjId,
    ObjTable, PivotColumns, QueryScratch, StorageFootprint,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// FQA over a discrete metric; shares FQT's per-level pivots and bucketing.
///
/// Cloning — the [`MetricIndex::fork`] — copies the sorted signature rows
/// (an FQA insert shifts them, `O(n)`, already); the object table, the
/// adopted rows and the distance counter are shared.
#[derive(Clone)]
pub struct Fqa<O, M> {
    metric: CountingMetric<M>,
    pivots: Vec<O>,
    /// Bucket width shared by all levels.
    width: f64,
    buckets: u32,
    /// Lexicographically sorted `(signature, id)` pairs.
    rows: Vec<(Vec<u32>, ObjId)>,
    table: ObjTable<O>,
    /// Slot-aligned adopted pivot-distance rows, when built with
    /// [`build_with_matrix`](Self::build_with_matrix): signatures for
    /// engine inserts are bucketed from the row that comes with them
    /// ([`MetricIndex::insert_adopted`]) and removals re-derive the removed
    /// object's signature from its row — neither computes any distance.
    adopted: Option<PivotColumns>,
}

/// The one bucketing rule of the FQA: distance `d` to a level pivot falls
/// in bucket `min(⌊d / width⌋, buckets - 1)`. Every signature — built from
/// the metric, from an adopted matrix row at build time, or from an
/// engine-pushed row at insert time — goes through this function, so the
/// sorted-row binary searches always agree.
#[inline]
fn bucket(d: f64, width: f64, buckets: u32) -> u32 {
    ((d / width) as u32).min(buckets - 1)
}

/// The signature of a pivot-distance row, as mapped or as stored — the
/// same for the discrete distances the adopted columns hold exactly.
fn signature_of_row(row: impl Iterator<Item = f64>, width: f64, buckets: u32) -> Vec<u32> {
    row.map(|d| bucket(d, width, buckets)).collect()
}

impl<O, M> Fqa<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O>,
{
    /// Builds an FQA with the shared pivot set. `max_distance` bounds the
    /// discrete distance domain; `buckets` is the signature alphabet size.
    pub fn build(
        objects: Vec<O>,
        metric: M,
        pivots: Vec<O>,
        max_distance: f64,
        buckets: u32,
    ) -> Self {
        assert!(
            metric.is_discrete(),
            "FQA requires a discrete distance function (paper §4.2)"
        );
        assert!(!pivots.is_empty() && buckets >= 2 && max_distance > 0.0);
        let metric = CountingMetric::new(metric);
        let width = (max_distance / buckets as f64).max(1.0);
        let table = ObjTable::new(objects);
        let mut rows: Vec<(Vec<u32>, ObjId)> = table
            .iter()
            .map(|(id, o)| {
                let sig = pivots
                    .iter()
                    .map(|p| ((metric.dist(o, p) / width) as u32).min(buckets - 1))
                    .collect();
                (sig, id)
            })
            .collect();
        rows.sort();
        Fqa {
            metric,
            pivots,
            width,
            buckets,
            rows,
            table,
            adopted: None,
        }
    }

    /// Builds an FQA by *adopting* stored pivot-distance rows (row `i` =
    /// `objects[i]`'s distances to `pivots`, e.g. a shard's rows of an
    /// engine's one matrix): signatures are bucketed straight from the
    /// rows, so construction computes **zero** distances beyond what the
    /// caller already paid for the matrix, and later engine inserts bring
    /// a row this FQA buckets ([`MetricIndex::insert_adopted`]). Queries
    /// are byte-identical to [`build`](Self::build)'s.
    ///
    /// # Panics
    ///
    /// Unless `matrix_rows`
    /// [hold every distance exactly](PivotColumns::holds_integers_exactly)
    /// — removal re-derives an object's signature from its *stored* row.
    /// Under a step above 1 (distances beyond 65 535) a stored row no
    /// longer determines its signature; use [`build`](Self::build) there.
    /// (A later insert beyond the columns' top bucket is stored saturated
    /// all the same; its removal pays `l` distances to name its
    /// signature.)
    pub fn build_with_matrix(
        objects: Vec<O>,
        metric: M,
        pivots: Vec<O>,
        matrix_rows: PivotColumns,
        max_distance: f64,
        buckets: u32,
    ) -> Self {
        assert!(
            metric.is_discrete(),
            "FQA requires a discrete distance function (paper §4.2)"
        );
        assert!(!pivots.is_empty() && buckets >= 2 && max_distance > 0.0);
        assert!(
            matrix_rows.holds_integers_exactly(),
            "adopted rows must hold every discrete distance exactly"
        );
        assert_eq!(
            matrix_rows.rows(),
            objects.len(),
            "one matrix row per object"
        );
        assert_eq!(
            matrix_rows.width(),
            pivots.len(),
            "one matrix column per pivot"
        );
        let width = (max_distance / buckets as f64).max(1.0);
        let table = ObjTable::new(objects);
        let mut rows: Vec<(Vec<u32>, ObjId)> = table
            .iter()
            .map(|(id, _)| {
                (
                    signature_of_row(matrix_rows.row(id as usize), width, buckets),
                    id,
                )
            })
            .collect();
        rows.sort();
        Fqa {
            metric: CountingMetric::new(metric),
            pivots,
            width,
            buckets,
            rows,
            table,
            adopted: Some(matrix_rows),
        }
    }

    fn signature(&self, o: &O) -> Vec<u32> {
        self.pivots
            .iter()
            .map(|p| bucket(self.metric.dist(o, p), self.width, self.buckets))
            .collect()
    }

    fn insert_sorted(&mut self, sig: Vec<u32>, id: ObjId) {
        let pos = self.rows.partition_point(|(s, _)| (s, 0) < (&sig, 1));
        self.rows.insert(pos, (sig, id));
    }

    /// Where `(sig, id)` sits in the sorted signature array: the run of
    /// equal signatures, then the id within it.
    fn position(&self, sig: &[u32], id: ObjId) -> Option<usize> {
        let start = self.rows.partition_point(|(s, _)| s.as_slice() < sig);
        self.rows[start..]
            .iter()
            .take_while(|(s, _)| s == sig)
            .position(|&(_, rid)| rid == id)
            .map(|i| start + i)
    }

    /// Bucket value range compatible with `d(q,p) = dq` and radius `r` at
    /// one level: objects at distance in `[dq-r, dq+r]` fall in these
    /// buckets (bucket `b` covers `[b·w, (b+1)·w)`).
    fn bucket_range(&self, dq: f64, r: f64) -> (u32, u32) {
        let lo = ((dq - r).max(0.0) / self.width) as u32;
        let hi = ((dq + r) / self.width) as u32;
        (lo.min(self.buckets - 1), hi.min(self.buckets - 1))
    }

    /// Finds the sub-slice of `rows[lo..hi]` whose signatures have value
    /// `v` at position `level`, given that the slice is sorted and shares a
    /// common prefix below `level`.
    fn value_run(&self, lo: usize, hi: usize, level: usize, v: u32) -> (usize, usize) {
        let s = &self.rows[lo..hi];
        let start = lo + s.partition_point(|(sig, _)| sig[level] < v);
        let end = lo + s.partition_point(|(sig, _)| sig[level] <= v);
        (start, end)
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }

    /// Lower bound on `d(q, o)` for any object whose level-`i` bucket is
    /// `b`, combined over all levels processed so far (monotone in the
    /// recursion).
    fn bucket_gap(&self, dq: f64, b: u32) -> f64 {
        let lo = b as f64 * self.width;
        let hi = if b + 1 == self.buckets {
            f64::INFINITY
        } else {
            (b + 1) as f64 * self.width
        };
        if dq < lo {
            lo - dq
        } else if dq >= hi {
            dq - hi
        } else {
            0.0
        }
    }

    /// The classic FQA range query: best-case `log n` descent over bucketed
    /// signature runs. The only range path for plain builds; adopted
    /// builds filter through the exact-row kernel instead (module docs).
    fn range_by_signature(&self, q: &O, r: f64, out: &mut Vec<ObjId>) {
        let qd: Vec<f64> = self.pivots.iter().map(|p| self.metric.dist(q, p)).collect();
        // Iterative stack of (slice start, slice end, level).
        let mut stack = vec![(0usize, self.rows.len(), 0usize)];
        while let Some((lo, hi, level)) = stack.pop() {
            if lo >= hi {
                continue;
            }
            if level == self.pivots.len() {
                for (_, id) in &self.rows[lo..hi] {
                    if let Some(o) = self.table.get(*id) {
                        if self.metric.dist(q, o) <= r {
                            out.push(*id);
                        }
                    }
                }
                continue;
            }
            let (blo, bhi) = self.bucket_range(qd[level], r);
            for v in blo..=bhi {
                let (s, e) = self.value_run(lo, hi, level, v);
                if s < e {
                    stack.push((s, e, level + 1));
                }
            }
        }
    }

    /// The classic FQA kNN query: best-first over signature runs, keyed by
    /// the accumulated bucket lower bound.
    fn knn_by_signature(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if self.table.is_empty() {
            return;
        }
        let QueryScratch { qd, heap, .. } = scratch;
        qd.clear();
        qd.extend(self.pivots.iter().map(|p| self.metric.dist(q, p)));
        let mut best = KnnBest::new(heap, k, seed);
        let mut frontier: BinaryHeap<Reverse<(u64, usize, usize, usize)>> = BinaryHeap::new();
        frontier.push(Reverse((0, 0, self.rows.len(), 0)));
        while let Some(Reverse((lb_bits, lo, hi, level))) = frontier.pop() {
            let lb = f64::from_bits(lb_bits);
            if lb > best.radius() {
                break;
            }
            if level == self.pivots.len() {
                for (_, id) in &self.rows[lo..hi] {
                    if let Some(o) = self.table.get(*id) {
                        best.offer(*id, self.metric.dist(q, o));
                    }
                }
                continue;
            }
            // All bucket values present in this run.
            let mut v = self.rows[lo].0[level];
            let last = self.rows[hi - 1].0[level];
            loop {
                let (s, e) = self.value_run(lo, hi, level, v);
                if s < e {
                    let child_lb = lb.max(self.bucket_gap(qd[level], v));
                    if child_lb <= best.radius() {
                        frontier.push(Reverse((child_lb.to_bits(), s, e, level + 1)));
                    }
                }
                if v >= last {
                    break;
                }
                // Jump to the next present value.
                v = if e < hi { self.rows[e].0[level] } else { break };
            }
        }
        best.finish(out);
    }
}

impl<O, M> MetricIndex<O> for Fqa<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        "FQA"
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        // Malformed radii are rejected at the engine boundary; here they
        // are an empty answer, never a panic. `+∞` stays valid.
        debug_assert!(!r.is_nan(), "NaN radius must be rejected upstream");
        if r.is_nan() || r < 0.0 {
            return;
        }
        let Some(rows) = &self.adopted else {
            return self.range_by_signature(q, r, out);
        };
        // Adopted hot path: blocked kernel over the exact rows, survivors
        // collected, then verification — same shape as LAESA.
        scratch.note_kernel(rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        let QueryScratch {
            qd, lbs, survivors, ..
        } = scratch;
        rows.lower_bounds_into(qd, lbs);
        survivors.clear();
        survivors.extend(
            self.table
                .iter()
                .filter(|&(id, _)| lbs[id as usize] <= r)
                .map(|(id, _)| id),
        );
        let get = |id| self.table.get(id).expect("survivor is live");
        scratch.range_verify(&self.metric, q, r, "fqa.dist", get, out);
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
        let Some(rows) = &self.adopted else {
            return self.knn_by_signature(q, k, seed, scratch, out);
        };
        scratch.note_kernel(rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        rows.lower_bounds_into(&scratch.qd, &mut scratch.lbs);
        let dist = |id| self.table.get(id).map(|o| self.metric.dist(q, o));
        scratch.knn_verify(k, seed, dist, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        // An adopted FQA keeps its rows slot-aligned even on the plain
        // path: compute the raw row once, append it, and bucket the
        // signature from it.
        let sig = if let Some(rows) = &mut self.adopted {
            let row: Vec<f64> = self
                .pivots
                .iter()
                .map(|p| self.metric.dist(&o, p))
                .collect();
            rows.push_row(&row);
            signature_of_row(row.into_iter(), self.width, self.buckets)
        } else {
            self.signature(&o)
        };
        let id = self.table.push(o);
        self.insert_sorted(sig, id);
        id
    }

    fn insert_adopted(&mut self, o: O, row: &[f64]) -> Result<ObjId, O> {
        // Bucket the signature straight from the caller's row: zero
        // distance computations.
        let Some(rows) = &mut self.adopted else {
            return Err(o);
        };
        let local = rows.push_row(row);
        let sig = signature_of_row(row.iter().copied(), self.width, self.buckets);
        let id = self.table.push(o);
        debug_assert_eq!(id as usize, local, "rows stay slot-aligned");
        self.insert_sorted(sig, id);
        Ok(id)
    }

    fn pivot_rows(&self) -> Option<&PivotColumns> {
        self.adopted.as_ref()
    }

    fn compact_rows(&mut self, keep: &[ObjId]) -> bool {
        let Some(rows) = &mut self.adopted else {
            return false;
        };
        *rows = rows.select(keep);
        // Remap slot ids in the sorted signature array (signatures are
        // unchanged — zero distance computations), re-sorting because keep
        // order is ascending global id, not necessarily ascending old slot.
        let mut remap = vec![u32::MAX; self.table.slots()];
        for (new, &old) in keep.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        for (_, id) in self.rows.iter_mut() {
            *id = remap[*id as usize];
            debug_assert_ne!(*id, u32::MAX, "signature rows hold only live ids");
        }
        self.rows.sort();
        self.table.compact(keep);
        true
    }

    fn remove(&mut self, id: ObjId) -> bool {
        let Some(o) = self.table.get(id) else {
            return false;
        };
        // Re-derive the signature from the adopted row when present (no
        // distance computations). A row stored saturated — inserted farther
        // from a pivot than the columns' top bucket — no longer names its
        // signature: that one is recomputed from the metric, as a plain
        // FQA's always is.
        let stored = self.adopted.as_ref().and_then(|rows| {
            let sig = signature_of_row(rows.row(id as usize), self.width, self.buckets);
            self.position(&sig, id)
        });
        let Some(pos) = stored.or_else(|| self.position(&self.signature(o), id)) else {
            return false;
        };
        self.rows.remove(pos);
        self.table.remove(id);
        true
    }

    fn get(&self, id: ObjId) -> Option<O> {
        self.table.get(id).cloned()
    }

    fn storage(&self) -> StorageFootprint {
        let objs: u64 = self.table.iter().map(|(_, o)| o.encoded_len() as u64).sum();
        // Signatures are the compact part: l small integers per object.
        let sigs: u64 = self.rows.iter().map(|(s, _)| 4 * s.len() as u64 + 4).sum();
        let pivots: u64 = self.pivots.iter().map(|p| p.encoded_len() as u64).sum();
        StorageFootprint::mem(objs + sigs + pivots)
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
    use pmi_metric::{BruteForce, EditDistance, LInf, PivotMatrix};
    use pmi_pivots::select_hfi;

    fn build_words(n: usize) -> (Vec<String>, Fqa<String, EditDistance>) {
        let ws = datasets::words(n, 17);
        let pv: Vec<String> = select_hfi(&ws, &EditDistance, 5, 17)
            .into_iter()
            .map(|i| ws[i].clone())
            .collect();
        let idx = Fqa::build(ws.clone(), EditDistance, pv, 34.0, 16);
        (ws, idx)
    }

    #[test]
    fn range_matches_brute_force() {
        let (ws, idx) = build_words(400);
        let oracle = BruteForce::new(ws.clone(), EditDistance);
        for r in [1.0, 4.0, 12.0] {
            let mut got = idx.range_query(&ws[9], r);
            got.sort();
            let mut want = oracle.range_query(&ws[9], r);
            want.sort();
            assert_eq!(got, want, "r={r}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (ws, idx) = build_words(400);
        let oracle = BruteForce::new(ws.clone(), EditDistance);
        for k in [1usize, 7, 25] {
            let got = idx.knn_query(&ws[55], k);
            let want = oracle.knn_query(&ws[55], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn works_on_synthetic() {
        let pts = datasets::synthetic(400, 17);
        let m = LInf::discrete();
        let pv: Vec<Vec<f32>> = select_hfi(&pts, &m, 5, 17)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect();
        let idx = Fqa::build(pts.clone(), m, pv, 10000.0, 32);
        let oracle = BruteForce::new(pts.clone(), m);
        let mut got = idx.range_query(&pts[100], 1800.0);
        got.sort();
        let mut want = oracle.range_query(&pts[100], 1800.0);
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn signatures_prune() {
        let (ws, idx) = build_words(800);
        idx.reset_counters();
        let _ = idx.range_query(&ws[0], 1.0);
        let cd = idx.counters().compdists;
        assert!(cd < 800 / 2, "expected pruning, got {cd}");
    }

    #[test]
    fn more_compact_than_fqt() {
        // The FQA's point: signature array beats materialized tree nodes.
        let ws = datasets::words(600, 19);
        let pv: Vec<String> = select_hfi(&ws, &EditDistance, 5, 19)
            .into_iter()
            .map(|i| ws[i].clone())
            .collect();
        let fqa = Fqa::build(ws.clone(), EditDistance, pv.clone(), 34.0, 16);
        let fqt = crate::DiscreteTree::fqt(
            ws.clone(),
            EditDistance,
            pv,
            crate::DiscreteTreeConfig {
                max_distance: 34.0,
                buckets: 16,
                leaf_cap: 8,
                max_depth: 16,
                seed: 19,
            },
        );
        assert!(fqa.storage().mem_bytes < fqt.storage().mem_bytes);
    }

    #[test]
    fn matrix_adoption_is_free_and_byte_identical() {
        let (ws, plain) = build_words(300);
        let matrix = PivotMatrix::compute(&ws, &EditDistance, &plain.pivots, 2);
        let mut adopted = Fqa::build_with_matrix(
            ws.clone(),
            EditDistance,
            plain.pivots.clone(),
            PivotColumns::from(&matrix),
            34.0,
            16,
        );
        assert_eq!(
            adopted.counters().compdists,
            0,
            "signatures bucket matrix rows"
        );
        assert_eq!(adopted.rows, plain.rows, "identical signature array");
        for r in [1.0, 4.0] {
            let mut got = adopted.range_query(&ws[9], r);
            got.sort_unstable();
            let mut want = plain.range_query(&ws[9], r);
            want.sort_unstable();
            assert_eq!(got, want);
        }
        // The adopted kernel scan and the plain signature descent meet
        // candidates in different orders and agree id for id: ties at the
        // k-th distance go to the smaller id on both.
        assert_eq!(adopted.knn_query(&ws[55], 7), plain.knn_query(&ws[55], 7));
        // Engine-style insert: the row comes with the object — still zero
        // distance computations.
        let o = ws[11].clone();
        let row: Vec<f64> = plain
            .pivots
            .iter()
            .map(|p| EditDistance.dist(&o, p))
            .collect();
        adopted.reset_counters();
        let id = adopted
            .insert_adopted(o.clone(), &row)
            .expect("adopting FQA accepts the row");
        assert_eq!(adopted.counters().compdists, 0, "adoption computes nothing");
        assert!(adopted.range_query(&o, 0.0).contains(&id));
        // A plain-built FQA has no adopted matrix and hands the object back.
        let (_, mut bare) = build_words(50);
        assert!(bare.insert_adopted(o, &row).is_err());
    }

    #[test]
    #[should_panic(expected = "hold every discrete distance exactly")]
    fn adoption_is_refused_where_the_columns_cannot_hold_the_distances() {
        // Distances up to 70 001 need a step of 2: 70 001 is stored as
        // 70 000, a signature re-derived from the stored row could name
        // another bucket than the one built from the distance, and a
        // remove would not find its signature row.
        let ws = datasets::words(20, 3);
        let pivots = vec![ws[0].clone()];
        let far = PivotMatrix::from_rows(1, (0..20).map(|i| [70_001.0 - f64::from(i)]));
        let _ = Fqa::build_with_matrix(ws, EditDistance, pivots, (&far).into(), 1e5, 16);
    }

    #[test]
    fn an_insert_beyond_the_adopted_top_bucket_is_still_removable() {
        // Short words only at build: distances to the pivot stay under 16,
        // so the columns' step is 2⁻¹² and their top bucket starts at 16.
        let ws: Vec<String> = datasets::words(400, 17)
            .into_iter()
            .filter(|w| w.len() <= 8)
            .collect();
        let pivots = vec![ws[0].clone()];
        let rows = PivotColumns::from(&PivotMatrix::compute(&ws, &EditDistance, &pivots, 1));
        assert!(65_535.0 * rows.step() < 17.0);
        let mut idx = Fqa::build_with_matrix(ws, EditDistance, pivots.clone(), rows, 34.0, 16);
        // Two long words, 20 and 30 edits from the pivot: both are stored
        // saturated, in different signature buckets.
        let long: Vec<String> = [20, 30].iter().map(|&n| "z".repeat(n)).collect();
        let ids: Vec<ObjId> = long
            .iter()
            .map(|w| {
                let row = [EditDistance.dist(w, &pivots[0])];
                idx.insert_adopted(w.clone(), &row).expect("adopting")
            })
            .collect();
        assert_eq!(
            idx.pivot_rows().unwrap().row(ids[0] as usize).next(),
            idx.pivot_rows().unwrap().row(ids[1] as usize).next()
        );
        for (w, &id) in long.iter().zip(&ids) {
            assert_eq!(idx.range_query(w, 0.0), vec![id]);
            assert_eq!(idx.knn_query(w, 1)[0].id, id);
        }
        idx.reset_counters();
        assert!(idx.remove(ids[1]) && idx.remove(ids[0]) && !idx.remove(ids[0]));
        assert_eq!(idx.counters().compdists, 2, "one pivot distance a miss");
        assert!(idx.range_query(&long[1], 0.0).is_empty());
        // A row the columns hold exactly costs nothing to remove.
        idx.reset_counters();
        assert!(idx.remove(3));
        assert_eq!(idx.counters().compdists, 0);
    }

    #[test]
    fn update_cycle() {
        let (ws, mut idx) = build_words(200);
        let o = idx.get(31).unwrap();
        assert!(idx.remove(31));
        assert!(!idx.remove(31));
        assert_eq!(idx.len(), 199);
        let id = idx.insert(o);
        assert!(idx.range_query(&ws[31], 0.0).contains(&id));
        assert_eq!(idx.len(), 200);
    }

    #[test]
    #[should_panic]
    fn continuous_metric_rejected() {
        let pts = datasets::la(40, 1);
        let _ = Fqa::build(
            pts.clone(),
            pmi_metric::L2,
            vec![pts[0].clone()],
            14143.0,
            16,
        );
    }
}
