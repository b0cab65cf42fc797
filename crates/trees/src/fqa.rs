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
//! An FQA over stored pivot rows would answer by scanning them and never
//! read its signatures, so a sharded engine's FQA shard is the pivot table
//! itself (`pmi_tables::Laesa::fqa_with_matrix`); this type is the paper's
//! signature array, what standalone builds and `repro` measure.

use pmi_metric::{
    Counters, CountingMetric, KnnBest, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object,
    QueryScratch, StorageFootprint,
};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// FQA over a discrete metric; shares FQT's per-level pivots and bucketing.
///
/// Cloning — the [`MetricIndex::fork`] — copies the sorted signature rows
/// (an FQA insert shifts them, `O(n)`, already); the object table and the
/// distance counter are shared.
#[derive(Clone)]
pub struct Fqa<O: Object, M> {
    metric: CountingMetric<M>,
    pivots: Vec<O>,
    /// Bucket width shared by all levels.
    width: f64,
    buckets: u32,
    /// Lexicographically sorted `(signature, id)` pairs.
    rows: Vec<(Vec<u32>, ObjId)>,
    table: ObjTable<O>,
}

/// The one bucketing rule of the FQA: distance `d` to a level pivot falls
/// in bucket `min(⌊d / width⌋, buckets - 1)`.
#[inline]
fn bucket(d: f64, width: f64, buckets: u32) -> u32 {
    ((d / width) as u32).min(buckets - 1)
}

impl<O, M> Fqa<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Builds an FQA with the shared pivot set. `max_distance` bounds the
    /// discrete distance domain; `buckets` is the signature alphabet size.
    pub fn build(
        objects: impl Into<ObjTable<O>>,
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
        let table = ObjTable::fresh(objects);
        let mut rows: Vec<(Vec<u32>, ObjId)> = table
            .iter()
            .map(|(id, o)| {
                let sig = pivots
                    .iter()
                    .map(|p| bucket(metric.dist(o, p), width, buckets))
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
        }
    }

    fn signature(&self, o: &O::Target) -> Vec<u32> {
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
}

impl<O, M> MetricIndex<O> for Fqa<O, M>
where
    O: Object,
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
        // The classic FQA descent: best case `log n` over bucketed
        // signature runs.
        let qd = &mut scratch.qd;
        qd.clear();
        qd.extend(self.pivots.iter().map(|p| self.metric.dist(q, p)));
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

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if k == 0 || self.table.is_empty() {
            return;
        }
        // Best-first over signature runs, keyed by the accumulated bucket
        // lower bound.
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

    fn insert(&mut self, o: O) -> ObjId {
        let sig = self.signature(&o);
        let id = self.table.push(&o);
        self.insert_sorted(sig, id);
        id
    }

    fn remove(&mut self, id: ObjId) -> bool {
        let Some(o) = self.table.get(id) else {
            return false;
        };
        let Some(pos) = self.position(&self.signature(o), id) else {
            return false;
        };
        self.rows.remove(pos);
        self.table.remove(id);
        true
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        let objs = self.table.encoded_bytes();
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
    use pmi_metric::{BruteForce, EditDistance, LInf};
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
