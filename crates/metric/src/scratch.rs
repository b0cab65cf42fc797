//! Reusable per-worker query scratch space.
//!
//! The batch-serving hot loop answers thousands of queries per worker
//! thread; allocating a fresh query-pivot distance vector, candidate heap,
//! and result buffers for every query is pure overhead. A [`QueryScratch`]
//! owns those buffers once per worker and is threaded through
//! [`MetricIndex::range_query_into`](crate::MetricIndex::range_query_into) /
//! [`MetricIndex::knn_query_into_seeded`](crate::MetricIndex::knn_query_into_seeded), so
//! that after a short warmup the scan path performs no transient heap
//! allocations per query.
//!
//! It also holds the two pieces every kind's kNN is made of: [`KnnBest`],
//! the k best so far and the one radius a probe prunes with, and
//! [`QueryScratch::knn_verify`], the verification order of the scan
//! tables; [`QueryScratch::range_survivors`] and
//! [`QueryScratch::range_verify`] are their range filter and verification.
//! Both read the scan's u16 gaps ([`ScanKernel`](crate::ScanKernel), "The
//! gap") and meet a radius in code space.

use crate::distance::{dists_from, views, Metric};
use crate::fault;
use crate::matrix::steps_within;
use crate::object::Object;
use crate::stats::{Neighbor, ObjId};
use std::borrow::Borrow;
use std::collections::BinaryHeap;

/// Width of a scan table's kNN probe in units of `k`: the
/// [`knn_verify`](QueryScratch::knn_verify) pass verifies the
/// `PROBE_WIDTH · k` smallest gaps in `(gap, slot)` order before it falls
/// back to slot order.
const PROBE_WIDTH: usize = 4;

/// Reusable buffers for one query-serving worker.
///
/// All buffers keep their capacity across queries; callers `clear()` (or let
/// the index methods clear) rather than reallocate. One scratch must not be
/// shared across threads — each worker owns its own.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Query-to-pivot distances (`d(q, p_1), …, d(q, p_l)`), recomputed per
    /// query into the same buffer.
    pub qd: Vec<f64>,
    /// Bounded max-heap of current k best neighbors for kNN scans. Emptied
    /// by each use; capacity persists.
    pub heap: BinaryHeap<Neighbor>,
    /// Per-slot Lemma 1 gaps, filled by the scan kernel once per scan:
    /// entry `i` is slot `i`'s gap `g` (tombstoned slots included), whose
    /// bound is `g · step` under the step of the rows scanned.
    pub gaps: Vec<u16>,
    /// Slot ids a kernel scan verified with an exact distance: the
    /// lower-bound filter's survivors of a range scan (collected before the
    /// verification pass), the slots
    /// [`knn_verify`](Self::knn_verify) verified of a kNN scan.
    pub survivors: Vec<u32>,
    /// The smallest `(gap, slot)` pairs of a kNN scan, in that order.
    /// Refilled by each use; capacity persists.
    pub probe: Vec<(u16, ObjId)>,
    /// Rows pushed through the Lemma 1 scan kernel since the last engine
    /// harvest (the tally a query trace's `Scan` event and the
    /// `serve.scan` phase read).
    pub kernel_rows: u64,
}

impl QueryScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Clears all buffers, keeping capacity. The kernel tally is *not*
    /// cleared here — it is a cross-query accumulator the engine reads and
    /// resets at batch boundaries via [`QueryScratch::take_kernel_tally`].
    pub fn clear(&mut self) {
        self.qd.clear();
        self.heap.clear();
        self.gaps.clear();
        self.survivors.clear();
        self.probe.clear();
    }

    /// Tallies one kernel scan over `rows` table slots: one integer add on
    /// the worker's own state per probe, no atomics.
    #[inline]
    pub fn note_kernel(&mut self, rows: usize) {
        self.kernel_rows += rows as u64;
    }

    /// Returns and resets the kernel row tally.
    #[inline]
    pub fn take_kernel_tally(&mut self) -> u64 {
        std::mem::take(&mut self.kernel_rows)
    }

    /// The verification half of a scan table's kNN, the same for the pivot
    /// table (LAESA, CPT, an engine's FQA) and EPT. `gaps` holds every
    /// slot's gap under `step` (the kernel pass the caller just ran);
    /// `dist(slot)` is the exact distance of a live slot, `None` for a
    /// tombstoned one; `seed` is the caller's k-th distance
    /// ([`MetricIndex::knn_query_into_seeded`](crate::MetricIndex::knn_query_into_seeded)).
    /// Appends the local top-k to `out` and leaves the verified slots in
    /// `survivors`.
    ///
    /// One pass keeps the `PROBE_WIDTH · k` smallest `(gap, slot)` pairs
    /// whose bound is within the seed. They are verified in ascending
    /// order, and the first bound above the running k-th distance ends the
    /// query: every slot outside the probe has a larger bound still. Only a
    /// *full* probe that runs dry continues, over the remaining slots in
    /// slot order under [`KnnBest::radius`] — a short probe already held
    /// every slot the seed admits. Full bound order would verify a little
    /// less, at a random object read per slot; which phase ends a query is
    /// the data's choice (`docs/performance.md`, "One kNN radius").
    pub fn knn_verify(
        &mut self,
        k: usize,
        seed: f64,
        step: f64,
        mut dist: impl FnMut(ObjId) -> Option<f64>,
        out: &mut Vec<Neighbor>,
    ) {
        let QueryScratch {
            heap,
            gaps,
            survivors,
            probe,
            ..
        } = self;
        survivors.clear();
        if k == 0 {
            return;
        }
        let width = k.saturating_mul(PROBE_WIDTH);
        select_probe(gaps, steps_within(seed, step), width, probe);
        let mut best = KnnBest::new(heap, k, seed);
        let mut verify = |slot: ObjId, best: &mut KnnBest| {
            if let Some(d) = dist(slot) {
                survivors.push(slot);
                best.offer(slot, d);
            }
        };
        let mut done = probe.len() < width;
        for &(g, slot) in probe.iter() {
            if g > steps_within(best.radius(), step) {
                done = true;
                break;
            }
            verify(slot, &mut best);
        }
        if !done {
            let last = *probe.last().expect("a full probe is not empty");
            // The radius moves only when a slot is verified; the pass over
            // the rest compares against a local.
            let mut within = steps_within(best.radius(), step);
            for (slot, &g) in gaps.iter().enumerate() {
                let e = (g, slot as ObjId);
                if g <= within && e > last {
                    verify(e.1, &mut best);
                    within = steps_within(best.radius(), step);
                }
            }
        }
        best.finish(out);
    }

    /// The filter half of a scan table's range query, the same for the
    /// pivot table and EPT: the `live` slots whose gap under `step` admits
    /// `r`, in slot order, into `survivors`. Liveness is asked only of the
    /// few slots within the radius.
    pub fn range_survivors(&mut self, r: f64, step: f64, live: impl Fn(ObjId) -> bool) {
        let within = steps_within(r, step);
        self.survivors.clear();
        for (slot, &g) in self.gaps.iter().enumerate() {
            let slot = slot as ObjId;
            if g <= within && live(slot) {
                self.survivors.push(slot);
            }
        }
    }

    /// Maps the query into `qd`: `(d(q, p_1), …, d(q, p_l))`, through
    /// [`dists_from`].
    pub fn map_query<O: Object, M: Metric<O>>(&mut self, metric: &M, q: &O::Target, pivots: &[O]) {
        let qd = &mut self.qd;
        qd.clear();
        dists_from(metric, q, views(pivots), |_, d| qd.push(d));
    }

    /// The verification half of a scan table's range query, the same for
    /// the pivot table (LAESA, CPT, an engine's FQA) and EPT: `d(q, o)` for every collected
    /// survivor (`get(slot)` yields its object), through [`dists_from`]'s
    /// groups of four; appends the slots within `r` to `out`, in survivor
    /// order. Each distance passes the kind's `point` hook
    /// ([`fault::dist`], an inlined identity unless the chaos suite's
    /// `fault-inject` feature arms it) once, in survivor order.
    ///
    /// A kNN scan stays one distance at a time
    /// ([`knn_verify`](Self::knn_verify)): its radius may shrink after any
    /// distance, and a group of four would verify slots the shrunken
    /// radius skips.
    pub fn range_verify<O, M, B>(
        &self,
        metric: &M,
        q: &O::Target,
        r: f64,
        point: &str,
        get: impl Fn(ObjId) -> B,
        out: &mut Vec<ObjId>,
    ) where
        O: Object,
        M: Metric<O>,
        B: Borrow<O::Target>,
    {
        let slots = self.survivors.iter().map(|&slot| (slot, get(slot)));
        dists_from(metric, q, slots, |slot, d| {
            if fault::dist(point, slot as u64, d) <= r {
                out.push(slot);
            }
        });
    }
}

/// Fills `probe` with the `width` smallest `(gap, slot)` pairs of `gaps`
/// whose gap is at most `within`, ascending. Candidates under the cut
/// gather in the buffer; whenever it holds twice the width a selection
/// keeps the smaller half and lowers the cut to the largest pair kept —
/// nothing at or past the cut is wanted.
fn select_probe(gaps: &[u16], within: u16, width: usize, probe: &mut Vec<(u16, ObjId)>) {
    let keep_smallest = |probe: &mut Vec<(u16, ObjId)>| {
        probe.select_nth_unstable(width - 1);
        probe.truncate(width);
        probe[width - 1]
    };
    probe.clear();
    let mut cut = (within, ObjId::MAX);
    for (slot, &g) in gaps.iter().enumerate() {
        let e = (g, slot as ObjId);
        if g <= cut.0 && e < cut {
            probe.push(e);
            if probe.len() == width.saturating_mul(2) {
                cut = keep_smallest(probe);
            }
        }
    }
    if probe.len() > width {
        keep_smallest(probe);
    }
    probe.sort_unstable();
}

/// The running answer of one kNN probe and the one radius it prunes with:
/// a k-bounded max-heap of the best candidates so far, under the caller's
/// seed. Every kind's kNN goes through it, so "prune with
/// `min(local k-th, seed)`, push by `(distance, id)`" is written once.
pub struct KnnBest<'a> {
    heap: &'a mut BinaryHeap<Neighbor>,
    k: usize,
    seed: f64,
}

impl<'a> KnnBest<'a> {
    /// An empty answer for the `k ≥ 1` nearest over a reused `heap`
    /// (emptied here), under `seed`
    /// ([`MetricIndex::knn_query_into_seeded`](crate::MetricIndex::knn_query_into_seeded);
    /// `+∞` for none).
    pub fn new(heap: &'a mut BinaryHeap<Neighbor>, k: usize, seed: f64) -> Self {
        debug_assert!(k > 0, "k = 0 is an empty answer, decided by the caller");
        heap.clear();
        KnnBest { heap, k, seed }
    }

    /// The pruning radius: the tighter of the local k-th distance (`+∞`
    /// until `k` candidates are held) and the seed. Anything whose lower
    /// bound is **strictly** above it can be skipped — an equal bound could
    /// still hide an id-tie winner.
    #[inline]
    pub fn radius(&self) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() == self.k => worst.dist.min(self.seed),
            _ => self.seed,
        }
    }

    /// Offers a verified candidate. The push rule is local — the seed
    /// never rejects a candidate, it only prunes — and compares
    /// `(distance, id)`, so the answer does not depend on the order
    /// candidates arrive in.
    #[inline]
    pub fn offer(&mut self, id: ObjId, dist: f64) {
        let n = Neighbor::new(id, dist);
        if self.heap.len() < self.k {
            self.heap.push(n);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if n < *worst {
                *worst = n;
            }
        }
    }

    /// Appends the answer to `out` in ascending `(distance, id)` order,
    /// leaving the heap empty with its capacity intact.
    pub fn finish(self, out: &mut Vec<Neighbor>) {
        let start = out.len();
        while let Some(n) = self.heap.pop() {
            out.push(n);
        }
        out[start..].reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slots with gap `g[i]` (a bound of `g[i]` at step 1) and distance
    /// `d[i]` (`None` = tombstoned).
    fn verify(
        s: &mut QueryScratch,
        rows: &[(u16, Option<f64>)],
        k: usize,
        seed: f64,
    ) -> (Vec<Neighbor>, usize) {
        s.gaps.clear();
        s.gaps.extend(rows.iter().map(|r| r.0));
        let mut out = Vec::new();
        s.knn_verify(k, seed, 1.0, |slot| rows[slot as usize].1, &mut out);
        (out, s.survivors.len())
    }

    #[test]
    fn knn_verify_ends_inside_the_probe_or_goes_on_in_slot_order() {
        let mut s = QueryScratch::new();
        // Bounds ascend against the slots, distances sit 0.5 above them.
        let rows: Vec<(u16, Option<f64>)> = (0..100)
            .rev()
            .map(|i| (i as u16, Some(f64::from(i) + 0.5)))
            .collect();
        // The probe's first two bounds decide k = 1: slot 99 (bound 0) is
        // verified, slot 98 (bound 1 > 0.5) ends the query.
        let (got, verified) = verify(&mut s, &rows, 1, f64::INFINITY);
        assert_eq!(got, vec![Neighbor::new(99, 0.5)]);
        assert_eq!(verified, 1);
        assert_eq!(s.probe.len(), PROBE_WIDTH, "the probe of k = 1");

        // Loose bounds exhaust the full probe: the rest follows in slot
        // order, and ties at the k-th distance go to the smaller slot.
        let loose: Vec<(u16, Option<f64>)> = (0..100).map(|i| (0, Some((i / 10) as f64))).collect();
        let (got, verified) = verify(&mut s, &loose, 3, f64::INFINITY);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(verified, 100, "a zero bound prunes nothing");

        // A seed keeps the probe short, and a short probe is all there is.
        let (got, verified) = verify(&mut s, &rows, 3, 1.0);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), vec![99, 98]);
        assert_eq!(verified, 2, "bounds 0 and 1 are within the seed");

        // Tombstoned slots cost nothing and answer nothing; k may exceed n.
        let holed: Vec<(u16, Option<f64>)> = (0..6)
            .map(|i| (0, (i % 2 == 0).then_some(i as f64)))
            .collect();
        let (got, verified) = verify(&mut s, &holed, 50, f64::INFINITY);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(verified, 3);
        assert!(verify(&mut s, &holed, 0, f64::INFINITY).0.is_empty());
    }

    /// The f64 kNN verification the gaps replaced, rebuilt by hand over
    /// per-slot bounds `lbs`: the `PROBE_WIDTH · k` smallest `(bound, slot)`
    /// pairs within the seed in order, then — after a full probe that ran
    /// dry — the rest in slot order. The verified slots, in order, and the
    /// answer.
    fn f64_knn_replay(
        lbs: &[f64],
        k: usize,
        seed: f64,
        dist: impl Fn(ObjId) -> Option<f64>,
    ) -> (Vec<ObjId>, Vec<Neighbor>) {
        let width = k * PROBE_WIDTH;
        let mut probe: Vec<Neighbor> = (0..lbs.len())
            .map(|i| Neighbor::new(i as ObjId, lbs[i]))
            .filter(|e| e.dist <= seed)
            .collect();
        probe.sort();
        probe.truncate(width);
        let (mut heap, mut verified) = (BinaryHeap::new(), Vec::new());
        let mut best = KnnBest::new(&mut heap, k, seed);
        let mut verify = |slot: ObjId, best: &mut KnnBest| {
            if let Some(d) = dist(slot) {
                verified.push(slot);
                best.offer(slot, d);
            }
        };
        let mut done = probe.len() < width;
        for e in &probe {
            if e.dist > best.radius() {
                done = true;
                break;
            }
            verify(e.id, &mut best);
        }
        if !done {
            for e in (0..lbs.len()).map(|i| Neighbor::new(i as ObjId, lbs[i])) {
                if e.dist <= best.radius() && e > probe[width - 1] {
                    verify(e.id, &mut best);
                }
            }
        }
        let mut out = Vec::new();
        best.finish(&mut out);
        (verified, out)
    }

    use crate::matrix::{quantise, PivotColumns, ScanKernel};
    use crate::simd;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The gaps replay the f64 bounds they replaced, on every SIMD
        /// tier: the range survivors, and the kNN verification sequence
        /// and answer, from the gaps equal those of the f64 path rebuilt by
        /// hand over `gap · step`, and every such bound is admissible
        /// against the exact oracle [`ScanKernel::lower_bounds`]. Values
        /// sit on a quarter-step grid, so bounds and distances tie, and
        /// distances are loose of their bounds by up to 8, 256 or 8 192
        /// quarter-steps, so probes end early, run dry, or are cut short
        /// by a seed.
        #[test]
        fn code_kernel_gaps_replay_the_f64_path_on_every_tier(
            width in 1usize..=6,
            n in 1usize..300,
            step_exp in -4i32..=4,
            cells in prop::collection::vec(0u32..4_000, 6 * 300),
            query in prop::collection::vec(0u32..4_000, 6),
            extra in prop::collection::vec(0u32..8, 300),
            loose in 0u32..3,
            k in 1usize..20,
            seed_cell in 0u32..6_000,
            r_cell in 0u32..6_000,
        ) {
            let step = 2f64.powi(step_exp);
            let value = |c: u32| f64::from(c) * step / 4.0;
            let rows: Vec<f64> = cells[..n * width].iter().map(|&c| value(c)).collect();
            let qd: Vec<f64> = query[..width].iter().map(|&c| value(c)).collect();
            let codes: Vec<u16> = rows.iter().map(|&x| quantise(x, step)).collect();
            let stored = PivotColumns::from_codes(width, step, codes.chunks(width));
            let mut exact = Vec::new();
            ScanKernel::lower_bounds(&qd, &rows, n, &mut exact);
            // A distance at or above the exact bound; every seventh slot
            // is tombstoned.
            let dist = |slot: ObjId| {
                let i = slot as usize;
                (i % 7 != 3).then(|| exact[i] + value(extra[i] << (5 * loose)))
            };
            let live = |slot: ObjId| dist(slot).is_some();
            let seed = if seed_cell < 5_000 { value(seed_cell) } else { f64::INFINITY };
            let r = value(r_cell);
            let mut s = QueryScratch::new();
            for tier in simd::available_tiers() {
                stored.gaps_with_tier(tier, &qd, &mut s.gaps);
                let lbs: Vec<f64> = s.gaps.iter().map(|&g| f64::from(g) * step).collect();
                for (i, (&lb, &truth)) in lbs.iter().zip(&exact).enumerate() {
                    prop_assert!(lb <= truth, "{:?} row {}: {} > exact {}", tier, i, lb, truth);
                }
                s.range_survivors(r, step, live);
                let want: Vec<ObjId> = (0..n as ObjId)
                    .filter(|&i| lbs[i as usize] <= r && live(i))
                    .collect();
                prop_assert_eq!(&s.survivors, &want, "{:?} range r {}", tier, r);
                let mut out = Vec::new();
                s.knn_verify(k, seed, step, dist, &mut out);
                let (verified, answer) = f64_knn_replay(&lbs, k, seed, dist);
                prop_assert_eq!(&s.survivors, &verified, "{:?} kNN verification order", tier);
                prop_assert_eq!(&out, &answer, "{:?} kNN answer", tier);
            }
        }
    }

    #[test]
    fn knn_best_prunes_with_the_tighter_radius_and_pushes_by_distance_then_id() {
        let mut heap = BinaryHeap::new();
        let mut best = KnnBest::new(&mut heap, 2, 5.0);
        assert_eq!(best.radius(), 5.0, "the seed, until k are held");
        best.offer(7, 9.0);
        best.offer(3, 4.0);
        assert_eq!(best.radius(), 5.0, "the local k-th (9) is looser");
        best.offer(9, 4.0);
        assert_eq!(best.radius(), 4.0);
        best.offer(1, 4.0);
        best.offer(8, 4.0);
        // The answer is appended, ascending; the heap is left empty.
        let mut out = vec![Neighbor::new(0, 0.0)];
        best.finish(&mut out);
        assert_eq!(
            out[1..],
            [Neighbor::new(1, 4.0), Neighbor::new(3, 4.0)],
            "ties at the k-th distance go to the smaller id"
        );
        assert!(heap.is_empty() && heap.capacity() >= 2);
    }

    #[test]
    fn scratch_clear_keeps_capacity() {
        let mut s = QueryScratch::new();
        s.qd.extend_from_slice(&[1.0, 2.0, 3.0]);
        s.heap.push(Neighbor::new(0, 1.0));
        let cap = s.qd.capacity();
        s.clear();
        assert!(s.qd.is_empty() && s.heap.is_empty());
        assert_eq!(s.qd.capacity(), cap);
    }
}
