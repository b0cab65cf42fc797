//! EPT and EPT* (paper §3.2): extreme pivot tables with per-object pivots.
//!
//! EPT selects `l` groups of `m` random pivots; within each group an object
//! is assigned the pivot maximizing `|d(o, p) − μ_p|` (the "extreme" pivot
//! for that object). EPT* replaces the random groups with the paper's PSA
//! (Algorithm 1), which greedily picks, per object, the pivots from an HF
//! candidate set that maximize the expected ratio `D(q,o)/d(q,o)` over a
//! query sample — better pivots at a much higher construction cost
//! (Table 4), which is the trade-off Figure 14 measures.
//!
//! Rows are stored flat (structure-of-arrays: one `u16` pivot-id array and
//! one `f64` distance array, fixed stride `l`), so the per-object scan is a
//! sequential pass with no per-row allocation; tombstoned removal keeps ids
//! stable through the object table's slot map. The Lemma 1 filter runs as a
//! blocked kernel of its own over the SoA rows, gathering `qd[pivot_id]` at
//! fixed stride for four rows at once, bit for bit equal to the per-row
//! bound: blocking only reorders lower-bound arithmetic across rows, never
//! within one.

use pmi_metric::{
    Counters, CountingMetric, EncodeObject, Metric, MetricIndex, Neighbor, ObjId, ObjTable,
    QueryScratch, StorageFootprint,
};
use pmi_pivots::PsaSelector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which pivot-selection strategy an [`Ept`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EptMode {
    /// Original EPT: `l` random groups of `m` pivots, extreme pivot per
    /// object within each group.
    Random,
    /// EPT*: PSA (Algorithm 1) per-object pivot selection.
    Psa,
}

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EptConfig {
    /// Pivots stored per object (`l`).
    pub l: usize,
    /// Group size for [`EptMode::Random`] (`m`).
    pub m: usize,
    /// Sample size used to estimate `μ_p` (EPT) or as the PSA query sample
    /// `S` (EPT*).
    pub sample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EptConfig {
    fn default() -> Self {
        EptConfig {
            l: 5,
            m: 8,
            sample: 64,
            seed: 42,
        }
    }
}

#[derive(Clone)]
enum Strategy<O, M> {
    Random {
        /// `l` groups, each of `m` indices into `pivot_objs`.
        groups: Vec<Vec<u16>>,
        /// `μ_p` per pivot object.
        mus: Vec<f64>,
        /// Sample objects used to (re-)estimate `μ_p` on insert.
        mu_sample: Vec<O>,
    },
    Psa(PsaSelector<O, CountingMetric<M>>),
}

/// EPT / EPT*: a pivot table where every object has its own pivots.
///
/// Cloning — the [`MetricIndex::fork`] — copies the flat rows (`10 · l`
/// bytes per slot) and the pivot pool; the object table's chunks and the
/// distance counter are shared. No workload commits to an EPT engine.
#[derive(Clone)]
pub struct Ept<O, M> {
    metric: CountingMetric<M>,
    mode: EptMode,
    /// All pivot objects any row may reference.
    pivot_objs: Vec<O>,
    strategy: Strategy<O, M>,
    /// Flat SoA rows: `row_pivots[id·l ..][j]` is the pivot index of the
    /// `j`-th pivot of slot `id`, `row_dists` the matching distance.
    row_pivots: Vec<u16>,
    row_dists: Vec<f64>,
    /// Row stride: pivots stored per object.
    stride: usize,
    table: ObjTable<O>,
    l: usize,
}

impl<O, M> Ept<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O> + Clone,
{
    /// Builds an EPT (`mode = Random`) or EPT* (`mode = Psa`).
    pub fn build(objects: Vec<O>, metric: M, mode: EptMode, cfg: EptConfig) -> Self {
        Self::build_inner(objects, metric, mode, cfg)
    }

    /// The deterministic pivot pool [`build`](Self::build) draws random
    /// groups from: indices into `objects` for a dataset of `n` objects.
    fn random_pool_indices(n: usize, cfg: EptConfig) -> Vec<usize> {
        pmi_pivots::select_random(n, (cfg.l * cfg.m).min(n), cfg.seed)
    }

    fn build_inner(objects: Vec<O>, metric: M, mode: EptMode, cfg: EptConfig) -> Self {
        let metric = CountingMetric::new(metric);
        let n = objects.len();
        assert!(n >= 2, "EPT needs at least two objects");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x455054);

        let (pivot_objs, strategy) = match mode {
            EptMode::Random => {
                let picks = Self::random_pool_indices(n, cfg);
                let total = picks.len();
                let pivot_objs: Vec<O> = picks.iter().map(|&i| objects[i].clone()).collect();
                let groups: Vec<Vec<u16>> = (0..cfg.l)
                    .map(|g| {
                        (0..cfg.m)
                            .map(|j| ((g * cfg.m + j) % total) as u16)
                            .collect()
                    })
                    .collect();
                let mu_sample: Vec<O> = (0..cfg.sample.min(n))
                    .map(|_| objects[rng.random_range(0..n)].clone())
                    .collect();
                let mus = estimate_mus(&metric, &pivot_objs, &mu_sample);
                (
                    pivot_objs,
                    Strategy::Random {
                        groups,
                        mus,
                        mu_sample,
                    },
                )
            }
            EptMode::Psa => {
                let sel = PsaSelector::new(&objects, metric.clone(), cfg.sample, cfg.seed);
                (sel.candidates.clone(), Strategy::Psa(sel))
            }
        };

        let mut ept = Ept {
            metric,
            mode,
            pivot_objs,
            strategy,
            row_pivots: Vec::new(),
            row_dists: Vec::new(),
            stride: 0,
            table: ObjTable::empty(),
            l: cfg.l,
        };
        for o in objects {
            let row = ept.select_row(&o);
            ept.table.push(o);
            ept.push_row(row);
        }
        ept
    }

    fn push_row(&mut self, row: Vec<(u16, f64)>) {
        if self.stride == 0 && !row.is_empty() {
            self.stride = row.len();
        }
        assert_eq!(row.len(), self.stride, "EPT rows have a fixed stride");
        for (pi, d) in row {
            self.row_pivots.push(pi);
            self.row_dists.push(d);
        }
    }

    /// The flat row of slot `id` as `(pivot indices, distances)`. Public
    /// for diagnostics and the exact-counter tests, which recompute the
    /// scalar lower bound per row and compare against the blocked kernel.
    #[inline]
    pub fn row_of(&self, id: ObjId) -> (&[u16], &[f64]) {
        let s = id as usize * self.stride;
        (
            &self.row_pivots[s..s + self.stride],
            &self.row_dists[s..s + self.stride],
        )
    }

    /// All pivot objects any row may reference (the `m × l` pool of the
    /// paper's cost equations; queries pay one distance to each).
    pub fn pivot_objects(&self) -> &[O] {
        &self.pivot_objs
    }

    /// Blocked Lemma 1 lower bounds for **all** slots (tombstoned
    /// included) over the flat SoA rows, into a reused buffer: the
    /// EPT-shaped scan kernel. `CHAINS` independent max-chains run per
    /// step; each row's reduction visits its pivots in storage order, so
    /// results are bit-identical to the per-row scalar
    /// [`row_lower_bound`](Self::row_lower_bound).
    fn lower_bounds_into(&self, qd: &[f64], out: &mut Vec<f64>) {
        /// Rows per step: one max-chain each, in flight together.
        const CHAINS: usize = 4;
        let w = self.stride;
        out.clear();
        if w == 0 {
            out.resize(self.table.slots(), 0.0);
            return;
        }
        out.reserve(self.row_dists.len() / w);
        let mut pi_blocks = self.row_pivots.chunks_exact(CHAINS * w);
        let mut d_blocks = self.row_dists.chunks_exact(CHAINS * w);
        for (pis, ds) in (&mut pi_blocks).zip(&mut d_blocks) {
            let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for j in 0..w {
                let d0 = (qd[pis[j] as usize] - ds[j]).abs();
                let d1 = (qd[pis[w + j] as usize] - ds[w + j]).abs();
                let d2 = (qd[pis[2 * w + j] as usize] - ds[2 * w + j]).abs();
                let d3 = (qd[pis[3 * w + j] as usize] - ds[3 * w + j]).abs();
                m0 = if d0 > m0 { d0 } else { m0 };
                m1 = if d1 > m1 { d1 } else { m1 };
                m2 = if d2 > m2 { d2 } else { m2 };
                m3 = if d3 > m3 { d3 } else { m3 };
            }
            out.extend_from_slice(&[m0, m1, m2, m3]);
        }
        for (pis, ds) in pi_blocks
            .remainder()
            .chunks_exact(w)
            .zip(d_blocks.remainder().chunks_exact(w))
        {
            out.push(Self::row_lower_bound(qd, pis, ds));
        }
    }

    /// Selects the `(pivot, distance)` row for one object. In Random mode,
    /// `pool_row` (the object's pre-computed distances to the whole pivot
    /// pool) substitutes for computing them here.
    fn select_row(&self, o: &O) -> Vec<(u16, f64)> {
        match &self.strategy {
            Strategy::Random { groups, mus, .. } => {
                let mut row = Vec::with_capacity(groups.len());
                for group in groups {
                    let mut best = group[0];
                    let mut best_score = f64::NEG_INFINITY;
                    let mut best_d = 0.0;
                    for &pi in group {
                        let d = self.metric.dist(o, &self.pivot_objs[pi as usize]);
                        let score = (d - mus[pi as usize]).abs();
                        if score > best_score {
                            best_score = score;
                            best = pi;
                            best_d = d;
                        }
                    }
                    row.push((best, best_d));
                }
                row
            }
            Strategy::Psa(sel) => sel
                .pivots_for(o, self.l)
                .into_iter()
                .map(|(ci, d)| (ci as u16, d))
                .collect(),
        }
    }

    /// The scalar per-row lower bound (`max_j |qd[p_j] - d_j|`), shared by
    /// the kernel's remainder path and the exact-counter tests.
    #[inline]
    pub fn row_lower_bound(qd: &[f64], pivots: &[u16], dists: &[f64]) -> f64 {
        let mut lb = 0.0f64;
        for (pi, d) in pivots.iter().zip(dists) {
            let x = (qd[*pi as usize] - d).abs();
            if x > lb {
                lb = x;
            }
        }
        lb
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }
}

fn estimate_mus<O, M: Metric<O>>(metric: &M, pivots: &[O], sample: &[O]) -> Vec<f64> {
    pivots
        .iter()
        .map(|p| {
            let sum: f64 = sample.iter().map(|s| metric.dist(p, s)).sum();
            sum / sample.len().max(1) as f64
        })
        .collect()
}

impl<O, M> MetricIndex<O> for Ept<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        match self.mode {
            EptMode::Random => "EPT",
            EptMode::Psa => "EPT*",
        }
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
        scratch.note_kernel(self.table.slots());
        scratch.map_query(&self.metric, q, &self.pivot_objs);
        let QueryScratch {
            qd, lbs, survivors, ..
        } = scratch;
        self.lower_bounds_into(qd, lbs);
        survivors.clear();
        survivors.extend(
            self.table
                .iter()
                .filter(|&(id, _)| lbs[id as usize] <= r)
                .map(|(id, _)| id),
        );
        let get = |id| self.table.get(id).expect("survivor is live");
        scratch.range_verify(&self.metric, q, r, "ept.dist", get, out);
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
        scratch.note_kernel(self.table.slots());
        scratch.map_query(&self.metric, q, &self.pivot_objs);
        self.lower_bounds_into(&scratch.qd, &mut scratch.lbs);
        let dist = |id| self.table.get(id).map(|o| self.metric.dist(q, o));
        scratch.knn_verify(k, seed, dist, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        // EPT re-estimates μ_p before selecting pivots for the new object —
        // the estimation cost the paper blames for EPT's slow updates
        // (§6.3). EPT* reuses its prepared PSA selector.
        if let Strategy::Random { mus, mu_sample, .. } = &mut self.strategy {
            let fresh = estimate_mus(&self.metric, &self.pivot_objs, mu_sample);
            *mus = fresh;
        }
        let row = self.select_row(&o);
        let id = self.table.push(o);
        debug_assert_eq!(id as usize * self.stride, self.row_pivots.len());
        self.push_row(row);
        id
    }

    /// Clears the slot's liveness bit. As for LAESA, the paper's
    /// sequential-scan delete cost (§6.3) is not modelled: ids are slot
    /// positions.
    fn remove(&mut self, id: ObjId) -> bool {
        self.table.remove(id)
    }

    fn get(&self, id: ObjId) -> Option<O> {
        self.table.get(id).cloned()
    }

    fn storage(&self) -> StorageFootprint {
        // Rows store (pivot id, distance) pairs — the extra pivot-id bytes
        // relative to LAESA that Table 4 points out. Tombstoned slots keep
        // their rows (ids stay stable), so slots are counted, not live
        // objects.
        let rows: u64 = 12 * self.row_dists.len() as u64;
        let objs: u64 = self.table.iter().map(|(_, o)| o.encoded_len() as u64).sum();
        let pivots: u64 = self.pivot_objs.iter().map(|p| p.encoded_len() as u64).sum();
        StorageFootprint::mem(rows + objs + pivots)
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

    fn cfg() -> EptConfig {
        EptConfig {
            l: 4,
            m: 6,
            sample: 32,
            seed: 13,
        }
    }

    fn build(mode: EptMode, n: usize) -> (Vec<Vec<f32>>, Ept<Vec<f32>, L2>) {
        let pts = datasets::la(n, 13);
        let idx = Ept::build(pts.clone(), L2, mode, cfg());
        (pts, idx)
    }

    #[test]
    fn ept_range_matches_brute_force() {
        for mode in [EptMode::Random, EptMode::Psa] {
            let (pts, idx) = build(mode, 350);
            let oracle = BruteForce::new(pts.clone(), L2);
            for r in [100.0, 900.0] {
                let mut got = idx.range_query(&pts[42], r);
                got.sort();
                let mut want = oracle.range_query(&pts[42], r);
                want.sort();
                assert_eq!(got, want, "{mode:?} r={r}");
            }
        }
    }

    #[test]
    fn ept_knn_matches_brute_force() {
        for mode in [EptMode::Random, EptMode::Psa] {
            let (pts, idx) = build(mode, 350);
            let oracle = BruteForce::new(pts.clone(), L2);
            let got = idx.knn_query(&pts[7], 12);
            let want = oracle.knn_query(&pts[7], 12);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9, "{mode:?}");
            }
        }
    }

    #[test]
    fn ept_star_prunes_at_least_as_well() {
        // The point of PSA: fewer *verifications* (compdists beyond the
        // fixed per-query pivot distances) on average. The fixed pivot cost
        // differs (|CP| = 40 vs m·l), so compare the scan part.
        let (pts, ept) = build(EptMode::Random, 800);
        let (_, star) = build(EptMode::Psa, 800);
        let pivot_cost = |idx: &Ept<Vec<f32>, L2>| idx.pivot_objs.len() as u64;
        let mut v_ept = 0;
        let mut v_star = 0;
        for qi in (0..800).step_by(80) {
            ept.reset_counters();
            let _ = ept.knn_query(&pts[qi], 10);
            v_ept += ept.counters().compdists - pivot_cost(&ept);
            star.reset_counters();
            let _ = star.knn_query(&pts[qi], 10);
            v_star += star.counters().compdists - pivot_cost(&star);
        }
        assert!(
            v_star as f64 <= v_ept as f64 * 1.1,
            "EPT* verified {v_star} vs EPT {v_ept}"
        );
    }

    #[test]
    fn ept_star_construction_costs_more() {
        let (_, ept) = build(EptMode::Random, 300);
        let (_, star) = build(EptMode::Psa, 300);
        assert!(
            star.counters().compdists > ept.counters().compdists,
            "Table 4: EPT* construction is the most expensive"
        );
    }

    #[test]
    fn update_cycle_both_modes() {
        for mode in [EptMode::Random, EptMode::Psa] {
            let (pts, mut idx) = build(mode, 200);
            let o = idx.get(9).unwrap();
            assert!(idx.remove(9));
            idx.reset_counters();
            let id = idx.insert(o);
            assert!(idx.counters().compdists > 0, "insert selects pivots");
            assert!(idx.range_query(&pts[9], 0.0).contains(&id));
        }
    }

    #[test]
    fn ept_update_costs_more_than_ept_star() {
        // §6.3: EPT's μ re-estimation makes its inserts more expensive than
        // EPT*'s prepared PSA selector.
        let (_, mut ept) = build(EptMode::Random, 300);
        let (_, mut star) = build(EptMode::Psa, 300);
        let o = ept.get(0).unwrap();
        ept.remove(0);
        star.remove(0);
        ept.reset_counters();
        ept.insert(o.clone());
        let cd_ept = ept.counters().compdists;
        star.reset_counters();
        star.insert(o);
        let cd_star = star.counters().compdists;
        assert!(cd_ept > cd_star, "EPT {cd_ept} vs EPT* {cd_star}");
    }
}
