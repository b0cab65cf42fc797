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
//! Each of a row's `l` entries is stored as a u16 pivot id and a u16
//! bucket code of its distance, in planar columns: `l` columns of ids and
//! one [`PivotColumns`] of codes under one power-of-two step, sized from
//! the largest distance the build stores (an insert beyond the top bucket
//! is stored saturated). The Lemma 1 filter is the pivot table's gap
//! ([`PivotColumns::gathered_gaps_into`]: each entry against the query's
//! code for its own pivot), and the scan feeds the same range filter and
//! kNN verification as LAESA's. Tombstoned removal keeps ids stable
//! through the object table's slot map.

use pmi_metric::matrix::quantise;
use pmi_metric::{
    Counters, CountingMetric, CowVec, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object,
    PivotColumns, PivotMatrix, QueryScratch, StorageFootprint,
};
use pmi_pivots::PsaSelector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;

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

impl<O: Object, M: Metric<O>> Strategy<O, M> {
    /// The row of `o`: its pivots' indices into `pivot_objs` and its
    /// distances to them, computed here.
    fn select_row(
        &self,
        metric: &CountingMetric<M>,
        pivot_objs: &[O],
        l: usize,
        o: &O,
    ) -> (Vec<u16>, Vec<f64>) {
        match self {
            Strategy::Random { groups, mus, .. } => groups
                .iter()
                .map(|group| {
                    let mut best = (group[0], 0.0);
                    let mut best_score = f64::NEG_INFINITY;
                    for &pi in group {
                        let d = metric.dist(o, &pivot_objs[usize::from(pi)]);
                        let score = (d - mus[usize::from(pi)]).abs();
                        if score > best_score {
                            best_score = score;
                            best = (pi, d);
                        }
                    }
                    best
                })
                .unzip(),
            Strategy::Psa(sel) => sel
                .pivots_for(o, l)
                .into_iter()
                .map(|(ci, d)| (ci as u16, d))
                .unzip(),
        }
    }
}

/// EPT / EPT*: a pivot table where every object has its own pivots.
///
/// Cloning — the [`MetricIndex::fork`] — shares every full chunk of the
/// id and code columns and of the object table, and the distance counter;
/// it copies the pivot pool and the selection state.
#[derive(Clone)]
pub struct Ept<O: Object, M> {
    metric: CountingMetric<M>,
    mode: EptMode,
    /// All pivot objects any row may reference.
    pivot_objs: Vec<O>,
    strategy: Strategy<O, M>,
    /// `pivot_ids[j][id]`: the index into `pivot_objs` of slot `id`'s
    /// `j`-th pivot.
    pivot_ids: Vec<CowVec<u16>>,
    /// Column `j` holds the code of slot `id`'s distance to that pivot.
    codes: PivotColumns,
    table: ObjTable<O>,
    l: usize,
}

impl<O, M> Ept<O, M>
where
    O: Object,
    M: Metric<O> + Clone,
{
    /// Builds an EPT (`mode = Random`) or EPT* (`mode = Psa`).
    pub fn build(objects: Vec<O>, metric: M, mode: EptMode, cfg: EptConfig) -> Self {
        let metric = CountingMetric::new(metric);
        let n = objects.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x455054);

        let (pivot_objs, strategy) = match mode {
            EptMode::Random => {
                // The deterministic pivot pool the groups are drawn from.
                let picks = pmi_pivots::select_random(n, (cfg.l * cfg.m).min(n), cfg.seed);
                let total = picks.len();
                let pivot_objs: Vec<O> = picks.iter().map(|&i| objects[i].clone()).collect();
                // An empty pool (no objects) makes empty rows: every
                // object is verified, as in a scan.
                let groups: Vec<Vec<u16>> = (0..cfg.l)
                    .filter(|_| total > 0)
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

        let (ids, dists): (Vec<_>, Vec<_>) = objects
            .iter()
            .map(|o| strategy.select_row(&metric, &pivot_objs, cfg.l, o))
            .unzip();
        let width = ids.first().map_or(0, Vec::len);
        Ept {
            pivot_ids: (0..width)
                .map(|j| ids.iter().map(|row| row[j]).collect())
                .collect(),
            codes: PivotColumns::from(&PivotMatrix::from_rows(width, &dists)),
            metric,
            mode,
            pivot_objs,
            strategy,
            table: ObjTable::new(objects),
            l: cfg.l,
        }
    }

    /// The stored row of slot `id`, entry by entry: the pivot's index into
    /// [`pivot_objects`](Self::pivot_objects) and the lower edge of the
    /// distance's bucket under [`step`](Self::step).
    pub fn row(&self, id: ObjId) -> impl Iterator<Item = (u16, f64)> + '_ {
        let ids = self.pivot_ids.iter().map(move |col| col[id as usize]);
        ids.zip(self.codes.row(id as usize))
    }

    /// The bucket width every stored distance is a multiple of.
    pub fn step(&self) -> f64 {
        self.codes.step()
    }

    /// All pivot objects any row may reference (the `m × l` pool of the
    /// paper's cost equations; queries pay one distance to each).
    pub fn pivot_objects(&self) -> &[O] {
        &self.pivot_objs
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }
}

fn estimate_mus<O: Object, M: Metric<O>>(metric: &M, pivots: &[O], sample: &[O]) -> Vec<f64> {
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
    O: Object,
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
        self.codes
            .gathered_gaps_into(&scratch.qd, &self.pivot_ids, &mut scratch.gaps);
        let live = |id| self.table.is_live(id);
        scratch.range_survivors(r, self.codes.step(), live);
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
        self.codes
            .gathered_gaps_into(&scratch.qd, &self.pivot_ids, &mut scratch.gaps);
        let dist = |id| self.table.get(id).map(|o| self.metric.dist(q, o));
        scratch.knn_verify(k, seed, self.codes.step(), dist, out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        // EPT re-estimates μ_p before selecting pivots for the new object —
        // the estimation cost the paper blames for EPT's slow updates
        // (§6.3). EPT* reuses its prepared PSA selector.
        if let Strategy::Random { mus, mu_sample, .. } = &mut self.strategy {
            let fresh = estimate_mus(&self.metric, &self.pivot_objs, mu_sample);
            *mus = fresh;
        }
        let (ids, dists) = self
            .strategy
            .select_row(&self.metric, &self.pivot_objs, self.l, &o);
        let step = self.codes.step();
        let codes: Vec<u16> = dists.iter().map(|&d| quantise(d, step)).collect();
        self.codes.push_codes(&codes);
        for (col, id) in self.pivot_ids.iter_mut().zip(ids) {
            col.push(id);
        }
        self.table.push(&o)
    }

    /// Clears the slot's liveness bit. As for LAESA, the paper's
    /// sequential-scan delete cost (§6.3) is not modelled: ids are slot
    /// positions.
    fn remove(&mut self, id: ObjId) -> bool {
        self.table.remove(id)
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        // Each entry is a 2 B pivot id beside its 2 B code — the pivot-id
        // bytes relative to LAESA that Table 4 points out. Tombstoned slots
        // keep their rows (ids stay stable), so slots are counted, not
        // live objects.
        let rows = 2 * self.codes.mem_bytes();
        let objs = self.table.encoded_bytes();
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
    use pmi_metric::{BruteForce, EditDistance, L1, L2};

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

    /// EPT and EPT* answer exactly what `BruteForce` answers — ids and
    /// distance bits — on LA (L2), on Words (edit distance, whose integer
    /// distances tie at the k-th place) and on Color (282-d L1), for
    /// members and outsiders.
    #[test]
    fn ept_knn_matches_brute_force() {
        fn check<O, M>(objects: Vec<O>, outsiders: Vec<O>, metric: M, label: &str)
        where
            O: Object,
            M: Metric<O> + Clone + 'static,
        {
            let key = |v: Vec<Neighbor>| -> Vec<(ObjId, u64)> {
                v.into_iter().map(|n| (n.id, n.dist.to_bits())).collect()
            };
            let oracle = BruteForce::new(objects.clone(), metric.clone());
            let queries: Vec<O> = objects
                .iter()
                .step_by(97)
                .chain(&outsiders)
                .cloned()
                .collect();
            for mode in [EptMode::Random, EptMode::Psa] {
                let idx = Ept::build(objects.clone(), metric.clone(), mode, cfg());
                for (qi, q) in queries.iter().enumerate() {
                    for k in [1, 12, 40] {
                        assert_eq!(
                            key(idx.knn_query(q, k)),
                            key(oracle.knn_query(q, k)),
                            "{label} {mode:?} query {qi} k={k}"
                        );
                    }
                }
            }
        }
        check(datasets::la(350, 13), datasets::la(3, 14), L2, "LA");
        check(
            datasets::words(350, 13),
            datasets::words(3, 14),
            EditDistance,
            "Words",
        );
        check(
            datasets::color(350, 13),
            datasets::color(3, 14),
            L1,
            "Color",
        );
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
