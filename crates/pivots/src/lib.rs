//! Pivot selection algorithms.
//!
//! The paper stresses (§1, §6.1) that pivot quality dominates query
//! performance, and therefore evaluates all indexes with *the same* pivot
//! set, selected by the HF-based incremental algorithm (HFI) of the SPB-tree
//! paper. This crate provides:
//!
//! * [`select_random`] — uniform random pivots (EPT groups, BKT sub-trees),
//! * [`hf_candidates`] — the Hull-of-Foci outlier search of the Omni-family,
//! * [`select_hfi`] — HF candidates + greedy incremental selection that
//!   maximizes the similarity between the metric space and the mapped
//!   vector space (the workspace-wide default),
//! * [`PsaSelector`] — Algorithm 1 of the paper (PSA), the per-object pivot
//!   selection that turns EPT into EPT*.

use pmi_metric::Metric;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of HF candidates used by PSA; the paper sets `cp_scale` to 40
/// "because this value yields enough outliers in our experiments" (§3.2).
pub const CP_SCALE: usize = 40;

/// Selects `k` distinct pivot positions uniformly at random.
pub fn select_random(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= n, "cannot select {k} pivots from {n} objects");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x524e44);
    let mut chosen = Vec::with_capacity(k);
    let mut used = vec![false; n];
    while chosen.len() < k {
        let i = rng.random_range(0..n);
        if !used[i] {
            used[i] = true;
            chosen.push(i);
        }
    }
    chosen
}

/// Hull-of-Foci (HF) candidate search from the Omni-family: finds up to
/// `count` mutually far-apart "outlier" objects.
///
/// The classic procedure: start from a random object, walk to its farthest
/// neighbor twice to find an approximate diameter pair `(f1, f2)`; then
/// repeatedly add the object whose distances to the current foci deviate
/// least from the diameter edge (i.e. it is roughly `edge` away from every
/// focus — a new hull corner).
pub fn hf_candidates<O, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    count: usize,
    seed: u64,
) -> Vec<usize> {
    let n = objects.len();
    assert!(n >= 2, "HF needs at least two objects");
    let count = count.min(n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4846);

    // Work on a sample for large datasets; HF cost is O(sample · foci).
    let sample: Vec<usize> = if n <= 4096 {
        (0..n).collect()
    } else {
        (0..4096).map(|_| rng.random_range(0..n)).collect()
    };

    let farthest_from = |i: usize| -> usize {
        let mut best = sample[0];
        let mut best_d = -1.0;
        for &j in &sample {
            if j == i {
                continue;
            }
            let d = metric.dist(&objects[i], &objects[j]);
            if d > best_d {
                best_d = d;
                best = j;
            }
        }
        best
    };

    let s = sample[rng.random_range(0..sample.len())];
    let f1 = farthest_from(s);
    let f2 = farthest_from(f1);
    let edge = metric.dist(&objects[f1], &objects[f2]);

    // Incremental error accumulation: each round adds one focus and charges
    // one distance per sample object, keeping HF at O(sample · count)
    // distance computations.
    let mut foci = vec![f1, f2];
    let mut err: Vec<f64> = sample
        .iter()
        .map(|&j| {
            (metric.dist(&objects[j], &objects[f1]) - edge).abs()
                + (metric.dist(&objects[j], &objects[f2]) - edge).abs()
        })
        .collect();
    while foci.len() < count {
        let mut best = None;
        let mut best_err = f64::INFINITY;
        for (si, &j) in sample.iter().enumerate() {
            if foci.contains(&j) {
                continue;
            }
            if err[si] < best_err {
                best_err = err[si];
                best = Some((si, j));
            }
        }
        match best {
            Some((_, j)) => {
                foci.push(j);
                if foci.len() < count {
                    for (si, &o) in sample.iter().enumerate() {
                        err[si] += (metric.dist(&objects[o], &objects[j]) - edge).abs();
                    }
                }
            }
            None => break, // sample exhausted
        }
    }
    foci.truncate(count);
    foci
}

/// HF-based incremental pivot selection (HFI) — the state-of-the-art
/// strategy the paper uses for *all* indexes (§6.1, ref \[12\]).
///
/// Candidates come from [`hf_candidates`]; pivots are then chosen greedily
/// so that the pivot mapping preserves the metric as well as possible: each
/// step adds the candidate that maximizes the mean ratio
/// `max_i |d(x,p_i) − d(y,p_i)| / d(x,y)` over a sample of object pairs
/// (the "precision" of the mapped space).
pub fn select_hfi<O, M: Metric<O>>(objects: &[O], metric: &M, k: usize, seed: u64) -> Vec<usize> {
    let n = objects.len();
    assert!(k <= n, "cannot select {k} pivots from {n} objects");
    if k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x484649);
    let candidates = hf_candidates(objects, metric, (4 * k).max(CP_SCALE).min(n), seed);

    // Sample of object pairs for the precision estimate.
    let pairs: Vec<(usize, usize)> = (0..256)
        .filter_map(|_| {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            (a != b).then_some((a, b))
        })
        .collect();
    let pairs = if pairs.is_empty() {
        vec![(0, n - 1)]
    } else {
        pairs
    };
    let pair_dist: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| metric.dist(&objects[a], &objects[b]).max(1e-12))
        .collect();

    // Pre-compute candidate-to-pair-endpoint distances.
    let cand_dists: Vec<(Vec<f64>, Vec<f64>)> = candidates
        .iter()
        .map(|&c| {
            let da: Vec<f64> = pairs
                .iter()
                .map(|&(a, _)| metric.dist(&objects[c], &objects[a]))
                .collect();
            let db: Vec<f64> = pairs
                .iter()
                .map(|&(_, b)| metric.dist(&objects[c], &objects[b]))
                .collect();
            (da, db)
        })
        .collect();

    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut chosen_cand: Vec<usize> = Vec::with_capacity(k);
    // best_lb[p] = current max_i |d(a,p_i) - d(b,p_i)| for pair p.
    let mut best_lb = vec![0.0f64; pairs.len()];
    for _ in 0..k {
        let mut best = None;
        let mut best_gain = -1.0;
        for (ci, &c) in candidates.iter().enumerate() {
            if chosen_cand.contains(&ci) {
                continue;
            }
            let (da, db) = &cand_dists[ci];
            let mut score = 0.0;
            for p in 0..pairs.len() {
                let lb = (da[p] - db[p]).abs().max(best_lb[p]);
                score += lb / pair_dist[p];
            }
            if score > best_gain {
                best_gain = score;
                best = Some((ci, c));
            }
        }
        let Some((ci, c)) = best else { break };
        chosen_cand.push(ci);
        chosen.push(c);
        let (da, db) = &cand_dists[ci];
        for p in 0..pairs.len() {
            best_lb[p] = best_lb[p].max((da[p] - db[p]).abs());
        }
    }
    // Pad with arbitrary distinct objects if HF yielded too few candidates.
    let mut i = 0;
    while chosen.len() < k {
        if !chosen.contains(&i) {
            chosen.push(i);
        }
        i += 1;
    }
    chosen
}

/// PSA — Algorithm 1 of the paper: per-object incremental pivot selection
/// for EPT*.
///
/// For each object `o`, selects `l` pivots from the HF candidate set `CP`
/// maximizing the expectation of `D(q,o)/d(q,o)` over a query sample, where
/// `D(q,o) = max_i |d(q,p_i) − d(o,p_i)|` is the pivot lower bound.
#[derive(Clone)]
pub struct PsaSelector<O, M> {
    metric: M,
    /// Candidate pivot objects (`CP`, |CP| = cp_scale).
    pub candidates: Vec<O>,
    /// Sample objects (`S`).
    pub sample: Vec<O>,
    /// d(candidate, sample) matrix, indexed `[cand][sample]`.
    cand_sample: Vec<Vec<f64>>,
}

impl<O: Clone, M: Metric<O>> PsaSelector<O, M> {
    /// Prepares a PSA selector: draws the sample `S`, computes HF candidates
    /// and the candidate-to-sample distance matrix. Owns clones of the
    /// selected objects so the selector can outlive the input slice (EPT*
    /// keeps it for inserts, §6.3).
    pub fn new(objects: &[O], metric: M, sample_size: usize, seed: u64) -> Self {
        let n = objects.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x505341);
        let sample: Vec<O> = (0..sample_size.min(n).max(1))
            .map(|_| objects[rng.random_range(0..n)].clone())
            .collect();
        let candidates: Vec<O> = hf_candidates(objects, &metric, CP_SCALE.min(n), seed)
            .into_iter()
            .map(|c| objects[c].clone())
            .collect();
        let cand_sample = candidates
            .iter()
            .map(|c| sample.iter().map(|s| metric.dist(c, s)).collect())
            .collect();
        PsaSelector {
            metric,
            candidates,
            sample,
            cand_sample,
        }
    }

    /// Selects `l` pivots for object `o` (lines 4–7 of Algorithm 1) and
    /// returns `(candidate index, d(o, pivot))` pairs.
    pub fn pivots_for(&self, o: &O, l: usize) -> Vec<(usize, f64)> {
        let l = l.min(self.candidates.len());
        // Distances from o to every candidate and to every sample object.
        let d_cand: Vec<f64> = self
            .candidates
            .iter()
            .map(|c| self.metric.dist(o, c))
            .collect();
        let d_sample: Vec<f64> = self
            .sample
            .iter()
            .map(|s| self.metric.dist(o, s).max(1e-12))
            .collect();

        let mut chosen: Vec<usize> = Vec::with_capacity(l);
        // Current best lower bound per sample query.
        let mut best_lb = vec![0.0f64; self.sample.len()];
        for _ in 0..l {
            let mut best = None;
            let mut best_score = -1.0;
            for (ci, (cs_row, dc)) in self.cand_sample.iter().zip(&d_cand).enumerate() {
                if chosen.contains(&ci) {
                    continue;
                }
                let mut score = 0.0;
                for (si, lb0) in best_lb.iter().enumerate() {
                    let lb = (cs_row[si] - dc).abs().max(*lb0);
                    score += lb / d_sample[si];
                }
                if score > best_score {
                    best_score = score;
                    best = Some(ci);
                }
            }
            let Some(ci) = best else { break };
            chosen.push(ci);
            for (si, lb) in best_lb.iter_mut().enumerate() {
                *lb = lb.max((self.cand_sample[ci][si] - d_cand[ci]).abs());
            }
        }
        chosen.into_iter().map(|ci| (ci, d_cand[ci])).collect()
    }

    /// The candidate object at index `ci`.
    pub fn candidate_object(&self, ci: usize) -> &O {
        &self.candidates[ci]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::{CountingMetric, L2};

    #[test]
    fn random_selection_distinct() {
        let p = select_random(100, 10, 3);
        assert_eq!(p.len(), 10);
        let set: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(p.iter().all(|&i| i < 100));
        assert_eq!(select_random(100, 10, 3), p);
    }

    #[test]
    fn hf_finds_outliers() {
        // Points on a line: HF must pick the two extremes first.
        let pts: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, 0.0]).collect();
        let foci = hf_candidates(&pts, &L2, 2, 1);
        let mut ends: Vec<usize> = foci.clone();
        ends.sort();
        assert_eq!(ends, vec![0, 49]);
    }

    #[test]
    fn hf_count_and_distinct() {
        let pts = datasets::la(300, 5);
        let foci = hf_candidates(&pts, &L2, 10, 5);
        assert_eq!(foci.len(), 10);
        let set: std::collections::HashSet<_> = foci.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn hfi_beats_random_on_lower_bounds() {
        // HFI pivots should produce tighter lower bounds than random pivots
        // on average — that is their entire purpose.
        let pts = datasets::la(600, 11);
        let k = 4;
        let hfi = select_hfi(&pts, &L2, k, 11);
        assert_eq!(hfi.len(), k);
        let random = select_random(pts.len(), k, 11);

        let quality = |pivots: &[usize]| -> f64 {
            let mut total = 0.0;
            let mut count = 0;
            for a in (0..pts.len()).step_by(37) {
                for b in (1..pts.len()).step_by(41) {
                    if a == b {
                        continue;
                    }
                    let d = L2.dist(&pts[a], &pts[b]);
                    if d < 1e-9 {
                        continue;
                    }
                    let lb = pivots
                        .iter()
                        .map(|&p| (L2.dist(&pts[p], &pts[a]) - L2.dist(&pts[p], &pts[b])).abs())
                        .fold(0.0f64, f64::max);
                    total += lb / d;
                    count += 1;
                }
            }
            total / count as f64
        };
        assert!(
            quality(&hfi) > quality(&random) * 0.95,
            "HFI {} vs random {}",
            quality(&hfi),
            quality(&random)
        );
    }

    #[test]
    fn psa_selects_l_pivots() {
        let pts = datasets::la(400, 2);
        let metric = CountingMetric::new(L2);
        let sel = PsaSelector::new(&pts, metric.clone(), 32, 2);
        let before = metric.count();
        assert!(before > 0, "selector setup computes distances");
        let pv = sel.pivots_for(&pts[17], 5);
        assert_eq!(pv.len(), 5);
        let set: std::collections::HashSet<_> = pv.iter().map(|(c, _)| *c).collect();
        assert_eq!(set.len(), 5, "pivots must be distinct");
        // Distances returned must match the metric.
        for (ci, d) in &pv {
            let obj = sel.candidate_object(*ci);
            assert!((L2.dist(obj, &pts[17]) - d).abs() < 1e-9);
        }
        assert!(metric.count() > before);
    }

    #[test]
    fn hfi_handles_tiny_inputs() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 0.0]];
        let p = select_hfi(&pts, &L2, 3, 1);
        assert_eq!(p.len(), 3);
        let set: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
