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
//!   vector space (the workspace-wide default); [`select_hfi_with_threads`]
//!   is the same selection with its distance passes on several threads,
//! * [`PsaSelector`] — Algorithm 1 of the paper (PSA), the per-object pivot
//!   selection that turns EPT into EPT*.

use pmi_metric::parallel::map_row_chunks;
use pmi_metric::{dists_from, views, Metric, Object};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

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

/// Distances below which a chunk of an HF or HFI pass is not worth a thread
/// of its own: a spawn costs tens of microseconds, a `Metric::dist` from a
/// few nanoseconds (2-d L2) to hundreds (282-d L1).
const MIN_DISTS_PER_CHUNK: usize = 512;

/// Hull-of-Foci (HF) candidate search from the Omni-family: finds up to
/// `count` mutually far-apart "outlier" objects.
///
/// The classic procedure: start from a random object, walk to its farthest
/// neighbor twice to find an approximate diameter pair `(f1, f2)`; then
/// repeatedly add the object whose distances to the current foci deviate
/// least from the diameter edge (i.e. it is roughly `edge` away from every
/// focus — a new hull corner).
///
/// Each distinct sampled object costs one distance per pass, and the passes
/// run over contiguous sample ranges on up to `threads` scoped threads;
/// every choice (the farthest object, the least error) is made on the
/// caller in sample order, so the foci are the same for every `threads`.
/// Fewer than two objects have no diameter to walk: they are their own
/// foci, at no cost.
pub fn hf_candidates<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    count: usize,
    seed: u64,
    threads: usize,
) -> Vec<usize> {
    let n = objects.len();
    let count = count.min(n);
    if n < 2 {
        return (0..count).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4846);

    // Work on a sample for large datasets; HF cost is O(sample · foci).
    let mut sample: Vec<usize> = if n <= 4096 {
        (0..n).collect()
    } else {
        (0..4096).map(|_| rng.random_range(0..n)).collect()
    };
    // The start is drawn from the draws, repeats included; only then are
    // repeats dropped, keeping first occurrences in draw order. A repeat has
    // its first occurrence's distances and errors, and every scan below
    // keeps the first of equals, so a repeat could never have been chosen.
    let s = sample[rng.random_range(0..sample.len())];
    let mut seen = HashSet::with_capacity(sample.len());
    sample.retain(|&j| seen.insert(j));

    // `update(&mut val[si], d(objects[from], objects[sample[si]]))` for
    // every sample slot but, when `skip_from`, `from`'s own (left as it is,
    // not charged): through `dists_from` over contiguous slot ranges on up
    // to `threads` scoped threads. Every metric here is bitwise symmetric,
    // so `d(from, o)` is the `d(o, from)` a per-object loop computes.
    let pass =
        |from: usize, skip_from: bool, val: &mut [f64], update: &(dyn Fn(&mut f64, f64) + Sync)| {
            map_row_chunks(val, threads, MIN_DISTS_PER_CHUNK, |start, chunk| {
                let slots = chunk
                    .iter_mut()
                    .zip(&sample[start..])
                    .filter(|&(_, &j)| !(skip_from && j == from))
                    .map(|(v, &j)| (v, &*objects[j]));
                dists_from(metric, &objects[from], slots, update);
            });
        };

    // The slot of the sample object farthest from object `i`, the first
    // among equals; `i` itself is skipped, not charged.
    let mut d = vec![0.0; sample.len()];
    let mut farthest_from = |i: usize| -> usize {
        d.fill(f64::NEG_INFINITY);
        pass(i, true, &mut d, &|v, dist| *v = dist);
        let (mut best, mut best_d) = (0, -1.0);
        for (si, &dj) in d.iter().enumerate() {
            if dj > best_d {
                best_d = dj;
                best = si;
            }
        }
        best
    };

    let a = farthest_from(s);
    let b = farthest_from(sample[a]);
    let (f1, f2) = (sample[a], sample[b]);
    let edge = metric.dist(&objects[f1], &objects[f2]);

    // Incremental error accumulation: each round adds one focus and charges
    // one distance per sample object, keeping HF at O(sample · count)
    // distance computations. Each `err[si]` is summed in focus order
    // whatever the thread count.
    let mut foci = vec![f1, f2];
    let mut taken = vec![false; sample.len()];
    taken[a] = true;
    taken[b] = true;
    let mut err = vec![0.0; sample.len()];
    pass(f1, false, &mut err, &|e, d| *e = (d - edge).abs());
    pass(f2, false, &mut err, &|e, d| *e += (d - edge).abs());
    while foci.len() < count {
        let mut best = None;
        let mut best_err = f64::INFINITY;
        for (si, &e) in err.iter().enumerate() {
            if !taken[si] && e < best_err {
                best_err = e;
                best = Some(si);
            }
        }
        let Some(si) = best else { break }; // sample exhausted
        taken[si] = true;
        let j = sample[si];
        foci.push(j);
        if foci.len() < count {
            pass(j, false, &mut err, &|e, d| *e += (d - edge).abs());
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
///
/// This is [`select_hfi_with_threads`] on the calling thread.
pub fn select_hfi<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    k: usize,
    seed: u64,
) -> Vec<usize> {
    select_hfi_with_threads(objects, metric, k, seed, 1)
}

/// [`select_hfi`] with its distance passes — HF's and the candidate-to-pair
/// distances, split by candidate range — on up to `threads` scoped threads.
/// The pivots are the same for every `threads`.
pub fn select_hfi_with_threads<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<usize> {
    let n = objects.len();
    assert!(k <= n, "cannot select {k} pivots from {n} objects");
    if k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x484649);
    let candidates = hf_candidates(objects, metric, (4 * k).max(CP_SCALE).min(n), seed, threads);

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

    // Pre-compute candidate-to-pair-endpoint distances, into rows allocated
    // here rather than on the workers.
    let zeros = vec![0.0; pairs.len()];
    let mut cand_dists = vec![(zeros.clone(), zeros); candidates.len()];
    let min_rows = MIN_DISTS_PER_CHUNK.div_ceil(2 * pairs.len());
    map_row_chunks(&mut cand_dists, threads, min_rows, |start, chunk| {
        for ((da, db), &c) in chunk.iter_mut().zip(&candidates[start..]) {
            let a_ends = da
                .iter_mut()
                .zip(&pairs)
                .map(|(x, &(a, _))| (x, &*objects[a]));
            dists_from(metric, &objects[c], a_ends, |x, d| *x = d);
            let b_ends = db
                .iter_mut()
                .zip(&pairs)
                .map(|(x, &(_, b))| (x, &*objects[b]));
            dists_from(metric, &objects[c], b_ends, |x, d| *x = d);
        }
    });

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

impl<O: Object, M: Metric<O>> PsaSelector<O, M> {
    /// Prepares a PSA selector: draws the sample `S`, computes HF candidates
    /// and the candidate-to-sample distance matrix. Owns clones of the
    /// selected objects so the selector can outlive the input slice (EPT*
    /// keeps it for inserts, §6.3).
    pub fn new(objects: &[O], metric: M, sample_size: usize, seed: u64) -> Self {
        let n = objects.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x505341);
        let sample: Vec<O> = (0..sample_size.min(n).max(n.min(1)))
            .map(|_| objects[rng.random_range(0..n)].clone())
            .collect();
        let candidates: Vec<O> = hf_candidates(objects, &metric, CP_SCALE.min(n), seed, 1)
            .into_iter()
            .map(|c| objects[c].clone())
            .collect();
        let cand_sample = candidates
            .iter()
            .map(|c| {
                let mut row = Vec::with_capacity(sample.len());
                dists_from(&metric, c, views(&sample), |_, d| row.push(d));
                row
            })
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
        let mut d_cand = Vec::with_capacity(self.candidates.len());
        dists_from(&self.metric, o, views(&self.candidates), |_, d| {
            d_cand.push(d)
        });
        let mut d_sample = Vec::with_capacity(self.sample.len());
        dists_from(&self.metric, o, views(&self.sample), |_, d| {
            d_sample.push(d.max(1e-12))
        });

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
    use pmi_metric::{CountingMetric, EditDistance, L1, L2};
    use proptest::prelude::*;

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
        let foci = hf_candidates(&pts, &L2, 2, 1, 1);
        let mut ends: Vec<usize> = foci.clone();
        ends.sort();
        assert_eq!(ends, vec![0, 49]);
    }

    #[test]
    fn hf_count_and_distinct() {
        let pts = datasets::la(300, 5);
        let foci = hf_candidates(&pts, &L2, 10, 5, 1);
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

    /// `select_hfi` as it stood at commit 1fa4b80, before HF dropped repeat
    /// draws and ran on threads: the reference the new code must match id
    /// for id.
    fn parent_select_hfi<O: Object, M: Metric<O>>(
        objects: &[O],
        metric: &M,
        k: usize,
        seed: u64,
    ) -> Vec<usize> {
        let n = objects.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x484649);
        if k == 0 {
            return Vec::new();
        }
        let candidates = parent_hf_candidates(objects, metric, (4 * k).max(CP_SCALE).min(n), seed);
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
        let cand_dists: Vec<(Vec<f64>, Vec<f64>)> = candidates
            .iter()
            .map(|&c| {
                let da = pairs
                    .iter()
                    .map(|&(a, _)| metric.dist(&objects[c], &objects[a]));
                let db = pairs
                    .iter()
                    .map(|&(_, b)| metric.dist(&objects[c], &objects[b]));
                (da.collect(), db.collect())
            })
            .collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        let mut chosen_cand: Vec<usize> = Vec::with_capacity(k);
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
                    score += (da[p] - db[p]).abs().max(best_lb[p]) / pair_dist[p];
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
        let mut i = 0;
        while chosen.len() < k {
            if !chosen.contains(&i) {
                chosen.push(i);
            }
            i += 1;
        }
        chosen
    }

    fn parent_hf_candidates<O: Object, M: Metric<O>>(
        objects: &[O],
        metric: &M,
        count: usize,
        seed: u64,
    ) -> Vec<usize> {
        let n = objects.len();
        let count = count.min(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4846);
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
                if !foci.contains(&j) && err[si] < best_err {
                    best_err = err[si];
                    best = Some(j);
                }
            }
            let Some(j) = best else { break };
            foci.push(j);
            if foci.len() < count {
                for (si, &o) in sample.iter().enumerate() {
                    err[si] += (metric.dist(&objects[o], &objects[j]) - edge).abs();
                }
            }
        }
        foci.truncate(count);
        foci
    }

    /// The parent's pivots on every thread count, and the parent's HF foci.
    fn assert_same_pivots<O: Object, M: Metric<O>>(objects: &[O], metric: &M, k: usize, seed: u64) {
        let n = objects.len();
        let count = (4 * k).max(CP_SCALE).min(n);
        assert_eq!(
            hf_candidates(objects, metric, count, seed, 1),
            parent_hf_candidates(objects, metric, count, seed),
            "HF: n={n} seed={seed}"
        );
        let want = parent_select_hfi(objects, metric, k, seed);
        for threads in [1, 2, 3, 8] {
            let got = select_hfi_with_threads(objects, metric, k, seed, threads);
            assert_eq!(got, want, "n={n} k={k} seed={seed} threads={threads}");
        }
    }

    #[test]
    fn hfi_is_independent_of_thread_count() {
        // LA 10^5 draws repeats; the rest take the whole set as the sample,
        // and 15 objects are fewer than `4k`.
        assert_same_pivots(&datasets::la(100_000, 42), &L2, 5, 42);
        assert_same_pivots(&datasets::la(4096, 3), &L2, 5, 3);
        assert_same_pivots(&datasets::la(15, 4), &L2, 5, 4);
        assert_same_pivots(&datasets::words(1500, 7), &EditDistance, 5, 7);
    }

    /// The 282-d corpus and sampled strings, where a distance costs
    /// hundreds of nanoseconds: release builds only (CI's release leg).
    #[cfg(not(debug_assertions))]
    #[test]
    fn hfi_is_independent_of_thread_count_on_costly_metrics() {
        assert_same_pivots(&datasets::color(12_500, 42), &L1, 5, 42);
        assert_same_pivots(&datasets::words(9000, 7), &EditDistance, 5, 7);
    }

    #[test]
    fn hfi_pivots_and_cost_on_the_benchmark_corpora() {
        // Ids recorded at commit 1fa4b80 with `select_hfi(…, 5, 42)`; the
        // parent charged 188 671 distances to each, one per sample draw,
        // where one per distinct sampled object is charged now.
        let color = CountingMetric::new(L1);
        let ids = select_hfi(&datasets::color(12_500, 42), &color, 5, 42);
        assert_eq!(ids, [74, 4685, 6991, 7809, 2076]);
        assert_eq!(color.count(), 163_292);
        let la = CountingMetric::new(L2);
        let ids = select_hfi(&datasets::la(100_000, 42), &la, 5, 42);
        assert_eq!(ids, [60526, 21986, 67332, 96245, 6796]);
        assert_eq!(la.count(), 185_186);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Integer grid points under L1: many duplicate objects and exactly
        /// equal distances, so every first-among-equals rule is exercised;
        /// `n` spans tiny sets, `n < 4k`, whole-set samples and sampled sets
        /// with repeat draws.
        #[test]
        fn hfi_equals_the_parent_on_random_grids(
            n in 2usize..6000,
            grid in 2u32..40,
            k in 0usize..9,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..3).map(|_| rng.random_range(0..grid) as f32).collect())
                .collect();
            assert_same_pivots(&pts, &L1, k.min(n), seed);
        }
    }
}
