//! Synthetic dataset generators matching the paper's Table 2.
//!
//! The paper evaluates on LA (2-d locations, L2), Words (strings, edit
//! distance), Color (282-d MPEG-7 features, L1) and Synthetic (20-d integer
//! vectors, L∞). The original files are not redistributable here, so each
//! generator reproduces the published statistics — dimensionality, value
//! domain, distance measure and, most importantly, intrinsic dimensionality
//! `μ² / 2σ²`, which is what drives pivot-filter effectiveness: a
//! substitute with the same statistics exercises the same pruning
//! behaviour, which is all the paper's relative comparisons depend on.

use crate::distance::Metric;
use crate::object::Object;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Dimensionality of the Color dataset (282-d MPEG-7 features).
pub const COLOR_DIM: usize = 282;
/// Dimensionality of the Synthetic dataset.
pub const SYNTHETIC_DIM: usize = 20;
/// Number of free (random) dimensions in Synthetic; the rest are linear
/// combinations of these (paper §6.1).
pub const SYNTHETIC_FREE_DIMS: usize = 5;

/// LA: clustered 2-d locations over `[0, 10000]²`, compared with L2.
///
/// Real urban location data is a mixture of dense clusters (city blocks)
/// plus a sparse background, which is what yields the paper's intrinsic
/// dimensionality of ≈ 5.4 and the skew noted in §6.5.2.
pub fn la(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4c41);
    let n_clusters: usize = 64;
    let centers: Vec<(f64, f64, f64)> = (0..n_clusters)
        .map(|_| {
            (
                rng.random_range(0.0..10000.0),
                rng.random_range(0.0..10000.0),
                rng.random_range(80.0..600.0), // cluster spread
            )
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.random::<f64>() < 0.15 {
            // Sparse background.
            out.push(vec![
                rng.random_range(0.0..10000.0) as f32,
                rng.random_range(0.0..10000.0) as f32,
            ]);
        } else {
            let (cx, cy, s) = centers[rng.random_range(0..n_clusters)];
            let x = (cx + gauss(&mut rng) * s).clamp(0.0, 10000.0);
            let y = (cy + gauss(&mut rng) * s).clamp(0.0, 10000.0);
            out.push(vec![x as f32, y as f32]);
        }
    }
    out
}

/// Words: pseudo-English words built from consonant-vowel syllables,
/// compared with edit distance. Lengths follow the short-biased distribution
/// of real word lists (maxD in the paper is 34 = longest word).
pub fn words(n: usize, seed: u64) -> Vec<String> {
    const ONSETS: &[&str] = &[
        "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
        "ch", "sh", "th", "br", "cr", "dr", "st", "tr", "pl", "gr", "",
    ];
    const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ou", "io"];
    const CODAS: &[&str] = &["", "", "n", "r", "s", "t", "l", "m", "ng", "rd", "st", "ck"];
    const SUFFIXES: &[&str] = &[
        "", "s", "ed", "ing", "ion", "ions", "er", "ers", "ly", "ness", "ment", "able", "est",
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x574f);
    fn syllable(rng: &mut StdRng, w: &mut String) {
        w.push_str(ONSETS[rng.random_range(0..ONSETS.len())]);
        w.push_str(VOWELS[rng.random_range(0..VOWELS.len())]);
        w.push_str(CODAS[rng.random_range(0..CODAS.len())]);
    }
    // Morphological stems: real lexicons contain families of near-identical
    // words ("defoliate(s|d)", "defoliation", ...), which is what gives word
    // lists their low intrinsic dimensionality (many small pairwise
    // distances next to large cross-family ones).
    // A small shared syllable pool: real lexicons reuse a limited phoneme
    // inventory, which makes words share substrings and spreads pairwise
    // edit distances from 1 up to the longest word — the wide spread that
    // gives word lists their very low intrinsic dimensionality (Table 2:
    // 1.2 for Moby Words).
    let mut pool: Vec<String> = Vec::with_capacity(48);
    for _ in 0..48 {
        let mut syl = String::new();
        syllable(&mut rng, &mut syl);
        pool.push(syl);
    }
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Heavy-tailed word lengths (many short words, compound-word tail).
        let syllables = 1 + (rng.random::<f64>().powf(6.0) * 11.0) as usize;
        let mut w = String::new();
        for _ in 0..syllables {
            // Zipf-ish pool usage: a few syllables dominate.
            let idx = ((rng.random::<f64>().powi(2)) * pool.len() as f64) as usize;
            w.push_str(&pool[idx.min(pool.len() - 1)]);
        }
        if rng.random::<f64>() < 0.5 {
            w.push_str(SUFFIXES[rng.random_range(0..SUFFIXES.len())]);
        }
        // Letter-level inflection: keeps short words distinct (the pool is
        // small) while only perturbing edit distances by 1–2.
        for _ in 0..rng.random_range(0..3) {
            let c = b'a' + rng.random_range(0..26) as u8;
            w.push(char::from(c));
        }
        w.truncate(34);
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    out
}

/// Color: 282-d feature vectors in `[-255, 255]`, compared with L1.
///
/// Generated from a low-rank mixture (16 latent factors) so that, like real
/// MPEG-7 features, the intrinsic dimensionality (≈ 6.5 in the paper) is far
/// below the ambient 282 dimensions.
pub fn color(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434f);
    let rank = 13;
    let n_mix: usize = 8;
    // Mixing matrix: rank x COLOR_DIM.
    let mix: Vec<Vec<f64>> = (0..rank)
        .map(|_| (0..COLOR_DIM).map(|_| gauss(&mut rng) * 24.0).collect())
        .collect();
    // A few mixture-component means in latent space.
    let means: Vec<Vec<f64>> = (0..n_mix)
        .map(|_| (0..rank).map(|_| gauss(&mut rng) * 2.0).collect())
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mean = &means[rng.random_range(0..n_mix)];
        let latent: Vec<f64> = mean.iter().map(|m| m + gauss(&mut rng)).collect();
        let mut acc = vec![0.0f64; COLOR_DIM];
        for (l, row) in latent.iter().zip(&mix) {
            for (x, m) in acc.iter_mut().zip(row) {
                *x += l * m;
            }
        }
        let v: Vec<f32> = acc
            .into_iter()
            .map(|x| (x + gauss(&mut rng) * 6.0).clamp(-255.0, 255.0) as f32) // per-dim noise
            .collect();
        out.push(v);
    }
    out
}

/// Synthetic: the paper's exact recipe — 20 integer dimensions in
/// `[0, 10000]`, the first five uniform random, the remaining fifteen linear
/// combinations of the first five; compared with (discrete) L∞.
pub fn synthetic(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5359);
    // Fixed integer combination weights, shared by the whole dataset.
    let weights: Vec<[f64; SYNTHETIC_FREE_DIMS]> = (0..SYNTHETIC_DIM - SYNTHETIC_FREE_DIMS)
        .map(|_| {
            let mut w = [0.0; SYNTHETIC_FREE_DIMS];
            for x in &mut w {
                *x = rng.random_range(-2..=2) as f64;
            }
            if w.iter().all(|x| *x == 0.0) {
                w[0] = 1.0;
            }
            w
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut v = Vec::with_capacity(SYNTHETIC_DIM);
        let free: Vec<f64> = (0..SYNTHETIC_FREE_DIMS)
            .map(|_| rng.random_range(0..=10000) as f64)
            .collect();
        v.extend(free.iter().map(|x| *x as f32));
        for w in &weights {
            let mut x: f64 = free.iter().zip(w).map(|(f, wi)| f * wi).sum();
            // Affine-rescale into the integer domain [0, 10000].
            x = (x / 4.0 + 5000.0).clamp(0.0, 10000.0).round();
            v.push(x as f32);
        }
        out.push(v);
    }
    out
}

/// Statistics of a dataset as reported in the paper's Table 2.
#[derive(Clone, Copy, Debug)]
pub struct DatasetStats {
    /// Number of objects.
    pub cardinality: usize,
    /// Mean of sampled pairwise distances.
    pub mean_dist: f64,
    /// Variance of sampled pairwise distances.
    pub var_dist: f64,
    /// Intrinsic dimensionality `μ² / 2σ²` (§6.1).
    pub intrinsic_dim: f64,
    /// Maximum sampled pairwise distance (lower bound on the true maximum).
    pub max_dist: f64,
}

/// Estimates [`DatasetStats`] from `pairs` random pairs.
pub fn dataset_stats<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    pairs: usize,
    seed: u64,
) -> DatasetStats {
    assert!(objects.len() >= 2, "need at least two objects");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354);
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    let mut max = 0.0f64;
    for _ in 0..pairs {
        let i = rng.random_range(0..objects.len());
        let mut j = rng.random_range(0..objects.len());
        while j == i {
            j = rng.random_range(0..objects.len());
        }
        let d = metric.dist(&objects[i], &objects[j]);
        sum += d;
        sum2 += d * d;
        if d > max {
            max = d;
        }
    }
    let n = pairs as f64;
    let mean = sum / n;
    let var = (sum2 / n - mean * mean).max(0.0);
    DatasetStats {
        cardinality: objects.len(),
        mean_dist: mean,
        var_dist: var,
        intrinsic_dim: if var > 0.0 {
            mean * mean / (2.0 * var)
        } else {
            0.0
        },
        max_dist: max,
    }
}

/// Calibrates a search radius that returns approximately
/// `selectivity · |O|` objects per query, matching the paper's definition of
/// the `r` parameter ("the percentage of objects in the dataset that are
/// result objects", §6.1). Uses the empirical quantile of query-to-object
/// distances over a sample.
pub fn calibrate_radius<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    selectivity: f64,
    seed: u64,
) -> f64 {
    assert!((0.0..=1.0).contains(&selectivity));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5241);
    let n_queries = 24.min(objects.len());
    let n_targets = 400.min(objects.len());
    let mut dists = Vec::with_capacity(n_queries * n_targets);
    for _ in 0..n_queries {
        let q = &objects[rng.random_range(0..objects.len())];
        for _ in 0..n_targets {
            let o = &objects[rng.random_range(0..objects.len())];
            dists.push(metric.dist(q, o));
        }
    }
    dists.sort_by(f64::total_cmp);
    let idx = ((dists.len() as f64 - 1.0) * selectivity).round() as usize;
    dists[idx.min(dists.len() - 1)]
}

/// Standard normal via Box–Muller (avoids a dependency on rand_distr).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{EditDistance, LInf, L1, L2};

    #[test]
    fn la_shape() {
        let d = la(500, 7);
        assert_eq!(d.len(), 500);
        assert!(d.iter().all(|v| v.len() == 2));
        assert!(d
            .iter()
            .all(|v| (0.0..=10000.0).contains(&v[0]) && (0.0..=10000.0).contains(&v[1])));
        // Deterministic per seed.
        assert_eq!(la(500, 7), d);
        assert_ne!(la(500, 8), d);
    }

    #[test]
    fn words_shape() {
        let w = words(300, 7);
        assert_eq!(w.len(), 300);
        assert!(w.iter().all(|s| !s.is_empty() && s.len() <= 34));
        // All distinct.
        let set: std::collections::HashSet<_> = w.iter().collect();
        assert_eq!(set.len(), w.len());
    }

    #[test]
    fn color_shape() {
        let c = color(50, 7);
        assert!(c.iter().all(|v| v.len() == COLOR_DIM));
        assert!(c
            .iter()
            .all(|v| v.iter().all(|x| (-255.0..=255.0).contains(x))));
    }

    #[test]
    fn synthetic_is_integral() {
        let s = synthetic(100, 7);
        assert!(s.iter().all(|v| v.len() == SYNTHETIC_DIM));
        assert!(s.iter().all(|v| v
            .iter()
            .all(|x| x.fract() == 0.0 && (0.0..=10000.0).contains(x))));
        // L∞ distances over integral vectors are integral -> discrete domain.
        let d = LInf::discrete().dist(&s[0], &s[1]);
        assert_eq!(d.fract(), 0.0);
    }

    #[test]
    fn intrinsic_dims_in_paper_ballpark() {
        // Table 2: LA 5.4, Words 1.2, Color 6.5, Synthetic 6.6. We accept a
        // generous band — the *ordering* and rough magnitude drive behaviour.
        let la_stats = dataset_stats(&la(2000, 1), &L2, 4000, 1);
        assert!(
            (2.0..=9.0).contains(&la_stats.intrinsic_dim),
            "LA intrinsic dim {:.2}",
            la_stats.intrinsic_dim
        );
        let w = words(1500, 1);
        let w_stats = dataset_stats(&w, &EditDistance, 4000, 1);
        assert!(
            (0.5..=4.0).contains(&w_stats.intrinsic_dim),
            "Words intrinsic dim {:.2}",
            w_stats.intrinsic_dim
        );
        let c_stats = dataset_stats(&color(600, 1), &L1, 3000, 1);
        assert!(
            (3.0..=12.0).contains(&c_stats.intrinsic_dim),
            "Color intrinsic dim {:.2}",
            c_stats.intrinsic_dim
        );
        let s_stats = dataset_stats(&synthetic(1500, 1), &LInf::discrete(), 4000, 1);
        assert!(
            (2.0..=12.0).contains(&s_stats.intrinsic_dim),
            "Synthetic intrinsic dim {:.2}",
            s_stats.intrinsic_dim
        );
    }

    #[test]
    fn radius_calibration_monotone() {
        let d = la(1500, 3);
        let r4 = calibrate_radius(&d, &L2, 0.04, 9);
        let r16 = calibrate_radius(&d, &L2, 0.16, 9);
        let r64 = calibrate_radius(&d, &L2, 0.64, 9);
        assert!(r4 > 0.0);
        assert!(r4 < r16 && r16 < r64, "{r4} {r16} {r64}");
    }
}
