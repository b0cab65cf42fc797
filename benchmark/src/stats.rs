//! The statistics every metric is folded with, plus the seeded shuffle and
//! the checksum. Kept free of engine types so the rules can be unit-tested.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. No interpolation, so the
/// value is always one that was measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The steadiness rule: one slot per identical unit of work, each slot
/// keeps the fastest of the executions folded into it. The host only ever
/// slows the program down, so the minimum is the least disturbed execution.
#[derive(Clone, Debug)]
pub struct Fastest {
    best: Vec<u64>,
    folds: Vec<u32>,
}

impl Fastest {
    pub fn new(units: usize) -> Self {
        Fastest {
            best: vec![u64::MAX; units],
            folds: vec![0; units],
        }
    }

    pub fn fold(&mut self, unit: usize, nanos: u64) {
        self.best[unit] = self.best[unit].min(nanos);
        self.folds[unit] += 1;
    }

    /// Executions folded into the least-covered unit (the metric's K).
    pub fn min_folds(&self) -> u32 {
        self.folds.iter().copied().min().unwrap_or(0)
    }

    pub fn nanos(&self) -> &[u64] {
        &self.best
    }

    pub fn sum_secs(&self) -> f64 {
        self.best.iter().map(|&n| n as f64).sum::<f64>() * 1e-9
    }
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// SplitMix64: the traffic generator. Std-only, and frozen here so a
/// library change cannot silently change what a seed means.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Always a measured sample, never interpolated.
        assert_eq!(percentile(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 10.0], 0.51), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_keeps_the_minimum_per_unit() {
        let mut f = Fastest::new(2);
        for (unit, nanos) in [(0, 30), (1, 7), (0, 10), (0, 20), (1, 9)] {
            f.fold(unit, nanos);
        }
        assert_eq!(f.nanos(), &[10, 7]);
        assert_eq!(f.min_folds(), 2);
        assert!((f.sum_secs() - 17e-9).abs() < 1e-18);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.eat(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
