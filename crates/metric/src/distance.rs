//! Distance functions and the instrumented [`CountingMetric`] wrapper.
//!
//! A metric space `(M, d)` requires `d` to satisfy symmetry, non-negativity,
//! identity and the triangle inequality (paper §2.1). The implementations
//! here are property-tested against those axioms.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A distance function over objects of type `O`.
///
/// Implementations must satisfy the four metric axioms; all pivot filtering
/// in this workspace (Lemmas 1–4) is only correct under the triangle
/// inequality.
pub trait Metric<O: ?Sized>: Send + Sync {
    /// Distance between `a` and `b`. Must be symmetric and non-negative.
    fn dist(&self, a: &O, b: &O) -> f64;

    /// `[d(a, b[0]), …, d(a, b[3])]`, each bit-identical to its
    /// [`dist`](Self::dist) call. An override may interleave the four
    /// distances (independent accumulator chains keep a serial add chain's
    /// latency from bounding its throughput) but never reassociate inside
    /// one. Callers reach it through [`dists_from`].
    fn dist4(&self, a: &O, b: [&O; 4]) -> [f64; 4] {
        b.map(|b| self.dist(a, b))
    }

    /// Whether the distance domain is discrete (integer-valued). BKT and FQT
    /// are only defined for discrete metrics (paper §4.1–4.2).
    fn is_discrete(&self) -> bool {
        false
    }

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;
}

impl<O: ?Sized, M: Metric<O> + ?Sized> Metric<O> for &M {
    fn dist(&self, a: &O, b: &O) -> f64 {
        (**self).dist(a, b)
    }
    fn dist4(&self, a: &O, b: [&O; 4]) -> [f64; 4] {
        (**self).dist4(a, b)
    }
    fn is_discrete(&self) -> bool {
        (**self).is_discrete()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// `d(a, b)` for every `(tag, b)` of `items`, handed to `sink(tag, d)` in
/// item order: four distances per [`Metric::dist4`] call, and one
/// [`Metric::dist`] each for a last group of one to three. This is the one "fixed object against
/// many" loop — HF and HFI pivot selection, PSA, the pivot map of a build,
/// an insert and a query, and range verification all run through it — so
/// every one of them gets the interleaved kernel, and a
/// [`CountingMetric`] still counts one per distance. `items` are drawn in
/// groups of four before any of the group is computed.
pub fn dists_from<O, M, T, B>(
    metric: &M,
    a: &O,
    items: impl IntoIterator<Item = (T, B)>,
    mut sink: impl FnMut(T, f64),
) where
    O: ?Sized,
    M: Metric<O> + ?Sized,
    B: Borrow<O>,
{
    let mut items = items.into_iter().fuse();
    loop {
        match std::array::from_fn(|_| items.next()) {
            [Some((t0, b0)), Some((t1, b1)), Some((t2, b2)), Some((t3, b3))] => {
                let [d0, d1, d2, d3] =
                    metric.dist4(a, [b0.borrow(), b1.borrow(), b2.borrow(), b3.borrow()]);
                sink(t0, d0);
                sink(t1, d1);
                sink(t2, d2);
                sink(t3, d3);
            }
            rest => {
                for (t, b) in rest.into_iter().flatten() {
                    sink(t, metric.dist(a, b.borrow()));
                }
                return;
            }
        }
    }
}

/// Four left-to-right folds in lockstep: lane `j` runs
/// `acc = step(acc, a[i] as f64, b[j][i] as f64)` for `i` ascending, the
/// exact sequence of operations a one-lane loop runs, so each lane's result
/// is that loop's bit for bit. `None` when a length differs from `a`'s
/// (the caller then falls back to four `dist` calls, which truncate as
/// `zip` does).
#[inline(always)]
fn fold4(a: &[f32], b: [&[f32]; 4], step: impl Fn(f64, f64, f64) -> f64) -> Option<[f64; 4]> {
    let n = a.len();
    if b.iter().any(|b| b.len() != n) {
        return None;
    }
    let [b0, b1, b2, b3] = b.map(|b| &b[..n]);
    let mut acc = [0.0f64; 4];
    for i in 0..n {
        let x = a[i] as f64;
        acc[0] = step(acc[0], x, b0[i] as f64);
        acc[1] = step(acc[1], x, b1[i] as f64);
        acc[2] = step(acc[2], x, b2[i] as f64);
        acc[3] = step(acc[3], x, b3[i] as f64);
    }
    Some(acc)
}

/// L1 norm (Manhattan distance) — used by the Color dataset.
#[derive(Clone, Copy, Debug, Default)]
pub struct L1;

impl Metric<[f32]> for L1 {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            s += (*x as f64 - *y as f64).abs();
        }
        s
    }
    #[inline]
    fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
        fold4(a, b, |s, x, y| s + (x - y).abs()).unwrap_or_else(|| b.map(|b| self.dist(a, b)))
    }
    fn name(&self) -> &'static str {
        "L1"
    }
}

/// L2 norm (Euclidean distance) — used by the LA dataset.
#[derive(Clone, Copy, Debug, Default)]
pub struct L2;

impl Metric<[f32]> for L2 {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let d = *x as f64 - *y as f64;
            s += d * d;
        }
        s.sqrt()
    }
    #[inline]
    fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
        let squares = |s: f64, x: f64, y: f64| {
            let d = x - y;
            s + d * d
        };
        match fold4(a, b, squares) {
            Some(s) => s.map(f64::sqrt),
            None => b.map(|b| self.dist(a, b)),
        }
    }
    fn name(&self) -> &'static str {
        "L2"
    }
}

/// L∞ norm (Chebyshev distance) — used by the Synthetic dataset. On
/// integer-valued vectors this is a discrete metric, which is what the paper
/// relies on to evaluate BKT/FQT on Synthetic.
#[derive(Clone, Copy, Debug, Default)]
pub struct LInf {
    /// Marks the distance domain as discrete (paper generates Synthetic as
    /// integers so that L∞ distances are integers).
    pub discrete: bool,
}

impl LInf {
    /// An L∞ metric over integer-valued vectors (discrete domain).
    pub fn discrete() -> Self {
        LInf { discrete: true }
    }
}

impl Metric<[f32]> for LInf {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut m = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let d = (*x as f64 - *y as f64).abs();
            if d > m {
                m = d;
            }
        }
        m
    }
    #[inline]
    fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
        let max = |m: f64, x: f64, y: f64| {
            let d = (x - y).abs();
            if d > m {
                d
            } else {
                m
            }
        };
        fold4(a, b, max).unwrap_or_else(|| b.map(|b| self.dist(a, b)))
    }
    fn is_discrete(&self) -> bool {
        self.discrete
    }
    fn name(&self) -> &'static str {
        "Linf"
    }
}

/// General Lp norm for p ≥ 1 (p < 1 does not satisfy the triangle
/// inequality and is rejected).
#[derive(Clone, Copy, Debug)]
pub struct Lp {
    p: f64,
}

impl Lp {
    /// Creates an Lp metric. Panics if `p < 1`, which would violate the
    /// triangle inequality.
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Lp norm requires p >= 1 to be a metric");
        Lp { p }
    }

    /// The exponent.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric<[f32]> for Lp {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            s += (*x as f64 - *y as f64).abs().powf(self.p);
        }
        s.powf(1.0 / self.p)
    }
    #[inline]
    fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
        let p = self.p;
        match fold4(a, b, |s, x, y| s + (x - y).abs().powf(p)) {
            Some(s) => s.map(|s| s.powf(1.0 / p)),
            None => b.map(|b| self.dist(a, b)),
        }
    }
    fn name(&self) -> &'static str {
        "Lp"
    }
}

// `Vec<f32>` convenience impls so indexes generic over `O = Vector` work
// without explicit deref coercion.
macro_rules! impl_vec_metric {
    ($t:ty) => {
        impl Metric<Vec<f32>> for $t {
            #[inline]
            fn dist(&self, a: &Vec<f32>, b: &Vec<f32>) -> f64 {
                Metric::<[f32]>::dist(self, a.as_slice(), b.as_slice())
            }
            #[inline]
            fn dist4(&self, a: &Vec<f32>, b: [&Vec<f32>; 4]) -> [f64; 4] {
                Metric::<[f32]>::dist4(self, a.as_slice(), b.map(Vec::as_slice))
            }
            fn is_discrete(&self) -> bool {
                Metric::<[f32]>::is_discrete(self)
            }
            fn name(&self) -> &'static str {
                Metric::<[f32]>::name(self)
            }
        }
    };
}
impl_vec_metric!(L1);
impl_vec_metric!(L2);
impl_vec_metric!(LInf);
impl_vec_metric!(Lp);

/// Levenshtein edit distance — used by the Words dataset. Discrete.
#[derive(Clone, Copy, Debug, Default)]
pub struct EditDistance;

impl EditDistance {
    /// Classic O(|a|·|b|) dynamic program with two rolling rows.
    pub fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }
}

impl Metric<str> for EditDistance {
    #[inline]
    fn dist(&self, a: &str, b: &str) -> f64 {
        Self::levenshtein(a, b) as f64
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "edit"
    }
}

impl Metric<String> for EditDistance {
    #[inline]
    fn dist(&self, a: &String, b: &String) -> f64 {
        Self::levenshtein(a, b) as f64
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "edit"
    }
}

/// Shared distance-computation counter.
///
/// The paper's primary cost metric is `compdists`, the number of distance
/// computations (§6.1). Every index in this workspace performs distance
/// computations exclusively through a [`CountingMetric`], so the harness can
/// read and reset this counter around each build / query / update.
#[derive(Clone, Debug, Default)]
pub struct DistanceCounter(Arc<AtomicU64>);

impl DistanceCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn bump(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }
}

/// A metric wrapper that counts every distance evaluation.
///
/// Cloning shares the underlying counter, so an index and the harness can
/// observe the same `compdists` stream.
#[derive(Clone, Debug)]
pub struct CountingMetric<M> {
    inner: M,
    counter: DistanceCounter,
}

impl<M> CountingMetric<M> {
    /// Wraps `inner` with a fresh counter.
    pub fn new(inner: M) -> Self {
        CountingMetric {
            inner,
            counter: DistanceCounter::new(),
        }
    }

    /// The shared counter handle.
    pub fn counter(&self) -> DistanceCounter {
        self.counter.clone()
    }

    /// Number of distance computations so far.
    pub fn count(&self) -> u64 {
        self.counter.get()
    }

    /// Resets the counter.
    pub fn reset(&self) {
        self.counter.reset()
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<O: ?Sized, M: Metric<O>> Metric<O> for CountingMetric<M> {
    #[inline]
    fn dist(&self, a: &O, b: &O) -> f64 {
        self.counter.bump(1);
        self.inner.dist(a, b)
    }
    #[inline]
    fn dist4(&self, a: &O, b: [&O; 4]) -> [f64; 4] {
        self.counter.bump(4);
        self.inner.dist4(a, b)
    }
    fn is_discrete(&self) -> bool {
        self.inner.is_discrete()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basic() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(L2.dist(&a[..], &b[..]), 5.0);
    }

    #[test]
    fn l1_basic() {
        let a = [1.0f32, -2.0];
        let b = [4.0f32, 2.0];
        assert_eq!(L1.dist(&a[..], &b[..]), 7.0);
    }

    #[test]
    fn linf_basic() {
        let a = [1.0f32, -2.0];
        let b = [4.0f32, 2.0];
        assert_eq!(LInf::default().dist(&a[..], &b[..]), 4.0);
        assert!(Metric::<[f32]>::is_discrete(&LInf::discrete()));
    }

    #[test]
    fn lp_matches_l1_l2() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 6.0, 3.0];
        let l1 = L1.dist(&a[..], &b[..]);
        let l2 = L2.dist(&a[..], &b[..]);
        assert!((Lp::new(1.0).dist(&a[..], &b[..]) - l1).abs() < 1e-9);
        assert!((Lp::new(2.0).dist(&a[..], &b[..]) - l2).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn lp_rejects_sub_one() {
        let _ = Lp::new(0.5);
    }

    #[test]
    fn edit_distance_paper_example() {
        // §2.1: MRQ("defoliate", 1) = {"defoliates", "defoliated"}
        assert_eq!(EditDistance::levenshtein("defoliate", "defoliates"), 1);
        assert_eq!(EditDistance::levenshtein("defoliate", "defoliated"), 1);
        assert_eq!(EditDistance::levenshtein("defoliate", "defoliation"), 3);
        assert_eq!(EditDistance::levenshtein("defoliate", "defoliating"), 3);
        assert!(EditDistance::levenshtein("defoliate", "citrate") > 1);
    }

    #[test]
    fn edit_distance_edge_cases() {
        assert_eq!(EditDistance::levenshtein("", ""), 0);
        assert_eq!(EditDistance::levenshtein("", "abc"), 3);
        assert_eq!(EditDistance::levenshtein("abc", ""), 3);
        assert_eq!(EditDistance::levenshtein("abc", "abc"), 0);
        assert_eq!(EditDistance::levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn counting_metric_counts() {
        let m = CountingMetric::new(L2);
        let a = vec![0.0f32, 0.0];
        let b = vec![1.0f32, 1.0];
        assert_eq!(m.count(), 0);
        let _ = m.dist(&a, &b);
        let _ = m.dist(&a, &b);
        assert_eq!(m.count(), 2);
        m.reset();
        assert_eq!(m.count(), 0);
        // Clones share the counter.
        let m2 = m.clone();
        let _ = m2.dist(&a, &b);
        assert_eq!(m.count(), 1);
    }

    use crate::{datasets, PivotMatrix};
    use proptest::prelude::*;

    /// A coordinate: signed zeros, subnormals, ±255, integers, plain
    /// values, and full mantissas over 80 binades — sums of those round,
    /// so a kernel that reassociated one would show.
    fn coord() -> impl Strategy<Value = f32> {
        prop_oneof![
            1 => (0usize..4).prop_map(|i| [0.0, -0.0, 255.0, -255.0][i]),
            1 => (1u32..0x0080_0000, any::<bool>())
                .prop_map(|(bits, neg)| if neg { -f32::from_bits(bits) } else { f32::from_bits(bits) }),
            2 => (-300i32..300).prop_map(|i| i as f32),
            2 => -255.0f32..255.0,
            2 => (any::<u32>(), -40i32..40)
                .prop_map(|(m, e)| f32::from_bits(m & 0x807f_ffff | 0x3f80_0000) * 2f32.powi(e)),
        ]
    }

    fn assert_dist4<M: Metric<[f32]>>(m: &M, a: &[f32], b: [&[f32]; 4]) {
        let want = b.map(|b| m.dist(a, b).to_bits());
        assert_eq!(m.dist4(a, b).map(f64::to_bits), want, "{}", m.name());
        for b in b {
            assert_eq!(
                m.dist(a, b).to_bits(),
                m.dist(b, a).to_bits(),
                "{}",
                m.name()
            );
        }
    }

    const MAX_LEN: usize = 300;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `dist4` is four `dist` calls bit for bit, every shipped metric is
        /// bitwise symmetric, and the counting wrappers charge one per
        /// distance.
        #[test]
        fn dist4_is_dist_four_times(
            vals in prop::collection::vec(coord(), 5 * MAX_LEN),
            len in (0usize..=MAX_LEN, 0usize..4).prop_map(|(n, pick)| [2, 282, n, n][pick]),
            words in prop::collection::vec("[a-c]{0,9}", 2),
            (n, threads) in (1usize..40, 1usize..4),
        ) {
            let a = &vals[..len];
            let b: [&[f32]; 4] = std::array::from_fn(|j| &vals[(j + 1) * MAX_LEN..][..len]);
            assert_dist4(&L1, a, b);
            assert_dist4(&L2, a, b);
            assert_dist4(&LInf::default(), a, b);
            for p in [1.0, 1.5, 2.0, 3.0] {
                assert_dist4(&Lp::new(p), a, b);
            }
            let owned = b.map(<[f32]>::to_vec);
            let via_vec = Metric::<Vec<f32>>::dist4(&L1, &a.to_vec(), owned.each_ref());
            prop_assert_eq!(via_vec.map(f64::to_bits), L1.dist4(a, b).map(f64::to_bits));

            let (s, t) = (words[0].as_str(), words[1].as_str());
            prop_assert_eq!(EditDistance.dist(s, t).to_bits(), EditDistance.dist(t, s).to_bits());

            let counted = CountingMetric::new(L2);
            let by_ref = &counted;
            prop_assert_eq!(by_ref.dist4(a, b).map(f64::to_bits), L2.dist4(a, b).map(f64::to_bits));
            prop_assert_eq!(counted.count(), 4);

            // The pivot map charges exactly `n · l`, through groups of four
            // and the remainder alike, with every entry `dist`'s bits.
            let pts = datasets::la(n, len as u64);
            for l in [1, 3, 4, 5, 8] {
                let pivots: Vec<Vec<f32>> = (0..l).map(|j| pts[(j * 7) % n].clone()).collect();
                let counted = CountingMetric::new(L2);
                let m = PivotMatrix::compute(&pts, &counted, &pivots, threads);
                prop_assert_eq!(counted.count(), (n * l) as u64);
                for (i, o) in pts.iter().enumerate() {
                    for (x, p) in m.row(i).iter().zip(&pivots) {
                        prop_assert_eq!(x.to_bits(), L2.dist(o, p).to_bits());
                    }
                }
            }
        }
    }
}
