//! Distance functions and the instrumented [`CountingMetric`] wrapper.
//!
//! A metric space `(M, d)` requires `d` to satisfy symmetry, non-negativity,
//! identity and the triangle inequality (paper §2.1). The implementations
//! here are property-tested against those axioms.
//!
//! A [`Metric<O>`] measures **views**: `O`'s `Deref` target (`[f32]` for a
//! `Vec<f32>`, `str` for a `String`), which is what an
//! [`ObjTable`](crate::ObjTable) stores its objects as and hands out. Owned
//! objects coerce: `m.dist(&a, &b)` over two `&Vec<f32>` is the same call
//! as over two `&[f32]`, so a caller that holds only `M: Metric<Vec<f32>>`
//! measures stored objects without making owned ones.

use crate::object::Object;
use crate::simd::{self, Lane, SimdTier};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A distance function over objects of type `O`, taking their views.
///
/// Implementations must satisfy the four metric axioms; all pivot filtering
/// in this workspace (Lemmas 1–4) is only correct under the triangle
/// inequality.
pub trait Metric<O: Object>: Send + Sync {
    /// Distance between `a` and `b`. Must be symmetric and non-negative.
    fn dist(&self, a: &O::Target, b: &O::Target) -> f64;

    /// `[d(a, b[0]), …, d(a, b[3])]`, each bit-identical to its
    /// [`dist`](Self::dist) call. An override may interleave the four
    /// distances (independent accumulator chains keep a serial add chain's
    /// latency from bounding its throughput) but never reassociate inside
    /// one. Callers reach it through [`dists_from`]. L1, L2, L∞ and Lp on
    /// vectors run four scalar chains in lockstep, which LLVM packs into
    /// SSE2 registers on every tier.
    fn dist4(&self, a: &O::Target, b: [&O::Target; 4]) -> [f64; 4] {
        b.map(|b| self.dist(a, b))
    }

    /// `[d(a, b[0]), …, d(a, b[7])]`, each bit-identical to its
    /// [`dist`](Self::dist) call, under the same rule as
    /// [`dist4`](Self::dist4); by default two `dist4` calls. L1, L2 and L∞
    /// on vectors run one AVX2 register kernel for it
    /// (`simd::x86::fold8_avx2`) when [`simd::tier`] is
    /// [`SimdTier::Avx2`] and all nine lengths are equal and at least 8.
    /// Callers reach it through [`dists_from`].
    fn dist8(&self, a: &O::Target, b: [&O::Target; 8]) -> [f64; 8] {
        dist4_twice(self, a, b)
    }

    /// Whether [`dist8`](Self::dist8) against `a` runs a kernel wider than
    /// two `dist4` calls; by default not. [`dists_from`] pairs its groups
    /// of four into `dist8` calls only then: grouping by eight costs cheap
    /// distances (2-d L2) more than two `dist4` calls save. L1, L2 and L∞
    /// on vectors are wide when `dist8` would run the register kernel.
    fn wide(&self, _a: &O::Target) -> bool {
        false
    }

    /// Whether the distance domain is discrete (integer-valued). BKT and FQT
    /// are only defined for discrete metrics (paper §4.1–4.2).
    fn is_discrete(&self) -> bool {
        false
    }

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;
}

impl<O: Object, M: Metric<O> + ?Sized> Metric<O> for &M {
    fn dist(&self, a: &O::Target, b: &O::Target) -> f64 {
        (**self).dist(a, b)
    }
    fn dist4(&self, a: &O::Target, b: [&O::Target; 4]) -> [f64; 4] {
        (**self).dist4(a, b)
    }
    fn dist8(&self, a: &O::Target, b: [&O::Target; 8]) -> [f64; 8] {
        (**self).dist8(a, b)
    }
    fn wide(&self, a: &O::Target) -> bool {
        (**self).wide(a)
    }
    fn is_discrete(&self) -> bool {
        (**self).is_discrete()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// `d(a, b)` for every `(tag, b)` of `items`, handed to `sink(tag, d)` in
/// item order: four distances per [`Metric::dist4`] call — two groups of
/// four per [`Metric::dist8`] call when the metric is
/// [`wide`](Metric::wide) for `a` — and one [`Metric::dist`] each for a
/// last group of one to three. This is the one "fixed object against many"
/// loop — HF and HFI pivot selection, PSA, the pivot map of a build, an
/// insert and a query, and range verification all run through it — so
/// every one of them gets the widest kernel, and a [`CountingMetric`]
/// still counts one per distance. `items` are drawn in groups of four
/// before any of the group is computed, and a `dist8`'s second group
/// before its first.
pub fn dists_from<O, M, T, B>(
    metric: &M,
    a: &O::Target,
    items: impl IntoIterator<Item = (T, B)>,
    mut sink: impl FnMut(T, f64),
) where
    O: Object,
    M: Metric<O> + ?Sized,
    B: Borrow<O::Target>,
{
    let wide = metric.wide(a);
    let mut items = items.into_iter().fuse();
    let mut four = || match std::array::from_fn(|_| items.next()) {
        [Some(i0), Some(i1), Some(i2), Some(i3)] => Ok([i0, i1, i2, i3]),
        rest => Err(rest),
    };
    let rest = loop {
        let first = match four() {
            Ok(first) => first,
            Err(rest) => break rest,
        };
        if !wide {
            sink4(metric, a, first, &mut sink);
            continue;
        }
        let [(t4, b4), (t5, b5), (t6, b6), (t7, b7)] = match four() {
            Ok(second) => second,
            Err(rest) => {
                sink4(metric, a, first, &mut sink);
                break rest;
            }
        };
        let [(t0, b0), (t1, b1), (t2, b2), (t3, b3)] = first;
        let b = [&b0, &b1, &b2, &b3, &b4, &b5, &b6, &b7].map(|b| b.borrow());
        let d = metric.dist8(a, b);
        for (t, d) in [t0, t1, t2, t3, t4, t5, t6, t7].into_iter().zip(d) {
            sink(t, d);
        }
    };
    for (t, b) in rest.into_iter().flatten() {
        sink(t, metric.dist(a, b.borrow()));
    }
}

/// `(i, view)` for every object of `objects`: the items [`dists_from`]
/// takes, over owned objects (pivots, samples).
pub fn views<O: Object>(objects: &[O]) -> impl Iterator<Item = (usize, &O::Target)> {
    objects.iter().map(|o| &**o).enumerate()
}

/// [`dists_from`]'s group of four: one [`Metric::dist4`] call.
#[inline(always)]
fn sink4<O, M, T, B>(metric: &M, a: &O::Target, group: [(T, B); 4], sink: &mut impl FnMut(T, f64))
where
    O: Object,
    M: Metric<O> + ?Sized,
    B: Borrow<O::Target>,
{
    let [(t0, b0), (t1, b1), (t2, b2), (t3, b3)] = group;
    let d = metric.dist4(a, [b0.borrow(), b1.borrow(), b2.borrow(), b3.borrow()]);
    for (t, d) in [t0, t1, t2, t3].into_iter().zip(d) {
        sink(t, d);
    }
}

/// `[dist4(a, b[0..4]), dist4(a, b[4..8])]`: `dist8` without a wider kernel.
fn dist4_twice<O: Object, M: Metric<O> + ?Sized>(
    m: &M,
    a: &O::Target,
    b: [&O::Target; 8],
) -> [f64; 8] {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = b;
    let [d0, d1, d2, d3] = m.dist4(a, [b0, b1, b2, b3]);
    let [d4, d5, d6, d7] = m.dist4(a, [b4, b5, b6, b7]);
    [d0, d1, d2, d3, d4, d5, d6, d7]
}

/// A norm on vectors whose `dist8` has the AVX2 register kernel
/// ([`simd::x86::fold8_avx2`]): the lane operation of its `dist` loop.
pub(crate) trait Lanes: Metric<Vec<f32>> {
    const LANE: Lane;
}

/// Whether the register kernel runs against `a`: `a` at least 8 long, and
/// `tier()` AVX2 (not asked for shorter vectors). [`Metric::wide`] for the
/// [`Lanes`] norms.
#[inline]
fn in_registers(a: &[f32], tier: impl FnOnce() -> SimdTier) -> bool {
    a.len() >= 8 && tier() == SimdTier::Avx2
}

thread_local! {
    static DIST8_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many `dist8` calls this thread has made into L1's, L2's or L∞'s own
/// `dist8`, on any tier. A wrapper (`&M`, [`CountingMetric`], an enum over
/// the norms) that forgot to forward
/// `dist8` would return the same bits through two `dist4` calls, at half
/// the speed; this count is how a test sees the difference.
#[doc(hidden)]
pub fn dist8_calls() -> u64 {
    DIST8_CALLS.with(|c| c.get())
}

/// `dist8` as `tier` runs it: the register kernel when [`in_registers`]
/// (and the CPU has AVX2) and all nine lengths are equal, two `dist4`
/// calls otherwise. [`Metric::dist8`] passes [`simd::tier`]; the tier
/// proptest pins each available tier here.
pub(crate) fn dist8_on<M: Lanes>(tier: SimdTier, m: &M, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
    DIST8_CALLS.with(|c| c.set(c.get() + 1));
    #[cfg(target_arch = "x86_64")]
    if in_registers(a, || tier) && b.iter().all(|b| b.len() == a.len()) && simd::has_avx2() {
        // SAFETY: AVX2 detected and every length equal to `a`'s, just above.
        let s = unsafe { simd::x86::fold8_avx2(M::LANE, a, b) };
        return if M::LANE == Lane::Square {
            s.map(f64::sqrt)
        } else {
            s
        };
    }
    dist4_twice(m, a, b)
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

impl Metric<Vec<f32>> for L1 {
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
    fn dist8(&self, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
        dist8_on(simd::tier(), self, a, b)
    }
    #[inline]
    fn wide(&self, a: &[f32]) -> bool {
        in_registers(a, simd::tier)
    }
    fn name(&self) -> &'static str {
        "L1"
    }
}

impl Lanes for L1 {
    const LANE: Lane = Lane::Abs;
}

/// L2 norm (Euclidean distance) — used by the LA dataset.
#[derive(Clone, Copy, Debug, Default)]
pub struct L2;

impl Metric<Vec<f32>> for L2 {
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
    fn dist8(&self, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
        dist8_on(simd::tier(), self, a, b)
    }
    #[inline]
    fn wide(&self, a: &[f32]) -> bool {
        in_registers(a, simd::tier)
    }
    fn name(&self) -> &'static str {
        "L2"
    }
}

impl Lanes for L2 {
    const LANE: Lane = Lane::Square;
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

impl Metric<Vec<f32>> for LInf {
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
    fn dist8(&self, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
        dist8_on(simd::tier(), self, a, b)
    }
    #[inline]
    fn wide(&self, a: &[f32]) -> bool {
        in_registers(a, simd::tier)
    }
    fn is_discrete(&self) -> bool {
        self.discrete
    }
    fn name(&self) -> &'static str {
        "Linf"
    }
}

impl Lanes for LInf {
    const LANE: Lane = Lane::Max;
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

impl Metric<Vec<f32>> for Lp {
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

impl Metric<String> for EditDistance {
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

impl<O: Object, M: Metric<O>> Metric<O> for CountingMetric<M> {
    #[inline]
    fn dist(&self, a: &O::Target, b: &O::Target) -> f64 {
        self.counter.bump(1);
        self.inner.dist(a, b)
    }
    #[inline]
    fn dist4(&self, a: &O::Target, b: [&O::Target; 4]) -> [f64; 4] {
        self.counter.bump(4);
        self.inner.dist4(a, b)
    }
    #[inline]
    fn dist8(&self, a: &O::Target, b: [&O::Target; 8]) -> [f64; 8] {
        self.counter.bump(8);
        self.inner.dist8(a, b)
    }
    #[inline]
    fn wide(&self, a: &O::Target) -> bool {
        self.inner.wide(a)
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
        assert!(Metric::<Vec<f32>>::is_discrete(&LInf::discrete()));
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

    /// `m` with its `dist8` and `wide` on one pinned SIMD tier.
    struct Pinned<'m, M>(&'m M, SimdTier);

    impl<M: Lanes> Metric<Vec<f32>> for Pinned<'_, M> {
        fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
            self.0.dist(a, b)
        }
        fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
            self.0.dist4(a, b)
        }
        fn dist8(&self, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
            dist8_on(self.1, self.0, a, b)
        }
        fn wide(&self, a: &[f32]) -> bool {
            in_registers(a, || self.1)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// The same bits, or both NaN: which NaN a sum of NaNs yields is not
    /// part of the contract.
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan()
    }

    /// `dist4` over `b[..4]`, `dist8` over `b[..8]` and `dists_from` over
    /// every prefix of `b` return `dist`'s result item for item;
    /// `dists_from` charges one per item, sinks the items in order, and
    /// makes one `dist8` call per eight items exactly when `m` is wide.
    fn assert_matches_dist<M: Metric<Vec<f32>>>(m: &M, a: &[f32], b: &[&[f32]]) {
        let want: Vec<f64> = b.iter().map(|b| m.dist(a, b)).collect();
        let check = |how: &str, got: &[f64]| {
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(same(g, w), "{} {how} item {i}: {g:?} != {w:?}", m.name());
            }
        };
        check("dist4", &m.dist4(a, std::array::from_fn(|j| b[j])));
        check("dist8", &m.dist8(a, std::array::from_fn(|j| b[j])));
        for k in 0..=b.len() {
            let counted = CountingMetric::new(m);
            let mut got = Vec::new();
            let before = dist8_calls();
            dists_from(&counted, a, b[..k].iter().copied().enumerate(), |t, d| {
                got.push((t, d))
            });
            let pairs = if m.wide(a) { k / 8 } else { 0 };
            assert_eq!(dist8_calls() - before, pairs as u64, "{} pairs", m.name());
            assert_eq!(counted.count(), k as u64, "{} charges {k} items", m.name());
            assert!(
                got.iter().map(|g| g.0).eq(0..k),
                "{} in item order",
                m.name()
            );
            check("dists_from", &got.iter().map(|g| g.1).collect::<Vec<_>>());
        }
    }

    const MAX_LEN: usize = 300;
    /// The most items one `dists_from` case takes: two groups of eight and
    /// a last three.
    const ITEMS: usize = 19;
    /// Room per vector for its offset and a length mismatch.
    const STRIDE: usize = MAX_LEN + 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On every SIMD tier this CPU has, L1 / L2 / L∞ / Lp `dist4`,
        /// `dist8` and `dists_from` over 0–19 items are `dist` bit for bit:
        /// lengths on both sides of the kernel's 8-wide step and the
        /// Color width, slices at odd float offsets, ±inf and NaN
        /// coordinates, and (without debug assertions, which reject it in
        /// `dist`) one item of another length, where every path takes
        /// `dist`'s zip truncation. Every shipped metric is bitwise
        /// symmetric, the counting wrappers charge one per distance, and
        /// the pivot map charges exactly `n · l`.
        #[test]
        fn dist_kernels_equal_dist_on_every_tier(
            vals in prop::collection::vec(coord(), (ITEMS + 1) * STRIDE),
            len in prop_oneof![
                1 => (0usize..10).prop_map(|i| [0, 1, 2, 7, 8, 9, 15, 16, 17, 282][i]),
                1 => 0usize..=MAX_LEN,
            ],
            offsets in prop::collection::vec(0usize..4, ITEMS + 1),
            specials in prop::collection::vec((any::<usize>(), 0usize..3), 0..4),
            (odd, delta) in (0usize..ITEMS, 0usize..4),
            words in prop::collection::vec("[a-c]{0,9}", 2),
            (n, threads) in (1usize..40, 1usize..4),
        ) {
            let start = |j: usize| j * STRIDE + offsets[j];
            let mut vals = vals;
            for (pos, k) in specials {
                if len > 0 {
                    let j = pos % (ITEMS + 1);
                    vals[start(j) + pos / (ITEMS + 1) % len] =
                        [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][k];
                }
            }
            let a = &vals[start(0)..][..len];
            let mut b: Vec<&[f32]> = (1..=ITEMS).map(|j| &vals[start(j)..][..len]).collect();
            let run = |b: &[&[f32]]| {
                for tier in simd::available_tiers() {
                    assert_matches_dist(&Pinned(&L1, tier), a, b);
                    assert_matches_dist(&Pinned(&L2, tier), a, b);
                    assert_matches_dist(&Pinned(&LInf::default(), tier), a, b);
                }
                for p in [1.0, 1.5, 2.0, 3.0] {
                    assert_matches_dist(&Lp::new(p), a, b);
                }
            };
            run(&b);
            if !cfg!(debug_assertions) {
                let other = [len + 1, len + 2, len.saturating_sub(1), len.saturating_sub(2)][delta];
                b[odd] = &vals[start(odd + 1)..][..other];
                run(&b);
                b[odd] = &vals[start(odd + 1)..][..len];
            }

            for m in [&L1 as &dyn Metric<Vec<f32>>, &L2, &LInf::default(), &Lp::new(1.5)] {
                for b in &b {
                    prop_assert!(same(m.dist(a, b), m.dist(b, a)), "{}", m.name());
                }
            }
            let (s, t) = (words[0].as_str(), words[1].as_str());
            prop_assert_eq!(EditDistance.dist(s, t).to_bits(), EditDistance.dist(t, s).to_bits());

            let b8: [&[f32]; 8] = std::array::from_fn(|j| b[j]);
            let counted = CountingMetric::new(L2);
            let by_ref = &counted;
            let _ = by_ref.dist4(a, std::array::from_fn(|j| b[j]));
            let _ = by_ref.dist8(a, b8);
            prop_assert_eq!(counted.count(), 12);

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

    /// Records the `Metric` methods called on it.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<&'static str>>);

    impl Recorder {
        fn saw(&self, call: &'static str) {
            self.0.lock().unwrap().push(call);
        }
        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    impl Metric<Vec<f32>> for Recorder {
        fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
            self.saw("dist");
            L1.dist(a, b)
        }
        fn dist4(&self, a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
            self.saw("dist4");
            L1.dist4(a, b)
        }
        fn dist8(&self, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
            self.saw("dist8");
            L1.dist8(a, b)
        }
        fn wide(&self, _a: &[f32]) -> bool {
            self.saw("wide");
            true
        }
        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    /// `&M` and `CountingMetric` forward `dist8` and `wide` (a wrapper
    /// that did not would keep the bits and lose the register kernel), and
    /// the shipped norms reach their own `dist8` through `dyn Metric`.
    #[test]
    fn wrappers_forward_dist8_and_wide() {
        let vs: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32 * 0.5; 9]).collect();
        let (a, b) = (
            vs[0].as_slice(),
            std::array::from_fn(|j| vs[j + 1].as_slice()),
        );

        let rec = Recorder::default();
        let _ = <&Recorder as Metric<Vec<f32>>>::dist8(&&rec, a, b);
        let _ = <&Recorder as Metric<Vec<f32>>>::wide(&&rec, a);
        assert_eq!(rec.take(), ["dist8", "wide"], "&M");
        let counted = CountingMetric::new(Recorder::default());
        let _ = counted.dist8(a, b);
        let _ = counted.wide(a);
        assert_eq!(counted.inner().take(), ["dist8", "wide"], "CountingMetric");
        assert_eq!(counted.count(), 8);

        let norms: [&dyn Metric<Vec<f32>>; 3] = [&L1, &L2, &LInf::default()];
        for m in norms {
            let before = dist8_calls();
            let d = m.dist8(a, b);
            assert_eq!(dist8_calls(), before + 1, "{}", m.name());
            assert_eq!(d.map(f64::to_bits), b.map(|b| m.dist(a, b).to_bits()));
            assert_eq!(m.wide(a), simd::tier() == SimdTier::Avx2, "{}", m.name());
        }
    }
}
