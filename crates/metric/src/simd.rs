//! Explicit-SIMD tiers, with one-time runtime dispatch, for three kernels:
//! the stored-code Lemma 1 scan
//! ([`PivotColumns::gaps_into`](crate::PivotColumns::gaps_into)), eight
//! distances per register pass ([`Metric::dist8`](crate::Metric::dist8)
//! for L1, L2 and L∞ on `[f32]`), and the balanced partitioner's row
//! against eight centroids per block ([`CentroidLanes`]). This file is the
//! one place that holds intrinsics and asks the CPU for its features
//! (CI's "One place holds intrinsics" step): every other crate reaches
//! them through a safe function here.
//!
//! The filter over the u16 code columns every index stores is
//! memory-bound: ten bytes in per row at five pivots, and two out — the
//! row's gap `(max_j |qf_j − c_j| − 1)⁺`, whose bound is `gap · step`
//! ([`ScanKernel`](crate::ScanKernel), "The gap"). Hand-written lanes let
//! AVX2 process **sixteen** rows per step and store their gaps straight
//! from the register. Three tiers exist:
//!
//! * [`SimdTier::Avx2`] — 256-bit lanes (16 u16 rows per step), picked
//!   when the CPU reports AVX2 at first use. `dist8` runs its register
//!   kernel: eight distances in the f64 lanes of two ymm registers; so do
//!   [`CentroidLanes::nearest_each`] and [`CentroidLanes::next_each`],
//!   which also pick each row's key there.
//! * [`SimdTier::Sse2`] — 128-bit lanes (8 u16 rows per step), the x86-64
//!   baseline. `dist8` is two `dist4` calls (LLVM's packing of four
//!   scalar lanes).
//! * [`SimdTier::Portable`] — the blocked scalar code in `matrix.rs`
//!   (LLVM-auto-vectorized), the only tier on non-x86-64 targets; `dist8`
//!   as under SSE2.
//!
//! **Every tier produces bit-identical results.** The scan kernel is
//! integer arithmetic — an absolute difference, a max and a saturating
//! decrement of u16s, exact in any order. A `dist8` lane runs `dist`'s
//! operations in `dist`'s order, so each lane is `dist`'s result bit for
//! bit (`x86::fold8_avx2` says why); a centroid lane likewise
//! ([`CentroidLanes`] says why, and why its keys compare as integers).
//! `PivotColumns` and `dist8` each take a pinned tier privately, and
//! `CentroidLanes` takes one per call, which is how the kernel proptests
//! hold every available tier against the portable body and against the
//! one-lane loop.
//!
//! Dispatch is decided once per process ([`tier`], a `OnceLock`) and can be
//! forced down with `PMI_SIMD=portable|scalar|sse2|avx2` — compiler flags
//! alone (`RUSTFLAGS=-C target-feature=-avx2`) cannot disable *runtime*
//! feature detection, and CI's no-AVX2 leg uses the override to prove the
//! portable fallback stays green on hardware that has AVX2. A request
//! above the CPU caps at its best tier (`avx2` without AVX2 runs `sse2`);
//! any other non-empty value panics at first use, naming the accepted ones,
//! so a typo cannot test the best tier while claiming another.

use std::sync::OnceLock;

/// A SIMD implementation tier of the stored-code scan kernel, of `dist8`
/// and of [`CentroidLanes`], ordered from the narrowest to the widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Blocked scalar code, 16 u16 rows per step, auto-vectorized by LLVM.
    /// Always available.
    Portable,
    /// 128-bit `std::arch` lanes, 8 u16 rows per step (x86-64 baseline).
    Sse2,
    /// 256-bit `std::arch` lanes, 16 u16 rows per step (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Human-readable label (`"portable"` / `"sse2"` / `"avx2"`).
    pub fn label(&self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// The tiers this CPU can run, best last. Always starts with
/// [`SimdTier::Portable`].
pub fn available_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        tiers.push(SimdTier::Sse2);
        if has_avx2() {
            tiers.push(SimdTier::Avx2);
        }
    }
    tiers
}

/// Whether the CPU runs AVX2, detected once per process: what a kernel
/// pinned to [`SimdTier::Avx2`] checks before it enters its AVX2 body, so
/// that a tier asked for on a CPU without it runs the portable body.
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Hints that the cache line holding `*at` is about to be used, without
/// waiting for it. Does nothing off x86-64.
#[inline(always)]
pub fn prefetch<T>(at: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch only warms the cache: it cannot fault, changes
    // nothing the program observes, and `at` is a live reference anyway.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((at as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

fn detect() -> SimdTier {
    let best = *available_tiers().last().expect("portable always present");
    let value = std::env::var_os("PMI_SIMD").map(|v| v.to_string_lossy().into_owned());
    requested_tier(value.as_deref(), best)
}

/// The tier `PMI_SIMD = value` runs on a CPU whose best tier is `best`:
/// unset or empty runs `best`, and a request above `best` caps at it.
///
/// # Panics
/// On any value but `portable`, `scalar`, `sse2` and `avx2`.
fn requested_tier(value: Option<&str>, best: SimdTier) -> SimdTier {
    let asked = match value {
        None | Some("") => return best,
        Some("portable" | "scalar") => SimdTier::Portable,
        Some("sse2") => SimdTier::Sse2,
        Some("avx2") => SimdTier::Avx2,
        Some(other) => {
            panic!("PMI_SIMD={other:?} names no SIMD tier; accepted: portable, scalar, sse2, avx2")
        }
    };
    asked.min(best)
}

/// The tier the kernels dispatch to, decided once per process (first use)
/// from CPU feature detection, overridable via `PMI_SIMD`.
pub fn tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// The operation a `dist8` lane folds each coordinate difference `d = x − y`
/// into its accumulator with: the step of one norm's `dist` loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    /// L1: `s + |d|`.
    Abs,
    /// L2: `s + d · d` (the root comes after the fold).
    Square,
    /// L∞: `if |d| > m { |d| } else { m }`.
    Max,
}

/// Centroids per block of [`CentroidLanes`]: two ymm registers of `f64`.
pub const CENTROID_LANES: usize = 8;

/// The balanced partitioner's distance kernel: a row's squared Euclidean
/// distances to all `p` centroids, and the centroid a row picks from them.
/// The centroids are copied centroid-major in blocks of [`CENTROID_LANES`],
/// so one loop over a row's coordinates feeds a whole block; lane `j` of
/// block `b` sums centroid `b · 8 + j`'s terms `(x − c)²` in dimension
/// order from `+0.0`, a subtraction, a multiplication and an addition each
/// (no FMA). Those are the operations of the one-vector loop
/// `m.iter().zip(c).map(|(x, c)| (x − c) · (x − c)).sum()` (whose `sum` may
/// start from `−0.0`, which a first term `≥ +0.0` absorbs like `+0.0`), so
/// a distance has that loop's bits on every tier. The lanes past `p` in
/// the last block hold zeros and never win.
///
/// A row picks by **key** `(bits, s)`: the distance's IEEE bit pattern as a
/// `u64`, then the centroid. On non-negative distances the bit order is the
/// numeric order; a NaN lane (`∞ − ∞` on x86 yields a NaN with the sign bit
/// set) ranks above every number, `+∞` included. The AVX2 bodies compare
/// those bit patterns in registers — sign bit flipped, then the signed
/// `_mm256_cmpgt_epi64` — and never `_mm256_min_pd`, whose NaN rule is
/// neither this order nor the portable body's; so every tier picks the
/// same key for every row, NaN lanes included.
#[derive(Clone, Debug)]
pub struct CentroidLanes {
    p: usize,
    dim: usize,
    /// Block `b`, coordinate `k`, at `blocks[b · dim + k]`.
    blocks: Vec<[f64; CENTROID_LANES]>,
}

/// The largest key: where the search for a row's next key starts, and what
/// it returns when no key of the row is above the one it last proposed.
pub const NO_KEY: (u64, u32) = (u64::MAX, u32::MAX);

impl CentroidLanes {
    /// Lays out `centroids`, `p` rows of `dim` coordinates back to back.
    ///
    /// # Panics
    /// If `dim` is 0 or does not divide `centroids.len()`.
    pub fn new(centroids: &[f64], dim: usize) -> Self {
        assert!(
            dim > 0 && centroids.len().is_multiple_of(dim),
            "{} values are no rows of width {dim}",
            centroids.len()
        );
        let p = centroids.len() / dim;
        let mut blocks = vec![[0.0; CENTROID_LANES]; p.div_ceil(CENTROID_LANES) * dim];
        for (s, c) in centroids.chunks_exact(dim).enumerate() {
            for (k, &x) in c.iter().enumerate() {
                blocks[s / CENTROID_LANES * dim + k][s % CENTROID_LANES] = x;
            }
        }
        CentroidLanes { p, dim, blocks }
    }

    /// The portable body, and the oracle of the others: calls
    /// `f(s, squared distance from m to centroid s)` for `s = 0..p`, in
    /// order.
    #[inline(always)]
    pub fn each(&self, m: &[f64], mut f: impl FnMut(usize, f64)) {
        for (b, block) in self.blocks.chunks_exact(self.dim).enumerate() {
            let mut acc = [0.0f64; CENTROID_LANES];
            for (lanes, &x) in block.iter().zip(m) {
                for (a, &c) in acc.iter_mut().zip(lanes) {
                    let t = x - c;
                    *a += t * t;
                }
            }
            let first = b * CENTROID_LANES;
            for (j, &d) in acc.iter().enumerate().take(self.p - first) {
                f(first + j, d);
            }
        }
    }

    /// For every row `j` of `rows` (`dim` values each), its smallest key:
    /// calls `f(j, bits, s)` in row order, where `(bits, s)` is the nearest
    /// centroid — on a tie the lowest `s`. `tier` picks the body; a caller
    /// that wants a row's distances too asks [`each`](Self::each).
    ///
    /// # Panics
    /// If `rows.len()` is not a multiple of `dim`.
    pub fn nearest_each(&self, tier: SimdTier, rows: &[f64], mut f: impl FnMut(usize, u64, u32)) {
        assert!(
            rows.len().is_multiple_of(self.dim),
            "whole rows of width {}",
            self.dim
        );
        #[cfg(target_arch = "x86_64")]
        if tier == SimdTier::Avx2 && has_avx2() {
            // SAFETY: AVX2 detected just above.
            return unsafe { x86::nearest_avx2(self, rows, f) };
        }
        let _ = tier;
        for (j, m) in rows.chunks_exact(self.dim).enumerate() {
            // Strict `<`: a tie goes to the lower centroid. Written as
            // selects so that the loop has no unpredictable branch.
            let mut first = (u64::MAX, 0u32);
            self.each(m, |s, d| {
                let bits = d.to_bits();
                let nearer = bits < first.0;
                first.0 = if nearer { bits } else { first.0 };
                first.1 = if nearer { s as u32 } else { first.1 };
            });
            f(j, first.0, first.1);
        }
    }

    /// Rewrites every proposal `(bits, s, i)` of `moves` — row `i` of
    /// `rows` last proposed key `(bits, s)` — to `(next bits, next s, i)`,
    /// its smallest key above `(bits, s)`, or [`NO_KEY`] when none is.
    /// The row `ahead` proposals on is prefetched: proposals are scattered
    /// over the matrix. `tier` picks the body.
    ///
    /// # Panics
    /// If a row `i` is past the end of `rows`.
    pub fn next_each(
        &self,
        tier: SimdTier,
        rows: &[f64],
        moves: &mut [(u64, u32, u32)],
        ahead: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if tier == SimdTier::Avx2 && has_avx2() {
            // SAFETY: AVX2 detected just above.
            return unsafe { x86::next_avx2(self, rows, moves, ahead) };
        }
        let _ = tier;
        for j in 0..moves.len() {
            if let Some(&(_, _, later)) = moves.get(j + ahead) {
                let row = &rows[later as usize * self.dim..][..self.dim];
                prefetch(&row[0]);
                prefetch(&row[self.dim - 1]);
            }
            let (bits, s, i) = moves[j];
            let tried = (bits, s);
            let mut next = NO_KEY;
            self.each(&rows[i as usize * self.dim..][..self.dim], |s, d| {
                let key = (d.to_bits(), s as u32);
                if key > tried && key < next {
                    next = key;
                }
            });
            moves[j] = (next.0, next.1, i);
        }
    }
}

/// The x86-64 lane implementations. The scan kernels require the slice
/// preconditions `ScanKernel::fill_gaps` checks (one column per pivot,
/// each at least `out.len()` long), `fold8_avx2` nine equal lengths, and
/// the AVX2 ones a CPU with AVX2 — which the dispatcher guarantees.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{CentroidLanes, Lane, CENTROID_LANES};
    use crate::matrix::ScanKernel;
    use core::arch::x86_64::*;

    /// 16 rows of u16 codes per step over **planar** (column-major)
    /// storage: `cols[j][i]` is the code of local row `i` against pivot
    /// `j`, so every inner step is one contiguous `loadu` per column — no
    /// per-lane gather. `|c − q|` of unsigned lanes is the OR of the two
    /// saturating differences (one of them is zero); the row maxes lose
    /// their one step of bucket overlap in-register (`subs 1`) and are
    /// stored as they are: sixteen gaps, one store.
    ///
    /// # Safety
    /// Caller verified AVX2; every `cols[j].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gaps_avx2(qf: &[u16], cols: &[&[u16]], out: &mut [u16]) {
        let n = out.len();
        debug_assert_eq!(cols.len(), qf.len());
        let one = _mm256_set1_epi16(1);
        let mut i = 0;
        while i + 16 <= n {
            let mut m = _mm256_setzero_si256();
            for (col, &q) in cols.iter().zip(qf) {
                let c = _mm256_loadu_si256(col.as_ptr().add(i).cast());
                let q = _mm256_set1_epi16(q as i16);
                let d = _mm256_or_si256(_mm256_subs_epu16(c, q), _mm256_subs_epu16(q, c));
                m = _mm256_max_epu16(m, d);
            }
            let g = _mm256_subs_epu16(m, one);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), g);
            i += 16;
        }
        for (r, o) in out.iter_mut().enumerate().skip(i) {
            *o = ScanKernel::row_gap(qf, cols, r);
        }
    }

    /// 8 rows of u16 codes per step (SSE2 baseline) over planar storage;
    /// see [`gaps_avx2`] for the layout. SSE2 has no unsigned 16-bit max:
    /// `max(a, b) = adds(subs(a, b), b)`.
    ///
    /// # Safety
    /// Every `cols[j].len() >= out.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn gaps_sse2(qf: &[u16], cols: &[&[u16]], out: &mut [u16]) {
        let n = out.len();
        debug_assert_eq!(cols.len(), qf.len());
        let one = _mm_set1_epi16(1);
        let mut i = 0;
        while i + 8 <= n {
            let mut m = _mm_setzero_si128();
            for (col, &q) in cols.iter().zip(qf) {
                let c = _mm_loadu_si128(col.as_ptr().add(i).cast());
                let q = _mm_set1_epi16(q as i16);
                let d = _mm_or_si128(_mm_subs_epu16(c, q), _mm_subs_epu16(q, c));
                m = _mm_adds_epu16(_mm_subs_epu16(m, d), d);
            }
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm_subs_epu16(m, one));
            i += 8;
        }
        for (r, o) in out.iter_mut().enumerate().skip(i) {
            *o = ScanKernel::row_gap(qf, cols, r);
        }
    }

    /// `dist`'s fold for eight vectors at once: lane `j` of two ymm
    /// accumulators (`b[0..4]` low, `b[4..8]` high) runs
    /// `acc = lane(acc, a[i] as f64 − b[j][i] as f64)` for `i` ascending
    /// from `0.0` — the operations a one-vector loop runs, in its order, so
    /// each lane is that loop's result bit for bit. Eight dimensions per
    /// step: one load of eight `f32` per vector, two in-lane 4×4 transposes
    /// (one dimension of four vectors per 128-bit half), `cvtps_pd` per
    /// half; `a` is widened once per step into a stack buffer and broadcast
    /// from it. `|d|` clears the sign bit as `f64::abs` does; L∞'s
    /// `max_pd(|d|, m)` returns `m` unless `|d| > m`, as `dist`'s compare
    /// does; there is no FMA (AVX2 only). The last `len % 8` dimensions
    /// take the same lane operations one dimension at a time.
    ///
    /// # Safety
    /// Caller verified AVX2; `b[j].len() == a.len()` for every `j`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold8_avx2(lane: Lane, a: &[f32], b: [&[f32]; 8]) -> [f64; 8] {
        let sign = _mm256_set1_pd(-0.0);
        match lane {
            Lane::Abs => fold8(a, b, |s, d| _mm256_add_pd(s, _mm256_andnot_pd(sign, d))),
            Lane::Square => fold8(a, b, |s, d| _mm256_add_pd(s, _mm256_mul_pd(d, d))),
            Lane::Max => fold8(a, b, |m, d| _mm256_max_pd(_mm256_andnot_pd(sign, d), m)),
        }
    }

    /// The body of [`fold8_avx2`], one instance per lane operation.
    ///
    /// # Safety
    /// As [`fold8_avx2`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fold8(
        a: &[f32],
        b: [&[f32]; 8],
        lane: impl Fn(__m256d, __m256d) -> __m256d,
    ) -> [f64; 8] {
        let n = a.len();
        debug_assert!(b.iter().all(|b| b.len() == n));
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let mut x = [0.0f64; 8];
        let mut i = 0;
        // Each step loads `[i, i + 8)` of `a` and of every `b[j]`, all `n`
        // long (the caller's precondition), and `i + 8 <= n`.
        while i + 8 <= n {
            let p = a.as_ptr().add(i);
            _mm256_storeu_pd(x.as_mut_ptr(), _mm256_cvtps_pd(_mm_loadu_ps(p)));
            _mm256_storeu_pd(
                x.as_mut_ptr().add(4),
                _mm256_cvtps_pd(_mm_loadu_ps(p.add(4))),
            );
            let r: [__m256; 8] = std::array::from_fn(|j| _mm256_loadu_ps(b[j].as_ptr().add(i)));
            let (l, h) = (transpose4(&r[..4]), transpose4(&r[4..]));
            // `l[k]`'s low half holds dimension `i + k` of `b[0..4]`, its
            // high half dimension `i + 4 + k`; `h` likewise for `b[4..8]`.
            for k in 0..8 {
                let (l, h) = if k < 4 {
                    (_mm256_castps256_ps128(l[k]), _mm256_castps256_ps128(h[k]))
                } else {
                    (
                        _mm256_extractf128_ps(l[k - 4], 1),
                        _mm256_extractf128_ps(h[k - 4], 1),
                    )
                };
                let xk = _mm256_broadcast_sd(&x[k]);
                lo = lane(lo, _mm256_sub_pd(xk, _mm256_cvtps_pd(l)));
                hi = lane(hi, _mm256_sub_pd(xk, _mm256_cvtps_pd(h)));
            }
            i += 8;
        }
        for i in i..n {
            let xi = _mm256_set1_pd(a[i] as f64);
            let y = |j: usize| {
                let [b0, b1, b2, b3] = [j, j + 1, j + 2, j + 3].map(|j| b[j][i] as f64);
                _mm256_setr_pd(b0, b1, b2, b3)
            };
            lo = lane(lo, _mm256_sub_pd(xi, y(0)));
            hi = lane(hi, _mm256_sub_pd(xi, y(4)));
        }
        let mut out = [0.0f64; 8];
        _mm256_storeu_pd(out.as_mut_ptr(), lo);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), hi);
        out
    }

    /// [`CentroidLanes::nearest_each`]'s loop, two rows at a time (see
    /// [`pick`]).
    ///
    /// # Safety
    /// Caller verified AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nearest_avx2(
        lanes: &CentroidLanes,
        rows: &[f64],
        mut f: impl FnMut(usize, u64, u32),
    ) {
        let dim = lanes.dim;
        let all = |_: usize, _, _: &Ids| None;
        let mut pairs = rows.chunks_exact(2 * dim);
        let mut j = 0;
        for pair in &mut pairs {
            let (ma, mb) = pair.split_at(dim);
            let [(ka, sa), (kb, sb)] = pick(lanes, [ma, mb], all);
            f(j, ka, sa);
            f(j + 1, kb, sb);
            j += 2;
        }
        if !pairs.remainder().is_empty() {
            let [(k, s)] = pick(lanes, [pairs.remainder()], all);
            f(j, k, s);
        }
    }

    /// [`CentroidLanes::next_each`]'s loop, two proposals at a time, with
    /// every lane at or below the key a row tried masked out.
    ///
    /// # Safety
    /// Caller verified AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn next_avx2(
        lanes: &CentroidLanes,
        rows: &[f64],
        moves: &mut [(u64, u32, u32)],
        ahead: usize,
    ) {
        let dim = lanes.dim;
        let row = |i: u32| &rows[i as usize * dim..][..dim];
        let warm = |moves: &[(u64, u32, u32)], j: usize| {
            if let Some(&(_, _, later)) = moves.get(j + ahead) {
                let later = row(later);
                super::prefetch(&later[0]);
                super::prefetch(&later[dim - 1]);
            }
        };
        let mut j = 0;
        while j < moves.len() {
            warm(moves, j);
            if j + 1 < moves.len() {
                warm(moves, j + 1);
                let ((ba, sa, ia), (bb, sb, ib)) = (moves[j], moves[j + 1]);
                let tried = [Tried::of(ba, sa), Tried::of(bb, sb)];
                let keep = |r: usize, keys, ids: &Ids| Some(tried[r].above(keys, ids));
                let [(ka, na), (kb, nb)] = pick(lanes, [row(ia), row(ib)], keep);
                moves[j] = (ka, na, ia);
                moves[j + 1] = (kb, nb, ib);
                j += 2;
            } else {
                let (bits, s, i) = moves[j];
                let tried = Tried::of(bits, s);
                let keep = |_: usize, keys, ids: &Ids| Some(tried.above(keys, ids));
                let [(k, n)] = pick(lanes, [row(i)], keep);
                moves[j] = (k, n, i);
                j += 1;
            }
        }
    }

    /// The sign bit of an `f64`, and of an `i64`.
    const SIGN: u64 = 1 << 63;

    /// The key a row last proposed, broadcast.
    #[derive(Clone, Copy)]
    struct Tried {
        key: __m256i,
        id: __m256i,
    }

    impl Tried {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn of(bits: u64, s: u32) -> Tried {
            Tried {
                key: _mm256_set1_epi64x((bits ^ SIGN) as i64),
                id: _mm256_set1_epi64x(i64::from(s)),
            }
        }

        /// The lanes of a block's two halves of flipped keys whose
        /// `(key, id)` is above it: a larger key, or the same key and a
        /// larger id.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn above(&self, (lo, hi): (__m256i, __m256i), ids: &Ids) -> (__m256i, __m256i) {
            let half = |key: __m256i, id: __m256i| {
                let tie = _mm256_and_si256(
                    _mm256_cmpeq_epi64(key, self.key),
                    _mm256_cmpgt_epi64(id, self.id),
                );
                _mm256_or_si256(_mm256_cmpgt_epi64(key, self.key), tie)
            };
            (half(lo, ids.lo), half(hi, ids.hi))
        }
    }

    /// The smallest key of each of `N` rows among the centroids of the
    /// lanes `keep(r, keys, ids)` sets (`keys` the block's two halves,
    /// sign-flipped, see [`flip`]; `None` keeps every lane), or
    /// [`NO_KEY`](super::NO_KEY). Block by block, the rows' distances stay
    /// in registers ([`sq_dists`]) and so does each block's smallest kept
    /// key ([`block_min`]); the blocks' keys then compare as `(u64, u32)`
    /// pairs, in ascending centroid order. A row's distances are one chain
    /// of dependent additions; two rows side by side keep both chains in
    /// flight.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pick<const N: usize>(
        lanes: &CentroidLanes,
        m: [&[f64]; N],
        keep: impl Fn(usize, (__m256i, __m256i), &Ids) -> Option<(__m256i, __m256i)>,
    ) -> [(u64, u32); N] {
        let mut best = [super::NO_KEY; N];
        for (b, block) in lanes.blocks.chunks_exact(lanes.dim).enumerate() {
            let dists = sq_dists(block, m);
            let ids = Ids::of(b, lanes.p);
            for (r, ((lo, hi), best)) in dists.into_iter().zip(&mut best).enumerate() {
                let (lo, hi) = (flip(lo), flip(hi));
                // Padding lanes are never kept; a full block needs no mask.
                let kept = match (keep(r, (lo, hi), &ids), ids.full) {
                    (kept, true) => kept,
                    (None, false) => Some((ids.valid_lo, ids.valid_hi)),
                    (Some((kl, kh)), false) => Some((
                        _mm256_and_si256(ids.valid_lo, kl),
                        _mm256_and_si256(ids.valid_hi, kh),
                    )),
                };
                if let Some((bits, lane)) = block_min(lo, hi, kept) {
                    let key = (bits, (b * CENTROID_LANES) as u32 + lane);
                    if key < *best {
                        *best = key;
                    }
                }
            }
        }
        best
    }

    /// The smallest kept key of one block (every lane when `kept` is
    /// `None`), unflipped, and the lowest lane holding it; `None` if no
    /// lane is kept. The minimum is a compare of the flipped bit patterns
    /// as signed 64-bit lanes and a blend, three times (the two halves,
    /// then pairs, then neighbours); the lane is the lowest set bit of the
    /// kept lanes equal to it.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn block_min(lo: __m256i, hi: __m256i, kept: Option<(__m256i, __m256i)>) -> Option<(u64, u32)> {
        let none = _mm256_set1_epi64x(i64::MAX);
        let (lo, hi) = match kept {
            Some((kl, kh)) => (
                _mm256_blendv_epi8(none, lo, kl),
                _mm256_blendv_epi8(none, hi, kh),
            ),
            None => (lo, hi),
        };
        let min = |a: __m256i, b: __m256i| _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
        let mut m = min(lo, hi);
        m = min(m, _mm256_permute4x64_epi64::<0x4E>(m));
        m = min(m, _mm256_shuffle_epi32::<0x4E>(m));
        let at = |half: __m256i, kept: Option<__m256i>| {
            let at = _mm256_cmpeq_epi64(half, m);
            let at = kept.map_or(at, |kept| _mm256_and_si256(at, kept));
            _mm256_movemask_pd(_mm256_castsi256_pd(at)) as u32
        };
        let lanes = at(lo, kept.map(|k| k.0)) | at(hi, kept.map(|k| k.1)) << 4;
        let bits = _mm256_extract_epi64::<0>(m) as u64 ^ SIGN;
        (lanes != 0).then(|| (bits, lanes.trailing_zeros()))
    }

    /// The squared distances from each row of `m` to the eight centroids
    /// of `block` (`block[k]` their coordinate `k`): lanes 0–3 and 4–7,
    /// each summed in dimension order from `+0.0` by a subtraction, a
    /// multiplication and an addition per coordinate —
    /// [`CentroidLanes::each`]'s operations, never fused.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sq_dists<const N: usize>(
        block: &[[f64; CENTROID_LANES]],
        m: [&[f64]; N],
    ) -> [(__m256d, __m256d); N] {
        let mut acc = [(_mm256_setzero_pd(), _mm256_setzero_pd()); N];
        for (k, c) in block.iter().enumerate() {
            // SAFETY: `c` is eight `f64`, read as two halves of four.
            let (clo, chi) = unsafe {
                (
                    _mm256_loadu_pd(c.as_ptr()),
                    _mm256_loadu_pd(c.as_ptr().add(4)),
                )
            };
            for ((lo, hi), m) in acc.iter_mut().zip(m) {
                let x = _mm256_set1_pd(m[k]);
                let (tlo, thi) = (_mm256_sub_pd(x, clo), _mm256_sub_pd(x, chi));
                *lo = _mm256_add_pd(*lo, _mm256_mul_pd(tlo, tlo));
                *hi = _mm256_add_pd(*hi, _mm256_mul_pd(thi, thi));
            }
        }
        acc
    }

    /// The distances' bit patterns with the sign bit flipped: the signed
    /// order of the result is the unsigned order of the bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn flip(d: __m256d) -> __m256i {
        _mm256_xor_si256(_mm256_castpd_si256(d), _mm256_set1_epi64x(SIGN as i64))
    }

    /// The centroid ids of block `b`'s two halves, which of them are
    /// centroids (`< p`) rather than padding, and whether all are.
    struct Ids {
        lo: __m256i,
        hi: __m256i,
        valid_lo: __m256i,
        valid_hi: __m256i,
        full: bool,
    }

    impl Ids {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn of(b: usize, p: usize) -> Ids {
            let first = (b * CENTROID_LANES) as i64;
            let lo = _mm256_setr_epi64x(first, first + 1, first + 2, first + 3);
            let hi = _mm256_add_epi64(lo, _mm256_set1_epi64x(4));
            let count = p;
            let p = _mm256_set1_epi64x(p as i64);
            Ids {
                lo,
                hi,
                valid_lo: _mm256_cmpgt_epi64(p, lo),
                valid_hi: _mm256_cmpgt_epi64(p, hi),
                full: (b + 1) * CENTROID_LANES <= count,
            }
        }
    }

    /// The in-lane 4×4 transpose of four rows of eight `f32`: output `k`
    /// holds element `k` of the four rows in its low half and element
    /// `4 + k` in its high half.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose4(r: &[__m256]) -> [__m256; 4] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_available_and_best_is_last() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], SimdTier::Portable);
        assert!(tiers.contains(&tier()));
    }

    #[test]
    fn pmi_simd_values_cap_at_the_best_tier() {
        use SimdTier::*;
        for best in [Portable, Sse2, Avx2] {
            assert_eq!(requested_tier(None, best), best);
            assert_eq!(requested_tier(Some(""), best), best);
            assert_eq!(requested_tier(Some("portable"), best), Portable);
            assert_eq!(requested_tier(Some("scalar"), best), Portable);
            assert_eq!(requested_tier(Some("sse2"), best), Sse2.min(best));
            assert_eq!(requested_tier(Some("avx2"), best), best);
        }
        assert_eq!(requested_tier(Some("avx2"), Sse2), Sse2);
        for typo in ["sse", "AVX2", "Portable", "avx512", " sse2"] {
            let err =
                std::panic::catch_unwind(|| requested_tier(Some(typo), Avx2)).expect_err(typo);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("portable, scalar, sse2, avx2"), "{msg}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdTier::Portable.label(), "portable");
        assert_eq!(SimdTier::Sse2.label(), "sse2");
        assert_eq!(SimdTier::Avx2.label(), "avx2");
    }
}
