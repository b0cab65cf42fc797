//! Explicit-SIMD tiers, with one-time runtime dispatch, for two kernels:
//! the stored-code Lemma 1 scan
//! ([`PivotColumns::gaps_into`](crate::PivotColumns::gaps_into)) and eight
//! distances per register pass ([`Metric::dist8`](crate::Metric::dist8)
//! for L1, L2 and L∞ on `[f32]`). This file is the
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
//!   kernel: eight distances in the f64 lanes of two ymm registers.
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
//! bit (`x86::fold8_avx2` says why). `PivotColumns` and `dist8` each take
//! a pinned tier privately, which is how the kernel proptests hold every
//! available tier against the portable body and against the one-lane
//! loop.
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

/// A SIMD implementation tier of the stored-code scan kernel and of
/// `dist8`, ordered from the narrowest to the widest.
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

/// The x86-64 lane implementations. The scan kernels require the slice
/// preconditions `ScanKernel::fill_gaps` checks (one column per pivot,
/// each at least `out.len()` long), `fold8_avx2` nine equal lengths, and
/// the AVX2 ones a CPU with AVX2 — which the dispatcher guarantees.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::Lane;
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
