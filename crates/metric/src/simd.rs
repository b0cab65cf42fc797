//! Explicit-SIMD tiers for the [`ScanKernel`](crate::ScanKernel), with
//! one-time runtime dispatch.
//!
//! The Lemma 1 filter `max_j |qd_j − row_j|` is memory-bound, so the win of
//! hand-written lanes is modest for the f64 reference kernel — LLVM already
//! auto-vectorizes the portable blocked loop — but load-bearing for the
//! stored u16 code columns every index scans, where AVX2 processes
//! **sixteen** rows per step over a **quarter** of the bytes. Three tiers
//! exist:
//!
//! * [`SimdTier::Avx2`] — 256-bit lanes (4 × f64 / 16 × u16 rows per step),
//!   picked when the CPU reports AVX2 at first use.
//! * [`SimdTier::Sse2`] — 128-bit lanes (2 × f64 / 8 × u16), the x86-64
//!   baseline.
//! * [`SimdTier::Portable`] — the blocked scalar code in `matrix.rs`
//!   (LLVM-auto-vectorized), the only tier on non-x86-64 targets.
//!
//! **Every tier produces bit-identical bounds.** In f64, `a − b` is a
//! single correctly-rounded operation, `abs` is exact, and a `max`
//! reduction over non-negative finite values is exact and
//! association-insensitive. The code kernel is integer arithmetic — an
//! absolute difference and a max of u16s, exact in any order — finished by
//! one shared `(m − 1)⁺ · step` whose conversion and power-of-two product
//! round nothing. Pinning a tier (`ScanKernel::lower_bounds_with_tier`, the
//! kernel proptest) is how tests hold every available tier against the
//! portable reference.
//!
//! Dispatch is decided once per process ([`tier`], a `OnceLock`) and can be
//! forced down with `PMI_SIMD=portable|sse2|avx2` — compiler flags alone
//! (`RUSTFLAGS=-C target-feature=-avx2`) cannot disable *runtime* feature
//! detection, and CI's no-AVX2 leg uses the override to prove the portable
//! fallback stays green on hardware that has AVX2.

use std::sync::OnceLock;

/// A SIMD implementation tier of the scan kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Blocked scalar code, auto-vectorized by LLVM. Always available.
    Portable,
    /// 128-bit `std::arch` lanes (x86-64 baseline).
    Sse2,
    /// 256-bit `std::arch` lanes (runtime-detected).
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
        if is_x86_feature_detected!("avx2") {
            tiers.push(SimdTier::Avx2);
        }
    }
    tiers
}

fn detect() -> SimdTier {
    let best = *available_tiers().last().expect("portable always present");
    match std::env::var("PMI_SIMD").ok().as_deref() {
        Some("portable") | Some("scalar") => SimdTier::Portable,
        Some("sse2") if best != SimdTier::Portable => SimdTier::Sse2,
        Some("avx2") => best, // can only cap at what the CPU has
        _ => best,
    }
}

/// The tier the kernel dispatches to, decided once per process (first use)
/// from CPU feature detection, overridable via `PMI_SIMD`.
pub fn tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// The x86-64 lane implementations. All functions require the slice
/// preconditions documented on their `ScanKernel` wrappers (`rows`/`out`
/// sized to `n`·`w`) and, for the AVX2 set, a CPU with AVX2 — which the
/// dispatcher guarantees.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::matrix::ScanKernel;
    use core::arch::x86_64::*;

    /// `|x|` via sign-bit clear — exact, no rounding.
    #[inline(always)]
    unsafe fn abs_pd(x: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
    }

    #[inline(always)]
    unsafe fn abs_pd128(x: __m128d) -> __m128d {
        _mm_andnot_pd(_mm_set1_pd(-0.0), x)
    }

    /// 4 rows of f64 per step; remainder through the shared scalar
    /// reduction (bit-identical by the module-level argument).
    ///
    /// # Safety
    /// Caller verified AVX2; `rows.len() == out.len() * qd.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lb_f64_avx2(qd: &[f64], rows: &[f64], out: &mut [f64]) {
        let w = qd.len();
        let n = out.len();
        let base = rows.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let r0 = base.add(i * w);
            let r1 = r0.add(w);
            let r2 = r1.add(w);
            let r3 = r2.add(w);
            let mut m = _mm256_setzero_pd();
            for j in 0..w {
                let x = _mm256_set_pd(*r3.add(j), *r2.add(j), *r1.add(j), *r0.add(j));
                let q = _mm256_set1_pd(*qd.get_unchecked(j));
                m = _mm256_max_pd(abs_pd(_mm256_sub_pd(q, x)), m);
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), m);
            i += 4;
        }
        for r in i..n {
            out[r] = ScanKernel::row_max(qd, &rows[r * w..(r + 1) * w]);
        }
    }

    /// 16 rows of u16 codes per step over **planar** (column-major)
    /// storage: `cols[j][i]` is the code of local row `i` against pivot
    /// `j`, so every inner step is one contiguous `loadu` per column — no
    /// per-lane gather. `|c − q|` of unsigned lanes is the OR of the two
    /// saturating differences (one of them is zero); the row maxes lose
    /// their one step of bucket overlap in-register (`subs 1`) and are
    /// widened u16 → i32 → f64 and scaled, four rows a store.
    ///
    /// # Safety
    /// Caller verified AVX2; every `cols[j].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lb_codes_avx2(qf: &[u16], cols: &[&[u16]], step: f64, out: &mut [f64]) {
        let w = qf.len();
        let n = out.len();
        debug_assert_eq!(cols.len(), w);
        let scale = _mm256_set1_pd(step);
        let one = _mm256_set1_epi16(1);
        let mut i = 0;
        while i + 16 <= n {
            let mut m = _mm256_setzero_si256();
            for j in 0..w {
                let c = _mm256_loadu_si256(cols.get_unchecked(j).as_ptr().add(i).cast());
                let q = _mm256_set1_epi16(*qf.get_unchecked(j) as i16);
                let d = _mm256_or_si256(_mm256_subs_epu16(c, q), _mm256_subs_epu16(q, c));
                m = _mm256_max_epu16(m, d);
            }
            let m = _mm256_subs_epu16(m, one);
            let lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(m));
            let hi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(m, 1));
            let o = out.as_mut_ptr().add(i);
            for (k, half) in [lo, hi].into_iter().enumerate() {
                let a = _mm256_cvtepi32_pd(_mm256_castsi256_si128(half));
                let b = _mm256_cvtepi32_pd(_mm256_extracti128_si256(half, 1));
                _mm256_storeu_pd(o.add(8 * k), _mm256_mul_pd(a, scale));
                _mm256_storeu_pd(o.add(8 * k + 4), _mm256_mul_pd(b, scale));
            }
            i += 16;
        }
        for (r, o) in out.iter_mut().enumerate().take(n).skip(i) {
            *o = ScanKernel::code_bound(ScanKernel::row_max_codes(qf, cols, r), step);
        }
    }

    /// 2 rows of f64 per step (SSE2 baseline).
    ///
    /// # Safety
    /// `rows.len() == out.len() * qd.len()` (SSE2 is baseline on x86-64).
    #[target_feature(enable = "sse2")]
    pub unsafe fn lb_f64_sse2(qd: &[f64], rows: &[f64], out: &mut [f64]) {
        let w = qd.len();
        let n = out.len();
        let base = rows.as_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let r0 = base.add(i * w);
            let r1 = r0.add(w);
            let mut m = _mm_setzero_pd();
            for j in 0..w {
                let x = _mm_set_pd(*r1.add(j), *r0.add(j));
                let q = _mm_set1_pd(*qd.get_unchecked(j));
                m = _mm_max_pd(abs_pd128(_mm_sub_pd(q, x)), m);
            }
            _mm_storeu_pd(out.as_mut_ptr().add(i), m);
            i += 2;
        }
        for r in i..n {
            out[r] = ScanKernel::row_max(qd, &rows[r * w..(r + 1) * w]);
        }
    }

    /// 8 rows of u16 codes per step (SSE2 baseline) over planar storage;
    /// see [`lb_codes_avx2`] for the layout. SSE2 has no unsigned 16-bit
    /// max: `max(a, b) = adds(subs(a, b), b)`. The eight row maxes go
    /// through the shared scalar finish.
    ///
    /// # Safety
    /// Every `cols[j].len() >= out.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn lb_codes_sse2(qf: &[u16], cols: &[&[u16]], step: f64, out: &mut [f64]) {
        let w = qf.len();
        let n = out.len();
        debug_assert_eq!(cols.len(), w);
        let mut i = 0;
        while i + 8 <= n {
            let mut m = _mm_setzero_si128();
            for j in 0..w {
                let c = _mm_loadu_si128(cols.get_unchecked(j).as_ptr().add(i).cast());
                let q = _mm_set1_epi16(*qf.get_unchecked(j) as i16);
                let d = _mm_or_si128(_mm_subs_epu16(c, q), _mm_subs_epu16(q, c));
                m = _mm_adds_epu16(_mm_subs_epu16(m, d), d);
            }
            let mut ms = [0u16; 8];
            _mm_storeu_si128(ms.as_mut_ptr().cast(), m);
            for (o, &m) in out[i..i + 8].iter_mut().zip(&ms) {
                *o = ScanKernel::code_bound(m, step);
            }
            i += 8;
        }
        for (r, o) in out.iter_mut().enumerate().take(n).skip(i) {
            *o = ScanKernel::code_bound(ScanKernel::row_max_codes(qf, cols, r), step);
        }
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
    fn labels_are_stable() {
        assert_eq!(SimdTier::Portable.label(), "portable");
        assert_eq!(SimdTier::Sse2.label(), "sse2");
        assert_eq!(SimdTier::Avx2.label(), "avx2");
    }
}
