//! Explicit-SIMD tiers for the stored-code Lemma 1 kernel
//! ([`PivotColumns::lower_bounds_into`](crate::PivotColumns::lower_bounds_into)),
//! with one-time runtime dispatch.
//!
//! The filter `max_j |qf_j − c_j|` over the u16 code columns every index
//! stores is memory-bound; hand-written lanes let AVX2 process **sixteen**
//! rows per step and finish them in-register. Three tiers exist:
//!
//! * [`SimdTier::Avx2`] — 256-bit lanes (16 u16 rows per step), picked
//!   when the CPU reports AVX2 at first use.
//! * [`SimdTier::Sse2`] — 128-bit lanes (8 u16 rows per step), the x86-64
//!   baseline.
//! * [`SimdTier::Portable`] — the blocked scalar code in `matrix.rs`
//!   (LLVM-auto-vectorized), the only tier on non-x86-64 targets.
//!
//! **Every tier produces bit-identical bounds.** The kernel is integer
//! arithmetic — an absolute difference and a max of u16s, exact in any
//! order — finished by one shared `(m − 1)⁺ · step` whose conversion and
//! power-of-two product round nothing. `PivotColumns` pins a tier
//! privately, which is how the kernel proptest holds every available tier
//! against the portable body.
//!
//! Dispatch is decided once per process ([`tier`], a `OnceLock`) and can be
//! forced down with `PMI_SIMD=portable|sse2|avx2` — compiler flags alone
//! (`RUSTFLAGS=-C target-feature=-avx2`) cannot disable *runtime* feature
//! detection, and CI's no-AVX2 leg uses the override to prove the portable
//! fallback stays green on hardware that has AVX2.

use std::sync::OnceLock;

/// A SIMD implementation tier of the stored-code scan kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

/// The x86-64 lane implementations. Both require the slice preconditions
/// `ScanKernel::fill_codes` checks (one column per pivot, each at least
/// `out.len()` long) and, for AVX2, a CPU with AVX2 — which the dispatcher
/// guarantees.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::matrix::ScanKernel;
    use core::arch::x86_64::*;

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
