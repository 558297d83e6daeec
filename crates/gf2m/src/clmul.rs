//! Scalar carry-less multiplication for the serving backend.
//!
//! The paper's MALU is small *because* GF(2^m) multiplication is
//! carry-free; on the gateway side the same property means one x86
//! `PCLMULQDQ` instruction replaces an entire 64×64 windowed-comb pass.
//! This module provides the scalar `mul` and `sqr` of
//! [`VpclmulBackend`](crate::VpclmulBackend): a wide (unreduced)
//! product, then the straight-line word-level reduction, compiled
//! together into one function per field:
//!
//! * on the `clmul` tier and above ([`select_backend`], resolved from
//!   CPUID, no compile-time flags), a word-level **Karatsuba** over
//!   `_mm_clmulepi64_si128`: 1/3/7/9/17 carry-less multiplies for
//!   operand widths 1–5 words instead of the schoolbook 1/4/9/16/25;
//! * on the `portable` tier, the constant-time word products and bit
//!   interleave of [`crate::portable`], called out of line, so non-x86
//!   builds, x86 CPUs without CLMUL and processes lowered to the
//!   portable tier stay correct — merely slower.
//!
//! Everything here produces bit-identical results to the reference
//! path (`limbs::clmul` and the bit-serial `limbs::reduce`) — the
//! backend-equivalence suite pins the whole stack against the model
//! path on every field.

// The only unsafe code in this crate besides `vpclmul`: calling the
// CPU-feature-gated intrinsic path on a tier CPUID has proven safe.
#![allow(unsafe_code)]

use crate::backend::{select_backend, BackendChoice};
use crate::field::FieldSpec;
use crate::LIMBS;

/// Whether the `PCLMULQDQ` kernels run: the process's tier
/// ([`select_backend`]) is `clmul` or above, which it is only where
/// CPUID reported `pclmulqdq`. Always `false` off x86-64.
#[inline]
pub fn hardware_available() -> bool {
    select_backend() >= BackendChoice::Clmul
}

/// Field multiplication of canonical elements: the carry-less product
/// of the low `ceil(m/64)` words, through the hardware path on the
/// `clmul` tier and above and the portable word products otherwise, then
/// [`crate::limbs::reduce_words`]. On the hardware path product and reduction
/// compile into one straight-line function per field.
#[inline]
pub(crate) fn mul_reduced<F: FieldSpec>(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        // SAFETY: the tier is `clmul` or above, so CPUID reported
        // `pclmulqdq` on this CPU.
        return unsafe { x86::mul_reduced::<F>(a, b) };
    }
    crate::portable::mul_reduced::<F>(a, b)
}

/// Field squaring of a canonical element — one `PCLMULQDQ` per word on
/// the hardware path (squaring never crosses word boundaries), then
/// [`crate::limbs::reduce_words`]; the portable bit interleave elsewhere.
#[inline]
pub(crate) fn square_reduced<F: FieldSpec>(a: &[u64; LIMBS]) -> [u64; LIMBS] {
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        // SAFETY: the tier is `clmul` or above, so CPUID reported
        // `pclmulqdq` on this CPU.
        return unsafe { x86::square_reduced::<F>(a) };
    }
    crate::portable::square_reduced::<F>(a)
}

/// The x86_64 `PCLMULQDQ` path: word-level Karatsuba, each helper
/// compiled with the feature enabled so the intrinsics inline into one
/// straight-line block per operand width.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_srli_si128,
    };

    use crate::field::FieldSpec;
    use crate::limbs;
    use crate::{LIMBS, PROD_LIMBS};

    /// [`super::mul_reduced`]'s hardware path: the Karatsuba product
    /// for the field's word count and the reduction, inlined together.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` (checked by the caller via
    /// [`super::hardware_available`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn mul_reduced<F: FieldSpec>(
        a: &[u64; LIMBS],
        b: &[u64; LIMBS],
    ) -> [u64; LIMBS] {
        limbs::reduce_words(clmul_wide(a, b, F::M.div_ceil(64)), F::REDUCTION)
    }

    /// [`super::square_reduced`]'s hardware path.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` (checked by the caller via
    /// [`super::hardware_available`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn square_reduced<F: FieldSpec>(a: &[u64; LIMBS]) -> [u64; LIMBS] {
        limbs::reduce_words(clsquare_wide(a, F::M.div_ceil(64)), F::REDUCTION)
    }

    /// One 64×64→128 carry-less multiply.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn cl(a: u64, b: u64) -> (u64, u64) {
        let p = _mm_clmulepi64_si128(_mm_set_epi64x(0, a as i64), _mm_set_epi64x(0, b as i64), 0);
        (
            _mm_cvtsi128_si64(p) as u64,
            _mm_cvtsi128_si64(_mm_srli_si128(p, 8)) as u64,
        )
    }

    /// 2×2-word Karatsuba: 3 multiplies instead of 4.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn m2(a0: u64, a1: u64, b0: u64, b1: u64) -> [u64; 4] {
        let (p0l, p0h) = cl(a0, b0);
        let (p1l, p1h) = cl(a1, b1);
        let (pml, pmh) = cl(a0 ^ a1, b0 ^ b1);
        [p0l, p0h ^ pml ^ p0l ^ p1l, p1l ^ pmh ^ p0h ^ p1h, p1h]
    }

    /// 3×3 words, split (2, 1): 7 multiplies instead of 9.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn m3(a: &[u64], b: &[u64]) -> [u64; 6] {
        let p0 = m2(a[0], a[1], b[0], b[1]);
        let (p1l, p1h) = cl(a[2], b[2]);
        let pm = m2(a[0] ^ a[2], a[1], b[0] ^ b[2], b[1]);
        let mut out = [p0[0], p0[1], p0[2], p0[3], p1l, p1h];
        out[2] ^= pm[0] ^ p0[0] ^ p1l;
        out[3] ^= pm[1] ^ p0[1] ^ p1h;
        out[4] ^= pm[2] ^ p0[2];
        out[5] ^= pm[3] ^ p0[3];
        out
    }

    /// 4×4 words, split (2, 2): 9 multiplies instead of 16.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn m4(a: &[u64], b: &[u64]) -> [u64; 8] {
        let p0 = m2(a[0], a[1], b[0], b[1]);
        let p1 = m2(a[2], a[3], b[2], b[3]);
        let pm = m2(a[0] ^ a[2], a[1] ^ a[3], b[0] ^ b[2], b[1] ^ b[3]);
        let mut out = [p0[0], p0[1], p0[2], p0[3], p1[0], p1[1], p1[2], p1[3]];
        for i in 0..4 {
            out[2 + i] ^= pm[i] ^ p0[i] ^ p1[i];
        }
        out
    }

    /// 5×5 words, split (3, 2): 17 multiplies instead of 25.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn m5(a: &[u64], b: &[u64]) -> [u64; 10] {
        let p0 = m3(&a[..3], &b[..3]);
        let p1 = m2(a[3], a[4], b[3], b[4]);
        let sa = [a[0] ^ a[3], a[1] ^ a[4], a[2]];
        let sb = [b[0] ^ b[3], b[1] ^ b[4], b[2]];
        let pm = m3(&sa, &sb);
        let mut out = [
            p0[0], p0[1], p0[2], p0[3], p0[4], p0[5], p1[0], p1[1], p1[2], p1[3],
        ];
        for i in 0..6 {
            let p1w = if i < 4 { p1[i] } else { 0 };
            out[3 + i] ^= pm[i] ^ p0[i] ^ p1w;
        }
        out
    }

    /// Width-dispatched Karatsuba product of the low `nw` words.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` (checked by the caller via
    /// [`super::hardware_available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn clmul_wide(
        a: &[u64; LIMBS],
        b: &[u64; LIMBS],
        nw: usize,
    ) -> [u64; PROD_LIMBS] {
        let mut out = [0u64; PROD_LIMBS];
        match nw {
            1 => {
                let (lo, hi) = cl(a[0], b[0]);
                out[0] = lo;
                out[1] = hi;
            }
            2 => out[..4].copy_from_slice(&m2(a[0], a[1], b[0], b[1])),
            3 => out[..6].copy_from_slice(&m3(&a[..3], &b[..3])),
            4 => out[..8].copy_from_slice(&m4(&a[..4], &b[..4])),
            _ => out.copy_from_slice(&m5(&a[..5], &b[..5])),
        }
        out
    }

    /// Per-word carry-less squaring of the low `nw` words.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` (checked by the caller via
    /// [`super::hardware_available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn clsquare_wide(a: &[u64; LIMBS], nw: usize) -> [u64; PROD_LIMBS] {
        let mut out = [0u64; PROD_LIMBS];
        for (i, &w) in a.iter().take(nw).enumerate() {
            let (lo, hi) = cl(w, w);
            out[2 * i] = lo;
            out[2 * i + 1] = hi;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs;

    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn random_limbs(r: &mut impl FnMut() -> u64, nw: usize) -> [u64; LIMBS] {
        let mut v = [0u64; LIMBS];
        for w in v.iter_mut().take(nw) {
            *w = r();
        }
        v
    }

    /// The fallback below the `clmul` tier is the portable word product
    /// and interleave; pin them against the reference comb at
    /// every operand width, saturated operands included.
    #[test]
    fn portable_wide_matches_reference_all_widths() {
        let mut r = rng_from(32);
        for nw in 1..=LIMBS {
            let mut ones = [0u64; LIMBS];
            ones[..nw].fill(u64::MAX);
            let cases = (0..32).map(|_| (random_limbs(&mut r, nw), random_limbs(&mut r, nw)));
            for (a, b) in cases.chain([(ones, ones)]) {
                assert_eq!(
                    limbs::clmul_words(&a, &b, nw),
                    limbs::clmul(&a, &b),
                    "nw={nw}"
                );
                assert_eq!(
                    limbs::clsquare_words(&a, nw),
                    limbs::clsquare(&a),
                    "square nw={nw}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_karatsuba_matches_reference_all_widths() {
        if !hardware_available() {
            eprintln!("tier below clmul; hardware path untested in this process");
            return;
        }
        let mut r = rng_from(33);
        for nw in 1..=LIMBS {
            for _ in 0..64 {
                let a = random_limbs(&mut r, nw);
                let b = random_limbs(&mut r, nw);
                // SAFETY: the tier checked above is `clmul` or above.
                let hw = unsafe { x86::clmul_wide(&a, &b, nw) };
                assert_eq!(hw, limbs::clmul(&a, &b), "nw={nw}");
                let sq = unsafe { x86::clsquare_wide(&a, nw) };
                assert_eq!(sq, limbs::clsquare(&a), "square nw={nw}");
            }
            // Saturated operands stress every carry path in the split.
            let ones = {
                let mut v = [0u64; LIMBS];
                for w in v.iter_mut().take(nw) {
                    *w = u64::MAX;
                }
                v
            };
            let hw = unsafe { x86::clmul_wide(&ones, &ones, nw) };
            assert_eq!(hw, limbs::clmul(&ones, &ones), "saturated nw={nw}");
        }
    }

    #[test]
    fn accel_entry_points_match_reference() {
        fn check<F: FieldSpec>(r: &mut impl FnMut() -> u64) {
            let nw = F::M.div_ceil(64);
            let top = (1u64 << (F::M % 64)) - 1;
            let mut canonical = || {
                let mut v = random_limbs(r, nw);
                v[nw - 1] &= top;
                v
            };
            for _ in 0..32 {
                let (a, b) = (canonical(), canonical());
                let expect = limbs::reduce(limbs::clmul(&a, &b), F::REDUCTION);
                assert_eq!(mul_reduced::<F>(&a, &b), expect, "{}", F::NAME);
                let expect = limbs::reduce(limbs::clsquare(&a), F::REDUCTION);
                assert_eq!(square_reduced::<F>(&a), expect, "square {}", F::NAME);
            }
        }
        let mut r = rng_from(34);
        check::<crate::F163>(&mut r);
        check::<crate::F233>(&mut r);
        check::<crate::F283>(&mut r);
        check::<crate::F17>(&mut r);
    }
}
