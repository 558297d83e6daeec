//! AVX-512 `VPCLMULQDQ` batch multiplication: four independent
//! carry-less 64×64→128 products per instruction.
//!
//! Where [`crate::clmul`] accelerates one multiplication at a time,
//! this module accelerates the *batch* entry points: four field
//! elements ride the four 128-bit lanes of a ZMM register, and a
//! word-level schoolbook needs only `nw²` `VPCLMULQDQ` instructions
//! per four products (nine for K-163 — versus four separate Karatsuba
//! passes, ~28 `PCLMULQDQ`s, on the scalar path). Operands arrive in
//! the plane-major SoA layout of [`crate::batch`], so limb *j* of four
//! consecutive elements is one masked 256-bit load away from the even
//! qword lanes the instruction multiplies.
//!
//! Per four-element chunk:
//!
//! 1. `_mm512_maskz_expandloadu_epi64(0x55, …)` lifts four consecutive
//!    plane words into even lanes (odd lanes zero);
//! 2. `acc[j+k] ^= clmul(a[j], b[k], 0x00)` accumulates the schoolbook
//!    (lane-local products never collide because odd input lanes are
//!    zero);
//! 3. `_mm512_maskz_compress_epi64` with masks `0x55`/`0xAA` splits
//!    each accumulator into its low/high product planes;
//! 4. the sparse reduction folds those planes **in registers** — the
//!    same single-pass schedule as
//!    [`reduce_planes`](crate::batch::reduce_planes), each fold one
//!    vector shift + XOR across the four lanes. Only the refolding toy
//!    field (m − e < 64) drops to the portable scalar reduction via a
//!    stack round-trip.
//!
//! Runtime-gated on `avx512f` + `vpclmulqdq`; hosts without them fall
//! back to the backend's scalar path per element, so the backend is
//! correct everywhere and wide where the silicon allows.

// CPU-feature-gated intrinsic calls, guarded by runtime detection —
// the same contract as `crate::clmul`.
#![allow(unsafe_code)]

use crate::backend::{FieldBackend, VpclmulBackend};
use crate::batch::{gather, scatter};
use crate::field::FieldSpec;

/// Elements per `VPCLMULQDQ` chunk: one per 128-bit lane of a ZMM.
pub const LANES: usize = 4;

/// Whether the host CPU offers the wide carry-less-multiply path
/// (`AVX512F` + `VPCLMULQDQ` on x86_64). Always `false` elsewhere.
pub fn hardware_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Batched plane-major multiplication: full four-element chunks run on
/// the ZMM path when detected; the ragged tail — and every element on
/// hosts without the features — takes the backend's scalar path.
pub(crate) fn mul_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = crate::batch::width(out);
    let mut base = 0;
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        while base + LANES <= n {
            // SAFETY: `avx512f` and `vpclmulqdq` were just detected.
            unsafe { x86::mul4::<F>(out, a, b, n, base) };
            base += LANES;
        }
    }
    for i in base..n {
        let x = gather::<F>(a, n, i);
        let y = gather::<F>(b, n, i);
        scatter(out, n, i, &VpclmulBackend::mul(&x, &y));
    }
}

/// Batched plane-major squaring; same chunking as
/// [`mul_batch_planes`] with one `VPCLMULQDQ` per operand plane.
pub(crate) fn sqr_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
    let n = crate::batch::width(out);
    let mut base = 0;
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        while base + LANES <= n {
            // SAFETY: `avx512f` and `vpclmulqdq` were just detected.
            unsafe { x86::sqr4::<F>(out, a, n, base) };
            base += LANES;
        }
    }
    for i in base..n {
        let x = gather::<F>(a, n, i);
        scatter(out, n, i, &VpclmulBackend::square(&x));
    }
}

/// The ZMM kernels, compiled with the features enabled so the
/// intrinsics fold into straight-line vector code.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m512i, _mm512_and_si512, _mm512_clmulepi64_epi128, _mm512_mask_storeu_epi64,
        _mm512_maskz_compress_epi64, _mm512_maskz_expandloadu_epi64, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_sll_epi64, _mm512_srl_epi64, _mm512_xor_si512,
        _mm_cvtsi64_si128,
    };

    use crate::field::FieldSpec;
    use crate::{LIMBS, PROD_LIMBS};

    use super::LANES;

    /// Loads four consecutive plane words into the even qword lanes of
    /// a ZMM (odd lanes zero), ready to be a `clmul` operand.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`, and
    /// `plane[base..base + 4]` must be in bounds.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn load4(plane: &[u64], base: usize) -> __m512i {
        debug_assert!(base + LANES <= plane.len());
        _mm512_maskz_expandloadu_epi64(0x55, plane.as_ptr().add(base).cast())
    }

    /// Four products `out[base + t] = a[base + t] * b[base + t]` over
    /// plane-major batches of width `n`: an `nw²`-instruction
    /// schoolbook of lane-parallel carry-less multiplies, then the
    /// shared plane-wise sparse reduction on a stack chunk.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`; slices must
    /// hold `LIMBS * n` words with `base + 4 <= n`.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn mul4<F: FieldSpec>(
        out: &mut [u64],
        a: &[u64],
        b: &[u64],
        n: usize,
        base: usize,
    ) {
        let nw = F::M.div_ceil(64);
        let mut av = [_mm512_setzero_si512(); LIMBS];
        let mut bv = [_mm512_setzero_si512(); LIMBS];
        for j in 0..nw {
            av[j] = load4(&a[j * n..], base);
            bv[j] = load4(&b[j * n..], base);
        }
        let mut acc = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            for k in 0..nw {
                let p = _mm512_clmulepi64_epi128(av[j], bv[k], 0x00);
                acc[j + k] = _mm512_xor_si512(acc[j + k], p);
            }
        }
        reduce_store::<F>(&acc, 2 * nw - 1, out, n, base);
    }

    /// Four squarings `out[base + t] = a[base + t]²`: one lane-parallel
    /// carry-less multiply per operand plane.
    ///
    /// # Safety
    /// Same contract as [`mul4`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn sqr4<F: FieldSpec>(out: &mut [u64], a: &[u64], n: usize, base: usize) {
        let nw = F::M.div_ceil(64);
        let mut acc = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            let av = load4(&a[j * n..], base);
            // Even accumulator slots only: squaring spreads plane j to
            // product planes 2j (low) and 2j+1 (high).
            acc[2 * j] = _mm512_clmulepi64_epi128(av, av, 0x00);
        }
        reduce_store::<F>(&acc, 2 * nw - 1, out, n, base);
    }

    /// Lane-wise left shift by a runtime count.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn sll(v: __m512i, count: usize) -> __m512i {
        _mm512_sll_epi64(v, _mm_cvtsi64_si128(count as i64))
    }

    /// Lane-wise right shift by a runtime count.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn srl(v: __m512i, count: usize) -> __m512i {
        _mm512_srl_epi64(v, _mm_cvtsi64_si128(count as i64))
    }

    /// Splits `used` 128-bit accumulators into low/high product planes
    /// and reduces the four-wide chunk **in registers**: the same
    /// single-pass fold schedule as
    /// [`reduce_planes`](crate::batch::reduce_planes), one vector
    /// shift + XOR per reduction term per excess plane, touching only
    /// the `2·nw` planes the product actually occupies. Refolding
    /// fields (m − e < 64, the toy F17) take the portable scalar
    /// reduction through a stack round-trip instead.
    ///
    /// # Safety
    /// Same contract as [`mul4`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn reduce_store<F: FieldSpec>(
        acc: &[__m512i; PROD_LIMBS],
        used: usize,
        out: &mut [u64],
        n: usize,
        base: usize,
    ) {
        let nw = F::M.div_ceil(64);
        let planes = 2 * nw;
        // Product plane t = low halves of acc[t] ^ high halves of
        // acc[t-1], packed into the low four qwords.
        let mut p = [_mm512_setzero_si512(); PROD_LIMBS];
        for (t, pt) in p.iter_mut().enumerate().take(planes) {
            let mut v = _mm512_setzero_si512();
            if t < used {
                v = _mm512_maskz_compress_epi64(0x55, acc[t]);
            }
            if t >= 1 && t - 1 < used {
                v = _mm512_xor_si512(v, _mm512_maskz_compress_epi64(0xaa, acc[t - 1]));
            }
            *pt = v;
        }
        let m = F::M;
        let reduction = F::REDUCTION;
        if m < 64 + reduction[1] {
            // Refolding field: spill to the stack and run the portable
            // per-element reduction (correctness path, not a hot one).
            let mut prod = [0u64; LANES * PROD_LIMBS];
            for (t, pt) in p.iter().enumerate() {
                _mm512_mask_storeu_epi64(prod.as_mut_ptr().add(LANES * t).cast(), 0x0f, *pt);
            }
            let mut red = [0u64; LANES * LIMBS];
            crate::batch::reduce_planes(&mut prod, &mut red, reduction);
            for j in 0..LIMBS {
                out[j * n + base..j * n + base + LANES]
                    .copy_from_slice(&red[LANES * j..LANES * (j + 1)]);
            }
            return;
        }
        let mw = m / 64;
        let mb = m % 64;
        // Whole planes above the boundary word, highest first (see
        // `reduce_planes` for why one descending pass suffices).
        let top = if mb == 0 { mw } else { mw + 1 };
        for i in (top..planes).rev() {
            for &e in &reduction[1..] {
                let bpos = 64 * i + e - m;
                let (wi, sh) = (bpos / 64, bpos % 64);
                if sh == 0 {
                    p[wi] = _mm512_xor_si512(p[wi], p[i]);
                } else {
                    p[wi] = _mm512_xor_si512(p[wi], sll(p[i], sh));
                    p[wi + 1] = _mm512_xor_si512(p[wi + 1], srl(p[i], 64 - sh));
                }
            }
            // Folded planes inside the LIMBS output window must read
            // zero when stored below.
            p[i] = _mm512_setzero_si512();
        }
        // Bits m..64·(mw+1) inside the boundary plane: folds write
        // strictly below bit m, so the high source bits stay valid
        // across terms and the plane is masked last.
        if mb != 0 {
            for &e in &reduction[1..] {
                let (wi, sh) = (e / 64, e % 64);
                let src = srl(p[mw], mb);
                p[wi] = _mm512_xor_si512(p[wi], sll(src, sh));
                if wi != mw && sh + (63 - mb) > 63 {
                    p[wi + 1] = _mm512_xor_si512(p[wi + 1], srl(src, 64 - sh));
                }
            }
            p[mw] = _mm512_and_si512(p[mw], _mm512_set1_epi64(((1u64 << mb) - 1) as i64));
        }
        // Planes nw..LIMBS stay zero-initialized: canonical elements.
        for (j, pj) in p.iter().enumerate().take(LIMBS) {
            _mm512_mask_storeu_epi64(out.as_mut_ptr().add(j * n + base).cast(), 0x0f, *pj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ModelBackend;
    use crate::field::Element;
    use crate::fields::{F163, F17, F233, F283};
    use crate::LIMBS;

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

    fn matches_model<F: FieldSpec>(seed: u64, n: usize) {
        let mut r = rng_from(seed);
        let xs: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut r)).collect();
        let ys: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut r)).collect();
        let mut ap = vec![0u64; LIMBS * n];
        let mut bp = vec![0u64; LIMBS * n];
        for i in 0..n {
            scatter(&mut ap, n, i, &xs[i]);
            scatter(&mut bp, n, i, &ys[i]);
        }
        let mut mp = vec![0u64; LIMBS * n];
        mul_batch_planes::<F>(&mut mp, &ap, &bp);
        let mut sp = vec![0u64; LIMBS * n];
        sqr_batch_planes::<F>(&mut sp, &ap);
        for i in 0..n {
            assert_eq!(
                gather::<F>(&mp, n, i),
                ModelBackend::mul(&xs[i], &ys[i]),
                "mul i={i}"
            );
            assert_eq!(
                gather::<F>(&sp, n, i),
                ModelBackend::square(&xs[i]),
                "sqr i={i}"
            );
        }
    }

    #[test]
    fn vpclmul_matches_model_when_detected() {
        if !hardware_available() {
            eprintln!("skipping: VPCLMULQDQ/AVX512F not detected; scalar fallback covered anyway");
        }
        // Runs on every host: exercises the ZMM path where detected
        // and the scalar fallback elsewhere.
        matches_model::<F163>(51, 16);
        matches_model::<F163>(52, 7); // chunk + ragged tail
        matches_model::<F163>(53, 3); // tail only
        matches_model::<F233>(54, 12);
        matches_model::<F283>(55, 12);
        matches_model::<F17>(56, 9);
        matches_model::<F163>(57, 0);
    }
}
