//! AVX-512 `VPCLMULQDQ` batch multiplication: four independent
//! carry-less 64×64→128 products per instruction, eight field elements
//! per chunk.
//!
//! Where [`crate::clmul`] accelerates one multiplication at a time,
//! this module accelerates the *batch* entry points. Operands arrive in
//! the plane-major SoA layout of [`crate::batch`], so limb *j* of eight
//! consecutive elements is one 512-bit load: two elements per 128-bit
//! lane. `VPCLMULQDQ` with selector `0x00` multiplies the low qwords of
//! the four lanes (elements 0, 2, 4, 6) and with `0x11` the high qwords
//! (elements 1, 3, 5, 7), so a word-level schoolbook needs `2·nw²`
//! instructions per eight products (18 for K-163, against eight
//! separate Karatsuba passes of seven `PCLMULQDQ`s each on the scalar
//! path).
//!
//! Per chunk of up to eight elements:
//!
//! 1. `_mm512_maskz_loadu_epi64` loads limb plane j of the chunk;
//! 2. `even[j+k] ^= clmul(a[j], b[k], 0x00)` and
//!    `odd[j+k] ^= clmul(a[j], b[k], 0x11)` accumulate the schoolbook;
//! 3. `_mm512_unpacklo_epi64`/`_mm512_unpackhi_epi64` of `even[t]` and
//!    `odd[t]` lay the accumulators' low/high halves out as product
//!    planes in element order;
//! 4. the sparse reduction folds those planes **in registers** — the
//!    same single-pass schedule as
//!    [`reduce_planes`](crate::batch::reduce_planes), each fold one
//!    vector shift + XOR across the eight elements. Only the refolding
//!    toy field (m − e < 64) drops to the portable scalar reduction via
//!    a stack round-trip;
//! 5. `_mm512_mask_storeu_epi64` writes the chunk's elements back to
//!    each output plane.
//!
//! A batch whose width r is not a multiple of eight ends in a chunk of
//! one to seven elements. It runs the same kernel with the load and
//! store masks cut to `(1 << r) − 1`, so the chunk reads and writes
//! exactly its own words, and the toy field's stack round-trip copies
//! r elements back. Ragged widths are the common case at the gateway
//! (a hub lane's tapered chunks end in widths of one to three), and a
//! masked chunk costs about what a full one does: on a 2-core AVX-512
//! host an F163 `mul_planes` cost 24–35 ns per call at widths 1–8 and
//! 3.2–3.3 ns per element at width 64.
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

/// Elements per `VPCLMULQDQ` chunk: two per 128-bit lane of a ZMM.
pub const LANES: usize = 8;

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

/// Batched plane-major multiplication: every chunk of up to eight
/// elements runs on the ZMM path when detected, the last one masked to
/// the width's remainder; hosts without the features take the
/// backend's scalar path per element.
pub(crate) fn mul_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = crate::batch::width(out);
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        // The kernel reads `a` and `b` by raw pointer: their lengths
        // must be checked here, not only in debug builds.
        assert!(a.len() == out.len() && b.len() == out.len());
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: `avx512f` and `vpclmulqdq` were just detected,
            // all three slices hold at least `LIMBS * n` words (the
            // assert above and `width`), and `base + lanes <= n`. The
            // kernel's load and store masks enable exactly `lanes`
            // words per plane, so a final chunk of one to seven never
            // touches the words past element n − 1 of a plane: the
            // next plane's first elements, or memory past the slice.
            unsafe { x86::mul_chunk::<F>(out, a, b, n, base, lanes) };
            base += lanes;
        }
        return;
    }
    for i in 0..n {
        let x = gather::<F>(a, n, i);
        let y = gather::<F>(b, n, i);
        scatter(out, n, i, &VpclmulBackend::mul(&x, &y));
    }
}

/// Batched plane-major squaring; same chunking as
/// [`mul_batch_planes`] with two `VPCLMULQDQ`s per operand plane.
pub(crate) fn sqr_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
    let n = crate::batch::width(out);
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        assert_eq!(a.len(), out.len());
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: `avx512f` and `vpclmulqdq` were just detected,
            // both slices hold at least `LIMBS * n` words (the assert
            // above and `width`), and `base + lanes <= n`; as in
            // `mul_batch_planes`, masked-off lanes are neither loaded
            // nor stored.
            unsafe { x86::sqr_chunk::<F>(out, a, n, base, lanes) };
            base += lanes;
        }
        return;
    }
    for i in 0..n {
        let x = gather::<F>(a, n, i);
        scatter(out, n, i, &VpclmulBackend::square(&x));
    }
}

/// The ZMM kernels, compiled with the features enabled so the
/// intrinsics fold into straight-line vector code.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_and_si512, _mm512_clmulepi64_epi128, _mm512_mask_storeu_epi64,
        _mm512_maskz_loadu_epi64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm512_srl_epi64, _mm512_unpackhi_epi64, _mm512_unpacklo_epi64, _mm512_xor_si512,
        _mm_cvtsi64_si128,
    };

    use crate::field::FieldSpec;
    use crate::{LIMBS, PROD_LIMBS};

    use super::LANES;

    /// The chunk's lane mask: its first `lanes` (1–8) qwords.
    #[inline]
    fn lane_mask(lanes: usize) -> __mmask8 {
        debug_assert!((1..=LANES).contains(&lanes));
        ((1u16 << lanes) - 1) as __mmask8
    }

    /// Loads `lanes` consecutive plane words into the low qwords of a
    /// ZMM, the qwords above them zero.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`, and
    /// `plane[base..base + lanes]` must be in bounds.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn load_chunk(plane: &[u64], base: usize, lanes: usize) -> __m512i {
        debug_assert!(base + lanes <= plane.len());
        // A masked load reads only the words under set mask bits and
        // leaves the memory behind the others untouched (no fault
        // either).
        _mm512_maskz_loadu_epi64(lane_mask(lanes), plane.as_ptr().add(base).cast())
    }

    /// Up to eight products `out[base + t] = a[base + t] * b[base + t]`,
    /// `t < lanes`, over plane-major batches of width `n`: a schoolbook
    /// of `2·nw²` lane-parallel carry-less multiplies, the even
    /// elements' products from the low qword of each 128-bit lane
    /// (`0x00`), the odd elements' from the high qword (`0x11`), then
    /// the plane-wise sparse reduction in registers.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`; slices must
    /// hold `LIMBS * n` words, with `1 <= lanes <= 8` and
    /// `base + lanes <= n`.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn mul_chunk<F: FieldSpec>(
        out: &mut [u64],
        a: &[u64],
        b: &[u64],
        n: usize,
        base: usize,
        lanes: usize,
    ) {
        let nw = F::M.div_ceil(64);
        let mut av = [_mm512_setzero_si512(); LIMBS];
        let mut bv = [_mm512_setzero_si512(); LIMBS];
        for j in 0..nw {
            av[j] = load_chunk(&a[j * n..], base, lanes);
            bv[j] = load_chunk(&b[j * n..], base, lanes);
        }
        let mut even = [_mm512_setzero_si512(); PROD_LIMBS];
        let mut odd = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            for k in 0..nw {
                let pe = _mm512_clmulepi64_epi128(av[j], bv[k], 0x00);
                let po = _mm512_clmulepi64_epi128(av[j], bv[k], 0x11);
                even[j + k] = _mm512_xor_si512(even[j + k], pe);
                odd[j + k] = _mm512_xor_si512(odd[j + k], po);
            }
        }
        reduce_store::<F>(&even, &odd, 2 * nw - 1, out, n, base, lanes);
    }

    /// Up to eight squarings `out[base + t] = a[base + t]²`,
    /// `t < lanes`: two lane-parallel carry-less multiplies per operand
    /// plane.
    ///
    /// # Safety
    /// Same contract as [`mul_chunk`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn sqr_chunk<F: FieldSpec>(
        out: &mut [u64],
        a: &[u64],
        n: usize,
        base: usize,
        lanes: usize,
    ) {
        let nw = F::M.div_ceil(64);
        let mut even = [_mm512_setzero_si512(); PROD_LIMBS];
        let mut odd = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            let av = load_chunk(&a[j * n..], base, lanes);
            // Slots 2j only, in both sets: squaring spreads plane j to
            // product planes 2j (low) and 2j+1 (high).
            even[2 * j] = _mm512_clmulepi64_epi128(av, av, 0x00);
            odd[2 * j] = _mm512_clmulepi64_epi128(av, av, 0x11);
        }
        reduce_store::<F>(&even, &odd, 2 * nw - 1, out, n, base, lanes);
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

    /// Interleaves the `used` even- and odd-element 128-bit accumulators
    /// into low/high product planes in element order, reduces the chunk
    /// **in registers** and stores its `lanes` elements: the same
    /// single-pass fold schedule as
    /// [`reduce_planes`](crate::batch::reduce_planes), one vector
    /// shift + XOR per reduction term per excess plane, touching only
    /// the `2·nw` planes the product actually occupies. Refolding
    /// fields (m − e < 64, the toy F17) take the portable scalar
    /// reduction through a stack round-trip instead.
    ///
    /// # Safety
    /// Same contract as [`mul_chunk`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn reduce_store<F: FieldSpec>(
        even: &[__m512i; PROD_LIMBS],
        odd: &[__m512i; PROD_LIMBS],
        used: usize,
        out: &mut [u64],
        n: usize,
        base: usize,
        lanes: usize,
    ) {
        let nw = F::M.div_ceil(64);
        let planes = 2 * nw;
        // Product plane t = low halves of accumulator t ^ high halves
        // of accumulator t − 1. Lane i of `even` holds element 2i's
        // product and lane i of `odd` element 2i + 1's, so unpacking
        // their low (high) qwords lays the halves out in element order.
        let mut p = [_mm512_setzero_si512(); PROD_LIMBS];
        for (t, pt) in p.iter_mut().enumerate().take(planes) {
            let mut v = _mm512_setzero_si512();
            if t < used {
                v = _mm512_unpacklo_epi64(even[t], odd[t]);
            }
            if t >= 1 && t - 1 < used {
                v = _mm512_xor_si512(v, _mm512_unpackhi_epi64(even[t - 1], odd[t - 1]));
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
                _mm512_mask_storeu_epi64(prod.as_mut_ptr().add(LANES * t).cast(), 0xff, *pt);
            }
            let mut red = [0u64; LANES * LIMBS];
            crate::batch::reduce_planes(&mut prod, &mut red, reduction);
            for j in 0..LIMBS {
                out[j * n + base..j * n + base + lanes]
                    .copy_from_slice(&red[LANES * j..LANES * j + lanes]);
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
        // The low `lanes` qwords hold the chunk's results; a masked
        // store writes only those, never the next chunk's words or,
        // at the end of a plane, the next plane's first ones.
        let mask = lane_mask(lanes);
        for (j, pj) in p.iter().enumerate().take(LIMBS) {
            _mm512_mask_storeu_epi64(out.as_mut_ptr().add(j * n + base).cast(), mask, *pj);
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

    /// Words either side of each output slice, and the fill the whole
    /// buffer starts from: a kernel must overwrite every word of its
    /// slice and leave every word around it alone.
    const GUARD: usize = 8;
    const CANARY: u64 = 0xC0FF_EE00_DEAD_BEEF;

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
        let slice = GUARD..GUARD + LIMBS * n;
        let mut mbuf = vec![CANARY; LIMBS * n + 2 * GUARD];
        mul_batch_planes::<F>(&mut mbuf[slice.clone()], &ap, &bp);
        let mut sbuf = vec![CANARY; LIMBS * n + 2 * GUARD];
        sqr_batch_planes::<F>(&mut sbuf[slice.clone()], &ap);
        for (op, buf) in [("mul", &mbuf), ("sqr", &sbuf)] {
            let outside = buf[..GUARD].iter().chain(&buf[slice.end..]);
            assert!(
                outside.copied().all(|w| w == CANARY),
                "{op} m={} n={n}: wrote outside its slice",
                F::M
            );
        }
        let (mp, sp) = (&mbuf[slice.clone()], &sbuf[slice]);
        for i in 0..n {
            assert_eq!(
                gather::<F>(mp, n, i),
                ModelBackend::mul(&xs[i], &ys[i]),
                "mul m={} n={n} i={i}",
                F::M
            );
            assert_eq!(
                gather::<F>(sp, n, i),
                ModelBackend::square(&xs[i]),
                "sqr m={} n={n} i={i}",
                F::M
            );
        }
    }

    #[test]
    fn vpclmul_matches_model_when_detected() {
        if !hardware_available() {
            eprintln!("skipping: VPCLMULQDQ/AVX512F not detected; scalar fallback covered anyway");
        }
        // Runs on every host: exercises the ZMM path where detected
        // and the scalar fallback elsewhere. Widths 1–7 are a masked
        // chunk alone, 9–15 the same remainders behind a full chunk;
        // F17 takes the refolding round-trip through the stack.
        for n in (0usize..=17).chain([24, 64]) {
            let seed = 51 + n as u64;
            matches_model::<F163>(seed, n);
            matches_model::<F233>(seed ^ 0x100, n);
            matches_model::<F283>(seed ^ 0x200, n);
            matches_model::<F17>(seed ^ 0x300, n);
        }
    }
}
