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
//! The same register-level multiply, square and reduction also run a
//! whole x-only Montgomery ladder ([`FieldBackend::ladder_batch`]):
//! each chunk of up to eight lanes loads X1, Z1, X2, Z2 and x(P) once
//! (the last chunk masked like any other), takes every ladder step in
//! ZMM registers — each lane's key bit a mask register steering masked
//! blends, the madd/mdouble schedule fixed, the two sums of products
//! (x·Z' + a·b and X⁴ + b·Z⁴) reduced once each instead of term by
//! term — and stores once. The per-step body is a lint-checked
//! constant-time region. Before a step, lanes with a leg at infinity
//! (a public fact, found with one vector compare per leg) are spilled
//! to the stack, handed to the caller's rule and patched back in after
//! the step. The batch entry points instead cost one pass over memory
//! and a function call per field operation: on a 2-core AVX-512 host a
//! width-64 K-163 `varbase_x_batch` (normalization included) took
//! 6.0 µs per item through them and 4.1 µs with this kernel.
//!
//! Runtime-gated on `avx512f` + `vpclmulqdq`; hosts without them fall
//! back to the backend's scalar path per element (the ladder to the
//! default schedule over those batch operations), so the backend is
//! correct everywhere and wide where the silicon allows.

// CPU-feature-gated intrinsic calls, guarded by runtime detection —
// the same contract as `crate::clmul`.
#![allow(unsafe_code)]

use crate::backend::{FieldBackend, VpclmulBackend};
use crate::batch::{gather, scatter, LadderLanes};
use crate::field::{Element, FieldSpec};

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

/// The whole lockstep ladder of [`FieldBackend::ladder_batch`]: each
/// chunk of up to eight lanes is loaded into ZMM registers once, runs
/// every step there and is stored once, the last chunk masked to the
/// width's remainder. Hosts without the features, and the refolding
/// toy field, run the default schedule over the batch entry points.
pub(crate) fn ladder_batch_planes<F: FieldSpec>(
    s: &mut LadderLanes<'_>,
    b: &Element<F>,
    mut at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
) {
    let n = s.width();
    #[cfg(target_arch = "x86_64")]
    if hardware_available() && !crate::batch::refolds(F::REDUCTION) {
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: `avx512f` and `vpclmulqdq` were just detected,
            // `width` asserted that all six slices hold `LIMBS * n`
            // words, and `base + lanes <= n`. The kernel's loads and
            // stores are masked to exactly `lanes` words per plane, so
            // lanes past n − 1 in a final chunk of one to seven — the
            // next plane's first words, or memory past a slice — are
            // never read or written.
            unsafe { x86::ladder_chunk::<F>(s, n, b, base, lanes, &mut at_infinity) };
            base += lanes;
        }
        return;
    }
    crate::batch::ladder_steps::<VpclmulBackend, F>(s, b, at_infinity);
}

/// The ZMM kernels, compiled with the features enabled so the
/// intrinsics fold into straight-line vector code.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_and_si512, _mm512_clmulepi64_epi128, _mm512_cmpeq_epi64_mask,
        _mm512_mask_blend_epi64, _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64,
        _mm512_or_si512, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm512_srl_epi64, _mm512_storeu_si512, _mm512_test_epi64_mask, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_cvtsi64_si128,
    };

    use crate::batch::LadderLanes;
    use crate::field::{Element, FieldSpec};
    use crate::{LIMBS, PROD_LIMBS};

    use super::LANES;

    /// One field element per lane of a chunk: limb plane j in `v[j]`,
    /// planes at and above the field's word count zero.
    type Lanes = [__m512i; LIMBS];

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

    /// Loads the chunk's elements from a plane-major batch of width n.
    ///
    /// # Safety
    /// As [`load_chunk`], for every plane below the field's word count.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn load_lanes<F: FieldSpec>(src: &[u64], n: usize, base: usize, lanes: usize) -> Lanes {
        let mut v = [_mm512_setzero_si512(); LIMBS];
        for (j, vj) in v.iter_mut().enumerate().take(F::M.div_ceil(64)) {
            *vj = load_chunk(&src[j * n..], base, lanes);
        }
        v
    }

    /// Stores the chunk's `lanes` elements into every plane of a
    /// plane-major batch of width n; a masked store writes only those
    /// words, never the next chunk's or, at the end of a plane, the
    /// next plane's first ones.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`; `out` must
    /// hold `LIMBS * n` words, with `base + lanes <= n`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn store_lanes(out: &mut [u64], n: usize, base: usize, lanes: usize, v: &Lanes) {
        debug_assert!(out.len() >= LIMBS * n && base + lanes <= n);
        let mask = lane_mask(lanes);
        for (j, vj) in v.iter().enumerate() {
            _mm512_mask_storeu_epi64(out.as_mut_ptr().add(j * n + base).cast(), mask, *vj);
        }
    }

    /// Up to eight products `out[base + t] = a[base + t] * b[base + t]`,
    /// `t < lanes`, over plane-major batches of width `n`.
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
        let av = load_lanes::<F>(a, n, base, lanes);
        let bv = load_lanes::<F>(b, n, base, lanes);
        reduce_store::<F>(&product::<F>(&av, &bv), out, n, base, lanes);
    }

    /// Up to eight squarings `out[base + t] = a[base + t]²`,
    /// `t < lanes`.
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
        let av = load_lanes::<F>(a, n, base, lanes);
        reduce_store::<F>(&square_product::<F>(&av), out, n, base, lanes);
    }

    /// The unreduced products of eight lane pairs as `2·nw` planes in
    /// element order: a schoolbook of `2·nw²` lane-parallel carry-less
    /// multiplies, the even elements' products from the low qword of
    /// each 128-bit lane (`0x00`), the odd elements' from the high
    /// qword (`0x11`).
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn product<F: FieldSpec>(a: &Lanes, b: &Lanes) -> [__m512i; PROD_LIMBS] {
        let nw = F::M.div_ceil(64);
        let mut even = [_mm512_setzero_si512(); PROD_LIMBS];
        let mut odd = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            for k in 0..nw {
                let pe = _mm512_clmulepi64_epi128(a[j], b[k], 0x00);
                let po = _mm512_clmulepi64_epi128(a[j], b[k], 0x11);
                even[j + k] = _mm512_xor_si512(even[j + k], pe);
                odd[j + k] = _mm512_xor_si512(odd[j + k], po);
            }
        }
        interleave::<F>(&even, &odd, 2 * nw - 1)
    }

    /// The unreduced squares of eight lanes: two lane-parallel
    /// carry-less multiplies per operand plane.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn square_product<F: FieldSpec>(a: &Lanes) -> [__m512i; PROD_LIMBS] {
        let nw = F::M.div_ceil(64);
        let mut even = [_mm512_setzero_si512(); PROD_LIMBS];
        let mut odd = [_mm512_setzero_si512(); PROD_LIMBS];
        for j in 0..nw {
            // Slots 2j only, in both sets: squaring spreads plane j to
            // product planes 2j (low) and 2j+1 (high).
            even[2 * j] = _mm512_clmulepi64_epi128(a[j], a[j], 0x00);
            odd[2 * j] = _mm512_clmulepi64_epi128(a[j], a[j], 0x11);
        }
        interleave::<F>(&even, &odd, 2 * nw - 1)
    }

    /// Interleaves the `used` even- and odd-element 128-bit
    /// accumulators into low/high product planes in element order.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn interleave<F: FieldSpec>(
        even: &[__m512i; PROD_LIMBS],
        odd: &[__m512i; PROD_LIMBS],
        used: usize,
    ) -> [__m512i; PROD_LIMBS] {
        // Product plane t = low halves of accumulator t ^ high halves
        // of accumulator t − 1. Lane i of `even` holds element 2i's
        // product and lane i of `odd` element 2i + 1's, so unpacking
        // their low (high) qwords lays the halves out in element order.
        let mut p = [_mm512_setzero_si512(); PROD_LIMBS];
        for (t, pt) in p.iter_mut().enumerate().take(2 * F::M.div_ceil(64)) {
            let mut v = _mm512_setzero_si512();
            if t < used {
                v = _mm512_unpacklo_epi64(even[t], odd[t]);
            }
            if t >= 1 && t - 1 < used {
                v = _mm512_xor_si512(v, _mm512_unpackhi_epi64(even[t - 1], odd[t - 1]));
            }
            *pt = v;
        }
        p
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

    /// Reduces eight unreduced products **in registers**: the same
    /// single-pass fold schedule as
    /// [`reduce_planes`](crate::batch::reduce_planes), one vector
    /// shift + XOR per reduction term per excess plane, touching only
    /// the `2·nw` planes the product actually occupies. Only for fields
    /// whose folds never land back in their source plane (m − e ≥ 64),
    /// that is every field but the toy F17.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn reduce<F: FieldSpec>(mut p: [__m512i; PROD_LIMBS]) -> Lanes {
        let m = F::M;
        let reduction = F::REDUCTION;
        debug_assert!(!crate::batch::refolds(reduction));
        let planes = 2 * m.div_ceil(64);
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
            // zero.
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
        // Planes nw..LIMBS stay zero: canonical elements.
        let mut out = [_mm512_setzero_si512(); LIMBS];
        out.copy_from_slice(&p[..LIMBS]);
        out
    }

    /// Reduces eight unreduced products and stores the chunk's `lanes`
    /// elements. Refolding fields (m − e < 64, the toy F17) take the
    /// portable scalar reduction through a stack round-trip instead.
    ///
    /// # Safety
    /// Same contract as [`mul_chunk`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn reduce_store<F: FieldSpec>(
        p: &[__m512i; PROD_LIMBS],
        out: &mut [u64],
        n: usize,
        base: usize,
        lanes: usize,
    ) {
        if crate::batch::refolds(F::REDUCTION) {
            // Refolding field: spill to the stack and run the portable
            // per-element reduction (correctness path, not a hot one).
            let mut prod = [0u64; LANES * PROD_LIMBS];
            for (t, pt) in p.iter().enumerate() {
                _mm512_storeu_si512(prod.as_mut_ptr().add(LANES * t).cast(), *pt);
            }
            let mut red = [0u64; LANES * LIMBS];
            crate::batch::reduce_planes(&mut prod, &mut red, F::REDUCTION);
            for j in 0..LIMBS {
                out[j * n + base..j * n + base + lanes]
                    .copy_from_slice(&red[LANES * j..LANES * j + lanes]);
            }
            return;
        }
        store_lanes(out, n, base, lanes, &reduce::<F>(*p));
    }

    /// Field multiplication on eight lanes in registers.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn mul<F: FieldSpec>(a: &Lanes, b: &Lanes) -> Lanes {
        reduce::<F>(product::<F>(a, b))
    }

    /// Field squaring on eight lanes in registers.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn sqr<F: FieldSpec>(a: &Lanes) -> Lanes {
        reduce::<F>(square_product::<F>(a))
    }

    /// Field addition (XOR) on eight lanes.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn add(a: &Lanes, b: &Lanes) -> Lanes {
        let mut v = *a;
        for (vj, bj) in v.iter_mut().zip(b) {
            *vj = _mm512_xor_si512(*vj, *bj);
        }
        v
    }

    /// The ladder's cswap on eight lanes: exchange lane t of `a` and
    /// `b` where bit t of `k` is set. A masked blend takes the same
    /// time whatever the mask.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn cswap(k: __mmask8, a: &mut Lanes, b: &mut Lanes) {
        for (aj, bj) in a.iter_mut().zip(b.iter_mut()) {
            let (x, y) = (*aj, *bj);
            *aj = _mm512_mask_blend_epi64(k, x, y);
            *bj = _mm512_mask_blend_epi64(k, y, x);
        }
    }

    /// Sum of two unreduced products: reducing the sum once costs half
    /// of reducing each (reduction is linear).
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn add_wide(
        mut a: [__m512i; PROD_LIMBS],
        b: &[__m512i; PROD_LIMBS],
    ) -> [__m512i; PROD_LIMBS] {
        for (aj, bj) in a.iter_mut().zip(b) {
            *aj = _mm512_xor_si512(*aj, *bj);
        }
        a
    }

    /// Mixed differential addition on eight lanes:
    /// `(X2 : Z2) ← x(R + Q)`.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn madd<F: FieldSpec>(
        x1: &Lanes,
        z1: &Lanes,
        x2: &mut Lanes,
        z2: &mut Lanes,
        px: &Lanes,
    ) {
        let a = mul::<F>(x1, z2); // X1·Z2
        let b = mul::<F>(x2, z1); // X2·Z1
        *z2 = sqr::<F>(&add(&a, &b)); // Z' = (a + b)²
                                      // X' = x·Z' + a·b, one reduction for both products.
        *x2 = reduce::<F>(add_wide(product::<F>(px, z2), &product::<F>(&a, &b)));
    }

    /// Projective doubling on eight lanes: `(X1 : Z1) ← x(2R)`, with a
    /// squaring in place of the `b` multiplication when `b = 1` (a
    /// curve constant).
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn mdouble<F: FieldSpec>(x: &mut Lanes, z: &mut Lanes, b: &Lanes, b_is_one: bool) {
        let x2 = sqr::<F>(x);
        let z2 = sqr::<F>(z);
        *z = mul::<F>(&x2, &z2); // Z' = X²·Z²
                                 // X' = X⁴ + b·Z⁴, one reduction for both terms.
        let bz4 = if b_is_one {
            square_product::<F>(&z2)
        } else {
            product::<F>(b, &sqr::<F>(&z2))
        };
        *x = reduce::<F>(add_wide(square_product::<F>(&x2), &bz4));
    }

    /// Lanes of `v` that hold the zero element.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn zero_lanes(v: &Lanes) -> __mmask8 {
        let any = v
            .iter()
            .fold(_mm512_setzero_si512(), |acc, vj| _mm512_or_si512(acc, *vj));
        _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512())
    }

    /// The chunk's legs spilled to the stack, lane-addressable:
    /// `w[c][j][t]` is limb j of coordinate c (X1, Z1, X2, Z2) of lane t.
    type Spill = [[[u64; LANES]; LIMBS]; 4];

    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn spill(legs: [&Lanes; 4]) -> Spill {
        let mut w = [[[0u64; LANES]; LIMBS]; 4];
        for (wc, leg) in w.iter_mut().zip(legs) {
            for (wj, vj) in wc.iter_mut().zip(leg) {
                _mm512_storeu_si512(wj.as_mut_ptr().cast(), *vj);
            }
        }
        w
    }

    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn fill(w: &Spill, legs: [&mut Lanes; 4]) {
        for (wc, leg) in w.iter().zip(legs) {
            for (wj, vj) in wc.iter().zip(leg.iter_mut()) {
                *vj = _mm512_maskz_loadu_epi64(0xff, wj.as_ptr().cast());
            }
        }
    }

    fn lane_legs<F: FieldSpec>(w: &Spill, t: usize) -> [Element<F>; 4] {
        core::array::from_fn(|c| Element::from_raw_limbs(core::array::from_fn(|j| w[c][j][t])))
    }

    fn set_lane_legs<F: FieldSpec>(w: &mut Spill, t: usize, legs: &[Element<F>; 4]) {
        for (wc, leg) in w.iter_mut().zip(legs) {
            for (wj, l) in wc.iter_mut().zip(leg.limbs()) {
                wj[t] = *l;
            }
        }
    }

    /// Lanes `base..base + lanes` of a lockstep ladder, start to
    /// finish in registers: one masked load per plane, every step's
    /// swaps, madd and mdouble on ZMM values, one masked store per
    /// plane. A lane with a leg at infinity before a step (a public
    /// fact) is spilled, handed to `at_infinity`, and patched back in
    /// after the step.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`; `s` must
    /// hold `LIMBS * n` words in every slice, with `1 <= lanes <= 8`,
    /// `base + lanes <= n`, `s.steps <= 64 * LIMBS`, and the field
    /// must not refold.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn ladder_chunk<F: FieldSpec>(
        s: &mut LadderLanes<'_>,
        n: usize,
        b: &Element<F>,
        base: usize,
        lanes: usize,
        at_infinity: &mut impl FnMut(bool, &mut [Element<F>; 4]),
    ) {
        let mask = lane_mask(lanes);
        let mut x1 = load_lanes::<F>(s.x1, n, base, lanes);
        let mut z1 = load_lanes::<F>(s.z1, n, base, lanes);
        let mut x2 = load_lanes::<F>(s.x2, n, base, lanes);
        let mut z2 = load_lanes::<F>(s.z2, n, base, lanes);
        let px = load_lanes::<F>(s.px, n, base, lanes);
        let mut bv = [_mm512_setzero_si512(); LIMBS];
        for (bj, l) in bv.iter_mut().zip(b.limbs()) {
            *bj = _mm512_set1_epi64(*l as i64);
        }
        let b_is_one = *b == Element::one();
        let mut key = _mm512_setzero_si512();
        for step in 0..s.steps {
            let shift = step % 64;
            if shift == 0 {
                key = load_chunk(&s.keys[(step / 64) * n..], base, lanes);
            }
            let bit = _mm512_set1_epi64((1u64 << shift) as i64);
            // Public: lanes with a leg at infinity. Masked-off lanes
            // load as zeros and are cleared from the mask, so they
            // never count.
            let inf = (zero_lanes(&z1) | zero_lanes(&z2)) & mask;
            let k = _mm512_test_epi64_mask(key, bit);
            let mut fixes = None;
            if inf != 0 {
                let mut w = spill([&x1, &z1, &x2, &z2]);
                for t in (0..LANES).filter(|t| (inf >> t) & 1 == 1) {
                    let mut legs = lane_legs::<F>(&w, t);
                    at_infinity((k >> t) & 1 == 1, &mut legs);
                    set_lane_legs(&mut w, t, &legs);
                }
                fixes = Some(w);
            }
            // lint: ct-begin — one ladder step on eight lanes: each
            // lane's key bit only steers its masked blends, and the
            // madd/mdouble operation sequence is the same whatever the
            // bits are.
            cswap(k, &mut x1, &mut x2);
            cswap(k, &mut z1, &mut z2);
            madd::<F>(&x1, &z1, &mut x2, &mut z2, &px);
            mdouble::<F>(&mut x1, &mut z1, &bv, b_is_one);
            cswap(k, &mut x1, &mut x2);
            cswap(k, &mut z1, &mut z2);
            // lint: ct-end
            if let Some(fixed) = fixes {
                // The exceptional lanes take their rule's legs, every
                // other lane keeps the step's.
                let mut w = spill([&x1, &z1, &x2, &z2]);
                for t in (0..LANES).filter(|t| (inf >> t) & 1 == 1) {
                    set_lane_legs(&mut w, t, &lane_legs::<F>(&fixed, t));
                }
                fill(&w, [&mut x1, &mut z1, &mut x2, &mut z2]);
            }
        }
        store_lanes(s.x1, n, base, lanes, &x1);
        store_lanes(s.z1, n, base, lanes, &z1);
        store_lanes(s.x2, n, base, lanes, &x2);
        store_lanes(s.z2, n, base, lanes, &z2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ModelBackend;
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

    /// One call of the at-infinity rule: the key bit, and the legs
    /// before and after.
    type RuleCall = (bool, [[u64; LIMBS]; 4], [[u64; LIMBS]; 4]);

    /// The x-only ladder's rule for a leg at infinity (R = O: Q ← 2Q
    /// after R ← Q when the bit is set; Q = O: R ← 2R after Q ← R when
    /// it is clear), in model arithmetic, recording every call.
    fn infinity_rule<F: FieldSpec>(
        b: Element<F>,
        calls: &mut Vec<RuleCall>,
    ) -> impl FnMut(bool, &mut [Element<F>; 4]) + '_ {
        move |bit, legs| {
            let before = legs.map(|e| *e.limbs());
            let double = |x: Element<F>, z: Element<F>| {
                let (x2, z2) = (ModelBackend::square(&x), ModelBackend::square(&z));
                let z4 = ModelBackend::square(&z2);
                let x4 = ModelBackend::square(&x2);
                (x4 + ModelBackend::mul(&b, &z4), ModelBackend::mul(&x2, &z2))
            };
            let [x1, z1, x2, z2] = legs;
            if z1.is_zero() {
                if bit {
                    (*x1, *z1) = (*x2, *z2);
                    (*x2, *z2) = double(*x1, *z1);
                }
            } else if !bit {
                (*x2, *z2) = (*x1, *z1);
                (*x1, *z1) = double(*x2, *z2);
            }
            calls.push((bit, before, legs.map(|e| *e.limbs())));
        }
    }

    /// A lockstep ladder state of width n with every leg carved from
    /// its own canary-guarded buffer.
    struct GuardedLadder {
        legs: [Vec<u64>; 4],
        px: Vec<u64>,
        keys: Vec<u64>,
        n: usize,
    }

    impl GuardedLadder {
        fn random<F: FieldSpec>(r: &mut impl FnMut() -> u64, n: usize) -> Self {
            let mut plane = |guard: bool| {
                let mut v = vec![if guard { CANARY } else { 0 }; LIMBS * n + 2 * GUARD];
                for i in 0..n {
                    scatter(
                        &mut v[GUARD..GUARD + LIMBS * n],
                        n,
                        i,
                        &Element::<F>::random(&mut *r),
                    );
                }
                v
            };
            let legs = [plane(true), plane(true), plane(true), plane(true)];
            let px = plane(false)[GUARD..GUARD + LIMBS * n].to_vec();
            let keys = (0..LIMBS * n).map(|_| r()).collect();
            GuardedLadder { legs, px, keys, n }
        }

        fn run<B: FieldBackend, F: FieldSpec>(
            &mut self,
            steps: usize,
            b: &Element<F>,
            rule: impl FnMut(bool, &mut [Element<F>; 4]),
        ) {
            let slice = GUARD..GUARD + LIMBS * self.n;
            let [x1, z1, x2, z2] = &mut self.legs;
            let mut lanes = LadderLanes {
                x1: &mut x1[slice.clone()],
                z1: &mut z1[slice.clone()],
                x2: &mut x2[slice.clone()],
                z2: &mut z2[slice],
                px: &self.px,
                keys: &self.keys,
                steps,
            };
            B::ladder_batch::<F>(&mut lanes, b, rule);
            for (c, leg) in self.legs.iter().enumerate() {
                let outside = leg[..GUARD].iter().chain(&leg[GUARD + LIMBS * self.n..]);
                assert!(
                    outside.copied().all(|w| w == CANARY),
                    "m={} n={} leg {c}: wrote outside its slice",
                    F::M,
                    self.n
                );
            }
        }

        /// Zeroes leg `c` (1 = Z1, 3 = Z2) of lane `i`.
        fn zero(&mut self, c: usize, i: usize) {
            for j in 0..LIMBS {
                self.legs[c][GUARD + j * self.n + i] = 0;
            }
        }
    }

    /// The ZMM ladder kernel against `ModelBackend`'s default schedule
    /// from the same random state: equal legs and equal at-infinity
    /// calls after `steps` steps, and again after zeroing Z1 or Z2 in
    /// some lanes — one in the first, full chunk and the last lane,
    /// which sits in the masked last chunk unless 8 divides n.
    fn ladder_matches_model<F: FieldSpec>(seed: u64, n: usize, b: Element<F>) {
        const STEPS: usize = 12;
        let mut r = rng_from(seed);
        let mut model = GuardedLadder::random::<F>(&mut r, n);
        let mut fast = GuardedLadder {
            legs: model.legs.clone(),
            px: model.px.clone(),
            keys: model.keys.clone(),
            n,
        };
        let mut zeroes = vec![(1, n - 1)];
        if n >= 9 {
            zeroes.push((3, 2));
        } else if n >= 2 {
            zeroes.push((3, 0));
        }
        for phase in 0..2 {
            if phase == 1 {
                for &(c, i) in &zeroes {
                    model.zero(c, i);
                    fast.zero(c, i);
                }
            }
            let (mut want, mut got) = (Vec::new(), Vec::new());
            model.run::<ModelBackend, F>(STEPS, &b, infinity_rule(b, &mut want));
            fast.run::<VpclmulBackend, F>(STEPS, &b, infinity_rule(b, &mut got));
            assert_eq!(
                fast.legs,
                model.legs,
                "m={} n={n} phase {phase}: legs",
                F::M
            );
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(
                got,
                want,
                "m={} n={n} phase {phase}: at-infinity calls",
                F::M
            );
            assert_eq!(
                want.is_empty(),
                phase == 0,
                "m={} n={n} phase {phase}",
                F::M
            );
        }
    }

    #[test]
    fn ladder_kernel_matches_model_schedule() {
        // B-163's b, and b = 1 (the Koblitz curves).
        let b163 = "20a601907b8c953ca1481eb10512f78744a3205fd";
        for n in (1usize..=9).chain(15..=17).chain(63..=65) {
            let seed = 0x1add + n as u64;
            ladder_matches_model::<F163>(seed, n, Element::one());
            ladder_matches_model::<F163>(seed, n, Element::from_hex(b163).unwrap());
            ladder_matches_model::<F233>(seed ^ 0x100, n, Element::one());
            ladder_matches_model::<F233>(seed ^ 0x100, n, Element::from_hex(b163).unwrap());
            ladder_matches_model::<F283>(seed ^ 0x200, n, Element::one());
            ladder_matches_model::<F283>(seed ^ 0x200, n, Element::from_hex(b163).unwrap());
        }
    }
}
