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
//! 4. the sparse reduction folds those planes **in registers**, in one
//!    descending pass whose schedule is fixed by the field, each fold
//!    one vector shift + XOR across the eight elements;
//! 5. `_mm512_mask_storeu_epi64` writes the chunk's elements back to
//!    each output plane.
//!
//! A batch whose width r is not a multiple of eight ends in a chunk of
//! one to seven elements. It runs the same kernel with the load and
//! store masks cut to `(1 << r) − 1`, so the chunk reads and writes
//! exactly its own words. Ragged widths are the common case at the
//! gateway (a hub lane's tapered chunks end in widths of one to three),
//! and a masked chunk costs about what a full one does: on a 2-core
//! AVX-512
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
//! A regular signed fixed-base comb runs the same way
//! ([`FieldBackend::comb_batch`]): each chunk loads X, Y and Z once,
//! and every column — a masked broadcast of every table entry into the
//! lanes whose digit selects it, a masked negation, the López–Dahab
//! doubling and mixed addition with the sums of products reduced once,
//! and masked blends for a lane at infinity or equal to its entry —
//! runs on ZMM values inside a lint-checked constant-time region,
//! before one store per coordinate. There are no exceptional lanes to
//! spill: the fixes are masks. On a 2-core AVX-512 host a width-64
//! K-163 `generator_mul_batch` (recoding and normalization included)
//! took 2.2 µs per item, against 3.4 µs for the variable-time Lim–Lee
//! comb it replaced, which ran on the batch entry points.
//!
//! The one-pass fold needs every folded bit to land below its source
//! plane (m − e ≥ 64 for the largest tail exponent e), which holds on
//! every NIST field here. The refolding toy field F(2^17) never enters
//! the kernels: its batches take the backend's scalar path per element
//! and its ladders the default schedule over those batch operations. A
//! chunk of it spilled to the stack for the portable reduction cost
//! 570–660 ns per width-1 `mul_planes` on a 2-core AVX-512 host; the
//! scalar path costs 33–45 ns.
//!
//! The kernels run on the `vpclmul` tier ([`select_backend`], which
//! CPUID sets to it where it reports `avx512f`, `vpclmulqdq` and
//! `pclmulqdq`); below it the same entry points take the scalar path
//! per element and the default ladder and comb schedules, so the
//! backend is correct everywhere and wide where the silicon allows.

// CPU-feature-gated intrinsic calls, guarded by the tier CPUID set —
// the same contract as `crate::clmul`.
#![allow(unsafe_code)]

use crate::backend::{select_backend, BackendChoice, FieldBackend, VpclmulBackend};
use crate::batch::{gather, scatter, CombLanes, LadderLanes};
use crate::field::{Element, FieldSpec};

/// Elements per `VPCLMULQDQ` chunk: two per 128-bit lane of a ZMM.
pub const LANES: usize = 8;

/// Whether the AVX-512 `VPCLMULQDQ` kernels run: the process's tier
/// ([`select_backend`]) is `vpclmul`, which it is only where CPUID
/// reported `avx512f`, `vpclmulqdq` and `pclmulqdq`. Always `false` off
/// x86-64.
#[inline]
pub fn hardware_available() -> bool {
    select_backend() == BackendChoice::Vpclmul
}

/// Batched plane-major multiplication: every chunk of up to eight
/// elements runs on the ZMM path on the `vpclmul` tier, the last one
/// masked to the width's remainder; lower tiers, and the refolding toy
/// field, take the backend's scalar path per element.
pub(crate) fn mul_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = crate::batch::width(out);
    #[cfg(target_arch = "x86_64")]
    if hardware_available() && !crate::batch::refolds(F::REDUCTION) {
        // The kernel reads `a` and `b` by raw pointer: their lengths
        // must be checked here, not only in debug builds.
        assert!(a.len() == out.len() && b.len() == out.len());
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: the tier is `vpclmul`, so CPUID reported `avx512f`
            // and `vpclmulqdq`; the field does not refold, all three
            // slices hold at least `LIMBS * n` words (the assert above
            // and `width`), and `base + lanes <= n`. The kernel's load and store masks
            // enable exactly `lanes` words per plane, so a final chunk
            // of one to seven never touches the words past element
            // n − 1 of a plane: the next plane's first elements, or
            // memory past the slice.
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
    if hardware_available() && !crate::batch::refolds(F::REDUCTION) {
        assert_eq!(a.len(), out.len());
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: the tier is `vpclmul`, so CPUID reported `avx512f`
            // and `vpclmulqdq`; the field does not refold, both slices
            // hold at least `LIMBS * n` words (the assert above and
            // `width`), and `base + lanes <= n`; as in
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
/// width's remainder. Lower tiers, and the refolding toy field, run the
/// default schedule over the batch entry points.
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
            // SAFETY: the tier is `vpclmul`, so CPUID reported `avx512f`
            // and `vpclmulqdq`; `width` asserted that all six slices
            // hold `LIMBS * n` words, and `base + lanes <= n`. The kernel's loads and
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

/// The whole comb of [`FieldBackend::comb_batch`]: each chunk of up to
/// eight lanes is loaded into ZMM registers once, runs every column
/// there and is stored once, the last chunk masked to the width's
/// remainder. Lower tiers, and the refolding toy field, run the default
/// schedule over the batch entry points.
pub(crate) fn comb_batch_planes<F: FieldSpec>(
    s: &mut CombLanes<'_>,
    table: &[[Element<F>; 4]],
    a: &Element<F>,
    b: &Element<F>,
) {
    let n = s.width();
    let top = crate::batch::comb_top_bit(table.len());
    #[cfg(target_arch = "x86_64")]
    if hardware_available() && !crate::batch::refolds(F::REDUCTION) {
        let mut base = 0;
        while base < n {
            let lanes = LANES.min(n - base);
            // SAFETY: the tier is `vpclmul`, so CPUID reported `avx512f`
            // and `vpclmulqdq`; `width` asserted that the coordinate
            // slices hold `LIMBS * n` words and the digits
            // `columns * n`, and `base + lanes <= n`. The kernel's loads and stores are
            // masked to exactly `lanes` words per plane, so lanes past
            // n − 1 in a final chunk of one to seven are never read or
            // written.
            unsafe { x86::comb_chunk::<F>(s, n, table, top, a, b, base, lanes) };
            base += lanes;
        }
        return;
    }
    crate::batch::comb_steps::<VpclmulBackend, F>(s, table, a, b);
}

/// The ZMM kernels, compiled with the features enabled so the
/// intrinsics fold into straight-line vector code.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_and_si512, _mm512_clmulepi64_epi128, _mm512_cmpeq_epi64_mask,
        _mm512_mask_blend_epi64, _mm512_mask_set1_epi64, _mm512_mask_storeu_epi64,
        _mm512_mask_xor_epi64, _mm512_maskz_loadu_epi64, _mm512_or_si512, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_sll_epi64, _mm512_srl_epi64, _mm512_storeu_si512,
        _mm512_test_epi64_mask, _mm512_testn_epi64_mask, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_cvtsi64_si128,
    };

    use crate::batch::{CombLanes, LadderLanes};
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
    /// `base + lanes <= n`, and the field must not refold.
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
        store_lanes(out, n, base, lanes, &mul::<F>(&av, &bv));
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
        store_lanes(out, n, base, lanes, &sqr::<F>(&av));
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

    /// Reduces eight unreduced products **in registers**: one vector
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
        // Whole planes above the boundary word, highest first. Because
        // m − e ≥ 64, every fold writes strictly below its source
        // plane, so one descending pass settles everything down to
        // plane `mw`; when m is a limb multiple, plane `mw` itself lies
        // above the field and folds as a whole plane too.
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

    /// An element in every lane.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn broadcast<F: FieldSpec>(e: &Element<F>) -> Lanes {
        let mut v = [_mm512_setzero_si512(); LIMBS];
        for (vj, l) in v.iter_mut().zip(e.limbs()) {
            *vj = _mm512_set1_epi64(*l as i64);
        }
        v
    }

    /// Lanes of `a` where `k` is clear, of `b` where it is set. A
    /// masked blend takes the same time whatever the mask.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn blend(k: __mmask8, a: &Lanes, b: &Lanes) -> Lanes {
        let mut v = *a;
        for (vj, bj) in v.iter_mut().zip(b) {
            *vj = _mm512_mask_blend_epi64(k, *vj, *bj);
        }
        v
    }

    /// A curve constant of the comb in every lane, and how the column
    /// multiplies by it: not at all when 0, an addition when 1, else a
    /// product. Curve constants are public.
    struct Constant {
        v: Lanes,
        zero: bool,
        one: bool,
    }

    impl Constant {
        /// # Safety
        /// Caller must have detected `avx512f` + `vpclmulqdq`.
        #[target_feature(enable = "avx512f,vpclmulqdq")]
        unsafe fn of<F: FieldSpec>(c: &Element<F>) -> Self {
            Constant {
                v: broadcast(c),
                zero: c.is_zero(),
                one: *c == Element::one(),
            }
        }

        /// `acc + c·v`.
        ///
        /// # Safety
        /// Caller must have detected `avx512f` + `vpclmulqdq`.
        #[inline]
        #[target_feature(enable = "avx512f,vpclmulqdq")]
        unsafe fn add_times<F: FieldSpec>(&self, acc: &Lanes, v: &Lanes) -> Lanes {
            if self.zero {
                *acc
            } else if self.one {
                add(acc, v)
            } else {
                add(acc, &mul::<F>(&self.v, v))
            }
        }

        /// `c·v`.
        ///
        /// # Safety
        /// Caller must have detected `avx512f` + `vpclmulqdq`.
        #[inline]
        #[target_feature(enable = "avx512f,vpclmulqdq")]
        unsafe fn times<F: FieldSpec>(&self, v: &Lanes) -> Lanes {
            if self.one {
                *v
            } else {
                mul::<F>(&self.v, v)
            }
        }
    }

    /// Each lane's entry for the column steered by `digit`: every
    /// entry of the table is broadcast under the mask of the lanes
    /// whose index matches, then the lanes whose top tooth is negative
    /// add x to y — `[x, y, x(2·), y(2·)]` of the signed entry.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn select_entry<F: FieldSpec>(
        digit: __m512i,
        table: &[[Element<F>; 4]],
        top: u32,
    ) -> [Lanes; 4] {
        // lint: ct-begin — the digits steer masks only.
        let nw = F::M.div_ceil(64);
        let neg = _mm512_testn_epi64_mask(digit, _mm512_set1_epi64((1u64 << top) as i64));
        let flipped = _mm512_mask_xor_epi64(digit, neg, digit, _mm512_set1_epi64(-1));
        let idx = _mm512_and_si512(flipped, _mm512_set1_epi64(((1u64 << top) - 1) as i64));
        let mut e = [[_mm512_setzero_si512(); LIMBS]; 4];
        for (m, entry) in (0i64..).zip(table) {
            let hit = _mm512_cmpeq_epi64_mask(idx, _mm512_set1_epi64(m));
            for (ec, coordinate) in e.iter_mut().zip(entry) {
                for (v, l) in ec.iter_mut().zip(coordinate.limbs()).take(nw) {
                    *v = _mm512_mask_set1_epi64(*v, hit, *l as i64);
                }
            }
        }
        let [ex, ey, edx, edy] = &mut e;
        for (y, x) in ey.iter_mut().zip(ex.iter()) {
            *y = _mm512_mask_xor_epi64(*y, neg, *y, *x);
        }
        for (y, x) in edy.iter_mut().zip(edx.iter()) {
            *y = _mm512_mask_xor_epi64(*y, neg, *y, *x);
        }
        // lint: ct-end
        e
    }

    /// One comb column on eight lanes: López–Dahab doubling, then the
    /// mixed addition of entry `e` with its masked fixes (see
    /// [`FieldBackend::comb_batch`]), products summed before one
    /// reduction where two meet.
    ///
    /// [`FieldBackend::comb_batch`]: crate::backend::FieldBackend::comb_batch
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`, and the
    /// field must not refold.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn comb_column<F: FieldSpec>(
        p: &mut [Lanes; 3],
        e: &[Lanes; 4],
        a: &Constant,
        b: &Constant,
        one: &Lanes,
    ) {
        // lint: ct-begin — the same operation sequence on every lane;
        // the fixes are masked blends.
        let [x, y, z] = p;
        let [ex, ey, edx, edy] = e;
        // Doubling: Z₁ = X²·Z², X₁ = X⁴ + b·Z⁴,
        // Y₁ = b·Z⁴·Z₁ + X₁·(a·Z₁ + Y² + b·Z⁴).
        let x2 = sqr::<F>(x);
        let zz = sqr::<F>(z);
        let z1 = mul::<F>(&x2, &zz);
        let bz4 = b.times::<F>(&sqr::<F>(&zz));
        let x1 = add(&sqr::<F>(&x2), &bz4);
        let u = a.add_times::<F>(&add(&sqr::<F>(y), &bz4), &z1);
        let y1 = reduce::<F>(add_wide(product::<F>(&bz4, &z1), &product::<F>(&x1, &u)));
        // Mixed addition of (x₂, y₂).
        let aa = add(&y1, &mul::<F>(ey, &sqr::<F>(&z1)));
        let bb = add(&x1, &mul::<F>(ex, &z1));
        let at_infinity = zero_lanes(&z1);
        let equal = zero_lanes(&aa) & zero_lanes(&bb);
        let c = mul::<F>(&bb, &z1);
        let z3 = sqr::<F>(&c);
        let d = mul::<F>(ex, &z3);
        let v = a.add_times::<F>(&add(&aa, &sqr::<F>(&bb)), &c);
        let x3 = reduce::<F>(add_wide(square_product::<F>(&aa), &product::<F>(&c, &v)));
        let w = add(&mul::<F>(&aa, &c), &z3);
        let y3 = reduce::<F>(add_wide(
            product::<F>(&add(&d, &x3), &w),
            &product::<F>(&add(ey, ex), &sqr::<F>(&z3)),
        ));
        *x = blend(at_infinity, &blend(equal, &x3, edx), ex);
        *y = blend(at_infinity, &blend(equal, &y3, edy), ey);
        *z = blend(at_infinity | equal, &z3, one);
        // lint: ct-end
    }

    /// Lanes `base..base + lanes` of a comb, start to finish in
    /// registers: one masked load per plane, every column's masked
    /// table scan, doubling and addition on ZMM values, one masked
    /// store per plane.
    ///
    /// # Safety
    /// Caller must have detected `avx512f` + `vpclmulqdq`; `s` must
    /// hold `LIMBS * n` words in every coordinate slice and
    /// `s.columns * n` digits, with `1 <= lanes <= 8`,
    /// `base + lanes <= n`, and the field must not refold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) unsafe fn comb_chunk<F: FieldSpec>(
        s: &mut CombLanes<'_>,
        n: usize,
        table: &[[Element<F>; 4]],
        top: u32,
        a: &Element<F>,
        b: &Element<F>,
        base: usize,
        lanes: usize,
    ) {
        let mut p = [
            load_lanes::<F>(s.x, n, base, lanes),
            load_lanes::<F>(s.y, n, base, lanes),
            load_lanes::<F>(s.z, n, base, lanes),
        ];
        let (a, b) = (Constant::of(a), Constant::of(b));
        let one = broadcast(&Element::<F>::one());
        for col in 0..s.columns {
            let digit = load_chunk(&s.digits[col * n..], base, lanes);
            let e = select_entry::<F>(digit, table, top);
            comb_column::<F>(&mut p, &e, &a, &b, &one);
        }
        let [x, y, z] = &p;
        store_lanes(s.x, n, base, lanes, x);
        store_lanes(s.y, n, base, lanes, y);
        store_lanes(s.z, n, base, lanes, z);
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
            eprintln!("tier below vpclmul: the scalar fallback runs instead of the ZMM path");
        }
        // Runs on every tier: exercises the ZMM path on `vpclmul` and
        // the scalar fallback below it. Widths 1–7 are a masked
        // chunk alone, 9–15 the same remainders behind a full chunk;
        // F17 takes the scalar path per element.
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

    /// A comb state of width n with every coordinate carved from its
    /// own canary-guarded buffer, a table of `entries` entries and
    /// `columns` digit words per lane.
    struct GuardedComb<F: FieldSpec> {
        coords: [Vec<u64>; 3],
        digits: Vec<u64>,
        table: Vec<[Element<F>; 4]>,
        columns: usize,
        n: usize,
    }

    impl<F: FieldSpec> GuardedComb<F> {
        fn random(r: &mut impl FnMut() -> u64, n: usize, entries: usize, columns: usize) -> Self {
            let mut plane = || {
                let mut v = vec![CANARY; LIMBS * n + 2 * GUARD];
                for i in 0..n {
                    let e = Element::<F>::random(&mut *r);
                    scatter(&mut v[GUARD..GUARD + LIMBS * n], n, i, &e);
                }
                v
            };
            let coords = [plane(), plane(), plane()];
            let digits = (0..columns * n).map(|_| r()).collect();
            let table = (0..entries)
                .map(|_| core::array::from_fn(|_| Element::random(&mut *r)))
                .collect();
            GuardedComb {
                coords,
                digits,
                table,
                columns,
                n,
            }
        }

        fn get(&self, c: usize, i: usize) -> Element<F> {
            gather(&self.coords[c][GUARD..GUARD + LIMBS * self.n], self.n, i)
        }

        fn set(&mut self, c: usize, i: usize, e: &Element<F>) {
            let n = self.n;
            scatter(&mut self.coords[c][GUARD..GUARD + LIMBS * n], n, i, e);
        }

        fn run<B: FieldBackend>(&mut self, a: &Element<F>, b: &Element<F>) {
            let slice = GUARD..GUARD + LIMBS * self.n;
            let [x, y, z] = &mut self.coords;
            let mut lanes = CombLanes {
                x: &mut x[slice.clone()],
                y: &mut y[slice.clone()],
                z: &mut z[slice],
                digits: &self.digits,
                columns: self.columns,
            };
            B::comb_batch::<F>(&mut lanes, &self.table, a, b);
            for (c, coord) in self.coords.iter().enumerate() {
                let outside = coord[..GUARD]
                    .iter()
                    .chain(&coord[GUARD + LIMBS * self.n..]);
                assert!(
                    outside.copied().all(|w| w == CANARY),
                    "m={} n={} coordinate {c}: wrote outside its slice",
                    F::M,
                    self.n
                );
            }
        }
    }

    /// Lane i's accumulator after the column's doubling, in affine
    /// coordinates, by the López–Dahab formula in model arithmetic.
    fn doubled_affine<F: FieldSpec>(
        st: &GuardedComb<F>,
        i: usize,
        a: Element<F>,
        b: Element<F>,
    ) -> (Element<F>, Element<F>) {
        let (sq, mul) = (ModelBackend::square::<F>, ModelBackend::mul::<F>);
        let (x, y, z) = (st.get(0, i), st.get(1, i), st.get(2, i));
        let x2 = sq(&x);
        let z2 = sq(&z);
        let z3 = mul(&x2, &z2);
        let bz4 = mul(&b, &sq(&z2));
        let x3 = sq(&x2) + bz4;
        let y3 = mul(&bz4, &z3) + mul(&x3, &(mul(&a, &z3) + sq(&y) + bz4));
        let zinv = z3.inverse().expect("doubled lane is finite");
        (mul(&x3, &zinv), mul(&y3, &sq(&zinv)))
    }

    /// Points lane i's first column at table entry `e`, with sign
    /// `positive`, and sets that entry so that the signed entry equals
    /// the lane's doubled accumulator (`negate` false) or its negative.
    fn force_lane<F: FieldSpec>(
        st: &mut GuardedComb<F>,
        i: usize,
        e: usize,
        positive: bool,
        negate: bool,
        a: Element<F>,
        b: Element<F>,
    ) {
        let top = st.table.len().trailing_zeros();
        let low = (1u64 << top) - 1;
        let index = if positive {
            e as u64
        } else {
            !(e as u64) & low
        };
        st.digits[i] = index | (u64::from(positive) << top);
        let (x, y) = doubled_affine(st, i, a, b);
        // The signed entry is (x, y) or (x, x + y); flipping either the
        // sign or `negate` moves between the two.
        let entry_y = if positive != negate { y } else { x + y };
        st.table[e][0] = x;
        st.table[e][1] = entry_y;
    }

    /// The ZMM comb kernel against `ModelBackend`'s default schedule
    /// from the same state, table and digits. Phase 0 runs random
    /// columns. Phase 1 first runs one column with a lane at infinity
    /// (the last lane, in the masked last chunk unless 8 divides n), a
    /// lane equal to its signed entry and a lane equal to its negative,
    /// checks that each took its fix, then runs random columns on.
    fn comb_matches_model<F: FieldSpec>(
        seed: u64,
        n: usize,
        entries: usize,
        a: Element<F>,
        b: Element<F>,
    ) {
        const COLUMNS: usize = 6;
        let mut r = rng_from(seed);
        let mut model = GuardedComb::<F>::random(&mut r, n, entries, COLUMNS);
        let mut fast = GuardedComb::<F>::random(&mut r, n, entries, COLUMNS);
        let sync = |from: &GuardedComb<F>, to: &mut GuardedComb<F>| {
            to.coords.clone_from(&from.coords);
            to.digits.clone_from(&from.digits);
            to.table.clone_from(&from.table);
            to.columns = from.columns;
        };
        sync(&model, &mut fast);
        model.run::<ModelBackend>(&a, &b);
        fast.run::<VpclmulBackend>(&a, &b);
        assert_eq!(fast.coords, model.coords, "m={} n={n} phase 0", F::M);

        // One column with a lane through each fix.
        let mut forced = GuardedComb::<F>::random(&mut r, n, entries, 1);
        let zero = Element::<F>::zero();
        forced.set(2, n - 1, &zero);
        let equal = (n >= 2).then_some(0);
        let negative = (n >= 3 && entries >= 2).then_some(1);
        if let Some(i) = equal {
            force_lane(&mut forced, i, 0, true, false, a, b);
        }
        if let Some(i) = negative {
            force_lane(&mut forced, i, entries - 1, false, true, a, b);
        }
        sync(&forced, &mut model);
        sync(&forced, &mut fast);
        model.run::<ModelBackend>(&a, &b);
        fast.run::<VpclmulBackend>(&a, &b);
        assert_eq!(fast.coords, model.coords, "m={} n={n} phase 1", F::M);
        let one = Element::<F>::one();
        // Infinity took its entry.
        let d = forced.digits[n - 1];
        let top = entries.trailing_zeros();
        let neg = (d >> top) & 1 == 0;
        let idx = ((if neg { !d } else { d }) & ((1u64 << top) - 1)) as usize;
        let [ex, ey, ..] = forced.table[idx];
        let ey = if neg { ex + ey } else { ey };
        assert_eq!(
            [
                model.get(0, n - 1),
                model.get(1, n - 1),
                model.get(2, n - 1)
            ],
            [ex, ey, one],
            "m={} n={n}: lane at infinity",
            F::M
        );
        if let Some(i) = equal {
            let [.., dx, dy] = forced.table[0];
            assert_eq!(
                [model.get(0, i), model.get(1, i), model.get(2, i)],
                [dx, dy, one],
                "m={} n={n}: lane equal to its entry",
                F::M
            );
        }
        if let Some(i) = negative {
            assert!(
                model.get(2, i).is_zero(),
                "m={} n={n}: lane at −entry",
                F::M
            );
        }

        // Random columns on from there.
        model.digits = (0..COLUMNS * n).map(|_| r()).collect();
        model.columns = COLUMNS;
        sync(&model, &mut fast);
        model.run::<ModelBackend>(&a, &b);
        fast.run::<VpclmulBackend>(&a, &b);
        assert_eq!(fast.coords, model.coords, "m={} n={n} phase 2", F::M);
    }

    /// One width and table size on field F: a = 1 and a = 0 with
    /// b = 1 (the Koblitz curves), and a = 1 with B-163's b.
    fn comb_cases<F: FieldSpec>(seed: u64, n: usize, entries: usize) {
        let b163 = Element::<F>::from_hex("20a601907b8c953ca1481eb10512f78744a3205fd").unwrap();
        let (one, zero) = (Element::<F>::one(), Element::<F>::zero());
        comb_matches_model::<F>(seed, n, entries, one, one);
        comb_matches_model::<F>(seed ^ 0x10, n, entries, zero, one);
        comb_matches_model::<F>(seed ^ 0x20, n, entries, one, b163);
    }

    #[test]
    fn comb_kernel_matches_model_schedule() {
        for n in (1usize..=9).chain(15..=17).chain(63..=65) {
            for entries in [1usize, 16] {
                let seed = 0xC0B0 + (n as u64) * 64 + entries as u64;
                comb_cases::<F163>(seed, n, entries);
                comb_cases::<F233>(seed ^ 0x100, n, entries);
                comb_cases::<F283>(seed ^ 0x200, n, entries);
            }
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
