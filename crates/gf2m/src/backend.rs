//! The backend seam: *what* the field computes, decoupled from *how*.
//!
//! Three implementations of the same F(2^m) arithmetic live behind
//! [`FieldBackend`]:
//!
//! * [`ModelBackend`] — the bit-exact reference path (windowed-comb
//!   carry-less multiply + bit-serial reduction): the oracle the
//!   serving backends are tested against.
//! * [`VpclmulBackend`] — the hardware path: scalar operations run
//!   `PCLMULQDQ` carry-less 64×64→128 multiplies under a word-level
//!   Karatsuba (see [`crate::clmul`]), and the batch entry points
//!   multiply four elements per AVX-512 `VPCLMULQDQ` instruction over
//!   the plane-major SoA layout of [`crate::batch`] (see
//!   [`crate::vpclmul`]); its [`FieldBackend::ladder_batch`] runs a
//!   whole lockstep Montgomery ladder in ZMM registers. Each kernel runs
//!   where CPUID reports its instruction: without `PCLMULQDQ` scalars
//!   take the portable comb, without `AVX512F` + `VPCLMULQDQ` batches
//!   take the scalar path per element and ladders the default schedule.
//! * [`BitslicedBackend`] — the portable path: word-bounded comb
//!   multiplication (only `ceil(m/64)` limbs do work) and compile-time
//!   squaring-spread tables for scalars; batch entry points run 64
//!   products at once across `u64` bit-planes (see [`crate::bitslice`]).
//!
//! Both serving backends reduce every scalar product with
//! `limbs::reduce_words`, whose fold schedule is fixed by the field, so
//! a scalar `mul` or `sqr` takes the same time whatever its operands.
//! All backends produce identical canonical elements (proven by the
//! exhaustive/property equivalence tests); only the instruction count
//! differs.
//!
//! [`Element`]'s operators route through [`ActiveBackend`], which
//! dispatches on the process-wide [`select_backend`] choice:
//! [`VpclmulBackend`] where the CPU has a carry-less multiply
//! instruction, else [`BitslicedBackend`]. Setting [`BACKEND_ENV`] to
//! `bitsliced` forces the portable backend (a CI leg does, so it cannot
//! rot).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::batch::{self, LadderLanes, Planes};
use crate::field::{Element, FieldSpec};
use crate::limbs;
use crate::LIMBS;

/// One way of carrying out F(2^m) arithmetic on canonical elements.
///
/// Implementations must agree on values: for any inputs, every backend
/// returns the same canonical element. They are free to differ in
/// operation count, word width and table usage.
pub trait FieldBackend {
    /// Short human-readable backend name (recorded in bench output).
    const NAME: &'static str;

    /// Field multiplication of canonical elements.
    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F>;

    /// Field squaring of a canonical element.
    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F>;

    /// Multiplicative inverse via Itoh–Tsujii (`None` for zero).
    ///
    /// The addition chain on m−1 is shared by all backends — roughly
    /// log2(m) multiplications and m−1 squarings — so backends differ
    /// only through their `mul`/`square` primitives.
    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        itoh_tsujii::<Self, F>(a)
    }

    /// Half-trace H(a) = Σ a^(4^i) for i in 0..=(m−1)/2, defined for
    /// odd m: when Tr(a) = 0, `z = H(a)` solves `z² + z = a`.
    ///
    /// The default is the chain of (m−1)/2 dependent double squarings
    /// over `Self::square`; the serving backends apply a cached
    /// linear-map table instead.
    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        let mut acc = *a;
        let mut t = *a;
        for _ in 0..(F::M - 1) / 2 {
            t = Self::square(&Self::square(&t));
            acc += t;
        }
        acc
    }

    /// Batched field multiplication over plane-major SoA slices (see
    /// [`crate::batch`] for the layout): `out[i] = a[i] * b[i]` for
    /// `n = out.len() / LIMBS` elements. `a` and `b` may alias each
    /// other (not `out`). The default is a scalar gather/compute/
    /// scatter loop over `Self::mul`; wide backends override it.
    fn mul_batch<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = batch::width(out);
        debug_assert_eq!(a.len(), out.len());
        debug_assert_eq!(b.len(), out.len());
        for i in 0..n {
            let x = batch::gather::<F>(a, n, i);
            let y = batch::gather::<F>(b, n, i);
            batch::scatter(out, n, i, &Self::mul(&x, &y));
        }
    }

    /// Batched field squaring over plane-major SoA slices:
    /// `out[i] = a[i]²`. Same layout contract as [`Self::mul_batch`].
    fn sqr_batch<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
        let n = batch::width(out);
        debug_assert_eq!(a.len(), out.len());
        for i in 0..n {
            let x = batch::gather::<F>(a, n, i);
            batch::scatter(out, n, i, &Self::square(&x));
        }
    }

    /// A whole x-only Montgomery ladder on every lane at once, in
    /// place: `lanes.steps` steps of the paper's Algorithm 1 on the
    /// curve with constant `b` (`y² + xy = x³ + ax² + b`; the x-only
    /// formulas do not use `a`), each lane's key bit steering its own
    /// masked swaps around a fixed madd/mdouble schedule. A lane with a
    /// leg at infinity (Z1 = 0 or Z2 = 0) before a step, which the
    /// x-only formulas cannot represent, takes `at_infinity` on its
    /// pre-step legs `[X1, Z1, X2, Z2]` and key bit for that step
    /// instead; which lanes do is public.
    ///
    /// The default runs the schedule as batch operations
    /// ([`Self::mul_batch`]/[`Self::sqr_batch`]) over all lanes, one
    /// pass over memory per operation; [`VpclmulBackend`] overrides it
    /// with a kernel that keeps each chunk of lanes in registers for
    /// the whole ladder. Every backend leaves the same states.
    fn ladder_batch<F: FieldSpec>(
        lanes: &mut LadderLanes<'_>,
        b: &Element<F>,
        at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
    ) {
        batch::ladder_steps::<Self, F>(lanes, b, at_infinity);
    }
}

/// Bit-exact reference backend (windowed comb + bit-serial reduction):
/// the oracle the serving backends are tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelBackend;

impl FieldBackend for ModelBackend {
    const NAME: &'static str = "model";

    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
        let prod = limbs::clmul(a.limbs(), b.limbs());
        Element::from_raw_limbs(limbs::reduce(prod, F::REDUCTION))
    }

    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        let prod = limbs::clsquare(a.limbs());
        Element::from_raw_limbs(limbs::reduce(prod, F::REDUCTION))
    }
}

/// Hardware backend: scalar operations run the `PCLMULQDQ` Karatsuba
/// of [`crate::clmul`] and the straight-line word-level reduction in
/// one function per field, batch operations multiply four elements per
/// AVX-512 `VPCLMULQDQ` instruction and whole lockstep ladders run in
/// ZMM registers (see [`crate::vpclmul`]). Runtime-detected kernel by
/// kernel — without `PCLMULQDQ` scalars take the portable comb, without
/// `AVX512F` + `VPCLMULQDQ` every batch element takes the scalar path —
/// so the backend is correct everywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpclmulBackend;

impl FieldBackend for VpclmulBackend {
    const NAME: &'static str = "vpclmul";

    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
        Element::from_raw_limbs(crate::clmul::mul_reduced::<F>(a.limbs(), b.limbs()))
    }

    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        Element::from_raw_limbs(crate::clmul::square_reduced::<F>(a.limbs()))
    }

    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        itoh_tsujii_multisquare::<Self, F>(a)
    }

    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        crate::multisquare::half_trace(a)
    }

    fn mul_batch<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
        crate::vpclmul::mul_batch_planes::<F>(out, a, b);
    }

    fn sqr_batch<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
        crate::vpclmul::sqr_batch_planes::<F>(out, a);
    }

    fn ladder_batch<F: FieldSpec>(
        lanes: &mut LadderLanes<'_>,
        b: &Element<F>,
        at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
    ) {
        crate::vpclmul::ladder_batch_planes::<F>(lanes, b, at_infinity);
    }
}

/// Portable backend: scalar operations run the word-bounded comb,
/// table-driven squaring and the straight-line word-level reduction;
/// batch
/// operations run 64 products at once across `u64` bit-planes (see
/// [`crate::bitslice`]). No intrinsics, no feature gates — the backend
/// for hosts without a carry-less multiply instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitslicedBackend;

impl FieldBackend for BitslicedBackend {
    const NAME: &'static str = "bitsliced";

    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
        let nw = F::M.div_ceil(64);
        let prod = limbs::clmul_fast(a.limbs(), b.limbs(), nw);
        Element::from_raw_limbs(limbs::reduce_words(prod, F::REDUCTION))
    }

    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        let nw = F::M.div_ceil(64);
        let prod = limbs::clsquare_fast(a.limbs(), nw);
        Element::from_raw_limbs(limbs::reduce_words(prod, F::REDUCTION))
    }

    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        itoh_tsujii_multisquare::<Self, F>(a)
    }

    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        crate::multisquare::half_trace(a)
    }

    fn mul_batch<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
        crate::bitslice::mul_batch_planes::<F>(out, a, b);
    }

    fn sqr_batch<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
        crate::bitslice::sqr_batch_planes::<F>(out, a);
    }
}

/// Itoh–Tsujii exponentiation to 2^m − 2 with the squaring *runs*
/// collapsed into cached multi-squaring table applications
/// (`x^(2^k)` is F₂-linear): ~log₂(m) multiplications plus a handful of
/// table passes, instead of m−1 dependent squarings. Same addition
/// chain and value as [`itoh_tsujii`], over backend `B`'s `mul`/`square`
/// primitives (shared by both serving backends).
fn itoh_tsujii_multisquare<B: FieldBackend + ?Sized, F: FieldSpec>(
    a: &Element<F>,
) -> Option<Element<F>> {
    if a.is_zero() {
        return None;
    }
    let e = F::M - 1;
    let bits = usize::BITS - e.leading_zeros();
    let mut t = *a; // = a^(2^1 - 1), covered exponent ecov = 1
    let mut ecov = 1usize;
    for i in (0..bits - 1).rev() {
        let t2 = crate::multisquare::frobenius_pow(&t, ecov);
        t = B::mul(&t, &t2);
        ecov *= 2;
        if (e >> i) & 1 == 1 {
            t = B::mul(&B::square(&t), a);
            ecov += 1;
        }
    }
    debug_assert_eq!(ecov, e);
    Some(B::square(&t))
}

/// Which backend serves — the value behind the process-wide
/// [`select_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Hardware carry-less-multiply path ([`VpclmulBackend`]).
    Vpclmul = 1,
    /// Portable comb + bitsliced path ([`BitslicedBackend`]).
    Bitsliced = 2,
}

impl BackendChoice {
    /// Short name of the kernels serving (recorded in `FleetReport`
    /// and in perfbench's host fingerprint): `vpclmul` when
    /// [`VpclmulBackend`]'s AVX-512 batch kernel is live, `clmul` when
    /// it runs on `PCLMULQDQ` scalars alone, `bitsliced` for
    /// [`BitslicedBackend`].
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Vpclmul if crate::vpclmul::hardware_available() => VpclmulBackend::NAME,
            BackendChoice::Vpclmul => "clmul",
            BackendChoice::Bitsliced => BitslicedBackend::NAME,
        }
    }
}

/// Environment variable forcing the portable backend: `bitsliced`
/// (any case) selects [`BitslicedBackend`]; anything else — including
/// `auto` — selects by CPU feature detection. Read once per process,
/// at the first field operation.
pub const BACKEND_ENV: &str = "MEDSEC_GF2M_BACKEND";

/// Resolved process-wide choice: 0 = unresolved, else the
/// `BackendChoice` discriminant.
static SELECTED: AtomicU8 = AtomicU8::new(0);

/// The process-wide serving-backend selection: [`VpclmulBackend`] when
/// the CPU supports `PCLMULQDQ` (or `AVX512F` + `VPCLMULQDQ`), else
/// [`BitslicedBackend`]; [`BACKEND_ENV`]`=bitsliced` forces the latter.
/// Resolved once (env read + CPUID) on first call and cached; every
/// [`Element`] operator dispatches on the cached value, so the
/// per-operation cost is one relaxed atomic load.
///
/// The SCA/energy paths never consult this: their traces come from the
/// digit-serial multiplier model ([`crate::digit_serial`]) inside the
/// co-processor simulator.
pub fn select_backend() -> BackendChoice {
    match SELECTED.load(Ordering::Relaxed) {
        1 => BackendChoice::Vpclmul,
        2 => BackendChoice::Bitsliced,
        _ => resolve_backend(),
    }
}

#[cold]
fn resolve_backend() -> BackendChoice {
    let forced = std::env::var(BACKEND_ENV).is_ok_and(|v| v.eq_ignore_ascii_case("bitsliced"));
    let hardware = crate::vpclmul::hardware_available() || crate::clmul::hardware_available();
    let choice = if hardware && !forced {
        BackendChoice::Vpclmul
    } else {
        BackendChoice::Bitsliced
    };
    SELECTED.store(choice as u8, Ordering::Relaxed);
    choice
}

/// The backend `Element`'s operators use: a zero-state dispatcher over
/// the process-wide [`select_backend`] choice. One relaxed load and a
/// predictable branch per field operation — noise next to the
/// multiplication itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveBackend;

impl FieldBackend for ActiveBackend {
    const NAME: &'static str = "active";

    #[inline]
    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::mul(a, b),
            BackendChoice::Bitsliced => BitslicedBackend::mul(a, b),
        }
    }

    #[inline]
    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::square(a),
            BackendChoice::Bitsliced => BitslicedBackend::square(a),
        }
    }

    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::invert(a),
            BackendChoice::Bitsliced => BitslicedBackend::invert(a),
        }
    }

    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::half_trace(a),
            BackendChoice::Bitsliced => BitslicedBackend::half_trace(a),
        }
    }

    #[inline]
    fn mul_batch<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::mul_batch::<F>(out, a, b),
            BackendChoice::Bitsliced => BitslicedBackend::mul_batch::<F>(out, a, b),
        }
    }

    #[inline]
    fn sqr_batch<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::sqr_batch::<F>(out, a),
            BackendChoice::Bitsliced => BitslicedBackend::sqr_batch::<F>(out, a),
        }
    }

    fn ladder_batch<F: FieldSpec>(
        lanes: &mut LadderLanes<'_>,
        b: &Element<F>,
        at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
    ) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::ladder_batch::<F>(lanes, b, at_infinity),
            BackendChoice::Bitsliced => BitslicedBackend::ladder_batch::<F>(lanes, b, at_infinity),
        }
    }
}

/// Name of the backend behind `Element`'s operators — recorded in
/// `FleetReport` and perfbench's host fingerprint next to throughput
/// numbers.
pub fn active_backend_name() -> &'static str {
    select_backend().name()
}

/// Itoh–Tsujii exponentiation to 2^m − 2 over backend `B`.
fn itoh_tsujii<B: FieldBackend + ?Sized, F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
    if a.is_zero() {
        return None;
    }
    // Compute t = a^(2^(m-1) - 1), then inverse = t^2.
    let e = F::M - 1;
    let bits = usize::BITS - e.leading_zeros();
    let mut t = *a; // = a^(2^1 - 1), covered exponent ecov = 1
    let mut ecov = 1usize;
    for i in (0..bits - 1).rev() {
        // Double the covered exponent: t = t * t^(2^ecov).
        let mut t2 = t;
        for _ in 0..ecov {
            t2 = B::square(&t2);
        }
        t = B::mul(&t, &t2);
        ecov *= 2;
        if (e >> i) & 1 == 1 {
            t = B::mul(&B::square(&t), a);
            ecov += 1;
        }
    }
    debug_assert_eq!(ecov, e);
    Some(B::square(&t))
}

/// Batched multiplicative inversion (Montgomery's trick): inverts every
/// nonzero element of `elems` in place with **one** field inversion and
/// `3·(n−1)` multiplications, instead of `n` inversions.
///
/// # Zero-element contract
///
/// Zero elements are *skipped*, not poisoned: each stays exactly zero
/// in place (matching `inverse() == None` semantics), contributes
/// nothing to the shared prefix-product chain, and does not perturb the
/// inverses written to any other slot — regardless of where zeros fall
/// (leading, trailing, interleaved, or the entire batch). The returned
/// count is the number of elements that were actually inverted, i.e.
/// the number of nonzero inputs — `0` for an empty or all-zero batch,
/// in which case no field inversion is performed at all. Equivalently:
/// after the call, `elems[i]` is `orig[i].inverse().unwrap_or(zero)`
/// for every `i`, and the return value is the count of `Some`s.
///
/// This is the primitive the serving layer leans on: normalizing a whole
/// shard's worth of ladder outputs or comb accumulators costs one
/// Itoh–Tsujii chain total.
///
/// # Example
///
/// ```
/// use medsec_gf2m::{batch_invert, Element, F163};
/// let mut v = vec![
///     Element::<F163>::from_u64(3),
///     Element::zero(),
///     Element::from_u64(0xdead_beef),
/// ];
/// let orig = v.clone();
/// assert_eq!(batch_invert(&mut v), 2);
/// assert_eq!(v[0] * orig[0], Element::one());
/// assert!(v[1].is_zero());
/// assert_eq!(v[2] * orig[2], Element::one());
/// ```
pub fn batch_invert<F: FieldSpec>(elems: &mut [Element<F>]) -> usize {
    thread_local! {
        static INV_TLS: RefCell<(Planes, InvScratch)> =
            RefCell::new((Planes::new(), InvScratch::default()));
    }
    INV_TLS.with(|cell| {
        let (planes, scratch) = &mut *cell.borrow_mut();
        // The invclock wrapper books wall time for the observability
        // stack's BatchInvert stage; disabled (the default) it costs
        // one relaxed atomic load for the whole batch.
        crate::invclock::time(|| {
            planes.reset(elems.len());
            for (i, e) in elems.iter().enumerate() {
                planes.set(i, e);
            }
            let count = batch_invert_planes_inner::<F>(planes, scratch);
            for (i, e) in elems.iter_mut().enumerate() {
                *e = planes.get(i);
            }
            count
        })
    })
}

/// Lanes walked in lockstep by the blocked Montgomery pass: wide
/// enough to fill a bitsliced tail reasonably and one `VPCLMULQDQ`
/// chunk exactly.
const INV_LANES: usize = 8;

/// Below this many nonzero elements the blocked pass cannot pay for
/// its padding; a scalar Montgomery chain runs instead.
const INV_SCALAR_CUTOFF: usize = 16;

/// Reusable scratch for [`batch_invert_planes`]: index list, per-step
/// operand/prefix slabs and the two walk-back slabs. Deliberately
/// non-generic (raw plane words only), so one instance can serve
/// batches over different fields — e.g. embedded in the hub's
/// curve-erased per-worker scratch.
#[derive(Debug, Clone, Default)]
pub struct InvScratch {
    idx: Vec<usize>,
    c: Vec<u64>,
    prefix: Vec<u64>,
    run: Vec<u64>,
    tmp: Vec<u64>,
}

/// [`batch_invert`] over a plane-major [`Planes`] batch with
/// caller-owned scratch: same zero-element contract and single field
/// inversion, no per-call allocation in steady state, and the
/// Montgomery prefix/suffix product passes run through the selected
/// backend's `mul_batch` — `INV_LANES` (8) lanes of independent
/// prefix chains walked in lockstep, lane totals combined by one
/// scalar Montgomery chain around the single inversion.
pub fn batch_invert_planes<F: FieldSpec>(elems: &mut Planes, scratch: &mut InvScratch) -> usize {
    crate::invclock::time(|| batch_invert_planes_inner::<F>(elems, scratch))
}

fn batch_invert_planes_inner<F: FieldSpec>(elems: &mut Planes, scratch: &mut InvScratch) -> usize {
    let n = elems.len();
    scratch.idx.clear();
    for i in 0..n {
        if !elems.is_zero_at(i) {
            scratch.idx.push(i);
        }
    }
    let k = scratch.idx.len();
    if k == 0 {
        return 0;
    }
    if k < INV_SCALAR_CUTOFF {
        // Scalar Montgomery chain over the gathered nonzero elements.
        scratch.prefix.clear();
        let mut acc = Element::<F>::one();
        for &i in &scratch.idx {
            acc = ActiveBackend::mul(&acc, &elems.get(i));
            scratch.prefix.extend_from_slice(acc.limbs());
        }
        let mut inv =
            ActiveBackend::invert::<F>(&acc).expect("product of nonzero elements is nonzero");
        for t in (0..k).rev() {
            let i = scratch.idx[t];
            let this_inv = if t == 0 {
                inv
            } else {
                let mut limbs = [0u64; LIMBS];
                limbs.copy_from_slice(&scratch.prefix[(t - 1) * LIMBS..t * LIMBS]);
                ActiveBackend::mul(&inv, &Element::from_raw_limbs(limbs))
            };
            inv = ActiveBackend::mul(&inv, &elems.get(i));
            elems.set(i, &this_inv);
        }
        return k;
    }
    // Blocked path: split the k nonzero elements into INV_LANES
    // independent Montgomery chains of `steps` elements each (ragged
    // tail padded with ones), so every prefix/suffix product step is
    // one width-INV_LANES `mul_batch`. Step t's operands live in slab
    // t — itself a width-INV_LANES plane-major batch.
    let steps = k.div_ceil(INV_LANES);
    let slab = LIMBS * INV_LANES;
    let one = Element::<F>::one();
    scratch.c.clear();
    scratch.c.resize(steps * slab, 0);
    scratch.prefix.clear();
    scratch.prefix.resize(steps * slab, 0);
    for l in 0..INV_LANES {
        for t in 0..steps {
            let s = l * steps + t;
            let e = if s < k {
                elems.get(scratch.idx[s])
            } else {
                one
            };
            batch::scatter(&mut scratch.c[t * slab..(t + 1) * slab], INV_LANES, l, &e);
        }
    }
    // Forward: prefix[t] = prefix[t-1] * c[t], all lanes at once.
    scratch.prefix[..slab].copy_from_slice(&scratch.c[..slab]);
    for t in 1..steps {
        let (done, rest) = scratch.prefix.split_at_mut(t * slab);
        ActiveBackend::mul_batch::<F>(
            &mut rest[..slab],
            &done[(t - 1) * slab..],
            &scratch.c[t * slab..(t + 1) * slab],
        );
    }
    // Lane totals: one scalar Montgomery chain around the single
    // inversion of the whole batch's product.
    let last = &scratch.prefix[(steps - 1) * slab..];
    let mut tot = [one; INV_LANES];
    let mut tpref = [one; INV_LANES];
    let mut acc = one;
    for (l, (t, p)) in tot.iter_mut().zip(tpref.iter_mut()).enumerate() {
        *t = batch::gather(last, INV_LANES, l);
        acc = ActiveBackend::mul(&acc, t);
        *p = acc;
    }
    let mut inv = ActiveBackend::invert::<F>(&acc).expect("product of nonzero elements is nonzero");
    scratch.run.clear();
    scratch.run.resize(slab, 0);
    scratch.tmp.clear();
    scratch.tmp.resize(slab, 0);
    for l in (0..INV_LANES).rev() {
        let lane_inv = if l == 0 {
            inv
        } else {
            ActiveBackend::mul(&inv, &tpref[l - 1])
        };
        inv = ActiveBackend::mul(&inv, &tot[l]);
        batch::scatter(&mut scratch.run, INV_LANES, l, &lane_inv);
    }
    // Walk back in lockstep; `run` holds inv(prefix[t]) entering step t.
    for t in (0..steps).rev() {
        if t > 0 {
            ActiveBackend::mul_batch::<F>(
                &mut scratch.tmp,
                &scratch.run,
                &scratch.prefix[(t - 1) * slab..t * slab],
            );
        } else {
            scratch.tmp.copy_from_slice(&scratch.run);
        }
        for l in 0..INV_LANES {
            let s = l * steps + t;
            if s < k {
                let e: Element<F> = batch::gather(&scratch.tmp, INV_LANES, l);
                elems.set(scratch.idx[s], &e);
            }
        }
        if t > 0 {
            ActiveBackend::mul_batch::<F>(
                &mut scratch.tmp,
                &scratch.run,
                &scratch.c[t * slab..(t + 1) * slab],
            );
            std::mem::swap(&mut scratch.run, &mut scratch.tmp);
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{F163, F17};

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

    #[test]
    fn backends_agree_on_random_f163() {
        let mut r = rng_from(101);
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            let b = Element::<F163>::random(&mut r);
            assert_eq!(BitslicedBackend::mul(&a, &b), ModelBackend::mul(&a, &b));
            assert_eq!(BitslicedBackend::square(&a), ModelBackend::square(&a));
            assert_eq!(BitslicedBackend::invert(&a), ModelBackend::invert(&a));
        }
    }

    #[test]
    fn batch_invert_matches_singles() {
        let mut r = rng_from(102);
        let mut v: Vec<Element<F163>> = (0..33).map(|_| Element::random(&mut r)).collect();
        v[7] = Element::zero();
        let orig = v.clone();
        assert_eq!(batch_invert(&mut v), 32);
        for (inv, a) in v.iter().zip(&orig) {
            match a.inverse() {
                Some(expect) => assert_eq!(*inv, expect),
                None => assert!(inv.is_zero()),
            }
        }
    }

    #[test]
    fn batch_invert_handles_empty_and_all_zero() {
        let mut empty: Vec<Element<F17>> = Vec::new();
        assert_eq!(batch_invert(&mut empty), 0);
        let mut zeros = vec![Element::<F17>::zero(); 4];
        assert_eq!(batch_invert(&mut zeros), 0);
        assert!(zeros.iter().all(Element::is_zero));
    }

    /// The zero-element contract at batch boundaries: every 3-element
    /// pattern over {0, a, b} (zeros leading, trailing, interleaved,
    /// repeated values, all-zero) must invert exactly the nonzero slots
    /// and leave zeros untouched. Exhaustive over the pattern space so
    /// no boundary case hides behind a random draw.
    #[test]
    fn batch_invert_exhaustive_zero_patterns_f17() {
        let a = Element::<F17>::from_u64(0x1_2345 & 0x1ffff);
        let b = Element::<F17>::from_u64(0x0_beef);
        let panel = [Element::<F17>::zero(), a, b];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let mut v = vec![panel[i], panel[j], panel[k]];
                    let orig = v.clone();
                    let n = batch_invert(&mut v);
                    let expect_n = orig.iter().filter(|e| !e.is_zero()).count();
                    assert_eq!(n, expect_n, "pattern ({i},{j},{k})");
                    for (slot, (got, src)) in v.iter().zip(&orig).enumerate() {
                        match src.inverse() {
                            Some(inv) => {
                                assert_eq!(*got, inv, "pattern ({i},{j},{k}) slot {slot}")
                            }
                            None => {
                                assert!(got.is_zero(), "pattern ({i},{j},{k}) slot {slot}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clmul_backend_agrees_with_model_f163() {
        let mut r = rng_from(103);
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            let b = Element::<F163>::random(&mut r);
            assert_eq!(VpclmulBackend::mul(&a, &b), ModelBackend::mul(&a, &b));
            assert_eq!(VpclmulBackend::square(&a), ModelBackend::square(&a));
            assert_eq!(VpclmulBackend::invert(&a), ModelBackend::invert(&a));
        }
    }

    #[test]
    fn active_backend_matches_selection_rules() {
        let name = active_backend_name();
        // Match the resolver's case-insensitive env handling: only
        // `bitsliced` is recognised, anything else auto-selects.
        let forced = std::env::var(BACKEND_ENV).is_ok_and(|v| v.eq_ignore_ascii_case("bitsliced"));
        let expect = if forced {
            "bitsliced"
        } else if crate::vpclmul::hardware_available() {
            "vpclmul"
        } else if crate::clmul::hardware_available() {
            "clmul"
        } else {
            "bitsliced"
        };
        assert_eq!(name, expect);
        let choice = if expect == "bitsliced" {
            BackendChoice::Bitsliced
        } else {
            BackendChoice::Vpclmul
        };
        assert_eq!(select_backend(), choice);
        assert_eq!(select_backend().name(), name);
        // The dispatcher and the selected backend agree on values.
        let mut r = rng_from(104);
        let a = Element::<F163>::random(&mut r);
        let b = Element::<F163>::random(&mut r);
        assert_eq!(ActiveBackend::mul(&a, &b), ModelBackend::mul(&a, &b));
    }
}
