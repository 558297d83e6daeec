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
//!   whole lockstep Montgomery ladder, and its
//!   [`FieldBackend::comb_batch`] every column of a regular signed
//!   fixed-base comb, in ZMM registers. Each kernel runs
//!   where CPUID reports its instruction: without `PCLMULQDQ` scalars
//!   take the portable word products, without `AVX512F` + `VPCLMULQDQ`
//!   batches take the scalar path per element and ladders and combs the
//!   default schedule.
//!   The toy field F(2^17), whose reduction folds back into its own
//!   limb, takes those two paths on every host.
//! * [`PortableBackend`] — the portable path: a word-level Karatsuba
//!   over constant-time masked integer-multiply word products, and a
//!   shift-and-mask bit interleave for squaring, on the `ceil(m/64)`
//!   words that carry the field. It overrides only the scalar
//!   operations, inversion and half-trace; batches run per element and
//!   ladders and combs the default schedule, at every width.
//!
//! Both serving backends reduce every scalar product with
//! `limbs::reduce_words`, whose fold schedule is fixed by the field, so
//! a scalar `mul` or `sqr` takes the same time whatever its operands.
//! All backends produce identical canonical elements (proven by the
//! exhaustive/property equivalence tests); only the instruction count
//! differs.
//!
//! [`batch_invert`] and [`batch_invert_planes`] run Montgomery's trick
//! on the active backend's batch entry points, one field inversion per
//! batch. Like the default schedules, they keep their scratch
//! thread-local, so no caller holds any.
//!
//! [`Element`]'s operators route through [`ActiveBackend`], which
//! dispatches on the process-wide [`select_backend`] choice:
//! [`VpclmulBackend`] where the CPU has a carry-less multiply
//! instruction, else [`PortableBackend`]. Setting [`BACKEND_ENV`] to
//! `portable` forces the portable backend (a CI leg does, so it cannot
//! rot).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::batch::{self, CombLanes, LadderLanes, Planes};
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
    /// instead; which lanes do is public. Every ladder in the
    /// workspace runs here, a single one as a lane of width one.
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

    /// A whole regular signed comb on every lane at once, in place:
    /// `lanes.columns` columns over each lane's López–Dahab accumulator
    /// on the curve `y² + xy = x³ + ax² + b`, each column one doubling
    /// and one mixed addition of a table entry. Entry j of `table` holds
    /// an affine point T\[j\] and its double, `[x(T), y(T), x(2T),
    /// y(2T)]`; the table holds 2^(w−1) entries for a comb of w teeth.
    /// A lane's digit word gives the signs of its column's teeth in its
    /// low w bits (set for +). With tooth w−1 positive the lane adds
    /// T\[j\] for j the digit's low w−1 bits, with it negative
    /// −T\[j\] for j their complement: a table built so that entry j's
    /// tooth t < w−1 is positive iff bit t of j is set then adds the
    /// digit's signed sum.
    ///
    /// Each lane's digit steers only masks: every entry is read for
    /// every lane and kept where it matches, the negation is a masked
    /// `y ↦ x + y`, and the mixed addition's exceptional cases are
    /// masked fixes — an accumulator at infinity (Z = 0) takes the
    /// entry, one equal to the entry (B = 0, A = 0) takes the entry's
    /// double, and one equal to its negative is left at the formula's
    /// Z = 0. The caller's accumulators may start anywhere, infinity
    /// included.
    ///
    /// The default runs the column schedule as batch operations
    /// ([`Self::mul_batch`]/[`Self::sqr_batch`]) over all lanes;
    /// [`VpclmulBackend`] overrides it with a kernel that keeps each
    /// chunk of lanes in registers for the whole comb. Every backend
    /// leaves the same states.
    ///
    /// # Panics
    ///
    /// Panics unless the table length is a power of two and the lanes
    /// are of equal width ([`CombLanes::width`]).
    fn comb_batch<F: FieldSpec>(
        lanes: &mut CombLanes<'_>,
        table: &[[Element<F>; 4]],
        a: &Element<F>,
        b: &Element<F>,
    ) {
        batch::comb_steps::<Self, F>(lanes, table, a, b);
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
/// kernel — without `PCLMULQDQ` scalars take the portable word
/// products, without `AVX512F` + `VPCLMULQDQ` (and on the toy field
/// F(2^17) everywhere) every batch element takes the scalar path — so
/// the backend is correct everywhere.
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

    fn comb_batch<F: FieldSpec>(
        lanes: &mut CombLanes<'_>,
        table: &[[Element<F>; 4]],
        a: &Element<F>,
        b: &Element<F>,
    ) {
        crate::vpclmul::comb_batch_planes::<F>(lanes, table, a, b);
    }
}

/// Portable backend: scalar operations run the constant-time word
/// products and bit interleave of [`crate::clmul`]'s fallback and the
/// straight-line word-level reduction; batches, ladders and combs take
/// the trait's per-element defaults. No intrinsics, no feature gates,
/// no table indexed by an operand — the backend for hosts without a
/// carry-less multiply instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortableBackend;

impl FieldBackend for PortableBackend {
    const NAME: &'static str = "portable";

    fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
        Element::from_raw_limbs(crate::clmul::portable_mul_reduced::<F>(
            a.limbs(),
            b.limbs(),
        ))
    }

    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        Element::from_raw_limbs(crate::clmul::portable_square_reduced::<F>(a.limbs()))
    }

    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        itoh_tsujii_multisquare::<Self, F>(a)
    }

    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        crate::multisquare::half_trace(a)
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
    /// Portable word-product path ([`PortableBackend`]).
    Portable = 2,
}

impl BackendChoice {
    /// Short name of the kernels serving (recorded in `FleetReport`
    /// and in perfbench's host fingerprint): `vpclmul` when
    /// [`VpclmulBackend`]'s AVX-512 batch kernel is live, `clmul` when
    /// it runs on `PCLMULQDQ` scalars alone, `portable` for
    /// [`PortableBackend`].
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Vpclmul if crate::vpclmul::hardware_available() => VpclmulBackend::NAME,
            BackendChoice::Vpclmul => "clmul",
            BackendChoice::Portable => PortableBackend::NAME,
        }
    }
}

/// Environment variable forcing the portable backend: `portable`
/// (any case) selects [`PortableBackend`]; anything else — including
/// `auto` — selects by CPU feature detection. Read once per process,
/// at the first field operation.
pub const BACKEND_ENV: &str = "MEDSEC_GF2M_BACKEND";

/// Resolved process-wide choice: 0 = unresolved, else the
/// `BackendChoice` discriminant.
static SELECTED: AtomicU8 = AtomicU8::new(0);

/// The process-wide serving-backend selection: [`VpclmulBackend`] when
/// the CPU supports `PCLMULQDQ` (or `AVX512F` + `VPCLMULQDQ`), else
/// [`PortableBackend`]; [`BACKEND_ENV`]`=portable` forces the latter.
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
        2 => BackendChoice::Portable,
        _ => resolve_backend(),
    }
}

#[cold]
fn resolve_backend() -> BackendChoice {
    let forced = std::env::var(BACKEND_ENV).is_ok_and(|v| v.eq_ignore_ascii_case("portable"));
    let hardware = crate::vpclmul::hardware_available() || crate::clmul::hardware_available();
    let choice = if hardware && !forced {
        BackendChoice::Vpclmul
    } else {
        BackendChoice::Portable
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
            BackendChoice::Portable => PortableBackend::mul(a, b),
        }
    }

    #[inline]
    fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::square(a),
            BackendChoice::Portable => PortableBackend::square(a),
        }
    }

    fn invert<F: FieldSpec>(a: &Element<F>) -> Option<Element<F>> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::invert(a),
            BackendChoice::Portable => PortableBackend::invert(a),
        }
    }

    fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::half_trace(a),
            BackendChoice::Portable => PortableBackend::half_trace(a),
        }
    }

    #[inline]
    fn mul_batch<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::mul_batch::<F>(out, a, b),
            BackendChoice::Portable => PortableBackend::mul_batch::<F>(out, a, b),
        }
    }

    #[inline]
    fn sqr_batch<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::sqr_batch::<F>(out, a),
            BackendChoice::Portable => PortableBackend::sqr_batch::<F>(out, a),
        }
    }

    fn ladder_batch<F: FieldSpec>(
        lanes: &mut LadderLanes<'_>,
        b: &Element<F>,
        at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
    ) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::ladder_batch::<F>(lanes, b, at_infinity),
            BackendChoice::Portable => PortableBackend::ladder_batch::<F>(lanes, b, at_infinity),
        }
    }

    fn comb_batch<F: FieldSpec>(
        lanes: &mut CombLanes<'_>,
        table: &[[Element<F>; 4]],
        a: &Element<F>,
        b: &Element<F>,
    ) {
        match select_backend() {
            BackendChoice::Vpclmul => VpclmulBackend::comb_batch::<F>(lanes, table, a, b),
            BackendChoice::Portable => PortableBackend::comb_batch::<F>(lanes, table, a, b),
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
        static PLANES_TLS: RefCell<Planes> = RefCell::default();
    }
    batch::with_scratch(&PLANES_TLS, |planes| {
        // The invclock wrapper books wall time for the observability
        // stack's BatchInvert stage; disabled (the default) it costs
        // one relaxed atomic load for the whole batch.
        crate::invclock::time(|| {
            planes.reset(elems.len());
            for (i, e) in elems.iter().enumerate() {
                planes.set(i, e);
            }
            let count = batch_invert_planes_inner::<F>(planes);
            for (i, e) in elems.iter_mut().enumerate() {
                *e = planes.get(i);
            }
            count
        })
    })
}

/// Lanes walked in lockstep by the blocked Montgomery pass: one
/// `VPCLMULQDQ` chunk exactly.
const INV_LANES: usize = 8;

/// Below this many nonzero elements the blocked pass cannot pay for
/// its padding; a scalar Montgomery chain runs instead.
const INV_SCALAR_CUTOFF: usize = 16;

/// The thread's scratch for [`batch_invert_planes`]: index list,
/// per-step operand/prefix slabs and the two walk-back slabs. Raw plane
/// words only, so one instance serves batches over every field.
#[derive(Debug, Default)]
struct InvScratch {
    idx: Vec<usize>,
    c: Vec<u64>,
    prefix: Vec<u64>,
    run: Vec<u64>,
    tmp: Vec<u64>,
}

/// [`batch_invert`] over a plane-major [`Planes`] batch: same
/// zero-element contract and single field inversion, and the
/// Montgomery prefix/suffix product passes run through the selected
/// backend's `mul_batch` — `INV_LANES` (8) lanes of independent prefix
/// chains walked in lockstep, lane totals combined by one scalar
/// Montgomery chain around the single inversion. The scratch is
/// thread-local and reused from call to call, so a call allocates
/// nothing once its thread has inverted a batch at least as wide.
pub fn batch_invert_planes<F: FieldSpec>(elems: &mut Planes) -> usize {
    crate::invclock::time(|| batch_invert_planes_inner::<F>(elems))
}

fn batch_invert_planes_inner<F: FieldSpec>(elems: &mut Planes) -> usize {
    thread_local! {
        static INV_TLS: RefCell<InvScratch> = RefCell::default();
    }
    batch::with_scratch(&INV_TLS, |scratch| {
        // lint: hot-path — every pass reuses the thread's slabs.
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
        // Every scratch word is written before it is read (the scatter
        // below, the first-slab copy, the `mul_batch` outputs, the
        // `run` scatter), so the resizes only set lengths.
        scratch.c.resize(steps * slab, 0);
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
        let mut inv =
            ActiveBackend::invert::<F>(&acc).expect("product of nonzero elements is nonzero");
        scratch.run.resize(slab, 0);
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
        // lint: hot-path-end
        k
    })
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
            assert_eq!(PortableBackend::mul(&a, &b), ModelBackend::mul(&a, &b));
            assert_eq!(PortableBackend::square(&a), ModelBackend::square(&a));
            assert_eq!(PortableBackend::invert(&a), ModelBackend::invert(&a));
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
        // `portable` is recognised, anything else auto-selects.
        let forced = std::env::var(BACKEND_ENV).is_ok_and(|v| v.eq_ignore_ascii_case("portable"));
        let expect = if forced {
            "portable"
        } else if crate::vpclmul::hardware_available() {
            "vpclmul"
        } else if crate::clmul::hardware_available() {
            "clmul"
        } else {
            "portable"
        };
        assert_eq!(name, expect);
        let choice = if expect == "portable" {
            BackendChoice::Portable
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
