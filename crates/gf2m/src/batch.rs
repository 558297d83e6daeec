//! Structure-of-arrays operand layout for batched field arithmetic.
//!
//! The serving path is batch-shaped (comb batches, one inversion per
//! batch, lockstep ladders over whole lanes), but an
//! array-of-`Element`s keeps each element's limbs contiguous — exactly
//! the wrong layout for data-level parallelism, where a vector lane
//! wants limb *j* of many *independent* elements side by side. This
//! module defines the transposed layout the batch entry points on
//! [`FieldBackend`] operate on:
//!
//! * **Plane-major slices.** A batch of `n` elements is a flat
//!   `[u64]` of `LIMBS * n` words; limb `j` of element `i` lives at
//!   `data[j * n + i]`. Plane `j` (all elements' limb `j`) is
//!   contiguous, so a 512-bit load grabs limb `j` of eight neighbours
//!   and a `VPCLMULQDQ` multiplies four of them at once. Unreduced
//!   products use the same layout with `PROD_LIMBS` planes.
//! * [`Planes`] — an owned, reusable buffer of that shape with
//!   gather/scatter accessors to and from [`Element`]s. Callers keep
//!   theirs thread-local and `reset` it per batch, so steady-state
//!   serving does no per-call allocation.
//! * [`LadderLanes`] / [`LadderPlanes`] — the state of a lockstep x-only
//!   Montgomery ladder in this layout (both legs, the base and each
//!   lane's key bits), which [`FieldBackend::ladder_batch`] runs whole:
//!   by default as batch operations over all lanes, one per field
//!   operation of the ladder step; on the AVX-512 backend in registers.
//! * [`CombLanes`] / [`CombPlanes`] — the state of a regular signed
//!   fixed-base comb in this layout (each lane's López–Dahab
//!   accumulator and one digit word per column), which
//!   [`FieldBackend::comb_batch`] runs whole, the same two ways. Both
//!   default schedules keep their temporaries in thread-local scratch,
//!   so a call allocates nothing once a thread has run one of its
//!   width.
//!
//! Elements are always stored at the full `LIMBS` width regardless of
//! the field's degree — planes above `ceil(m/64)` are zero — which
//! keeps the layout field-agnostic: a scratch built from [`Planes`]
//! serves every field, so one thread-local instance per thread covers
//! all the curve lanes a hub worker serves. Batch scratch belongs to
//! the callee: no public entry point takes one.

use std::cell::RefCell;
use std::thread::LocalKey;

use crate::backend::{FieldBackend, VpclmulBackend};
use crate::ct;
use crate::field::{Element, FieldSpec};
use crate::limbs;
use crate::LIMBS;

/// Number of elements in a plane-major element batch of `planes.len()`
/// words.
#[inline]
pub(crate) fn width(planes: &[u64]) -> usize {
    debug_assert_eq!(planes.len() % LIMBS, 0);
    planes.len() / LIMBS
}

/// Copies element `i` out of a plane-major batch.
#[inline]
pub(crate) fn gather<F: FieldSpec>(planes: &[u64], n: usize, i: usize) -> Element<F> {
    let mut limbs = [0u64; LIMBS];
    for (j, l) in limbs.iter_mut().enumerate() {
        *l = planes[j * n + i];
    }
    Element::from_raw_limbs(limbs)
}

/// Writes element `e` into slot `i` of a plane-major batch.
#[inline]
pub(crate) fn scatter<F: FieldSpec>(planes: &mut [u64], n: usize, i: usize, e: &Element<F>) {
    for (j, l) in e.limbs().iter().enumerate() {
        planes[j * n + i] = *l;
    }
}

/// An owned plane-major batch of field elements (see the module doc
/// for the layout). Grows on demand and is meant to be reused across
/// batches: `reset` keeps the allocation.
///
/// The buffer is field-agnostic — only the generic accessors interpret
/// slots as elements of a particular field — so one thread-local
/// scratch built from `Planes` serves every field the thread works in.
#[derive(Debug, Clone, Default)]
pub struct Planes {
    data: Vec<u64>,
    n: usize,
}

impl Planes {
    /// An empty buffer (no allocation until first `reset`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of element slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the buffer holds zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resizes to `n` zeroed slots, keeping the allocation when it
    /// already fits.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(LIMBS * n, 0);
    }

    /// Writes element `e` into slot `i`.
    #[inline]
    pub fn set<F: FieldSpec>(&mut self, i: usize, e: &Element<F>) {
        scatter(&mut self.data, self.n, i, e);
    }

    /// Copies slot `i` out as an element.
    #[inline]
    pub fn get<F: FieldSpec>(&self, i: usize) -> Element<F> {
        gather(&self.data, self.n, i)
    }

    /// Whether slot `i` is the zero element.
    #[inline]
    pub fn is_zero_at(&self, i: usize) -> bool {
        is_zero_at(&self.data, self.n, i)
    }

    /// Fills every slot with `e`.
    pub fn broadcast<F: FieldSpec>(&mut self, e: &Element<F>) {
        for (j, l) in e.limbs().iter().enumerate() {
            self.data[j * self.n..(j + 1) * self.n].fill(*l);
        }
    }

    /// The raw plane-major words (`LIMBS * len()` of them).
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable raw planes, crate-internal: external writers could break
    /// the canonical-element invariant the accessors rely on.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }
}

/// Batched multiplication over [`Planes`]: `out[i] = a[i] * b[i]` via
/// the serving backend's `mul_batch`. All three buffers must have the
/// same length.
pub fn mul_planes<F: FieldSpec>(out: &mut Planes, a: &Planes, b: &Planes) {
    // lint: hot-path — SoA kernels run once per wave per field op;
    // `Planes::reset` reuses the output allocation.
    assert_eq!(a.len(), b.len());
    out.reset(a.len());
    VpclmulBackend::mul_batch::<F>(out.data_mut(), a.data(), b.data());
    // lint: hot-path-end
}

/// Batched squaring over [`Planes`]: `out[i] = a[i]^2` via the serving
/// backend's `sqr_batch`.
pub fn sqr_planes<F: FieldSpec>(out: &mut Planes, a: &Planes) {
    // lint: hot-path
    out.reset(a.len());
    VpclmulBackend::sqr_batch::<F>(out.data_mut(), a.data());
    // lint: hot-path-end
}

/// Batched addition (XOR in characteristic 2): `dst[i] += src[i]`.
/// Field-agnostic — addition never mixes planes.
pub fn add_planes(dst: &mut Planes, src: &Planes) {
    // lint: hot-path
    assert_eq!(dst.len(), src.len());
    for (d, s) in dst.data.iter_mut().zip(&src.data) {
        *d ^= *s;
    }
    // lint: hot-path-end
}

/// The state of a lockstep x-only Montgomery ladder as plane-major
/// slices of one width n (see the module doc): both projective legs
/// `(X1 : Z1)`, `(X2 : Z2)` and the base x(P) of every lane, and every
/// lane's key bits — `LIMBS` planes in which bit `s % 64` of word
/// `s / 64` steers step `s`. [`FieldBackend::ladder_batch`] runs
/// `steps` ladder steps over it in place.
///
/// [`FieldBackend::ladder_batch`]: crate::backend::FieldBackend::ladder_batch
#[derive(Debug)]
pub struct LadderLanes<'a> {
    /// X of each lane's R leg.
    pub x1: &'a mut [u64],
    /// Z of each lane's R leg.
    pub z1: &'a mut [u64],
    /// X of each lane's Q leg (R + P).
    pub x2: &'a mut [u64],
    /// Z of each lane's Q leg.
    pub z2: &'a mut [u64],
    /// Each lane's base x-coordinate.
    pub px: &'a [u64],
    /// Each lane's key bits, one bit per step.
    pub keys: &'a [u64],
    /// Number of ladder steps to run (at most `64 * LIMBS`).
    pub steps: usize,
}

impl LadderLanes<'_> {
    /// The lane count n.
    ///
    /// # Panics
    ///
    /// Panics unless every slice holds `LIMBS * n` words and the key
    /// planes hold a bit for every step. The ZMM kernel reads and
    /// writes by raw pointer, so this holds in every build.
    pub fn width(&self) -> usize {
        let n = width(self.x1);
        assert!(
            [
                self.z1.len(),
                self.x2.len(),
                self.z2.len(),
                self.px.len(),
                self.keys.len()
            ]
            .iter()
            .all(|&len| len == LIMBS * n),
            "ladder lanes of unequal width"
        );
        assert!(self.steps <= 64 * LIMBS, "more steps than key bits");
        n
    }
}

/// An owned, reusable lockstep-ladder state: [`LadderLanes`] over
/// [`Planes`] buffers, filled and read one lane at a time.
#[derive(Debug, Clone, Default)]
pub struct LadderPlanes {
    x1: Planes,
    z1: Planes,
    x2: Planes,
    z2: Planes,
    px: Planes,
    keys: Vec<u64>,
    steps: usize,
}

impl LadderPlanes {
    /// Resizes to `lanes` zeroed lanes of `steps` key bits each,
    /// keeping the allocations.
    ///
    /// # Panics
    ///
    /// Panics if `steps > 64 * LIMBS`.
    pub fn reset(&mut self, lanes: usize, steps: usize) {
        assert!(steps <= 64 * LIMBS, "more steps than key bits");
        for p in [
            &mut self.x1,
            &mut self.z1,
            &mut self.x2,
            &mut self.z2,
            &mut self.px,
        ] {
            p.reset(lanes);
        }
        self.keys.clear();
        self.keys.resize(LIMBS * lanes, 0);
        self.steps = steps;
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.px.len()
    }

    /// Whether there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.px.is_empty()
    }

    /// Sets lane `i`: its legs `[X1, Z1, X2, Z2]`, its base x(P) and its
    /// key bits, `key[s]` steering step `s`.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not hold exactly one bit per step.
    pub fn set<F: FieldSpec>(
        &mut self,
        i: usize,
        legs: &[Element<F>; 4],
        px: &Element<F>,
        key: &[bool],
    ) {
        assert_eq!(key.len(), self.steps, "one key bit per step");
        let [x1, z1, x2, z2] = legs;
        self.x1.set(i, x1);
        self.z1.set(i, z1);
        self.x2.set(i, x2);
        self.z2.set(i, z2);
        self.px.set(i, px);
        let n = self.len();
        for j in 0..LIMBS {
            self.keys[j * n + i] = 0;
        }
        for (s, &bit) in key.iter().enumerate() {
            self.keys[(s / 64) * n + i] |= u64::from(bit) << (s % 64);
        }
    }

    /// Lane `i`'s legs `[X1, Z1, X2, Z2]`.
    pub fn get<F: FieldSpec>(&self, i: usize) -> [Element<F>; 4] {
        [
            self.x1.get(i),
            self.z1.get(i),
            self.x2.get(i),
            self.z2.get(i),
        ]
    }

    /// The state as the slices [`FieldBackend::ladder_batch`] runs on.
    fn lanes(&mut self) -> LadderLanes<'_> {
        LadderLanes {
            x1: self.x1.data_mut(),
            z1: self.z1.data_mut(),
            x2: self.x2.data_mut(),
            z2: self.z2.data_mut(),
            px: self.px.data(),
            keys: &self.keys,
            steps: self.steps,
        }
    }
}

/// Runs every step of the lockstep ladder in `s` on the serving
/// backend ([`FieldBackend::ladder_batch`]): the ladder of curve
/// constant `b`, a lane with a leg at infinity before a step taking
/// `at_infinity` for that step instead.
///
/// [`FieldBackend::ladder_batch`]: crate::backend::FieldBackend::ladder_batch
pub fn ladder_planes<F: FieldSpec>(
    s: &mut LadderPlanes,
    b: &Element<F>,
    at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
) {
    VpclmulBackend::ladder_batch::<F>(&mut s.lanes(), b, at_infinity);
}

/// [`FieldBackend::ladder_batch`]'s default: the ladder's step schedule
/// on every lane at once, each field operation one batch operation of
/// backend `B` over all lanes, each lane's key bit a masked lane swap.
/// Before each step, a lane with a leg at infinity (Z1 = 0 or Z2 = 0)
/// is handed to `at_infinity` with its pre-step state; its result
/// replaces whatever the plane operations computed for that lane.
/// Which lanes do is public. The temporaries are thread-local and
/// reused from call to call.
///
/// [`FieldBackend::ladder_batch`]: crate::backend::FieldBackend::ladder_batch
pub(crate) fn ladder_steps<B: FieldBackend + ?Sized, F: FieldSpec>(
    s: &mut LadderLanes<'_>,
    b: &Element<F>,
    mut at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
) {
    thread_local! {
        static LADDER_TLS: RefCell<LadderTemps> = RefCell::default();
    }
    let n = s.width();
    with_scratch(&LADDER_TLS, |t| {
        t.reset(n, b);
        let all_keys = s.keys;
        // lint: hot-path — every step reuses the thread's temporaries,
        // masks and exceptional-lane list.
        for step in 0..s.steps {
            let keys = &all_keys[(step / 64) * n..][..n];
            let shift = step % 64;
            t.exceptional.clear();
            for (i, key) in keys.iter().enumerate() {
                if is_zero_at(s.z1, n, i) || is_zero_at(s.z2, n, i) {
                    let mut legs = [
                        gather(s.x1, n, i),
                        gather(s.z1, n, i),
                        gather(s.x2, n, i),
                        gather(s.z2, n, i),
                    ];
                    at_infinity((key >> shift) & 1 == 1, &mut legs);
                    t.exceptional.push((i, legs.map(|e| *e.limbs())));
                }
            }
            for (mask, key) in t.masks.iter_mut().zip(keys) {
                *mask = ct::ct_mask_u64((key >> shift) & 1 == 1);
            }
            // lint: ct-begin — the ladder's per-bit schedule on every
            // lane at once: each lane's key bit only steers its masked
            // lane swaps (gf2m::ct), and the batch operations run over
            // all lanes whatever the bits are.
            ct::ct_swap_lanes(&t.masks, s.x1, s.x2);
            ct::ct_swap_lanes(&t.masks, s.z1, s.z2);
            madd_lanes::<B, F>(s, t);
            mdouble_lanes::<B, F>(s, t);
            ct::ct_swap_lanes(&t.masks, s.x1, s.x2);
            ct::ct_swap_lanes(&t.masks, s.z1, s.z2);
            // lint: ct-end
            for (i, legs) in t.exceptional.drain(..) {
                let [x1, z1, x2, z2] = legs.map(Element::<F>::from_raw_limbs);
                scatter(s.x1, n, i, &x1);
                scatter(s.z1, n, i, &z1);
                scatter(s.x2, n, i, &x2);
                scatter(s.z2, n, i, &z2);
            }
        }
        // lint: hot-path-end
    });
}

/// Runs `f` on the thread's instance of a scratch (a default
/// schedule's, the batch inversion's), or on a fresh one if the
/// thread's is in use further up the stack (a caller's rule that runs
/// another schedule).
pub(crate) fn with_scratch<T: Default + 'static, R>(
    key: &'static LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut t) => f(&mut t),
        Err(_) => f(&mut T::default()),
    })
}

/// Temporaries of [`ladder_steps`], the curve's `b` in every lane, the
/// step's swap masks and its lanes with a leg at infinity (raw limbs,
/// so one thread-local instance serves every field).
#[derive(Debug, Default)]
struct LadderTemps {
    t0: Vec<u64>,
    t1: Vec<u64>,
    t2: Vec<u64>,
    b: Vec<u64>,
    b_is_one: bool,
    masks: Vec<u64>,
    exceptional: Vec<(usize, [[u64; LIMBS]; 4])>,
}

impl LadderTemps {
    /// Sizes the temporaries for n lanes of curve constant `b`, keeping
    /// the allocations.
    fn reset<F: FieldSpec>(&mut self, n: usize, b: &Element<F>) {
        for v in [&mut self.t0, &mut self.t1, &mut self.t2] {
            v.clear();
            v.resize(LIMBS * n, 0);
        }
        self.b_is_one = *b == Element::one();
        self.b.clear();
        self.b.resize(LIMBS * n, 0);
        if !self.b_is_one {
            for i in 0..n {
                scatter(&mut self.b, n, i, b);
            }
        }
        self.masks.clear();
        self.masks.resize(n, 0);
        self.exceptional.clear();
    }
}

/// Whether element `i` of a plane-major batch of width n is zero.
fn is_zero_at(planes: &[u64], n: usize, i: usize) -> bool {
    (0..LIMBS).all(|j| planes[j * n + i] == 0)
}

/// Mixed differential addition on every lane: `(X2 : Z2) ← x(R + Q)`,
/// `Z' = (X1·Z2 + X2·Z1)²`, `X' = x·Z' + (X1·Z2)·(X2·Z1)`.
fn madd_lanes<B: FieldBackend + ?Sized, F: FieldSpec>(
    s: &mut LadderLanes<'_>,
    t: &mut LadderTemps,
) {
    B::mul_batch::<F>(&mut t.t0, s.x1, s.z2); // a = X1·Z2
    B::mul_batch::<F>(&mut t.t1, s.x2, s.z1); // b = X2·Z1
    B::mul_batch::<F>(&mut t.t2, &t.t0, &t.t1); // a·b
    limbs::xor_into(&mut t.t0, &t.t1); // a + b
    B::sqr_batch::<F>(s.z2, &t.t0); // Z' = (a + b)²
    B::mul_batch::<F>(s.x2, s.px, s.z2); // x·Z'
    limbs::xor_into(s.x2, &t.t2); // X' = x·Z' + a·b
}

/// Projective doubling on every lane: `(X1 : Z1) ← x(2R)`,
/// `X' = X⁴ + b·Z⁴`, `Z' = X²·Z²` (a squaring instead of the `b`
/// multiplication when `b = 1`, a curve constant).
fn mdouble_lanes<B: FieldBackend + ?Sized, F: FieldSpec>(
    s: &mut LadderLanes<'_>,
    t: &mut LadderTemps,
) {
    B::sqr_batch::<F>(&mut t.t0, s.x1); // X²
    B::sqr_batch::<F>(&mut t.t1, s.z1); // Z²
    B::mul_batch::<F>(s.z1, &t.t0, &t.t1); // Z' = X²·Z²
    B::sqr_batch::<F>(s.x1, &t.t0); // X⁴
    B::sqr_batch::<F>(&mut t.t2, &t.t1); // Z⁴
    if t.b_is_one {
        limbs::xor_into(s.x1, &t.t2); // X' = X⁴ + Z⁴
    } else {
        B::mul_batch::<F>(&mut t.t0, &t.b, &t.t2); // b·Z⁴
        limbs::xor_into(s.x1, &t.t0); // X' = X⁴ + b·Z⁴
    }
}

/// The state of a regular signed comb as plane-major slices of one
/// width n (see the module doc): every lane's López–Dahab accumulator
/// `(X : Y : Z)` (x = X/Z, y = Y/Z², Z = 0 at infinity) and its digit
/// words, one per column in the order the columns run: `digits[c * n +
/// i]` steers lane i's column c. [`FieldBackend::comb_batch`] runs the
/// `columns` columns over it in place.
///
/// [`FieldBackend::comb_batch`]: crate::backend::FieldBackend::comb_batch
#[derive(Debug)]
pub struct CombLanes<'a> {
    /// X of each lane's accumulator.
    pub x: &'a mut [u64],
    /// Y of each lane's accumulator.
    pub y: &'a mut [u64],
    /// Z of each lane's accumulator.
    pub z: &'a mut [u64],
    /// Each lane's digit word per column.
    pub digits: &'a [u64],
    /// Number of columns to run.
    pub columns: usize,
}

impl CombLanes<'_> {
    /// The lane count n.
    ///
    /// # Panics
    ///
    /// Panics unless every coordinate slice holds `LIMBS * n` words and
    /// `digits` holds `columns * n`. The ZMM kernel reads and writes by
    /// raw pointer, so this holds in every build.
    pub fn width(&self) -> usize {
        let n = width(self.x);
        assert!(
            self.y.len() == LIMBS * n
                && self.z.len() == LIMBS * n
                && self.digits.len() == self.columns * n,
            "comb lanes of unequal width"
        );
        n
    }
}

/// The bit of a comb digit word that holds its top tooth's sign, for a
/// table of `entries` entries: log2(entries).
///
/// # Panics
///
/// Panics unless `entries` is a power of two.
pub(crate) fn comb_top_bit(entries: usize) -> u32 {
    assert!(
        entries.is_power_of_two(),
        "a comb table holds 2^(w-1) entries"
    );
    entries.trailing_zeros()
}

/// An owned, reusable comb state: [`CombLanes`] over [`Planes`]
/// buffers. `reset` puts every accumulator at infinity; the caller
/// writes the digit words and reads the accumulators back.
#[derive(Debug, Clone, Default)]
pub struct CombPlanes {
    x: Planes,
    y: Planes,
    z: Planes,
    digits: Vec<u64>,
    columns: usize,
}

impl CombPlanes {
    /// Resizes to `lanes` accumulators at infinity, `(1 : 0 : 0)`, and
    /// `columns` zeroed digit words each, keeping the allocations.
    pub fn reset(&mut self, lanes: usize, columns: usize) {
        for p in [&mut self.x, &mut self.y, &mut self.z] {
            p.reset(lanes);
        }
        // Limb 0 of the element 1 is 1 in every field.
        self.x.data[..lanes].fill(1);
        self.digits.clear();
        self.digits.resize(columns * lanes, 0);
        self.columns = columns;
    }

    /// The digit words, `columns · lanes` of them: word `c · lanes + i`
    /// steers lane i's column c.
    pub fn digits_mut(&mut self) -> &mut [u64] {
        &mut self.digits
    }

    /// The accumulators' X, Y and Z planes.
    pub fn coordinates(&self) -> [&Planes; 3] {
        [&self.x, &self.y, &self.z]
    }

    /// The state as the slices [`FieldBackend::comb_batch`] runs on.
    ///
    /// [`FieldBackend::comb_batch`]: crate::backend::FieldBackend::comb_batch
    fn lanes(&mut self) -> CombLanes<'_> {
        CombLanes {
            x: self.x.data_mut(),
            y: self.y.data_mut(),
            z: self.z.data_mut(),
            digits: &self.digits,
            columns: self.columns,
        }
    }
}

/// Runs every column of the comb in `s` on the serving backend
/// ([`FieldBackend::comb_batch`]) with `table` on the curve with
/// constants `a` and `b`.
///
/// [`FieldBackend::comb_batch`]: crate::backend::FieldBackend::comb_batch
pub fn comb_planes<F: FieldSpec>(
    s: &mut CombPlanes,
    table: &[[Element<F>; 4]],
    a: &Element<F>,
    b: &Element<F>,
) {
    VpclmulBackend::comb_batch::<F>(&mut s.lanes(), table, a, b);
}

/// [`FieldBackend::comb_batch`]'s default: the comb's column schedule
/// on every lane at once, each field operation one batch operation of
/// backend `B` over all lanes. Each column doubles every accumulator,
/// selects its lane's entry by a masked scan of the whole table, negates
/// it by a masked `y ↦ x + y`, and adds it with the generic mixed
/// addition, whose result three masked fixes correct: a lane at
/// infinity takes the entry, a lane equal to its entry (B = 0, A = 0)
/// takes the entry's double, and a lane equal to the entry's negative
/// (B = 0, A ≠ 0) is left at the formula's Z = 0. The temporaries are
/// thread-local and reused from call to call.
///
/// [`FieldBackend::comb_batch`]: crate::backend::FieldBackend::comb_batch
pub(crate) fn comb_steps<B: FieldBackend + ?Sized, F: FieldSpec>(
    s: &mut CombLanes<'_>,
    table: &[[Element<F>; 4]],
    a: &Element<F>,
    b: &Element<F>,
) {
    thread_local! {
        static COMB_TLS: RefCell<CombTemps> = RefCell::default();
    }
    let n = s.width();
    let top = comb_top_bit(table.len());
    with_scratch(&COMB_TLS, |t| {
        t.reset(n, a, b);
        // lint: hot-path — every column reuses the thread's temporaries.
        for col in 0..s.columns {
            let digits = &s.digits[col * n..][..n];
            // lint: ct-begin — one column on every lane: each lane's
            // digit only steers its masked scan, negation and fixes,
            // and the batch operations run over all lanes whatever the
            // digits are.
            comb_select::<F>(t, digits, table, top);
            comb_double::<B, F>(s, t);
            comb_add::<B, F>(s, t);
            // lint: ct-end
        }
        // lint: hot-path-end
    });
}

/// The curve constant `a` or `b` of a comb, as the schedule multiplies
/// by it: skipped when 0, an addition when 1, else a batch product with
/// the constant in every lane. Curve constants are public.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Coefficient {
    #[default]
    Zero,
    One,
    Other,
}

impl Coefficient {
    fn of<F: FieldSpec>(c: &Element<F>) -> Self {
        if c.is_zero() {
            Coefficient::Zero
        } else if *c == Element::one() {
            Coefficient::One
        } else {
            Coefficient::Other
        }
    }
}

/// Temporaries of [`comb_steps`] (raw plane words, so one thread-local
/// instance serves every field): each lane's selected entry, scratch
/// planes, the curve constants in every lane, and per-lane masks.
#[derive(Debug, Default)]
struct CombTemps {
    /// The selected entry: x, y, and the double's x, y.
    e: [Vec<u64>; 4],
    t: [Vec<u64>; 6],
    a: Vec<u64>,
    b: Vec<u64>,
    a_kind: Coefficient,
    b_kind: Coefficient,
    /// All ones where the lane's entry is negated.
    neg: Vec<u64>,
    /// The lane's table index.
    idx: Vec<u64>,
    /// Scratch mask: the lanes where B = 0.
    hit: Vec<u64>,
    /// All ones where the accumulator is at infinity.
    zsel: Vec<u64>,
    /// All ones where the accumulator equals its entry.
    dsel: Vec<u64>,
}

impl CombTemps {
    /// Sizes the temporaries for n lanes of a curve with constants `a`
    /// and `b`, keeping the allocations; the entry planes start at zero
    /// because the table read writes only the field's own limbs.
    fn reset<F: FieldSpec>(&mut self, n: usize, a: &Element<F>, b: &Element<F>) {
        for v in self.e.iter_mut().chain(self.t.iter_mut()) {
            v.clear();
            v.resize(LIMBS * n, 0);
        }
        self.a_kind = Coefficient::of(a);
        self.b_kind = Coefficient::of(b);
        for (v, c) in [(&mut self.a, a), (&mut self.b, b)] {
            v.clear();
            v.resize(LIMBS * n, 0);
            for i in 0..n {
                scatter(v, n, i, c);
            }
        }
        for v in [
            &mut self.neg,
            &mut self.idx,
            &mut self.hit,
            &mut self.zsel,
            &mut self.dsel,
        ] {
            v.clear();
            v.resize(n, 0);
        }
    }
}

/// `acc += c·v` on every lane for a curve constant `c` (public), with
/// `tmp` as scratch.
fn add_times_coefficient<B: FieldBackend + ?Sized, F: FieldSpec>(
    acc: &mut [u64],
    v: &[u64],
    kind: Coefficient,
    c: &[u64],
    tmp: &mut [u64],
) {
    match kind {
        Coefficient::Zero => {}
        Coefficient::One => limbs::xor_into(acc, v),
        Coefficient::Other => {
            B::mul_batch::<F>(tmp, c, v);
            limbs::xor_into(acc, tmp);
        }
    }
}

/// Each lane's entry for this column: the digit's top tooth gives the
/// sign (bit `top` clear: negative), the other teeth the index, their
/// complement when negative; every lane reads every entry of the table
/// and keeps its own by mask ([`ct::ct_lookup_lanes`]), then the
/// negative lanes add x to y.
fn comb_select<F: FieldSpec>(
    t: &mut CombTemps,
    digits: &[u64],
    table: &[[Element<F>; 4]],
    top: u32,
) {
    // lint: ct-begin — the digits steer masks only.
    let low = (1u64 << top) - 1;
    for ((neg, idx), d) in t.neg.iter_mut().zip(t.idx.iter_mut()).zip(digits) {
        *neg = ((d >> top) & 1).wrapping_sub(1);
        *idx = (d ^ *neg) & low;
    }
    let [ex, ey, edx, edy] = &mut t.e;
    ct::ct_lookup_lanes(&t.idx, table, [&mut *ex, &mut *ey, &mut *edx, &mut *edy]);
    ct::ct_xor_lanes(&t.neg, ey, ex);
    ct::ct_xor_lanes(&t.neg, edy, edx);
    // lint: ct-end
}

/// López–Dahab doubling on every lane, in place: `Z₃ = X₁²·Z₁²`,
/// `X₃ = X₁⁴ + b·Z₁⁴`, `Y₃ = b·Z₁⁴·Z₃ + X₃·(a·Z₃ + Y₁² + b·Z₁⁴)`. A lane
/// at infinity (Z₁ = 0) stays there.
fn comb_double<B: FieldBackend + ?Sized, F: FieldSpec>(s: &mut CombLanes<'_>, t: &mut CombTemps) {
    let [t0, t1, t2, t3, _, _] = &mut t.t;
    B::sqr_batch::<F>(t0, s.x); // X₁²
    B::sqr_batch::<F>(t1, s.z); // Z₁²
    B::mul_batch::<F>(s.z, t0, t1); // Z₃ = X₁²·Z₁²
    B::sqr_batch::<F>(t2, t1); // Z₁⁴
    if t.b_kind != Coefficient::One {
        B::mul_batch::<F>(t1, &t.b, t2);
        t2.copy_from_slice(t1); // b·Z₁⁴
    }
    B::sqr_batch::<F>(s.x, t0); // X₁⁴
    limbs::xor_into(s.x, t2); // X₃ = X₁⁴ + b·Z₁⁴
    B::sqr_batch::<F>(t0, s.y); // Y₁²
    limbs::xor_into(t0, t2); // Y₁² + b·Z₁⁴
    add_times_coefficient::<B, F>(t0, s.z, t.a_kind, &t.a, t3); // + a·Z₃
    B::mul_batch::<F>(s.y, s.x, t0); // X₃·(a·Z₃ + Y₁² + b·Z₁⁴)
    B::mul_batch::<F>(t3, t2, s.z); // b·Z₁⁴·Z₃
    limbs::xor_into(s.y, t3); // Y₃
}

/// López–Dahab mixed addition of each lane's selected entry
/// `(x₂, y₂)`, in place: `A = Y₁ + y₂·Z₁²`, `B = X₁ + x₂·Z₁`, `C = B·Z₁`,
/// `Z₃ = C²`, `D = x₂·Z₃`, `X₃ = A² + C·(A + B² + a·C)`,
/// `Y₃ = (D + X₃)·(A·C + Z₃) + (y₂ + x₂)·Z₃²`, then the masked fixes
/// for the cases the formula does not cover.
fn comb_add<B: FieldBackend + ?Sized, F: FieldSpec>(s: &mut CombLanes<'_>, t: &mut CombTemps) {
    let [ex, ey, edx, edy] = &t.e;
    let [t0, t1, t2, t3, t4, t5] = &mut t.t;
    B::sqr_batch::<F>(t0, s.z); // Z₁²
    B::mul_batch::<F>(t1, ey, t0); // y₂·Z₁²
    limbs::xor_into(t1, s.y); // A
    B::mul_batch::<F>(t2, ex, s.z); // x₂·Z₁
    limbs::xor_into(t2, s.x); // B
                              // lint: ct-begin — which lanes take a fix is secret: masks only.
    ct::ct_zero_lanes(s.z, &mut t.zsel);
    ct::ct_zero_lanes(t1, &mut t.dsel);
    ct::ct_zero_lanes(t2, &mut t.hit);
    for (d, h) in t.dsel.iter_mut().zip(&t.hit) {
        *d &= *h;
    }
    // lint: ct-end
    B::mul_batch::<F>(t3, t2, s.z); // C = B·Z₁
    B::sqr_batch::<F>(s.z, t3); // Z₃ = C²
    B::mul_batch::<F>(t4, ex, s.z); // D = x₂·Z₃
    B::sqr_batch::<F>(t0, t2); // B²
    limbs::xor_into(t0, t1); // A + B²
    add_times_coefficient::<B, F>(t0, t3, t.a_kind, &t.a, t5); // + a·C
    B::mul_batch::<F>(t2, t3, t0); // C·(A + B² + a·C)
    B::sqr_batch::<F>(s.x, t1); // A²
    limbs::xor_into(s.x, t2); // X₃
    B::mul_batch::<F>(t0, t1, t3); // A·C
    limbs::xor_into(t0, s.z); // A·C + Z₃
    limbs::xor_into(t4, s.x); // D + X₃
    B::mul_batch::<F>(s.y, t4, t0); // (D + X₃)·(A·C + Z₃)
    B::sqr_batch::<F>(t0, s.z); // Z₃²
    t1.copy_from_slice(ey);
    limbs::xor_into(t1, ex); // y₂ + x₂
    B::mul_batch::<F>(t2, t1, t0); // (y₂ + x₂)·Z₃²
    limbs::xor_into(s.y, t2); // Y₃
                              // lint: ct-begin — the fixes: the entry's double where the
                              // accumulator equalled the entry, the entry itself where the
                              // accumulator was at infinity, Z = 1 for both.
    ct::ct_select_lanes(&t.dsel, s.x, edx);
    ct::ct_select_lanes(&t.dsel, s.y, edy);
    ct::ct_select_lanes(&t.zsel, s.x, ex);
    ct::ct_select_lanes(&t.zsel, s.y, ey);
    for (d, z) in t.dsel.iter_mut().zip(&t.zsel) {
        *d |= *z;
    }
    ct::ct_fill_lanes(&t.dsel, s.z, Element::<F>::one().limbs());
    // lint: ct-end
}

/// Whether a fold of the reduction polynomial can land back in the
/// plane it came from (m − e < 64 for the largest tail exponent e): true
/// only for the toy F17, which the AVX-512 kernels leave to the scalar
/// path per element.
pub(crate) fn refolds(reduction: &[usize]) -> bool {
    reduction[0] < 64 + reduction[1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::F233;

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
    fn planes_roundtrip_and_broadcast() {
        let mut r = rng_from(21);
        let elems: Vec<Element<F233>> = (0..5).map(|_| Element::random(&mut r)).collect();
        let mut p = Planes::new();
        p.reset(elems.len());
        for (i, e) in elems.iter().enumerate() {
            p.set(i, e);
        }
        for (i, e) in elems.iter().enumerate() {
            assert_eq!(p.get::<F233>(i), *e);
            assert_eq!(p.is_zero_at(i), e.is_zero());
        }
        p.broadcast(&elems[2]);
        for i in 0..elems.len() {
            assert_eq!(p.get::<F233>(i), elems[2]);
        }
    }
}
