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
//!   gather/scatter accessors to and from [`Element`]s. Callers hold
//!   one per worker and `reset` it per batch, so steady-state serving
//!   does no per-call allocation.
//! * [`reduce_planes`] — the batched sparse-polynomial reduction:
//!   folds whole planes (one XOR chain per reduction-polynomial term,
//!   across all elements) in a schedule fixed by the field, like the
//!   scalar `limbs::reduce_words` folds words.
//! * [`LadderLanes`] / [`LadderPlanes`] — the state of a lockstep x-only
//!   Montgomery ladder in this layout (both legs, the base and each
//!   lane's key bits), which [`FieldBackend::ladder_batch`] runs whole:
//!   by default as batch operations over all lanes, one per field
//!   operation of the ladder step; on the AVX-512 backend in registers.
//!
//! Elements are always stored at the full `LIMBS` width regardless of
//! the field's degree — planes above `ceil(m/64)` are zero — which
//! keeps the layout field-agnostic: non-generic scratch structs built
//! from [`Planes`] can be threaded through curve-erased code (the
//! hub's workers serve several curve lanes with one scratch).

use crate::backend::{ActiveBackend, FieldBackend};
use crate::ct;
use crate::field::{Element, FieldSpec};
use crate::limbs;
use crate::{LIMBS, PROD_LIMBS};

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
/// slots as elements of a particular field — so scratch structs built
/// from `Planes` stay non-generic and can live in curve-erased worker
/// state.
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
/// the process-wide selected backend's `mul_batch`. All three buffers
/// must have the same length.
pub fn mul_planes<F: FieldSpec>(out: &mut Planes, a: &Planes, b: &Planes) {
    // lint: hot-path — SoA kernels run once per wave per field op;
    // `Planes::reset` reuses the output allocation.
    assert_eq!(a.len(), b.len());
    out.reset(a.len());
    ActiveBackend::mul_batch::<F>(out.data_mut(), a.data(), b.data());
    // lint: hot-path-end
}

/// Batched squaring over [`Planes`]: `out[i] = a[i]^2` via the selected
/// backend's `sqr_batch`.
pub fn sqr_planes<F: FieldSpec>(out: &mut Planes, a: &Planes) {
    // lint: hot-path
    out.reset(a.len());
    ActiveBackend::sqr_batch::<F>(out.data_mut(), a.data());
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

/// Runs every step of the lockstep ladder in `s` on the selected
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
    ActiveBackend::ladder_batch::<F>(&mut s.lanes(), b, at_infinity);
}

/// [`FieldBackend::ladder_batch`]'s default: the step schedule of the
/// scalar ladder on every lane at once, each field operation one batch
/// operation of backend `B` over all lanes, each lane's key bit a
/// masked lane swap. Before each step, a lane with a leg at infinity
/// (Z1 = 0 or Z2 = 0) is handed to `at_infinity` with its pre-step
/// state; its result replaces whatever the plane operations computed
/// for that lane. Which lanes do is public.
///
/// [`FieldBackend::ladder_batch`]: crate::backend::FieldBackend::ladder_batch
pub(crate) fn ladder_steps<B: FieldBackend + ?Sized, F: FieldSpec>(
    s: &mut LadderLanes<'_>,
    b: &Element<F>,
    mut at_infinity: impl FnMut(bool, &mut [Element<F>; 4]),
) {
    let n = s.width();
    let b_is_one = *b == Element::one();
    let mut t = LadderTemps {
        t0: vec![0; LIMBS * n],
        t1: vec![0; LIMBS * n],
        t2: vec![0; LIMBS * n],
        b: vec![0; LIMBS * n],
    };
    if !b_is_one {
        for i in 0..n {
            scatter(&mut t.b, n, i, b);
        }
    }
    let all_keys = s.keys;
    let mut masks = vec![0u64; n];
    let mut exceptional: Vec<(usize, [Element<F>; 4])> = Vec::with_capacity(n);
    // lint: hot-path — every step reuses the temporaries, masks and
    // exceptional-lane list built above.
    for step in 0..s.steps {
        let keys = &all_keys[(step / 64) * n..][..n];
        let shift = step % 64;
        exceptional.clear();
        for (i, key) in keys.iter().enumerate() {
            if is_zero_at(s.z1, n, i) || is_zero_at(s.z2, n, i) {
                let mut legs = [
                    gather(s.x1, n, i),
                    gather(s.z1, n, i),
                    gather(s.x2, n, i),
                    gather(s.z2, n, i),
                ];
                at_infinity((key >> shift) & 1 == 1, &mut legs);
                exceptional.push((i, legs));
            }
        }
        for (mask, key) in masks.iter_mut().zip(keys) {
            *mask = ct::ct_mask_u64((key >> shift) & 1 == 1);
        }
        // lint: ct-begin — the scalar ladder's per-bit schedule on
        // every lane at once: each lane's key bit only steers its
        // masked lane swaps (gf2m::ct), and the batch operations run
        // over all lanes whatever the bits are.
        ct::ct_swap_lanes(&masks, s.x1, s.x2);
        ct::ct_swap_lanes(&masks, s.z1, s.z2);
        madd_lanes::<B, F>(s, &mut t);
        mdouble_lanes::<B, F>(s, &mut t, b_is_one);
        ct::ct_swap_lanes(&masks, s.x1, s.x2);
        ct::ct_swap_lanes(&masks, s.z1, s.z2);
        // lint: ct-end
        for (i, [x1, z1, x2, z2]) in exceptional.drain(..) {
            scatter(s.x1, n, i, &x1);
            scatter(s.z1, n, i, &z1);
            scatter(s.x2, n, i, &x2);
            scatter(s.z2, n, i, &z2);
        }
    }
    // lint: hot-path-end
}

/// Temporaries of [`ladder_steps`], and the curve's `b` in every lane.
struct LadderTemps {
    t0: Vec<u64>,
    t1: Vec<u64>,
    t2: Vec<u64>,
    b: Vec<u64>,
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
    b_is_one: bool,
) {
    B::sqr_batch::<F>(&mut t.t0, s.x1); // X²
    B::sqr_batch::<F>(&mut t.t1, s.z1); // Z²
    B::mul_batch::<F>(s.z1, &t.t0, &t.t1); // Z' = X²·Z²
    B::sqr_batch::<F>(s.x1, &t.t0); // X⁴
    B::sqr_batch::<F>(&mut t.t2, &t.t1); // Z⁴
    if b_is_one {
        limbs::xor_into(s.x1, &t.t2); // X' = X⁴ + Z⁴
    } else {
        B::mul_batch::<F>(&mut t.t0, &t.b, &t.t2); // b·Z⁴
        limbs::xor_into(s.x1, &t.t0); // X' = X⁴ + b·Z⁴
    }
}

/// Whether a fold of the reduction polynomial can land back in the
/// plane it came from (m − e < 64 for the largest tail exponent e): true
/// only for the toy F17, whose planes reduce one element at a time.
pub(crate) fn refolds(reduction: &[usize]) -> bool {
    reduction[0] < 64 + reduction[1]
}

/// Batched sparse-polynomial reduction, plane-major: `prod` holds
/// `PROD_LIMBS` planes of `n` unreduced products, `out` receives the
/// `LIMBS` canonical planes. Each fold XORs a whole plane (one term of
/// the reduction polynomial, across all `n` elements) instead of one
/// word.
///
/// The single-pass plane schedule requires every folded bit to land
/// strictly below the source plane, which holds whenever
/// `m − e ≥ 64` for the largest sub-degree term `e` (true for all the
/// NIST fields here). Fields denser than that (the toy `F17`) take a
/// per-element scalar pass instead — correctness everywhere, vector
/// speed where the field shape allows.
pub fn reduce_planes(prod: &mut [u64], out: &mut [u64], reduction: &[usize]) {
    // lint: hot-path — plane folds work in caller-owned buffers; the
    // refolding fallback uses a fixed stack array per element.
    let n = out.len() / LIMBS;
    debug_assert_eq!(out.len(), LIMBS * n);
    debug_assert_eq!(prod.len(), PROD_LIMBS * n);
    if refolds(reduction) {
        // Refolding field: bits can fold back into their own plane, so
        // run the word-level scalar reduction per element.
        for i in 0..n {
            let mut p = [0u64; PROD_LIMBS];
            for (j, w) in p.iter_mut().enumerate() {
                *w = prod[j * n + i];
            }
            let r = limbs::reduce_words(p, reduction);
            for (j, w) in r.iter().enumerate() {
                out[j * n + i] = *w;
            }
        }
        return;
    }
    let m = reduction[0];
    let mw = m / 64;
    let mb = m % 64;
    // Whole planes above the boundary word, highest first. Because
    // m − e ≥ 64, every fold writes strictly below its source plane,
    // so one descending pass settles everything down to plane `mw`.
    // When m is a limb multiple, plane `mw` itself is entirely above
    // the field and folds as a whole plane too.
    let top = if mb == 0 { mw } else { mw + 1 };
    for i in (top..PROD_LIMBS).rev() {
        for &e in &reduction[1..] {
            let base = 64 * i + e - m;
            let (wi, sh) = (base / 64, base % 64);
            let (lo, hi) = prod.split_at_mut(i * n);
            let src = &hi[..n];
            if sh == 0 {
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s;
                }
            } else {
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s << sh;
                }
                let dst = &mut lo[(wi + 1) * n..(wi + 2) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s >> (64 - sh);
                }
            }
        }
        prod[i * n..(i + 1) * n].fill(0);
    }
    // Bits m..64·(mw+1) inside the boundary plane. With m − e ≥ 64 the
    // folds never write at or above bit m, so the high part of the
    // boundary plane stays valid across all terms and is masked last.
    if mb != 0 {
        for &e in &reduction[1..] {
            let (wi, sh) = (e / 64, e % 64);
            if wi == mw {
                // Folding within the boundary plane itself: the write
                // stays strictly below bit `mb` (poly degree < m), so
                // the high source bits survive, and sh ≤ mb excludes
                // any spill into plane mw + 1.
                for s in prod[mw * n..(mw + 1) * n].iter_mut() {
                    *s ^= (*s >> mb) << sh;
                }
            } else {
                let (lo, hi) = prod.split_at_mut(mw * n);
                let src = &hi[..n];
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= (*s >> mb) << sh;
                }
                if sh + (63 - mb) > 63 {
                    let dst = &mut lo[(wi + 1) * n..(wi + 2) * n];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d ^= (*s >> mb) >> (64 - sh);
                    }
                }
            }
        }
        let mask = (1u64 << mb) - 1;
        for s in prod[mw * n..(mw + 1) * n].iter_mut() {
            *s &= mask;
        }
    }
    out.copy_from_slice(&prod[..LIMBS * n]);
    // lint: hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{F163, F17, F233, F283};

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

    fn reduce_planes_matches_scalar<F: FieldSpec>(seed: u64) {
        let mut r = rng_from(seed);
        for n in [1usize, 2, 3, 7, 8] {
            // Random unreduced products: clmul of random canonical pairs.
            let mut prods = Vec::new();
            for _ in 0..n {
                let a = Element::<F>::random(&mut r);
                let b = Element::<F>::random(&mut r);
                prods.push(limbs::clmul(a.limbs(), b.limbs()));
            }
            let mut planes = vec![0u64; PROD_LIMBS * n];
            for (i, p) in prods.iter().enumerate() {
                for (j, w) in p.iter().enumerate() {
                    planes[j * n + i] = *w;
                }
            }
            let mut out = vec![0u64; LIMBS * n];
            reduce_planes(&mut planes, &mut out, F::REDUCTION);
            for (i, p) in prods.iter().enumerate() {
                let expect = limbs::reduce(*p, F::REDUCTION);
                let got = gather::<F>(&out, n, i);
                assert_eq!(got.limbs(), &expect, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn reduce_planes_matches_scalar_all_fields() {
        reduce_planes_matches_scalar::<F163>(11);
        reduce_planes_matches_scalar::<F233>(12);
        reduce_planes_matches_scalar::<F283>(13);
        reduce_planes_matches_scalar::<F17>(14);
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
