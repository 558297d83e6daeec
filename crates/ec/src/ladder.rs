//! Montgomery Powering Ladder with x-only López–Dahab coordinates —
//! the paper's Algorithm 1.
//!
//! Algorithm-level decisions reproduced from §4:
//!
//! * **MPL** executes one point addition and one point doubling per key
//!   bit in a key-independent order, which "is resistant against Timing
//!   and Simple Power Analysis attacks";
//! * **x-only representation**: "MPL also allows us to use only the x
//!   coordinate to represent a point. One coordinate requires 163 bits of
//!   memory. Our ECC chip uses six 163-bit registers for the whole point
//!   multiplication" — see [`crate::ladder::REGISTERS_USED`];
//! * **Randomized projective coordinates** (`R ← (x·r, r)`) prevent DPA:
//!   "the chip randomizes the internal points representation by using a
//!   random Z coordinate in each execution" (§7).
//!
//! Every ladder runs through one implementation: the field backend's
//! whole-ladder batch entry point ([`medsec_gf2m::ladder_planes`]).
//! The gateway's lockstep form draws every lane's blinding Z, builds
//! the lanes' start states and key bits and hands them over in one
//! call; a single ladder (the device's ECDH and `r·Y`, the SCA probes,
//! the experiments) is the same call at width one. On AVX-512 hosts
//! the backend runs one register-resident kernel per chunk of eight
//! lanes, on the others the step schedule with one batch operation
//! per field operation. Each lane's key bit only steers masked swaps
//! around a fixed madd/mdouble schedule, and because madd is symmetric
//! under exchanging its two legs the states are byte-identical to those
//! of the branching ladder of Algorithm 1 (`tests/ladder_ct_identity.rs`
//! keeps a copy of it). A lane with a leg at infinity takes
//! `step_at_infinity`'s rule through the seam. The lanes' planes, and
//! those of [`batch_x_affine`], which normalizes a batch's results with
//! one inversion, are thread-local: no caller holds ladder scratch.

use std::cell::RefCell;

use medsec_gf2m::{
    batch_invert_planes, ladder_planes, mul_planes, Element, FieldSpec, LadderPlanes, Planes,
};

use crate::curve::{CurveSpec, Point};
use crate::scalar::Scalar;

/// Number of field-element registers the ladder needs, including the
/// fixed x(P) operand and one temporary: X1, Z1, X2, Z2, T, x — the
/// paper's six 163-bit registers (§4). The best prime-field co-Z method
/// needs eight (Hutter–Joye–Sierra, cited as \[6\]).
pub const REGISTERS_USED: usize = 6;

/// Configuration of the ladder's DPA countermeasure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinateBlinding {
    /// Fresh random projective Z on every execution (the paper's default).
    #[default]
    RandomZ,
    /// Deterministic Z = 1 — the *insecure* configuration used in the
    /// white-box DPA evaluation ("when the countermeasure is disabled, a
    /// DPA attack succeeds with as low as 200 traces", §7).
    Disabled,
    /// Z blinded with a value known to the evaluator (white-box scenario:
    /// "when the countermeasure is enabled, but the randomness is known,
    /// the attack also succeeds", §7).
    KnownZ(u64),
}

/// x-only ladder state: two projective x-coordinates (X1 : Z1), (X2 : Z2)
/// whose affine difference is the ladder input point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderState<C: CurveSpec> {
    /// X of the "R" leg (accumulates k·P).
    pub x1: Element<C::Field>,
    /// Z of the "R" leg.
    pub z1: Element<C::Field>,
    /// X of the "Q" leg (always R + P).
    pub x2: Element<C::Field>,
    /// Z of the "Q" leg.
    pub z2: Element<C::Field>,
}

/// Mixed differential addition: given x(A) = (X1:Z1), x(B) = (X2:Z2) and
/// the affine difference x = x(A−B), returns x(A+B).
///
/// López–Dahab: `Z' = (X1·Z2 + X2·Z1)²`, `X' = x·Z' + (X1·Z2)·(X2·Z1)`.
pub fn madd<C: CurveSpec>(
    x1: Element<C::Field>,
    z1: Element<C::Field>,
    x2: Element<C::Field>,
    z2: Element<C::Field>,
    x_diff: Element<C::Field>,
) -> (Element<C::Field>, Element<C::Field>) {
    let a = x1 * z2;
    let b = x2 * z1;
    let z = (a + b).square();
    let x = x_diff * z + a * b;
    (x, z)
}

/// Projective doubling: `X' = X⁴ + b·Z⁴`, `Z' = X²·Z²`.
///
/// On curves with `b = 1` (the Koblitz curves) the `b·Z⁴` product is a
/// plain squaring, so a ladder iteration costs `5` field multiplications
/// instead of `6`; the branch is on a *curve constant*, so the operation
/// flow stays key-independent.
pub fn mdouble<C: CurveSpec>(
    x: Element<C::Field>,
    z: Element<C::Field>,
) -> (Element<C::Field>, Element<C::Field>) {
    let x2 = x.square();
    let z2 = z.square();
    let b = C::b();
    let bz4 = if b == Element::one() {
        z2.square()
    } else {
        b * z2.square()
    };
    (x2.square() + bz4, x2 * z2)
}

/// Scalar multiplication `k·P` by the constant-length Montgomery ladder,
/// with y-recovery.
///
/// The ladder always executes [`CurveSpec::LADDER_BITS`]` − 1` iterations
/// (it processes `k + 2n`), so its trace of field operations is
/// key-independent. `blinding` selects the projective-coordinate
/// randomization mode; `next_u64` supplies randomness for
/// [`CoordinateBlinding::RandomZ`].
///
/// # Panics
///
/// Panics if `p` is the order-2 point with `x = 0`, which cannot be
/// represented in the x-only ladder (no subgroup point has x = 0).
pub fn ladder_mul<C: CurveSpec>(
    k: &Scalar<C>,
    p: &Point<C>,
    blinding: CoordinateBlinding,
    mut next_u64: impl FnMut() -> u64,
) -> Point<C> {
    let (px, py) = match p {
        Point::Infinity => return Point::Infinity,
        Point::Affine { x, y } => (*x, *y),
    };
    assert!(
        !px.is_zero(),
        "x-only ladder cannot process the x = 0 point"
    );

    let state = ladder_x_only::<C>(k, px, blinding, &mut next_u64);
    recover_y::<C>(&state, px, py)
}

/// The x-only core of the ladder: returns the final projective state.
///
/// Used directly when only `xcoord(k·P)` is needed — exactly what the
/// tag computes for `d = xcoord(r·Y)` in the Peeters–Hermans protocol —
/// saving the y-recovery and one field inversion.
pub fn ladder_x_only<C: CurveSpec>(
    k: &Scalar<C>,
    px: Element<C::Field>,
    blinding: CoordinateBlinding,
    mut next_u64: impl FnMut() -> u64,
) -> LadderState<C> {
    ladder_x_only_bits::<C>(&k.ladder_bits(), px, blinding, &mut next_u64)
}

/// Ladder core over an explicit MSB-first bit pattern whose leading bit
/// is 1: one lane of the lockstep ladder (see the module doc), from the
/// start state `blinding` selects.
///
/// # Panics
///
/// Panics if `px` is zero, if `bits` is empty or does not start with 1,
/// or if it holds more than `64 · LIMBS + 1` bits.
pub fn ladder_x_only_bits<C: CurveSpec>(
    bits: &[bool],
    px: Element<C::Field>,
    blinding: CoordinateBlinding,
    mut next_u64: impl FnMut() -> u64,
) -> LadderState<C> {
    assert!(
        !px.is_zero(),
        "x-only ladder cannot process the x = 0 point"
    );
    assert!(
        bits.first() == Some(&true),
        "ladder bits must start with the leading 1"
    );

    // Projective coordinate randomization: R ← (x·r, r)   (Algorithm 1).
    let r = match blinding {
        CoordinateBlinding::RandomZ => random_z(&mut next_u64),
        CoordinateBlinding::Disabled => Element::one(),
        CoordinateBlinding::KnownZ(seed) => {
            let mut s = seed | 1;
            let e = Element::<C::Field>::random(move || {
                s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) | 1;
                s
            });
            if e.is_zero() {
                Element::one()
            } else {
                e
            }
        }
    };

    ladder_lanes::<C, _>(bits.len() - 1, core::iter::once((px, r, bits)))
        .pop()
        .expect("one state per lane")
}

/// Runs one ladder per lane, all in lockstep, through the field
/// backend ([`ladder_planes`]). Lane i comes from the i-th
/// `(x(P), r, bits)`: its blinded start state R ← (x·r, r), Q ← 2·P and
/// its `steps` key bits after the leading 1. A lane with a leg at
/// infinity before a step takes [`step_at_infinity`] for that step. The
/// lanes' planes are thread-local and reused from call to call.
fn ladder_lanes<C: CurveSpec, K: AsRef<[bool]>>(
    steps: usize,
    lanes: impl ExactSizeIterator<Item = (Element<C::Field>, Element<C::Field>, K)>,
) -> Vec<LadderState<C>> {
    thread_local! {
        static LADDER_TLS: RefCell<LadderPlanes> = RefCell::default();
    }
    LADDER_TLS.with(|cell| ladder_lanes_in::<C, K>(&mut cell.borrow_mut(), steps, lanes))
}

fn ladder_lanes_in<C: CurveSpec, K: AsRef<[bool]>>(
    s: &mut LadderPlanes,
    steps: usize,
    lanes: impl ExactSizeIterator<Item = (Element<C::Field>, Element<C::Field>, K)>,
) -> Vec<LadderState<C>> {
    let n = lanes.len();
    s.reset(n, steps);
    for (i, (px, r, bits)) in lanes.enumerate() {
        // lint: ct-begin — the start state under the blinding Z: the
        // same field operations whatever Z is.
        let (x1, z1) = (px * r, r);
        let (x2, z2) = mdouble::<C>(x1, z1);
        // lint: ct-end
        s.set(i, &[x1, z1, x2, z2], &px, &bits.as_ref()[1..]);
    }
    ladder_planes::<C::Field>(s, &C::b(), step_at_infinity::<C>);
    (0..n)
        .map(|i| {
            let [x1, z1, x2, z2] = s.get(i);
            LadderState { x1, z1, x2, z2 }
        })
        .collect()
}

/// A fresh nonzero projective Z for [`CoordinateBlinding::RandomZ`].
fn random_z<F: FieldSpec>(mut next_u64: impl FnMut() -> u64) -> Element<F> {
    loop {
        let c = Element::<F>::random(&mut next_u64);
        if !c.is_zero() {
            break c;
        }
    }
}

/// The ladder step for a state `[X1, Z1, X2, Z2]` with a leg at
/// infinity (Z1 = 0 or Z2 = 0), which the x-only formulas cannot
/// represent.
///
/// Such states only occur when a scalar prefix hits 0 or −1 mod n —
/// negligible on 163-bit curves but reachable on the toy curve's
/// exhaustive small-scalar tests. The backend calls this rule outside
/// its ct regions on purpose: `is_zero` on a blinded Z is public (Z = 0
/// iff the point is O, independent of the random representative), so a
/// uniform schedule is neither possible nor needed here.
fn step_at_infinity<C: CurveSpec>(bit: bool, [x1, z1, x2, z2]: &mut [Element<C::Field>; 4]) {
    if z1.is_zero() {
        // R = O (so Q = P by the ladder invariant).
        if bit {
            // R ← R+Q = Q;  Q ← 2Q.
            (*x1, *z1) = (*x2, *z2);
            (*x2, *z2) = mdouble::<C>(*x1, *z1);
        }
        // else: Q ← Q+O = Q and R ← 2O = O — nothing changes.
    } else if !bit {
        // Q = O (so R = −P; x-only cannot see the sign).
        // Q ← Q+R = R;  R ← 2R.
        (*x2, *z2) = (*x1, *z1);
        (*x1, *z1) = mdouble::<C>(*x2, *z2);
    }
    // Q = O with the bit set: R ← R+O = R and Q ← 2O = O — nothing
    // changes.
}

/// The x-only ladder of many `(k, x(P))` lanes run in lockstep — the
/// server's batch form of [`ladder_x_only`] with
/// [`CoordinateBlinding::RandomZ`]: every lane takes the same step at
/// the same time, each field operation runs on all lanes at once, and
/// each lane's key bit steers a masked lane swap instead of a branch.
/// The ladder is constant-length, so no lane waits for another.
///
/// Entry `i` of the result is the state `ladder_x_only` returns for
/// lane `i`, and `next_u64` ends where the per-lane calls in lane order
/// leave it: each lane's Z is drawn, in lane order, before the first
/// step.
///
/// # Panics
///
/// Panics if any lane's base x-coordinate is zero (see [`ladder_mul`]).
pub(crate) fn ladder_x_only_lockstep<C: CurveSpec>(
    lanes: &[(Scalar<C>, Element<C::Field>)],
    mut next_u64: impl FnMut() -> u64,
) -> Vec<LadderState<C>> {
    assert!(
        lanes.iter().all(|(_, px)| !px.is_zero()),
        "x-only ladder cannot process the x = 0 point"
    );
    ladder_lanes::<C, _>(
        C::LADDER_BITS - 1,
        lanes
            .iter()
            .map(|(k, px)| (*px, random_z::<C::Field>(&mut next_u64), k.ladder_bits())),
    )
}

/// [`ladder_mul`] with [`CoordinateBlinding::RandomZ`] for every item:
/// the ladders run in lockstep ([`ladder_x_only_lockstep`]) and every
/// y-recovery shares one batched inversion. Bases at infinity yield
/// infinity and draw no Z, exactly as in `ladder_mul`.
///
/// # Panics
///
/// Panics if a base is the order-2 point with `x = 0`.
pub(crate) fn ladder_mul_lockstep<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    next_u64: impl FnMut() -> u64,
) -> Vec<Point<C>> {
    let lanes: Vec<(Scalar<C>, Element<C::Field>)> = items
        .iter()
        .filter_map(|(k, p)| p.x().map(|px| (*k, px)))
        .collect();
    let states = ladder_x_only_lockstep::<C>(&lanes, next_u64);
    let mut invs = Vec::with_capacity(3 * states.len());
    for (st, (_, px)) in states.iter().zip(&lanes) {
        if !st.z1.is_zero() && !st.z2.is_zero() {
            invs.extend([st.z1, st.z2, *px]);
        }
    }
    medsec_gf2m::batch_invert(&mut invs);
    let mut invs = invs.chunks_exact(3);
    let mut states = states.iter();
    items
        .iter()
        .map(|(_, p)| {
            let Point::Affine { x, y } = *p else {
                return Point::Infinity;
            };
            let st = states.next().expect("one ladder state per finite base");
            leg_at_infinity(st, x, y).unwrap_or_else(|| {
                let inv = invs.next().expect("three inverses per finite result");
                affine_from_inverses(st, x, y, inv)
            })
        })
        .collect()
}

/// Recover the affine result (with y) from the final ladder state —
/// `RecoverY(P, R)` in Algorithm 1.
///
/// Uses the standard binary-curve formula
/// `y₁ = (x₁ + x)·[(x₁ + x)(x₂ + x) + x² + y]/x + y`. The three
/// divisors (Z₁, Z₂, x) share **one** Itoh–Tsujii chain through
/// [`medsec_gf2m::batch_invert`] — the per-element result is identical,
/// only the instruction count changes.
pub fn recover_y<C: CurveSpec>(
    state: &LadderState<C>,
    px: Element<C::Field>,
    py: Element<C::Field>,
) -> Point<C> {
    if let Some(p) = leg_at_infinity(state, px, py) {
        return p;
    }
    let mut invs = [state.z1, state.z2, px];
    medsec_gf2m::batch_invert(&mut invs);
    affine_from_inverses(state, px, py, &invs)
}

/// The result of a final ladder state with a leg at infinity, which
/// needs no inversion: `R = O`, or `Q = O` and so `R = −P`.
fn leg_at_infinity<C: CurveSpec>(
    state: &LadderState<C>,
    px: Element<C::Field>,
    py: Element<C::Field>,
) -> Option<Point<C>> {
    if state.z1.is_zero() {
        return Some(Point::Infinity);
    }
    if state.z2.is_zero() {
        // Q = O ⇒ R = −P.
        return Some(Point::Affine { x: px, y: px + py });
    }
    None
}

/// [`recover_y`]'s formula, given `[Z₁⁻¹, Z₂⁻¹, x⁻¹]`.
fn affine_from_inverses<C: CurveSpec>(
    state: &LadderState<C>,
    px: Element<C::Field>,
    py: Element<C::Field>,
    invs: &[Element<C::Field>],
) -> Point<C> {
    let x1 = state.x1 * invs[0];
    let x2 = state.x2 * invs[1];
    let t = (x1 + px) * (x2 + px) + px.square() + py;
    let y1 = (x1 + px) * t * invs[2] + py;
    Point::Affine { x: x1, y: y1 }
}

/// Affine x-coordinate of the ladder result.
pub fn ladder_x_affine<C: CurveSpec>(state: &LadderState<C>) -> Option<Element<C::Field>> {
    state.z1.inverse().map(|zi| state.x1 * zi)
}

/// Affine x-coordinates of *many* ladder results at once, normalized
/// with a single field inversion (Montgomery's trick via
/// [`medsec_gf2m::batch_invert_planes`]) and one batched plane
/// multiplication for every `x·Z⁻¹`. `None` marks states whose result
/// is the point at infinity — exactly like [`ladder_x_affine`] per
/// state.
///
/// This is the serving-side primitive: a gateway verifying a shard's
/// worth of ECDH frames runs all the x-only ladders first, then pays
/// one inversion to normalize every shared secret. The planes are
/// thread-local and reused from call to call.
pub fn batch_x_affine<C: CurveSpec>(states: &[LadderState<C>]) -> Vec<Option<Element<C::Field>>> {
    thread_local! {
        static X_AFFINE_TLS: RefCell<[Planes; 3]> = RefCell::default();
    }
    X_AFFINE_TLS.with(|cell| {
        let [zs, xs, prod] = &mut *cell.borrow_mut();
        let n = states.len();
        zs.reset(n);
        xs.reset(n);
        for (i, s) in states.iter().enumerate() {
            xs.set(i, &s.x1);
            zs.set(i, &s.z1);
        }
        batch_invert_planes::<C::Field>(zs);
        mul_planes::<C::Field>(prod, xs, zs);
        (0..n)
            .map(|i| (!zs.is_zero_at(i)).then(|| prod.get(i)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Toy17, B163, K163, K233, K283};

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
    fn ladder_matches_double_and_add_toy_exhaustive_small() {
        let g = Toy17::generator();
        let mut r = rng_from(31);
        for k in 0u64..200 {
            let s = Scalar::<Toy17>::from_u64(k);
            let expect = g.mul_double_and_add(&s);
            let got = ladder_mul(&s, &g, CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(got, expect, "mismatch at k={k}");
        }
    }

    #[test]
    fn ladder_matches_double_and_add_toy_random() {
        let g = Toy17::generator();
        let mut r = rng_from(32);
        for _ in 0..200 {
            let s = Scalar::<Toy17>::random_nonzero(&mut r);
            let expect = g.mul_double_and_add(&s);
            let got = ladder_mul(&s, &g, CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn ladder_matches_double_and_add_k163() {
        let g = K163::generator();
        let mut r = rng_from(33);
        for _ in 0..6 {
            let s = Scalar::<K163>::random_nonzero(&mut r);
            let expect = g.mul_double_and_add(&s);
            let got = ladder_mul(&s, &g, CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(got, expect);
            assert!(got.is_on_curve());
        }
    }

    #[test]
    fn ladder_matches_double_and_add_b163() {
        // Exercises the b·Z⁴ multiplication path (b ≠ 1).
        let g = B163::generator();
        let mut r = rng_from(34);
        for _ in 0..4 {
            let s = Scalar::<B163>::random_nonzero(&mut r);
            assert_eq!(
                ladder_mul(&s, &g, CoordinateBlinding::RandomZ, &mut r),
                g.mul_double_and_add(&s)
            );
        }
    }

    #[test]
    fn blinding_modes_agree_on_result() {
        let g = K163::generator();
        let mut r = rng_from(35);
        let s = Scalar::<K163>::random_nonzero(&mut r);
        let reference = ladder_mul(&s, &g, CoordinateBlinding::Disabled, &mut r);
        assert_eq!(
            ladder_mul(&s, &g, CoordinateBlinding::RandomZ, &mut r),
            reference
        );
        assert_eq!(
            ladder_mul(&s, &g, CoordinateBlinding::KnownZ(42), &mut r),
            reference
        );
    }

    #[test]
    fn randomized_z_changes_internal_state_not_result() {
        let g = K163::generator();
        let mut r = rng_from(36);
        let s = Scalar::<K163>::random_nonzero(&mut r);
        let st1 = ladder_x_only::<K163>(&s, g.x().unwrap(), CoordinateBlinding::RandomZ, &mut r);
        let st2 = ladder_x_only::<K163>(&s, g.x().unwrap(), CoordinateBlinding::RandomZ, &mut r);
        // Different projective representatives...
        assert_ne!((st1.x1, st1.z1), (st2.x1, st2.z1));
        // ...same affine x.
        assert_eq!(ladder_x_affine(&st1), ladder_x_affine(&st2));
    }

    #[test]
    fn batch_x_affine_matches_singles() {
        let g = K163::generator();
        let mut r = rng_from(39);
        let mut states: Vec<LadderState<K163>> = (0..9)
            .map(|_| {
                let s = Scalar::<K163>::random_nonzero(&mut r);
                ladder_x_only::<K163>(&s, g.x().unwrap(), CoordinateBlinding::RandomZ, &mut r)
            })
            .collect();
        // Inject an at-infinity state (z1 = 0).
        states[4].z1 = medsec_gf2m::Element::zero();
        let batch = batch_x_affine(&states);
        assert_eq!(batch.len(), states.len());
        for (st, got) in states.iter().zip(&batch) {
            assert_eq!(*got, ladder_x_affine(st));
        }
        assert!(batch[4].is_none());
    }

    #[test]
    fn ladder_handles_identity_scalars() {
        let g = Toy17::generator();
        let mut r = rng_from(37);
        assert_eq!(
            ladder_mul(&Scalar::zero(), &g, CoordinateBlinding::RandomZ, &mut r),
            Point::Infinity
        );
        let n_minus_1 = Scalar::<Toy17>::zero() - Scalar::one();
        assert_eq!(
            ladder_mul(&n_minus_1, &g, CoordinateBlinding::RandomZ, &mut r),
            -g
        );
    }

    #[test]
    fn ladder_on_infinity_is_infinity() {
        let mut r = rng_from(38);
        let s = Scalar::<K163>::from_u64(5);
        assert_eq!(
            ladder_mul(&s, &Point::infinity(), CoordinateBlinding::RandomZ, &mut r),
            Point::Infinity
        );
    }

    /// The lockstep kernel against one single-lane ladder per lane, fed
    /// the same stream: equal projective states and points, and the stream
    /// left at the same place.
    fn lockstep_matches_per_lane<C: CurveSpec>(ks: &[Scalar<C>], seed: u64) {
        let mut r = rng_from(seed);
        let g = C::generator();
        let mut items: Vec<(Scalar<C>, Point<C>)> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let base = if i % 3 == 0 {
                    g
                } else {
                    let m = Scalar::<C>::random_nonzero(&mut r);
                    ladder_mul(&m, &g, CoordinateBlinding::RandomZ, &mut r)
                };
                (*k, base)
            })
            .collect();
        let lanes: Vec<(Scalar<C>, Element<C::Field>)> =
            items.iter().map(|(k, p)| (*k, p.x().unwrap())).collect();
        let (mut r1, mut r2) = (rng_from(seed ^ 0xA5), rng_from(seed ^ 0xA5));
        let got = ladder_x_only_lockstep::<C>(&lanes, &mut r1);
        let expect: Vec<LadderState<C>> = lanes
            .iter()
            .map(|(k, px)| ladder_x_only::<C>(k, *px, CoordinateBlinding::RandomZ, &mut r2))
            .collect();
        assert_eq!(got, expect, "{}: lockstep states", C::NAME);
        assert_eq!(r1(), r2(), "{}: stream after x-only", C::NAME);

        items.insert(items.len() / 2, (Scalar::one(), Point::infinity()));
        let got = ladder_mul_lockstep(&items, &mut r1);
        let expect: Vec<Point<C>> = items
            .iter()
            .map(|(k, p)| ladder_mul(k, p, CoordinateBlinding::RandomZ, &mut r2))
            .collect();
        assert_eq!(got, expect, "{}: lockstep points", C::NAME);
        assert_eq!(r1(), r2(), "{}: stream after points", C::NAME);
    }

    #[test]
    fn lockstep_kernel_matches_per_lane_ladders() {
        // Toy-17's small scalars and their complements n − 1 − k drive
        // legs to infinity mid-ladder (k = 0, 1) and at the end
        // (k = n − 1), among ordinary lanes.
        let n_minus_1 = Scalar::<Toy17>::zero() - Scalar::one();
        let toy: Vec<Scalar<Toy17>> = (0u64..300)
            .map(Scalar::from_u64)
            .chain((0u64..300).map(|k| n_minus_1 - Scalar::from_u64(k)))
            .collect();
        lockstep_matches_per_lane::<Toy17>(&toy, 44);

        let mut r = rng_from(45);
        let k163: Vec<Scalar<K163>> = (0..5).map(|_| Scalar::random_nonzero(&mut r)).collect();
        lockstep_matches_per_lane::<K163>(&k163, 46);
        let mut b163: Vec<Scalar<B163>> = (0..5).map(|_| Scalar::random_nonzero(&mut r)).collect();
        b163.extend([
            Scalar::zero(),
            Scalar::one(),
            Scalar::zero() - Scalar::one(),
        ]);
        lockstep_matches_per_lane::<B163>(&b163, 47);

        // Batches ending in a ragged chunk of one lane (the AVX-512
        // kernel runs eight lanes per chunk), that lane holding each
        // edge scalar in turn: 0 and 1 put a leg at infinity before the
        // last step, n − 1 ends with Q at infinity.
        fn ragged<C: CurveSpec>(seed: u64) {
            let mut r = rng_from(seed);
            for (width, edge) in [9, 65].into_iter().flat_map(|w| {
                [
                    Scalar::<C>::zero(),
                    Scalar::one(),
                    Scalar::zero() - Scalar::one(),
                ]
                .map(|e| (w, e))
            }) {
                let mut ks: Vec<Scalar<C>> =
                    (1..width).map(|_| Scalar::random_nonzero(&mut r)).collect();
                ks.push(edge);
                lockstep_matches_per_lane::<C>(&ks, r());
            }
        }
        ragged::<K163>(48);
        ragged::<K233>(49);
        ragged::<K283>(50);
    }

    #[test]
    fn registers_used_matches_paper() {
        assert_eq!(REGISTERS_USED, 6);
    }
}
