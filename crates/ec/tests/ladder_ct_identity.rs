//! Byte-identity of the cswap ladder against the historical branching
//! schedule.
//!
//! PR 10 replaced the ladder's per-bit `if bit { … } else { … }` with
//! masked limb swaps (`gf2m::ct::ct_swap`). The refactor is only
//! admissible if the device outputs — including every intermediate
//! projective representative, since the SCA trace synthesizer hashes
//! the final state — stay byte-for-byte identical. This test keeps a
//! copy of the pre-refactor loop and compares full `LadderState`s
//! (all four projective coordinates, not just the affine result) on
//! K-163, K-233, K-283, B-163 (b ≠ 1, so the `b·Z⁴` product) and Toy-17
//! (legs at infinity mid-ladder) under deterministic blinding modes.
//!
//! Every ladder runs as one lane of the field backend's lockstep
//! ladder, so the per-lane comparisons elsewhere (lockstep against
//! single ladders) pin lane independence and the order of Z draws; this
//! branching copy is the one oracle for the step schedule itself.

use medsec_ec::{
    ladder::{ladder_x_only_bits, madd, mdouble, LadderState},
    CoordinateBlinding, CurveSpec, Scalar, Toy17, B163, K163, K233, K283,
};
use medsec_gf2m::Element;

/// The ladder core exactly as it stood before the cswap refactor:
/// secret-dependent branch per bit, same degenerate-case guards.
fn ladder_pre_refactor<C: CurveSpec>(
    bits: &[bool],
    px: Element<C::Field>,
    blinding: CoordinateBlinding,
) -> LadderState<C> {
    assert!(bits.first() == Some(&true));
    let r = match blinding {
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
        CoordinateBlinding::RandomZ => unreachable!("identity test uses deterministic blinding"),
    };
    let mut x1 = px * r;
    let mut z1 = r;
    let (mut x2, mut z2) = mdouble::<C>(x1, z1);
    for &bit in bits[1..].iter() {
        if z1.is_zero() {
            if bit {
                (x1, z1) = (x2, z2);
                (x2, z2) = mdouble::<C>(x1, z1);
            }
            continue;
        }
        if z2.is_zero() {
            if !bit {
                (x2, z2) = (x1, z1);
                (x1, z1) = mdouble::<C>(x2, z2);
            }
            continue;
        }
        if bit {
            let (ax, az) = madd::<C>(x1, z1, x2, z2, px);
            let (dx, dz) = mdouble::<C>(x2, z2);
            (x1, z1, x2, z2) = (ax, az, dx, dz);
        } else {
            let (ax, az) = madd::<C>(x2, z2, x1, z1, px);
            let (dx, dz) = mdouble::<C>(x1, z1);
            (x2, z2, x1, z1) = (ax, az, dx, dz);
        }
    }
    LadderState { x1, z1, x2, z2 }
}

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

const BLINDINGS: [CoordinateBlinding; 3] = [
    CoordinateBlinding::Disabled,
    CoordinateBlinding::KnownZ(0x5ca1_ab1e),
    CoordinateBlinding::KnownZ(7),
];

fn assert_identical<C: CurveSpec>(seed: u64, scalars: usize) {
    let mut rng = rng_from(seed);
    for blinding in BLINDINGS {
        let ks: Vec<Scalar<C>> = (0..scalars)
            .map(|_| Scalar::random_nonzero(&mut rng))
            .collect();
        assert_identical_on::<C>(&ks, blinding);
    }
}

fn assert_identical_on<C: CurveSpec>(ks: &[Scalar<C>], blinding: CoordinateBlinding) {
    let gx = C::generator().x().expect("generator is affine");
    for k in ks {
        let bits = k.ladder_bits();
        let expect = ladder_pre_refactor::<C>(&bits, gx, blinding);
        // The blinding draw is deterministic for these modes, so the
        // closure is never called; panic if it ever is.
        let got = ladder_x_only_bits::<C>(&bits, gx, blinding, || {
            panic!("deterministic blinding must not draw randomness")
        });
        // Full-state equality: all four projective coordinates, limb
        // for limb — not merely the same affine point.
        assert_eq!(
            (
                got.x1.limbs(),
                got.z1.limbs(),
                got.x2.limbs(),
                got.z2.limbs()
            ),
            (
                expect.x1.limbs(),
                expect.z1.limbs(),
                expect.x2.limbs(),
                expect.z2.limbs()
            ),
            "{}: cswap ladder diverged from the branching schedule at k = {k:?}, {blinding:?}",
            C::NAME
        );
    }
}

#[test]
fn cswap_ladder_is_byte_identical_k163() {
    assert_identical::<K163>(163, 6);
}

#[test]
fn cswap_ladder_is_byte_identical_k233() {
    assert_identical::<K233>(233, 4);
}

#[test]
fn cswap_ladder_is_byte_identical_k283() {
    assert_identical::<K283>(283, 4);
}

#[test]
fn cswap_ladder_is_byte_identical_b163() {
    // b ≠ 1: the doubling's b·Z⁴ is a multiplication, not a squaring.
    assert_identical::<B163>(0xb163, 4);
}

#[test]
fn cswap_ladder_is_byte_identical_toy17_with_legs_at_infinity() {
    // Small scalars and their complements n − 1 − k: a prefix of
    // k + 2n hits 0 or −1 mod n, which puts a leg at infinity
    // mid-ladder (k = 0, 1) or at the end (k = n − 1).
    let n_minus_1 = Scalar::<Toy17>::zero() - Scalar::one();
    let ks: Vec<Scalar<Toy17>> = (0u64..300)
        .map(Scalar::from_u64)
        .chain((0u64..300).map(|k| n_minus_1 - Scalar::from_u64(k)))
        .collect();
    for blinding in BLINDINGS {
        assert_identical_on::<Toy17>(&ks, blinding);
    }
}

#[test]
fn cswap_ladder_identity_covers_adversarial_bit_patterns() {
    // All-ones and alternating scalars maximize swap activity; the
    // schedules must still agree limb for limb.
    let gx = K163::generator().x().expect("generator is affine");
    for pattern in [
        vec![true; K163::LADDER_BITS],
        (0..K163::LADDER_BITS)
            .map(|i| i == 0 || i % 2 == 0)
            .collect(),
        (0..K163::LADDER_BITS)
            .map(|i| i == 0 || i % 2 == 1)
            .collect(),
    ] {
        let expect = ladder_pre_refactor::<K163>(&pattern, gx, CoordinateBlinding::Disabled);
        let got = ladder_x_only_bits::<K163>(&pattern, gx, CoordinateBlinding::Disabled, || 0);
        assert_eq!(
            (got.x1, got.z1, got.x2, got.z2),
            (expect.x1, expect.z1, expect.x2, expect.z2)
        );
    }
}
