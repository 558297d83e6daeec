//! The serving contract of the variable-base seam, and the τNAF
//! engine against the protected ladder.
//!
//! Every server entry point in `medsec_ec::varbase` runs the protected
//! Montgomery ladder: in lockstep over plane-major batches on fields
//! with m ≥ 64, one ladder per item on Toy-17. These tests pin every
//! batched entry point bit-for-bit equal to one per-item ladder per
//! item on all five curves, results and random stream alike, at every
//! width that ends the batch kernels in a ragged chunk. They mirror
//! `crates/gf2m/tests/backend_equivalence.rs` one layer up.
//!
//! The τNAF engine serves no session; perfbench's `ec.tnaf_*` probes
//! still call it, so its tests against the ladder (every Koblitz curve,
//! and the interleaved two-scalar `mul_add` against separately
//! computed terms) stay until it is deleted.

use medsec_ec::{
    ladder::{ladder_mul, ladder_x_affine, ladder_x_only, CoordinateBlinding},
    server_strategy_name, tnaf_mul, tnaf_mul_add_gen, tnaf_mul_batch, varbase_mul,
    varbase_mul_add_gen, varbase_mul_add_gen_batch, varbase_mul_batch, varbase_x_batch, CurveSpec,
    Point, Scalar, Toy17, B163, K163, K233, K283,
};
use medsec_gf2m::Element;
use proptest::prelude::*;

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

/// A random point of the prime-order subgroup (the engine's contract).
fn subgroup_point<C: CurveSpec>(r: &mut impl FnMut() -> u64) -> Point<C> {
    let k = Scalar::<C>::random_nonzero(&mut *r);
    ladder_mul(&k, &C::generator(), CoordinateBlinding::RandomZ, &mut *r)
}

fn tnaf_equals_ladder<C: CurveSpec>(seed: u64) {
    let mut r = rng_from(seed);
    let base = subgroup_point::<C>(&mut r);
    let k = Scalar::<C>::random_nonzero(&mut r);
    let expect = ladder_mul(&k, &base, CoordinateBlinding::RandomZ, &mut r);
    let got = tnaf_mul(&k, &base);
    assert_eq!(got, expect, "{}: tnaf != ladder", C::NAME);
    assert!(got.is_on_curve());
}

fn mul_add_equals_separate<C: CurveSpec>(seed: u64) {
    let mut r = rng_from(seed);
    let q = subgroup_point::<C>(&mut r);
    let a = Scalar::<C>::random_nonzero(&mut r);
    let b = Scalar::<C>::random_nonzero(&mut r);
    let expect = ladder_mul(&a, &C::generator(), CoordinateBlinding::RandomZ, &mut r)
        + ladder_mul(&b, &q, CoordinateBlinding::RandomZ, &mut r);
    assert_eq!(
        tnaf_mul_add_gen(&a, &b, &q),
        expect,
        "{}: mul_add != aG + bQ",
        C::NAME
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn k163_tnaf_equals_ladder(seed in any::<u64>()) {
        tnaf_equals_ladder::<K163>(seed);
    }

    #[test]
    fn k233_tnaf_equals_ladder(seed in any::<u64>()) {
        tnaf_equals_ladder::<K233>(seed);
    }

    #[test]
    fn k283_tnaf_equals_ladder(seed in any::<u64>()) {
        tnaf_equals_ladder::<K283>(seed);
    }

    #[test]
    fn k163_mul_add_equals_separate(seed in any::<u64>()) {
        mul_add_equals_separate::<K163>(seed);
    }

    #[test]
    fn k233_mul_add_equals_separate(seed in any::<u64>()) {
        mul_add_equals_separate::<K233>(seed);
    }

    #[test]
    fn k283_mul_add_equals_separate(seed in any::<u64>()) {
        mul_add_equals_separate::<K283>(seed);
    }
}

#[test]
fn edge_scalars_on_every_koblitz_curve() {
    fn check<C: CurveSpec>() {
        let mut r = rng_from(0xED6E ^ C::Field::M as u64);
        let g = C::generator();
        assert_eq!(tnaf_mul(&Scalar::<C>::zero(), &g), Point::Infinity);
        assert_eq!(tnaf_mul(&Scalar::<C>::one(), &g), g);
        let n_minus_1 = Scalar::<C>::zero() - Scalar::one();
        assert_eq!(tnaf_mul(&n_minus_1, &g), -g, "{}", C::NAME);
        // Batched form agrees with singles, including an infinity base.
        let k = Scalar::<C>::random_nonzero(&mut r);
        let items = [(k, g), (k, Point::infinity()), (Scalar::zero(), g)];
        let batch = tnaf_mul_batch(&items);
        assert_eq!(batch[0], tnaf_mul(&k, &g));
        assert_eq!(batch[1], Point::Infinity);
        assert_eq!(batch[2], Point::Infinity);
    }
    check::<K163>();
    check::<K233>();
    check::<K283>();
}

use medsec_gf2m::FieldSpec;

/// Every curve serves on the ladder, and the single-item entry points
/// are correct through the seam.
#[test]
fn fallback_path_is_taken_and_correct() {
    assert_eq!(server_strategy_name::<B163>(), "ladder");
    assert_eq!(server_strategy_name::<Toy17>(), "ladder");
    assert_eq!(server_strategy_name::<K163>(), "ladder");
    assert_eq!(server_strategy_name::<K233>(), "ladder");
    assert_eq!(server_strategy_name::<K283>(), "ladder");

    // B-163: correct through the seam.
    let mut r = rng_from(0xFA11);
    let base = subgroup_point::<B163>(&mut r);
    let k = Scalar::<B163>::random_nonzero(&mut r);
    let expect = ladder_mul(&k, &base, CoordinateBlinding::RandomZ, &mut r);
    assert_eq!(varbase_mul(&k, &base, &mut r), expect);
    let a = Scalar::<B163>::random_nonzero(&mut r);
    let ag = ladder_mul(&a, &B163::generator(), CoordinateBlinding::RandomZ, &mut r);
    assert_eq!(varbase_mul_add_gen(&a, &k, &base, &mut r), ag + expect);

    // Toy-17: correct through the seam, against brute force.
    let g = Toy17::generator();
    for kv in [1u64, 2, 3, 12345, 65586] {
        let k = Scalar::<Toy17>::from_u64(kv);
        assert_eq!(varbase_mul(&k, &g, &mut r), g.mul_double_and_add(&k));
    }
}

/// One batch of width `w` with edge lanes: lane `i % 16 == 4` has its
/// base at infinity; for `mul_add`, lane `i % 16 == 1` cancels
/// (`a·G = −b·Q`) and lane `i % 16 == 2` doubles (`a·G = b·Q`); lane
/// `i % 16 == 7` has a zero variable-base scalar.
fn edge_batch<C: CurveSpec>(
    w: usize,
    r: &mut impl FnMut() -> u64,
) -> Vec<(Scalar<C>, Scalar<C>, Point<C>)> {
    let g = C::generator();
    (0..w)
        .map(|i| {
            let m = Scalar::<C>::random_nonzero(&mut *r);
            let q = ladder_mul(&m, &g, CoordinateBlinding::RandomZ, &mut *r);
            let b = Scalar::<C>::random_nonzero(&mut *r);
            match i % 16 {
                1 => (-(b * m), b, q),
                2 => (b * m, b, q),
                4 => (Scalar::random_nonzero(&mut *r), b, Point::infinity()),
                7 => (Scalar::random_nonzero(&mut *r), Scalar::zero(), q),
                _ => (Scalar::random_nonzero(&mut *r), b, q),
            }
        })
        .collect()
}

/// The three batched entry points against the per-item ladder, fed
/// identical streams: bit-for-bit equal results, and the stream's next
/// draw equal after every call. On fields with m ≥ 64 the batches run
/// in lockstep; widths 1–7 run the AVX-512 plane kernel as one masked
/// chunk alone, and widths 9, 15 and 65 put a masked chunk behind full
/// ones.
fn batches_equal_per_item<C: CurveSpec>(seed: u64) {
    assert_eq!(server_strategy_name::<C>(), "ladder");
    let g = C::generator();
    for w in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 64, 65] {
        let mut r = rng_from(seed ^ w as u64);
        let items = edge_batch::<C>(w, &mut r);
        let var: Vec<(Scalar<C>, Point<C>)> = items.iter().map(|(_, b, q)| (*b, *q)).collect();
        let (mut r1, mut r2) = (
            rng_from(seed.wrapping_add(1)),
            rng_from(seed.wrapping_add(1)),
        );
        let ctx = format!("{} width {w}", C::NAME);

        let got = varbase_mul_batch(&var, &mut r1);
        let expect: Vec<Point<C>> = var
            .iter()
            .map(|(k, p)| ladder_mul(k, p, CoordinateBlinding::RandomZ, &mut r2))
            .collect();
        assert_eq!(got, expect, "{ctx}: mul_batch");
        assert_eq!(r1(), r2(), "{ctx}: stream after mul_batch");

        let got = varbase_x_batch(&var, &mut r1);
        let expect: Vec<Option<Element<C::Field>>> = var
            .iter()
            .map(|(k, p)| {
                p.x().and_then(|px| {
                    ladder_x_affine(&ladder_x_only::<C>(
                        k,
                        px,
                        CoordinateBlinding::RandomZ,
                        &mut r2,
                    ))
                })
            })
            .collect();
        assert_eq!(got, expect, "{ctx}: x_batch");
        assert_eq!(r1(), r2(), "{ctx}: stream after x_batch");

        let got = varbase_mul_add_gen_batch(&items, &mut r1);
        let mut side = rng_from(seed ^ 0x51DE);
        let expect: Vec<Point<C>> = items
            .iter()
            .map(|(a, b, q)| {
                ladder_mul(a, &g, CoordinateBlinding::RandomZ, &mut side)
                    + ladder_mul(b, q, CoordinateBlinding::RandomZ, &mut r2)
            })
            .collect();
        assert_eq!(got, expect, "{ctx}: mul_add");
        assert_eq!(r1(), r2(), "{ctx}: stream after mul_add");
        // The special lanes are what they claim to be.
        for (i, (p, (a, _, _))) in got.iter().zip(&items).enumerate() {
            match i % 16 {
                1 => assert_eq!(*p, Point::Infinity, "{ctx}: lane {i} cancels"),
                2 => {
                    let ag = ladder_mul(a, &g, CoordinateBlinding::Disabled, || 0);
                    assert_eq!(*p, ag.double(), "{ctx}: lane {i} doubles");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn b163_batches_equal_per_item_ladders() {
    batches_equal_per_item::<B163>(0xB163);
}

#[test]
fn k163_batches_equal_per_item_ladders() {
    batches_equal_per_item::<K163>(0xA163);
}

#[test]
fn k233_batches_equal_per_item_ladders() {
    batches_equal_per_item::<K233>(0xA233);
}

#[test]
fn k283_batches_equal_per_item_ladders() {
    batches_equal_per_item::<K283>(0xA283);
}

#[test]
fn toy17_batches_equal_per_item_ladders() {
    batches_equal_per_item::<Toy17>(0x7017);
}
