//! The serving backend on the `portable` tier, on every host.
//!
//! [`VpclmulBackend`] runs whichever kernels the process's CPU tier
//! allows, and the tier is resolved once per process. This binary holds
//! one test, which lowers its process to the `portable` tier before any
//! field operation, so the constant-time word products, the per-element
//! batches and the default ladder and comb schedules that hosts without
//! `PCLMULQDQ` serve on are pinned against [`ModelBackend`] on every
//! host, not only on a CI leg that sets `MEDSEC_GF2M_BACKEND=portable`.

use medsec_gf2m::backend::active_backend_name;
use medsec_gf2m::{
    clmul, select_backend, vpclmul, BackendChoice, CombLanes, Element, FieldBackend, FieldSpec,
    LadderLanes, ModelBackend, VpclmulBackend, BACKEND_ENV, F163, F17, F233, F283, LIMBS,
};

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

/// Packs elements into a plane-major SoA batch.
fn to_planes<F: FieldSpec>(elems: &[Element<F>]) -> Vec<u64> {
    let n = elems.len();
    let mut planes = vec![0u64; LIMBS * n];
    for (i, e) in elems.iter().enumerate() {
        for (j, l) in e.limbs().iter().enumerate() {
            planes[j * n + i] = *l;
        }
    }
    planes
}

/// Unpacks every slot of a plane-major SoA batch as raw limbs.
fn from_planes(planes: &[u64]) -> Vec<[u64; LIMBS]> {
    let n = planes.len() / LIMBS;
    (0..n)
        .map(|i| core::array::from_fn(|j| planes[j * n + i]))
        .collect()
}

/// Scalar `mul`, `square`, `invert` and `half_trace` of the serving
/// backend against the model on the given elements, each multiplied by
/// its successor.
fn scalars_match_model<F: FieldSpec>(xs: &[Element<F>]) {
    for (i, a) in xs.iter().enumerate() {
        let b = xs[(i + 1) % xs.len()];
        let ctx = format!("{} {a} * {b}", F::NAME);
        assert_eq!(
            VpclmulBackend::mul(a, &b),
            ModelBackend::mul(a, &b),
            "{ctx}"
        );
        assert_eq!(VpclmulBackend::square(a), ModelBackend::square(a), "{ctx}");
        assert_eq!(VpclmulBackend::invert(a), ModelBackend::invert(a), "{ctx}");
        assert_eq!(
            VpclmulBackend::half_trace(a),
            ModelBackend::half_trace(a),
            "{ctx}"
        );
    }
}

/// The batch entry points at every width 0–70 (every multiple of the
/// `VPCLMULQDQ` chunk of eight and every ragged tail after them):
/// `mul_batch`, `sqr_batch` and `mul_batch` with both inputs aliased,
/// slot by slot against the model's scalar products.
fn batches_match_model<F: FieldSpec>(r: &mut impl FnMut() -> u64) {
    for n in 0..=70 {
        let xs: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut *r)).collect();
        let ys: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut *r)).collect();
        let (a, b) = (to_planes(&xs), to_planes(&ys));
        let mul: Vec<[u64; LIMBS]> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| *ModelBackend::mul(x, y).limbs())
            .collect();
        let sqr: Vec<[u64; LIMBS]> = xs
            .iter()
            .map(|x| *ModelBackend::square(x).limbs())
            .collect();
        let mut out = vec![0u64; LIMBS * n];
        VpclmulBackend::mul_batch::<F>(&mut out, &a, &b);
        assert_eq!(from_planes(&out), mul, "{} mul_batch n={n}", F::NAME);
        VpclmulBackend::sqr_batch::<F>(&mut out, &a);
        assert_eq!(from_planes(&out), sqr, "{} sqr_batch n={n}", F::NAME);
        VpclmulBackend::mul_batch::<F>(&mut out, &a, &a);
        assert_eq!(from_planes(&out), sqr, "{} aliased n={n}", F::NAME);
    }
}

/// The x-only ladder's rule for a leg at infinity (R = O: Q ← 2Q after
/// R ← Q when the bit is set; Q = O: R ← 2R after Q ← R when it is
/// clear), in model arithmetic, counting its calls.
fn infinity_rule<F: FieldSpec>(
    b: Element<F>,
    calls: &mut usize,
) -> impl FnMut(bool, &mut [Element<F>; 4]) + '_ {
    move |bit, legs| {
        let double = |x: Element<F>, z: Element<F>| {
            let (x2, z2) = (ModelBackend::square(&x), ModelBackend::square(&z));
            let x4 = ModelBackend::square(&x2);
            let z4 = ModelBackend::square(&z2);
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
        *calls += 1;
    }
}

/// Ladder steps per run.
const STEPS: usize = 40;

/// Runs `STEPS` ladder steps on backend `B` from the given state and
/// returns the legs and the number of at-infinity calls.
fn run_ladder<B: FieldBackend, F: FieldSpec>(
    legs: &[Vec<u64>; 4],
    px: &[u64],
    keys: &[u64],
    b: Element<F>,
) -> ([Vec<u64>; 4], usize) {
    let [mut x1, mut z1, mut x2, mut z2] = legs.clone();
    let mut calls = 0;
    let mut lanes = LadderLanes {
        x1: &mut x1,
        z1: &mut z1,
        x2: &mut x2,
        z2: &mut z2,
        px,
        keys,
        steps: STEPS,
    };
    B::ladder_batch::<F>(&mut lanes, &b, infinity_rule(b, &mut calls));
    ([x1, z1, x2, z2], calls)
}

/// One lockstep ladder of ragged width (eleven lanes, one with Z1 = 0)
/// on the serving backend and on the model's default schedule from the
/// same state: equal legs and equal at-infinity call counts.
fn ladder_matches_model<F: FieldSpec>(r: &mut impl FnMut() -> u64, b: Element<F>) {
    const N: usize = 11;
    let mut plane = || {
        let xs: Vec<Element<F>> = (0..N).map(|_| Element::random(&mut *r)).collect();
        to_planes(&xs)
    };
    let mut legs = [plane(), plane(), plane(), plane()];
    let px = plane();
    // Lane 3's R leg starts at infinity.
    for j in 0..LIMBS {
        legs[1][j * N + 3] = 0;
    }
    let keys: Vec<u64> = (0..LIMBS * N).map(|_| r()).collect();
    let want = run_ladder::<ModelBackend, F>(&legs, &px, &keys, b);
    let got = run_ladder::<VpclmulBackend, F>(&legs, &px, &keys, b);
    assert!(want.1 > 0, "{}: no lane took the at-infinity rule", F::NAME);
    assert_eq!(got, want, "{}: ladder", F::NAME);
}

/// A comb's accumulators, digit words and table.
struct Comb<F: FieldSpec> {
    coords: [Vec<u64>; 3],
    digits: Vec<u64>,
    columns: usize,
    table: Vec<[Element<F>; 4]>,
}

impl<F: FieldSpec> Comb<F> {
    /// Runs every column on backend `B` from this state and returns the
    /// accumulators.
    fn run<B: FieldBackend>(&self, a: &Element<F>, b: &Element<F>) -> [Vec<u64>; 3] {
        let [mut x, mut y, mut z] = self.coords.clone();
        let mut lanes = CombLanes {
            x: &mut x,
            y: &mut y,
            z: &mut z,
            digits: &self.digits,
            columns: self.columns,
        };
        B::comb_batch::<F>(&mut lanes, &self.table, a, b);
        [x, y, z]
    }
}

/// One comb of ragged width (thirteen lanes, one at infinity), six
/// columns over a table of eight entries, on the serving backend and on
/// the model's default schedule from the same state: equal
/// accumulators.
fn comb_matches_model<F: FieldSpec>(r: &mut impl FnMut() -> u64, a: Element<F>, b: Element<F>) {
    const N: usize = 13;
    const COLUMNS: usize = 6;
    let mut plane = || {
        let xs: Vec<Element<F>> = (0..N).map(|_| Element::random(&mut *r)).collect();
        to_planes(&xs)
    };
    let mut coords = [plane(), plane(), plane()];
    // Lane 5 starts at infinity.
    for j in 0..LIMBS {
        coords[2][j * N + 5] = 0;
    }
    let comb = Comb {
        coords,
        digits: (0..COLUMNS * N).map(|_| r()).collect(),
        columns: COLUMNS,
        table: (0..8)
            .map(|_| core::array::from_fn(|_| Element::random(&mut *r)))
            .collect(),
    };
    let want = comb.run::<ModelBackend>(&a, &b);
    let got = comb.run::<VpclmulBackend>(&a, &b);
    assert_eq!(got, want, "{}: comb", F::NAME);
}

#[test]
fn serving_backend_matches_model_on_the_portable_tier() {
    // Before any field operation: the tier is resolved at the first.
    std::env::set_var(BACKEND_ENV, "portable");
    assert_eq!(select_backend(), BackendChoice::Portable);
    assert_eq!(active_backend_name(), "portable");
    assert!(!clmul::hardware_available(), "PCLMULQDQ gate open");
    assert!(!vpclmul::hardware_available(), "VPCLMULQDQ gate open");

    // F(2^17) exhaustively for the one-operand maps, each element times
    // its successor for the product.
    let all: Vec<Element<F17>> = (0u64..1 << 17).map(Element::from_u64).collect();
    scalars_match_model(&all);
    let mut r = rng_from(0x9071);
    macro_rules! random_scalars {
        ($field:ty) => {
            let xs: Vec<Element<$field>> = (0..256).map(|_| Element::random(&mut r)).collect();
            scalars_match_model(&xs);
        };
    }
    random_scalars!(F163);
    random_scalars!(F233);
    random_scalars!(F283);

    batches_match_model::<F17>(&mut r);
    batches_match_model::<F163>(&mut r);
    batches_match_model::<F233>(&mut r);
    batches_match_model::<F283>(&mut r);

    // B-163's ladder, and K-283's comb (a = 0, b = 1).
    let b163 = Element::<F163>::from_hex("20a601907b8c953ca1481eb10512f78744a3205fd").unwrap();
    ladder_matches_model::<F163>(&mut r, b163);
    comb_matches_model::<F283>(&mut r, Element::zero(), Element::one());
    // Nothing above raised the tier.
    assert_eq!(active_backend_name(), "portable");
}
