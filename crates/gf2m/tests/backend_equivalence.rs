//! Serving-backend ⇄ model-backend equivalence.
//!
//! The serving stack runs on [`VpclmulBackend`], its kernels picked by
//! the CPU tier [`medsec_gf2m::select_backend`] resolves to; the model
//! backend is the bit-exact oracle. These tests are the contract that
//! lets them coexist: on the brute-forceable toy field the equivalence
//! is **exhaustive**, on the NIST fields it is property-based, and the
//! digit-serial MALU model is cross-checked against them. The serving
//! backend runs on this process's tier (hardware `PCLMULQDQ` where
//! CPUID reports it, the portable word products elsewhere), and
//! [`portable`]'s scalar product is pinned on any tier; both must be
//! bit-exact against the model. `tests/portable_tier.rs` runs the
//! whole serving backend on the portable tier on every host.

use medsec_gf2m::digit_serial::mul_digit_serial;
use medsec_gf2m::{
    batch_invert, batch_invert_planes, portable, Element, FieldBackend, FieldSpec, ModelBackend,
    Planes, VpclmulBackend, F163, F17, F233, F283, LIMBS,
};
use proptest::prelude::*;

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

/// Unpacks slot `i` of a plane-major SoA batch as raw limbs.
fn from_planes(planes: &[u64], n: usize, i: usize) -> [u64; LIMBS] {
    let mut limbs = [0u64; LIMBS];
    for (j, l) in limbs.iter_mut().enumerate() {
        *l = planes[j * n + i];
    }
    limbs
}

/// Runs both backends' batch entry points on the same operands and
/// pins each slot against the scalar model product.
fn assert_batch_matches_model<F: FieldSpec>(xs: &[Element<F>], ys: &[Element<F>]) {
    let n = xs.len();
    let ap = to_planes(xs);
    let bp = to_planes(ys);
    let expect_mul: Vec<[u64; LIMBS]> = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| *ModelBackend::mul(x, y).limbs())
        .collect();
    let expect_sqr: Vec<[u64; LIMBS]> = xs
        .iter()
        .map(|x| *ModelBackend::square(x).limbs())
        .collect();
    let mut out = vec![0u64; LIMBS * n];
    macro_rules! check {
        ($backend:ty) => {
            <$backend>::mul_batch::<F>(&mut out, &ap, &bp);
            for i in 0..n {
                assert_eq!(
                    from_planes(&out, n, i),
                    expect_mul[i],
                    "{} mul_batch n={n} i={i}",
                    stringify!($backend)
                );
            }
            <$backend>::sqr_batch::<F>(&mut out, &ap);
            for i in 0..n {
                assert_eq!(
                    from_planes(&out, n, i),
                    expect_sqr[i],
                    "{} sqr_batch n={n} i={i}",
                    stringify!($backend)
                );
            }
            // Aliased inputs: mul_batch(out, a, a) must square.
            <$backend>::mul_batch::<F>(&mut out, &ap, &ap);
            for i in 0..n {
                assert_eq!(
                    from_planes(&out, n, i),
                    expect_sqr[i],
                    "{} aliased mul_batch n={n} i={i}",
                    stringify!($backend)
                );
            }
        };
    }
    check!(ModelBackend);
    check!(VpclmulBackend);
}

/// Every element of F(2^17), 0..2^17.
fn f17_all() -> impl Iterator<Item = Element<F17>> {
    (0u64..1 << 17).map(Element::from_u64)
}

#[test]
fn f17_square_agrees_exhaustively() {
    for a in f17_all() {
        let model = ModelBackend::square(&a);
        assert_eq!(portable::square(&a), model, "square mismatch at {a}");
        assert_eq!(
            VpclmulBackend::square(&a),
            model,
            "vpclmul square mismatch at {a}"
        );
    }
}

#[test]
fn f17_inverse_agrees_exhaustively() {
    for a in f17_all() {
        let fast = VpclmulBackend::invert(&a);
        let model = ModelBackend::invert(&a);
        assert_eq!(fast, model, "vpclmul inverse at {a}");
        if let Some(inv) = fast {
            assert_eq!(a * inv, Element::one(), "not an inverse at {a}");
        }
    }
}

#[test]
fn f17_half_trace_agrees_exhaustively() {
    for a in f17_all() {
        let model = ModelBackend::half_trace(&a);
        assert_eq!(
            VpclmulBackend::half_trace(&a),
            model,
            "vpclmul half_trace mismatch at {a}"
        );
    }
}

#[test]
fn f17_mul_agrees_on_dense_grid() {
    // All pairs is 2^34 — instead sweep every element against a fixed
    // panel of structurally diverse multipliers (low, high, sparse,
    // dense), plus a full small-square corner.
    let panel: Vec<Element<F17>> = [1u64, 2, 3, 0x1_0000, 0x1_ffff, 0x15555, 0x0aaaa, 0x1e240]
        .into_iter()
        .map(Element::from_u64)
        .collect();
    for a in f17_all() {
        for &b in &panel {
            let model = ModelBackend::mul(&a, &b);
            assert_eq!(portable::mul(&a, &b), model, "mul mismatch at {a} * {b}");
            assert_eq!(
                VpclmulBackend::mul(&a, &b),
                model,
                "vpclmul mul mismatch at {a} * {b}"
            );
        }
    }
    for av in 0u64..512 {
        let a = Element::<F17>::from_u64(av);
        for bv in 0u64..512 {
            let b = Element::<F17>::from_u64(bv);
            let model = ModelBackend::mul(&a, &b);
            assert_eq!(portable::mul(&a, &b), model);
            assert_eq!(VpclmulBackend::mul(&a, &b), model);
        }
    }
}

#[test]
fn f17_digit_serial_matches_both_backends() {
    // The MALU model is the third implementation of the same product;
    // spot-check it against the seam on a scalar sweep.
    for av in (0u64..1 << 17).step_by(97) {
        let a = Element::<F17>::from_u64(av);
        let b = Element::<F17>::from_u64(av.wrapping_mul(0x9e37).wrapping_add(5) & 0x1ffff);
        let (p, _) = mul_digit_serial(a, b, 4);
        assert_eq!(p, VpclmulBackend::mul(&a, &b));
        assert_eq!(p, ModelBackend::mul(&a, &b));
    }
}

/// Strategy for a random element of `F` from raw u64s.
fn arb_element<F: FieldSpec>() -> impl Strategy<Value = Element<F>> {
    prop::collection::vec(any::<u64>(), 5).prop_map(|words| {
        let mut i = 0;
        Element::<F>::random(move || {
            let w = words[i % words.len()];
            i += 1;
            w
        })
    })
}

macro_rules! field_equivalence {
    ($name:ident, $field:ty) => {
        proptest! {
            #[test]
            fn $name(a in arb_element::<$field>(), b in arb_element::<$field>()) {
                let model_mul = ModelBackend::mul(&a, &b);
                prop_assert_eq!(portable::mul(&a, &b), model_mul);
                prop_assert_eq!(VpclmulBackend::mul(&a, &b), model_mul);
                prop_assert_eq!(portable::square(&a), ModelBackend::square(&a));
                prop_assert_eq!(VpclmulBackend::square(&a), ModelBackend::square(&a));
                prop_assert_eq!(VpclmulBackend::invert(&a), ModelBackend::invert(&a));
                let model_ht = ModelBackend::half_trace(&a);
                prop_assert_eq!(VpclmulBackend::half_trace(&a), model_ht);
                // The ring laws hold across the seam: (a·b)² = a²·b².
                let lhs = portable::square(&model_mul);
                let rhs = ModelBackend::mul(
                    &VpclmulBackend::square(&a),
                    &portable::square(&b),
                );
                prop_assert_eq!(lhs, rhs);
            }
        }
    };
}

field_equivalence!(f163_backends_agree, F163);
field_equivalence!(f233_backends_agree, F233);
field_equivalence!(f283_backends_agree, F283);

proptest! {
    #[test]
    fn batch_invert_matches_singles_f233(
        elems in prop::collection::vec(arb_element::<F233>(), 0..24),
        zero_at in any::<u64>(),
    ) {
        let mut v = elems;
        if !v.is_empty() {
            let idx = (zero_at as usize) % v.len();
            v[idx] = Element::zero();
        }
        let orig = v.clone();
        let inverted = batch_invert(&mut v);
        prop_assert_eq!(inverted, orig.iter().filter(|e| !e.is_zero()).count());
        for (got, a) in v.iter().zip(&orig) {
            match a.inverse() {
                Some(expect) => prop_assert_eq!(*got, expect),
                None => prop_assert!(got.is_zero()),
            }
        }
    }

    /// Zero elements interleaved arbitrarily with units — including
    /// runs of zeros at either batch boundary — must be skipped without
    /// perturbing any other slot's inverse or the returned count.
    #[test]
    fn batch_invert_interleaved_zeros_f163(
        elems in prop::collection::vec(arb_element::<F163>(), 1..32),
        zero_mask in any::<u32>(),
    ) {
        let mut v = elems;
        for (i, e) in v.iter_mut().enumerate() {
            if (zero_mask >> (i % 32)) & 1 == 1 {
                *e = Element::zero();
            }
        }
        let orig = v.clone();
        let inverted = batch_invert(&mut v);
        prop_assert_eq!(inverted, orig.iter().filter(|e| !e.is_zero()).count());
        for (got, a) in v.iter().zip(&orig) {
            match a.inverse() {
                Some(expect) => prop_assert_eq!(*got, expect),
                None => prop_assert!(got.is_zero()),
            }
        }
    }
}

/// Exhaustive F17 batch sweep: every element rides through the batch
/// entry points of both backends (in chunks of 173, a width that is
/// no multiple of the `VPCLMULQDQ` chunk, plus a ragged final tail)
/// against a structurally diverse multiplier panel.
#[test]
fn f17_batch_agrees_exhaustively() {
    let all: Vec<Element<F17>> = f17_all().collect();
    let panel: Vec<Element<F17>> = [0u64, 1, 2, 0x1_0000, 0x1_ffff, 0x15555, 0x1e240]
        .into_iter()
        .map(Element::from_u64)
        .collect();
    // 131072 elements; chunk to keep each call's planes cache-resident
    // and to exercise a ragged tail (131072 mod 173 != 0).
    for chunk in all.chunks(173) {
        for &b in &panel {
            let ys = vec![b; chunk.len()];
            assert_batch_matches_model(chunk, &ys);
        }
    }
}

#[test]
fn batch_entry_points_handle_empty_batches() {
    let empty: Vec<Element<F163>> = Vec::new();
    assert_batch_matches_model(&empty, &empty);
}

macro_rules! field_batch_equivalence {
    ($name:ident, $field:ty) => {
        proptest! {
            /// Batch entry points of both backends vs the scalar model,
            /// at widths 0–70: many multiples of the VPCLMULQDQ chunk (8)
            /// and every ragged tail after them.
            #[test]
            fn $name(
                pairs in prop::collection::vec(
                    (arb_element::<$field>(), arb_element::<$field>()),
                    0..=70,
                ),
            ) {
                let xs: Vec<Element<$field>> = pairs.iter().map(|p| p.0).collect();
                let ys: Vec<Element<$field>> = pairs.iter().map(|p| p.1).collect();
                assert_batch_matches_model(&xs, &ys);
            }
        }
    };
}

field_batch_equivalence!(f163_batch_backends_agree, F163);
field_batch_equivalence!(f233_batch_backends_agree, F233);
field_batch_equivalence!(f283_batch_backends_agree, F283);

/// Inverts `v` as one plane-major batch and checks the count and every
/// slot against scalar inversion.
fn invert_planes_checked<F: FieldSpec>(v: &[Element<F>]) {
    let mut planes = Planes::new();
    planes.reset(v.len());
    for (i, e) in v.iter().enumerate() {
        planes.set(i, e);
    }
    let inverted = batch_invert_planes::<F>(&mut planes);
    assert_eq!(inverted, v.iter().filter(|e| !e.is_zero()).count());
    for (i, a) in v.iter().enumerate() {
        assert_eq!(planes.get::<F>(i), a.inverse().unwrap_or(Element::zero()));
    }
}

proptest! {
    /// The planes-level batch inversion on the thread's scratch: same
    /// zero contract as `batch_invert`, exercised across the
    /// scalar-cutoff and the blocked lockstep path (ragged lane tails
    /// included). Between the two F163 batches the same thread inverts
    /// a wider F283 batch and an F17 batch, the way a hub worker moves
    /// from one curve lane to the next.
    #[test]
    fn batch_invert_planes_matches_singles_f163(
        elems in prop::collection::vec(arb_element::<F163>(), 0..96),
        wide in prop::collection::vec(arb_element::<F283>(), 96..130),
        toy in prop::collection::vec(arb_element::<F17>(), 0..40),
        zero_mask in any::<u64>(),
    ) {
        let mut v = elems;
        for (i, e) in v.iter_mut().enumerate() {
            if (zero_mask >> (i % 64)) & 1 == 1 {
                *e = Element::zero();
            }
        }
        let mut planes = Planes::new();
        planes.reset(v.len());
        for (i, e) in v.iter().enumerate() {
            planes.set(i, e);
        }
        let inverted = batch_invert_planes::<F163>(&mut planes);
        prop_assert_eq!(inverted, v.iter().filter(|e| !e.is_zero()).count());
        for (i, a) in v.iter().enumerate() {
            let got: Element<F163> = planes.get(i);
            match a.inverse() {
                Some(expect) => prop_assert_eq!(got, expect),
                None => prop_assert!(got.is_zero()),
            }
        }
        // Scratch reuse must not leak state between batches, of any
        // width or field.
        let mut wide = wide;
        for (i, e) in wide.iter_mut().enumerate() {
            if (zero_mask >> (i % 61)) & 1 == 1 {
                *e = Element::zero();
            }
        }
        invert_planes_checked::<F283>(&wide);
        invert_planes_checked::<F17>(&toy);
        let mut again = Planes::new();
        again.reset(v.len());
        for (i, e) in v.iter().enumerate() {
            again.set(i, e);
        }
        let inverted2 = batch_invert_planes::<F163>(&mut again);
        prop_assert_eq!(inverted2, inverted);
        for i in 0..v.len() {
            prop_assert_eq!(again.get::<F163>(i), planes.get::<F163>(i));
        }
    }

    /// Large batches cross the blocked-Montgomery threshold; pin the
    /// count and every slot against scalar inversion.
    #[test]
    fn batch_invert_large_batches_f233(
        elems in prop::collection::vec(arb_element::<F233>(), 48..80),
        zero_mask in any::<u64>(),
    ) {
        let mut v = elems;
        for (i, e) in v.iter_mut().enumerate() {
            if (zero_mask >> (i % 64)) & 1 == 1 {
                *e = Element::zero();
            }
        }
        let orig = v.clone();
        let inverted = batch_invert(&mut v);
        prop_assert_eq!(inverted, orig.iter().filter(|e| !e.is_zero()).count());
        for (got, a) in v.iter().zip(&orig) {
            match a.inverse() {
                Some(expect) => prop_assert_eq!(*got, expect),
                None => prop_assert!(got.is_zero()),
            }
        }
    }
}
