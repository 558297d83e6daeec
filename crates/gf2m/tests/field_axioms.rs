//! Property-based verification that `Element<F>` forms a field, for the
//! paper's field F(2^163), the larger NIST fields F(2^233) and F(2^283),
//! and the toy field F(2^17).

use medsec_gf2m::{digit_serial, Element, FieldSpec, F163, F17, F233, F283};
use proptest::prelude::*;

fn arb_element<F: FieldSpec>() -> impl Strategy<Value = Element<F>> {
    proptest::collection::vec(any::<u64>(), 5).prop_map(|v| {
        let mut l = [0u64; 5];
        l.copy_from_slice(&v);
        Element::<F>::from_limbs_reduced(l)
    })
}

/// Tr(a) = Σ a^(2^i) for i in 0..m by the squaring chain: an oracle
/// independent of the half-trace identity `Element::trace` uses.
fn trace_by_squaring_chain<F: FieldSpec>(a: Element<F>) -> u8 {
    let mut acc = a;
    let mut t = a;
    for _ in 1..F::M {
        t = t.square();
        acc += t;
    }
    assert!(acc.is_zero() || acc == Element::one());
    u8::from(!acc.is_zero())
}

macro_rules! field_axioms {
    ($modname:ident, $field:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn add_commutes(a in arb_element::<$field>(), b in arb_element::<$field>()) {
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn add_associates(
                    a in arb_element::<$field>(),
                    b in arb_element::<$field>(),
                    c in arb_element::<$field>()
                ) {
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn characteristic_two(a in arb_element::<$field>()) {
                    prop_assert_eq!(a + a, Element::zero());
                }

                #[test]
                fn mul_commutes(a in arb_element::<$field>(), b in arb_element::<$field>()) {
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn mul_associates(
                    a in arb_element::<$field>(),
                    b in arb_element::<$field>(),
                    c in arb_element::<$field>()
                ) {
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn mul_distributes(
                    a in arb_element::<$field>(),
                    b in arb_element::<$field>(),
                    c in arb_element::<$field>()
                ) {
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn inverse_is_two_sided(a in arb_element::<$field>()) {
                    if !a.is_zero() {
                        let inv = a.inverse().unwrap();
                        prop_assert_eq!(a * inv, Element::one());
                        prop_assert_eq!(inv * a, Element::one());
                        prop_assert_eq!(inv.inverse().unwrap(), a);
                    }
                }

                #[test]
                fn square_is_frobenius(a in arb_element::<$field>()) {
                    prop_assert_eq!(a.square(), a * a);
                    // Frobenius is additive: (a+b)^2 = a^2 + b^2 tested via b=a+one
                    let b = a + Element::one();
                    prop_assert_eq!((a + b).square(), a.square() + b.square());
                }

                #[test]
                fn sqrt_is_inverse_of_square(a in arb_element::<$field>()) {
                    prop_assert_eq!(a.square().sqrt(), a);
                }

                #[test]
                fn hex_round_trip(a in arb_element::<$field>()) {
                    let parsed = Element::<$field>::from_hex(&a.to_hex()).unwrap();
                    prop_assert_eq!(parsed, a);
                }

                #[test]
                fn bytes_round_trip(a in arb_element::<$field>()) {
                    prop_assert_eq!(Element::<$field>::from_bytes_reduced(&a.to_bytes()), a);
                }

                #[test]
                fn trace_matches_squaring_chain(a in arb_element::<$field>()) {
                    prop_assert_eq!(a.trace(), trace_by_squaring_chain(a));
                }

                /// Solving z^2 + z = c succeeds exactly when Tr(c) = 0.
                #[test]
                fn quadratic_solvability(a in arb_element::<$field>()) {
                    match a.solve_quadratic() {
                        Some((z, _)) => {
                            prop_assert_eq!(trace_by_squaring_chain(a), 0);
                            prop_assert_eq!(z.square() + z, a);
                        }
                        None => prop_assert_eq!(trace_by_squaring_chain(a), 1),
                    }
                }
            }
        }
    };
}

field_axioms!(f163, F163);
field_axioms!(f17, F17);
field_axioms!(f233, F233);
field_axioms!(f283, F283);

proptest! {
    /// The digit-serial hardware datapath must agree with the software
    /// comb multiplier for every digit size in the design space.
    #[test]
    fn digit_serial_equals_comb(
        a in arb_element::<F163>(),
        b in arb_element::<F163>(),
        d in prop::sample::select(digit_serial::SUPPORTED_DIGITS.to_vec())
    ) {
        let (p, cycles) = digit_serial::mul_digit_serial(a, b, d);
        prop_assert_eq!(p, a * b);
        prop_assert_eq!(cycles, digit_serial::cycles_per_mul(163, d));
    }
}
