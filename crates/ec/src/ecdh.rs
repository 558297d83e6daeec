//! Key generation and elliptic-curve Diffie–Hellman.
//!
//! Used by the protocol layer: the Peeters–Hermans reader holds a
//! long-term key pair (y, Y = y·P) and every tag holds (x, X = x·P); the
//! shared-x computation `xcoord(r·Y) = xcoord(y·R)` *is* an unauthenticated
//! ECDH exchange embedded in the identification protocol (paper Fig. 2).

use medsec_gf2m::Element;

use crate::curve::{CurveSpec, Point};
use crate::ladder::{ladder_x_affine, ladder_x_only, CoordinateBlinding};
use crate::scalar::Scalar;

/// A private/public key pair on curve `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair<C: CurveSpec> {
    secret: Scalar<C>,
    public: Point<C>,
}

impl<C: CurveSpec> KeyPair<C> {
    /// Generate a fresh key pair: `sk ← Z*_n`, `PK = sk·G` through the
    /// shared fixed-base comb (`G` is fixed, so the comb computes the
    /// identical point at a fraction of the ladder's cost).
    ///
    /// This is a *compute* choice, not a *model* choice: implant-side
    /// energy is booked per point multiplication by the caller's ledger
    /// either way, and the SCA experiments trace the protected ladder /
    /// digit-serial MALU model directly, never this function.
    pub fn generate(mut next_u64: impl FnMut() -> u64) -> Self {
        let secret = Scalar::random_nonzero(&mut next_u64);
        let public = crate::comb::generator_mul(&secret);
        Self { secret, public }
    }

    /// Generate `count` fresh key pairs through the shared fixed-base
    /// comb — the bulk counterpart of [`generate`](Self::generate): the
    /// expensive `sk·G` runs inversion-free per scalar and all results
    /// are normalized with a single batched inversion.
    pub fn generate_batch(count: usize, mut next_u64: impl FnMut() -> u64) -> Vec<Self> {
        let secrets: Vec<Scalar<C>> = (0..count)
            .map(|_| Scalar::random_nonzero(&mut next_u64))
            .collect();
        let publics = crate::comb::generator_mul_batch(&secrets);
        secrets
            .into_iter()
            .zip(publics)
            .map(|(secret, public)| Self { secret, public })
            .collect()
    }

    /// The private scalar.
    pub fn secret(&self) -> &Scalar<C> {
        &self.secret
    }

    /// The public point.
    pub fn public(&self) -> &Point<C> {
        &self.public
    }

    /// ECDH: the x-coordinate of `sk · PK_peer`, or `None` if the result
    /// is the point at infinity (invalid peer key).
    pub fn shared_x(
        &self,
        peer: &Point<C>,
        mut next_u64: impl FnMut() -> u64,
    ) -> Option<Element<C::Field>> {
        match peer {
            Point::Infinity => None,
            Point::Affine { x, .. } => {
                let st = ladder_x_only::<C>(&self.secret, *x, CoordinateBlinding::RandomZ, {
                    &mut next_u64
                });
                ladder_x_affine(&st)
            }
        }
    }
}

/// Interpret a field element (e.g. an x-coordinate) as a scalar mod n —
/// the `d = xcoord(r·Y)` conversion of the Peeters–Hermans protocol,
/// whose result is secret on the reader: reduced from the element's
/// limbs by a fixed count of masked subtractions of n, one on the
/// 163-bit curves, three on K-233 and four on K-283.
pub fn xcoord_to_scalar<C: CurveSpec>(x: &Element<C::Field>) -> Scalar<C> {
    Scalar::from_field_limbs(x.limbs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Toy17, K163};

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
    fn ecdh_agreement_k163() {
        let mut r = rng_from(41);
        let alice = KeyPair::<K163>::generate(&mut r);
        let bob = KeyPair::<K163>::generate(&mut r);
        let s1 = alice.shared_x(bob.public(), &mut r).unwrap();
        let s2 = bob.shared_x(alice.public(), &mut r).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn ecdh_agreement_many_toy() {
        let mut r = rng_from(42);
        for _ in 0..32 {
            let a = KeyPair::<Toy17>::generate(&mut r);
            let b = KeyPair::<Toy17>::generate(&mut r);
            assert_eq!(
                a.shared_x(b.public(), &mut r),
                b.shared_x(a.public(), &mut r)
            );
        }
    }

    #[test]
    fn generate_batch_yields_valid_consistent_pairs() {
        let mut r = rng_from(47);
        let batch = KeyPair::<K163>::generate_batch(5, &mut r);
        assert_eq!(batch.len(), 5);
        for kp in &batch {
            assert!(kp.public().is_on_curve());
            // The comb-made public key is the same point the ladder makes.
            let expect = crate::ladder::ladder_mul(
                kp.secret(),
                &K163::generator(),
                CoordinateBlinding::RandomZ,
                &mut r,
            );
            assert_eq!(*kp.public(), expect);
        }
        // Batch ECDH agreement against a ladder-generated pair.
        let solo = KeyPair::<K163>::generate(&mut r);
        let s1 = batch[0].shared_x(solo.public(), &mut r).unwrap();
        let s2 = solo.shared_x(batch[0].public(), &mut r).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn shared_x_rejects_infinity() {
        let mut r = rng_from(43);
        let a = KeyPair::<Toy17>::generate(&mut r);
        assert_eq!(a.shared_x(&Point::infinity(), &mut r), None);
    }

    #[test]
    fn public_key_is_on_curve_and_nontrivial() {
        let mut r = rng_from(44);
        let kp = KeyPair::<K163>::generate(&mut r);
        assert!(kp.public().is_on_curve());
        assert!(!kp.public().is_infinity());
    }

    #[test]
    fn xcoord_to_scalar_is_deterministic() {
        let mut r = rng_from(45);
        let kp = KeyPair::<K163>::generate(&mut r);
        let x = kp.public().x().unwrap();
        assert_eq!(xcoord_to_scalar::<K163>(&x), xcoord_to_scalar::<K163>(&x));
    }
}
