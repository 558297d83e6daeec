//! Schnorr identification — the paper's example of a PKC protocol that
//! does **not** provide privacy: "not all PKC-based protocols achieve
//! strong privacy. For example, tags using the Schnorr identification
//! protocol can be easily traced" (§4).
//!
//! The traceability is structural: from a transcript (R, e, s) anyone
//! can compute `X = e⁻¹·(s·P − R)` — the tag's long-term public key —
//! so two sessions of the same tag link trivially.

use medsec_ec::{
    generator_mul,
    ladder::{ladder_mul, CoordinateBlinding},
    varbase_mul_add_gen, varbase_mul_add_gen_batch, CurveSpec, Point, Scalar,
};

use crate::energy::EnergyLedger;

/// A Schnorr transcript as seen by an eavesdropper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchnorrTranscript<C: CurveSpec> {
    /// Commitment R = r·P.
    pub commitment: Point<C>,
    /// Challenge e.
    pub challenge: Scalar<C>,
    /// Response s = r + e·x.
    pub response: Scalar<C>,
}

/// A Schnorr prover (tag) with long-term key pair (x, X = x·P).
#[derive(Debug, Clone)]
pub struct SchnorrTag<C: CurveSpec> {
    secret: Scalar<C>,
    public: Point<C>,
    session_r: Option<Scalar<C>>,
}

impl<C: CurveSpec> SchnorrTag<C> {
    /// Create a tag with a fresh key pair.
    pub fn new(mut next_u64: impl FnMut() -> u64) -> Self {
        let secret = Scalar::random_nonzero(&mut next_u64);
        let public = generator_mul::<C>(&secret);
        Self {
            secret,
            public,
            session_r: None,
        }
    }

    /// The tag's public key X (known to the verifier).
    pub fn public(&self) -> &Point<C> {
        &self.public
    }

    /// Round 1: commitment R = r·P — a generator multiple, computed on
    /// the shared comb; the tag's modeled cost (one point
    /// multiplication) is booked unchanged.
    pub fn commit(
        &mut self,
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Point<C> {
        let r = Scalar::random_nonzero(&mut next_u64);
        let commitment = generator_mul::<C>(&r);
        self.session_r = Some(r);
        ledger.point_mul();
        ledger.tx(<C::Field as medsec_gf2m::FieldSpec>::M.div_ceil(8) + 1);
        commitment
    }

    /// Round 2: response s = r + e·x.
    ///
    /// # Panics
    ///
    /// Panics if called before [`commit`](Self::commit).
    pub fn respond(&mut self, challenge: &Scalar<C>, ledger: &mut EnergyLedger) -> Scalar<C> {
        let r = self.session_r.take().expect("commit must precede respond");
        let s = r + *challenge * self.secret;
        let sbytes = s.to_bytes().len();
        ledger.rx(sbytes);
        ledger.tx(sbytes);
        s
    }
}

/// Verify a Schnorr transcript against a known public key:
/// `s·P == R + e·X`, checked as `s·P − e·X == R`.
///
/// Verification is server-side, so the whole left-hand side runs as
/// **one** call of the variable-base seam's `mul_add` (`a·G + b·Q`
/// with `a = s`, `b = −e`): the fixed-base comb plus one protected
/// ladder, the path of [`schnorr_verify_batch`] with a batch of one.
/// The device-side commitment path is untouched.
pub fn schnorr_verify<C: CurveSpec>(
    transcript: &SchnorrTranscript<C>,
    public: &Point<C>,
    mut next_u64: impl FnMut() -> u64,
) -> bool {
    let lhs = varbase_mul_add_gen(
        &transcript.response,
        &(-transcript.challenge),
        public,
        &mut next_u64,
    );
    lhs == transcript.commitment
}

/// Verify a whole batch of Schnorr transcripts, each against its own
/// public key, in one call of the variable-base seam's batched
/// `mul_add` (`s_i·P − e_i·X_i` for every entry, one shared inversion
/// for the normalization — the serving-side shape the suite layer's
/// `server_verify_batch` relies on). On fields with m ≥ 64 the
/// `e_i·X_i` ladders run in lockstep ([`medsec_ec::varbase`]). Entry
/// `i` of the result corresponds to `items[i]`.
pub fn schnorr_verify_batch<C: CurveSpec>(
    items: &[(SchnorrTranscript<C>, Point<C>)],
    mut next_u64: impl FnMut() -> u64,
) -> Vec<bool> {
    let terms: Vec<(Scalar<C>, Scalar<C>, Point<C>)> = items
        .iter()
        .map(|(t, public)| (t.response, -t.challenge, *public))
        .collect();
    varbase_mul_add_gen_batch(&terms, &mut next_u64)
        .into_iter()
        .zip(items)
        .map(|(lhs, (t, _))| lhs == t.commitment)
        .collect()
}

/// The tracking computation available to ANY eavesdropper:
/// `X = e⁻¹·(s·P − R)`. Returns `None` only for a zero challenge.
pub fn extract_public_key<C: CurveSpec>(
    transcript: &SchnorrTranscript<C>,
    mut next_u64: impl FnMut() -> u64,
) -> Option<Point<C>> {
    let e_inv = transcript.challenge.inverse()?;
    let sp = generator_mul::<C>(&transcript.response);
    let diff = sp - transcript.commitment;
    Some(ladder_mul(
        &e_inv,
        &diff,
        CoordinateBlinding::RandomZ,
        &mut next_u64,
    ))
}

/// Run one complete Schnorr session.
pub fn run_session<C: CurveSpec>(
    tag: &mut SchnorrTag<C>,
    ledger: &mut EnergyLedger,
    mut next_u64: impl FnMut() -> u64,
) -> (bool, SchnorrTranscript<C>) {
    let commitment = tag.commit(&mut next_u64, ledger);
    let challenge = Scalar::random_nonzero(&mut next_u64);
    let response = tag.respond(&challenge, ledger);
    let transcript = SchnorrTranscript {
        commitment,
        challenge,
        response,
    };
    let ok = schnorr_verify(&transcript, tag.public(), &mut next_u64);
    (ok, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;
    use medsec_power::{EnergyReport, RadioModel};
    use medsec_rng::SplitMix64;

    fn ledger() -> EnergyLedger {
        EnergyLedger::new(
            EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
            RadioModel::first_order_default(),
            2.0,
        )
    }

    #[test]
    fn completeness() {
        let mut rng = SplitMix64::new(6101);
        let mut tag = SchnorrTag::<Toy17>::new(rng.as_fn());
        for _ in 0..8 {
            let mut l = ledger();
            let (ok, _) = run_session(&mut tag, &mut l, rng.as_fn());
            assert!(ok);
        }
    }

    #[test]
    fn soundness_wrong_key_rejected() {
        let mut rng = SplitMix64::new(6102);
        let mut tag = SchnorrTag::<Toy17>::new(rng.as_fn());
        let other = SchnorrTag::<Toy17>::new(rng.as_fn());
        let mut l = ledger();
        let (_, t) = run_session(&mut tag, &mut l, rng.as_fn());
        assert!(!schnorr_verify(&t, other.public(), rng.as_fn()));
    }

    #[test]
    fn batch_verify_matches_singles() {
        let mut rng = SplitMix64::new(6105);
        let mut tags: Vec<SchnorrTag<Toy17>> =
            (0..5).map(|_| SchnorrTag::new(rng.as_fn())).collect();
        let mut items = Vec::new();
        for tag in tags.iter_mut() {
            let mut l = ledger();
            let commitment = tag.commit(rng.as_fn(), &mut l);
            let challenge = Scalar::random_nonzero(rng.as_fn());
            let response = tag.respond(&challenge, &mut l);
            items.push((
                SchnorrTranscript {
                    commitment,
                    challenge,
                    response,
                },
                *tag.public(),
            ));
        }
        // Corrupt one transcript so the batch carries a failure.
        items[2].0.response += Scalar::one();
        let batch = schnorr_verify_batch(&items, rng.as_fn());
        assert_eq!(batch.len(), items.len());
        for (i, ((t, public), got)) in items.iter().zip(&batch).enumerate() {
            assert_eq!(*got, schnorr_verify(t, public, rng.as_fn()), "entry {i}");
            assert_eq!(*got, i != 2);
        }
        assert!(schnorr_verify_batch::<Toy17>(&[], rng.as_fn()).is_empty());
    }

    #[test]
    fn eavesdropper_extracts_public_key() {
        // The linkability flaw: the public key falls out of every
        // transcript.
        let mut rng = SplitMix64::new(6103);
        let mut tag = SchnorrTag::<Toy17>::new(rng.as_fn());
        for _ in 0..4 {
            let mut l = ledger();
            let (_, t) = run_session(&mut tag, &mut l, rng.as_fn());
            let extracted = extract_public_key(&t, rng.as_fn()).unwrap();
            assert_eq!(extracted, *tag.public());
        }
    }

    #[test]
    fn schnorr_is_cheaper_for_the_tag_than_ph() {
        // One ECPM instead of two — but at the cost of privacy.
        let mut rng = SplitMix64::new(6104);
        let mut tag = SchnorrTag::<Toy17>::new(rng.as_fn());
        let mut l = ledger();
        let _ = run_session(&mut tag, &mut l, rng.as_fn());
        assert!((l.compute() - 5.1e-6).abs() < 1e-9);
    }
}
