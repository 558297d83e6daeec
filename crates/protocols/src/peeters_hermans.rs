//! The Peeters–Hermans private identification protocol (paper Fig. 2).
//!
//! ```text
//! Tag T (state: x, Y = y·P)                 Reader R (secrets: y; DB: {Xi = xi·P})
//!   r ∈R Z*ℓ, R = r·P          ──R──▶
//!                              ◀──e──       e ∈R Z*ℓ
//!   d = xcoord(r·Y)
//!   s = d + x + e·r            ──s──▶       ḋ = xcoord(y·R)
//!                                           X̂ = s·P − ḋ·P − e·R  ∈? DB
//! ```
//!
//! The tag-side cost is exactly what the paper's co-processor was built
//! for: "the main operation on the tag is two point multiplications
//! (namely r·P and r·Y), and one modular multiplication (namely e·r)"
//! (§4). The protocol achieves wide-forward-insider privacy \[14\]: a
//! transcript (R, e, s) is unlinkable without the reader's secret y.

use medsec_ec::{
    generator_mul,
    ladder::{ladder_x_affine, ladder_x_only, CoordinateBlinding},
    varbase_mul_add_gen_batch, varbase_x_batch, xcoord_to_scalar, CurveSpec, Point, Scalar,
};

use crate::energy::EnergyLedger;

/// Identifier the reader's database assigns to each registered tag.
pub type TagId = u32;

/// Byte length of a compressed point for curve `C`.
fn point_bytes<C: CurveSpec>() -> usize {
    Point::<C>::compressed_len()
}

/// Byte length of a scalar for curve `C`.
fn scalar_bytes<C: CurveSpec>() -> usize {
    Scalar::<C>::zero().to_bytes().len()
}

/// A protocol transcript as seen by an eavesdropper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhTranscript<C: CurveSpec> {
    /// The tag's commitment R = r·P.
    pub commitment: Point<C>,
    /// The reader's challenge e.
    pub challenge: Scalar<C>,
    /// The tag's response s.
    pub response: Scalar<C>,
}

/// A tag: holds its private key x and the reader's public key Y.
#[derive(Debug, Clone)]
pub struct PhTag<C: CurveSpec> {
    secret: Scalar<C>,
    reader_public: Point<C>,
    /// Pending per-session nonce r (between commitment and response).
    session_r: Option<Scalar<C>>,
}

impl<C: CurveSpec> PhTag<C> {
    /// Create a tag with private key `x` and the reader's public key.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or the reader key is the identity.
    pub fn new(secret: Scalar<C>, reader_public: Point<C>) -> Self {
        assert!(!secret.is_zero(), "tag secret must be nonzero");
        assert!(!reader_public.is_infinity(), "reader key must be valid");
        Self {
            secret,
            reader_public,
            session_r: None,
        }
    }

    /// Round 1: generate the commitment R = r·P.
    ///
    /// Costs one point multiplication plus the transmission of a
    /// compressed point, both booked on `ledger`. `R` is a generator
    /// multiple, so the *computation* goes through the shared comb; the
    /// implant's energy/SCA cost model (one protected-ladder point
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
        ledger.tx(point_bytes::<C>());
        commitment
    }

    /// Round 2: answer the challenge with s = d + x + e·r, where
    /// d = xcoord(r·Y).
    ///
    /// Costs the second point multiplication (x-only — no y-recovery
    /// needed, an algorithm-level saving), one modular multiplication,
    /// and the response transmission.
    ///
    /// # Panics
    ///
    /// Panics if called before [`commit`](Self::commit).
    pub fn respond(
        &mut self,
        challenge: &Scalar<C>,
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Scalar<C> {
        let r = self.session_r.take().expect("commit must precede respond");
        ledger.rx(scalar_bytes::<C>());
        let yx = self
            .reader_public
            .x()
            .expect("reader key validated nonzero");
        let state = ladder_x_only::<C>(&r, yx, CoordinateBlinding::RandomZ, &mut next_u64);
        let d_elem = ladder_x_affine(&state).expect("r·Y cannot be the identity");
        let d = xcoord_to_scalar::<C>(&d_elem);
        let s = d + self.secret + *challenge * r;
        ledger.point_mul();
        ledger.tx(scalar_bytes::<C>());
        s
    }
}

/// The reader: holds the private key y and the tag database.
#[derive(Debug, Clone)]
pub struct PhReader<C: CurveSpec> {
    secret: Scalar<C>,
    public: Point<C>,
    /// X → id tag database (identification is a point-equality search;
    /// at fleet scale it must not be a linear scan).
    db: std::collections::HashMap<Point<C>, TagId>,
}

impl<C: CurveSpec> PhReader<C> {
    /// Create a reader with a fresh key pair.
    pub fn new(mut next_u64: impl FnMut() -> u64) -> Self {
        let secret = Scalar::random_nonzero(&mut next_u64);
        let public = generator_mul::<C>(&secret);
        Self {
            secret,
            public,
            db: std::collections::HashMap::new(),
        }
    }

    /// The reader's public key Y (provisioned into tags).
    pub fn public(&self) -> &Point<C> {
        &self.public
    }

    /// Register a new tag: generates its key pair, stores X = x·P in the
    /// database, and returns the tag device.
    ///
    /// Enrollment rejects public-key collisions: a database holding the
    /// same X twice cannot distinguish those tags at identification
    /// time, so a colliding key is regenerated. On small curves (the
    /// 17-bit toy curve at fleet scale) collisions genuinely occur.
    ///
    /// # Panics
    ///
    /// Panics if a collision-free key cannot be found in 1 000 draws —
    /// the database is saturating the group.
    pub fn register_tag(&mut self, id: TagId, mut next_u64: impl FnMut() -> u64) -> PhTag<C> {
        for _ in 0..1000 {
            let x = Scalar::random_nonzero(&mut next_u64);
            let public = generator_mul::<C>(&x);
            if self.db.contains_key(&public) {
                continue;
            }
            self.db.insert(public, id);
            return PhTag::new(x, self.public);
        }
        panic!("tag database saturates the curve group; no unique key found");
    }

    /// Generate a challenge e.
    pub fn challenge(&self, mut next_u64: impl FnMut() -> u64) -> Scalar<C> {
        Scalar::random_nonzero(&mut next_u64)
    }

    /// Round 3: identify the tag from (R, e, s) by computing
    /// X̂ = s·P − ḋ·P − e·R and searching the database.
    ///
    /// Reader-side cost: three point multiplications plus the ḋ
    /// computation — deliberately asymmetric, "the heaviest computation
    /// load is for the reader" (§4). The two fixed-base terms `s·P` and
    /// `d·P` run on the shared comb (the reader is the wall-powered
    /// side; SPA resistance is a tag concern); only `e·R` — a variable
    /// base — still pays for a ladder.
    pub fn identify(
        &self,
        transcript: &PhTranscript<C>,
        mut next_u64: impl FnMut() -> u64,
    ) -> Option<TagId> {
        self.identify_batch(core::slice::from_ref(transcript), &mut next_u64)
            .pop()
            .expect("one result per transcript")
    }

    /// Batched round 3: identify many transcripts in one call.
    ///
    /// Both variable-base stages run through the
    /// [`medsec_ec::varbase`] entry points, the protected ladder in
    /// lockstep over the batch, keeping the one-inversion-per-batch
    /// normalization contract. The reader's long-term key y is one of
    /// the ladder's scalars, so phase 1 steers only masked swaps with
    /// it:
    ///
    /// 1. every ḋ = xcoord(y·R) in one [`varbase_x_batch`] call;
    /// 2. every candidate `X̂ = s·P − ḋ·P − e·R`, rewritten as the
    ///    single two-scalar form `(s − ḋ)·P + (−e)·R`, in one
    ///    [`varbase_mul_add_gen_batch`] call — one comb term and one
    ///    ladder per transcript instead of two fixed-base
    ///    multiplications, a full ladder and two affine additions.
    ///
    /// Both calls keep their normalization scratch thread-local, so a
    /// serving worker reuses it from batch to batch without holding
    /// any. Entry `i` of the result corresponds to `transcripts[i]`.
    pub fn identify_batch(
        &self,
        transcripts: &[PhTranscript<C>],
        mut next_u64: impl FnMut() -> u64,
    ) -> Vec<Option<TagId>> {
        // Phase 1: ḋ = xcoord(y·R) for every commitment, one engine
        // batch (commitments at infinity yield None and fail below).
        let d_items: Vec<(Scalar<C>, Point<C>)> = transcripts
            .iter()
            .map(|t| (self.secret, t.commitment))
            .collect();
        let ds: Vec<Option<Scalar<C>>> = varbase_x_batch(&d_items, &mut next_u64)
            .into_iter()
            .map(|x| x.map(|x| xcoord_to_scalar::<C>(&x)))
            .collect();

        // Phase 2: X̂ = (s − ḋ)·P + (−e)·R for every live transcript,
        // one engine batch.
        let items: Vec<(Scalar<C>, Scalar<C>, Point<C>)> = transcripts
            .iter()
            .zip(&ds)
            .filter_map(|(t, d)| d.map(|d| (t.response - d, -t.challenge, t.commitment)))
            .collect();
        let mut candidates = varbase_mul_add_gen_batch(&items, &mut next_u64).into_iter();

        // Phase 3: the DB lookup per transcript.
        transcripts
            .iter()
            .zip(&ds)
            .map(|(_, d)| {
                d.as_ref()?;
                let x_hat = candidates.next().expect("one candidate per live entry");
                self.lookup(&x_hat)
            })
            .collect()
    }

    /// Constant-time-irrelevant database lookup (hash-indexed; the
    /// linear scan became the bottleneck once the point math was
    /// batched).
    fn lookup(&self, x_hat: &Point<C>) -> Option<TagId> {
        self.db.get(x_hat).copied()
    }
}

/// Run one complete identification session; returns the reader's
/// decision and the transcript. The tag's energy is booked on `ledger`.
pub fn run_session<C: CurveSpec>(
    tag: &mut PhTag<C>,
    reader: &PhReader<C>,
    ledger: &mut EnergyLedger,
    mut next_u64: impl FnMut() -> u64,
) -> (Option<TagId>, PhTranscript<C>) {
    let commitment = tag.commit(&mut next_u64, ledger);
    let challenge = reader.challenge(&mut next_u64);
    let response = tag.respond(&challenge, &mut next_u64, ledger);
    let transcript = PhTranscript {
        commitment,
        challenge,
        response,
    };
    (reader.identify(&transcript, &mut next_u64), transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::{Toy17, K163};
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
    fn completeness_toy_many_tags() {
        let mut rng = SplitMix64::new(6001);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tags: Vec<PhTag<Toy17>> = (0..8)
            .map(|i| reader.register_tag(i, rng.as_fn()))
            .collect();
        for (i, tag) in tags.iter_mut().enumerate() {
            for _ in 0..4 {
                let mut l = ledger();
                let (id, _) = run_session(tag, &reader, &mut l, rng.as_fn());
                assert_eq!(id, Some(i as TagId));
            }
        }
    }

    #[test]
    fn completeness_k163() {
        let mut rng = SplitMix64::new(6002);
        let mut reader = PhReader::<K163>::new(rng.as_fn());
        let mut tag = reader.register_tag(7, rng.as_fn());
        let mut l = ledger();
        let (id, _) = run_session(&mut tag, &reader, &mut l, rng.as_fn());
        assert_eq!(id, Some(7));
    }

    #[test]
    fn identify_batch_matches_single_identify() {
        let mut rng = SplitMix64::new(6007);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tags: Vec<PhTag<Toy17>> = (0..6)
            .map(|i| reader.register_tag(10 + i, rng.as_fn()))
            .collect();
        let mut transcripts = Vec::new();
        for tag in tags.iter_mut() {
            let mut l = ledger();
            let commitment = tag.commit(rng.as_fn(), &mut l);
            let challenge = reader.challenge(rng.as_fn());
            let response = tag.respond(&challenge, rng.as_fn(), &mut l);
            transcripts.push(PhTranscript {
                commitment,
                challenge,
                response,
            });
        }
        // Corrupt one transcript so the batch carries a failure too.
        transcripts[3].response += Scalar::one();
        let batch = reader.identify_batch(&transcripts, rng.as_fn());
        assert_eq!(batch.len(), transcripts.len());
        for (i, (t, got)) in transcripts.iter().zip(&batch).enumerate() {
            assert_eq!(*got, reader.identify(t, rng.as_fn()), "transcript {i}");
            if i == 3 {
                assert_eq!(*got, None);
            } else {
                assert_eq!(*got, Some(10 + i as TagId));
            }
        }
        assert!(reader.identify_batch(&[], rng.as_fn()).is_empty());
    }

    #[test]
    fn unregistered_tag_is_rejected() {
        let mut rng = SplitMix64::new(6003);
        let mut reader_a = PhReader::<Toy17>::new(rng.as_fn());
        let reader_b = PhReader::<Toy17>::new(rng.as_fn());
        // Tag registered with A, presented to B (who shares no DB).
        let mut tag = reader_a.register_tag(1, rng.as_fn());
        let mut l = ledger();
        let commitment = tag.commit(rng.as_fn(), &mut l);
        let challenge = reader_b.challenge(rng.as_fn());
        let response = tag.respond(&challenge, rng.as_fn(), &mut l);
        let t = PhTranscript {
            commitment,
            challenge,
            response,
        };
        assert_eq!(reader_b.identify(&t, rng.as_fn()), None);
    }

    #[test]
    fn tampered_response_fails() {
        let mut rng = SplitMix64::new(6004);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tag = reader.register_tag(3, rng.as_fn());
        let mut l = ledger();
        let commitment = tag.commit(rng.as_fn(), &mut l);
        let challenge = reader.challenge(rng.as_fn());
        let response = tag.respond(&challenge, rng.as_fn(), &mut l) + Scalar::one();
        let t = PhTranscript {
            commitment,
            challenge,
            response,
        };
        assert_eq!(reader.identify(&t, rng.as_fn()), None);
    }

    #[test]
    fn tag_energy_accounts_two_point_muls() {
        let mut rng = SplitMix64::new(6005);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tag = reader.register_tag(0, rng.as_fn());
        let mut l = ledger();
        let _ = run_session(&mut tag, &reader, &mut l, rng.as_fn());
        // Two ECPMs at 5.1 µJ each.
        assert!((l.compute() - 2.0 * 5.1e-6).abs() < 1e-9);
        // R out, e in, s out: 22 + 21 + 21 bytes for K-163 sizing; toy
        // curve uses 4-byte points/scalars (3 + 3 + 3).
        assert!(l.bytes_on_air() > 0);
    }

    #[test]
    #[should_panic(expected = "commit must precede respond")]
    fn respond_requires_commit() {
        let mut rng = SplitMix64::new(6006);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tag = reader.register_tag(0, rng.as_fn());
        let mut l = ledger();
        let _ = tag.respond(&Scalar::one(), rng.as_fn(), &mut l);
    }
}
