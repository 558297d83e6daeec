//! The tracking game — operationalizing the paper's location-privacy
//! claim (§4): Peeters–Hermans transcripts are unlinkable, Schnorr tags
//! "can be easily traced", and symmetric-key devices broadcast a stable
//! identity.
//!
//! Game (left-or-right unlinkability): two tags T₀, T₁ are registered;
//! the adversary first *observes* labeled sessions of each (learning
//! phase), then receives transcripts of the hidden challenge tag T_b and
//! guesses b. Advantage = 2·|Pr\[win\] − ½|.

use medsec_ec::CurveSpec;
use medsec_power::{EnergyReport, RadioModel};
use medsec_rng::SplitMix64;

use crate::energy::EnergyLedger;
use crate::peeters_hermans::{run_session as ph_session, PhReader};
use crate::schnorr::{extract_public_key, run_session as schnorr_session, SchnorrTag};
use crate::symmetric::{run_session as sym_session, SymmetricServer};

/// Result of a tracking-game estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameResult {
    /// Number of game rounds played.
    pub rounds: usize,
    /// Fraction of rounds the adversary guessed b correctly.
    pub win_rate: f64,
    /// Advantage = 2·|win_rate − 0.5| ∈ [0, 1].
    pub advantage: f64,
}

fn result(rounds: usize, wins: usize) -> GameResult {
    let win_rate = wins as f64 / rounds as f64;
    GameResult {
        rounds,
        win_rate,
        advantage: (2.0 * (win_rate - 0.5)).abs(),
    }
}

fn scratch_ledger() -> EnergyLedger {
    EnergyLedger::new(
        EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
        RadioModel::first_order_default(),
        1.0,
    )
}

/// Play the tracking game against the Peeters–Hermans protocol.
///
/// The adversary is given everything an eavesdropper can have —
/// transcripts of both tags during learning, and the challenge
/// transcript — and applies the strongest generic linking strategy
/// available to it: nearest-neighbour matching on the response values.
/// (Without the reader secret y, `s = d + x + e·r` is masked by the
/// fresh `d + e·r` every session.)
pub fn ph_tracking_game<C: CurveSpec>(rounds: usize, seed: u64) -> GameResult {
    let mut rng = SplitMix64::new(seed);
    let mut wins = 0usize;
    for _ in 0..rounds {
        let mut reader = PhReader::<C>::new(rng.as_fn());
        let mut tag0 = reader.register_tag(0, rng.as_fn());
        let mut tag1 = reader.register_tag(1, rng.as_fn());

        // Learning phase: labeled transcripts.
        let mut l = scratch_ledger();
        let (_, ref0) = ph_session(&mut tag0, &reader, &mut l, rng.as_fn());
        let (_, ref1) = ph_session(&mut tag1, &reader, &mut l, rng.as_fn());

        // Challenge phase.
        let b = rng.next_u64() & 1;
        let challenge = {
            let tag = if b == 0 { &mut tag0 } else { &mut tag1 };
            let (_, t) = ph_session(tag, &reader, &mut l, rng.as_fn());
            t
        };

        // Generic linking attempt: compare the challenge response to the
        // reference responses (scalar distance in Z_n has no structure
        // the adversary can exploit, so this is as good as guessing).
        let d0 = challenge.response - ref0.response;
        let d1 = challenge.response - ref1.response;
        let guess = u64::from(d1 < d0);
        if guess == b {
            wins += 1;
        }
    }
    result(rounds, wins)
}

/// Play the tracking game against Schnorr identification: the adversary
/// extracts `X = e⁻¹(s·P − R)` from every transcript and matches it.
pub fn schnorr_tracking_game<C: CurveSpec>(rounds: usize, seed: u64) -> GameResult {
    let mut rng = SplitMix64::new(seed);
    let mut wins = 0usize;
    for _ in 0..rounds {
        let mut tag0 = SchnorrTag::<C>::new(rng.as_fn());
        let mut tag1 = SchnorrTag::<C>::new(rng.as_fn());

        let mut l = scratch_ledger();
        let (_, ref0) = schnorr_session(&mut tag0, &mut l, rng.as_fn());
        let x0 = extract_public_key(&ref0, rng.as_fn()).expect("nonzero challenge");

        let b = rng.next_u64() & 1;
        let challenge = {
            let tag = if b == 0 { &mut tag0 } else { &mut tag1 };
            let (_, t) = schnorr_session(tag, &mut l, rng.as_fn());
            t
        };
        let x_hat = extract_public_key(&challenge, rng.as_fn()).expect("nonzero challenge");
        let guess = u64::from(x_hat != x0);
        if guess == b {
            wins += 1;
        }
    }
    result(rounds, wins)
}

/// Play the tracking game against the symmetric challenge–response
/// protocol: the device identity is in every transcript.
pub fn symmetric_tracking_game(rounds: usize, seed: u64) -> GameResult {
    let mut rng = SplitMix64::new(seed);
    let mut wins = 0usize;
    for _ in 0..rounds {
        let mut server = SymmetricServer::new();
        let dev0 = server.register_device(100, rng.as_fn());
        let dev1 = server.register_device(200, rng.as_fn());

        let mut l = scratch_ledger();
        let (_, ref0) = sym_session(&dev0, &server, &mut l, rng.as_fn());

        let b = rng.next_u64() & 1;
        let dev = if b == 0 { &dev0 } else { &dev1 };
        let (_, challenge) = sym_session(dev, &server, &mut l, rng.as_fn());
        let guess = u64::from(challenge.device_id != ref0.device_id);
        if guess == b {
            wins += 1;
        }
    }
    result(rounds, wins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;

    #[test]
    fn ph_adversary_cannot_track() {
        let r = ph_tracking_game::<Toy17>(200, 6401);
        assert!(
            r.advantage < 0.2,
            "PH should be private, advantage {}",
            r.advantage
        );
    }

    #[test]
    fn schnorr_adversary_tracks_perfectly() {
        let r = schnorr_tracking_game::<Toy17>(60, 6402);
        assert!(
            r.advantage > 0.95,
            "Schnorr should be linkable, advantage {}",
            r.advantage
        );
    }

    #[test]
    fn symmetric_identity_tracks_perfectly() {
        let r = symmetric_tracking_game(200, 6403);
        assert!(r.advantage > 0.95, "advantage {}", r.advantage);
    }

    #[test]
    fn advantage_arithmetic() {
        let r = result(100, 50);
        assert_eq!(r.advantage, 0.0);
        let r = result(100, 100);
        assert_eq!(r.advantage, 1.0);
        let r = result(100, 0);
        assert_eq!(r.advantage, 1.0); // always-wrong is also full advantage
    }
}
