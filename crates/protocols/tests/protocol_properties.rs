//! Property-based protocol tests: completeness over arbitrary
//! randomness, soundness against mauling, ledger accounting invariants.

use medsec_ec::{Scalar, Toy17};
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::peeters_hermans::{run_session, PhReader, PhTranscript};
use medsec_protocols::EnergyLedger;
use medsec_rng::SplitMix64;
use proptest::prelude::*;

fn ledger() -> EnergyLedger {
    EnergyLedger::new(
        EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
        RadioModel::first_order_default(),
        2.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PH identification is complete for every seed and tag count.
    #[test]
    fn ph_completeness(seed in any::<u64>(), tag_count in 1u32..6) {
        let mut rng = SplitMix64::new(seed);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tags: Vec<_> = (0..tag_count)
            .map(|i| reader.register_tag(i, rng.as_fn()))
            .collect();
        for (i, tag) in tags.iter_mut().enumerate() {
            let mut l = ledger();
            let (id, _) = run_session(tag, &reader, &mut l, rng.as_fn());
            prop_assert_eq!(id, Some(i as u32));
            // Exactly two point multiplications on the tag.
            prop_assert!((l.compute() - 2.0 * 5.1e-6).abs() < 1e-9);
        }
    }

    /// Any mauled response scalar must be rejected.
    #[test]
    fn ph_soundness_under_mauling(seed in any::<u64>(), delta in 1u64..65586) {
        let mut rng = SplitMix64::new(seed);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut tag = reader.register_tag(0, rng.as_fn());
        let mut l = ledger();
        let commitment = {
            let c = tag.commit(rng.as_fn(), &mut l);
            c
        };
        let challenge = reader.challenge(rng.as_fn());
        let response = tag.respond(&challenge, rng.as_fn(), &mut l)
            + Scalar::from_u64(delta);
        let t = PhTranscript { commitment, challenge, response };
        prop_assert_eq!(reader.identify(&t, rng.as_fn()), None);
    }
}
