//! Cross-thread-count determinism of the lane-affine scheduler.
//!
//! The `LaneScheduler` pre-chunks every lane at construction, so the
//! multiset of (lane, slot-range) batches — and therefore every batched
//! crypto call on the device side — is a pure function of the fleet
//! composition and batch size, not of how many workers drain the
//! queues. These tests pin that property end-to-end through the hub:
//! the same mixed-ward hospital must produce identical session tallies
//! and identical device-side energy books at 1, 2, 8 and 16 threads.

use medsec_fleet::{mixed_hospital_wards, run_fleet, FleetConfig, FleetReport};

fn mixed_cfg(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        wards: mixed_hospital_wards(1),
        shards: 4,
        batch_size: 8,
        seed: 0xD13_CAFE,
        forged_per_mille: 40,
        ..FleetConfig::default()
    }
}

/// The fields of a report that must be bit-identical at every worker
/// count (wall-clock and throughput legitimately differ; gateway-side
/// energy differs only in f64 summation order across workers).
fn deterministic_view(r: &FleetReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            r.devices,
            r.sessions_ok,
            r.sessions_failed,
            r.frames_ok,
            r.ph_identified,
            r.ph_failed,
            r.forged_rejected,
            r.bytes_on_air,
        ),
        r.device_energy_total_j.to_bits(),
        r.device_energy_max_j.to_bits(),
        r.profiles
            .iter()
            .map(|p| {
                (
                    p.profile.clone(),
                    p.devices,
                    p.sessions_ok,
                    p.sessions_failed,
                    p.energy_per_session_j.to_bits(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn mixed_fleet_outcome_is_identical_at_every_thread_count() {
    let baseline = run_fleet(&mixed_cfg(1));
    assert_eq!(baseline.devices, 51);
    assert!(baseline.sessions_completed() > 0);
    assert!(baseline.forged_rejected > 0, "forged probes must fire");
    // Device energy pinned by value, not only across thread counts: a
    // provisioning change that moves what a device pays fails here.
    assert_eq!(
        baseline.device_energy_total_j.to_bits(),
        0x3f5f_f3f8_1cfe_2c31,
        "device energy total {} J moved",
        baseline.device_energy_total_j
    );
    assert_eq!(
        baseline.energy_per_session_j.to_bits(),
        0x3f04_0c87_99b8_9433,
        "device energy per session {} J moved",
        baseline.energy_per_session_j
    );
    let want = deterministic_view(&baseline);
    for threads in [2usize, 8, 16] {
        let r = run_fleet(&mixed_cfg(threads));
        assert_eq!(r.threads, threads);
        assert_eq!(
            deterministic_view(&r),
            want,
            "fleet outcome drifted at {threads} threads"
        );
    }
}

#[test]
fn skewed_fleet_is_fully_served_under_stealing() {
    // One dominant K-163 ward next to tiny wards: workers homed on the
    // small lanes must steal into the big one, and every device still
    // gets exactly one session.
    use medsec_fleet::WardSpec;
    use medsec_protocols::suite::{ProtocolId, SecurityProfile};
    use medsec_protocols::CurveId;
    let cfg = FleetConfig {
        threads: 8,
        wards: vec![
            WardSpec::new(
                SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual),
                512,
            ),
            WardSpec::new(SecurityProfile::new(CurveId::K163, ProtocolId::Mutual), 8),
            WardSpec::new(
                SecurityProfile::new(CurveId::Toy17, ProtocolId::Symmetric),
                4,
            ),
        ],
        batch_size: 16,
        seed: 0x5EED_0BAD,
        ..FleetConfig::default()
    };
    let r = run_fleet(&cfg);
    assert_eq!(r.devices, 524);
    assert_eq!(
        r.sessions_completed() + r.sessions_failed,
        524,
        "every device must be served exactly once"
    );
    assert_eq!(r.sessions_failed, 0);
}
