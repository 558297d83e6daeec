//! One gateway, one heterogeneous hospital — the paper's "security is
//! a design dimension" thesis as a single `run_fleet` call.
//!
//! Each ward sits at its own point on the energy/security pyramid:
//! toy test rigs, symmetric-only disposable sensors, K-163 pacemakers,
//! K-163 privacy-preserving neurostimulators, B-163 Schnorr staff
//! badges, K-233 pacemakers and a K-283 uplink tier (the
//! canonical `mixed_hospital_wards` mix, shared with the hub tests and
//! the fleet bench). Devices advertise their `SecurityProfile` in a
//! wire-level Negotiate hello; the curve-erased `GatewayHub` validates
//! it (reject-on-unknown), buckets them into per-curve lanes and
//! drives every bucket through the batched serving paths. The report
//! breaks throughput and energy down per profile and checks each ward
//! against its energy budget.
//!
//! ```text
//! cargo run --release --example mixed_ward
//! cargo run --release --example mixed_ward -- 4 8   # ward scale, threads
//! ```

use medsec::fleet::{mixed_hospital_wards, run_fleet, FleetConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16)
    });

    let wards = mixed_hospital_wards(scale);
    let total: usize = wards.iter().map(|w| w.devices).sum();
    let curves: std::collections::HashSet<&str> =
        wards.iter().map(|w| w.profile.curve.name()).collect();
    let protocols: std::collections::HashSet<&str> =
        wards.iter().map(|w| w.profile.protocol.name()).collect();

    let cfg = FleetConfig {
        threads,
        shards: 16,
        batch_size: 32,
        seed: 0x0DD5_EED5,
        forged_per_mille: 25,
        wards,
        ..FleetConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("mixed_ward: {e}");
        std::process::exit(2);
    }

    println!(
        "provisioning a mixed hospital: {total} devices across {} wards \
         ({} curves × {} protocols), {threads} threads…\n",
        cfg.wards.len(),
        curves.len(),
        protocols.len()
    );
    let report = run_fleet(&cfg);
    println!("{report}");

    assert!(curves.len() >= 3, "demo must mix at least three curves");
    assert!(protocols.len() >= 2, "demo must mix at least two protocols");
    assert_eq!(
        report.sessions_completed(),
        total as u64,
        "every provisioned device completes exactly one session"
    );
    assert_eq!(
        report.sessions_failed + report.ph_failed,
        0,
        "a healthy mixed fleet completes every session"
    );
    assert_eq!(report.profiles.len(), cfg.wards.len());
    for p in &report.profiles {
        assert!(
            p.within_budget,
            "{} exceeded its energy budget ({:.2} µJ > {:.2} µJ)",
            p.profile,
            p.energy_per_session_j * 1e6,
            p.energy_budget_j * 1e6
        );
    }
    println!(
        "\n{} heterogeneous sessions served through one gateway hub, every ward within budget.",
        report.sessions_completed()
    );
}
