//! The mixed hospital ward, observed: same heterogeneous fleet as
//! `mixed_ward`, but with `FleetConfig::observe` on — per-lane latency
//! percentiles, per-stage pipeline timing (including the shared
//! Montgomery batch inversions as their own stage), and the bounded
//! forensic event ring.
//!
//! Prints the human report, the machine-readable JSON (validated with
//! the dependency-free checker in `medsec::obs::json`), and a
//! Prometheus text exposition ready for a scrape endpoint.
//!
//! ```text
//! cargo run --release --example fleet_observe
//! cargo run --release --example fleet_observe -- 4 8   # ward scale, threads
//! ```

use medsec::fleet::{mixed_hospital_wards, run_fleet, FleetConfig};
use medsec::obs::{json, EventKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16)
    });

    let cfg = FleetConfig {
        threads,
        shards: 16,
        batch_size: 32,
        seed: 0x0B5E_11AB,
        forged_per_mille: 25,
        wards: mixed_hospital_wards(scale),
        observe: true,
        event_capacity: 4096,
        ..FleetConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("fleet_observe: {e}");
        std::process::exit(2);
    }
    let total: usize = cfg.wards.iter().map(|w| w.devices).sum();

    println!("observing a mixed hospital: {total} devices, {threads} threads…\n");
    let report = run_fleet(&cfg);
    println!("{report}\n");

    let telemetry = report.telemetry.as_ref().expect("observe was on");
    assert!(
        telemetry.lanes.iter().any(|l| l.latency.count() > 0),
        "an observed run must record session latencies"
    );
    assert!(
        telemetry.events.count(EventKind::SessionOpen) > 0,
        "session opens must be in the forensic log"
    );
    assert!(
        telemetry.events.count(EventKind::AuthFailure) > 0,
        "forged probes must surface as auth-failure events"
    );

    let j = report.to_json();
    json::validate(&j).expect("report JSON must validate");
    println!("--- JSON ({} bytes, validated) ---\n{j}\n", j.len());

    let prom = report.prometheus().expect("observed run exposes metrics");
    println!("--- Prometheus exposition ---\n{prom}");
}
