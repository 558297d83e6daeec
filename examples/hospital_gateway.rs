//! A hospital gateway serving ten thousand implants.
//!
//! Provisions a 10 000-device Toy17 fleet as two wards, three quarters
//! pacemakers and one quarter neurostimulators, then drives every device
//! through an authenticated session — mutual authentication with an
//! encrypted telemetry frame, or a Peeters–Hermans private
//! identification — across worker threads with sharded pending-session
//! tables and batched hello generation. A slice of the fleet is probed
//! with forged hellos first; ServerFirst ordering keeps those
//! rejections nearly free. A smaller K-163 fleet of the same shape
//! follows at paper-chip cost.
//!
//! Every run goes through the curve-erased `GatewayHub`: devices
//! advertise their `SecurityProfile` in a wire-level Negotiate hello
//! and are bucketed into per-curve lanes (see
//! `examples/mixed_ward.rs` for a fleet that mixes five curves and
//! four protocols in one run).
//!
//! ```text
//! cargo run --release --example hospital_gateway
//! cargo run --release --example hospital_gateway -- 20000 8   # devices, threads
//! ```

use medsec::fleet::{run_fleet, FleetConfig, WardSpec};
use medsec::protocols::suite::{CurveId, ProtocolId, SecurityProfile};

/// `devices` devices on `curve`: three quarters pacemakers (mutual
/// authentication), one quarter neurostimulators (Peeters–Hermans).
fn wards(curve: CurveId, devices: usize) -> Vec<WardSpec> {
    let ph = devices / 4;
    vec![
        WardSpec::new(
            SecurityProfile::new(curve, ProtocolId::Mutual),
            devices - ph,
        ),
        WardSpec::new(SecurityProfile::new(curve, ProtocolId::Ph), ph),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let devices: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(4, 16)
    });

    let cfg = FleetConfig {
        threads,
        shards: 64,
        batch_size: 64,
        seed: 0x5EED_CAFE,
        forged_per_mille: 25,
        wards: wards(CurveId::Toy17, devices),
        ..FleetConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("hospital_gateway: {e}");
        std::process::exit(2);
    }

    println!(
        "provisioning {devices} devices, serving on {} threads / {} shards…\n",
        cfg.threads, cfg.shards
    );
    let report = run_fleet(&cfg);
    println!("{report}\n");

    // The same gateway also serves a (smaller) paper-strength K-163
    // ward: the per-session energy is what the co-processor was
    // designed around.
    let k163_devices = (devices / 50).max(16);
    let k163_cfg = FleetConfig {
        wards: wards(CurveId::K163, k163_devices),
        ..cfg
    };
    println!("K-163 ward: {k163_devices} devices at paper-chip cost…\n");
    let k163 = run_fleet(&k163_cfg);
    println!("{k163}");

    let completed = report.sessions_completed() + k163.sessions_completed();
    assert_eq!(
        report.sessions_failed + report.ph_failed + k163.sessions_failed + k163.ph_failed,
        0,
        "a healthy fleet completes every session"
    );
    println!("\ntotal: {completed} authenticated sessions served.");
}
