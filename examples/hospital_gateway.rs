//! A hospital gateway serving ten thousand implants.
//!
//! Provisions a 10 000-device fleet (pacemakers, neurostimulators,
//! cardiac monitors), then drives every device through an authenticated
//! session — mutual authentication with an encrypted telemetry frame,
//! or a Peeters–Hermans private identification — across worker threads
//! with sharded pending-session tables and batched hello generation. A slice
//! of the fleet is probed with forged hellos first; ServerFirst
//! ordering keeps those rejections nearly free.
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

use medsec::fleet::{run_fleet, FleetConfig};
use medsec::protocols::suite::CurveId;

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
        devices,
        threads,
        shards: 64,
        batch_size: 64,
        curve: CurveId::Toy17,
        seed: 0x5EED_CAFE,
        forged_per_mille: 25,
        wards: Vec::new(),
        ..FleetConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("hospital_gateway: {e}");
        std::process::exit(2);
    }

    println!(
        "provisioning {} devices, serving on {} threads / {} shards…\n",
        cfg.devices, cfg.threads, cfg.shards
    );
    let report = run_fleet(&cfg);
    println!("{report}\n");

    // The same gateway also serves a (smaller) paper-strength K-163
    // ward: the per-session energy is what the co-processor was
    // designed around.
    let k163_cfg = FleetConfig {
        devices: (devices / 50).max(16),
        curve: CurveId::K163,
        ..cfg
    };
    println!(
        "K-163 ward: {} devices at paper-chip cost…\n",
        k163_cfg.devices
    );
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
