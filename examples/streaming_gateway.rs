//! The streaming wire front end, end to end — framed byte ingestion in
//! front of the mixed-ward gateway hub.
//!
//! Every device's Negotiate arrives as 1–3 byte chunks split at
//! arbitrary boundaries (the transport decides, not the codec); the
//! gateway reassembles frames with `medsec-ingest` connection state
//! machines, rate-limits admissions per device class with token
//! buckets, validates profiles before any field arithmetic, and queues
//! admitted work into bounded per-lane queues feeding the lane-affine
//! scheduler. The offered load is deliberately bursty — synchronized
//! reconnect storms over a background trickle — and the demo asserts
//! what CI leans on: zero protocol errors on clean traffic, a bounded
//! shed rate, and crypto running only for admitted frames.
//!
//! ```text
//! cargo run --release --example streaming_gateway
//! cargo run --release --example streaming_gateway -- 2 4   # ward scale, threads
//! ```

use medsec::fleet::{mixed_hospital_wards, FleetConfig, GatewayHub, StreamingConfig};
use medsec_bench::loadgen;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let cfg = FleetConfig {
        threads,
        shards: 16,
        batch_size: 32,
        seed: 0x57AE_A41E,
        wards: mixed_hospital_wards(scale),
        ..FleetConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("streaming_gateway: {e}");
        std::process::exit(2);
    }
    let hub = GatewayHub::provision(&cfg);
    let devices = hub.device_count();

    // Three reconnect bursts (half the fleet each) 20 ticks apart, over
    // a 0.25 sessions/tick background trickle.
    let schedule = loadgen::bursty(devices, 3, 20, 0.5, 0.25, cfg.seed);
    let scfg = StreamingConfig::default();

    println!(
        "streaming {} arrivals into a {devices}-device mixed hospital \
         ({} wards, {threads} threads), bursty offered load…\n",
        schedule.len(),
        cfg.wards.len()
    );
    let out = hub.run_streaming(&cfg, &scfg, &schedule);
    println!("{}", out.report);
    let s = &out.stats;
    println!(
        "ingest: {} arrivals | {} admitted | {} rate-limited | {} shed \
         (shed rate {:.1}%)",
        s.arrivals,
        s.admitted,
        s.rate_limited,
        s.shed,
        s.shed_rate * 100.0
    );
    println!(
        "latency: p50 {:.2} ms | p99 {:.2} ms | max {:.2} ms | SLO p99 <= {:.0} ms: {}",
        s.p50_ms,
        s.p99_ms,
        s.max_ms,
        s.slo_p99_ms,
        if s.slo_met { "met" } else { "MISSED" }
    );

    // The CI fences. Clean traffic through the deframer must produce
    // zero protocol errors: nothing garbled, no state-machine
    // violations, no chunks delivered to killed connections.
    assert_eq!(s.garbage, 0, "clean traffic must never garble a frame");
    assert_eq!(
        s.violations, 0,
        "clean traffic must never violate the state machine"
    );
    assert_eq!(s.dead_deliveries, 0, "no connection dies on clean traffic");
    assert_eq!(s.admission_denied, 0, "provisioned profiles must validate");
    // Backpressure must stay bounded and accounted: every arrival is
    // admitted, rate-limited or shed — nothing vanishes — and the shed
    // rate stays under 20% at this provisioning.
    assert_eq!(
        s.admitted + s.rate_limited + s.shed,
        s.arrivals,
        "every arrival must be admitted, rate-limited or shed"
    );
    assert!(
        s.shed_rate <= 0.20,
        "shed rate {:.1}% exceeds the 20% bound",
        s.shed_rate * 100.0
    );
    for (lane, &mark) in s.lane_queue_high_water.iter().enumerate() {
        assert!(
            mark <= scfg.queue_high_water,
            "lane {lane} queue reached {mark} > high water {}",
            scfg.queue_high_water
        );
    }
    // Crypto runs only for admitted frames: completions match
    // admissions exactly.
    assert_eq!(
        out.report.sessions_completed(),
        s.admitted,
        "sessions served must equal admitted Negotiates"
    );
    println!(
        "\n{} of {} bursty arrivals served through the framed front end \
         (zero protocol errors, queues bounded at {}).",
        s.admitted, s.arrivals, scfg.queue_high_water
    );
}
