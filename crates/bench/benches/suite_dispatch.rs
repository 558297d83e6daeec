//! Suite-seam dispatch: the curve-erased `GatewayHub` run and its
//! per-device admission step, plus the observability pin.
//!
//! The hub adds a wire-level Negotiate hello per device (encode,
//! decode, reject-on-unknown validation), one enum dispatch per
//! (lane, batch), and per-profile accounting on top of the suite
//! waves; `negotiate_admit` times the admission step in isolation.
//!
//! The pin at the end of `main` covers the observability seam: the
//! *enabled* recorder must stay within 5% of the unobserved hub on
//! this deliberately tiny single-threaded fleet (minimum of interleaved
//! rounds, so scheduler jitter cannot masquerade as recorder cost;
//! perfbench's traced run reports the realistic figure on the full
//! mixed hospital as `obs.overhead_pct`).

use criterion::{black_box, Criterion};
use medsec_fleet::{admit_negotiate, run_fleet, FleetConfig};
use medsec_protocols::suite::{CurveId, ProtocolId, SecurityProfile};
use std::time::{Duration, Instant};

fn pin_config() -> FleetConfig {
    FleetConfig {
        devices: 256,
        threads: 1,
        shards: 16,
        batch_size: 32,
        curve: CurveId::Toy17,
        seed: 0x5EED_D15B,
        forged_per_mille: 10,
        wards: Vec::new(),
        observe: false,
        event_capacity: 1024,
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let cfg = pin_config();
    let mut group = c.benchmark_group("suite_dispatch");
    group.sample_size(10);
    group.bench_function("hub_run_fleet_toy17", |b| {
        b.iter(|| black_box(run_fleet(&cfg)))
    });
    group.finish();

    // The admission path in isolation: one Negotiate frame encoded,
    // decoded and validated (the per-device cost the hub adds).
    let profile = SecurityProfile::new(CurveId::K163, ProtocolId::Mutual);
    let frame = profile.negotiate_frame();
    c.bench_function("suite_dispatch/negotiate_admit", |b| {
        b.iter(|| black_box(admit_negotiate(&frame, &profile, CurveId::K163)))
    });
}

/// Interleaved A/B pin: minimum wall time over `rounds` runs of the
/// unobserved and the observed hub. The minimum estimator strips
/// scheduler noise while keeping any systematic recorder overhead;
/// interleaving strips thermal drift.
fn pin_observability_overhead() {
    let cfg = pin_config();
    let obs_cfg = FleetConfig {
        observe: true,
        ..pin_config()
    };
    // Warm both paths (page cache, comb tables, allocator).
    let _ = run_fleet(&cfg);
    let _ = run_fleet(&obs_cfg);

    let rounds = 7;
    let mut hub_min = Duration::MAX;
    let mut obs_min = Duration::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(run_fleet(&cfg));
        hub_min = hub_min.min(t.elapsed());

        let t = Instant::now();
        black_box(run_fleet(&obs_cfg));
        obs_min = obs_min.min(t.elapsed());
    }

    let obs_overhead = obs_min.as_secs_f64() / hub_min.as_secs_f64() - 1.0;
    println!(
        "suite_dispatch obs pin: hub {hub_min:?}, observed {obs_min:?}, overhead {:+.2}%",
        obs_overhead * 100.0
    );
    assert!(
        obs_overhead < 0.05,
        "enabled-recorder overhead {:.2}% exceeds the 5% pin (hub {hub_min:?}, observed {obs_min:?})",
        obs_overhead * 100.0
    );
}

criterion::criterion_group!(benches, bench_dispatch);

fn main() {
    benches();
    pin_observability_overhead();
}
