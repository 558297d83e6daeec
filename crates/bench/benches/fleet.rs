//! Serving-layer benchmarks: the lane-affine scheduler's claim path in
//! isolation and whole-fleet throughput at several thread counts.
//!
//! Before Criterion runs, `scaling_gate` aborts the bench if, on a host
//! with at least 4 hardware threads, the mixed fleet served by 4
//! workers does not reach 2.5x the sessions/s of 1 worker. Smaller
//! hosts print the speedup without asserting.

use criterion::{criterion_group, BenchmarkId, Criterion};
use medsec_fleet::{
    mixed_hospital_wards, run_fleet, FleetConfig, LaneScheduler, StealStats, WardSpec,
};
use medsec_protocols::suite::{CurveId, ProtocolId, SecurityProfile};
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    // The lane-affine claim path the hub serves from: 4096 jobs split
    // over 5 lanes, drained by lock-free chunk claims.
    c.bench_function("fleet/scheduler_lane_claims", |b| {
        b.iter(|| {
            let s = LaneScheduler::new(&[2048usize, 1024, 512, 384, 128], 64);
            let mut stats = StealStats::default();
            while let Some(batch) = s.next_batch(0, &mut stats) {
                black_box(&batch);
            }
            black_box(stats.jobs)
        })
    });
}

fn bench_fleet_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/throughput_512_devices");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                // 384 pacemakers and 128 neurostimulators on Toy17.
                let cfg = FleetConfig {
                    threads,
                    shards: 32,
                    batch_size: 32,
                    seed: 0x5EED,
                    forged_per_mille: 10,
                    wards: vec![
                        WardSpec::new(
                            SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual),
                            384,
                        ),
                        WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Ph), 128),
                    ],
                    ..FleetConfig::default()
                };
                b.iter(|| black_box(run_fleet(&cfg)))
            },
        );
    }
    group.finish();
}

/// Minimum 4-worker/1-worker sessions/s ratio the scaling gate demands.
const SCALING_GATE_MIN_SPEEDUP_4T: f64 = 2.5;

/// Best sessions/s over two runs of `cfg` at `threads` workers, so a
/// background hiccup does not masquerade as a scaling cliff.
fn best_of_2(cfg: &FleetConfig, threads: usize) -> f64 {
    let cfg = FleetConfig {
        threads,
        ..cfg.clone()
    };
    (0..2)
        .map(|_| run_fleet(&cfg).sessions_per_sec)
        .fold(0.0, f64::max)
}

/// The mixed hospital (`mixed_hospital_wards(8)`: 408 devices, 5 curves
/// x 4 protocols) at 4 workers must reach [`SCALING_GATE_MIN_SPEEDUP_4T`]x
/// its 1-worker throughput where the host exposes at least 4 hardware
/// threads; elsewhere the speedup is printed, not asserted.
fn scaling_gate() {
    let cfg = FleetConfig {
        shards: 64,
        batch_size: 64,
        seed: 0x5EED_F1EE,
        forged_per_mille: 10,
        wards: mixed_hospital_wards(8),
        ..FleetConfig::default()
    };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = best_of_2(&cfg, 1);
    let speedup = best_of_2(&cfg, 4) / one;
    if host >= 4 {
        println!(
            "scaling gate: 4-worker mixed fleet {speedup:.2}x the 1-worker sessions/s \
             (gate {SCALING_GATE_MIN_SPEEDUP_4T}x, host parallelism {host})"
        );
        assert!(
            speedup >= SCALING_GATE_MIN_SPEEDUP_4T,
            "scaling gate failed: {speedup:.2}x < {SCALING_GATE_MIN_SPEEDUP_4T}x"
        );
    } else {
        println!(
            "scaling gate skipped: host exposes {host} hardware thread(s) (<4); \
             4-worker mixed fleet {speedup:.2}x the 1-worker sessions/s, not asserted"
        );
    }
}

criterion_group!(benches, bench_scheduler, bench_fleet_throughput);

fn main() {
    scaling_gate();
    benches();
}
