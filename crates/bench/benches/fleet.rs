//! Serving-layer benchmarks: the lane-affine scheduler's claim path in
//! isolation and whole-fleet throughput at several thread counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use medsec_fleet::{run_fleet, FleetConfig, LaneScheduler, StealStats};
use medsec_protocols::suite::CurveId;
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
                let cfg = FleetConfig {
                    devices: 512,
                    threads,
                    shards: 32,
                    batch_size: 32,
                    curve: CurveId::Toy17,
                    seed: 0x5EED,
                    forged_per_mille: 10,
                    wards: Vec::new(),
                    ..FleetConfig::default()
                };
                b.iter(|| black_box(run_fleet(&cfg)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler, bench_fleet_throughput);
criterion_main!(benches);
