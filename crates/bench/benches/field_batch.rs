//! Scalar vs batched field multiplication/squaring across SoA batch
//! widths — the microbenchmark behind the batch-seam acceptance gate.
//!
//! Before Criterion runs, a quick wall-clock gate asserts that batched
//! multiplication through the `VPCLMULQDQ` kernel is at least 2× the
//! backend's scalar-CLMUL per-element throughput at width ≥ 8. The gate
//! only *asserts* on the `vpclmul` tier (CPUID reports `AVX-512F +
//! VPCLMULQDQ`); elsewhere it just prints the measured ratio. The
//! `portable` rows time `medsec_gf2m::portable`'s product per element,
//! which is what every batch element costs on the `portable` tier.

use criterion::{criterion_group, BenchmarkId, Criterion};
use medsec_gf2m::{portable, vpclmul, Element, FieldBackend, VpclmulBackend, F163, LIMBS};
use medsec_rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

const WIDTHS: [usize; 4] = [4, 8, 16, 64];

/// Random width-`n` element batch, returned both as elements (for the
/// scalar baseline) and as the plane-major SoA layout the batch entry
/// points take (limb `j` of element `i` at `data[j * n + i]`).
fn random_batch(n: usize, seed: u64) -> (Vec<Element<F163>>, Vec<u64>) {
    let mut rng = SplitMix64::new(seed);
    let elems: Vec<Element<F163>> = (0..n).map(|_| Element::random(rng.as_fn())).collect();
    let mut data = vec![0u64; LIMBS * n];
    for (i, e) in elems.iter().enumerate() {
        for (j, l) in e.limbs().iter().enumerate() {
            data[j * n + i] = *l;
        }
    }
    (elems, data)
}

fn bench_batch_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("f163_batch_mul");
    for &n in &WIDTHS {
        let (xs, a) = random_batch(n, 0x1000 + n as u64);
        let (ys, b) = random_batch(n, 0x2000 + n as u64);
        let mut out = vec![0u64; LIMBS * n];
        group.bench_with_input(BenchmarkId::new("scalar_clmul", n), &n, |bench, _| {
            bench.iter(|| {
                for (x, y) in xs.iter().zip(&ys) {
                    black_box(VpclmulBackend::mul(black_box(x), black_box(y)));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("vpclmul", n), &n, |bench, _| {
            bench.iter(|| VpclmulBackend::mul_batch::<F163>(black_box(&mut out), black_box(&a), &b))
        });
        group.bench_with_input(BenchmarkId::new("portable", n), &n, |bench, _| {
            bench.iter(|| {
                for (x, y) in xs.iter().zip(&ys) {
                    black_box(portable::mul(black_box(x), black_box(y)));
                }
            })
        });
    }
    group.finish();
}

fn bench_batch_sqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("f163_batch_sqr");
    for &n in &WIDTHS {
        let (xs, a) = random_batch(n, 0x3000 + n as u64);
        let mut out = vec![0u64; LIMBS * n];
        group.bench_with_input(BenchmarkId::new("scalar_clmul", n), &n, |bench, _| {
            bench.iter(|| {
                for x in &xs {
                    black_box(VpclmulBackend::square(black_box(x)));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("vpclmul", n), &n, |bench, _| {
            bench.iter(|| VpclmulBackend::sqr_batch::<F163>(black_box(&mut out), black_box(&a)))
        });
        group.bench_with_input(BenchmarkId::new("portable", n), &n, |bench, _| {
            bench.iter(|| {
                for x in &xs {
                    black_box(portable::square(black_box(x)));
                }
            })
        });
    }
    group.finish();
}

/// Acceptance gate: batched `VPCLMULQDQ` multiplication must deliver at
/// least 2× the scalar-CLMUL per-element throughput at width ≥ 8.
/// Asserted only on the `vpclmul` tier; printed informationally
/// otherwise.
fn throughput_gate() {
    const N: usize = 16;
    const REPS: usize = 20_000;
    let (xs, a) = random_batch(N, 0xAAAA);
    let (ys, b) = random_batch(N, 0xBBBB);
    let mut out = vec![0u64; LIMBS * N];

    // Warm-up + measure the scalar CLMUL loop.
    for _ in 0..1_000 {
        for (x, y) in xs.iter().zip(&ys) {
            black_box(VpclmulBackend::mul(black_box(x), black_box(y)));
        }
    }
    let t0 = Instant::now();
    for _ in 0..REPS {
        for (x, y) in xs.iter().zip(&ys) {
            black_box(VpclmulBackend::mul(black_box(x), black_box(y)));
        }
    }
    let scalar = t0.elapsed();

    for _ in 0..1_000 {
        VpclmulBackend::mul_batch::<F163>(black_box(&mut out), black_box(&a), &b);
    }
    let t0 = Instant::now();
    for _ in 0..REPS {
        VpclmulBackend::mul_batch::<F163>(black_box(&mut out), black_box(&a), &b);
    }
    let batch = t0.elapsed();

    let ratio = scalar.as_secs_f64() / batch.as_secs_f64();
    let detected = vpclmul::hardware_available();
    println!(
        "field_batch gate: width={N} scalar_clmul={:?} vpclmul_batch={:?} \
         speedup={ratio:.2}x (vpclmul tier: {detected})",
        scalar, batch
    );
    if detected {
        assert!(
            ratio >= 2.0,
            "batched vpclmul mul must be >= 2x scalar clmul per element \
             at width {N} (got {ratio:.2}x)"
        );
    }
}

criterion_group!(benches, bench_batch_mul, bench_batch_sqr);

fn main() {
    throughput_gate();
    benches();
}
