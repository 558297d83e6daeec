//! Microbenchmarks of the binary-field arithmetic (the substrate of
//! everything): multiplication, squaring, inversion, the trace and
//! half-trace, and the digit-serial functional model at the paper's
//! digit sizes.
//!
//! Before Criterion runs, `half_trace_cost_gate` aborts the bench if an
//! F163 half-trace costs more than 1/4 of an F163 inversion.

use criterion::{criterion_group, BenchmarkId, Criterion};
use medsec_gf2m::backend::active_backend_name;
use medsec_gf2m::{digit_serial, Element, F163, F233, F283};
use medsec_rng::SplitMix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_field_ops(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    let a = Element::<F163>::random(rng.as_fn());
    let b = Element::<F163>::random(rng.as_fn());

    c.bench_function("f163/mul", |bench| {
        bench.iter(|| black_box(black_box(a) * black_box(b)))
    });
    c.bench_function("f163/square", |bench| {
        bench.iter(|| black_box(black_box(a).square()))
    });
    c.bench_function("f163/inverse", |bench| {
        bench.iter(|| black_box(black_box(a).inverse()))
    });
    c.bench_function("f163/trace", |bench| {
        bench.iter(|| black_box(black_box(a).trace()))
    });
    c.bench_function("f163/half_trace", |bench| {
        bench.iter(|| black_box(black_box(a).half_trace()))
    });

    let a233 = Element::<F233>::random(rng.as_fn());
    let b233 = Element::<F233>::random(rng.as_fn());
    c.bench_function("f233/mul", |bench| {
        bench.iter(|| black_box(black_box(a233) * black_box(b233)))
    });
    c.bench_function("f233/half_trace", |bench| {
        bench.iter(|| black_box(black_box(a233).half_trace()))
    });

    let a283 = Element::<F283>::random(rng.as_fn());
    c.bench_function("f283/half_trace", |bench| {
        bench.iter(|| black_box(black_box(a283).half_trace()))
    });
}

fn bench_digit_serial(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let a = Element::<F163>::random(rng.as_fn());
    let b = Element::<F163>::random(rng.as_fn());
    let mut group = c.benchmark_group("digit_serial_mul");
    for &d in digit_serial::SUPPORTED_DIGITS {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bench, &d| {
            bench.iter(|| black_box(digit_serial::mul_digit_serial(a, b, d)))
        });
    }
    group.finish();
}

/// Wall time per call of `f` on the elements of `pool`, cycled over a
/// ~200 ms window.
fn per_call_s<T>(pool: &[Element<F163>], mut f: impl FnMut(Element<F163>) -> T) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        for &a in pool {
            black_box(f(black_box(a)));
        }
        calls += pool.len();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Every received point is decompressed by one half-trace and shares
/// one field inversion with its batch, so a half-trace that costs a
/// sizeable share of an inversion is the decoder's bottleneck. The
/// serving backend applies the half-trace as a cached byte-indexed
/// table (21 lookups on F163), which must cost at most 1/4 of an F163
/// inversion: on a 2-core AVX-512 host it read 0.044-0.050 on the
/// vpclmul tier and 0.023-0.030 on the portable tier (the inversion's
/// word products cost more there), while the chain of 81 double
/// squarings read 5.5-6.4x and 2.0-2.3x. Both are timed over the same 64 random inputs
/// in five alternating ~200 ms rounds, and the median of the per-round
/// ratios is gated, so a host that changes speed mid-run moves both
/// sides of a ratio.
fn half_trace_cost_gate() {
    const ROUNDS: usize = 5;
    let mut rng = SplitMix64::new(0x4a1f);
    let pool: Vec<Element<F163>> = (0..64).map(|_| Element::random(rng.as_fn())).collect();
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| per_call_s(&pool, |a| a.half_trace()) / per_call_s(&pool, |a| a.inverse()))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    println!(
        "half-trace cost gate: F163 half_trace/inverse over {ROUNDS} rounds: median {median:.3} \
         (min {:.3}, max {:.3}; backend {})",
        ratios[0],
        ratios[ROUNDS - 1],
        active_backend_name()
    );
    assert!(
        median <= 0.25,
        "an F163 half_trace must cost at most 1/4 of an F163 inverse (got {median:.3})"
    );
}

criterion_group!(benches, bench_field_ops, bench_digit_serial);

fn main() {
    half_trace_cost_gate();
    benches();
}
