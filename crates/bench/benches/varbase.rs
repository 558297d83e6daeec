//! Variable-base scalar-multiplication strategies head to head:
//! protected ladder vs τNAF vs the interleaved two-scalar `mul_add`,
//! single and batched, per curve. This is the serving-path regression
//! tripwire — if the τNAF engine stops beating the ladder on Koblitz
//! curves, fleet throughput regressed.
//!
//! Before Criterion runs, `lockstep_cost_gate` aborts the bench if the
//! B-163 ladder fallback stops batching: with the vpclmul backend
//! active and its AVX-512 batch kernel live, a 64-item
//! `varbase_mul_add_gen_batch` must cost at most 1/3 per item of 64
//! single `varbase_mul_add_gen` calls.

use criterion::{criterion_group, Criterion};
use medsec_ec::{
    ladder::{ladder_mul, CoordinateBlinding},
    server_strategy_name, tnaf_mul, tnaf_mul_add_gen, varbase_mul_add_gen,
    varbase_mul_add_gen_batch, CurveSpec, Point, Scalar, B163, K163, K233, K283,
};
use medsec_gf2m::{select_backend, vpclmul, BackendChoice};
use medsec_rng::SplitMix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn subgroup_point<C: CurveSpec>(rng: &mut SplitMix64) -> Point<C> {
    let k = Scalar::<C>::random_nonzero(rng.as_fn());
    ladder_mul(
        &k,
        &C::generator(),
        CoordinateBlinding::RandomZ,
        rng.as_fn(),
    )
}

fn bench_curve<C: CurveSpec>(c: &mut Criterion) {
    let mut rng = SplitMix64::new(0x7AF_u64 ^ C::Field::M as u64);
    let base = subgroup_point::<C>(&mut rng);
    let k = Scalar::<C>::random_nonzero(rng.as_fn());
    let e = Scalar::<C>::random_nonzero(rng.as_fn());

    let name = format!("varbase/{}[{}]", C::NAME, server_strategy_name::<C>());
    let mut group = c.benchmark_group(&name);
    group.bench_function("ladder", |b| {
        b.iter(|| {
            black_box(ladder_mul(
                &k,
                &base,
                CoordinateBlinding::RandomZ,
                rng.as_fn(),
            ))
        })
    });
    if medsec_ec::is_koblitz::<C>() {
        group.bench_function("tnaf", |b| b.iter(|| black_box(tnaf_mul(&k, &base))));
        group.bench_function("tnaf_mul_add", |b| {
            b.iter(|| black_box(tnaf_mul_add_gen(&k, &e, &base)))
        });
    }
    // The seam-dispatched verification shape on every curve (τNAF or
    // comb + ladder fallback), single and as one 64-item batch.
    group.bench_function("engine_mul_add", |b| {
        b.iter(|| black_box(varbase_mul_add_gen(&k, &e, &base, rng.as_fn())))
    });
    let items = mul_add_items::<C>(64, &mut rng);
    group.bench_function("engine_mul_add_batch64", |b| {
        b.iter(|| black_box(varbase_mul_add_gen_batch(&items, rng.as_fn())))
    });
    group.finish();
}

/// `n` verification-shaped items `(a, b, Q)` with `Q` in the subgroup.
fn mul_add_items<C: CurveSpec>(
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<(Scalar<C>, Scalar<C>, Point<C>)> {
    (0..n)
        .map(|_| {
            let q = subgroup_point::<C>(rng);
            let a = Scalar::<C>::random_nonzero(rng.as_fn());
            (a, Scalar::random_nonzero(rng.as_fn()), q)
        })
        .collect()
}

/// Wall time per item of back-to-back calls of `f` (`items` items per
/// call) over a ~200 ms window.
fn per_item_s(items: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / (calls * items) as f64
}

/// B-163 has no τNAF, so its verification runs the ladder fallback:
/// one protected ladder per item for single calls, the lockstep ladder
/// for batches. The gate times 64 single `varbase_mul_add_gen` calls
/// against one `varbase_mul_add_gen_batch` of the same 64 items in five
/// alternating ~200 ms rounds and takes the median per-item ratio.
/// With the vpclmul backend active and its AVX-512 kernel detected,
/// where plane operations run four products per instruction, the batch
/// must be at least 3x cheaper per item (it read 8–10x on a 2-core
/// AVX-512 host, and 1.1–1.4x with one ladder per item in the batch).
/// Elsewhere — the bitsliced backend, or `PCLMULQDQ` scalars alone,
/// where lockstep gains only ~1.2–1.6x — the gate only prints its
/// result.
fn lockstep_cost_gate() {
    const N: usize = 64;
    const ROUNDS: usize = 5;
    let mut rng = SplitMix64::new(0x10C5);
    let items = mul_add_items::<B163>(N, &mut rng);
    let singles = |rng: &mut SplitMix64| {
        for (a, b, q) in &items {
            black_box(varbase_mul_add_gen(a, b, q, rng.as_fn()));
        }
    };
    let batch = |rng: &mut SplitMix64| {
        black_box(varbase_mul_add_gen_batch(black_box(&items), rng.as_fn()));
    };
    singles(&mut rng);
    batch(&mut rng);
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let single = per_item_s(N, || singles(&mut rng));
            let batched = per_item_s(N, || batch(&mut rng));
            single / batched
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    let backend = select_backend();
    println!(
        "varbase lockstep gate: B-163 mul_add, {N} single calls / one batch of {N}, per item \
         over {ROUNDS} rounds: median {median:.2}x (min {:.2}x, max {:.2}x; backend {}, \
         vpclmulqdq detected: {})",
        ratios[0],
        ratios[ROUNDS - 1],
        backend.name(),
        vpclmul::hardware_available()
    );
    if backend == BackendChoice::Vpclmul && vpclmul::hardware_available() {
        assert!(
            median >= 3.0,
            "a 64-item B-163 varbase_mul_add_gen_batch must cost at most 1/3 per item of \
             single calls on vpclmul (got {median:.2}x cheaper)"
        );
    }
}

use medsec_gf2m::FieldSpec;

fn bench_varbase(c: &mut Criterion) {
    bench_curve::<K163>(c);
    bench_curve::<K233>(c);
    bench_curve::<K283>(c);
    bench_curve::<B163>(c);
}

criterion_group!(benches, bench_varbase);

fn main() {
    lockstep_cost_gate();
    benches();
}
