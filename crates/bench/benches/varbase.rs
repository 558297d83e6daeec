//! The server's variable-base scalar multiplication per curve: one
//! protected ladder, the single and batched verification shape
//! `a·G + b·Q`, and the batched ECDH shape, all through the
//! `medsec_ec::varbase` entry points the suite servers call. Every
//! server curve runs the ladder; batches on fields with m ≥ 64 run it
//! in lockstep over plane-major data.
//!
//! The fixed-base comb's `k·G` is timed beside them, at widths 1 and
//! 64.
//!
//! Before Criterion runs, two gates abort the bench where the vpclmul
//! backend is active and its AVX-512 batch kernel live (elsewhere they
//! only print), each on B-163 and on K-163:
//! * `lockstep_cost_gate`: a server curve's batches must run in
//!   lockstep — a 64-item `varbase_mul_add_gen_batch` costs at most 1/3
//!   per item of 64 single `varbase_mul_add_gen` calls;
//! * `comb_cost_gate`: the comb must beat the ladder that could replace
//!   it — a width-64 `generator_mul_batch` costs at most 0.7× per item
//!   of a width-64 `varbase_x_batch` over the same scalars and G.

use criterion::{criterion_group, Criterion};
use medsec_ec::{
    generator_mul_batch,
    ladder::{ladder_mul, CoordinateBlinding},
    server_strategy_name, varbase_mul, varbase_mul_add_gen, varbase_mul_add_gen_batch,
    varbase_x_batch, CurveSpec, Point, Scalar, B163, K163, K233, K283,
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
        b.iter(|| black_box(varbase_mul(&k, &base, rng.as_fn())))
    });
    // The verification shape, single and as one 64-item batch, and the
    // ECDH shape as one 64-item batch.
    group.bench_function("mul_add", |b| {
        b.iter(|| black_box(varbase_mul_add_gen(&k, &e, &base, rng.as_fn())))
    });
    let items = mul_add_items::<C>(64, &mut rng);
    group.bench_function("mul_add_batch64", |b| {
        b.iter(|| black_box(varbase_mul_add_gen_batch(&items, rng.as_fn())))
    });
    let pairs: Vec<(Scalar<C>, Point<C>)> = items.iter().map(|(_, b, q)| (*b, *q)).collect();
    group.bench_function("x_batch64", |b| {
        b.iter(|| black_box(varbase_x_batch(&pairs, rng.as_fn())))
    });
    // The fixed-base comb, one scalar and 64.
    group.bench_function("comb", |b| {
        b.iter(|| black_box(generator_mul_batch(std::slice::from_ref(&k))))
    });
    let ks: Vec<Scalar<C>> = items.iter().map(|(a, _, _)| *a).collect();
    group.bench_function("comb_batch64", |b| {
        b.iter(|| black_box(generator_mul_batch(&ks)))
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

/// A single call runs one ladder (in lockstep with itself); a batch
/// runs every item's ladder in lockstep, eight elements per chunk of
/// the AVX-512 kernel. The gate times 64 single
/// `varbase_mul_add_gen` calls against one `varbase_mul_add_gen_batch`
/// of the same 64 items on curve `C` in five alternating ~200 ms rounds
/// and takes the median per-item ratio. With the vpclmul backend active
/// and its AVX-512 kernel detected, the batch must be at least 3x
/// cheaper per item (on a 2-core AVX-512 host it read 6.5–6.6x on
/// B-163 and on K-163; a batch running one ladder per item reads under
/// 1x). Elsewhere, on the portable backend or `PCLMULQDQ` scalars
/// alone, where every batch runs scalar products per element, the gate
/// only prints its result.
fn lockstep_cost_gate<C: CurveSpec>() {
    const N: usize = 64;
    const ROUNDS: usize = 5;
    let mut rng = SplitMix64::new(0x10C5);
    let items = mul_add_items::<C>(N, &mut rng);
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
        "varbase lockstep gate: {} mul_add, {N} single calls / one batch of {N}, per item \
         over {ROUNDS} rounds: median {median:.2}x (min {:.2}x, max {:.2}x; backend {}, \
         vpclmulqdq detected: {})",
        C::NAME,
        ratios[0],
        ratios[ROUNDS - 1],
        backend.name(),
        vpclmul::hardware_available()
    );
    if backend == BackendChoice::Vpclmul && vpclmul::hardware_available() {
        assert!(
            median >= 3.0,
            "a 64-item {} varbase_mul_add_gen_batch must cost at most 1/3 per item of \
             single calls on vpclmul (got {median:.2}x cheaper)",
            C::NAME
        );
    }
}

/// The comb's reason to exist: a width-64 `generator_mul_batch` against
/// a width-64 `varbase_x_batch` over the same scalars and G — the
/// lockstep ladder that would serve `k·G` without a comb, minus its
/// y-recovery — per item, in five alternating ~200 ms rounds, median
/// ratio. With the vpclmul backend active and its AVX-512 kernel
/// detected the comb must cost at most 0.7× (on a 2-core AVX-512 host
/// the regular signed comb read 0.36× on B-163 and 0.39× on K-163, and
/// the variable-time comb it replaced 0.58× and 0.64× against the same
/// ladder); elsewhere the gate only prints.
fn comb_cost_gate<C: CurveSpec>() {
    const N: usize = 64;
    const ROUNDS: usize = 5;
    let mut rng = SplitMix64::new(0xC0B_6A7E);
    let ks: Vec<Scalar<C>> = (0..N)
        .map(|_| Scalar::random_nonzero(rng.as_fn()))
        .collect();
    let pairs: Vec<(Scalar<C>, Point<C>)> = ks.iter().map(|k| (*k, C::generator())).collect();
    let comb = || {
        black_box(generator_mul_batch(black_box(&ks)));
    };
    let ladder = |rng: &mut SplitMix64| {
        black_box(varbase_x_batch(black_box(&pairs), rng.as_fn()));
    };
    comb();
    ladder(&mut rng);
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let c = per_item_s(N, comb);
            let l = per_item_s(N, || ladder(&mut rng));
            c / l
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    let backend = select_backend();
    println!(
        "comb cost gate: {} k·G, width-{N} comb / width-{N} ladder from G, per item over \
         {ROUNDS} rounds: median {median:.2}x (min {:.2}x, max {:.2}x; backend {}, \
         vpclmulqdq detected: {})",
        C::NAME,
        ratios[0],
        ratios[ROUNDS - 1],
        backend.name(),
        vpclmul::hardware_available()
    );
    if backend == BackendChoice::Vpclmul && vpclmul::hardware_available() {
        assert!(
            median <= 0.7,
            "a width-{N} {} generator_mul_batch must cost at most 0.7x per item of the \
             ladder from G on vpclmul (got {median:.2}x)",
            C::NAME
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
    lockstep_cost_gate::<B163>();
    lockstep_cost_gate::<K163>();
    comb_cost_gate::<B163>();
    comb_cost_gate::<K163>();
    benches();
}
