//! Field and point-arithmetic probes on the workloads' curves, at the
//! servers' batch width of 64, each timed per element or per point.

use std::hint::black_box;
use std::time::Instant;

use medsec_ec::ladder::{ladder_mul, CoordinateBlinding};
use medsec_ec::{
    generator_mul_batch, tnaf_mul_add_gen_batch, tnaf_mul_batch, varbase_mul, CurveSpec, Point,
    Scalar, B163, K163, K283,
};
use medsec_gf2m::{mul_planes, Element, FieldSpec, Planes, F163, F233, F283};
use medsec_rng::SplitMix64;

use crate::derive_seed;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Timed blocks per probe; the probe reports their median.
const BLOCKS: usize = 7;
/// Target length of one block.
const BLOCK_NS: u64 = 8_000_000;
/// Server batch width.
const BATCH: usize = 64;
/// Dependent scalar field operations per call.
const CHAIN: usize = 256;

/// Median over [`BLOCKS`] blocks of the time per item of `f`, which
/// does `items` items per call. Each block is recorded as a span named
/// `name`.
pub fn per_item_ns(tr: &mut Tracer, name: &str, items: u64, mut f: impl FnMut()) -> f64 {
    let g = tr.next_group();
    let t = Instant::now();
    f();
    let calls = (BLOCK_NS / (t.elapsed().as_nanos() as u64).max(1)).max(1);
    let per: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let ((), ns) = tr.time(name, g, |_| (0..calls).for_each(|_| f()));
            ns as f64 / (calls * items) as f64
        })
        .collect();
    median(&per)
}

fn field_probes<F: FieldSpec>(
    label: &str,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    out: &mut Report,
    ops: &[&str],
) {
    let b = Element::<F>::random(rng.as_fn());
    let mut acc = Element::<F>::random(rng.as_fn());
    for &op in ops {
        let name = format!("gf2m.{op}.{label}");
        let ns = match op {
            "mul" => per_item_ns(tr, &name, CHAIN as u64, || {
                (0..CHAIN).for_each(|_| acc = black_box(acc) * b);
            }),
            "sqr" => per_item_ns(tr, &name, CHAIN as u64, || {
                (0..CHAIN).for_each(|_| acc = black_box(acc).square());
            }),
            "inv" => per_item_ns(tr, &name, 1, || {
                acc = black_box(acc).inverse().unwrap_or(b);
            }),
            _ => {
                let (mut x, mut y, mut z) = (Planes::new(), Planes::new(), Planes::new());
                x.reset(BATCH);
                y.reset(BATCH);
                for i in 0..BATCH {
                    x.set(i, &Element::<F>::random(rng.as_fn()));
                    y.set(i, &Element::<F>::random(rng.as_fn()));
                }
                per_item_ns(tr, &name, BATCH as u64, || {
                    mul_planes::<F>(&mut z, black_box(&x), black_box(&y));
                })
            }
        };
        out.metric(&format!("gf2m.{op}_ns.{label}"), ns, "ns", BLOCKS as u64);
    }
    black_box(acc);
}

fn points<C: CurveSpec>(rng: &mut SplitMix64) -> Vec<Point<C>> {
    generator_mul_batch::<C>(&scalars::<C>(rng))
}

fn scalars<C: CurveSpec>(rng: &mut SplitMix64) -> Vec<Scalar<C>> {
    (0..BATCH)
        .map(|_| Scalar::<C>::random_nonzero(rng.as_fn()))
        .collect()
}

fn ladder_us<C: CurveSpec>(rng: &mut SplitMix64, tr: &mut Tracer, label: &str) -> f64 {
    let k = Scalar::<C>::random_nonzero(rng.as_fn());
    let p = points::<C>(rng)[0];
    let mut blind = rng.split();
    per_item_ns(tr, &format!("ec.ladder.{label}"), 1, || {
        black_box(ladder_mul(
            black_box(&k),
            &p,
            CoordinateBlinding::RandomZ,
            blind.as_fn(),
        ));
    }) * 1e-3
}

/// Every field and point probe, each a per-layer metric.
pub fn run(seed: u64, tr: &mut Tracer, out: &mut Report) {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x5052_4F42));
    field_probes::<F163>(
        "F163",
        &mut rng,
        tr,
        out,
        &["mul", "sqr", "inv", "mul_batch64"],
    );
    field_probes::<F233>("F233", &mut rng, tr, out, &["mul"]);
    field_probes::<F283>("F283", &mut rng, tr, out, &["mul", "inv", "mul_batch64"]);

    let ks = scalars::<K163>(&mut rng);
    let es = scalars::<K163>(&mut rng);
    let ps = points::<K163>(&mut rng);
    let pairs: Vec<_> = ks.iter().copied().zip(ps.iter().copied()).collect();
    let triples: Vec<_> = pairs
        .iter()
        .zip(&es)
        .map(|(&(k, p), &e)| (k, e, p))
        .collect();
    let encodings: Vec<Vec<u8>> = ps.iter().map(Point::compress).collect();
    let encoded: Vec<&[u8]> = encodings.iter().map(Vec::as_slice).collect();
    let n = BATCH as u64;
    let per_point = [
        (
            "ec.comb_batch64_us.K163",
            per_item_ns(tr, "ec.comb_batch64.K163", n, || {
                black_box(generator_mul_batch::<K163>(black_box(&ks)));
            }),
        ),
        (
            "ec.tnaf_mul_batch64_us.K163",
            per_item_ns(tr, "ec.tnaf_mul_batch64.K163", n, || {
                black_box(tnaf_mul_batch::<K163>(black_box(&pairs)));
            }),
        ),
        (
            "ec.tnaf_mul_add_batch64_us.K163",
            per_item_ns(tr, "ec.tnaf_mul_add_batch64.K163", n, || {
                black_box(tnaf_mul_add_gen_batch::<K163>(black_box(&triples)));
            }),
        ),
        (
            "ec.decompress_batch64_us.K163",
            per_item_ns(tr, "ec.decompress_batch64.K163", n, || {
                black_box(Point::<K163>::decompress_batch(black_box(&encoded)));
            }),
        ),
    ];
    for (name, ns) in per_point {
        out.metric(name, ns * 1e-3, "us", BLOCKS as u64);
    }
    let k = Scalar::<B163>::random_nonzero(rng.as_fn());
    let p = points::<B163>(&mut rng)[0];
    let mut blind = rng.split();
    let varbase = per_item_ns(tr, "ec.varbase_mul.B163", 1, || {
        black_box(varbase_mul::<B163>(black_box(&k), &p, blind.as_fn()));
    });
    out.metric(
        "ec.varbase_mul_us.B163",
        varbase * 1e-3,
        "us",
        BLOCKS as u64,
    );
    out.metric(
        "ec.ladder_us.K163",
        ladder_us::<K163>(&mut rng, tr, "K163"),
        "us",
        BLOCKS as u64,
    );
    out.metric(
        "ec.ladder_us.K283",
        ladder_us::<K283>(&mut rng, tr, "K283"),
        "us",
        BLOCKS as u64,
    );
}
