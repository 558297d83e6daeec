//! Wall-clock fixed-vs-random probes over the `gf2m::ct` helpers, the
//! ladder, the gateway's lockstep ladder under the Peeters–Hermans
//! reader's key, the fixed-base comb, scalar field multiplication and
//! AES-CMAC.
//!
//! The cost-model study in the `timing` module proves the *architecture*
//! is constant-time; this module spot-checks that the *software*
//! constant-time primitives the ladder and MAC verifiers now route
//! through ([`medsec_gf2m::ct`]) don't regress into data-dependent
//! execution on the host either — e.g. an "optimized" early-exit
//! compare or a compiler turning a masked swap back into a branch.
//!
//! Measurements are medians over many batches, and verdicts use loose
//! ratio bounds: the goal is to catch an order-of-magnitude early-exit
//! regression robustly on shared CI hardware, not to certify
//! cycle-accuracy.

use std::hint::black_box;
use std::time::Instant;

use medsec_ec::{
    generator_mul_batch, ladder, varbase_x_batch, CoordinateBlinding, CurveSpec, Point, Scalar,
    K163,
};
use medsec_gf2m::ct::{ct_eq_bytes, ct_swap_limbs};
use medsec_gf2m::{Element, F163};
use medsec_rng::SplitMix64;

/// Outcome of one fixed-vs-random probe: median per-batch latency of
/// the two input classes and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct CtProbe {
    /// Median batch latency, class A (e.g. equal tags), nanoseconds.
    pub median_a_ns: u64,
    /// Median batch latency, class B (e.g. first-byte mismatch), ns.
    pub median_b_ns: u64,
    /// `max(a,b) / min(a,b)` — 1.0 is perfectly flat.
    pub ratio: f64,
}

impl CtProbe {
    fn from_samples(mut a: Vec<u64>, mut b: Vec<u64>) -> CtProbe {
        a.sort_unstable();
        b.sort_unstable();
        let ma = a[a.len() / 2].max(1);
        let mb = b[b.len() / 2].max(1);
        CtProbe {
            median_a_ns: ma,
            median_b_ns: mb,
            ratio: ma.max(mb) as f64 / ma.min(mb) as f64,
        }
    }
}

/// Probe [`ct_eq_bytes`] with equal tags (class A) versus tags that
/// differ in the **first** byte (class B) — the case an early-exit
/// compare would finish ~16× faster.
pub fn probe_ct_eq_bytes(batches: usize, per_batch: usize) -> CtProbe {
    let mut rng = SplitMix64::new(0xC7_E0);
    let mut tag = [0u8; 16];
    for byte in tag.iter_mut() {
        *byte = rng.next_u64() as u8;
    }
    let equal = tag;
    let mut first_diff = tag;
    first_diff[0] ^= 0xFF;

    let mut sink = 0u32;
    let mut run = |other: [u8; 16]| -> Vec<u64> {
        (0..batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..per_batch {
                    sink =
                        sink.wrapping_add(ct_eq_bytes(black_box(&tag), black_box(&other)) as u32);
                }
                t0.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let a = run(equal);
    let b = run(first_diff);
    black_box(sink);
    CtProbe::from_samples(a, b)
}

/// Probe [`ct_swap_limbs`] with the condition always-false (class A)
/// versus always-true (class B): a branchy swap would do no stores in
/// one class and ten per call in the other.
pub fn probe_ct_swap_limbs(batches: usize, per_batch: usize) -> CtProbe {
    let mut rng = SplitMix64::new(0x5A_B5);
    let mut x = [0u64; 5];
    let mut y = [0u64; 5];
    for limb in x.iter_mut().chain(y.iter_mut()) {
        *limb = rng.next_u64();
    }
    let mut run = |cond: bool| -> Vec<u64> {
        (0..batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..per_batch {
                    ct_swap_limbs(black_box(cond), black_box(&mut x), black_box(&mut y));
                }
                t0.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let a = run(false);
    let b = run(true);
    black_box((x, y));
    CtProbe::from_samples(a, b)
}

/// Fixed-vs-random **scalar** pass over the cswap ladder itself:
/// class A runs one fixed scalar repeatedly, class B a fresh random
/// scalar per run. With the masked-swap schedule the two classes must
/// take statistically indistinguishable time; a secret-dependent
/// branch (or a swap count leaking into latency) splits them.
pub fn probe_ladder_fixed_vs_random(runs: usize) -> CtProbe {
    let gx = K163::generator().x().expect("generator is affine");
    let mut rng = SplitMix64::new(0x001A_DDE4);
    let fixed = Scalar::<K163>::random_nonzero(rng.as_fn());

    let time_one = |k: &Scalar<K163>| -> u64 {
        let bits = k.ladder_bits();
        let t0 = Instant::now();
        let st = ladder::ladder_x_only_bits::<K163>(
            black_box(&bits),
            gx,
            CoordinateBlinding::Disabled,
            || 0,
        );
        black_box(st);
        t0.elapsed().as_nanos() as u64
    };
    let a: Vec<u64> = (0..runs).map(|_| time_one(&fixed)).collect();
    let b: Vec<u64> = (0..runs)
        .map(|_| {
            let k = Scalar::<K163>::random_nonzero(rng.as_fn());
            time_one(&k)
        })
        .collect();
    CtProbe::from_samples(a, b)
}

/// Fixed-vs-random **key** probe over the gateway's lockstep x-only
/// ladder: K-163 `varbase_x_batch` of width 64 where every lane carries
/// one fixed key (class A) — the shape of Peeters–Hermans phase 1, the
/// reader's y against every commitment of a wave — against a fresh
/// random key per lane (class B), over the same 64 bases, in
/// alternating batches so that a slow phase of a shared host hits
/// both. Each lane's key bits only steer masked swaps, so the classes
/// must not split; what this cannot see is the normalization's
/// inversion, which reads each lane's final Z (README's constant-time
/// audit).
pub fn probe_varbase_x_fixed_vs_random_key(batches: usize) -> CtProbe {
    const WIDTH: usize = 64;
    let mut rng = SplitMix64::new(0x00FF_1E7D);
    let g = K163::generator();
    let bases: Vec<Point<K163>> = (0..WIDTH)
        .map(|_| {
            let k = Scalar::<K163>::random_nonzero(rng.as_fn());
            ladder::ladder_mul(&k, &g, CoordinateBlinding::RandomZ, rng.as_fn())
        })
        .collect();
    let y = Scalar::<K163>::random_nonzero(rng.as_fn());
    let fixed: Vec<(Scalar<K163>, Point<K163>)> = bases.iter().map(|p| (y, *p)).collect();
    let mut random = fixed.clone();
    let time = |items: &[(Scalar<K163>, Point<K163>)], rng: &mut SplitMix64| -> u64 {
        let t0 = Instant::now();
        black_box(varbase_x_batch(black_box(items), rng.as_fn()));
        t0.elapsed().as_nanos() as u64
    };
    let (mut a, mut b) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for _ in 0..batches {
        for (k, _) in random.iter_mut() {
            *k = Scalar::random_nonzero(rng.as_fn());
        }
        a.push(time(&fixed, &mut rng));
        b.push(time(&random, &mut rng));
    }
    CtProbe::from_samples(a, b)
}

/// Fixed-vs-random probe over the gateway's fixed-base comb: K-163
/// `generator_mul_batch` of 64 copies of the scalar 1 (class A) against
/// 64 fresh random scalars (class B), in alternating batches so that a
/// slow phase of a shared host hits both. Every column digit of a comb
/// that skips zero digits is zero for k = 1 but one, so such a comb
/// finishes class A several times sooner; the regular signed comb
/// recodes every scalar to all-nonzero digits and runs the same column
/// schedule on both.
pub fn probe_comb_fixed_vs_random(batches: usize) -> CtProbe {
    const WIDTH: usize = 64;
    let mut rng = SplitMix64::new(0xC0_3B);
    let fixed = vec![Scalar::<K163>::one(); WIDTH];
    let mut random = fixed.clone();
    let time = |ks: &[Scalar<K163>]| -> u64 {
        let t0 = Instant::now();
        black_box(generator_mul_batch(black_box(ks)));
        t0.elapsed().as_nanos() as u64
    };
    // The first call builds the shared table.
    black_box(generator_mul_batch(&fixed));
    let (mut a, mut b) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for _ in 0..batches {
        random
            .iter_mut()
            .for_each(|k| *k = Scalar::random_nonzero(rng.as_fn()));
        a.push(time(&fixed));
        b.push(time(&random));
    }
    CtProbe::from_samples(a, b)
}

/// An F(2^163) multiplication under test: `Element`'s dispatching
/// product or one backend's `mul`, such as
/// `medsec_gf2m::PortableBackend::mul`.
pub type FieldMul = fn(&Element<F163>, &Element<F163>) -> Element<F163>;

/// Fixed-vs-random probe over scalar F(2^163) multiplication, the
/// operation under every ladder step, inversion and decompression on
/// the serving backends: class A multiplies operands whose high limbs
/// are zero (only the low word set), class B random operands. The
/// products of class A have no bits above x^163, so a reduction that
/// loops until the high words clear finishes ~3× sooner on them, and a
/// product that skips zero nibbles sooner too; a product and reduction
/// whose schedule is fixed by the field take the same time on both.
/// Batches of the two classes alternate, so a slow phase of a shared
/// host hits both.
pub fn probe_field_mul_fixed_vs_random(mul: FieldMul, batches: usize, per_batch: usize) -> CtProbe {
    let mut rng = SplitMix64::new(0xF1E1_D000);
    let mut pairs = |high: bool| -> Vec<(Element<F163>, Element<F163>)> {
        (0..per_batch)
            .map(|_| {
                let mut draw = || {
                    if high {
                        Element::random(rng.as_fn())
                    } else {
                        Element::from_u64(rng.next_u64())
                    }
                };
                (draw(), draw())
            })
            .collect()
    };
    let (low, random) = (pairs(false), pairs(true));
    let mut sink = Element::<F163>::zero();
    let mut time = |set: &[(Element<F163>, Element<F163>)]| -> u64 {
        let t0 = Instant::now();
        for (a, b) in set {
            sink += mul(black_box(a), black_box(b));
        }
        t0.elapsed().as_nanos() as u64
    };
    let (mut a, mut b) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for _ in 0..batches {
        a.push(time(&low));
        b.push(time(&random));
    }
    black_box(sink);
    CtProbe::from_samples(a, b)
}

/// An AES-CMAC under test: `medsec_lwc::aes_cmac` (AES-NI where CPUID
/// reports it) or `medsec_lwc::portable::aes_cmac`.
pub type Cmac = fn(&[u8; 16], &[u8]) -> [u8; 16];

/// Fixed-vs-random **key** probe over AES-CMAC of a 22-byte message
/// (a compressed K-163 point, the gateway's hello MAC): class A runs
/// one fixed key on every call, class B a fresh random key per call.
/// Both classes read their keys from a batch-sized array, so only the
/// key values differ. A cipher that looks up a table by key-dependent
/// index would spread class B over more cache lines than class A; the
/// table-free AES must not split them. A hot cache on one host may hide
/// such a leak all the same, so the `[ct]` lint over `aes.rs` and the
/// hardware module stays the primary evidence. Batches of the two
/// classes alternate, so a slow phase of a shared host hits both.
pub fn probe_aes_fixed_vs_random_key(cmac: Cmac, batches: usize, per_batch: usize) -> CtProbe {
    let mut rng = SplitMix64::new(0xAE5_C3AC);
    let mut key = || {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        k[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        k
    };
    let message: [u8; 22] = core::array::from_fn(|i| (i as u8).wrapping_mul(0x9d) ^ 0x02);
    let fixed = vec![key(); per_batch];
    let mut random = fixed.clone();
    let mut sink = 0u8;
    let mut time = |keys: &[[u8; 16]]| -> u64 {
        let t0 = Instant::now();
        for k in keys {
            sink ^= cmac(black_box(k), black_box(&message))[0];
        }
        t0.elapsed().as_nanos() as u64
    };
    let (mut a, mut b) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for _ in 0..batches {
        random.iter_mut().for_each(|k| *k = key());
        a.push(time(&fixed));
        b.push(time(&random));
    }
    black_box(sink);
    CtProbe::from_samples(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_gf2m::{FieldBackend, PortableBackend};

    // Loose bound: an early-exit compare on a first-byte mismatch is
    // ~16x faster; noise on shared runners is well under 3x once we
    // take medians over enough batches.
    const MAX_RATIO: f64 = 3.0;

    #[test]
    fn ct_eq_bytes_is_flat_fixed_vs_random() {
        let probe = probe_ct_eq_bytes(64, 4096);
        assert!(
            probe.ratio < MAX_RATIO,
            "ct_eq_bytes timing split {probe:?}"
        );
    }

    #[test]
    fn ct_swap_limbs_is_flat_across_conditions() {
        let probe = probe_ct_swap_limbs(64, 4096);
        assert!(
            probe.ratio < MAX_RATIO,
            "ct_swap_limbs timing split {probe:?}"
        );
    }

    /// Both field products: the dispatching one (the hardware backend
    /// on hosts with `PCLMULQDQ`) and the portable backend's.
    #[test]
    fn field_mul_is_flat_fixed_vs_random_operands() {
        let active: FieldMul = |a, b| *a * *b;
        for mul in [active, PortableBackend::mul::<F163>] {
            let probe = probe_field_mul_fixed_vs_random(mul, 64, 1024);
            assert!(
                probe.ratio < MAX_RATIO,
                "F163 mul low-limb vs random timing split {probe:?}"
            );
        }
    }

    /// Both AES paths: the dispatching CMAC (AES-NI on x86-64 hosts
    /// that report it) and the portable bitsliced one.
    #[test]
    fn aes_cmac_is_flat_fixed_vs_random_key() {
        for cmac in [medsec_lwc::aes_cmac as Cmac, medsec_lwc::portable::aes_cmac] {
            let probe = probe_aes_fixed_vs_random_key(cmac, 32, 64);
            assert!(
                probe.ratio < MAX_RATIO,
                "AES-CMAC fixed-vs-random key timing split {probe:?}"
            );
        }
    }

    #[test]
    fn comb_is_flat_fixed_vs_random_scalar() {
        let probe = probe_comb_fixed_vs_random(48);
        assert!(
            probe.ratio < MAX_RATIO,
            "comb fixed-vs-random timing split {probe:?}"
        );
    }

    #[test]
    fn varbase_x_is_flat_fixed_vs_random_key() {
        let probe = probe_varbase_x_fixed_vs_random_key(32);
        assert!(
            probe.ratio < MAX_RATIO,
            "varbase_x fixed-vs-random key timing split {probe:?}"
        );
    }

    #[test]
    fn ladder_latency_is_flat_fixed_vs_random_scalar() {
        let probe = probe_ladder_fixed_vs_random(24);
        assert!(
            probe.ratio < MAX_RATIO,
            "ladder fixed-vs-random timing split {probe:?}"
        );
    }
}
