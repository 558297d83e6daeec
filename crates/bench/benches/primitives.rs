//! Symmetric-primitive throughput (software models; the hardware cost
//! comparisons of E6 use the literature-calibrated profiles instead).
//!
//! Two gates run before Criterion:
//!
//! * `hash_cost_gate` aborts the bench if the portable SHA-256 costs
//!   more than 3x SHA-1 on the same message (both portable code).
//! * `hardware_gate` aborts it where CPUID reports `aes` and `sha` but
//!   the dispatching `aes_cmac` or `sha256` of 256 B costs more than
//!   1/3 of its portable entry point: a silent fallback to the portable
//!   path fails. Elsewhere it prints the ratios only.
//!
//! The Criterion entries time AES-128 (key expansion, one block), CMAC,
//! SHA-256 and HMAC on both paths, `portable` and dispatching side by
//! side, plus the PRESENT and SIMON baselines and SHA-1.

use criterion::{criterion_group, Criterion};
use medsec_lwc::{
    aes_cmac, hmac_sha256, portable, sha1, sha256, Aes128, BlockCipher, Present80, Simon64,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_ciphers(c: &mut Criterion) {
    let key = [7u8; 16];
    c.bench_function("aes128/key_expansion", |b| {
        b.iter(|| black_box(Aes128::new(black_box(&key))))
    });
    c.bench_function("aes128/key_expansion [portable]", |b| {
        b.iter(|| black_box(portable::Aes128::new(black_box(&key))))
    });

    let aes = Aes128::new(&key);
    c.bench_function("aes128/block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(black_box(&mut block));
        })
    });
    let aes = portable::Aes128::new(&key);
    c.bench_function("aes128/block [portable]", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(black_box(&mut block));
        })
    });

    let present = Present80::new(&[3u8; 10]);
    c.bench_function("present80/block", |b| {
        let mut block = [0u8; 8];
        b.iter(|| {
            present.encrypt_block(black_box(&mut block));
        })
    });

    let simon = Simon64::new(&[9u8; 16]);
    c.bench_function("simon64_128/block", |b| {
        let mut block = [0u8; 8];
        b.iter(|| {
            simon.encrypt_block(black_box(&mut block));
        })
    });
}

fn bench_hashes_and_macs(c: &mut Criterion) {
    let msg = [0x42u8; 256];
    c.bench_function("sha1/256B", |b| b.iter(|| black_box(sha1(black_box(&msg)))));
    c.bench_function("sha256/256B", |b| {
        b.iter(|| black_box(sha256(black_box(&msg))))
    });
    c.bench_function("sha256/256B [portable]", |b| {
        b.iter(|| black_box(portable::sha256(black_box(&msg))))
    });
    c.bench_function("hmac_sha256/256B", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", black_box(&msg))))
    });
    c.bench_function("hmac_sha256/256B [portable]", |b| {
        b.iter(|| black_box(portable::hmac_sha256(b"key", black_box(&msg))))
    });
    c.bench_function("aes_cmac/256B", |b| {
        b.iter(|| black_box(aes_cmac(&[1u8; 16], black_box(&msg))))
    });
    c.bench_function("aes_cmac/256B [portable]", |b| {
        b.iter(|| black_box(portable::aes_cmac(&[1u8; 16], black_box(&msg))))
    });
}

/// Wall time of `reps` back-to-back calls of `f`.
fn time_calls<T>(f: impl Fn() -> T, reps: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed()
}

/// Median of `rounds` per-call cost ratios `num / den`, the two timed
/// in alternating regions of `reps` calls each, so a host that changes
/// speed mid-run moves both sides of a ratio. Returns (median, min,
/// max).
fn median_ratio<A, B>(
    num: impl Fn() -> A,
    den: impl Fn() -> B,
    reps: usize,
    rounds: usize,
) -> (f64, f64, f64) {
    time_calls(&num, reps / 10);
    time_calls(&den, reps / 10);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let tn = time_calls(&num, reps);
            let td = time_calls(&den, reps);
            tn.as_secs_f64() / td.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[rounds / 2], ratios[0], ratios[rounds - 1])
}

/// SHA-1 and SHA-256 of 256 bytes both compress 5 blocks in portable
/// code, and a SHA-256 block does about 1.3x the word operations of a
/// SHA-1 block, so the portable SHA-256 must cost at most 3x SHA-1 in
/// the same process. Per-call overhead outside the compression function
/// (for instance re-deriving the round constants on every call, which
/// read 14-20x) fails the gate. The SHA-256 side is the portable entry
/// point: the dispatching `sha256` runs SHA-NI where CPUID reports it,
/// which would pass however slow the portable code got.
fn hash_cost_gate() {
    const ROUNDS: usize = 5;
    const REPS: usize = 80_000;
    let msg = [0x42u8; 256];
    let (median, min, max) = median_ratio(
        || portable::sha256(black_box(&msg)),
        || sha1(black_box(&msg)),
        REPS,
        ROUNDS,
    );
    println!(
        "hash cost gate: portable sha256/sha1 on 256 B over {ROUNDS} rounds of {REPS} calls: \
         median {median:.2}x (min {min:.2}x, max {max:.2}x)"
    );
    assert!(
        median <= 3.0,
        "portable sha256 of 256 B must cost at most 3x sha1 of 256 B (got {median:.2}x)"
    );
}

/// Whether this CPU reports AES-NI and the SHA extensions, asked of
/// CPUID here rather than of `medsec_lwc`, so a library that stopped
/// detecting them fails the gate instead of silencing it.
fn cpu_reports_aes_and_sha() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Calls of `f` that take about 200 ms, from a short timed run.
fn reps_for_200ms<T>(f: impl Fn() -> T) -> usize {
    let probe = 2_000;
    let per_call = time_calls(&f, probe).as_secs_f64() / probe as f64;
    ((0.2 / per_call) as usize).max(probe)
}

/// The dispatching `aes_cmac` and `sha256` of 256 B against the
/// portable entry points, per call, median of 5 alternating ~200 ms
/// rounds. Where CPUID reports `aes` and `sha` each must cost at most
/// 1/3 of the portable one (they read 0.04x and 0.12-0.15x on a 2-core
/// AVX-512 host); elsewhere both run the portable code and the ratios
/// only print.
fn hardware_gate() {
    const ROUNDS: usize = 5;
    const BOUND: f64 = 1.0 / 3.0;
    let msg = [0x42u8; 256];
    let key = [1u8; 16];
    let portable_cmac = || portable::aes_cmac(&key, black_box(&msg));
    let portable_sha = || portable::sha256(black_box(&msg));
    let cmac = median_ratio(
        || aes_cmac(&key, black_box(&msg)),
        portable_cmac,
        reps_for_200ms(portable_cmac),
        ROUNDS,
    );
    let sha = median_ratio(
        || sha256(black_box(&msg)),
        portable_sha,
        reps_for_200ms(portable_sha),
        ROUNDS,
    );
    let hardware = cpu_reports_aes_and_sha();
    for (name, (median, min, max)) in [("aes_cmac", cmac), ("sha256", sha)] {
        println!(
            "hardware gate: {name} of 256 B, dispatching/portable per call over {ROUNDS} \
             rounds: median {median:.3}x (min {min:.3}x, max {max:.3}x){}",
            if hardware {
                ""
            } else {
                " (CPUID reports no aes+sha: not gated)"
            }
        );
        assert!(
            !hardware || median <= BOUND,
            "{name}: CPUID reports aes and sha, but the dispatching call costs {median:.3}x \
             the portable one (bound {BOUND:.3}x): the hardware path is not serving"
        );
    }
}

criterion_group!(benches, bench_ciphers, bench_hashes_and_macs);

fn main() {
    hash_cost_gate();
    hardware_gate();
    benches();
}
