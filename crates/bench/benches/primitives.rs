//! Symmetric-primitive throughput (software models; the hardware cost
//! comparisons of E6 use the literature-calibrated profiles instead).
//!
//! Before Criterion runs, `hash_cost_gate` aborts the bench if SHA-256
//! costs more than 3x SHA-1 on the same message.

use criterion::{criterion_group, Criterion};
use medsec_lwc::{aes_cmac, hmac_sha256, sha1, sha256, Aes128, BlockCipher, Present80, Simon64};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_ciphers(c: &mut Criterion) {
    let aes = Aes128::new(&[7u8; 16]);
    c.bench_function("aes128/block", |b| {
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
    c.bench_function("hmac_sha256/256B", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", black_box(&msg))))
    });
    c.bench_function("aes_cmac/256B", |b| {
        b.iter(|| black_box(aes_cmac(&[1u8; 16], black_box(&msg))))
    });
}

/// Wall time of `reps` back-to-back calls of `hash` on `msg`.
fn time_hash<const N: usize>(hash: fn(&[u8]) -> [u8; N], msg: &[u8], reps: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(hash(black_box(msg)));
    }
    t0.elapsed()
}

/// SHA-1 and SHA-256 of 256 bytes both compress 5 blocks in portable
/// code, and a SHA-256 block does about 1.3x the word operations of a
/// SHA-1 block, so SHA-256 must cost at most 3x SHA-1 in the same
/// process. Per-call overhead outside the compression function (for
/// instance re-deriving the round constants on every call, which read
/// 14-20x) fails the gate. The two hashes are timed in alternating
/// ~200 ms regions and the median of the per-round ratios is gated, so
/// a host that changes speed mid-run moves both sides of a ratio.
fn hash_cost_gate() {
    const ROUNDS: usize = 5;
    const REPS: usize = 80_000;
    let msg = [0x42u8; 256];
    time_hash(sha1, &msg, REPS / 10);
    time_hash(sha256, &msg, REPS / 10);
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t1 = time_hash(sha1, &msg, REPS);
            let t256 = time_hash(sha256, &msg, REPS);
            t256.as_secs_f64() / t1.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    println!(
        "hash cost gate: sha256/sha1 on 256 B over {ROUNDS} rounds of {REPS} calls: \
         median {median:.2}x (min {:.2}x, max {:.2}x)",
        ratios[0],
        ratios[ROUNDS - 1]
    );
    assert!(
        median <= 3.0,
        "sha256 of 256 B must cost at most 3x sha1 of 256 B (got {median:.2}x)"
    );
}

criterion_group!(benches, bench_ciphers, bench_hashes_and_macs);

fn main() {
    hash_cost_gate();
    benches();
}
