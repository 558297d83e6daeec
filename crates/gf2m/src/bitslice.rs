//! Portable bitsliced batch multiplication: 64 independent F(2^m)
//! products computed across the bit positions of `u64` words.
//!
//! The oldest trick for carry-free fields on hardware without a
//! carry-less multiplier: transpose a block of 64 elements so that bit
//! *k* of the polynomial lives in one `u64` *bit-plane* (element *i*
//! at bit *i*), then schoolbook multiplication becomes `m²` word-wide
//! `AND`/`XOR`s — every logical op advances all 64 products at once —
//! and the sparse reduction becomes one `XOR` per reduction term per
//! excess bit position. No per-bit branches, no tables, no intrinsics:
//! plain integer ops the autovectorizer is free to widen.
//!
//! These are the batch kernels of the portable
//! [`BitslicedBackend`](crate::BitslicedBackend), for hosts without
//! `VPCLMULQDQ` ([`crate::vpclmul`]); correctness is pinned against the
//! model backend by `tests/backend_equivalence.rs`. Scalar
//! (single-element) operations don't benefit and stay on the
//! word-level comb path.

use crate::backend::{BitslicedBackend, FieldBackend};
use crate::batch::{gather, scatter};
use crate::field::FieldSpec;
use crate::{LIMBS, PROD_LIMBS};

/// Elements per bitsliced block: one per bit of a `u64`.
pub const LANES: usize = 64;

const MAX_BITS: usize = 64 * LIMBS;
const MAX_PROD_BITS: usize = 64 * PROD_LIMBS;

/// In-place transpose of a 64×64 bit matrix (row `r` = `a[r]`), the
/// recursive block-swap schedule from Hacker's Delight §7-3. Maps
/// limb-major words (row = one element's limb) to bit-planes (row =
/// one bit position across 64 elements) and back — the transform is
/// an involution.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high j bits of row k with the low j bits of row
            // k+j — the main-diagonal (bit 0 = column 0) orientation,
            // so bit-plane indices equal polynomial bit positions.
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Loads limbs `0..nw` of 64 consecutive elements (starting at slot
/// `base` of an `n`-wide plane-major batch) into bit-planes.
fn load_bits(planes: &[u64], n: usize, base: usize, nw: usize, bits: &mut [u64; MAX_BITS]) {
    for j in 0..nw {
        let mut blk = [0u64; 64];
        blk.copy_from_slice(&planes[j * n + base..j * n + base + LANES]);
        transpose64(&mut blk);
        bits[64 * j..64 * (j + 1)].copy_from_slice(&blk);
    }
}

/// Stores bit-planes `0..64*nw` back to plane-major layout; planes
/// `nw..LIMBS` of the destination are zeroed (canonical elements).
fn store_bits(bits: &[u64], out: &mut [u64], n: usize, base: usize, nw: usize) {
    for j in 0..LIMBS {
        if j < nw {
            let mut blk = [0u64; 64];
            blk.copy_from_slice(&bits[64 * j..64 * (j + 1)]);
            transpose64(&mut blk);
            out[j * n + base..j * n + base + LANES].copy_from_slice(&blk);
        } else {
            out[j * n + base..j * n + base + LANES].fill(0);
        }
    }
}

/// Folds product bit-planes `m..2m−1` down through the sparse
/// reduction polynomial: one XOR per term per excess position.
fn reduce_bits(pbits: &mut [u64; MAX_PROD_BITS], reduction: &[usize]) {
    let m = reduction[0];
    for ip in (m..2 * m - 1).rev() {
        let t = pbits[ip];
        if t == 0 {
            continue;
        }
        pbits[ip] = 0;
        for &e in &reduction[1..] {
            pbits[ip - m + e] ^= t;
        }
    }
}

/// One 64-element block of `out[i] = a[i] * b[i]`.
fn mul_block<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64], n: usize, base: usize) {
    let nw = F::M.div_ceil(64);
    let mut abits = [0u64; MAX_BITS];
    let mut bbits = [0u64; MAX_BITS];
    load_bits(a, n, base, nw, &mut abits);
    load_bits(b, n, base, nw, &mut bbits);
    let mut pbits = [0u64; MAX_PROD_BITS];
    let m = F::M;
    for (ia, &av) in abits[..m].iter().enumerate() {
        if av == 0 {
            continue;
        }
        // One row of the schoolbook: p[ia + ib] ^= a_bit[ia] & b_bit[ib]
        // for every ib — a contiguous AND/XOR sweep over 64 products.
        for (p, &bv) in pbits[ia..ia + m].iter_mut().zip(&bbits[..m]) {
            *p ^= av & bv;
        }
    }
    reduce_bits(&mut pbits, F::REDUCTION);
    store_bits(&pbits, out, n, base, nw);
}

/// One 64-element block of `out[i] = a[i]^2`: squaring in
/// characteristic 2 just spreads bit-plane `k` to `2k`.
fn sqr_block<F: FieldSpec>(out: &mut [u64], a: &[u64], n: usize, base: usize) {
    let nw = F::M.div_ceil(64);
    let mut abits = [0u64; MAX_BITS];
    load_bits(a, n, base, nw, &mut abits);
    let mut pbits = [0u64; MAX_PROD_BITS];
    for (ia, &av) in abits[..F::M].iter().enumerate() {
        pbits[2 * ia] = av;
    }
    reduce_bits(&mut pbits, F::REDUCTION);
    store_bits(&pbits, out, n, base, nw);
}

/// Batched plane-major multiplication: full 64-element blocks run
/// bitsliced, the ragged tail takes the backend's scalar comb per
/// element.
pub(crate) fn mul_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = crate::batch::width(out);
    let mut base = 0;
    while base + LANES <= n {
        mul_block::<F>(out, a, b, n, base);
        base += LANES;
    }
    for i in base..n {
        let x = gather::<F>(a, n, i);
        let y = gather::<F>(b, n, i);
        scatter(out, n, i, &BitslicedBackend::mul(&x, &y));
    }
}

/// Batched plane-major squaring; same blocking as
/// [`mul_batch_planes`].
pub(crate) fn sqr_batch_planes<F: FieldSpec>(out: &mut [u64], a: &[u64]) {
    let n = crate::batch::width(out);
    let mut base = 0;
    while base + LANES <= n {
        sqr_block::<F>(out, a, n, base);
        base += LANES;
    }
    for i in base..n {
        let x = gather::<F>(a, n, i);
        scatter(out, n, i, &BitslicedBackend::square(&x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FieldBackend, ModelBackend};
    use crate::field::Element;
    use crate::fields::{F163, F17};

    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn transpose64_is_involution_and_moves_bits() {
        let mut r = rng_from(31);
        let mut blk = [0u64; 64];
        for w in blk.iter_mut() {
            *w = r();
        }
        let orig = blk;
        transpose64(&mut blk);
        // Check the transpose law on a sample of positions.
        for row in [0usize, 1, 13, 31, 63] {
            for col in [0usize, 2, 17, 32, 63] {
                let got = (blk[row] >> col) & 1;
                let expect = (orig[col] >> row) & 1;
                assert_eq!(got, expect, "row={row} col={col}");
            }
        }
        transpose64(&mut blk);
        assert_eq!(blk, orig);
    }

    fn matches_model<F: FieldSpec>(seed: u64, n: usize) {
        let mut r = rng_from(seed);
        let xs: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut r)).collect();
        let ys: Vec<Element<F>> = (0..n).map(|_| Element::random(&mut r)).collect();
        let mut ap = vec![0u64; LIMBS * n];
        let mut bp = vec![0u64; LIMBS * n];
        for i in 0..n {
            scatter(&mut ap, n, i, &xs[i]);
            scatter(&mut bp, n, i, &ys[i]);
        }
        let mut mp = vec![0u64; LIMBS * n];
        mul_batch_planes::<F>(&mut mp, &ap, &bp);
        let mut sp = vec![0u64; LIMBS * n];
        sqr_batch_planes::<F>(&mut sp, &ap);
        for i in 0..n {
            assert_eq!(
                gather::<F>(&mp, n, i),
                ModelBackend::mul(&xs[i], &ys[i]),
                "mul i={i}"
            );
            assert_eq!(
                gather::<F>(&sp, n, i),
                ModelBackend::square(&xs[i]),
                "sqr i={i}"
            );
        }
    }

    #[test]
    fn bitsliced_blocks_and_tails_match_model() {
        // Full block, block + tail, tail only, empty.
        matches_model::<F163>(41, 64);
        matches_model::<F163>(42, 64 + 7);
        matches_model::<F163>(43, 5);
        matches_model::<F163>(44, 0);
        matches_model::<F17>(45, 130);
    }
}
