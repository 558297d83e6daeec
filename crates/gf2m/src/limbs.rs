//! Raw carry-less limb arithmetic shared by the field and multiplier models.
//!
//! All values are little-endian arrays of `u64` words; polynomials over
//! GF(2) are stored with bit *i* of the array representing the coefficient
//! of x^i.

use crate::{LIMBS, PROD_LIMBS};

/// XOR-accumulate `src` into `dst` (polynomial addition over GF(2)).
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Whether every limb is zero.
#[inline]
pub fn is_zero(v: &[u64]) -> bool {
    v.iter().all(|&w| w == 0)
}

/// Degree of the polynomial (index of highest set bit), or `None` for zero.
#[inline]
pub fn degree(v: &[u64]) -> Option<usize> {
    for (i, &w) in v.iter().enumerate().rev() {
        if w != 0 {
            return Some(64 * i + 63 - w.leading_zeros() as usize);
        }
    }
    None
}

/// Read bit `i`.
#[inline]
pub fn get_bit(v: &[u64], i: usize) -> bool {
    (v[i / 64] >> (i % 64)) & 1 == 1
}

/// Set bit `i` to 1.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
pub fn set_bit(v: &mut [u64], i: usize) {
    v[i / 64] |= 1u64 << (i % 64);
}

/// Flip bit `i`.
#[inline]
pub fn flip_bit(v: &mut [u64], i: usize) {
    v[i / 64] ^= 1u64 << (i % 64);
}

/// Shift left by `s` bits in place (`s` < total width).
pub fn shl_in_place(v: &mut [u64], s: usize) {
    let n = v.len();
    let words = s / 64;
    let bits = s % 64;
    if words > 0 {
        for i in (0..n).rev() {
            v[i] = if i >= words { v[i - words] } else { 0 };
        }
    }
    if bits > 0 {
        let mut carry = 0u64;
        for w in v.iter_mut() {
            let nc = *w >> (64 - bits);
            *w = (*w << bits) | carry;
            carry = nc;
        }
    }
}

/// Total number of set bits (Hamming weight).
#[inline]
pub fn hamming_weight(v: &[u64]) -> u32 {
    v.iter().map(|w| w.count_ones()).sum()
}

/// Hamming distance between two equal-length words arrays.
#[inline]
pub fn hamming_distance(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Carry-less (polynomial) multiplication of two `LIMBS`-wide operands
/// into a `PROD_LIMBS`-wide product, using a 4-bit windowed comb.
pub fn clmul(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; PROD_LIMBS] {
    // Precompute v * b for all 4-bit v. table[v] has LIMBS+1 words: b may
    // gain up to 3 bits of degree.
    let mut table = [[0u64; LIMBS + 1]; 16];
    for v in 1u64..16 {
        let mut row = [0u64; LIMBS + 1];
        for t in 0..4 {
            if (v >> t) & 1 == 1 {
                let mut carry = 0u64;
                for i in 0..LIMBS {
                    let w = b[i];
                    row[i] ^= (w << t) | carry;
                    carry = if t == 0 { 0 } else { w >> (64 - t) };
                }
                row[LIMBS] ^= carry;
            }
        }
        table[v as usize] = row;
    }
    let mut acc = [0u64; PROD_LIMBS];
    // Process nibbles of `a` from most significant to least significant.
    let total_nibbles = LIMBS * 16;
    for n in (0..total_nibbles).rev() {
        // acc <<= 4
        let mut carry = 0u64;
        for w in acc.iter_mut() {
            let nc = *w >> 60;
            *w = (*w << 4) | carry;
            carry = nc;
        }
        let v = (a[n / 16] >> (4 * (n % 16))) & 0xf;
        if v != 0 {
            let row = &table[v as usize];
            for i in 0..=LIMBS {
                acc[i] ^= row[i];
            }
        }
    }
    acc
}

/// Carry-less squaring: spreads each bit of `a` to the even positions.
pub fn clsquare(a: &[u64; LIMBS]) -> [u64; PROD_LIMBS] {
    #[inline]
    fn spread(byte: u8) -> u16 {
        let mut x = byte as u16;
        x = (x | (x << 4)) & 0x0f0f;
        x = (x | (x << 2)) & 0x3333;
        x = (x | (x << 1)) & 0x5555;
        x
    }
    let mut out = [0u64; PROD_LIMBS];
    for (i, &w) in a.iter().enumerate() {
        let mut lo = 0u64;
        let mut hi = 0u64;
        for b in 0..4 {
            lo |= (spread(((w >> (8 * b)) & 0xff) as u8) as u64) << (16 * b);
            hi |= (spread(((w >> (8 * b + 32)) & 0xff) as u8) as u64) << (16 * b);
        }
        out[2 * i] = lo;
        out[2 * i + 1] = hi;
    }
    out
}

/// Precomputed bit-spreading table: `SPREAD[b]` interleaves a zero bit
/// after every bit of the byte `b` (the squaring map of GF(2)[x] on one
/// byte). Built at compile time so [`clsquare`] and [`clsquare_fast`]
/// are pure table lookups.
static SPREAD: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut x = b as u16;
        x = (x | (x << 4)) & 0x0f0f;
        x = (x | (x << 2)) & 0x3333;
        x = (x | (x << 1)) & 0x5555;
        t[b] = x;
        b += 1;
    }
    t
};

/// Carry-less multiplication over only the low `nw` words of each
/// operand (the serving backends pass `nw = ceil(m/64)`, so F(2^163) does
/// 3-word work instead of 5-word work).
///
/// Same 4-bit windowed comb as [`clmul`], restructured so the wide
/// accumulator shifts once per nibble *position* (16 times) rather than
/// once per nibble (80 times): each word of `a` contributes its nibble
/// at position `s` during iteration `s`, offset by its word index.
pub fn clmul_fast(a: &[u64; LIMBS], b: &[u64; LIMBS], nw: usize) -> [u64; PROD_LIMBS] {
    debug_assert!((1..=LIMBS).contains(&nw));
    // table[v] = v(x)·b(x) for each 4-bit v, built incrementally:
    // even rows shift, odd rows add b.
    let mut table = [[0u64; LIMBS + 1]; 16];
    table[1][..nw].copy_from_slice(&b[..nw]);
    for v in 2..16 {
        if v % 2 == 0 {
            let (prev, cur) = table.split_at_mut(v);
            let src = &prev[v / 2];
            let mut carry = 0u64;
            for (dst, &w) in cur[0].iter_mut().zip(src).take(nw + 1) {
                *dst = (w << 1) | carry;
                carry = w >> 63;
            }
        } else {
            for j in 0..nw {
                table[v][j] = table[v - 1][j] ^ b[j];
            }
            table[v][nw] = table[v - 1][nw];
        }
    }
    let mut acc = [0u64; PROD_LIMBS];
    let width = 2 * nw;
    for s in (0..16).rev() {
        if s != 15 {
            let mut carry = 0u64;
            for w in acc[..width].iter_mut() {
                let nc = *w >> 60;
                *w = (*w << 4) | carry;
                carry = nc;
            }
        }
        for i in 0..nw {
            let v = ((a[i] >> (4 * s)) & 0xf) as usize;
            if v != 0 {
                for j in 0..=nw {
                    acc[i + j] ^= table[v][j];
                }
            }
        }
    }
    acc
}

/// Carry-less squaring over only the low `nw` words, via the
/// compile-time [`SPREAD`] table.
pub fn clsquare_fast(a: &[u64; LIMBS], nw: usize) -> [u64; PROD_LIMBS] {
    debug_assert!((1..=LIMBS).contains(&nw));
    let mut out = [0u64; PROD_LIMBS];
    for (i, &w) in a.iter().take(nw).enumerate() {
        let mut lo = 0u64;
        let mut hi = 0u64;
        for b in 0..4 {
            lo |= (SPREAD[((w >> (8 * b)) & 0xff) as usize] as u64) << (16 * b);
            hi |= (SPREAD[((w >> (8 * b + 32)) & 0xff) as usize] as u64) << (16 * b);
        }
        out[2 * i] = lo;
        out[2 * i + 1] = hi;
    }
    out
}

/// Word-level reduction modulo a sparse (trinomial/pentanomial)
/// polynomial — the serving backends' counterpart of the bit-serial
/// [`reduce`]. Folds 64 bits at a time: every word above the degree-m
/// boundary is replaced by copies of itself shifted down by `m − e` for
/// each tail exponent `e`.
///
/// Folding a word can reintroduce bits at or above position m when
/// `m − e < 64` (e.g. the toy trinomial x¹⁷+x³+1), so both the whole-word
/// pass and the final partial-word pass loop until the region is clear;
/// every fold strictly lowers the top degree, so the loops terminate.
pub fn reduce_fast(mut prod: [u64; PROD_LIMBS], reduction: &[usize]) -> [u64; LIMBS] {
    let m = reduction[0];
    debug_assert!(reduction.windows(2).all(|w| w[0] > w[1]));
    let mw = m / 64;
    let mb = m % 64;
    // Whole words strictly above the word holding bit m.
    let mut i = PROD_LIMBS - 1;
    while i > mw {
        while prod[i] != 0 {
            let w = prod[i];
            prod[i] = 0;
            for &e in &reduction[1..] {
                // x^(64·i + j) ≡ x^(64·i + j − m + e)
                let base = 64 * i + e - m;
                let wi = base / 64;
                let sh = base % 64;
                prod[wi] ^= w << sh;
                if sh != 0 {
                    prod[wi + 1] ^= w >> (64 - sh);
                }
            }
        }
        i -= 1;
    }
    // Bits ≥ m inside the boundary word.
    let low_mask = (1u64 << mb).wrapping_sub(1);
    loop {
        let t = prod[mw] >> mb;
        if t == 0 {
            break;
        }
        prod[mw] &= low_mask;
        for &e in &reduction[1..] {
            // x^(m + j) ≡ x^(j + e): place t at bit offset e.
            let wi = e / 64;
            let sh = e % 64;
            prod[wi] ^= t << sh;
            if sh != 0 {
                prod[wi + 1] ^= t >> (64 - sh);
            }
        }
    }
    let mut out = [0u64; LIMBS];
    out.copy_from_slice(&prod[..LIMBS]);
    out
}

/// Reduce a `PROD_LIMBS`-wide polynomial modulo the sparse polynomial whose
/// set exponents are `reduction` (descending, starting with the degree m).
///
/// Returns the reduced value in the low `LIMBS` words.
pub fn reduce(mut prod: [u64; PROD_LIMBS], reduction: &[usize]) -> [u64; LIMBS] {
    let m = reduction[0];
    debug_assert!(reduction.windows(2).all(|w| w[0] > w[1]));
    // Fold words from the top: every set bit at position i >= m is replaced
    // by the lower-degree terms shifted to i - m.
    if let Some(top) = degree(&prod) {
        for i in (m..=top).rev() {
            if get_bit(&prod, i) {
                // Clearing bit i and flipping i - m + e for the tail
                // exponents e (skipping the leading m itself, which lands
                // exactly on the cleared bit offset).
                flip_bit(&mut prod, i);
                for &e in &reduction[1..] {
                    flip_bit(&mut prod, i - m + e);
                }
            }
        }
    }
    let mut out = [0u64; LIMBS];
    out.copy_from_slice(&prod[..LIMBS]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shl_words_and_bits() {
        let mut v = [1u64, 0, 0, 0, 0];
        shl_in_place(&mut v, 64);
        assert_eq!(v, [0, 1, 0, 0, 0]);
        shl_in_place(&mut v, 3);
        assert_eq!(v, [0, 8, 0, 0, 0]);
        let mut w = [u64::MAX, 0, 0, 0, 0];
        shl_in_place(&mut w, 1);
        assert_eq!(w, [u64::MAX - 1, 1, 0, 0, 0]);
    }

    #[test]
    fn degree_and_bits() {
        let mut v = [0u64; 5];
        assert_eq!(degree(&v), None);
        set_bit(&mut v, 163);
        assert_eq!(degree(&v), Some(163));
        assert!(get_bit(&v, 163));
        flip_bit(&mut v, 163);
        assert_eq!(degree(&v), None);
    }

    #[test]
    fn clmul_matches_schoolbook_small() {
        // (x^2 + 1)(x + 1) = x^3 + x^2 + x + 1
        let a = [0b101u64, 0, 0, 0, 0];
        let b = [0b011u64, 0, 0, 0, 0];
        let p = clmul(&a, &b);
        assert_eq!(p[0], 0b1111);
        assert!(p[1..].iter().all(|&w| w == 0));
    }

    #[test]
    fn clmul_commutes_and_distributes() {
        let a = [0x0123_4567_89ab_cdef, 0xfedc_ba98, 0, 0x1, 0];
        let b = [0xdead_beef_cafe_f00d, 0x1234, 0x5678, 0, 0];
        let c = [0x1111_2222_3333_4444, 0, 0x9abc, 0, 0];
        assert_eq!(clmul(&a, &b), clmul(&b, &a));
        let mut bc = b;
        xor_into(&mut bc, &c);
        let mut sum = clmul(&a, &b);
        xor_into(&mut sum, &clmul(&a, &c));
        assert_eq!(clmul(&a, &bc), sum);
    }

    #[test]
    fn clsquare_matches_clmul() {
        let a = [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0xff, 0, 0x7];
        assert_eq!(clsquare(&a), clmul(&a, &a));
    }

    #[test]
    fn reduce_simple_field() {
        // F(2^3) with x^3 + x + 1: x^3 ≡ x + 1.
        let mut p = [0u64; PROD_LIMBS];
        set_bit(&mut p, 3);
        let r = reduce(p, &[3, 1, 0]);
        assert_eq!(r[0], 0b011);
    }

    #[test]
    fn reduce_leaves_low_degree_untouched() {
        let mut p = [0u64; PROD_LIMBS];
        p[0] = 0b101;
        let r = reduce(p, &[163, 7, 6, 3, 0]);
        assert_eq!(r[0], 0b101);
    }

    #[test]
    fn fast_primitives_match_model_primitives() {
        let a = [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0x7, 0, 0];
        let b = [0xdead_beef_cafe_f00d, 0x1234_5678_9abc_def0, 0x5, 0, 0];
        assert_eq!(clmul_fast(&a, &b, 3), clmul(&a, &b));
        assert_eq!(clsquare_fast(&a, 3), clsquare(&a));
        for reduction in [
            &[163usize, 7, 6, 3, 0][..],
            &[233, 74, 0][..],
            &[283, 12, 7, 5, 0][..],
            &[17, 3, 0][..],
        ] {
            let p = clmul(&a, &b);
            assert_eq!(
                reduce_fast(p, reduction),
                reduce(p, reduction),
                "reduction {reduction:?}"
            );
        }
    }

    #[test]
    fn reduce_fast_toy_field_refolds_high_bits() {
        // F(2^17): folding word 1 lands back inside word 0 above bit 17,
        // exercising the refold loops.
        let mut p = [0u64; PROD_LIMBS];
        p[1] = u64::MAX;
        p[0] = u64::MAX;
        assert_eq!(reduce_fast(p, &[17, 3, 0]), reduce(p, &[17, 3, 0]));
    }

    #[test]
    fn hamming_helpers() {
        let a = [0xffu64, 0, 0, 0, 0];
        let b = [0x0fu64, 0, 0, 0, 0];
        assert_eq!(hamming_weight(&a), 8);
        assert_eq!(hamming_distance(&a, &b), 4);
    }
}
