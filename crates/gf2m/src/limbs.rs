//! Raw carry-less limb arithmetic shared by the field and multiplier models.
//!
//! All values are little-endian arrays of `u64` words; polynomials over
//! GF(2) are stored with bit *i* of the array representing the coefficient
//! of x^i.
//!
//! The model path's products here are a windowed comb ([`clmul`]) and
//! a byte spread ([`clsquare`]) with the bit-serial [`reduce`]: the
//! oracle, never a serving path. The portable backend, and the
//! hardware backend on hosts without `PCLMULQDQ`, multiply with
//! [`clmul_words`], a word-level Karatsuba over BearSSL's masked
//! integer-multiply word product, and square with [`clsquare_words`],
//! a shift-and-mask bit interleave. Every scalar `mul` and `sqr` of the
//! serving backends then reduces with [`reduce_words`], whose fold
//! schedule — trip counts, word offsets, shift counts — derives from
//! the field alone. The products, the interleave and the fold take the
//! same operation sequence whatever the operands, with no table and no
//! data-dependent branch; their bodies are lint-checked constant-time
//! regions.
//!
//! The word product rests on one assumption about the target: a 64-bit
//! integer multiplication takes the same time for every operand. That
//! holds on x86-64 and on current aarch64 cores, not on some embedded
//! cores whose multiplier finishes early on small operands (BearSSL's
//! notes on constant-time multiplication list them).

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

// lint: ct-begin — the word products and the interleave below run
// the same integer multiplications, shifts and masks whatever their
// operands: no branch, no table, no index taken from the data.

/// The low word of the carry-less product of two words: BearSSL's
/// `bmul64`. Each operand is split by masks into four classes of bits
/// (positions ≡ 0, 1, 2, 3 mod 4), so an integer product of two
/// classes sums each column in a four-bit slot below the next bit of
/// its class. Column k of the low word sums at most ⌊k/4⌋ + 1 one-bit
/// products, fewer than 16 and so carrying no further than the slot,
/// except in the top four columns (a class's column 15): there a sum
/// of 16 carries to bit 64 or above, outside the word. So the 16
/// integer products, masked back to their classes, give the exact low
/// word.
#[inline(always)]
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = M0 << 1;
    const M2: u64 = M0 << 2;
    const M3: u64 = M0 << 3;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// The carry-less product of two words, low word first. The product
/// of the bit-reversed words is the bit-reversed product shifted by
/// one, so its low word, reversed back, holds the high word.
#[inline(always)]
fn clmul64(x: u64, y: u64) -> [u64; 2] {
    let hi = bmul64(x.reverse_bits(), y.reverse_bits()).reverse_bits() >> 1;
    [bmul64(x, y), hi]
}

/// 2 × 2 words, Karatsuba: 3 word products instead of 4.
#[inline(always)]
fn kara2(a0: u64, a1: u64, b0: u64, b1: u64) -> [u64; 4] {
    let [p0l, p0h] = clmul64(a0, b0);
    let [p1l, p1h] = clmul64(a1, b1);
    let [pml, pmh] = clmul64(a0 ^ a1, b0 ^ b1);
    [p0l, p0h ^ pml ^ p0l ^ p1l, p1l ^ pmh ^ p0h ^ p1h, p1h]
}

/// 3 × 3 words: 6 word products instead of 9, one per word and one
/// per pair of words; a pair's product minus its two diagonal ones is
/// the pair's cross term.
#[inline(always)]
fn kara3(a: &[u64], b: &[u64]) -> [u64; 6] {
    let [p0l, p0h] = clmul64(a[0], b[0]);
    let [p1l, p1h] = clmul64(a[1], b[1]);
    let [p2l, p2h] = clmul64(a[2], b[2]);
    let [q01l, q01h] = clmul64(a[0] ^ a[1], b[0] ^ b[1]);
    let [q02l, q02h] = clmul64(a[0] ^ a[2], b[0] ^ b[2]);
    let [q12l, q12h] = clmul64(a[1] ^ a[2], b[1] ^ b[2]);
    let (c01l, c01h) = (q01l ^ p0l ^ p1l, q01h ^ p0h ^ p1h);
    let (c02l, c02h) = (q02l ^ p0l ^ p2l, q02h ^ p0h ^ p2h);
    let (c12l, c12h) = (q12l ^ p1l ^ p2l, q12h ^ p1h ^ p2h);
    [
        p0l,
        p0h ^ c01l,
        c01h ^ c02l ^ p1l,
        c02h ^ p1h ^ c12l,
        c12h ^ p2l,
        p2h,
    ]
}

/// Karatsuba's middle term for a split two words up: adds
/// `mid + lo + hi` into `out` from word 2, `lo` zero-extended.
#[inline(always)]
fn add_middle(out: &mut [u64], lo: &[u64], mid: &[u64], hi: &[u64]) {
    let lo = lo.iter().chain(&[0, 0]);
    for (o, ((m, l), h)) in out.iter_mut().skip(2).zip(mid.iter().zip(lo).zip(hi)) {
        *o ^= m ^ l ^ h;
    }
}

/// 4 × 4 words, split (2, 2): 9 word products instead of 16.
#[inline(always)]
fn kara4(a: &[u64], b: &[u64]) -> [u64; 8] {
    let lo = kara2(a[0], a[1], b[0], b[1]);
    let hi = kara2(a[2], a[3], b[2], b[3]);
    let mid = kara2(a[0] ^ a[2], a[1] ^ a[3], b[0] ^ b[2], b[1] ^ b[3]);
    let mut out = [0u64; 8];
    out[..4].copy_from_slice(&lo);
    out[4..].copy_from_slice(&hi);
    add_middle(&mut out, &lo, &mid, &hi);
    out
}

/// 5 × 5 words, split (2, 3): 15 word products instead of 25.
#[inline(always)]
fn kara5(a: &[u64], b: &[u64]) -> [u64; 10] {
    let lo = kara2(a[0], a[1], b[0], b[1]);
    let hi = kara3(&a[2..], &b[2..]);
    let sa = [a[0] ^ a[2], a[1] ^ a[3], a[4]];
    let sb = [b[0] ^ b[2], b[1] ^ b[3], b[4]];
    let mid = kara3(&sa, &sb);
    let mut out = [0u64; 10];
    out[..4].copy_from_slice(&lo);
    out[4..].copy_from_slice(&hi);
    add_middle(&mut out, &lo, &mid, &hi);
    out
}

/// Spreads the low 32 bits of `x` to the even positions (bit i to bit
/// 2i) in five shift-and-mask steps.
#[inline(always)]
fn interleave_zeros(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Carry-less squaring of the low `nw` words: every bit of word i moves
/// to twice its position, into words 2i and 2i + 1.
#[inline(always)]
pub fn clsquare_words(a: &[u64; LIMBS], nw: usize) -> [u64; PROD_LIMBS] {
    let mut out = [0u64; PROD_LIMBS];
    for (o, &w) in out.chunks_exact_mut(2).zip(a.iter().take(nw)) {
        o[0] = interleave_zeros(w);
        o[1] = interleave_zeros(w >> 32);
    }
    out
}

// lint: ct-end

/// Carry-less product of the low `nw` words of each operand (the
/// portable backend passes `nw = ceil(m/64)`, so F(2^163) does 3-word
/// work instead of 5-word work): a word-level Karatsuba over
/// constant-time word products, 1, 3, 6, 9 and 15 of them for 1–5
/// words. The branch on `nw` is the field's, never the operands', and
/// folds away where a field's `nw` is a constant.
#[inline(always)]
pub fn clmul_words(a: &[u64; LIMBS], b: &[u64; LIMBS], nw: usize) -> [u64; PROD_LIMBS] {
    debug_assert!((1..=LIMBS).contains(&nw));
    let mut out = [0u64; PROD_LIMBS];
    match nw {
        1 => out[..2].copy_from_slice(&clmul64(a[0], b[0])),
        2 => out[..4].copy_from_slice(&kara2(a[0], a[1], b[0], b[1])),
        3 => out[..6].copy_from_slice(&kara3(a, b)),
        4 => out[..8].copy_from_slice(&kara4(a, b)),
        _ => out = kara5(a, b),
    }
    out
}

/// Word-level reduction modulo a sparse (trinomial/pentanomial)
/// polynomial, in a schedule fixed by the field — the serving backends'
/// counterpart of the bit-serial [`reduce`], under every scalar `mul`
/// and `sqr`.
///
/// `prod` must have degree at most 2m − 2, as every product or square
/// of two canonical elements does. With H = ⌊prod / x^m⌋, one fold
/// replaces `prod` by `(prod mod x^m) + H·(f(x) − x^m)`: H shifted left
/// by each tail exponent e and XORed in, word by word. Two folds finish
/// the job on every field whose largest tail exponent e₁ satisfies
/// 2·e₁ ≤ m + 1 (all four here, the toy F17 included): the first leaves
/// degree ≤ m − 2 + e₁, the second ≤ 2·e₁ − 2 < m. The trip counts,
/// word offsets and shift counts all derive from the field, so the
/// operation sequence is the same for every operand — no loop runs
/// until a word clears.
#[inline(always)]
pub fn reduce_words(prod: [u64; PROD_LIMBS], reduction: &[usize]) -> [u64; LIMBS] {
    let m = reduction[0];
    let e1 = reduction[1];
    debug_assert!(reduction.windows(2).all(|w| w[0] > w[1]));
    debug_assert!(2 * e1 <= m + 1, "two folds need 2·e₁ ≤ m + 1");
    let (mw, mb) = (m / 64, m % 64);
    // Words of H in each fold: H has at most m − 1 bits in the first,
    // at most e₁ − 1 in the second.
    let folds = [(m - 1).div_ceil(64), (e1 - 1).div_ceil(64).max(1)];
    // Ones below bit m.
    let mut keep = [0u64; PROD_LIMBS];
    for (j, k) in keep.iter_mut().enumerate() {
        *k = match j.cmp(&mw) {
            core::cmp::Ordering::Less => u64::MAX,
            core::cmp::Ordering::Equal => (1u64 << mb) - 1,
            core::cmp::Ordering::Greater => 0,
        };
    }
    let tail = &reduction[1..];
    let mut p = prod;
    // lint: ct-begin — the fold schedule depends only on the field.
    // `h` holds H one word up, between zero guard words, so each
    // shifted copy reads its word and the one below without a branch
    // at either end; `(w >> 1) >> (63 − s)` is `w >> (64 − s)`, and 0
    // when s = 0.
    for hw in folds {
        let mut h = [0u64; LIMBS + 2];
        let high = p.iter().skip(mw).zip(p.iter().skip(mw + 1));
        for (d, (lo, hi)) in h.iter_mut().skip(1).take(hw).zip(high) {
            *d = (lo >> mb) | ((hi << 1) << (63 - mb));
        }
        for (w, k) in p.iter_mut().zip(keep) {
            *w &= k;
        }
        for &e in tail {
            let (ew, eb) = (e >> 6, e & 63);
            let shifted = h.iter().skip(1).zip(h.iter()).take(hw + 1);
            for (d, (lo, hi)) in p.iter_mut().skip(ew).zip(shifted) {
                *d ^= (lo << eb) | ((hi >> 1) >> (63 - eb));
            }
        }
    }
    // lint: ct-end
    let mut out = [0u64; LIMBS];
    out.copy_from_slice(&p[..LIMBS]);
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
        assert_eq!(clmul_words(&a, &b, 3), clmul(&a, &b));
        assert_eq!(clsquare_words(&a, 3), clsquare(&a));
    }

    /// One word against the reference comb.
    fn word_product_matches_reference(x: u64, y: u64) {
        let p = clmul(&[x, 0, 0, 0, 0], &[y, 0, 0, 0, 0]);
        assert_eq!(clmul64(x, y), [p[0], p[1]], "{x:#x} * {y:#x}");
    }

    #[test]
    fn word_product_matches_reference_on_every_single_bit_pair() {
        for i in 0..64 {
            for j in 0..64 {
                word_product_matches_reference(1 << i, 1 << j);
            }
        }
    }

    /// All-ones words, and each class mask times itself and times
    /// all-ones: there column 15 of a class sums 16 one-bit products and
    /// carries out of the word.
    #[test]
    fn word_product_matches_reference_on_saturated_columns() {
        word_product_matches_reference(u64::MAX, u64::MAX);
        for class in 0..4 {
            let mask = 0x1111_1111_1111_1111u64 << class;
            word_product_matches_reference(mask, mask);
            word_product_matches_reference(mask, u64::MAX);
            word_product_matches_reference(u64::MAX, mask);
        }
    }

    const FIELDS: [&[usize]; 4] = [
        &[163, 7, 6, 3, 0],
        &[233, 74, 0],
        &[283, 12, 7, 5, 0],
        &[17, 3, 0],
    ];

    /// Every bit below 2m − 1 set: the largest product the contract
    /// admits, with every word it can occupy full.
    fn saturated(m: usize) -> [u64; PROD_LIMBS] {
        let mut p = [0u64; PROD_LIMBS];
        for i in 0..2 * m - 1 {
            set_bit(&mut p, i);
        }
        p
    }

    #[test]
    fn reduce_words_matches_bit_serial_reduce() {
        let mut s = 0x5EED_u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for reduction in FIELDS {
            let m = reduction[0];
            let nw = m.div_ceil(64);
            let top = m % 64;
            let canonical = |next: &mut dyn FnMut() -> u64| {
                let mut a = [0u64; LIMBS];
                for w in a.iter_mut().take(nw) {
                    *w = next();
                }
                if top != 0 {
                    a[nw - 1] &= (1u64 << top) - 1;
                }
                a
            };
            for _ in 0..256 {
                let a = canonical(&mut next);
                let b = canonical(&mut next);
                for p in [clmul(&a, &b), clsquare(&a)] {
                    assert_eq!(
                        reduce_words(p, reduction),
                        reduce(p, reduction),
                        "{reduction:?}"
                    );
                }
            }
            // All-ones operands, and every word of the product set.
            let ones = canonical(&mut || u64::MAX);
            for p in [clmul(&ones, &ones), clsquare(&ones), saturated(m)] {
                assert_eq!(
                    reduce_words(p, reduction),
                    reduce(p, reduction),
                    "{reduction:?}"
                );
            }
        }
    }

    #[test]
    fn reduce_words_toy_field_refolds_high_bits() {
        // F(2^17): x^32 + x^31 folds to x^18 + x^17 + …, back at or
        // above x^17, so the second fold must run.
        let mut p = [0u64; PROD_LIMBS];
        set_bit(&mut p, 32);
        set_bit(&mut p, 31);
        assert_eq!(reduce_words(p, &[17, 3, 0]), reduce(p, &[17, 3, 0]));
    }

    #[test]
    fn hamming_helpers() {
        let a = [0xffu64, 0, 0, 0, 0];
        let b = [0x0fu64, 0, 0, 0, 0];
        assert_eq!(hamming_weight(&a), 8);
        assert_eq!(hamming_distance(&a, &b), 4);
    }
}
