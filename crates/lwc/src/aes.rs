//! AES-128 — the paper's reference secret-key cipher ("protocols based on
//! secret key algorithms, like AES, are often cheaper in computation cost
//! but not necessarily in communication cost", §4).
//!
//! [`Aes128`] runs one of two implementations, picked once per process
//! by CPUID: the AES-NI kernels of `crate::ni` on x86-64 hosts that
//! report `aes`, and everywhere else the portable [`PortableAes128`]
//! below. Neither reads a table or branches on key or state, so neither
//! offers the cache- and branch-timing channels of Bernstein (2005) and
//! Osvik–Shamir–Tromer (2006) that a 256-byte S-box table does.
//!
//! The portable cipher is bitsliced in the layout of BearSSL's
//! `aes_ct64` (Käsper–Schwabe, CHES 2009): the block's 128 bits are
//! spread over eight 64-bit words, word b holding bit b of every byte,
//! so SubBytes is the Boyar–Peralta S-box circuit (113 gates) run once
//! on all 16 bytes, and ShiftRows and MixColumns are shifts and masks.
//! A word has room for four blocks; one block leaves three lanes idle.
//! Only encryption exists: CTR, CMAC and the DRBG never decrypt.

use crate::cipher::{BlockCipher, HwProfile};
use crate::ni::Aes128Ni;

const ROUNDS: usize = 10;

/// The expanded key in FIPS-197 byte order: round key r is the words
/// w\[4r\]..w\[4r+3\], each in key byte order. Both paths expand to this
/// form, so their schedules compare byte for byte.
pub(crate) type RoundKeys = [[u8; 16]; ROUNDS + 1];

/// AES-128 block cipher with a precomputed key schedule, on AES-NI
/// where CPUID reports it and on the portable bitsliced cipher
/// elsewhere. Both give the same ciphertext; no option selects a path.
///
/// # Example
///
/// ```
/// use medsec_lwc::{Aes128, BlockCipher};
/// let aes = Aes128::new(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128(Path);

#[derive(Debug, Clone)]
enum Path {
    Ni(Aes128Ni),
    Portable(PortableAes128),
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        match Aes128Ni::new(key) {
            Some(ni) => Self(Path::Ni(ni)),
            None => Self(Path::Portable(PortableAes128::new(key))),
        }
    }
}

/// Feldhofer et al. serialized low-power AES core: ≈3 400 GE, 1 032
/// cycles per block — the standard RFID-class reference the paper's
/// implementation-size argument relies on. The same profile serves
/// both software paths: device energy is booked from it, not from host
/// time.
fn aes_hw_profile() -> HwProfile {
    HwProfile {
        gate_equivalents: 3_400,
        cycles_per_block: 1_032,
        block_bits: 128,
        source: "Feldhofer et al., CHES 2004 (serialized 8-bit datapath)",
    }
}

impl BlockCipher for Aes128 {
    const BLOCK_BYTES: usize = 16;
    const KEY_BYTES: usize = 16;
    const NAME: &'static str = "AES-128";

    fn encrypt_block(&self, block: &mut [u8]) {
        let block: &mut [u8; 16] = block.try_into().expect("AES block is 16 bytes");
        match &self.0 {
            Path::Ni(ni) => ni.encrypt(block),
            Path::Portable(soft) => soft.encrypt(block),
        }
    }

    fn hw_profile() -> HwProfile {
        aes_hw_profile()
    }
}

/// AES-128 on the portable path: the bitsliced, table-free cipher every
/// host without AES-NI runs behind [`Aes128`]. Public so tests and
/// benches can pin and time it on any host.
#[derive(Debug, Clone)]
pub struct PortableAes128 {
    /// The bitsliced round keys, two words per round: bits 4k..4k+3 of
    /// a plane word all carry the same key bit (the four block lanes),
    /// so one representative bit per nibble is kept and
    /// [`add_round_key`] spreads it back.
    sk: [u64; 2 * (ROUNDS + 1)],
}

/// Round constants of the key schedule, as little-endian words (RC\[j\]
/// in the word's first byte).
const RCON: [u32; ROUNDS] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

// lint: ct-begin — everything below runs on key or state bits:
// straight-line word logic, constant indices, iterators; no table, no
// branch, no secret-dependent index.

/// The Boyar–Peralta S-box circuit ("A new combinational logic
/// minimization technique with applications to cryptology", 2009) on
/// bitsliced words, q\[b\] holding bit b of every byte; x0 is the most
/// significant bit, as in the paper.
fn sub_bytes(q: &mut [u64; 8]) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear middle: inversion in GF(2^4)^2.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation, the affine constant 0x63 folded in
    // as the four complements.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// Exchanges the `ch` bits of `x` with the `cl` bits of `y`, `s` apart.
#[inline(always)]
fn swap_bits(x: &mut u64, y: &mut u64, cl: u64, s: u32) {
    let (a, b) = (*x, *y);
    *x = (a & cl) | ((b & cl) << s);
    *y = ((a >> s) & cl) | (b & !cl);
}

/// The transpose between the interleaved block words and the bitsliced
/// planes; it is its own inverse.
fn ortho(q: &mut [u64; 8]) {
    let [q0, q1, q2, q3, q4, q5, q6, q7] = q;
    const C2: u64 = 0x5555_5555_5555_5555;
    const C4: u64 = 0x3333_3333_3333_3333;
    const C8: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    swap_bits(q0, q1, C2, 1);
    swap_bits(q2, q3, C2, 1);
    swap_bits(q4, q5, C2, 1);
    swap_bits(q6, q7, C2, 1);
    swap_bits(q0, q2, C4, 2);
    swap_bits(q1, q3, C4, 2);
    swap_bits(q4, q6, C4, 2);
    swap_bits(q5, q7, C4, 2);
    swap_bits(q0, q4, C8, 4);
    swap_bits(q1, q5, C8, 4);
    swap_bits(q2, q6, C8, 4);
    swap_bits(q3, q7, C8, 4);
}

/// Spreads a block's four columns (little-endian words) into the two
/// words that [`ortho`] turns into planes: columns 0 and 2 go to the
/// first, 1 and 3 to the second, row r's byte at bits 16r (and 16r + 8
/// for the second column of the pair).
fn interleave_in(block: &[u8; 16]) -> (u64, u64) {
    let mut w = [0u64; 4];
    for (x, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        let x16 = u64::from(u32::from_le_bytes(bytes.try_into().expect("4 bytes")));
        let x8 = (x16 | (x16 << 16)) & 0x0000_ffff_0000_ffff;
        *x = (x8 | (x8 << 8)) & 0x00ff_00ff_00ff_00ff;
    }
    let [x0, x1, x2, x3] = w;
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// The inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64, block: &mut [u8; 16]) {
    let w = [q0, q1, q0 >> 8, q1 >> 8];
    for (x, bytes) in w.iter().zip(block.chunks_exact_mut(4)) {
        let x8 = x & 0x00ff_00ff_00ff_00ff;
        let x16 = (x8 | (x8 >> 8)) & 0x0000_ffff_0000_ffff;
        bytes.copy_from_slice(&((x16 | (x16 >> 16)) as u32).to_le_bytes());
    }
}

/// XORs one compressed round key (two words) into the planes,
/// expanding each representative bit back over its nibble.
fn add_round_key(q: &mut [u64; 8], sk: &[u64]) {
    for (planes, &c) in q.chunks_exact_mut(4).zip(sk) {
        let parts = [
            c & 0x1111_1111_1111_1111,
            (c & 0x2222_2222_2222_2222) >> 1,
            (c & 0x4444_4444_4444_4444) >> 2,
            (c & 0x8888_8888_8888_8888) >> 3,
        ];
        for (p, x) in planes.iter_mut().zip(parts) {
            *p ^= (x << 4).wrapping_sub(x);
        }
    }
}

/// ShiftRows: row r of each block lane rotates by r columns.
fn shift_rows(q: &mut [u64; 8]) {
    for x in q.iter_mut() {
        *x = (*x & 0x0000_0000_0000_ffff)
            | ((*x & 0x0000_0000_fff0_0000) >> 4)
            | ((*x & 0x0000_0000_000f_0000) << 12)
            | ((*x & 0x0000_ff00_0000_0000) >> 8)
            | ((*x & 0x0000_00ff_0000_0000) << 8)
            | ((*x & 0xf000_0000_0000_0000) >> 12)
            | ((*x & 0x0fff_0000_0000_0000) << 4);
    }
}

/// MixColumns on the planes: `r` is each plane with its rows rotated by
/// one, so `q ^ r` is a0 ^ a1, whose doubling (`xtime`) is a shift
/// across planes with the 0x1b reduction folded into planes 1, 3 and 4.
fn mix_columns(q: &mut [u64; 8]) {
    let [q0, q1, q2, q3, q4, q5, q6, q7] = *q;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = q.map(|x| x.rotate_right(16));
    *q = [
        q7 ^ r7 ^ r0 ^ (q0 ^ r0).rotate_right(32),
        q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ (q1 ^ r1).rotate_right(32),
        q1 ^ r1 ^ r2 ^ (q2 ^ r2).rotate_right(32),
        q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ (q3 ^ r3).rotate_right(32),
        q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ (q4 ^ r4).rotate_right(32),
        q4 ^ r4 ^ r5 ^ (q5 ^ r5).rotate_right(32),
        q5 ^ r5 ^ r6 ^ (q6 ^ r6).rotate_right(32),
        q6 ^ r6 ^ r7 ^ (q7 ^ r7).rotate_right(32),
    ];
}

/// SubWord of the key schedule: the S-box circuit on the four bytes of
/// one little-endian word. Plane b is bit b of every byte, left in
/// place at bit 8j for byte j, so no transpose is needed.
fn sub_word(x: u32) -> u32 {
    let mut q = [0u64; 8];
    for (b, plane) in q.iter_mut().enumerate() {
        *plane = (u64::from(x) >> b) & 0x0101_0101;
    }
    sub_bytes(&mut q);
    let mut out = 0;
    for (b, plane) in q.iter().enumerate() {
        out |= (plane & 0x0101_0101) << b;
    }
    out as u32
}

/// FIPS-197 key expansion, SubWord on the S-box circuit.
pub(crate) fn expand_key(key: &[u8; 16]) -> RoundKeys {
    let mut w = [0u32; 4];
    for (x, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
        *x = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let mut rk = [*key; ROUNDS + 1];
    for (round, rcon) in rk[1..].iter_mut().zip(RCON) {
        w[0] ^= sub_word(w[3].rotate_right(8)) ^ rcon;
        w[1] ^= w[0];
        w[2] ^= w[1];
        w[3] ^= w[2];
        for (bytes, x) in round.chunks_exact_mut(4).zip(w) {
            bytes.copy_from_slice(&x.to_le_bytes());
        }
    }
    rk
}

impl PortableAes128 {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::from_round_keys(&expand_key(key))
    }

    /// Bitslices a byte-order schedule. In the plane words, nibble
    /// 4r + c holds the four lanes of the byte at row r, column c; a
    /// round key is the same in every lane, so its compressed form
    /// keeps that byte's low nibble at nibble 4r + c of the first word
    /// and its high nibble there in the second.
    fn from_round_keys(rk: &RoundKeys) -> Self {
        let mut sk = [0u64; 2 * (ROUNDS + 1)];
        for (pair, round) in sk.chunks_exact_mut(2).zip(rk) {
            let (mut lo, mut hi) = (0, 0);
            for (c, column) in round.chunks_exact(4).enumerate() {
                // Row r's byte of the column to bits 16r..16r+7.
                let x = u64::from(u32::from_le_bytes(column.try_into().expect("4 bytes")));
                let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
                let x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
                lo |= (x & 0x000f_000f_000f_000f) << (4 * c);
                hi |= ((x >> 4) & 0x000f_000f_000f_000f) << (4 * c);
            }
            pair.copy_from_slice(&[lo, hi]);
        }
        Self { sk }
    }

    /// Encrypts one block in place: nine full rounds, then a last round
    /// without MixColumns.
    pub(crate) fn encrypt(&self, block: &mut [u8; 16]) {
        let (first, rest) = self.sk.split_at(2);
        let (middle, last) = rest.split_at(2 * (ROUNDS - 1));
        let (lo, hi) = interleave_in(block);
        let mut q = [lo, 0, 0, 0, hi, 0, 0, 0];
        ortho(&mut q);
        add_round_key(&mut q, first);
        for round in middle.chunks_exact(2) {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, round);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, last);
        ortho(&mut q);
        interleave_out(q[0], q[4], block);
    }
}

// lint: ct-end

impl BlockCipher for PortableAes128 {
    const BLOCK_BYTES: usize = 16;
    const KEY_BYTES: usize = 16;
    const NAME: &'static str = "AES-128";

    fn encrypt_block(&self, block: &mut [u8]) {
        self.encrypt(block.try_into().expect("AES block is 16 bytes"));
    }

    fn hw_profile() -> HwProfile {
        aes_hw_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GF(2^8) multiplication modulo x^8 + x^4 + x^3 + x + 1 (0x11b),
    /// bit-serial: test oracle only.
    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        p
    }

    /// GF(2^8) inverse as a^254; 0 maps to 0.
    fn gf_inv(a: u8) -> u8 {
        let (mut acc, mut sq, mut e) = (1u8, a, 254u8);
        while e > 0 {
            if e & 1 != 0 {
                acc = gf_mul(acc, sq);
            }
            sq = gf_mul(sq, sq);
            e >>= 1;
        }
        acc
    }

    /// The S-box from its algebraic definition: inversion, then the
    /// affine map.
    fn sbox_entry(a: u8) -> u8 {
        let b = gf_inv(a);
        b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
    }

    /// The portable S-box circuit equals the algebraic S-box on all 256
    /// inputs, four bytes per `sub_word`.
    #[test]
    fn sbox_circuit_matches_algebraic_definition() {
        for base in (0u32..256).step_by(4) {
            let bytes = [base, base + 1, base + 2, base + 3].map(|b| b as u8);
            let got = sub_word(u32::from_le_bytes(bytes)).to_le_bytes();
            assert_eq!(got, bytes.map(sbox_entry), "inputs {bytes:02x?}");
        }
    }

    #[test]
    fn sbox_known_entries() {
        // Canonical spot values from FIPS-197.
        assert_eq!(sbox_entry(0x00), 0x63);
        assert_eq!(sbox_entry(0x01), 0x7c);
        assert_eq!(sbox_entry(0x53), 0xed);
        assert_eq!(sbox_entry(0xff), 0x16);
    }

    const FIPS197_B_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    type Encrypt = fn(&[u8; 16], &mut [u8; 16]);

    /// Both paths: the portable cipher and the dispatching one (AES-NI
    /// where CPUID reports it).
    const PATHS: [Encrypt; 2] = [
        |key, block| PortableAes128::new(key).encrypt(block),
        |key, block| Aes128::new(key).encrypt_block(block),
    ];

    #[test]
    fn fips197_appendix_b_vector() {
        for encrypt in PATHS {
            let mut block: [u8; 16] = [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ];
            encrypt(&FIPS197_B_KEY, &mut block);
            assert_eq!(
                block,
                [
                    0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                    0x6a, 0x0b, 0x32
                ]
            );
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        for encrypt in PATHS {
            let mut block: [u8; 16] = core::array::from_fn(|i| (0x11 * i) as u8);
            encrypt(&key, &mut block);
            assert_eq!(
                block,
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a
                ]
            );
        }
    }

    /// FIPS-197 appendix A.1: the schedule is in FIPS-197 byte order
    /// (round key 0 is the key, round key 10 as published), the form
    /// the AES-NI schedule is compared against byte for byte.
    #[test]
    fn key_expansion_appendix_a1() {
        let rk = expand_key(&FIPS197_B_KEY);
        assert_eq!(rk[0], FIPS197_B_KEY);
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }
}
