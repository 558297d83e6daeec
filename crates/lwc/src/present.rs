//! PRESENT — the ISO-standardized ultra-lightweight block cipher
//! (Bogdanov et al., CHES 2007).
//!
//! Included as the canonical "lightweight symmetric" design point in the
//! implementation-size table (E6): at ≈1.6 kGE it is an order of
//! magnitude smaller than the ECC core, which is exactly the trade-off
//! the paper's protocol level weighs against the key-distribution and
//! privacy limitations of symmetric-only protocols.

use crate::cipher::{BlockCipher, HwProfile};

const SBOX: [u8; 16] = [
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
];

const fn build_inv_sbox() -> [u8; 16] {
    let mut inv = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}
const INV_SBOX: [u8; 16] = build_inv_sbox();

const ROUNDS: usize = 31;

fn sbox_layer(state: u64, table: &[u8; 16]) -> u64 {
    let mut out = 0u64;
    for i in 0..16 {
        let nib = (state >> (4 * i)) & 0xf;
        out |= (table[nib as usize] as u64) << (4 * i);
    }
    out
}

/// Bit permutation: bit i moves to position (16·i) mod 63, bit 63 fixed.
fn p_layer(state: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..63 {
        out |= ((state >> i) & 1) << ((16 * i) % 63);
    }
    out | (state & (1 << 63))
}

fn inv_p_layer(state: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..63 {
        out |= ((state >> ((16 * i) % 63)) & 1) << i;
    }
    out | (state & (1 << 63))
}

fn rounds_common(mut state: u64, keys: &[u64; ROUNDS + 1]) -> u64 {
    for &rk in keys.iter().take(ROUNDS) {
        state ^= rk;
        state = sbox_layer(state, &SBOX);
        state = p_layer(state);
    }
    state ^ keys[ROUNDS]
}

fn rounds_common_dec(mut state: u64, keys: &[u64; ROUNDS + 1]) -> u64 {
    state ^= keys[ROUNDS];
    for &rk in keys.iter().take(ROUNDS).rev() {
        state = inv_p_layer(state);
        state = sbox_layer(state, &INV_SBOX);
        state ^= rk;
    }
    state
}

/// PRESENT with an 80-bit key.
///
/// # Example
///
/// ```
/// use medsec_lwc::{BlockCipher, Present80};
/// let c = Present80::new(&[0u8; 10]);
/// let mut block = [0u8; 8];
/// c.encrypt_block(&mut block);
/// // Published test vector for the all-zero key and plaintext.
/// assert_eq!(block, [0x55, 0x79, 0xC1, 0x38, 0x7B, 0x22, 0x84, 0x45]);
/// ```
#[derive(Debug, Clone)]
pub struct Present80 {
    round_keys: [u64; ROUNDS + 1],
}

impl Present80 {
    /// Expand an 80-bit (10-byte, big-endian) key.
    pub fn new(key: &[u8; 10]) -> Self {
        // Key register: 80 bits, key[0] is the most significant byte.
        let mut hi = 0u64; // bits 79..16
        for &b in &key[..8] {
            hi = (hi << 8) | b as u64;
        }
        let mut lo = ((key[8] as u64) << 8) | key[9] as u64; // bits 15..0
        let mut round_keys = [0u64; ROUNDS + 1];
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = hi; // round key = bits 79..16
                      // Rotate the 80-bit register left by 61.
            let full_hi = hi;
            let full_lo = lo;
            // (hi:64 bits, lo:16 bits) => value = hi·2^16 + lo.
            // rot61(v) = (v << 61 | v >> 19) mod 2^80.
            let v_hi = (full_hi << 61) | (full_lo << 45) | (full_hi >> 19);
            let v_lo = (full_hi >> 3) & 0xffff;
            hi = v_hi;
            lo = v_lo;
            // S-box on the top 4 bits (79..76).
            let top = (hi >> 60) & 0xf;
            hi = (hi & !(0xf << 60)) | ((SBOX[top as usize] as u64) << 60);
            // XOR the round counter into bits 19..15.
            let rc = (i + 1) as u64;
            hi ^= rc >> 1; // bits 19..16 live in the low bits of `hi`
            lo ^= (rc & 1) << 15; // bit 15 lives at the top of `lo`
        }
        Self { round_keys }
    }

    /// Decrypt one block in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != 8`.
    pub fn decrypt_block(&self, block: &mut [u8]) {
        let state = u64::from_be_bytes(block.try_into().expect("PRESENT block is 8 bytes"));
        block.copy_from_slice(&rounds_common_dec(state, &self.round_keys).to_be_bytes());
    }
}

impl BlockCipher for Present80 {
    const BLOCK_BYTES: usize = 8;
    const KEY_BYTES: usize = 10;
    const NAME: &'static str = "PRESENT-80";

    fn encrypt_block(&self, block: &mut [u8]) {
        let state = u64::from_be_bytes(block.try_into().expect("PRESENT block is 8 bytes"));
        block.copy_from_slice(&rounds_common(state, &self.round_keys).to_be_bytes());
    }

    /// Round-based PRESENT-80: 1 570 GE, one round per cycle.
    fn hw_profile() -> HwProfile {
        HwProfile {
            gate_equivalents: 1_570,
            cycles_per_block: 32,
            block_bits: 64,
            source: "Bogdanov et al., CHES 2007 (round-based)",
        }
    }
}

/// PRESENT with a 128-bit key.
#[derive(Debug, Clone)]
pub struct Present128 {
    round_keys: [u64; ROUNDS + 1],
}

impl Present128 {
    /// Expand a 128-bit (16-byte, big-endian) key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut hi = u64::from_be_bytes(key[..8].try_into().expect("8 bytes"));
        let mut lo = u64::from_be_bytes(key[8..].try_into().expect("8 bytes"));
        let mut round_keys = [0u64; ROUNDS + 1];
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = hi;
            // Rotate the 128-bit register left by 61.
            let new_hi = (hi << 61) | (lo >> 3);
            let new_lo = (lo << 61) | (hi >> 3);
            hi = new_hi;
            lo = new_lo;
            // S-boxes on the top 8 bits (127..120).
            let t1 = (hi >> 60) & 0xf;
            let t2 = (hi >> 56) & 0xf;
            hi = (hi & !(0xff << 56))
                | ((SBOX[t1 as usize] as u64) << 60)
                | ((SBOX[t2 as usize] as u64) << 56);
            // XOR the round counter into bits 66..62.
            let rc = (i + 1) as u64;
            hi ^= rc >> 2; // bits 66..64
            lo ^= (rc & 0b11) << 62; // bits 63..62
        }
        Self { round_keys }
    }

    /// Decrypt one block in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != 8`.
    pub fn decrypt_block(&self, block: &mut [u8]) {
        let state = u64::from_be_bytes(block.try_into().expect("PRESENT block is 8 bytes"));
        block.copy_from_slice(&rounds_common_dec(state, &self.round_keys).to_be_bytes());
    }
}

impl BlockCipher for Present128 {
    const BLOCK_BYTES: usize = 8;
    const KEY_BYTES: usize = 16;
    const NAME: &'static str = "PRESENT-128";

    fn encrypt_block(&self, block: &mut [u8]) {
        let state = u64::from_be_bytes(block.try_into().expect("PRESENT block is 8 bytes"));
        block.copy_from_slice(&rounds_common(state, &self.round_keys).to_be_bytes());
    }

    /// Round-based PRESENT-128: ≈1 886 GE.
    fn hw_profile() -> HwProfile {
        HwProfile {
            gate_equivalents: 1_886,
            cycles_per_block: 32,
            block_bits: 64,
            source: "Bogdanov et al., CHES 2007 (round-based)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four published test vectors from the CHES 2007 paper.
    #[test]
    fn present80_known_answers() {
        let cases: [([u8; 10], [u8; 8], [u8; 8]); 4] = [
            (
                [0; 10],
                [0; 8],
                [0x55, 0x79, 0xC1, 0x38, 0x7B, 0x22, 0x84, 0x45],
            ),
            (
                [0xff; 10],
                [0; 8],
                [0xE7, 0x2C, 0x46, 0xC0, 0xF5, 0x94, 0x50, 0x49],
            ),
            (
                [0; 10],
                [0xff; 8],
                [0xA1, 0x12, 0xFF, 0xC7, 0x2F, 0x68, 0x41, 0x7B],
            ),
            (
                [0xff; 10],
                [0xff; 8],
                [0x33, 0x33, 0xDC, 0xD3, 0x21, 0x32, 0x10, 0xD2],
            ),
        ];
        for (key, pt, ct) in cases {
            let c = Present80::new(&key);
            let mut block = pt;
            c.encrypt_block(&mut block);
            assert_eq!(block, ct, "encrypt failed for key {key:02x?}");
            c.decrypt_block(&mut block);
            assert_eq!(block, pt, "decrypt failed for key {key:02x?}");
        }
    }

    #[test]
    fn present128_round_trips() {
        let c = Present128::new(b"0123456789abcdef");
        for seed in 0u8..8 {
            let mut block: [u8; 8] =
                core::array::from_fn(|i| seed.wrapping_add((i as u8).wrapping_mul(37)));
            let orig = block;
            c.encrypt_block(&mut block);
            assert_ne!(block, orig);
            c.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn p_layer_inverts() {
        for v in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX, 1 << 63] {
            assert_eq!(inv_p_layer(p_layer(v)), v);
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 16];
        for &v in &SBOX {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }
}
