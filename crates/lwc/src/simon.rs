//! SIMON — the NSA lightweight Feistel family (Beaulieu et al., 2013),
//! contemporaneous with the paper and the usual hardware-minimal design
//! point below PRESENT in the implementation-size table (E6).
//!
//! Implemented variants: SIMON32/64 (16-bit words) and SIMON64/128
//! (32-bit words), both with the published known-answer vectors.

use crate::cipher::{BlockCipher, HwProfile};

/// The five 62-bit constant sequences from the SIMON specification.
const Z: [&[u8; 62]; 5] = [
    b"11111010001001010110000111001101111101000100101011000011100110",
    b"10001110111110010011000010110101000111011111001001100001011010",
    b"10101111011100000011010010011000101000010001111110010110110011",
    b"11011011101011000110010111100000010010001010011100110100001111",
    b"11010001111001101011011000100000010111000011001010010011101111",
];

fn z_bit(seq: usize, i: usize) -> u64 {
    (Z[seq][i % 62] - b'0') as u64
}

macro_rules! simon_impl {
    ($name:ident, $word:ty, $doc:literal,
     key_words: $m:expr, rounds: $t:expr, zseq: $zi:expr,
     block_bytes: $bb:expr, key_bytes: $kb:expr, cname: $cname:literal,
     ge: $ge:expr, cyc: $cyc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            round_keys: [$word; $t],
        }

        impl $name {
            /// Expand the key (big-endian byte order, most significant
            /// key word first, per the SIMON specification).
            pub fn new(key: &[u8; $kb]) -> Self {
                const W: usize = core::mem::size_of::<$word>();
                let mut k = [0 as $word; $t];
                // key[0..W] is the *most significant* word k[m-1].
                for i in 0..$m {
                    let off = ($m - 1 - i) * W;
                    let mut w: $word = 0;
                    for j in 0..W {
                        w = (w << 8) | key[off + j] as $word;
                    }
                    k[i] = w;
                }
                for i in $m..$t {
                    let mut tmp = k[i - 1].rotate_right(3);
                    if $m == 4 {
                        tmp ^= k[i - 3];
                    }
                    tmp ^= tmp.rotate_right(1);
                    k[i] = !k[i - $m] ^ tmp ^ (z_bit($zi, i - $m) as $word) ^ 3;
                }
                Self { round_keys: k }
            }

            #[inline]
            fn f(x: $word) -> $word {
                (x.rotate_left(1) & x.rotate_left(8)) ^ x.rotate_left(2)
            }

            /// Decrypt one block in place.
            ///
            /// # Panics
            ///
            /// Panics if the block has the wrong length.
            pub fn decrypt_block(&self, block: &mut [u8]) {
                const W: usize = core::mem::size_of::<$word>();
                assert_eq!(block.len(), $bb, "wrong block size");
                let mut x: $word = 0;
                let mut y: $word = 0;
                for j in 0..W {
                    x = (x << 8) | block[j] as $word;
                    y = (y << 8) | block[W + j] as $word;
                }
                for i in (0..$t).rev() {
                    let tmp = y;
                    y = x ^ Self::f(y) ^ self.round_keys[i];
                    x = tmp;
                }
                block[..W].copy_from_slice(&x.to_be_bytes());
                block[W..].copy_from_slice(&y.to_be_bytes());
            }
        }

        impl BlockCipher for $name {
            const BLOCK_BYTES: usize = $bb;
            const KEY_BYTES: usize = $kb;
            const NAME: &'static str = $cname;

            fn encrypt_block(&self, block: &mut [u8]) {
                const W: usize = core::mem::size_of::<$word>();
                assert_eq!(block.len(), $bb, "wrong block size");
                let mut x: $word = 0; // left / most significant word
                let mut y: $word = 0;
                for j in 0..W {
                    x = (x << 8) | block[j] as $word;
                    y = (y << 8) | block[W + j] as $word;
                }
                for i in 0..$t {
                    let tmp = x;
                    x = y ^ Self::f(x) ^ self.round_keys[i];
                    y = tmp;
                }
                block[..W].copy_from_slice(&x.to_be_bytes());
                block[W..].copy_from_slice(&y.to_be_bytes());
            }

            fn hw_profile() -> HwProfile {
                HwProfile {
                    gate_equivalents: $ge,
                    cycles_per_block: $cyc,
                    block_bits: ($bb * 8) as u32,
                    source: "Beaulieu et al., 2013 (round-serial ASIC estimate)",
                }
            }
        }
    };
}

simon_impl!(
    Simon32,
    u16,
    "SIMON32/64: 32-bit blocks, 64-bit key, 32 rounds, sequence z0.",
    key_words: 4,
    rounds: 32,
    zseq: 0,
    block_bytes: 4,
    key_bytes: 8,
    cname: "SIMON32/64",
    ge: 523,
    cyc: 32
);

simon_impl!(
    Simon64,
    u32,
    "SIMON64/128: 64-bit blocks, 128-bit key, 44 rounds, sequence z3.",
    key_words: 4,
    rounds: 44,
    zseq: 3,
    block_bytes: 8,
    key_bytes: 16,
    cname: "SIMON64/128",
    ge: 1_000,
    cyc: 44
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simon32_64_known_answer() {
        // Specification vector: key 1918 1110 0908 0100, pt 6565 6877,
        // ct c69b e9bb.
        let key: [u8; 8] = [0x19, 0x18, 0x11, 0x10, 0x09, 0x08, 0x01, 0x00];
        let c = Simon32::new(&key);
        let mut block: [u8; 4] = [0x65, 0x65, 0x68, 0x77];
        c.encrypt_block(&mut block);
        assert_eq!(block, [0xc6, 0x9b, 0xe9, 0xbb]);
        c.decrypt_block(&mut block);
        assert_eq!(block, [0x65, 0x65, 0x68, 0x77]);
    }

    #[test]
    fn simon64_128_known_answer() {
        // Specification vector: key 1b1a1918 13121110 0b0a0908 03020100,
        // pt 656b696c 20646e75, ct 44c8fc20 b9dfa07a.
        let key: [u8; 16] = [
            0x1b, 0x1a, 0x19, 0x18, 0x13, 0x12, 0x11, 0x10, 0x0b, 0x0a, 0x09, 0x08, 0x03, 0x02,
            0x01, 0x00,
        ];
        let c = Simon64::new(&key);
        let mut block: [u8; 8] = [0x65, 0x6b, 0x69, 0x6c, 0x20, 0x64, 0x6e, 0x75];
        c.encrypt_block(&mut block);
        assert_eq!(block, [0x44, 0xc8, 0xfc, 0x20, 0xb9, 0xdf, 0xa0, 0x7a]);
        c.decrypt_block(&mut block);
        assert_eq!(block, [0x65, 0x6b, 0x69, 0x6c, 0x20, 0x64, 0x6e, 0x75]);
    }

    #[test]
    fn round_trip_random_blocks() {
        let c = Simon64::new(b"0123456789abcdef");
        for seed in 0u8..8 {
            let mut block: [u8; 8] = core::array::from_fn(|i| seed ^ (i as u8).wrapping_mul(73));
            let orig = block;
            c.encrypt_block(&mut block);
            assert_ne!(block, orig);
            c.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn z_sequences_are_62_bits_of_01() {
        for z in Z {
            assert_eq!(z.len(), 62);
            assert!(z.iter().all(|&b| b == b'0' || b == b'1'));
        }
    }
}
