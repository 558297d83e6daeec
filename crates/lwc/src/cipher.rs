//! The block-cipher abstraction and hardware cost profiles.
//!
//! Profiles carry the gate-equivalent and cycle counts the paper's
//! protocol-level argument is built on: "protocol designers tend to
//! believe that hash functions are very cheap in hardware … The smallest
//! SHA-1 implementation uses 5527 gates, while an ECC core uses about
//! 12k gates" (§4). Each implementation cites its literature source.

use core::fmt;

/// Area/latency profile of a serialized low-power hardware realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwProfile {
    /// Area in gate equivalents (2-input NAND).
    pub gate_equivalents: u32,
    /// Clock cycles to process one block.
    pub cycles_per_block: u32,
    /// Block size in bits (for energy-per-bit comparisons).
    pub block_bits: u32,
    /// Literature source for the numbers.
    pub source: &'static str,
}

impl HwProfile {
    /// Cycles needed to process `bits` of data, rounded up to whole
    /// blocks.
    pub fn cycles_for_bits(&self, bits: u64) -> u64 {
        let blocks = bits.div_ceil(self.block_bits as u64).max(1);
        blocks * self.cycles_per_block as u64
    }
}

impl fmt::Display for HwProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} GE, {} cycles/block ({})",
            self.gate_equivalents, self.cycles_per_block, self.source
        )
    }
}

/// A block cipher with an in-place block interface.
///
/// All implementations in this crate are bit-exact software models of the
/// ciphers; their [`HwProfile`]s describe the *hardware* realizations the
/// energy comparisons assume. The trait only encrypts: CTR, CMAC and the
/// DRBG use the forward direction alone. PRESENT and SIMON keep an
/// inherent `decrypt_block`.
pub trait BlockCipher {
    /// Block size in bytes.
    const BLOCK_BYTES: usize;
    /// Key size in bytes.
    const KEY_BYTES: usize;
    /// Cipher name.
    const NAME: &'static str;

    /// Encrypt one block in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != Self::BLOCK_BYTES`.
    fn encrypt_block(&self, block: &mut [u8]);

    /// Hardware cost profile of a low-power serialized implementation.
    fn hw_profile() -> HwProfile;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_for_bits_rounds_up() {
        let p = HwProfile {
            gate_equivalents: 1000,
            cycles_per_block: 32,
            block_bits: 64,
            source: "test",
        };
        assert_eq!(p.cycles_for_bits(64), 32);
        assert_eq!(p.cycles_for_bits(65), 64);
        assert_eq!(p.cycles_for_bits(1), 32);
        assert_eq!(p.cycles_for_bits(0), 32); // at least one block
    }

    #[test]
    fn display_mentions_source() {
        let p = HwProfile {
            gate_equivalents: 5527,
            cycles_per_block: 344,
            block_bits: 512,
            source: "O'Neill, RFIDSec 2008",
        };
        assert!(format!("{p}").contains("O'Neill"));
    }
}
