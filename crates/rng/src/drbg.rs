//! AES-128-CTR deterministic random bit generator (SP 800-90A shape).
//!
//! The tag's protocol nonces (`r ∈ Z*_ℓ` in Fig. 2) and the ladder's
//! random projective Z both come from this DRBG in the end-to-end
//! examples: raw TRNG bits are conditioned into a (key, V) state, and
//! output blocks are AES encryptions of an incrementing counter.

use medsec_lwc::{Aes128, BlockCipher};

use crate::trng::RingOscillatorTrng;

/// AES-128-CTR DRBG.
///
/// # Example
///
/// ```
/// use medsec_rng::CtrDrbg;
/// let mut d1 = CtrDrbg::from_seed([7u8; 32]);
/// let mut d2 = CtrDrbg::from_seed([7u8; 32]);
/// assert_eq!(d1.next_u64(), d2.next_u64()); // deterministic from seed
/// ```
#[derive(Debug, Clone)]
pub struct CtrDrbg {
    key: [u8; 16],
    v: [u8; 16],
    reseed_counter: u64,
}

impl CtrDrbg {
    /// Maximum generate calls between reseeds (SP 800-90A allows 2^48;
    /// kept small here so tests can exercise the reseed path).
    pub const RESEED_INTERVAL: u64 = 1 << 20;

    /// Instantiate from 32 bytes of seed material (16 key + 16 V).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut drbg = Self {
            key: [0u8; 16],
            v: [0u8; 16],
            reseed_counter: 0,
        };
        drbg.update(&seed);
        drbg
    }

    /// Instantiate by drawing conditioned entropy from a TRNG model.
    pub fn from_trng(trng: &mut RingOscillatorTrng) -> Self {
        let mut seed = [0u8; 32];
        trng.fill_raw(&mut seed);
        // Condition the raw bits through the DRBG update itself (the
        // derivation function): even biased raw input yields a uniform
        // state because AES acts as the extractor.
        Self::from_seed(seed)
    }

    /// Mix fresh material into the state (reseed / update function).
    pub fn update(&mut self, provided: &[u8; 32]) {
        let aes = Aes128::new(&self.key);
        let mut temp = [0u8; 32];
        for chunk in temp.chunks_mut(16) {
            self.increment_v();
            chunk.copy_from_slice(&self.v);
            aes.encrypt_block(chunk);
        }
        for (t, p) in temp.iter_mut().zip(provided) {
            *t ^= p;
        }
        self.key.copy_from_slice(&temp[..16]);
        self.v.copy_from_slice(&temp[16..]);
        self.reseed_counter = 0;
    }

    fn increment_v(&mut self) {
        for byte in self.v.iter_mut().rev() {
            let (nb, carry) = byte.overflowing_add(1);
            *byte = nb;
            if !carry {
                break;
            }
        }
    }

    /// Fill `out` with pseudorandom bytes.
    ///
    /// # Panics
    ///
    /// Panics if the reseed interval is exhausted (callers are expected
    /// to [`update`](Self::update) with fresh TRNG output periodically).
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        assert!(
            self.reseed_counter < Self::RESEED_INTERVAL,
            "DRBG requires reseed"
        );
        let aes = Aes128::new(&self.key);
        for chunk in out.chunks_mut(16) {
            self.increment_v();
            let mut block = self.v;
            aes.encrypt_block(&mut block);
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        // Backtracking resistance: re-key after every generate call.
        let aes = Aes128::new(&self.key);
        let mut temp = [0u8; 32];
        for chunk in temp.chunks_mut(16) {
            self.increment_v();
            chunk.copy_from_slice(&self.v);
            aes.encrypt_block(chunk);
        }
        self.key.copy_from_slice(&temp[..16]);
        self.v.copy_from_slice(&temp[16..]);
        self.reseed_counter += 1;
    }

    /// Next 64 pseudorandom bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Closure adapter for APIs that take `FnMut() -> u64`.
    pub fn as_fn(&mut self) -> impl FnMut() -> u64 + '_ {
        move || self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trng::TrngConfig;

    #[test]
    fn deterministic_from_seed() {
        let mut a = CtrDrbg::from_seed([1u8; 32]);
        let mut b = CtrDrbg::from_seed([1u8; 32]);
        let mut buf_a = [0u8; 64];
        let mut buf_b = [0u8; 64];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CtrDrbg::from_seed([1u8; 32]);
        let mut b = CtrDrbg::from_seed([2u8; 32]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn consecutive_outputs_differ() {
        let mut a = CtrDrbg::from_seed([3u8; 32]);
        let x = a.next_u64();
        let y = a.next_u64();
        assert_ne!(x, y);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers, recorded from the table-based AES this DRBG ran
    /// on before the constant-time AES replaced it: the first 64 output
    /// bytes from a fixed seed, then 64 more after one `update`. Every
    /// seeded experiment and device draw depends on this stream.
    #[test]
    fn known_answer_from_fixed_seed() {
        let mut d = CtrDrbg::from_seed([7u8; 32]);
        let mut out = [0u8; 64];
        d.fill_bytes(&mut out);
        assert_eq!(
            hex(&out),
            "d2104081cb57ed70ad8d3c70c1697afcbe040582383f90af6f9a15b123785e12\
             adbab219d560df596dcfc4b9a5cf94675977a5e8638c7c2a230ed7daaac25078"
        );
        d.update(&[9u8; 32]);
        d.fill_bytes(&mut out);
        assert_eq!(
            hex(&out),
            "d0391fcfc17d3a49144e671fc1af7d4a7865e83c0f0470d2746c8d161d8ee4eb\
             b6360e24f7cd4bd12ce38e6da6ddf5b780545d985a1f8f855f59ccb88d4982b1"
        );
    }

    #[test]
    fn update_changes_stream() {
        let mut a = CtrDrbg::from_seed([4u8; 32]);
        let mut b = CtrDrbg::from_seed([4u8; 32]);
        b.update(&[9u8; 32]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn trng_seeded_instances_differ_by_seed() {
        let mut t1 = RingOscillatorTrng::new(TrngConfig::default(), 1);
        let mut t2 = RingOscillatorTrng::new(TrngConfig::default(), 2);
        let mut d1 = CtrDrbg::from_trng(&mut t1);
        let mut d2 = CtrDrbg::from_trng(&mut t2);
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn output_is_statistically_balanced() {
        let mut d = CtrDrbg::from_seed([5u8; 32]);
        let mut buf = [0u8; 8192];
        d.fill_bytes(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total = 8192 * 8;
        assert!((ones as i64 - total / 2).abs() < 800, "ones {ones}");
    }
}
