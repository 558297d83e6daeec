//! The hardware path: AES-128 on AES-NI and the SHA-256 compression
//! function on SHA-NI, for the x86-64 gateway.
//!
//! Each kernel is used where CPUID reports its extension — `aes` for
//! AES, `sha` (with SSSE3 and SSE4.1) for SHA-256 — and the portable
//! code runs elsewhere, as CPUID sets the tier the field kernels run on
//! (`medsec_gf2m::select_backend`). `std`'s feature detection runs
//! CPUID once per process and caches the answer. Both paths give bit-identical results, and
//! nothing but the CPU selects one: no option, variable or feature.
//!
//! The instructions take the same time whatever their operands, so
//! these kernels are constant-time as written: no table, no branch on
//! key, state or message. Other architectures (aarch64 included) take
//! the portable path; the ARMv8 crypto extensions are not used.

// The only unsafe code in this crate: calling the CPU-feature-gated
// kernels after CPUID has reported the feature.
#![allow(unsafe_code)]

use crate::aes::RoundKeys;

/// Whether CPUID reports AES-NI. Always `false` off x86-64.
pub(crate) fn aes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether CPUID reports the SHA extensions, with the SSSE3 and SSE4.1
/// shuffles the kernel also uses. Always `false` off x86-64.
pub(crate) fn sha_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// An AES-128 key schedule for the AES-NI kernel. A value exists only
/// where [`aes_available`] holds: [`Aes128Ni::new`] is the one
/// constructor, so holding one proves the instructions are there.
#[derive(Debug, Clone)]
pub(crate) struct Aes128Ni {
    rk: RoundKeys,
}

impl Aes128Ni {
    /// Expands `key` on AES-NI, or `None` where CPUID does not report it.
    pub(crate) fn new(key: &[u8; 16]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if aes_available() {
            // SAFETY: `aes_available()` just reported `aes`.
            let rk = unsafe { x86::expand_key(key) };
            return Some(Self { rk });
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
        None
    }

    /// The schedule, in FIPS-197 byte order.
    #[cfg(test)]
    pub(crate) fn round_keys(&self) -> &RoundKeys {
        &self.rk
    }

    /// Encrypts one block in place.
    pub(crate) fn encrypt(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `new` saw `aes_available()` report
        // `aes` in this process.
        unsafe {
            x86::encrypt(&self.rk, block)
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Aes128Ni exists off x86-64 ({block:?})");
    }
}

/// SHA-256 compression of whole 64-byte blocks on SHA-NI. The caller
/// picks this function only where [`sha_available`] holds; the assert
/// keeps it sound if one does not.
///
/// # Panics
///
/// Panics where CPUID does not report the SHA extensions, or if
/// `blocks` is not a whole number of blocks.
pub(crate) fn compress256(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(sha_available(), "SHA-NI kernel called without SHA-NI");
    assert_eq!(blocks.len() % 64, 0, "SHA-256 compresses whole blocks");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sha_available()` just reported `sha`, `ssse3` and
    // `sse4.1`.
    unsafe {
        x86::compress256(state, blocks)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = state;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
        _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
        _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    use crate::aes::RoundKeys;
    use crate::sha::SHA256_K;

    // lint: ct-begin — key, state and message words flow through
    // fixed instruction sequences: no branch, no lookup.

    /// One round of the key schedule: AESKEYGENASSIST supplies
    /// SubWord(RotWord(w3)) ^ RCON, the shifts the running XOR.
    ///
    /// # Safety
    /// The CPU must support `aes`.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn next_round_key<const RCON: i32>(k: __m128i) -> __m128i {
        let t = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(k));
        let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        _mm_xor_si128(k, t)
    }

    /// FIPS-197 key expansion on AES-NI.
    ///
    /// # Safety
    /// The CPU must support `aes`.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn expand_key(key: &[u8; 16]) -> RoundKeys {
        let k0 = _mm_loadu_si128(key.as_ptr().cast());
        let k1 = next_round_key::<0x01>(k0);
        let k2 = next_round_key::<0x02>(k1);
        let k3 = next_round_key::<0x04>(k2);
        let k4 = next_round_key::<0x08>(k3);
        let k5 = next_round_key::<0x10>(k4);
        let k6 = next_round_key::<0x20>(k5);
        let k7 = next_round_key::<0x40>(k6);
        let k8 = next_round_key::<0x80>(k7);
        let k9 = next_round_key::<0x1b>(k8);
        let k10 = next_round_key::<0x36>(k9);
        let mut rk = [[0u8; 16]; 11];
        for (out, k) in rk
            .iter_mut()
            .zip([k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10])
        {
            _mm_storeu_si128(out.as_mut_ptr().cast(), k);
        }
        rk
    }

    /// AES-128 encryption of one block on AES-NI.
    ///
    /// # Safety
    /// The CPU must support `aes`.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt(rk: &RoundKeys, block: &mut [u8; 16]) {
        let (first, rest) = rk.split_first().expect("11 round keys");
        let (last, middle) = rest.split_last().expect("10 round keys");
        let mut s = _mm_xor_si128(
            _mm_loadu_si128(block.as_ptr().cast()),
            _mm_loadu_si128(first.as_ptr().cast()),
        );
        for k in middle {
            s = _mm_aesenc_si128(s, _mm_loadu_si128(k.as_ptr().cast()));
        }
        s = _mm_aesenclast_si128(s, _mm_loadu_si128(last.as_ptr().cast()));
        _mm_storeu_si128(block.as_mut_ptr().cast(), s);
    }

    /// SHA-256 compression of `blocks` (a whole number of 64-byte
    /// blocks) into `state`. SHA256RNDS2 keeps the state as the ABEF
    /// and CDGH halves; each step of the loop runs four rounds and
    /// extends the message schedule by four words (the last three
    /// extensions go unused).
    ///
    /// # Safety
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress256(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian words: reverse the bytes of each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [bswap; 4];
            for (wi, at) in w.iter_mut().zip(block.chunks_exact(16)) {
                *wi = _mm_shuffle_epi8(_mm_loadu_si128(at.as_ptr().cast()), bswap);
            }
            let [mut w0, mut w1, mut w2, mut w3] = w;
            for k in SHA256_K.chunks_exact(4) {
                let wk = _mm_add_epi32(w0, _mm_loadu_si128(k.as_ptr().cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
                    w3,
                );
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        _mm_storeu_si128(
            state.as_mut_ptr().cast(),
            _mm_blend_epi16::<0xf0>(feba, dchg),
        );
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8::<8>(dchg, feba),
        );
    }

    // lint: ct-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{expand_key, PortableAes128};

    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_block(seed: &mut u64) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&splitmix(seed).to_le_bytes());
        b[8..].copy_from_slice(&splitmix(seed).to_le_bytes());
        b
    }

    /// Key schedules byte for byte and ciphertexts on random keys and
    /// blocks: the AES-NI path equals the portable one.
    #[test]
    fn aes_ni_equals_portable_on_random_keys() {
        if !aes_available() {
            return;
        }
        let mut seed = 0xae5_0001;
        for _ in 0..2_000 {
            let key = random_block(&mut seed);
            let ni = Aes128Ni::new(&key).expect("detected");
            assert_eq!(ni.round_keys(), &expand_key(&key), "key {key:02x?}");
            let soft = PortableAes128::new(&key);
            for _ in 0..4 {
                let block = random_block(&mut seed);
                let (mut a, mut b) = (block, block);
                ni.encrypt(&mut a);
                soft.encrypt(&mut b);
                assert_eq!(a, b, "key {key:02x?} block {block:02x?}");
            }
        }
    }
}
