//! SHA-1 and SHA-256.
//!
//! SHA-1 appears in the paper's implementation-size argument (§4): "the
//! smallest SHA-1 implementation [O'Neill] uses 5527 gates" — i.e. hash
//! functions are *not* automatically cheap in lightweight hardware.
//! SHA-256 backs the HMAC used by the protocol layer.
//!
//! The 64 SHA-256 round constants and 8 initial values are *derived* at
//! compile time from their definition (fractional parts of cube/square
//! roots of the first primes) using exact integer root extraction, so no
//! table had to be transcribed; the FIPS-180 known-answer tests pin the
//! result.

use crate::cipher::HwProfile;

/// Exact integer k-th root: the largest r with r^k <= n (binary search
/// over u128).
const fn iroot(n: u128, k: u32) -> u128 {
    let mut lo = 0u128;
    let bits = 128 / k + 1;
    let mut hi = 1u128 << if bits < 127 { bits } else { 127 };
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let mut p = 1u128;
        let mut ok = true;
        let mut j = 0;
        while ok && j < k {
            match p.checked_mul(mid) {
                Some(v) => p = v,
                None => ok = false,
            }
            j += 1;
        }
        if ok && p <= n {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The first `N` primes, by trial division against the primes found so
/// far.
const fn first_primes<const N: usize>() -> [u64; N] {
    let mut primes = [0u64; N];
    let mut found = 0;
    let mut c = 2u64;
    while found < N {
        let mut j = 0;
        while j < found && !c.is_multiple_of(primes[j]) {
            j += 1;
        }
        if j == found {
            primes[found] = c;
            found += 1;
        }
        c += 1;
    }
    primes
}

/// frac(cbrt(p)) · 2^32 = floor(cbrt(p·2^96)) mod 2^32.
const fn sha256_round_constants() -> [u32; 64] {
    let primes = first_primes::<64>();
    let mut k = [0u32; 64];
    let mut i = 0;
    while i < 64 {
        k[i] = (iroot((primes[i] as u128) << 96, 3) & 0xffff_ffff) as u32;
        i += 1;
    }
    k
}

/// frac(sqrt(p)) · 2^32 = floor(sqrt(p·2^64)) mod 2^32.
const fn sha256_initial_state() -> [u32; 8] {
    let primes = first_primes::<8>();
    let mut h = [0u32; 8];
    let mut i = 0;
    while i < 8 {
        h[i] = (iroot((primes[i] as u128) << 64, 2) & 0xffff_ffff) as u32;
        i += 1;
    }
    h
}

/// The SHA-256 round constants K, generated from their definition.
pub(crate) const SHA256_K: [u32; 64] = sha256_round_constants();
/// The SHA-256 initial hash value H(0), generated from its definition.
pub(crate) const SHA256_H0: [u32; 8] = sha256_initial_state();

/// A compression function over a whole number of 64-byte blocks.
pub(crate) type Compress<S> = fn(&mut S, &[u8]);

/// The Merkle–Damgård front end of SHA-1 and SHA-256: input streams
/// through one stack block into the compression function, and
/// [`Md::finish`] appends the padding 0x80 ‖ 0* ‖ the 64-bit big-endian
/// bit length. Nothing is allocated.
pub(crate) struct Md<S> {
    state: S,
    compress: Compress<S>,
    block: [u8; 64],
    fill: usize,
    len: u64,
}

impl<S> Md<S> {
    pub(crate) fn new(state: S, compress: Compress<S>) -> Self {
        Self {
            state,
            compress,
            block: [0; 64],
            fill: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.fill > 0 {
            let take = data.len().min(64 - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 64 {
                return;
            }
            (self.compress)(&mut self.state, &self.block);
            self.fill = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            (self.compress)(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    /// Pads the message and returns the digest: the final chaining
    /// value, big-endian.
    pub(crate) fn finish<const N: usize>(mut self) -> [u8; N]
    where
        S: AsRef<[u32]>,
    {
        let bits = self.len.wrapping_mul(8);
        self.block[self.fill] = 0x80;
        self.block[self.fill + 1..].fill(0);
        if self.fill >= 56 {
            (self.compress)(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bits.to_be_bytes());
        (self.compress)(&mut self.state, &self.block);
        let mut out = [0u8; N];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state.as_ref()) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-1's compression function, portable.
fn compress1(h: &mut [u32; 5], blocks: &[u8]) {
    for chunk in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5A82_7999),
                1 => (b ^ c ^ d, 0x6ED9_EBA1),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 digest.
///
/// # Example
///
/// ```
/// let d = medsec_lwc::sha1(b"abc");
/// assert_eq!(d[..4], [0xa9, 0x99, 0x3e, 0x36]);
/// ```
pub fn sha1(message: &[u8]) -> [u8; 20] {
    let h0 = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let mut md = Md::new(h0, compress1);
    md.update(message);
    md.finish()
}

/// SHA-256's compression function, portable: no table indexed by data
/// and no branch on it.
pub(crate) fn compress256(h: &mut [u32; 8], blocks: &[u8]) {
    for chunk in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *hi = hi.wrapping_add(v);
        }
    }
}

/// The SHA-256 compression function this host runs: SHA-NI where CPUID
/// reports it, the portable one elsewhere.
pub(crate) fn host_compress256() -> Compress<[u32; 8]> {
    if crate::ni::sha_available() {
        crate::ni::compress256
    } else {
        compress256
    }
}

/// SHA-256 of the concatenation of `parts`, over `compress`.
pub(crate) fn sha256_parts(compress: Compress<[u32; 8]>, parts: &[&[u8]]) -> [u8; 32] {
    let mut md = Md::new(SHA256_H0, compress);
    for part in parts {
        md.update(part);
    }
    md.finish()
}

/// One-shot SHA-256 digest, on SHA-NI where CPUID reports it and on the
/// portable compression function elsewhere (the same digest either way).
///
/// # Example
///
/// ```
/// let d = medsec_lwc::sha256(b"abc");
/// assert_eq!(d[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
pub fn sha256(message: &[u8]) -> [u8; 32] {
    sha256_parts(host_compress256(), &[message])
}

/// Hardware profile of the paper's cited SHA-1 core: 5 527 GE (O'Neill,
/// RFIDSec 2008) — the exact number quoted in §4.
pub fn sha1_hw_profile() -> HwProfile {
    HwProfile {
        gate_equivalents: 5_527,
        cycles_per_block: 344,
        block_bits: 512,
        source: "O'Neill, RFIDSec 2008 (quoted in the paper, §4)",
    }
}

/// Hardware profile of a compact SHA-256 core.
pub fn sha256_hw_profile() -> HwProfile {
    HwProfile {
        gate_equivalents: 10_868,
        cycles_per_block: 1_128,
        block_bits: 512,
        source: "Feldhofer & Rechberger, 2006 (compact SHA-256)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha1_fips180_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    fn portable(message: &[u8]) -> [u8; 32] {
        sha256_parts(compress256, &[message])
    }

    /// FIPS 180-2 on the portable compression function and on the
    /// dispatching `sha256` (SHA-NI where CPUID reports it).
    #[test]
    fn sha256_fips180_vectors() {
        for hash in [portable, sha256] {
            assert_eq!(
                hex(&hash(b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
            assert_eq!(
                hex(&hash(b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
            assert_eq!(
                hex(&hash(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
        }
    }

    #[test]
    fn derived_constants_match_known_values() {
        assert_eq!(SHA256_K[0], 0x428a2f98);
        assert_eq!(SHA256_K[1], 0x71374491);
        assert_eq!(SHA256_K[63], 0xc67178f2);
        assert_eq!(SHA256_H0[0], 0x6a09e667);
        assert_eq!(SHA256_H0[7], 0x5be0cd19);
    }

    /// FIPS 180-2 appendix B.3: one million repetitions of 'a'
    /// (15,626 blocks).
    #[test]
    fn long_input_multi_block() {
        let data = vec![b'a'; 1_000_000];
        for hash in [portable, sha256] {
            assert_eq!(
                hex(&hash(&data)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }

    /// Every length 0–200 B, split into two streamed parts at every
    /// offset (the 55/56/64 padding boundaries included): both paths
    /// give the portable one-shot digest.
    #[test]
    fn streamed_parts_equal_one_shot_on_both_paths() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=data.len() {
            let m = &data[..len];
            let want = portable(m);
            for at in 0..=len {
                let parts: [&[u8]; 2] = [&m[..at], &m[at..]];
                assert_eq!(sha256_parts(compress256, &parts), want, "len {len} at {at}");
                assert_eq!(
                    sha256_parts(host_compress256(), &parts),
                    want,
                    "len {len} at {at}"
                );
            }
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths that straddle the 55/56/64-byte padding boundaries.
        for len in [54, 55, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0x42u8; len];
            let d1 = sha256(&data);
            let mut data2 = data.clone();
            data2[0] ^= 1;
            assert_ne!(d1, sha256(&data2), "collision at len {len}");
        }
    }
}
