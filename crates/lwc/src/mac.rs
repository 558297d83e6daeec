//! Message authentication: HMAC-SHA-256 and AES-CMAC.
//!
//! The paper's protocol level requires *data authentication* next to
//! encryption ("a modification on the ciphertext may also lead to a
//! corrupted therapy that endangers the patient's life", §4); these MACs
//! are what the pacemaker↔server session uses.

use crate::aes::Aes128;
use crate::cipher::BlockCipher;
use crate::sha::{host_compress256, sha256_parts, Compress, Md, SHA256_H0};

/// HMAC-SHA-256 per RFC 2104 / FIPS 198.
///
/// # Example
///
/// ```
/// let tag = medsec_lwc::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key, &[message])
}

/// HMAC-SHA-256 of the concatenation of `parts`, streamed: the tag of
/// `a ‖ b` without building `a ‖ b`.
///
/// # Example
///
/// ```
/// use medsec_lwc::{hmac_sha256, hmac_sha256_parts};
/// assert_eq!(hmac_sha256_parts(b"key", &[b"mes", b"sage"]), hmac_sha256(b"key", b"message"));
/// ```
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    hmac(host_compress256(), key, parts)
}

/// HMAC over `compress`: ipad ‖ message and then opad ‖ inner digest
/// stream through the compression function; nothing is allocated.
pub(crate) fn hmac(compress: Compress<[u32; 8]>, key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > k.len() {
        k[..32].copy_from_slice(&sha256_parts(compress, &[key]));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Md::new(SHA256_H0, compress);
    inner.update(&k.map(|b| b ^ 0x36));
    for part in parts {
        inner.update(part);
    }
    let inner: [u8; 32] = inner.finish();
    let mut outer = Md::new(SHA256_H0, compress);
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner);
    outer.finish()
}

/// Constant-time tag comparison (the architecture-level rule that "all
/// instructions should execute with a constant number of cycles" applies
/// to software verifiers too — an early-exit memcmp is a classic remote
/// timing oracle).
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    // lint: ct-begin — tag comparison routes through the audited
    // accumulate-OR compare in gf2m::ct (length mismatch is public:
    // frames carry explicit lengths).
    let ok = medsec_gf2m::ct::ct_eq_bytes(expected, actual);
    // lint: ct-end
    ok
}

/// Multiplication by x in GF(2^128) modulo x^128 + x^7 + x^2 + x + 1,
/// big-endian: the subkey doubling of SP 800-38B.
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    // lint: ct-begin — L = AES_K(0) is secret: the reduction is masked
    // by its top bit, never branched on.
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for (o, b) in out.iter_mut().zip(block).rev() {
        *o = (b << 1) | carry;
        carry = b >> 7;
    }
    out[15] ^= 0x87 & 0u8.wrapping_sub(carry);
    // lint: ct-end
    out
}

/// AES-CMAC (NIST SP 800-38B / RFC 4493).
///
/// # Example
///
/// ```
/// let tag = medsec_lwc::aes_cmac(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///                                  0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c], b"");
/// assert_eq!(tag[0], 0xbb);
/// ```
pub fn aes_cmac(key: &[u8; 16], message: &[u8]) -> [u8; 16] {
    cmac(&Aes128::new(key), message)
}

/// CMAC over any 128-bit block cipher. The branches below depend on
/// the message length only.
pub(crate) fn cmac<C: BlockCipher>(aes: &C, message: &[u8]) -> [u8; 16] {
    let mut l = [0u8; 16];
    aes.encrypt_block(&mut l);
    let k1 = dbl(&l);
    let k2 = dbl(&k1);

    let n_blocks = message.len().div_ceil(16).max(1);
    let mut x = [0u8; 16];
    for i in 0..n_blocks {
        let chunk = &message[16 * i..message.len().min(16 * (i + 1))];
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        let last = i == n_blocks - 1;
        if last {
            if chunk.len() == 16 {
                for (b, k) in block.iter_mut().zip(&k1) {
                    *b ^= k;
                }
            } else {
                block[chunk.len()] = 0x80;
                for (b, k) in block.iter_mut().zip(&k2) {
                    *b ^= k;
                }
            }
        }
        for (xb, bb) in x.iter_mut().zip(&block) {
            *xb ^= bb;
        }
        aes.encrypt_block(&mut x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Hmac = fn(&[u8], &[u8]) -> [u8; 32];
    type Cmac = fn(&[u8; 16], &[u8]) -> [u8; 16];

    /// Both paths: the dispatching MACs (SHA-NI and AES-NI where CPUID
    /// reports them) and the portable ones.
    const HMACS: [Hmac; 2] = [hmac_sha256, portable::hmac_sha256];
    const CMACS: [Cmac; 2] = [aes_cmac, portable::aes_cmac];

    /// RFC 4231 test case 1.
    #[test]
    fn hmac_sha256_rfc4231_case1() {
        let key = [0x0bu8; 20];
        for hmac in HMACS {
            assert_eq!(
                hex(&hmac(&key, b"Hi There")),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
            );
        }
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn hmac_sha256_rfc4231_case2() {
        for hmac in HMACS {
            assert_eq!(
                hex(&hmac(b"Jefe", b"what do ya want for nothing?")),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
            );
        }
    }

    /// RFC 4231 test cases 6 and 7: a 131-byte key, longer than the
    /// block, is hashed before use; case 7 also spans several blocks of
    /// data.
    #[test]
    fn hmac_long_key_is_hashed() {
        let key = [0xaau8; 131];
        for hmac in HMACS {
            assert_eq!(
                hex(&hmac(
                    &key,
                    b"Test Using Larger Than Block-Size Key - Hash Key First"
                )),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
            );
            assert_eq!(
                hex(&hmac(
                    &key,
                    b"This is a test using a larger than block-size key and a larger \
                      than block-size data. The key needs to be hashed before being \
                      used by the HMAC algorithm."
                )),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
            );
        }
    }

    /// Every message length 0–200 B, streamed in two parts split at
    /// every offset, under a short and a block-sized key: the
    /// dispatching HMAC equals the portable one-shot.
    #[test]
    fn hmac_streamed_parts_equal_portable() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 89 + 3) as u8).collect();
        for key in [&b"pairing key"[..], &[0x5a; 64][..]] {
            for len in 0..=data.len() {
                let m = &data[..len];
                let want = portable::hmac_sha256(key, m);
                for at in 0..=len {
                    assert_eq!(
                        hmac_sha256_parts(key, &[&m[..at], &m[at..]]),
                        want,
                        "len {len} at {at}"
                    );
                }
            }
        }
    }

    /// The SP 800-38B key and the RFC 4493 example messages.
    const RFC4493_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const RFC4493_M64: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    /// RFC 4493 examples 1 (empty) and 2 (16 B).
    #[test]
    fn aes_cmac_rfc4493() {
        for cmac in CMACS {
            assert_eq!(
                hex(&cmac(&RFC4493_KEY, b"")),
                "bb1d6929e95937287fa37d129b756746"
            );
            assert_eq!(
                hex(&cmac(&RFC4493_KEY, &RFC4493_M64[..16])),
                "070a16b46b4d4144f79bdd9dd04a287c"
            );
        }
    }

    /// RFC 4493 examples 3 (40 B, a padded last block under K2) and 4
    /// (64 B, a whole last block under K1).
    #[test]
    fn aes_cmac_rfc4493_examples_3_and_4() {
        for cmac in CMACS {
            assert_eq!(
                hex(&cmac(&RFC4493_KEY, &RFC4493_M64[..40])),
                "dfa66747de9ae63030ca32611497c827"
            );
            assert_eq!(
                hex(&cmac(&RFC4493_KEY, &RFC4493_M64)),
                "51f0bebf7e3b9d92fc49741779363cfe"
            );
        }
    }

    #[test]
    fn verify_tag_behaviour() {
        assert!(verify_tag(b"abcd", b"abcd"));
        assert!(!verify_tag(b"abcd", b"abce"));
        assert!(!verify_tag(b"abcd", b"abc"));
        assert!(verify_tag(b"", b""));
    }

    #[test]
    fn cmac_distinguishes_padding() {
        // "msg" vs "msg\x80" must not collide (the padding bit is internal).
        let key = [7u8; 16];
        assert_ne!(aes_cmac(&key, b"msg"), aes_cmac(&key, b"msg\x80"));
    }
}
