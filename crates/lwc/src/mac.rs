//! Message authentication: HMAC-SHA-256 and AES-CMAC.
//!
//! The paper's protocol level requires *data authentication* next to
//! encryption ("a modification on the ciphertext may also lead to a
//! corrupted therapy that endangers the patient's life", §4); these MACs
//! are what the pacemaker↔server session uses.

use crate::aes::Aes128;
use crate::cipher::BlockCipher;
use crate::sha::sha256;

/// HMAC-SHA-256 per RFC 2104 / FIPS 198.
///
/// # Example
///
/// ```
/// let tag = medsec_lwc::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    const BLOCK: usize = 64;
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(BLOCK + message.len());
    inner.extend(k.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(message);
    let inner_hash = sha256(&inner);
    let mut outer = Vec::with_capacity(BLOCK + 32);
    outer.extend(k.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_hash);
    sha256(&outer)
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

fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87; // x^128 + x^7 + x^2 + x + 1
    }
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
    let aes = Aes128::new(key);
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn hmac_sha256_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn hmac_sha256_rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test cases 6 and 7: a 131-byte key, longer than the
    /// block, is hashed before use; case 7 also spans several blocks of
    /// data.
    #[test]
    fn hmac_long_key_is_hashed() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 4493 test vectors (key of SP 800-38B).
    #[test]
    fn aes_cmac_rfc4493() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        assert_eq!(
            hex(&aes_cmac(&key, b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
        let m16: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        assert_eq!(
            hex(&aes_cmac(&key, &m16)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
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
