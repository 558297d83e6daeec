//! Block-cipher modes: CTR encryption and CBC-MAC-style chaining.
//!
//! CTR is the mode of choice for implantable devices: the keystream can be
//! precomputed while the radio is idle, decryption uses only the *encrypt*
//! datapath (smaller hardware), and there is no padding to get wrong.

use crate::cipher::BlockCipher;

/// CTR-mode keystream cipher over any [`BlockCipher`].
///
/// The counter block is `nonce || big-endian counter` where the counter
/// occupies the trailing 4 bytes of the block.
///
/// # Example
///
/// ```
/// use medsec_lwc::{ctr_xor, Aes128};
/// let aes = Aes128::new(&[9u8; 16]);
/// let mut data = b"attack at dawn".to_vec();
/// ctr_xor(&aes, &[1u8; 12], &mut data);
/// ctr_xor(&aes, &[1u8; 12], &mut data); // symmetric
/// assert_eq!(data, b"attack at dawn");
/// ```
///
/// # Panics
///
/// Panics if `nonce` is longer than the cipher block minus 4 bytes.
pub fn ctr_xor<C: BlockCipher>(cipher: &C, nonce: &[u8], data: &mut [u8]) {
    let block_len = C::BLOCK_BYTES;
    assert!(
        nonce.len() + 4 <= block_len,
        "nonce too long for {} block",
        C::NAME
    );
    // The keystream block lives on the stack; every cipher here has a
    // block of at most 16 bytes.
    const { assert!(C::BLOCK_BYTES <= 16) };
    let mut buf = [0u8; 16];
    let block = &mut buf[..block_len];
    let mut counter = 0u32;
    for chunk in data.chunks_mut(block_len) {
        block[..nonce.len()].copy_from_slice(nonce);
        block[nonce.len()..block_len - 4].fill(0);
        block[block_len - 4..].copy_from_slice(&counter.to_be_bytes());
        cipher.encrypt_block(block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Authenticated encryption by encrypt-then-MAC composition: CTR mode
/// under `enc_key` followed by a caller-supplied MAC over
/// `nonce || ciphertext`. Returned as `(ciphertext, tag)`.
pub fn encrypt_then_mac<C: BlockCipher>(
    cipher: &C,
    nonce: &[u8],
    plaintext: &[u8],
    mac: impl FnOnce(&[u8]) -> Vec<u8>,
) -> (Vec<u8>, Vec<u8>) {
    let mut ct = plaintext.to_vec();
    ctr_xor(cipher, nonce, &mut ct);
    let mut mac_input = nonce.to_vec();
    mac_input.extend_from_slice(&ct);
    let tag = mac(&mac_input);
    (ct, tag)
}

/// Inverse of [`encrypt_then_mac`]: verifies the tag before decrypting
/// (the order matters — decrypt-before-verify is the classic padding/
/// tampering oracle, and "a modification on the ciphertext may also lead
/// to a corrupted therapy").
///
/// Returns `None` if the tag does not verify.
pub fn verify_then_decrypt<C: BlockCipher>(
    cipher: &C,
    nonce: &[u8],
    ciphertext: &[u8],
    tag: &[u8],
    mac: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Option<Vec<u8>> {
    let mut mac_input = nonce.to_vec();
    mac_input.extend_from_slice(ciphertext);
    let expect = mac(&mac_input);
    if !crate::mac::verify_tag(&expect, tag) {
        return None;
    }
    let mut pt = ciphertext.to_vec();
    ctr_xor(cipher, nonce, &mut pt);
    Some(pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::mac::hmac_sha256;
    use crate::present::Present80;
    use crate::simon::Simon64;

    #[test]
    fn ctr_round_trip_all_ciphers() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();

        let aes = Aes128::new(&[1u8; 16]);
        let mut d = data.clone();
        ctr_xor(&aes, &[2u8; 12], &mut d);
        assert_ne!(d, data);
        ctr_xor(&aes, &[2u8; 12], &mut d);
        assert_eq!(d, data);

        let present = Present80::new(&[3u8; 10]);
        let mut d = data.clone();
        ctr_xor(&present, &[4u8; 4], &mut d);
        ctr_xor(&present, &[4u8; 4], &mut d);
        assert_eq!(d, data);

        let simon = Simon64::new(&[5u8; 16]);
        let mut d = data.clone();
        ctr_xor(&simon, &[6u8; 4], &mut d);
        ctr_xor(&simon, &[6u8; 4], &mut d);
        assert_eq!(d, data);
    }

    #[test]
    fn ctr_nonce_separates_keystreams() {
        let aes = Aes128::new(&[1u8; 16]);
        let mut d1 = vec![0u8; 32];
        let mut d2 = vec![0u8; 32];
        ctr_xor(&aes, &[1u8; 12], &mut d1);
        ctr_xor(&aes, &[2u8; 12], &mut d2);
        assert_ne!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "nonce too long")]
    fn ctr_rejects_oversized_nonce() {
        let aes = Aes128::new(&[1u8; 16]);
        ctr_xor(&aes, &[0u8; 13], &mut [0u8; 16]);
    }

    #[test]
    fn etm_round_trip_and_tamper_detection() {
        let aes = Aes128::new(&[7u8; 16]);
        let mac_key = b"mac key";
        let (ct, tag) = encrypt_then_mac(&aes, &[8u8; 12], b"dose=2.5mg", |m| {
            hmac_sha256(mac_key, m).to_vec()
        });
        let pt = verify_then_decrypt(&aes, &[8u8; 12], &ct, &tag, |m| {
            hmac_sha256(mac_key, m).to_vec()
        })
        .unwrap();
        assert_eq!(pt, b"dose=2.5mg");

        // Any ciphertext flip must be rejected before decryption.
        let mut bad = ct.clone();
        bad[0] ^= 0x80;
        assert!(verify_then_decrypt(&aes, &[8u8; 12], &bad, &tag, |m| {
            hmac_sha256(mac_key, m).to_vec()
        })
        .is_none());
    }
}
