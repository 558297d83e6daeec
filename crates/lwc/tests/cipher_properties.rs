//! Property-based tests of the symmetric substrates: round-trip
//! invariants, mode correctness, avalanche behaviour and MAC soundness.

use medsec_lwc::{
    aes_cmac, ctr_xor, encrypt_then_mac, hmac_sha256, sha256, verify_then_decrypt, Aes128,
    BlockCipher, Present128, Present80, Simon32, Simon64,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn present80_round_trips(key in any::<[u8; 10]>(), block in any::<[u8; 8]>()) {
        let c = Present80::new(&key);
        let mut b = block;
        c.encrypt_block(&mut b);
        c.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn present128_round_trips(key in any::<[u8; 16]>(), block in any::<[u8; 8]>()) {
        let c = Present128::new(&key);
        let mut b = block;
        c.encrypt_block(&mut b);
        c.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn simon_round_trips(key32 in any::<[u8; 8]>(), key64 in any::<[u8; 16]>(),
                          b32 in any::<[u8; 4]>(), b64 in any::<[u8; 8]>()) {
        let c = Simon32::new(&key32);
        let mut b = b32;
        c.encrypt_block(&mut b);
        c.decrypt_block(&mut b);
        prop_assert_eq!(b, b32);

        let c = Simon64::new(&key64);
        let mut b = b64;
        c.encrypt_block(&mut b);
        c.decrypt_block(&mut b);
        prop_assert_eq!(b, b64);
    }

    #[test]
    fn aes_avalanche(key in any::<[u8; 16]>(), block in any::<[u8; 16]>(), bit in 0usize..128) {
        let c = Aes128::new(&key);
        let mut b1 = block;
        let mut b2 = block;
        b2[bit / 8] ^= 1 << (bit % 8);
        c.encrypt_block(&mut b1);
        c.encrypt_block(&mut b2);
        let dist: u32 = b1.iter().zip(&b2).map(|(x, y)| (x ^ y).count_ones()).sum();
        // A single flipped input bit must diffuse widely (>25 % of bits).
        prop_assert!(dist > 32, "avalanche too weak: {dist}");
    }

    #[test]
    fn ctr_round_trips_any_length(key in any::<[u8; 16]>(), nonce in any::<[u8; 12]>(),
                                   data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let c = Aes128::new(&key);
        let mut d = data.clone();
        ctr_xor(&c, &nonce, &mut d);
        ctr_xor(&c, &nonce, &mut d);
        prop_assert_eq!(d, data);
    }

    #[test]
    fn etm_rejects_any_single_bitflip(key in any::<[u8; 16]>(),
                                       data in proptest::collection::vec(any::<u8>(), 1..64),
                                       flip in any::<u16>()) {
        let c = Aes128::new(&key);
        let (ct, tag) = encrypt_then_mac(&c, &[1u8; 12], &data, |m| hmac_sha256(b"mk", m).to_vec());
        let mut bad = ct.clone();
        let pos = (flip as usize) % (bad.len() * 8);
        bad[pos / 8] ^= 1 << (pos % 8);
        let rejected =
            verify_then_decrypt(&c, &[1u8; 12], &bad, &tag, |m| hmac_sha256(b"mk", m).to_vec())
                .is_none();
        prop_assert!(rejected);
    }

    #[test]
    fn cmac_is_deterministic_and_key_separated(
        k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..100)
    ) {
        prop_assert_eq!(aes_cmac(&k1, &msg), aes_cmac(&k1, &msg));
        if k1 != k2 {
            prop_assert_ne!(aes_cmac(&k1, &msg), aes_cmac(&k2, &msg));
        }
    }

    #[test]
    fn sha256_injective_in_practice(a in proptest::collection::vec(any::<u8>(), 0..100),
                                     b in proptest::collection::vec(any::<u8>(), 0..100)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
