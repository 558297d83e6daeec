//! The portable path, callable on every host.
//!
//! [`Aes128`](crate::Aes128), [`aes_cmac`](crate::aes_cmac),
//! [`sha256`](crate::sha256) and [`hmac_sha256`](crate::hmac_sha256)
//! run on AES-NI and SHA-NI where CPUID reports them. These entry
//! points always run the portable code instead — the bitsliced AES and
//! the portable SHA-256 compression function that hosts without the
//! extensions serve on — so tests can pin both paths and benches can
//! time them side by side on one host. Results are identical.

use crate::mac::{cmac, hmac};
use crate::sha::{compress256, sha256_parts};

pub use crate::aes::PortableAes128 as Aes128;

/// AES-CMAC (RFC 4493) on the portable AES.
pub fn aes_cmac(key: &[u8; 16], message: &[u8]) -> [u8; 16] {
    cmac(&Aes128::new(key), message)
}

/// SHA-256 on the portable compression function.
pub fn sha256(message: &[u8]) -> [u8; 32] {
    sha256_parts(compress256, &[message])
}

/// HMAC-SHA-256 (RFC 2104) on the portable compression function.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac(compress256, key, &[message])
}
