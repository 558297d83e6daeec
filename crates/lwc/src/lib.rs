//! Lightweight symmetric cryptography substrates for the medsec DAC'13
//! reproduction.
//!
//! The paper's protocol level (§4) weighs secret-key primitives (cheap
//! computation, expensive key management, no strong privacy) against the
//! ECC co-processor. This crate supplies the secret-key side of that
//! comparison, bit-exact and with literature-calibrated hardware cost
//! profiles:
//!
//! | Primitive | GE | cycles/block | role |
//! |---|---|---|---|
//! | [`Aes128`] | 3 400 | 1 032 | reference cipher (§4) |
//! | [`Present80`] | 1 570 | 32 | ultra-lightweight baseline |
//! | [`Simon32`]/[`Simon64`] | 0.5–1 k | 32–44 | minimal-area baseline |
//! | [`sha1`] | 5 527 | 344 | the paper's "hash functions are not cheap" example |
//! | [`sha256`] | 10 868 | 1 128 | HMAC substrate |
//!
//! All ciphers and hashes are validated against published known-answer
//! vectors (FIPS-197, FIPS-180, CHES'07 PRESENT, the SIMON spec, RFC
//! 4231/4493).
//!
//! # Which path runs where
//!
//! AES-128 and the SHA-256 compression function, under every gateway
//! session, device turn and DRBG draw, have two implementations with
//! bit-identical results, picked once per process by CPUID:
//!
//! | host | AES-128 | SHA-256 compression |
//! |---|---|---|
//! | x86-64 reporting `aes` / `sha` | AES-NI | SHA-NI |
//! | any other host (aarch64 included) | bitsliced, table-free ([`portable::Aes128`]) | portable |
//!
//! No option, environment variable or feature selects a path, and
//! neither path reads a table or branches on key or state. The ARMv8
//! crypto extensions are not used: nothing here can test them.
//! [`portable`] reaches the portable path on any host. Only encryption
//! exists for AES; CTR, CMAC and the DRBG never decrypt. Hashing
//! allocates nothing: input streams through one stack block.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod cipher;
mod mac;
mod modes;
mod ni;
pub mod portable;
mod present;
mod sha;
mod simon;

pub use aes::Aes128;
pub use cipher::{BlockCipher, HwProfile};
pub use mac::{aes_cmac, hmac_sha256, hmac_sha256_parts, verify_tag};
pub use modes::{ctr_xor, encrypt_then_mac, verify_then_decrypt};
pub use present::{Present128, Present80};
pub use sha::{sha1, sha1_hw_profile, sha256, sha256_hw_profile};
pub use simon::{Simon32, Simon64};
