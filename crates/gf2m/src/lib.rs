//! Binary extension field arithmetic for the medsec DAC'13 reproduction.
//!
//! The paper's co-processor computes in **F(2^163)**, chosen because
//! "multiplication in binary extension fields is carry-free; as a result,
//! the multiplier is smaller and faster than integer multipliers" (§4).
//! This crate provides:
//!
//! * [`Element`] — a fixed-width (320-bit) polynomial-basis element of
//!   F(2^m), generic over a [`FieldSpec`] describing the extension degree
//!   and the sparse reduction polynomial;
//! * the NIST fields used by the paper and its design sweeps
//!   ([`F163`], [`F233`], [`F283`]) plus a brute-force-verifiable toy
//!   field ([`F17`]);
//! * a bit-exact **digit-serial multiplier** model
//!   ([`digit_serial::DigitSerialMul`]) matching the 163×d MALU of the
//!   paper's architecture level, exposing per-cycle accumulator states so
//!   the co-processor simulator can derive switching activity;
//! * a **backend seam** ([`backend`]) separating what the field computes
//!   from how, with three backends: the bit-exact model path above (the
//!   test oracle); a hardware backend — `PCLMULQDQ` Karatsuba scalars
//!   and AVX-512 `VPCLMULQDQ` batches (four carry-less multiplies per
//!   instruction over the plane-major SoA layout of [`batch`], see
//!   [`vpclmul`]), each runtime-detected; and a portable backend —
//!   constant-time word products (a Karatsuba over masked integer
//!   multiplies) and a shift-and-mask squaring, per element at every
//!   batch width. Both serving backends share a straight-line
//!   word-level reduction whose schedule is fixed by the field, cached
//!   linear-map tables for the multi-squarings of inversion and for the
//!   half-trace, and [`batch_invert`]. Every x-only Montgomery ladder,
//!   a single one as much as a gateway batch run in lockstep, is one
//!   seam call ([`ladder_planes`]), and so is
//!   every batch of the regular signed fixed-base comb
//!   ([`comb_planes`]); both run in registers on AVX-512 for every
//!   field but the toy one.
//!   `Element`'s operators dispatch on the process-wide
//!   [`select_backend`] choice (`MEDSEC_GF2M_BACKEND=portable` forces
//!   the portable backend).
//!
//! # Example
//!
//! ```
//! use medsec_gf2m::{Element, F163};
//!
//! let a = Element::<F163>::from_hex("2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8")?;
//! let b = a.square();
//! assert_eq!(b, a * a);
//! assert_eq!(a * a.inverse().unwrap(), Element::one());
//! # Ok::<(), medsec_gf2m::ParseElementError>(())
//! ```

// Unsafe is denied crate-wide and re-allowed in exactly two modules:
// `clmul` and `vpclmul`, whose CPU-feature-gated intrinsic calls are
// guarded by runtime detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod fields;
mod limbs;

pub mod backend;
pub mod batch;
pub mod cache;
pub mod clmul;
pub mod ct;
pub mod digit_serial;
pub mod invclock;
mod multisquare;
pub mod vpclmul;

pub use backend::{
    batch_invert, batch_invert_planes, select_backend, BackendChoice, FieldBackend, ModelBackend,
    PortableBackend, VpclmulBackend, BACKEND_ENV,
};
pub use batch::{
    add_planes, comb_planes, ladder_planes, mul_planes, sqr_planes, CombLanes, CombPlanes,
    LadderLanes, LadderPlanes, Planes,
};
pub use cache::Registry;
pub use field::{Element, FieldSpec, ParseElementError};
pub use fields::{F163, F17, F233, F283};

/// Number of 64-bit limbs in an element (320 bits, enough for m ≤ 283).
pub const LIMBS: usize = 5;

/// Number of 64-bit limbs in an unreduced product (two operands of `LIMBS`).
pub const PROD_LIMBS: usize = 2 * LIMBS;
