//! Elliptic curves over binary fields for the medsec DAC'13 reproduction.
//!
//! Implements the paper's algorithm level (§4): binary Weierstrass
//! curves `y² + xy = x³ + a·x² + b` over F(2^m), the Montgomery Powering
//! Ladder (Algorithm 1) with x-only López–Dahab coordinates, randomized
//! projective coordinates as the DPA countermeasure, y-recovery, and the
//! scalar ring Z_n needed by the Peeters–Hermans protocol.
//!
//! The deliberately unprotected [`Point::mul_double_and_add`] baseline is
//! kept alongside the protected [`ladder::ladder_mul`] so the evaluation
//! crates can demonstrate the timing/SPA gap the paper discusses.
//!
//! # Field-backend threading
//!
//! Every field operation in this crate — the fixed-base [`comb`], the
//! server's lockstep ladders ([`varbase`]), the shared LD-projective
//! kernel (`proj`), batched x-affine normalization and point
//! (de)compression — goes through `medsec_gf2m::Element`'s operators
//! or its plane-major batch entry points, which dispatch on the
//! process-wide `medsec_gf2m::select_backend()` choice. On CLMUL-capable
//! x86_64 hosts the whole serving stack therefore runs on hardware
//! carry-less multiplication with no change here. The SCA/energy
//! experiments take their traces from the digit-serial MALU model
//! inside the co-processor simulator, not from this seam; the
//! equivalence tests pin every backend bit-identical to the reference
//! path, so the values they compute agree.
//!
//! # Example
//!
//! ```
//! use medsec_ec::{ladder, CoordinateBlinding, CurveSpec, Scalar, K163};
//!
//! let mut seed = 1u64;
//! let mut rng = move || { seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1); seed };
//! let k = Scalar::<K163>::random_nonzero(&mut rng);
//! let p = ladder::ladder_mul(&k, &K163::generator(), CoordinateBlinding::RandomZ, &mut rng);
//! assert!(p.is_on_curve());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comb;
mod curve;
mod curves;
mod ecdh;
pub mod frobenius;
pub mod ladder;
mod proj;
mod scalar;
pub mod tnaf;
pub mod varbase;

pub use comb::{generator_comb, generator_mul, generator_mul_batch, FixedBaseComb};
pub use curve::{CurveSpec, Point};
pub use curves::{Toy17, B163, K163, K233, K283};
pub use ecdh::{xcoord_to_scalar, KeyPair};
pub use frobenius::{frobenius_mu, frobenius_point, satisfies_characteristic_equation};
pub use ladder::{CoordinateBlinding, XAffineScratch};
pub use scalar::{parse_hex_limbs, Scalar, SCALAR_LIMBS};
pub use tnaf::{is_koblitz, tnaf_mul, tnaf_mul_add_gen, tnaf_mul_add_gen_batch, tnaf_mul_batch};
pub use varbase::{
    server_strategy_name, varbase_mul, varbase_mul_add_gen, varbase_mul_add_gen_batch,
    varbase_mul_batch, varbase_x_batch, varbase_x_batch_with,
};
