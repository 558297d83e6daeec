//! The portable scalar product, callable on every host.
//!
//! [`Element`]'s multiplication and squaring run `PCLMULQDQ` where the
//! process's tier ([`select_backend`](crate::select_backend)) is
//! `clmul` or above. These entry points always run the constant-time
//! word products that the `portable` tier serves on instead — a
//! word-level Karatsuba over masked integer multiplies and a
//! shift-and-mask bit interleave, on the `ceil(m/64)` words that carry
//! the field, then the straight-line reduction — so tests can pin them
//! and probes can time them on any host. Results are identical.

use crate::field::{Element, FieldSpec};
use crate::limbs;
use crate::LIMBS;

/// Field multiplication on the portable word products.
pub fn mul<F: FieldSpec>(a: &Element<F>, b: &Element<F>) -> Element<F> {
    Element::from_raw_limbs(mul_reduced::<F>(a.limbs(), b.limbs()))
}

/// Field squaring on the portable bit interleave.
pub fn square<F: FieldSpec>(a: &Element<F>) -> Element<F> {
    Element::from_raw_limbs(square_reduced::<F>(a.limbs()))
}

/// [`mul`] on raw limbs, the `portable` tier's scalar product: kept out
/// of line so that the `PCLMULQDQ` path's inlined callers carry only
/// the call.
#[inline(never)]
pub(crate) fn mul_reduced<F: FieldSpec>(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
    limbs::reduce_words(limbs::clmul_words(a, b, F::M.div_ceil(64)), F::REDUCTION)
}

/// [`square`] on raw limbs, out of line likewise.
#[inline(never)]
pub(crate) fn square_reduced<F: FieldSpec>(a: &[u64; LIMBS]) -> [u64; LIMBS] {
    limbs::reduce_words(limbs::clsquare_words(a, F::M.div_ceil(64)), F::REDUCTION)
}
