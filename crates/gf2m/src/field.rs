//! Polynomial-basis field elements generic over a [`FieldSpec`].

use core::fmt;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign};

use crate::backend::{FieldBackend, VpclmulBackend};
use crate::limbs;
use crate::{LIMBS, PROD_LIMBS};

/// Compile-time description of a binary extension field F(2^m).
///
/// Implementors are zero-sized marker types (see [`crate::F163`] and
/// friends). The reduction polynomial must be sparse (trinomial or
/// pentanomial), listed as exponents in strictly descending order,
/// beginning with the degree `M` and ending with `0`.
pub trait FieldSpec:
    Copy + Clone + Eq + PartialEq + core::hash::Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Extension degree m.
    const M: usize;
    /// Exponents of the reduction polynomial, descending, `[M, ..., 0]`.
    const REDUCTION: &'static [usize];
    /// Human-readable field name, e.g. `"F2^163"`.
    const NAME: &'static str;
}

/// An element of F(2^m) in polynomial basis.
///
/// Stored as 320 bits (five 64-bit limbs) regardless of `m`, which keeps
/// the representation `Copy` and branch-free; all arithmetic maintains the
/// invariant that bits at positions ≥ m are zero.
///
/// # Example
///
/// ```
/// use medsec_gf2m::{Element, F163};
/// let x = Element::<F163>::from_u64(0b1011);
/// assert_eq!((x + x), Element::zero()); // characteristic 2
/// ```
pub struct Element<F: FieldSpec> {
    limbs: [u64; LIMBS],
    _field: PhantomData<F>,
}

/// Error returned when parsing an [`Element`] from hex fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseElementError {
    /// A character outside `[0-9a-fA-F]` was encountered.
    InvalidDigit(char),
    /// The value has degree ≥ m and is not a canonical field element.
    Overflow {
        /// Extension degree of the target field.
        degree: usize,
    },
    /// The input was empty.
    Empty,
}

impl fmt::Display for ParseElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDigit(c) => write!(f, "invalid hex digit {c:?}"),
            Self::Overflow { degree } => {
                write!(f, "value does not fit in a field of degree {degree}")
            }
            Self::Empty => write!(f, "empty hex string"),
        }
    }
}

impl std::error::Error for ParseElementError {}

impl<F: FieldSpec> Element<F> {
    /// The additive identity.
    #[inline]
    pub fn zero() -> Self {
        Self::from_raw([0; LIMBS])
    }

    /// The multiplicative identity.
    #[inline]
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// Element from the low 64 bits (must already be reduced if m < 64).
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        let mut l = [0u64; LIMBS];
        l[0] = v;
        let mut e = Self::from_raw(l);
        e.normalize();
        e
    }

    #[inline]
    fn from_raw(limbs: [u64; LIMBS]) -> Self {
        Self {
            limbs,
            _field: PhantomData,
        }
    }

    /// Construct from already-reduced limbs (backend internal).
    #[inline]
    pub(crate) fn from_raw_limbs(limbs: [u64; LIMBS]) -> Self {
        Self::from_raw(limbs)
    }

    /// Construct from limbs, reducing modulo the field polynomial if the
    /// value has degree ≥ m.
    pub fn from_limbs_reduced(l: [u64; LIMBS]) -> Self {
        let mut prod = [0u64; PROD_LIMBS];
        prod[..LIMBS].copy_from_slice(&l);
        Self::from_raw(limbs::reduce(prod, F::REDUCTION))
    }

    /// Borrow the raw little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Mutably borrow the raw limbs (crate-internal: used by the
    /// constant-time helpers in [`crate::ct`], which preserve the
    /// reduced-form invariant by only exchanging whole elements).
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64; LIMBS] {
        &mut self.limbs
    }

    /// Parse from a big-endian hex string (no `0x` prefix required).
    ///
    /// # Errors
    ///
    /// Returns [`ParseElementError`] if the string is empty, contains a
    /// non-hex character, or encodes a value of degree ≥ m.
    pub fn from_hex(s: &str) -> Result<Self, ParseElementError> {
        let s = s.trim().trim_start_matches("0x");
        if s.is_empty() {
            return Err(ParseElementError::Empty);
        }
        let mut l = [0u64; LIMBS];
        let mut nibbles = 0usize;
        for c in s.chars().rev() {
            let v = c.to_digit(16).ok_or(ParseElementError::InvalidDigit(c))? as u64;
            if nibbles >= LIMBS * 16 {
                if v != 0 {
                    return Err(ParseElementError::Overflow { degree: F::M });
                }
                continue;
            }
            l[nibbles / 16] |= v << (4 * (nibbles % 16));
            nibbles += 1;
        }
        match limbs::degree(&l) {
            Some(d) if d >= F::M => Err(ParseElementError::Overflow { degree: F::M }),
            _ => Ok(Self::from_raw(l)),
        }
    }

    /// Big-endian hex rendering with no leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        let digits = F::M.div_ceil(4);
        let mut s = String::with_capacity(digits);
        let mut started = false;
        for n in (0..digits).rev() {
            let v = (self.limbs[n / 16] >> (4 * (n % 16))) & 0xf;
            if v != 0 || started || n == 0 {
                started = true;
                s.push(char::from_digit(v as u32, 16).expect("nibble < 16"));
            }
        }
        s
    }

    /// Fixed byte width of the big-endian encoding: `ceil(m/8)`.
    #[inline]
    pub const fn byte_len() -> usize {
        F::M.div_ceil(8)
    }

    /// Big-endian byte encoding, fixed width `ceil(m/8)` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; Self::byte_len()];
        self.to_bytes_into(&mut out);
        out
    }

    /// Write the fixed-width big-endian encoding into `out` without
    /// allocating — the serving path's accessor (wire framing, point
    /// compression).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::byte_len()`.
    #[inline]
    pub fn to_bytes_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::byte_len(), "encoding width mismatch");
        for (i, b) in out.iter_mut().rev().enumerate() {
            *b = (self.limbs[i / 8] >> (8 * (i % 8))) as u8;
        }
    }

    /// Parse a big-endian byte encoding, reducing modulo the field
    /// polynomial (so any `ceil(m/8)`-byte string is accepted).
    pub fn from_bytes_reduced(bytes: &[u8]) -> Self {
        let mut l = [0u64; LIMBS];
        for (i, &b) in bytes.iter().rev().enumerate() {
            if i < LIMBS * 8 {
                l[i / 8] |= (b as u64) << (8 * (i % 8));
            }
        }
        Self::from_limbs_reduced(l)
    }

    /// Whether this is the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        limbs::is_zero(&self.limbs)
    }

    /// Degree of the representing polynomial (`None` for zero).
    #[inline]
    pub fn degree(&self) -> Option<usize> {
        limbs::degree(&self.limbs)
    }

    /// Coefficient of x^i.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        i < F::M && limbs::get_bit(&self.limbs, i)
    }

    /// Hamming weight of the representation (used by leakage models).
    #[inline]
    pub fn hamming_weight(&self) -> u32 {
        limbs::hamming_weight(&self.limbs)
    }

    /// Hamming distance to `other` (used by leakage models).
    #[inline]
    pub fn hamming_distance(&self, other: &Self) -> u32 {
        limbs::hamming_distance(&self.limbs, &other.limbs)
    }

    /// Copy of `self` with coefficient `i` flipped — the single-event-
    /// upset primitive of the fault-injection simulator.
    ///
    /// # Panics
    ///
    /// Panics if `i >= m`.
    pub fn with_bit_flipped(mut self, i: usize) -> Self {
        assert!(i < F::M, "bit index {i} outside field degree {}", F::M);
        limbs::flip_bit(&mut self.limbs, i);
        self
    }

    fn normalize(&mut self) {
        if matches!(limbs::degree(&self.limbs), Some(d) if d >= F::M) {
            let mut prod = [0u64; PROD_LIMBS];
            prod[..LIMBS].copy_from_slice(&self.limbs);
            self.limbs = limbs::reduce(prod, F::REDUCTION);
        }
    }

    /// Field squaring (linear in characteristic 2), on the serving
    /// backend.
    #[inline]
    pub fn square(&self) -> Self {
        VpclmulBackend::square(self)
    }

    /// `self^(2^k)` — k repeated squarings (the Frobenius map iterated).
    pub fn frobenius(&self, k: usize) -> Self {
        let mut t = *self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    /// Multiplicative inverse via Itoh–Tsujii exponentiation to
    /// 2^m − 2. Returns `None` for zero.
    ///
    /// Uses the addition chain on m−1 implied by its binary expansion:
    /// roughly log2(m) multiplications and m−1 squarings, exactly the
    /// strategy a hardware MALU uses because squaring is cheap.
    pub fn inverse(&self) -> Option<Self> {
        VpclmulBackend::invert(self)
    }

    /// `self^(2^(m-1))`, the unique square root in F(2^m).
    pub fn sqrt(&self) -> Self {
        self.frobenius(F::M - 1)
    }

    /// Absolute trace Tr(a) = Σ a^(2^i) for i in 0..m; always 0 or 1.
    ///
    /// Computed through the half-trace identity
    /// `Tr(a) = H(a)² + H(a) + a` (odd m): one half-trace and one
    /// squaring instead of m−1 squarings.
    ///
    /// # Panics
    ///
    /// Panics if the extension degree m is even.
    pub fn trace(&self) -> u8 {
        let h = self.half_trace();
        let tr = h.square() + h + *self;
        debug_assert!(tr.is_zero() || tr == Self::one());
        u8::from(!tr.is_zero())
    }

    /// Half-trace H(a) = Σ a^(2^(2i)) for i in 0..=(m−1)/2 (odd m only),
    /// on the serving backend.
    ///
    /// If `Tr(a) == 0`, then `z = H(a)` solves `z² + z = a` — the key
    /// step when decompressing points on binary curves.
    ///
    /// # Panics
    ///
    /// Panics if the extension degree m is even.
    pub fn half_trace(&self) -> Self {
        assert!(F::M % 2 == 1, "half-trace requires odd extension degree");
        VpclmulBackend::half_trace(self)
    }

    /// Solve `z² + z = self`; returns the two solutions `z` and `z + 1`
    /// when `Tr(self) == 0`, or `None` otherwise.
    ///
    /// Computes the half-trace candidate and verifies it with one
    /// squaring, so solvability falls out of the check. Point
    /// decompression calls this once per received point.
    pub fn solve_quadratic(&self) -> Option<(Self, Self)> {
        let z = self.half_trace();
        if z.square() + z != *self {
            // No solution exists exactly when Tr(self) = 1.
            return None;
        }
        Some((z, z + Self::one()))
    }

    /// Uniformly random element using any [`rand`-style] 64-bit source.
    ///
    /// [`rand`-style]: https://docs.rs/rand
    pub fn random(mut next_u64: impl FnMut() -> u64) -> Self {
        let mut l = [0u64; LIMBS];
        let words = F::M.div_ceil(64);
        for w in l.iter_mut().take(words) {
            *w = next_u64();
        }
        let top_bits = F::M % 64;
        if top_bits != 0 {
            l[words - 1] &= (1u64 << top_bits) - 1;
        }
        for w in l.iter_mut().skip(words) {
            *w = 0;
        }
        Self::from_raw(l)
    }
}

impl<F: FieldSpec> Clone for Element<F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<F: FieldSpec> Copy for Element<F> {}

impl<F: FieldSpec> PartialEq for Element<F> {
    fn eq(&self, other: &Self) -> bool {
        self.limbs == other.limbs
    }
}
impl<F: FieldSpec> Eq for Element<F> {}

impl<F: FieldSpec> core::hash::Hash for Element<F> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.limbs.hash(state);
    }
}

impl<F: FieldSpec> Default for Element<F> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<F: FieldSpec> fmt::Debug for Element<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{})", F::NAME, self.to_hex())
    }
}

impl<F: FieldSpec> fmt::Display for Element<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl<F: FieldSpec> fmt::LowerHex for Element<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl<F: FieldSpec> Add for Element<F> {
    type Output = Self;
    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        limbs::xor_into(&mut self.limbs, &rhs.limbs);
        self
    }
}

impl<F: FieldSpec> AddAssign for Element<F> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        limbs::xor_into(&mut self.limbs, &rhs.limbs);
    }
}

impl<F: FieldSpec> Mul for Element<F> {
    type Output = Self;
    /// Field multiplication on the serving backend.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        VpclmulBackend::mul(&self, &rhs)
    }
}

impl<F: FieldSpec> MulAssign for Element<F> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{F163, F17};

    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
        // SplitMix64: deterministic, dependency-free test source.
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn hex_round_trip() {
        let h = "2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8";
        let e = Element::<F163>::from_hex(h).unwrap();
        assert_eq!(e.to_hex(), h);
        assert_eq!(Element::<F163>::zero().to_hex(), "0");
    }

    #[test]
    fn hex_rejects_garbage() {
        assert_eq!(Element::<F163>::from_hex(""), Err(ParseElementError::Empty));
        assert!(matches!(
            Element::<F163>::from_hex("zz"),
            Err(ParseElementError::InvalidDigit('z'))
        ));
        // 2^163 itself overflows F(2^163).
        let too_big = format!("8{}", "0".repeat(40));
        assert!(matches!(
            Element::<F163>::from_hex(&too_big),
            Err(ParseElementError::Overflow { degree: 163 })
        ));
    }

    #[test]
    fn bytes_round_trip() {
        let mut r = rng_from(7);
        for _ in 0..32 {
            let a = Element::<F163>::random(&mut r);
            assert_eq!(Element::<F163>::from_bytes_reduced(&a.to_bytes()), a);
            assert_eq!(a.to_bytes().len(), 21);
        }
    }

    #[test]
    fn addition_is_xor_and_involutive() {
        let mut r = rng_from(1);
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            let b = Element::<F163>::random(&mut r);
            assert_eq!(a + b, b + a);
            assert_eq!(a + b + b, a);
            assert_eq!(a + a, Element::zero());
        }
    }

    #[test]
    fn multiplication_identities() {
        let mut r = rng_from(2);
        let one = Element::<F163>::one();
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            assert_eq!(a * one, a);
            assert_eq!(a * Element::zero(), Element::zero());
        }
    }

    #[test]
    fn square_equals_self_mul() {
        let mut r = rng_from(3);
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut r = rng_from(4);
        for _ in 0..32 {
            let a = Element::<F163>::random(&mut r);
            if a.is_zero() {
                continue;
            }
            let inv = a.inverse().unwrap();
            assert_eq!(a * inv, Element::one());
        }
        assert_eq!(Element::<F163>::zero().inverse(), None);
    }

    #[test]
    fn inverse_on_toy_field_exhaustive() {
        // Every nonzero element of F(2^17) must invert correctly.
        for v in 1u64..512 {
            let a = Element::<F17>::from_u64(v);
            let inv = a.inverse().unwrap();
            assert_eq!(a * inv, Element::one(), "failed for {v}");
        }
    }

    #[test]
    fn sqrt_inverts_square() {
        let mut r = rng_from(5);
        for _ in 0..32 {
            let a = Element::<F163>::random(&mut r);
            assert_eq!(a.square().sqrt(), a);
            assert_eq!(a.sqrt().square(), a);
        }
    }

    #[test]
    fn trace_is_additive_and_balanced() {
        let mut r = rng_from(6);
        let mut ones = 0usize;
        for _ in 0..128 {
            let a = Element::<F163>::random(&mut r);
            let b = Element::<F163>::random(&mut r);
            assert_eq!((a + b).trace(), a.trace() ^ b.trace());
            ones += a.trace() as usize;
        }
        // Trace is balanced; with 128 samples expect roughly half ones.
        assert!(ones > 32 && ones < 96, "trace badly unbalanced: {ones}");
    }

    #[test]
    fn half_trace_solves_quadratic() {
        let mut r = rng_from(8);
        let mut solved = 0;
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            if let Some((z0, z1)) = a.solve_quadratic() {
                assert_eq!(z0.square() + z0, a);
                assert_eq!(z1.square() + z1, a);
                assert_eq!(z0 + z1, Element::one());
                solved += 1;
            }
        }
        assert!(solved > 10, "suspiciously few solvable quadratics");
    }

    #[test]
    fn frobenius_composes() {
        let mut r = rng_from(9);
        let a = Element::<F163>::random(&mut r);
        assert_eq!(a.frobenius(3), a.square().square().square());
        // Frobenius^m is the identity.
        assert_eq!(a.frobenius(163), a);
    }

    #[test]
    fn random_is_in_range() {
        let mut r = rng_from(10);
        for _ in 0..64 {
            let a = Element::<F163>::random(&mut r);
            assert!(a.degree().is_none_or(|d| d < 163));
        }
    }

    #[test]
    fn display_and_debug() {
        let a = Element::<F163>::from_u64(0xab);
        assert_eq!(format!("{a}"), "0xab");
        assert!(format!("{a:?}").contains("F2^163"));
    }
}
