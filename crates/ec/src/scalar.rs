//! Arithmetic in the scalar ring Z_n, where n is the (prime) order of the
//! base-point subgroup.
//!
//! The Peeters–Hermans protocol (paper Fig. 2) computes `s = d + x + e·r
//! (mod ℓ)` on the tag, so the tag needs modular addition and one modular
//! multiplication next to the two point multiplications; the reader
//! additionally inverts challenges. Values are kept in five 64-bit limbs
//! (320 bits), comfortably above the largest order used here (K-283's
//! 281-bit subgroup order, plus the `k + c·n` headroom the constant-
//! length ladder encoding needs).
//!
//! Addition, subtraction and negation reduce by masked selection: the
//! carry or borrow of a full-width add or subtract picks between two
//! candidates with a mask, so the operation sequence is the same
//! whatever the operands. So does the reduction of a field element
//! (an x-coordinate) into the ring, `Scalar::from_field_limbs`, which
//! subtracts n a fixed number of times fixed by the curve. These carry
//! the gateway's secrets: the Peeters–Hermans reader's ḋ = xcoord(y·R)
//! and `s − ḋ`, and the comb's recoding of every secret scalar
//! (`Scalar::odd_limbs`). Multiplication and the decoding of wire
//! scalars, which are public, reduce with the bit-serial `mod_wide`.

use core::cmp::Ordering;
use core::fmt;
use core::marker::PhantomData;

use medsec_gf2m::ct::ct_mask_u64;
use medsec_gf2m::FieldSpec;

use crate::curve::CurveSpec;

/// Number of limbs in a scalar.
pub const SCALAR_LIMBS: usize = 5;

/// Parse a hex string into little-endian limbs at compile time.
///
/// # Panics
///
/// Panics (at compile time when used in a `const`) on non-hex characters
/// or on overflow of the `N`-limb width.
pub const fn parse_hex_limbs<const N: usize>(s: &str) -> [u64; N] {
    let b = s.as_bytes();
    let mut out = [0u64; N];
    let mut nib = 0usize;
    let mut pos = b.len();
    while pos > 0 {
        pos -= 1;
        let c = b[pos];
        let v = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            b'A'..=b'F' => c - b'A' + 10,
            _ => panic!("invalid hex digit in constant"),
        } as u64;
        if nib >= N * 16 {
            if v != 0 {
                panic!("hex constant overflows limb width");
            }
        } else {
            out[nib / 16] |= v << (4 * (nib % 16));
        }
        nib += 1;
    }
    out
}

// ---- raw limb helpers (little-endian [u64; SCALAR_LIMBS]) ----

const L: usize = SCALAR_LIMBS;

fn add_raw(a: &[u64; L], b: &[u64; L]) -> ([u64; L], bool) {
    let mut out = [0u64; L];
    let mut carry = false;
    for i in 0..L {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        out[i] = s;
        carry = c1 | c2;
    }
    (out, carry)
}

fn sub_raw(a: &[u64; L], b: &[u64; L]) -> ([u64; L], bool) {
    let mut out = [0u64; L];
    let mut borrow = false;
    for i in 0..L {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        out[i] = d;
        borrow = b1 | b2;
    }
    (out, borrow)
}

/// `a` where `mask` is all ones, `b` where it is zero.
fn select_raw(mask: u64, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
    let mut out = *b;
    for (o, x) in out.iter_mut().zip(a) {
        *o ^= mask & (*o ^ x);
    }
    out
}

/// `v` where `mask` is all ones, zero where it is zero.
fn and_raw(v: &[u64; L], mask: u64) -> [u64; L] {
    v.map(|w| w & mask)
}

/// `v >> s` for a public shift `1 <= s <= 64`.
pub(crate) fn shr_raw(v: &[u64; L], s: usize) -> [u64; L] {
    debug_assert!((1..=64).contains(&s));
    let mut out = [0u64; L];
    let next = v.iter().skip(1).chain(core::iter::once(&0));
    for ((o, w), hi) in out.iter_mut().zip(v).zip(next) {
        // Two shifts so that s = 64 moves a whole limb.
        *o = ((w >> (s - 1)) >> 1) | (hi << (64 - s));
    }
    out
}

fn cmp_raw(a: &[u64; L], b: &[u64; L]) -> Ordering {
    for i in (0..L).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn is_zero_raw(a: &[u64; L]) -> bool {
    a.iter().all(|&w| w == 0)
}

fn bit_raw(a: &[u64], i: usize) -> bool {
    (a[i / 64] >> (i % 64)) & 1 == 1
}

fn bitlen_raw(a: &[u64]) -> usize {
    for (i, &w) in a.iter().enumerate().rev() {
        if w != 0 {
            return 64 * i + 64 - w.leading_zeros() as usize;
        }
    }
    0
}

/// Schoolbook L×L → 2L limb multiplication.
fn mul_wide(a: &[u64; L], b: &[u64; L]) -> [u64; 2 * L] {
    let mut out = [0u64; 2 * L];
    for i in 0..L {
        let mut carry = 0u128;
        for j in 0..L {
            let t = out[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + L] = carry as u64;
    }
    out
}

/// Binary modular reduction of an arbitrary-width value: shifts in one bit
/// at a time, keeping the remainder below n. O(bits) in general, but the
/// dominant callers (`xcoord_to_scalar`, wire decoding) reduce values at
/// most one bit wider than n, where a couple of conditional subtractions
/// finish the job without the bit loop.
fn mod_wide(value: &[u64], n: &[u64; L]) -> [u64; L] {
    let bits = bitlen_raw(value);
    if bits <= bitlen_raw(n) + 1 {
        // value < 4n: copy and subtract n at most three times.
        let mut r = [0u64; L];
        for (dst, &src) in r.iter_mut().zip(value.iter()) {
            *dst = src;
        }
        while cmp_raw(&r, n) != Ordering::Less {
            r = sub_raw(&r, n).0;
        }
        return r;
    }
    let mut r = [0u64; L];
    for i in (0..bits).rev() {
        // r = (r << 1) | value_bit(i); r stays < 2n, no overflow.
        let mut carry = bit_raw(value, i) as u64;
        for w in r.iter_mut() {
            let nc = *w >> 63;
            *w = (*w << 1) | carry;
            carry = nc;
        }
        debug_assert_eq!(carry, 0);
        if cmp_raw(&r, n) != Ordering::Less {
            r = sub_raw(&r, n).0;
        }
    }
    r
}

/// ⌈2^m / n⌉ − 1 for the curve's field degree m: the number of
/// conditional subtractions of n that reduce any value below 2^m. A
/// public constant of the curve.
fn field_reduction_rounds<C: CurveSpec>() -> usize {
    let mut pow = [0u64; L];
    pow[C::Field::M / 64] = 1 << (C::Field::M % 64);
    let mut multiple = C::ORDER;
    let mut rounds = 0;
    while cmp_raw(&multiple, &pow) == Ordering::Less {
        multiple = add_raw(&multiple, &C::ORDER).0;
        rounds += 1;
    }
    rounds
}

/// An integer modulo the subgroup order `n` of curve `C`.
///
/// # Example
///
/// ```
/// use medsec_ec::{Scalar, K163};
/// let a = Scalar::<K163>::from_u64(7);
/// let b = Scalar::<K163>::from_u64(11);
/// assert_eq!(a * b, Scalar::from_u64(77));
/// assert_eq!(a - a, Scalar::zero());
/// ```
pub struct Scalar<C: CurveSpec> {
    limbs: [u64; L],
    _curve: PhantomData<C>,
}

impl<C: CurveSpec> Scalar<C> {
    /// The additive identity.
    pub fn zero() -> Self {
        Self::from_raw([0; L])
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    fn from_raw(limbs: [u64; L]) -> Self {
        Self {
            limbs,
            _curve: PhantomData,
        }
    }

    /// Scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        let mut l = [0u64; L];
        l[0] = v;
        Self::from_raw(mod_wide(&l, &C::ORDER))
    }

    /// Scalar from raw limbs, reduced modulo n.
    pub fn from_limbs_mod_order(l: [u64; L]) -> Self {
        Self::from_raw(mod_wide(&l, &C::ORDER))
    }

    /// Scalar from big-endian bytes, reduced modulo n. Accepts any length
    /// up to 64 bytes.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 bytes are supplied.
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 64, "scalar encoding too long");
        let mut wide = [0u64; 8];
        for (i, &b) in bytes.iter().rev().enumerate() {
            wide[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Self::from_raw(mod_wide(&wide, &C::ORDER))
    }

    /// Scalar from the limbs of a value below 2^m, for m the degree of
    /// the curve's field — an x-coordinate — reduced modulo n by
    /// ⌈2^m / n⌉ − 1 masked conditional subtractions of n, a count
    /// fixed by the curve: 1 on the toy curve and the 163-bit curves, 3
    /// on K-233 and 4 on K-283.
    ///
    /// The value must be below 2^m, as every canonical field element
    /// is (checked in debug builds only: the check would branch on the
    /// value).
    pub(crate) fn from_field_limbs(x: &[u64; L]) -> Self {
        debug_assert!(bitlen_raw(x) <= C::Field::M, "value exceeds the field");
        let rounds = field_reduction_rounds::<C>();
        let mut r = *x;
        for _ in 0..rounds {
            // lint: ct-begin — the borrow steers a mask.
            let (diff, borrow) = sub_raw(&r, &C::ORDER);
            r = select_raw(ct_mask_u64(borrow), &r, &diff);
            // lint: ct-end
        }
        Self::from_raw(r)
    }

    /// Fixed byte width of the big-endian encoding:
    /// `ceil(bitlen(n)/8)` bytes. Every consumer of the wire format
    /// sizes scalar frames from this single (const-evaluable) definition.
    pub const fn byte_len() -> usize {
        let mut i = L;
        while i > 0 {
            i -= 1;
            if C::ORDER[i] != 0 {
                let bits = 64 * i + 64 - C::ORDER[i].leading_zeros() as usize;
                return bits.div_ceil(8);
            }
        }
        0
    }

    /// Fixed-width big-endian encoding (`ceil(bitlen(n)/8)` bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; Self::byte_len()];
        self.to_bytes_into(&mut out);
        out
    }

    /// Write the fixed-width big-endian encoding into `out` without
    /// allocating — the wire codec frames thousands of scalars per batch
    /// and must not pay one `Vec` each.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::byte_len()`.
    pub fn to_bytes_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::byte_len(), "encoding width mismatch");
        for (i, b) in out.iter_mut().rev().enumerate() {
            *b = (self.limbs[i / 8] >> (8 * (i % 8))) as u8;
        }
    }

    /// Raw little-endian limbs of the canonical representative.
    pub fn limbs(&self) -> &[u64; L] {
        &self.limbs
    }

    /// Whether this is zero mod n.
    pub fn is_zero(&self) -> bool {
        is_zero_raw(&self.limbs)
    }

    /// Bit `i` of the canonical representative.
    pub fn bit(&self, i: usize) -> bool {
        i < 64 * L && bit_raw(&self.limbs, i)
    }

    /// Bit length of the canonical representative.
    pub fn bit_len(&self) -> usize {
        bitlen_raw(&self.limbs)
    }

    /// Uniformly random nonzero scalar (rejection sampling).
    pub fn random_nonzero(mut next_u64: impl FnMut() -> u64) -> Self {
        let nbits = bitlen_raw(&C::ORDER);
        loop {
            let mut l = [0u64; L];
            for (i, w) in l.iter_mut().enumerate() {
                if i * 64 < nbits {
                    *w = next_u64();
                }
            }
            let top = nbits % 64;
            let words = nbits.div_ceil(64);
            if top != 0 {
                l[words - 1] &= (1u64 << top) - 1;
            }
            if !is_zero_raw(&l) && cmp_raw(&l, &C::ORDER) == Ordering::Less {
                return Self::from_raw(l);
            }
        }
    }

    /// The odd representative of k: k when k is odd, else k + n (n is
    /// odd), chosen by a masked addition. `k'·G = k·G` either way, and
    /// `k' < 2n`. The regular comb recodes this ([`crate::comb`]).
    pub(crate) fn odd_limbs(&self) -> [u64; L] {
        // lint: ct-begin — the parity steers a mask.
        let even = (self.limbs[0] & 1) ^ 1;
        add_raw(&self.limbs, &and_raw(&C::ORDER, even.wrapping_neg())).0
        // lint: ct-end
    }

    /// Modular exponentiation `self^e` where `e` is given as raw limbs.
    pub fn pow_limbs(&self, e: &[u64; L]) -> Self {
        let mut acc = Self::one();
        for i in (0..bitlen_raw(e)).rev() {
            acc = acc * acc;
            if bit_raw(e, i) {
                acc *= *self;
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat (requires n prime, which holds
    /// for every curve in this crate). Returns `None` for zero.
    pub fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let mut two = [0u64; L];
        two[0] = 2;
        let (nm2, borrow) = sub_raw(&C::ORDER, &two);
        debug_assert!(!borrow);
        let inv = self.pow_limbs(&nm2);
        debug_assert_eq!(inv * *self, Self::one());
        Some(inv)
    }

    /// The fixed-length bit pattern `k'' = k + c·n` (with
    /// `c = `[`CurveSpec::LADDER_MULTIPLE`]) used by the constant-length
    /// Montgomery ladder: `k''·P = k·P` and `k''` always has exactly
    /// [`CurveSpec::LADDER_BITS`] bits, so the ladder executes the same
    /// number of iterations for every key — the paper's algorithm-level
    /// timing countermeasure (§7). `c = 2` for every curve whose order
    /// sits just above a power of two; K-283's order sits just *below*
    /// one, so it needs `c = 3` for `[c·n, (c+1)·n)` to avoid a
    /// power-of-two boundary.
    ///
    /// Returned most-significant bit first; `bits[0]` is always `true`.
    pub fn ladder_bits(&self) -> Vec<bool> {
        let mut factor = [0u64; L];
        factor[0] = C::LADDER_MULTIPLE;
        let wide = mul_wide(&C::ORDER, &factor);
        debug_assert!(wide[L..].iter().all(|&w| w == 0), "ladder shift overflow");
        let mut shift = [0u64; L];
        shift.copy_from_slice(&wide[..L]);
        let (kpp, c1) = add_raw(&self.limbs, &shift);
        debug_assert!(!c1);
        let t = C::LADDER_BITS;
        debug_assert_eq!(
            bitlen_raw(&kpp),
            t,
            "LADDER_BITS inconsistent with curve order"
        );
        (0..t).rev().map(|i| bit_raw(&kpp, i)).collect()
    }
}

impl<C: CurveSpec> Clone for Scalar<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: CurveSpec> Copy for Scalar<C> {}

impl<C: CurveSpec> PartialEq for Scalar<C> {
    fn eq(&self, other: &Self) -> bool {
        self.limbs == other.limbs
    }
}
impl<C: CurveSpec> Eq for Scalar<C> {}

impl<C: CurveSpec> core::hash::Hash for Scalar<C> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.limbs.hash(state);
    }
}

impl<C: CurveSpec> Default for Scalar<C> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<C: CurveSpec> PartialOrd for Scalar<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<C: CurveSpec> Ord for Scalar<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_raw(&self.limbs, &other.limbs)
    }
}

impl<C: CurveSpec> fmt::Debug for Scalar<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar<{}>(", C::NAME)?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl<C: CurveSpec> fmt::Display for Scalar<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        write!(f, "0x")?;
        for nib in (0..16 * L).rev() {
            let v = (self.limbs[nib / 16] >> (4 * (nib % 16))) & 0xf;
            if v != 0 || started || nib == 0 {
                started = true;
                write!(f, "{v:x}")?;
            }
        }
        Ok(())
    }
}

impl<C: CurveSpec> core::ops::Add for Scalar<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        // lint: ct-begin — a + b < 2n < 2^320, so the sum never
        // carries; the borrow of sum − n picks the result by mask.
        let (sum, _) = add_raw(&self.limbs, &rhs.limbs);
        let (diff, borrow) = sub_raw(&sum, &C::ORDER);
        Self::from_raw(select_raw(ct_mask_u64(borrow), &sum, &diff))
        // lint: ct-end
    }
}

impl<C: CurveSpec> core::ops::AddAssign for Scalar<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<C: CurveSpec> core::ops::Sub for Scalar<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        // lint: ct-begin — the borrow of a − b masks the n added back.
        let (diff, borrow) = sub_raw(&self.limbs, &rhs.limbs);
        Self::from_raw(add_raw(&diff, &and_raw(&C::ORDER, ct_mask_u64(borrow))).0)
        // lint: ct-end
    }
}

impl<C: CurveSpec> core::ops::SubAssign for Scalar<C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<C: CurveSpec> core::ops::Neg for Scalar<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::zero() - self
    }
}

impl<C: CurveSpec> core::ops::Mul for Scalar<C> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let wide = mul_wide(&self.limbs, &rhs.limbs);
        Self::from_raw(mod_wide(&wide, &C::ORDER))
    }
}

impl<C: CurveSpec> core::ops::MulAssign for Scalar<C> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Toy17, B163, K163, K233, K283};

    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
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
    fn parse_hex_limbs_basic() {
        assert_eq!(parse_hex_limbs::<4>("ff"), [0xff, 0, 0, 0]);
        assert_eq!(
            parse_hex_limbs::<4>("10000000000000000"),
            [0, 1, 0, 0] // 2^64
        );
        assert_eq!(
            parse_hex_limbs::<4>("4000000000000000000020108A2E0CC0D99F8A5EF"),
            [
                0xA2E0_CC0D_99F8_A5EF,
                0x0000_0000_0002_0108,
                0x4_0000_0000,
                0
            ]
        );
    }

    #[test]
    fn small_integer_ring_ops() {
        type S = Scalar<K163>;
        assert_eq!(S::from_u64(3) + S::from_u64(4), S::from_u64(7));
        assert_eq!(S::from_u64(10) - S::from_u64(4), S::from_u64(6));
        assert_eq!(S::from_u64(6) * S::from_u64(7), S::from_u64(42));
        assert_eq!(S::from_u64(5) - S::from_u64(5), S::zero());
        // Wraparound: (n - 1) + 2 == 1.
        let n_minus_1 = S::zero() - S::one();
        assert_eq!(n_minus_1 + S::from_u64(2), S::one());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut r = rng_from(1);
        for _ in 0..16 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            assert_eq!(a + (-a), Scalar::zero());
        }
    }

    #[test]
    fn inverse_round_trip() {
        let mut r = rng_from(2);
        for _ in 0..8 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            let inv = a.inverse().unwrap();
            assert_eq!(a * inv, Scalar::one());
        }
        assert_eq!(Scalar::<K163>::zero().inverse(), None);
    }

    #[test]
    fn bytes_round_trip() {
        let mut r = rng_from(3);
        for _ in 0..16 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            let bytes = a.to_bytes();
            assert_eq!(bytes.len(), 21); // ceil(163/8)
            assert_eq!(Scalar::<K163>::from_bytes_mod_order(&bytes), a);
        }
    }

    #[test]
    fn from_bytes_reduces() {
        // 64 bytes of 0xff is far beyond n and must reduce without panic.
        let big = [0xffu8; 64];
        let s = Scalar::<K163>::from_bytes_mod_order(&big);
        assert!(s.bit_len() <= 163);
    }

    #[test]
    fn ladder_bits_constant_length_and_msb_set() {
        let mut r = rng_from(4);
        for _ in 0..32 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            let bits = a.ladder_bits();
            assert_eq!(bits.len(), K163::LADDER_BITS);
            assert!(bits[0], "ladder MSB must always be 1");
        }
        // Including the all-zero scalar (k'' = 2n).
        let bits = Scalar::<K163>::zero().ladder_bits();
        assert_eq!(bits.len(), K163::LADDER_BITS);
        assert!(bits[0]);
    }

    #[test]
    fn random_scalars_are_below_order() {
        let mut r = rng_from(5);
        for _ in 0..64 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            assert!(!a.is_zero());
            assert!(cmp_raw(a.limbs(), &K163::ORDER) == Ordering::Less);
        }
    }

    /// The operators as they were before the masked selection: branches
    /// on the carry and borrow.
    fn add_branching<C: CurveSpec>(a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let (sum, _) = add_raw(a, b);
        if cmp_raw(&sum, &C::ORDER) != Ordering::Less {
            sub_raw(&sum, &C::ORDER).0
        } else {
            sum
        }
    }

    fn sub_branching<C: CurveSpec>(a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let (diff, borrow) = sub_raw(a, b);
        if borrow {
            add_raw(&diff, &C::ORDER).0
        } else {
            diff
        }
    }

    /// 0, 1, 2, n − 1, n − 2 and the two halves of n, whose sums cross n
    /// or land just below it.
    fn edge_scalars<C: CurveSpec>() -> Vec<Scalar<C>> {
        let n = C::ORDER;
        let half = shr_raw(&n, 1);
        [0u64, 1, 2]
            .map(Scalar::from_u64)
            .into_iter()
            .chain([1u64, 2].map(|k| Scalar::zero() - Scalar::from_u64(k)))
            .chain([half, add_raw(&half, &[1, 0, 0, 0, 0]).0].map(Scalar::from_raw))
            .collect()
    }

    fn masked_ops_match_branching<C: CurveSpec>(seed: u64) {
        let mut r = rng_from(seed);
        let mut xs = edge_scalars::<C>();
        xs.extend((0..24).map(|_| Scalar::<C>::random_nonzero(&mut r)));
        for a in &xs {
            for b in &xs {
                let (al, bl) = (a.limbs(), b.limbs());
                assert_eq!((*a + *b).limbs, add_branching::<C>(al, bl), "{a} + {b}");
                assert_eq!((*a - *b).limbs, sub_branching::<C>(al, bl), "{a} - {b}");
                let wide: [u64; L] = add_raw(al, bl).0;
                assert_eq!((*a + *b).limbs, mod_wide(&wide, &C::ORDER), "{a} + {b}");
            }
            let zero = [0u64; L];
            assert_eq!((-*a).limbs, sub_branching::<C>(&zero, a.limbs()), "-{a}");
            // The comb's odd representative: k, or k + n for even k.
            let odd = a.odd_limbs();
            assert_eq!(odd[0] & 1, 1, "{a}");
            let expect = if a.limbs[0] & 1 == 1 {
                a.limbs
            } else {
                add_raw(&a.limbs, &C::ORDER).0
            };
            assert_eq!(odd, expect, "{a}");
        }
    }

    #[test]
    fn masked_add_sub_neg_match_branching_operators() {
        masked_ops_match_branching::<K163>(11);
        masked_ops_match_branching::<B163>(12);
        masked_ops_match_branching::<K233>(13);
        masked_ops_match_branching::<K283>(14);
        masked_ops_match_branching::<Toy17>(15);
    }

    /// Every multiple c·n, and c·n ± 1, below 2^m, 2^m − 1, and random
    /// values below 2^m.
    fn field_reduction_matches_mod_wide<C: CurveSpec>(seed: u64, rounds: usize) {
        assert_eq!(field_reduction_rounds::<C>(), rounds, "{}", C::NAME);
        let m = C::Field::M;
        let mut top = [0u64; L];
        top[m / 64] = 1 << (m % 64);
        let pow_minus_one = sub_raw(&top, &[1, 0, 0, 0, 0]).0;
        let mut xs = vec![[0u64; L], [1, 0, 0, 0, 0], pow_minus_one];
        let mut multiple = [0u64; L];
        while cmp_raw(&multiple, &top) == Ordering::Less {
            for v in [
                sub_raw(&multiple, &[1, 0, 0, 0, 0]).0,
                multiple,
                add_raw(&multiple, &[1, 0, 0, 0, 0]).0,
            ] {
                if cmp_raw(&v, &top) == Ordering::Less {
                    xs.push(v);
                }
            }
            multiple = add_raw(&multiple, &C::ORDER).0;
        }
        let mut r = rng_from(seed);
        xs.extend((0..200).map(|_| *medsec_gf2m::Element::<C::Field>::random(&mut r).limbs()));
        for x in &xs {
            assert_eq!(
                Scalar::<C>::from_field_limbs(x).limbs,
                mod_wide(x, &C::ORDER),
                "{} x={x:x?}",
                C::NAME
            );
        }
    }

    #[test]
    fn field_reduction_takes_the_curves_count_and_matches_mod_wide() {
        field_reduction_matches_mod_wide::<Toy17>(21, 1);
        field_reduction_matches_mod_wide::<K163>(22, 1);
        field_reduction_matches_mod_wide::<B163>(23, 1);
        field_reduction_matches_mod_wide::<K233>(24, 3);
        field_reduction_matches_mod_wide::<K283>(25, 4);
    }

    #[test]
    fn display_renders_hex() {
        assert_eq!(format!("{}", Scalar::<K163>::from_u64(0x2a)), "0x2a");
        assert_eq!(format!("{}", Scalar::<K163>::zero()), "0x0");
    }
}
