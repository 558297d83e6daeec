//! Curve specifications and the affine group law for binary Weierstrass
//! curves `y² + xy = x³ + a·x² + b` over F(2^m) (paper Eq. 1).

use core::fmt;

use medsec_gf2m::{Element, FieldSpec};

use crate::scalar::Scalar;

/// Compile-time description of a named binary elliptic curve.
///
/// Implementors are zero-sized marker types (see [`crate::K163`],
/// [`crate::B163`], [`crate::Toy17`]). All constants are validated by the
/// test-suite: the generator must satisfy the curve equation and
/// `n·G = O`.
pub trait CurveSpec:
    Copy + Clone + Eq + PartialEq + core::hash::Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Field the curve is defined over.
    type Field: FieldSpec;
    /// Human-readable name, e.g. `"K-163"`.
    const NAME: &'static str;
    /// Order n of the prime-order base-point subgroup (little-endian limbs).
    const ORDER: [u64; crate::scalar::SCALAR_LIMBS];
    /// Curve cofactor h (`#E = h·n`).
    const COFACTOR: u64;
    /// Multiple `c` such that `k + c·n` has the same bit-length for every
    /// `k < n` — the representative the constant-length ladder processes.
    /// `c = 2` whenever n lies just above a power of two (all NIST orders
    /// except K-283's, which lies just below one and needs `c = 3`).
    const LADDER_MULTIPLE: u64 = 2;
    /// Fixed bit-length of `k + LADDER_MULTIPLE·n` for every `k < n`; the
    /// constant-length Montgomery ladder runs `LADDER_BITS - 1`
    /// iterations (timing countermeasure, paper §7).
    const LADDER_BITS: usize;
    /// Curve coefficient a.
    fn a() -> Element<Self::Field>;
    /// Curve coefficient b (must be nonzero for a non-singular curve).
    fn b() -> Element<Self::Field>;
    /// Base point G of order [`ORDER`](Self::ORDER).
    fn generator() -> Point<Self>;
}

/// A point on curve `C`, affine or the point at infinity.
///
/// # Example
///
/// ```
/// use medsec_ec::{CurveSpec, Point, K163};
/// let g = K163::generator();
/// assert!(g.is_on_curve());
/// assert_eq!(g + (-g), Point::infinity());
/// ```
#[derive(Default)]
pub enum Point<C: CurveSpec> {
    /// The neutral element of the group.
    #[default]
    Infinity,
    /// An affine point (x, y) satisfying the curve equation.
    Affine {
        /// x-coordinate.
        x: Element<C::Field>,
        /// y-coordinate.
        y: Element<C::Field>,
    },
}

impl<C: CurveSpec> Point<C> {
    /// The point at infinity (group identity).
    pub fn infinity() -> Self {
        Point::Infinity
    }

    /// Construct an affine point without checking the curve equation.
    /// Prefer [`Point::new`] unless the coordinates are already trusted.
    pub fn from_xy_unchecked(x: Element<C::Field>, y: Element<C::Field>) -> Self {
        Point::Affine { x, y }
    }

    /// Construct an affine point, verifying the curve equation.
    pub fn new(x: Element<C::Field>, y: Element<C::Field>) -> Option<Self> {
        let p = Point::Affine { x, y };
        p.is_on_curve().then_some(p)
    }

    /// Whether this is the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// x-coordinate, or `None` at infinity.
    pub fn x(&self) -> Option<Element<C::Field>> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, .. } => Some(*x),
        }
    }

    /// y-coordinate, or `None` at infinity.
    pub fn y(&self) -> Option<Element<C::Field>> {
        match self {
            Point::Infinity => None,
            Point::Affine { y, .. } => Some(*y),
        }
    }

    /// Check `y² + xy == x³ + a·x² + b` (infinity is on every curve).
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = y.square() + *x * *y;
                let x2 = x.square();
                let rhs = x2 * *x + C::a() * x2 + C::b();
                lhs == rhs
            }
        }
    }

    /// Point doubling.
    ///
    /// For binary curves, `2·(x, y)` with `x != 0` uses
    /// `λ = x + y/x`, `x₃ = λ² + λ + a`, `y₃ = x² + (λ+1)·x₃`.
    /// A point with `x = 0` is its own negative (order 2), so doubling
    /// yields infinity.
    pub fn double(&self) -> Self {
        match self {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => {
                if x.is_zero() {
                    return Point::Infinity;
                }
                let lambda = *x + *y * x.inverse().expect("x nonzero");
                let x3 = lambda.square() + lambda + C::a();
                let y3 = x.square() + (lambda + Element::one()) * x3;
                Point::Affine { x: x3, y: y3 }
            }
        }
    }

    /// Scalar multiplication by unprotected left-to-right double-and-add.
    ///
    /// This is the deliberately *insecure baseline* of the paper's
    /// security analysis: the operation sequence (and running time over
    /// varying bit-lengths) depends on the key, enabling SPA and timing
    /// attacks. Use [`crate::ladder::ladder_mul`] for the protected path.
    pub fn mul_double_and_add(&self, k: &Scalar<C>) -> Self {
        let mut acc = Point::Infinity;
        for i in (0..k.bit_len()).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc += *self;
            }
        }
        acc
    }

    /// Byte length of the [`compress`](Self::compress) encoding: the
    /// packed x-coordinate plus one tag byte. Every consumer of the
    /// wire format sizes its frames from this single definition.
    pub const fn compressed_len() -> usize {
        C::Field::M.div_ceil(8) + 1
    }

    /// Compressed encoding: the x-coordinate plus one bit disambiguating
    /// y, following the standard binary-curve rule (the bit is
    /// `Tr(y/x)`... here concretely the parity bit `z₀` of `z = y/x`).
    /// Infinity encodes as an all-zero string with tag 0xff.
    pub fn compress(&self) -> Vec<u8> {
        let mut v = vec![0u8; Self::compressed_len()];
        self.compress_into(&mut v);
        v
    }

    /// Write the [`compress`](Self::compress) encoding into `out`
    /// without allocating — the serving path frames thousands of points
    /// per batch and must not pay one `Vec` each.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::compressed_len()`.
    pub fn compress_into(&self, out: &mut [u8]) {
        let xinv = match self {
            Point::Affine { x, .. } if !x.is_zero() => x.inverse().expect("x nonzero"),
            _ => Element::zero(),
        };
        self.compress_into_with_xinv(out, xinv);
    }

    /// [`compress_into`](Self::compress_into) with the x-coordinate's
    /// inverse supplied by the caller — the batched-compression hook:
    /// the y-parity bit costs `y/x`, and a serving batch shares one
    /// [`medsec_gf2m::batch_invert`] chain across every frame instead
    /// of paying one Itoh–Tsujii inversion per point. `xinv` is ignored
    /// (pass zero) for infinity or an `x = 0` point.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::compressed_len()`.
    pub fn compress_into_with_xinv(&self, out: &mut [u8], xinv: Element<C::Field>) {
        assert_eq!(out.len(), Self::compressed_len(), "encoding width");
        match self {
            Point::Infinity => {
                out.fill(0);
                out[0] = 0xff;
            }
            Point::Affine { x, y } => {
                out[0] = if x.is_zero() {
                    0u8
                } else {
                    debug_assert_eq!(*x * xinv, Element::one());
                    let z = *y * xinv;
                    u8::from(z.bit(0))
                };
                x.to_bytes_into(&mut out[1..]);
            }
        }
    }

    /// Decompress a point encoded by [`compress`](Self::compress).
    ///
    /// Returns `None` if the encoding is malformed (wrong width, unknown
    /// tag, a bit of x set at or above m) or x does not correspond to a
    /// point on the curve. Allocation-free — the per-frame device path
    /// decodes one point per session; batches should use
    /// [`decompress_batch`](Self::decompress_batch).
    pub fn decompress(bytes: &[u8]) -> Option<Self> {
        let (x, tag) = Self::decompress_parse(bytes)?;
        match tag {
            ParsedTag::Infinity => Some(Point::Infinity),
            ParsedTag::ZeroX => Some(Point::Affine {
                x,
                y: C::b().sqrt(),
            }),
            ParsedTag::Parity(parity) => {
                Self::decompress_solve(x, parity, x.square().inverse().expect("x nonzero"))
            }
        }
    }

    /// Decompress many encodings at once, sharing **one** field
    /// inversion across the whole batch (the `rhs/x²` division every
    /// non-trivial decompression needs).
    ///
    /// Error propagation is strictly per-entry: entry `i` of the result
    /// corresponds to `encodings[i]`, and a malformed or off-curve
    /// encoding yields `None` in *its own slot only* — it is excluded
    /// from the shared inversion before the chain is built, so one bad
    /// encoding can neither poison the batch nor shift a neighbouring
    /// entry onto the wrong inverse. Each entry decodes to exactly what
    /// [`decompress`](Self::decompress) would return for it alone.
    pub fn decompress_batch(encodings: &[&[u8]]) -> Vec<Option<Self>> {
        let mut out: Vec<Option<Self>> = vec![None; encodings.len()];
        // (result slot, x, parity tag) for entries that need the solve.
        // Malformed encodings never enter `live`, so the slot↔inverse
        // pairing below stays aligned no matter where they fall.
        let mut live: Vec<(usize, Element<C::Field>, bool)> = Vec::new();
        let mut x2s: Vec<Element<C::Field>> = Vec::new();
        for (slot, &bytes) in encodings.iter().enumerate() {
            match Self::decompress_parse(bytes) {
                None => {}
                Some((_, ParsedTag::Infinity)) => out[slot] = Some(Point::Infinity),
                Some((x, ParsedTag::ZeroX)) => {
                    out[slot] = Some(Point::Affine {
                        x,
                        y: C::b().sqrt(),
                    })
                }
                Some((x, ParsedTag::Parity(parity))) => {
                    live.push((slot, x, parity));
                    x2s.push(x.square());
                }
            }
        }
        // One inversion chain for every x² in the batch. Every entry is
        // nonzero (x = 0 took the ZeroX arm), so all of them invert and
        // the positional zip with `live` is exact.
        let inverted = medsec_gf2m::batch_invert(&mut x2s);
        debug_assert_eq!(inverted, x2s.len(), "live x² entries must all be units");
        for ((slot, x, parity), x2inv) in live.into_iter().zip(x2s) {
            out[slot] = Self::decompress_solve(x, parity, x2inv);
        }
        out
    }

    /// Shared parsing front of [`decompress`](Self::decompress): width,
    /// tag and canonical-x checks plus the x-coordinate, classifying
    /// which solve (if any) the encoding needs. `None` means malformed.
    fn decompress_parse(bytes: &[u8]) -> Option<(Element<C::Field>, ParsedTag)> {
        if bytes.len() != Self::compressed_len() {
            return None;
        }
        let tag = bytes[0];
        if tag == 0xff {
            return bytes[1..]
                .iter()
                .all(|&b| b == 0)
                .then_some((Element::zero(), ParsedTag::Infinity));
        }
        if tag > 1 {
            return None;
        }
        // A canonical x has no bit at or above m. Reducing a longer one
        // would let 2^(8·ceil(m/8) − m) byte strings name the same point.
        let spare_bits = 8 * C::Field::M.div_ceil(8) - C::Field::M;
        if u32::from(bytes[1]) >> (8 - spare_bits) != 0 {
            return None;
        }
        let x = Element::<C::Field>::from_bytes_reduced(&bytes[1..]);
        if x.is_zero() {
            // y² = b → y = sqrt(b); the unique point with x = 0.
            return Some((x, ParsedTag::ZeroX));
        }
        Some((x, ParsedTag::Parity(tag == 1)))
    }

    /// Shared solving back of [`decompress`](Self::decompress): recover
    /// y from x and the parity bit, given `x⁻²` (computed solo or by a
    /// batch inversion). Solves `y² + xy = x³ + ax² + b` via
    /// `z² + z = rhs/x²` with `y = x·z`.
    fn decompress_solve(
        x: Element<C::Field>,
        parity: bool,
        x2inv: Element<C::Field>,
    ) -> Option<Self> {
        let x2 = x.square();
        let rhs = x2 * x + C::a() * x2 + C::b();
        let c = rhs * x2inv;
        let (z0, z1) = c.solve_quadratic()?;
        let z = if z0.bit(0) == parity { z0 } else { z1 };
        Some(Point::Affine { x, y: x * z })
    }
}

/// Classification of a compressed encoding after parsing.
enum ParsedTag {
    /// Canonical infinity encoding.
    Infinity,
    /// The unique x = 0 point (y = √b).
    ZeroX,
    /// Ordinary point; the payload is the y-parity bit.
    Parity(bool),
}

impl<C: CurveSpec> Clone for Point<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: CurveSpec> Copy for Point<C> {}

impl<C: CurveSpec> PartialEq for Point<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Point::Infinity, Point::Infinity) => true,
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                x1 == x2 && y1 == y2
            }
            _ => false,
        }
    }
}
impl<C: CurveSpec> Eq for Point<C> {}

impl<C: CurveSpec> core::hash::Hash for Point<C> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        match self {
            Point::Infinity => 0u8.hash(state),
            Point::Affine { x, y } => {
                1u8.hash(state);
                x.hash(state);
                y.hash(state);
            }
        }
    }
}

impl<C: CurveSpec> fmt::Debug for Point<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Point::Infinity => write!(f, "{}::O", C::NAME),
            Point::Affine { x, y } => write!(f, "{}::({x}, {y})", C::NAME),
        }
    }
}

impl<C: CurveSpec> core::ops::Neg for Point<C> {
    type Output = Self;
    /// On binary curves, `−(x, y) = (x, x + y)`.
    fn neg(self) -> Self {
        match self {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine { x, y: x + y },
        }
    }
}

impl<C: CurveSpec> core::ops::Add for Point<C> {
    type Output = Self;
    /// Full affine addition: `λ = (y₁+y₂)/(x₁+x₂)`,
    /// `x₃ = λ² + λ + x₁ + x₂ + a`, `y₃ = λ(x₁+x₃) + x₃ + y₁`.
    fn add(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Point::Infinity, q) => q,
            (p, Point::Infinity) => p,
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    return if y1 == y2 {
                        self.double()
                    } else {
                        // x equal but y different ⇒ Q = −P.
                        Point::Infinity
                    };
                }
                let lambda = (y1 + y2) * (x1 + x2).inverse().expect("x1 != x2");
                let x3 = lambda.square() + lambda + x1 + x2 + C::a();
                let y3 = lambda * (x1 + x3) + x3 + y1;
                Point::Affine { x: x3, y: y3 }
            }
        }
    }
}

impl<C: CurveSpec> core::ops::AddAssign for Point<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<C: CurveSpec> core::ops::Sub for Point<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl<C: CurveSpec> core::ops::SubAssign for Point<C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
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

    #[allow(clippy::eq_op)] // g + g and g − g are the point of the test
    fn check_group_basics<C: CurveSpec>() {
        let g = C::generator();
        assert!(g.is_on_curve(), "{} generator off-curve", C::NAME);
        let g2 = g.double();
        assert!(g2.is_on_curve());
        assert_eq!(g + g, g2);
        assert_eq!(g + Point::infinity(), g);
        assert_eq!(g - g, Point::infinity());
        let g3 = g2 + g;
        assert!(g3.is_on_curve());
        assert_eq!(g3 - g2, g);
        // Associativity spot-check: (G+G)+G == G+(G+G).
        assert_eq!(g2 + g, g + g2);
    }

    #[test]
    fn k163_group_basics() {
        check_group_basics::<K163>();
    }

    #[test]
    fn b163_group_basics() {
        check_group_basics::<B163>();
    }

    #[test]
    fn toy_group_basics() {
        check_group_basics::<Toy17>();
    }

    #[test]
    fn generator_has_declared_order() {
        // n·G = O and (n-1)·G = -G; run on the toy curve (fast) and K-163.
        fn check<C: CurveSpec>() {
            let g = C::generator();
            let n_minus_1 = Scalar::<C>::zero() - Scalar::one();
            let p = g.mul_double_and_add(&n_minus_1);
            assert_eq!(p, -g, "(n-1)G != -G on {}", C::NAME);
            assert_eq!(p + g, Point::infinity(), "nG != O on {}", C::NAME);
        }
        check::<Toy17>();
        check::<K163>();
        check::<B163>();
        check::<K233>();
        check::<K283>();
    }

    #[test]
    fn double_and_add_matches_repeated_addition() {
        let g = Toy17::generator();
        let mut acc = Point::infinity();
        for k in 0u64..32 {
            assert_eq!(g.mul_double_and_add(&Scalar::from_u64(k)), acc);
            acc += g;
        }
    }

    #[test]
    fn scalar_mul_is_additive_homomorphism() {
        let mut r = rng_from(20);
        let g = K163::generator();
        for _ in 0..4 {
            let a = Scalar::<K163>::random_nonzero(&mut r);
            let b = Scalar::<K163>::random_nonzero(&mut r);
            let lhs = g.mul_double_and_add(&(a + b));
            let rhs = g.mul_double_and_add(&a) + g.mul_double_and_add(&b);
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn compress_round_trip() {
        let mut r = rng_from(21);
        let g = K163::generator();
        for _ in 0..8 {
            let k = Scalar::<K163>::random_nonzero(&mut r);
            let p = g.mul_double_and_add(&k);
            let enc = p.compress();
            assert_eq!(enc.len(), 22);
            let q = Point::<K163>::decompress(&enc).unwrap();
            assert_eq!(p, q);
        }
        let inf_enc = Point::<K163>::infinity().compress();
        assert_eq!(
            Point::<K163>::decompress(&inf_enc).unwrap(),
            Point::infinity()
        );
    }

    #[test]
    fn decompress_rejects_malformed() {
        assert!(Point::<K163>::decompress(&[]).is_none());
        assert!(Point::<K163>::decompress(&[2u8; 22]).is_none());
        // Tag byte 0xff with nonzero payload is not canonical infinity.
        let mut bad = vec![0xffu8; 22];
        bad[5] = 1;
        assert!(Point::<K163>::decompress(&bad).is_none());
    }

    /// One invalid encoding in a batch rejects only its own slot: every
    /// other entry must decode to exactly what a solo `decompress`
    /// returns, no matter where the invalid entries fall. Invalid
    /// entries of every flavour ride along — wrong width, bad tag,
    /// off-curve x, corrupted infinity — interleaved with valid points,
    /// the canonical infinity encoding, and duplicates.
    #[test]
    fn decompress_batch_isolates_invalid_entries() {
        let mut r = rng_from(22);
        let g = K163::generator();
        let valid: Vec<Vec<u8>> = (0..6)
            .map(|_| {
                g.mul_double_and_add(&Scalar::<K163>::random_nonzero(&mut r))
                    .compress()
            })
            .collect();

        // An off-curve x: flip bits until decompression fails solo.
        let mut off_curve = valid[0].clone();
        let mut i = 1;
        while Point::<K163>::decompress(&off_curve).is_some() {
            off_curve = valid[0].clone();
            off_curve[1 + (i % 21)] ^= (i as u8) | 1;
            i += 1;
        }
        let mut bad_inf = vec![0xffu8; 22];
        bad_inf[5] = 1;

        let all_ff = [0xffu8; 22];
        let encodings: Vec<&[u8]> = vec![
            &off_curve, // invalid leading entry
            &valid[0],
            &[], // wrong width
            &valid[1],
            &[2u8; 22], // bad tag byte
            &valid[2],
            &bad_inf, // corrupted infinity
            &valid[3],
            &valid[3],  // duplicate of the previous entry
            &off_curve, // invalid interior repeat
            &valid[4],
            &all_ff,   // 0xff tag with a saturated (non-infinity) tail
            &valid[5], // valid trailing entry
        ];
        let batch = Point::<K163>::decompress_batch(&encodings);
        assert_eq!(batch.len(), encodings.len());
        for (slot, (&enc, got)) in encodings.iter().zip(&batch).enumerate() {
            assert_eq!(
                *got,
                Point::<K163>::decompress(enc),
                "slot {slot} diverged from solo decompress"
            );
        }
        // The specific contract: invalid slots are None, valid
        // neighbours are Some and on-curve.
        for slot in [0, 2, 4, 6, 9, 11] {
            assert!(batch[slot].is_none(), "slot {slot} should be rejected");
        }
        for slot in [1, 3, 5, 7, 8, 10, 12] {
            let p = batch[slot].expect("valid entry must decode");
            assert!(p.is_on_curve(), "slot {slot} off-curve");
        }
        // True canonical infinity in a batch still decodes.
        let inf_enc = Point::<K163>::infinity().compress();
        let with_inf = Point::<K163>::decompress_batch(&[&inf_enc, &off_curve, &valid[0]]);
        assert_eq!(with_inf[0], Some(Point::infinity()));
        assert_eq!(with_inf[1], None);
        assert_eq!(with_inf[2], Point::<K163>::decompress(&valid[0]));
    }

    /// Setting any spare bit above m in the x bytes of a valid encoding
    /// makes it non-canonical: refused solo, and in a mixed batch only
    /// its own slot is refused.
    fn rejects_non_canonical_x<C: CurveSpec>(seed: u64) {
        let mut r = rng_from(seed);
        let g = C::generator();
        let p = g.mul_double_and_add(&Scalar::<C>::random_nonzero(&mut r));
        let q = g.mul_double_and_add(&Scalar::<C>::random_nonzero(&mut r));
        let (enc, other) = (p.compress(), q.compress());
        let inf = Point::<C>::infinity().compress();
        let spare_bits = 8 * C::Field::M.div_ceil(8) - C::Field::M;
        assert!(spare_bits > 0, "{} has spare bits", C::NAME);
        for bit in 8 - spare_bits..8 {
            let mut bad = enc.clone();
            bad[1] |= 1 << bit;
            assert_eq!(Point::<C>::decompress(&bad), None, "{} bit {bit}", C::NAME);
            let batch = Point::<C>::decompress_batch(&[&other, &bad, &enc, &inf, &bad]);
            assert_eq!(
                batch,
                [Some(q), None, Some(p), Some(Point::infinity()), None],
                "{} bit {bit}",
                C::NAME
            );
        }
    }

    #[test]
    fn decompress_rejects_non_canonical_x_toy17() {
        rejects_non_canonical_x::<Toy17>(23);
    }

    #[test]
    fn decompress_rejects_non_canonical_x_k163() {
        rejects_non_canonical_x::<K163>(24);
    }

    #[test]
    fn decompress_rejects_non_canonical_x_b163() {
        rejects_non_canonical_x::<B163>(25);
    }

    #[test]
    fn decompress_rejects_non_canonical_x_k233() {
        rejects_non_canonical_x::<K233>(26);
    }

    #[test]
    fn decompress_rejects_non_canonical_x_k283() {
        rejects_non_canonical_x::<K283>(27);
    }

    #[test]
    fn negation_involutes() {
        let g = B163::generator();
        assert_eq!(-(-g), g);
        assert!((-g).is_on_curve());
    }

    #[test]
    fn point_validation() {
        let g = K163::generator();
        let (x, y) = (g.x().unwrap(), g.y().unwrap());
        assert!(Point::<K163>::new(x, y).is_some());
        assert!(Point::<K163>::new(x, y + Element::one()).is_none());
    }
}
