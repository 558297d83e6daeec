//! τ-adic variable-base scalar multiplication for Koblitz curves. No
//! serving path calls it: every server entry point in
//! [`crate::varbase`] runs the protected ladder. The engine stays only
//! because perfbench's `ec.tnaf_*` probes call it by name.
//!
//! The paper's chip deliberately rejects Solinas' τ-adic expansions: on
//! the implant, constant operation flow (the Montgomery ladder) beats
//! raw speed because SPA is in the threat model (§4, §7). The reader
//! holds secrets in the same place: the Peeters–Hermans reader's
//! long-term key y and the mutual server's ephemeral keys are scalars
//! of its variable-base multiplications, and this engine reads its
//! odd-multiple table at indices given by the recoded digits of the
//! scalar. The gateway therefore runs the ladder too, in lockstep over
//! each batch, which is also the faster of the two at batch width.
//!
//! The engine exploits the curve structure [`crate::frobenius`]
//! verifies: on a Koblitz curve (`a ∈ {0, 1}`, `b = 1`) the field
//! Frobenius lifts to the curve endomorphism `τ(x, y) = (x², y²)` with
//! `τ² − μτ + 2 = 0`, `μ = (−1)^(1−a)`, and squaring is nearly free in
//! F(2^m). A width-w τ-adic NAF replaces every ladder step (≈5 field
//! multiplications per scalar bit) with one τ (three squarings) plus a
//! sparse stream of mixed additions.
//!
//! Pipeline, following Solinas (and Hankerson–Menezes–Vanstone §3.4):
//!
//! 1. **Partial reduction** (`partmod`): reduce the integer scalar k
//!    modulo `δ = (τ^m − 1)/(τ − 1)` by rounding division in Z\[τ\],
//!    using exact multi-limb integer arithmetic (`SInt`). Since
//!    `δ·P = O` for every point P of the prime-order subgroup, the
//!    reduced element ρ = ρ₀ + ρ₁τ (norm ≈ n) satisfies ρ·P = k·P
//!    while its τ-adic expansion has length ≈ m instead of 2m.
//! 2. **Width-w recoding** (`recode`): emit signed odd digits
//!    `u ∈ (−2^(w−1), 2^(w−1))` with at least w − 1 zeros between
//!    nonzero digits, via the ring homomorphism
//!    `φ_w : r₀ + r₁τ ↦ r₀ + r₁·t_w (mod 2^w)` whose kernel is the
//!    ideal (τ^w). Digits are plain integers, so the precomputed table
//!    is the classical odd-multiples table {P, 3P, …} (termination of
//!    this variant is pinned by an exhaustive small-remainder test).
//! 3. **Evaluation**: Horner over τ in López–Dahab projective
//!    coordinates — τ squares the three coordinates, nonzero digits
//!    pay one mixed addition — with every normalization deferred to a
//!    batched inversion.
//!
//! Correctness caveat: `ρ ≡ k (mod δ)` guarantees `ρ·P = k·P` for P in
//! the **prime-order subgroup** (all protocol points: generator
//! multiples, public keys, commitments). Points with a cofactor
//! component are off-contract, exactly as for x-only ladder outputs.

use std::any::{Any, TypeId};
use std::sync::Arc;

use medsec_gf2m::{batch_invert, Element, FieldSpec, Registry};

use crate::curve::{CurveSpec, Point};
use crate::proj::{add_affine_batch, batch_to_affine, tau_batch, LdPoint, PointScratch};
use crate::scalar::Scalar;

/// Window width for variable-base tables (built per call: the table is
/// `2^(W_VAR−2)` odd multiples of the base).
pub const W_VAR: usize = 4;

/// Window width for the cached fixed-base generator table
/// (`2^(W_GEN−2)` points, built once per curve per process).
///
/// Width 5 is the widest for which the plain-integer-digit recoding
/// below provably terminates (pinned exhaustively in the tests — at
/// w = 6 the small-remainder tail can cycle, which is why Solinas'
/// full algorithm switches to minimal-norm α_u representatives there).
pub const W_GEN: usize = 5;

/// Whether curve `C` is Koblitz (`a ∈ {0, 1}`, `b = 1`), i.e. whether
/// the Frobenius endomorphism is usable for scalar multiplication.
pub fn is_koblitz<C: CurveSpec>() -> bool {
    let a = C::a();
    C::b() == Element::one() && (a == Element::zero() || a == Element::one())
}

// ---------------------------------------------------------------------
// Signed multi-limb integers (512-bit magnitude) for exact Z[τ] work.
// ---------------------------------------------------------------------

const SLIMBS: usize = 8;

/// A signed integer with a 512-bit magnitude — wide enough for every
/// intermediate of the rounding division `k·conj(δ)/n` (≤ ~2^424 for
/// K-283). Sign-magnitude keeps the carry logic trivial; none of this
/// runs per curve operation, only once per scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SInt {
    neg: bool,
    mag: [u64; SLIMBS],
}

impl SInt {
    pub(crate) fn zero() -> Self {
        Self {
            neg: false,
            mag: [0; SLIMBS],
        }
    }

    pub(crate) fn from_u64(v: u64) -> Self {
        let mut mag = [0u64; SLIMBS];
        mag[0] = v;
        Self { neg: false, mag }
    }

    pub(crate) fn from_i64(v: i64) -> Self {
        let mut s = Self::from_u64(v.unsigned_abs());
        s.neg = v < 0;
        s.norm()
    }

    pub(crate) fn from_limbs(l: &[u64]) -> Self {
        assert!(l.len() <= SLIMBS, "value too wide");
        let mut mag = [0u64; SLIMBS];
        mag[..l.len()].copy_from_slice(l);
        Self { neg: false, mag }
    }

    fn norm(mut self) -> Self {
        if self.mag.iter().all(|&w| w == 0) {
            self.neg = false;
        }
        self
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.mag.iter().all(|&w| w == 0)
    }

    pub(crate) fn is_odd(&self) -> bool {
        self.mag[0] & 1 == 1
    }

    fn bits(&self) -> usize {
        for (i, &w) in self.mag.iter().enumerate().rev() {
            if w != 0 {
                return 64 * i + 64 - w.leading_zeros() as usize;
            }
        }
        0
    }

    pub(crate) fn neg(mut self) -> Self {
        self.neg = !self.neg;
        self.norm()
    }

    fn cmp_mag(a: &[u64; SLIMBS], b: &[u64; SLIMBS]) -> core::cmp::Ordering {
        for i in (0..SLIMBS).rev() {
            match a[i].cmp(&b[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }

    fn add_mag(a: &[u64; SLIMBS], b: &[u64; SLIMBS]) -> [u64; SLIMBS] {
        let mut out = [0u64; SLIMBS];
        let mut carry = false;
        for i in 0..SLIMBS {
            let (s, c1) = a[i].overflowing_add(b[i]);
            let (s, c2) = s.overflowing_add(carry as u64);
            out[i] = s;
            carry = c1 | c2;
        }
        assert!(!carry, "SInt magnitude overflow");
        out
    }

    /// `a − b` for `a ≥ b`.
    fn sub_mag(a: &[u64; SLIMBS], b: &[u64; SLIMBS]) -> [u64; SLIMBS] {
        let mut out = [0u64; SLIMBS];
        let mut borrow = false;
        for i in 0..SLIMBS {
            let (d, b1) = a[i].overflowing_sub(b[i]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            out[i] = d;
            borrow = b1 | b2;
        }
        debug_assert!(!borrow, "sub_mag underflow");
        out
    }

    pub(crate) fn add(&self, o: &Self) -> Self {
        if self.neg == o.neg {
            return Self {
                neg: self.neg,
                mag: Self::add_mag(&self.mag, &o.mag),
            }
            .norm();
        }
        match Self::cmp_mag(&self.mag, &o.mag) {
            core::cmp::Ordering::Less => Self {
                neg: o.neg,
                mag: Self::sub_mag(&o.mag, &self.mag),
            }
            .norm(),
            _ => Self {
                neg: self.neg,
                mag: Self::sub_mag(&self.mag, &o.mag),
            }
            .norm(),
        }
    }

    pub(crate) fn sub(&self, o: &Self) -> Self {
        self.add(&o.neg())
    }

    pub(crate) fn mul(&self, o: &Self) -> Self {
        let mut wide = [0u64; 2 * SLIMBS];
        for i in 0..SLIMBS {
            if self.mag[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..SLIMBS {
                let t = wide[i + j] as u128 + self.mag[i] as u128 * o.mag[j] as u128 + carry;
                wide[i + j] = t as u64;
                carry = t >> 64;
            }
            if i + SLIMBS < 2 * SLIMBS {
                wide[i + SLIMBS] = carry as u64;
            } else {
                assert_eq!(carry, 0, "SInt product overflow");
            }
        }
        assert!(
            wide[SLIMBS..].iter().all(|&w| w == 0),
            "SInt product overflow"
        );
        let mut mag = [0u64; SLIMBS];
        mag.copy_from_slice(&wide[..SLIMBS]);
        Self {
            neg: self.neg != o.neg,
            mag,
        }
        .norm()
    }

    /// Exact halving (the value must be even).
    pub(crate) fn half(&self) -> Self {
        debug_assert!(!self.is_odd(), "half of odd value");
        let mut mag = [0u64; SLIMBS];
        for (i, m) in mag.iter_mut().enumerate() {
            *m = self.mag[i] >> 1;
            if i + 1 < SLIMBS {
                *m |= self.mag[i + 1] << 63;
            }
        }
        Self { neg: self.neg, mag }.norm()
    }

    /// The value modulo 2^w, as a non-negative residue in `[0, 2^w)`.
    /// Only meaningful for `w ≤ 16` (digit extraction).
    pub(crate) fn mod_pow2(&self, w: usize) -> u64 {
        debug_assert!(w <= 16);
        let mask = (1u64 << w) - 1;
        let low = self.mag[0] & mask;
        if self.neg && low != 0 {
            (1u64 << w) - low
        } else {
            low
        }
    }

    /// Floor division of magnitudes: `(|self| / |d|, |self| mod |d|)`.
    ///
    /// Shift-subtract over a limb window sized to the divisor (the
    /// remainder never exceeds `2·d`), so a 163-bit divisor costs
    /// 3-limb inner operations even though the numerator spans eight.
    fn div_rem_mag(&self, d: &Self) -> ([u64; SLIMBS], [u64; SLIMBS]) {
        assert!(!d.is_zero(), "division by zero");
        let window = d.bits() / 64 + 1; // r < 2d fits here
        let mut q = [0u64; SLIMBS];
        let mut r = [0u64; SLIMBS];
        for i in (0..self.bits()).rev() {
            // r = (r << 1) | bit_i(self), over the window only.
            let mut carry = (self.mag[i / 64] >> (i % 64)) & 1;
            for w in r.iter_mut().take(window) {
                let nc = *w >> 63;
                *w = (*w << 1) | carry;
                carry = nc;
            }
            debug_assert_eq!(carry, 0);
            let ge = {
                let mut ord = core::cmp::Ordering::Equal;
                for j in (0..window).rev() {
                    match r[j].cmp(&d.mag[j]) {
                        core::cmp::Ordering::Equal => continue,
                        o => {
                            ord = o;
                            break;
                        }
                    }
                }
                ord != core::cmp::Ordering::Less
            };
            if ge {
                let mut borrow = false;
                for (rw, &dw) in r.iter_mut().zip(&d.mag).take(window) {
                    let (w, b1) = rw.overflowing_sub(dw);
                    let (w, b2) = w.overflowing_sub(borrow as u64);
                    *rw = w;
                    borrow = b1 | b2;
                }
                debug_assert!(!borrow);
                q[i / 64] |= 1 << (i % 64);
            }
        }
        (q, r)
    }

    /// Division rounded to the nearest integer (ties away from zero);
    /// `d` must be positive.
    pub(crate) fn div_round(&self, d: &Self) -> Self {
        assert!(!d.neg, "div_round expects a positive divisor");
        let (mut q, r) = self.div_rem_mag(d);
        // Round up when 2r ≥ d.
        let mut r2 = [0u64; SLIMBS];
        let mut carry = 0u64;
        for (dst, &src) in r2.iter_mut().zip(&r) {
            *dst = (src << 1) | carry;
            carry = src >> 63;
        }
        assert_eq!(carry, 0);
        if Self::cmp_mag(&r2, &d.mag) != core::cmp::Ordering::Less {
            // q += 1 on the magnitude.
            let one = Self::from_u64(1);
            q = Self::add_mag(&q, &one.mag);
        }
        Self {
            neg: self.neg,
            mag: q,
        }
        .norm()
    }

    /// Exact division (panics in debug builds if a remainder is left);
    /// `d` must be positive.
    #[cfg(test)]
    pub(crate) fn div_exact(&self, d: &Self) -> Self {
        let (q, r) = self.div_rem_mag(d);
        debug_assert!(r.iter().all(|&w| w == 0), "div_exact with remainder");
        Self {
            neg: self.neg,
            mag: q,
        }
        .norm()
    }

    /// The value as `i64` (panics if out of range).
    pub(crate) fn to_i64(self) -> i64 {
        assert!(self.bits() <= 63, "SInt does not fit i64");
        let v = self.mag[0] as i64;
        if self.neg {
            -v
        } else {
            v
        }
    }
}

// ---------------------------------------------------------------------
// Per-curve τ-adic parameters.
// ---------------------------------------------------------------------

/// Lucas-like sequence `U_0 = 0, U_1 = 1, U_{i+1} = μ·U_i − 2·U_{i−1}`,
/// satisfying `τ^i = U_i·τ − 2·U_{i−1}`.
pub(crate) fn lucas_u(mu: i64, upto: usize) -> Vec<SInt> {
    let mut u = Vec::with_capacity(upto + 1);
    u.push(SInt::zero());
    if upto >= 1 {
        u.push(SInt::from_u64(1));
    }
    let m = SInt::from_i64(mu);
    let two = SInt::from_u64(2);
    for i in 2..=upto {
        let next = m.mul(&u[i - 1]).sub(&two.mul(&u[i - 2]));
        u.push(next);
    }
    u
}

/// Companion Lucas sequence `V_0 = 2, V_1 = μ, V_{i+1} = μ·V_i − 2·V_{i−1}`
/// — the trace of Frobenius of F(2^i)-rational points, giving
/// `#E(F(2^m)) = 2^m + 1 − V_m`.
#[cfg(test)]
pub(crate) fn lucas_v(mu: i64, upto: usize) -> Vec<SInt> {
    let mut v = Vec::with_capacity(upto + 1);
    v.push(SInt::from_u64(2));
    if upto >= 1 {
        v.push(SInt::from_i64(mu));
    }
    let m = SInt::from_i64(mu);
    let two = SInt::from_u64(2);
    for i in 2..=upto {
        let next = m.mul(&v[i - 1]).sub(&two.mul(&v[i - 2]));
        v.push(next);
    }
    v
}

/// τ-adic constants of one Koblitz curve, computed once per curve per
/// process (exactly — no floating point, no transcribed magic numbers).
#[derive(Debug)]
pub(crate) struct TnafParams {
    /// Trace sign μ = ±1.
    pub(crate) mu: i64,
    /// δ = r0 + r1·τ = (τ^m − 1)/(τ − 1); its norm is the subgroup
    /// order n (checked at construction).
    pub(crate) r0: SInt,
    pub(crate) r1: SInt,
    /// The subgroup order n as an exact integer.
    pub(crate) order: SInt,
    /// `t_w` per supported width: `τ ≡ t_w` under
    /// `φ_w : Z[τ] → Z/2^w`, i.e. `t_w² + 2 ≡ μ·t_w (mod 2^w)`.
    tw: [u64; MAX_W + 1],
}

/// Widest recoding window supported: the plain-integer-digit scheme is
/// termination-checked per width, and w = 5 is its proven ceiling.
const MAX_W: usize = 5;

impl TnafParams {
    fn build<C: CurveSpec>() -> Self {
        assert!(is_koblitz::<C>(), "{} is not a Koblitz curve", C::NAME);
        let mu: i64 = if C::a() == Element::one() { 1 } else { -1 };
        let m = C::Field::M;
        let u = lucas_u(mu, m);
        // δ = Σ_{j=0}^{m−1} τ^j with τ^j = U_j·τ − 2·U_{j−1} (τ^0 = 1):
        //   r1 = Σ_{j=1}^{m−1} U_j,  r0 = 1 − 2·Σ_{j=1}^{m−1} U_{j−1}.
        let mut r1 = SInt::zero();
        let mut s = SInt::zero();
        for j in 1..m {
            r1 = r1.add(&u[j]);
            s = s.add(&u[j - 1]);
        }
        let r0 = SInt::from_u64(1).sub(&SInt::from_u64(2).mul(&s));
        let order = SInt::from_limbs(&C::ORDER);
        // Self-check: N(δ) = r0² + μ·r0·r1 + 2·r1² must equal n — this
        // ties the τ-adic constants to the curve's ORDER constant, so a
        // transcription error in either cannot survive.
        let norm = norm_ztau(mu, &r0, &r1);
        assert!(
            norm == order,
            "N(delta) != subgroup order on {} — inconsistent curve constants",
            C::NAME
        );
        // t_w for every width we may use: t ≡ 2·U_{w−1}·U_w⁻¹ (mod 2^w)
        // (U_w is odd for w ≥ 1, hence invertible).
        let mut tw = [0u64; MAX_W + 1];
        for (w, slot) in tw.iter_mut().enumerate().skip(2).take(MAX_W - 1) {
            let modulus = 1u64 << w;
            let uw = u[w].to_i64().rem_euclid(modulus as i64) as u64;
            let uw1 = u[w - 1].to_i64().rem_euclid(modulus as i64) as u64;
            let inv = inv_mod_pow2(uw, w);
            let t = (2 * uw1 % modulus) * inv % modulus;
            debug_assert_eq!(
                (t * t + 2) % modulus,
                (mu.rem_euclid(modulus as i64) as u64 * t) % modulus,
                "t_w fails the characteristic equation"
            );
            *slot = t;
        }
        Self {
            mu,
            r0,
            r1,
            order,
            tw,
        }
    }

    pub(crate) fn t_w(&self, w: usize) -> u64 {
        assert!((2..=MAX_W).contains(&w), "unsupported recoding width {w}");
        self.tw[w]
    }
}

/// N(a + bτ) = a² + μ·a·b + 2·b².
pub(crate) fn norm_ztau(mu: i64, a: &SInt, b: &SInt) -> SInt {
    let ab = a.mul(b);
    let mixed = if mu == 1 { ab } else { ab.neg() };
    a.mul(a).add(&mixed).add(&SInt::from_u64(2).mul(&b.mul(b)))
}

/// Inverse of an odd `a` modulo 2^w (Newton iteration on the 2-adics).
fn inv_mod_pow2(a: u64, w: usize) -> u64 {
    debug_assert!(a & 1 == 1);
    let modulus_mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut x = 1u64;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x & modulus_mask
}

/// Process-wide cache of [`TnafParams`] per curve.
pub(crate) fn params<C: CurveSpec>() -> Option<Arc<TnafParams>> {
    if !is_koblitz::<C>() {
        return None;
    }
    static REGISTRY: Registry<TypeId, Arc<TnafParams>> = Registry::new();
    Some(REGISTRY.get_or_insert_with(TypeId::of::<C>(), || Arc::new(TnafParams::build::<C>())))
}

// ---------------------------------------------------------------------
// Partial reduction and width-w recoding.
// ---------------------------------------------------------------------

/// Solinas partial reduction: the minimal-norm representative
/// `ρ = k mod δ` via rounding division in Z[τ]:
/// `q = round(k·conj(δ)/N(δ))`, `ρ = k − q·δ`.
pub(crate) fn partmod(p: &TnafParams, k: &SInt) -> (SInt, SInt) {
    // conj(δ) = (r0 + μ·r1) − r1·τ.
    let c0 = if p.mu == 1 {
        p.r0.add(&p.r1)
    } else {
        p.r0.sub(&p.r1)
    };
    let q0 = k.mul(&c0).div_round(&p.order);
    let q1 = k.mul(&p.r1).div_round(&p.order).neg();
    // q·δ = (q0·r0 − 2·q1·r1) + (q0·r1 + q1·r0 + μ·q1·r1)·τ.
    let qd0 = q0.mul(&p.r0).sub(&SInt::from_u64(2).mul(&q1.mul(&p.r1)));
    let mixed = q1.mul(&p.r1);
    let mixed = if p.mu == 1 { mixed } else { mixed.neg() };
    let qd1 = q0.mul(&p.r1).add(&q1.mul(&p.r0)).add(&mixed);
    (k.sub(&qd0), qd1.neg())
}

/// Width-w τNAF recoding of `ρ = r0 + r1·τ`, least-significant digit
/// first. Digits are odd integers in `(−2^(w−1), 2^(w−1))` or zero,
/// with at least `w − 1` zeros after every nonzero digit (kernel
/// property of φ_w). Termination of the plain-integer-digit variant is
/// pinned by the exhaustive small-remainder test below.
pub(crate) fn recode(p: &TnafParams, mut r0: SInt, mut r1: SInt, w: usize) -> Vec<i16> {
    let tw = p.t_w(w);
    let modulus = 1u64 << w;
    let half = 1u64 << (w - 1);
    let mut digits = Vec::with_capacity(r0.bits().max(r1.bits()) + 2 * w + 8);
    // Generous bound: expansion length ≈ log2 N(ρ) + w + small tail.
    let cap = 2 * (r0.bits().max(r1.bits()) + 8) + 2 * w + 64;
    while !(r0.is_zero() && r1.is_zero()) {
        assert!(digits.len() <= cap, "tau-adic recoding failed to converge");
        if r0.is_odd() {
            let low = (r0.mod_pow2(w) + r1.mod_pow2(w) * tw) % modulus;
            let u: i64 = if low >= half {
                low as i64 - modulus as i64
            } else {
                low as i64
            };
            debug_assert_eq!(u.rem_euclid(2), 1, "t_w must be even, so u is odd");
            r0 = r0.sub(&SInt::from_i64(u));
            digits.push(u as i16);
        } else {
            digits.push(0);
        }
        // Divide by τ: (r0 + r1·τ)/τ = (r1 + μ·r0/2) − (r0/2)·τ.
        let h = r0.half();
        let new_r0 = if p.mu == 1 { r1.add(&h) } else { r1.sub(&h) };
        r1 = h.neg();
        r0 = new_r0;
    }
    // Drop the zero tail so evaluation starts at the top nonzero digit.
    while digits.last() == Some(&0) {
        digits.pop();
    }
    digits
}

/// Recode a scalar for curve `C`: partial reduction then width-w τNAF.
pub(crate) fn recode_scalar<C: CurveSpec>(p: &TnafParams, k: &Scalar<C>, w: usize) -> Vec<i16> {
    let kk = SInt::from_limbs(k.limbs());
    let (r0, r1) = partmod(p, &kk);
    recode(p, r0, r1, w)
}

// ---------------------------------------------------------------------
// Tables and evaluation.
// ---------------------------------------------------------------------

/// Projective odd multiples `[P, 3P, 5P, …, (2·count−1)·P]`, built from
/// doublings and mixed additions only (no general projective-projective
/// addition needed). The caller batch-normalizes.
fn odd_multiples_proj<C: CurveSpec>(p: &Point<C>, count: usize) -> Vec<LdPoint<C>> {
    let b = C::b();
    // memo[n − 1] = n·P; one flat slot per multiple up to 2·count − 1
    // (this runs once per scalar on the serving hot path — no maps).
    let mut memo: Vec<Option<LdPoint<C>>> = vec![None; 2 * count - 1];
    memo[0] = Some(LdPoint::from_affine(p));
    fn get<C: CurveSpec>(
        n: usize,
        p: &Point<C>,
        b: Element<C::Field>,
        memo: &mut [Option<LdPoint<C>>],
    ) -> LdPoint<C> {
        if let Some(v) = memo[n - 1] {
            return v;
        }
        let v = if n.is_multiple_of(2) {
            get(n / 2, p, b, memo).double(b)
        } else {
            get(n - 1, p, b, memo).add_affine(p, b)
        };
        memo[n - 1] = Some(v);
        v
    }
    (0..count)
        .map(|i| get(2 * i + 1, p, b, &mut memo))
        .collect()
}

/// Affine odd multiples, normalized with one batched inversion.
fn odd_multiples<C: CurveSpec>(p: &Point<C>, count: usize) -> Vec<Point<C>> {
    batch_to_affine(&odd_multiples_proj(p, count))
}

/// Shared affine generator table (`2^(W_GEN−2)` odd multiples of G),
/// cached per curve like [`crate::comb::generator_comb`].
fn generator_table<C: CurveSpec>() -> Arc<Vec<Point<C>>> {
    static REGISTRY: Registry<TypeId, Arc<dyn Any + Send + Sync>> = Registry::new();
    REGISTRY
        .get_or_insert_with(TypeId::of::<C>(), || {
            Arc::new(odd_multiples(&C::generator(), 1 << (W_GEN - 2)))
        })
        .downcast::<Vec<Point<C>>>()
        .expect("registry entry has the curve's type")
}

/// Normalize per-item projective tables to affine with **one** shared
/// inversion across the whole batch (both batch entry points feed
/// their variable-base tables through here).
fn normalize_tables<C: CurveSpec>(tables_proj: Vec<Vec<LdPoint<C>>>) -> Vec<Vec<Point<C>>> {
    let mut zs: Vec<Element<C::Field>> = tables_proj
        .iter()
        .flat_map(|t| t.iter().map(|e| e.z))
        .collect();
    batch_invert(&mut zs);
    let mut zit = zs.into_iter();
    tables_proj
        .into_iter()
        .map(|t| {
            t.into_iter()
                .map(|e| e.to_affine_with_zinv(zit.next().expect("one z per entry")))
                .collect()
        })
        .collect()
}

/// One digit stream over one affine table.
struct Stream<'a, C: CurveSpec> {
    digits: &'a [i16],
    table: &'a [Point<C>],
}

/// Lockstep Horner evaluation of a whole batch of τNAF accumulators,
/// each driven by one or more digit streams (`item_streams[i]` are the
/// streams of accumulator `i`). Per position, `τ` is applied to every
/// accumulator in one [`tau_batch`] (three batched squarings), then
/// each stream *slot* contributes one [`add_affine_batch`] over the
/// accumulators whose digit at that position is nonzero — slots keep
/// accumulator indices distinct within a jobs list. All field work runs
/// on the plane-major batch entry points.
fn eval_streams_batch<C: CurveSpec>(item_streams: &[Vec<Stream<'_, C>>]) -> Vec<LdPoint<C>> {
    let b = C::b();
    let len = item_streams
        .iter()
        .flat_map(|ss| ss.iter().map(|s| s.digits.len()))
        .max()
        .unwrap_or(0);
    let slots = item_streams.iter().map(|ss| ss.len()).max().unwrap_or(0);
    let mut accs = vec![LdPoint::<C>::infinity(); item_streams.len()];
    let mut scratch = PointScratch::default();
    let mut jobs: Vec<(usize, Point<C>)> = Vec::new();
    for i in (0..len).rev() {
        tau_batch(&mut accs, &mut scratch);
        for slot in 0..slots {
            jobs.clear();
            for (a, ss) in item_streams.iter().enumerate() {
                let Some(s) = ss.get(slot) else { continue };
                let Some(&u) = s.digits.get(i) else { continue };
                if u == 0 {
                    continue;
                }
                let idx = (u.unsigned_abs() as usize) / 2;
                let entry = s.table[idx];
                jobs.push((a, if u > 0 { entry } else { -entry }));
            }
            add_affine_batch(&mut accs, &jobs, b, &mut scratch);
        }
    }
    accs
}

// ---------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------

/// `k·P` by width-[`W_VAR`] τNAF.
///
/// # Panics
///
/// Panics if `C` is not a Koblitz curve (see [`is_koblitz`]); the
/// strategy seam in [`crate::varbase`] never routes such curves here.
pub fn tnaf_mul<C: CurveSpec>(k: &Scalar<C>, p: &Point<C>) -> Point<C> {
    tnaf_mul_batch(core::slice::from_ref(&(*k, *p)))
        .pop()
        .expect("one result per input")
}

/// Batched `k_i·P_i`, sharing one inversion for all tables and one for
/// all results (the serving-side contract: two Itoh–Tsujii chains per
/// batch regardless of batch size).
pub fn tnaf_mul_batch<C: CurveSpec>(items: &[(Scalar<C>, Point<C>)]) -> Vec<Point<C>> {
    batch_to_affine(&tnaf_mul_batch_proj(items))
}

/// Batched `k_i·P_i` returning only affine x-coordinates (`None` for
/// the point at infinity) — the ECDH shared-secret shape, mirroring
/// [`crate::ladder::batch_x_affine`].
pub fn tnaf_x_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
) -> Vec<Option<Element<C::Field>>> {
    let mut out = Vec::with_capacity(items.len());
    tnaf_x_batch_with(
        items,
        &mut crate::ladder::XAffineScratch::default(),
        &mut out,
    );
    out
}

/// [`tnaf_x_batch`] with caller-owned normalization scratch — the
/// hub-worker shape: the final `x·Z⁻¹` pass reuses the worker's
/// [`XAffineScratch`](crate::ladder::XAffineScratch) buffers across
/// batches. `out` is cleared and refilled.
pub fn tnaf_x_batch_with<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    scratch: &mut crate::ladder::XAffineScratch,
    out: &mut Vec<Option<Element<C::Field>>>,
) {
    let accs = tnaf_mul_batch_proj(items);
    scratch.x_over_z::<C::Field>(accs.iter().map(|a| (a.x, a.z)), out);
}

fn tnaf_mul_batch_proj<C: CurveSpec>(items: &[(Scalar<C>, Point<C>)]) -> Vec<LdPoint<C>> {
    let p = params::<C>().expect("tnaf on a non-Koblitz curve");
    let count = 1 << (W_VAR - 2);
    // Phase 1: recode every scalar and build every table projectively.
    let mut digit_sets = Vec::with_capacity(items.len());
    let mut tables_proj = Vec::with_capacity(items.len());
    for (k, base) in items {
        digit_sets.push(recode_scalar::<C>(&p, k, W_VAR));
        tables_proj.push(odd_multiples_proj(base, count));
    }
    // Phase 2: one inversion normalizes every table entry of the batch.
    let tables = normalize_tables(tables_proj);
    // Phase 3: lockstep batched evaluation (projective; caller
    // normalizes results).
    let streams: Vec<Vec<Stream<'_, C>>> = digit_sets
        .iter()
        .zip(&tables)
        .map(|(digits, table)| vec![Stream { digits, table }])
        .collect();
    eval_streams_batch(&streams)
}

/// `a·G + b·Q` in one interleaved (Strauss) pass: both scalars are
/// τNAF-recoded and evaluated under **shared** τ applications — the
/// Schnorr / Peeters–Hermans verification shape, replacing one
/// fixed-base multiplication, one full ladder and one affine addition
/// (an inversion) per verification.
pub fn tnaf_mul_add_gen<C: CurveSpec>(a: &Scalar<C>, b: &Scalar<C>, q: &Point<C>) -> Point<C> {
    tnaf_mul_add_gen_batch(core::slice::from_ref(&(*a, *b, *q)))
        .pop()
        .expect("one result per input")
}

/// Batched `a_i·G + b_i·Q_i`: the generator table is the process-wide
/// cached one; the per-item Q tables share one batched inversion, the
/// results another.
pub fn tnaf_mul_add_gen_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Scalar<C>, Point<C>)],
) -> Vec<Point<C>> {
    let p = params::<C>().expect("tnaf on a non-Koblitz curve");
    let gen_table = generator_table::<C>();
    let count = 1 << (W_VAR - 2);
    let mut gen_digits = Vec::with_capacity(items.len());
    let mut var_digits = Vec::with_capacity(items.len());
    let mut tables_proj = Vec::with_capacity(items.len());
    for (a, b, q) in items {
        gen_digits.push(recode_scalar::<C>(&p, a, W_GEN));
        var_digits.push(recode_scalar::<C>(&p, b, W_VAR));
        tables_proj.push(odd_multiples_proj(q, count));
    }
    let tables = normalize_tables(tables_proj);
    let streams: Vec<Vec<Stream<'_, C>>> = (0..items.len())
        .map(|i| {
            vec![
                Stream {
                    digits: &gen_digits[i],
                    table: &gen_table,
                },
                Stream {
                    digits: &var_digits[i],
                    table: &tables[i],
                },
            ]
        })
        .collect();
    batch_to_affine(&eval_streams_batch(&streams))
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
    fn sint_arithmetic_basics() {
        let a = SInt::from_i64(-7);
        let b = SInt::from_u64(3);
        assert_eq!(a.add(&b), SInt::from_i64(-4));
        assert_eq!(a.mul(&b), SInt::from_i64(-21));
        assert_eq!(a.sub(&b), SInt::from_i64(-10));
        assert_eq!(SInt::from_i64(-8).half(), SInt::from_i64(-4));
        assert_eq!(SInt::from_i64(-5).mod_pow2(4), 11); // −5 ≡ 11 (mod 16)
        assert_eq!(
            SInt::from_u64(29).div_round(&SInt::from_u64(10)).to_i64(),
            3
        );
        assert_eq!(
            SInt::from_u64(25).div_round(&SInt::from_u64(10)).to_i64(),
            3
        );
        assert_eq!(
            SInt::from_i64(-29).div_round(&SInt::from_u64(10)).to_i64(),
            -3
        );
        assert_eq!(SInt::from_u64(42).div_exact(&SInt::from_u64(7)).to_i64(), 6);
        assert!(SInt::zero().is_zero() && !SInt::zero().neg);
    }

    /// Recompute every Koblitz curve's subgroup order from scratch
    /// (#E = 2^m + 1 − V_m, n = #E/h) and pin it against the ORDER
    /// constant — a transcribed-constant error cannot survive this.
    #[test]
    fn koblitz_orders_match_lucas_point_count() {
        fn check<C: CurveSpec>() {
            let mu = if C::a() == Element::one() { 1 } else { -1 };
            let m = C::Field::M;
            let v = lucas_v(mu, m);
            // 2^m as an SInt.
            let mut pow = [0u64; 5];
            pow[m / 64] = 1u64 << (m % 64);
            let e = SInt::from_limbs(&pow).add(&SInt::from_u64(1)).sub(&v[m]);
            let n = e.div_exact(&SInt::from_u64(C::COFACTOR));
            assert_eq!(
                n,
                SInt::from_limbs(&C::ORDER),
                "{}: ORDER constant does not match point count",
                C::NAME
            );
        }
        check::<K163>();
        check::<K233>();
        check::<K283>();
        check::<Toy17>();
    }

    #[test]
    fn koblitz_detection() {
        assert!(is_koblitz::<K163>());
        assert!(is_koblitz::<K233>());
        assert!(is_koblitz::<K283>());
        assert!(is_koblitz::<Toy17>());
        assert!(!is_koblitz::<B163>());
        assert!(params::<B163>().is_none());
    }

    /// Exhaustive termination of the plain-integer-digit recoding over
    /// the full reachable tail-state space. The norm argument: one
    /// round (subtract u, divide by τ^w across the zero run) maps
    /// √N ↦ (√N + 2^(w−1))/2^(w/2), which strictly decreases while
    /// N > ~16 — so every trajectory enters the region below, and every
    /// state there is checked directly.
    #[test]
    fn recoding_terminates_on_all_small_remainders() {
        for (mu_curve, name) in [(1i64, "mu=+1"), (-1i64, "mu=-1")] {
            let p = if mu_curve == 1 {
                params::<K163>().unwrap()
            } else {
                params::<K233>().unwrap()
            };
            for w in 2..=MAX_W {
                for a in -64i64..=64 {
                    for b in -64i64..=64 {
                        let digits = recode(&p, SInt::from_i64(a), SInt::from_i64(b), w);
                        assert!(
                            digits.len() <= 2 * (7 + 8) + 2 * w + 64,
                            "{name} w={w} ({a},{b}) suspiciously long"
                        );
                    }
                }
            }
        }
    }

    /// Digit-stream structure: odd bounded digits with w−1 zeros after
    /// every nonzero digit.
    #[test]
    fn recoded_digits_are_sparse_odd_and_bounded() {
        let p = params::<K163>().unwrap();
        let mut r = rng_from(91);
        for w in [W_VAR, W_GEN] {
            for _ in 0..8 {
                let k = Scalar::<K163>::random_nonzero(&mut r);
                let digits = recode_scalar::<K163>(&p, &k, w);
                // Length ≈ m + small tail.
                assert!(digits.len() <= 163 + 24, "w={w} len={}", digits.len());
                let bound = 1i16 << (w - 1);
                let mut last_nonzero: Option<usize> = None;
                for (i, &u) in digits.iter().enumerate() {
                    if u == 0 {
                        continue;
                    }
                    assert!(u.abs() < bound && u.rem_euclid(2) == 1, "digit {u}");
                    if let Some(j) = last_nonzero {
                        assert!(i - j >= w, "digits {j} and {i} too close for w={w}");
                    }
                    last_nonzero = Some(i);
                }
            }
        }
    }

    /// Partial reduction leaves a representative whose norm is of the
    /// order of n (not n²), which is what caps expansion length at ≈ m.
    #[test]
    fn partmod_reduces_norm_to_order_scale() {
        let p = params::<K163>().unwrap();
        let mut r = rng_from(92);
        for _ in 0..16 {
            let k = Scalar::<K163>::random_nonzero(&mut r);
            let (r0, r1) = partmod(&p, &SInt::from_limbs(k.limbs()));
            let n = norm_ztau(p.mu, &r0, &r1);
            // N(ρ) ≤ N(δ) for rounding error e with N(e) ≤ 1; allow 2×.
            assert!(
                n.bits() <= p.order.bits() + 1,
                "norm {} bits vs order {} bits",
                n.bits(),
                p.order.bits()
            );
        }
    }

    /// End-to-end τNAF against brute force on the exhaustively counted
    /// toy curve — Toy17 is itself Koblitz (a = b = 1 over F(2^17)), so
    /// the engine internals can be validated against
    /// `mul_double_and_add` even though the server seam never selects
    /// τNAF for a 17-bit curve.
    #[test]
    fn toy_tnaf_matches_brute_force() {
        let g = Toy17::generator();
        for k in (0u64..65587).step_by(271).chain([0, 1, 2, 65585, 65586]) {
            let s = Scalar::<Toy17>::from_u64(k);
            assert_eq!(tnaf_mul(&s, &g), g.mul_double_and_add(&s), "k={k}");
        }
    }

    #[test]
    fn toy_tnaf_mul_add_matches_brute_force() {
        let g = Toy17::generator();
        let mut r = rng_from(93);
        for _ in 0..64 {
            let a = Scalar::<Toy17>::random_nonzero(&mut r);
            let b = Scalar::<Toy17>::random_nonzero(&mut r);
            let q = g.mul_double_and_add(&Scalar::<Toy17>::random_nonzero(&mut r));
            let expect = g.mul_double_and_add(&a) + q.mul_double_and_add(&b);
            assert_eq!(tnaf_mul_add_gen(&a, &b, &q), expect);
        }
    }

    #[test]
    fn tnaf_edge_scalars_and_bases() {
        let g = Toy17::generator();
        assert_eq!(tnaf_mul(&Scalar::zero(), &g), Point::Infinity);
        assert_eq!(tnaf_mul(&Scalar::one(), &g), g);
        let n_minus_1 = Scalar::<Toy17>::zero() - Scalar::one();
        assert_eq!(tnaf_mul(&n_minus_1, &g), -g);
        // Base at infinity.
        assert_eq!(
            tnaf_mul(&Scalar::from_u64(5), &Point::<Toy17>::infinity()),
            Point::Infinity
        );
        // mul_add with zero halves.
        assert_eq!(tnaf_mul_add_gen(&Scalar::zero(), &Scalar::one(), &g), g);
        assert_eq!(tnaf_mul_add_gen(&Scalar::one(), &Scalar::zero(), &g), g);
    }

    #[test]
    fn batch_apis_match_singles() {
        let g = Toy17::generator();
        let mut r = rng_from(94);
        let items: Vec<(Scalar<Toy17>, Point<Toy17>)> = (0..9)
            .map(|_| {
                let k = Scalar::random_nonzero(&mut r);
                let p = g.mul_double_and_add(&Scalar::<Toy17>::random_nonzero(&mut r));
                (k, p)
            })
            .collect();
        let batch = tnaf_mul_batch(&items);
        let xs = tnaf_x_batch(&items);
        for ((k, p), (got, x)) in items.iter().zip(batch.iter().zip(&xs)) {
            assert_eq!(*got, tnaf_mul(k, p));
            assert_eq!(*x, got.x());
        }
        assert!(tnaf_mul_batch::<Toy17>(&[]).is_empty());
        assert!(tnaf_mul_add_gen_batch::<Toy17>(&[]).is_empty());
    }
}
