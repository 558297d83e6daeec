//! Shared López–Dahab projective point arithmetic: the scalar
//! doubling and mixed addition that build the fixed-base comb's table
//! (public multiples of G), and the batched ops that serve the τNAF
//! engine and [`add_pairs_batch`], the sum of the server's `mul_add`
//! terms. The comb's own column loop runs behind the field seam
//! ([`medsec_gf2m::FieldBackend::comb_batch`]), not here.
//!
//! Coordinates are `x = X/Z`, `y = Y/Z²`, with `Z = 0` encoding the
//! point at infinity. Everything here is *compute*-path code: the
//! add/double sequence depends on the data, so none of it may run on
//! the modeled implant hardware — the protected ladder in
//! [`crate::ladder`] stays the only device-side path.

use std::cell::RefCell;

use medsec_gf2m::{add_planes, batch_invert, mul_planes, sqr_planes, Element, Planes};

use crate::curve::{CurveSpec, Point};

/// A point in López–Dahab projective coordinates: `x = X/Z`,
/// `y = Y/Z²`; `Z = 0` encodes the point at infinity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LdPoint<C: CurveSpec> {
    pub(crate) x: Element<C::Field>,
    pub(crate) y: Element<C::Field>,
    pub(crate) z: Element<C::Field>,
}

impl<C: CurveSpec> LdPoint<C> {
    pub(crate) fn infinity() -> Self {
        Self {
            x: Element::one(),
            y: Element::zero(),
            z: Element::zero(),
        }
    }

    pub(crate) fn from_affine(p: &Point<C>) -> Self {
        match p {
            Point::Infinity => Self::infinity(),
            Point::Affine { x, y } => Self {
                x: *x,
                y: *y,
                z: Element::one(),
            },
        }
    }

    pub(crate) fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// The Frobenius endomorphism τ(x, y) = (x², y²) applied to the
    /// projective representative: squaring all three coordinates squares
    /// both `X/Z` and `Y/Z²`, so τ costs three field squarings and no
    /// multiplication.
    ///
    /// The τNAF engine batches this ([`tau_batch`]); the scalar form
    /// stays as the per-point oracle the batched op is pinned to.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn tau(&self) -> Self {
        Self {
            x: self.x.square(),
            y: self.y.square(),
            z: self.z.square(),
        }
    }

    /// López–Dahab doubling:
    /// `Z₃ = X₁²·Z₁²`, `X₃ = X₁⁴ + b·Z₁⁴`,
    /// `Y₃ = b·Z₁⁴·Z₃ + X₃·(a·Z₃ + Y₁² + b·Z₁⁴)`.
    ///
    /// Multiplications by the curve constants are elided when a ∈ {0, 1}
    /// or b = 1 (every curve here except B-163's `b`) — branches on
    /// curve constants, matching the coprocessor cost model.
    pub(crate) fn double(&self, b: Element<C::Field>) -> Self {
        if self.is_infinity() {
            return *self;
        }
        let x2 = self.x.square();
        let z2 = self.z.square();
        let z3 = x2 * z2;
        let bz4 = if b == Element::one() {
            z2.square()
        } else {
            b * z2.square()
        };
        let x3 = x2.square() + bz4;
        let y3 = bz4 * z3 + x3 * (mul_by_a::<C>(z3) + self.y.square() + bz4);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of an affine point `(x₂, y₂)` (López–Dahab):
    /// `A = Y₁ + y₂·Z₁²`, `B = X₁ + x₂·Z₁`, `C = B·Z₁`, `Z₃ = C²`,
    /// `D = x₂·Z₃`, `X₃ = A² + C·(A + B² + a·C)`,
    /// `Y₃ = (D + X₃)·(A·C + Z₃) + (y₂ + x₂)·Z₃²`.
    pub(crate) fn add_affine(&self, p: &Point<C>, b: Element<C::Field>) -> Self {
        let (px, py) = match p {
            Point::Infinity => return *self,
            Point::Affine { x, y } => (*x, *y),
        };
        if self.is_infinity() {
            return Self::from_affine(p);
        }
        let z1sq = self.z.square();
        let a = self.y + py * z1sq;
        let bb = self.x + px * self.z;
        if bb.is_zero() {
            // Same x: doubling if the y's also match, else P + (−P) = O.
            return if a.is_zero() {
                self.double(b)
            } else {
                Self::infinity()
            };
        }
        let c = bb * self.z;
        let z3 = c.square();
        let d = px * z3;
        let x3 = a.square() + c * (a + bb.square() + mul_by_a::<C>(c));
        let y3 = (d + x3) * (a * c + z3) + (py + px) * z3.square();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Affine conversion given `Z⁻¹` (batch-computed by the caller).
    pub(crate) fn to_affine_with_zinv(self, zinv: Element<C::Field>) -> Point<C> {
        if self.is_infinity() {
            return Point::Infinity;
        }
        Point::Affine {
            x: self.x * zinv,
            y: self.y * zinv.square(),
        }
    }
}

/// `a·v` for the curve coefficient a, eliding the carry-less multiply
/// when a ∈ {0, 1} (every curve in this workspace).
#[inline]
fn mul_by_a<C: CurveSpec>(v: Element<C::Field>) -> Element<C::Field> {
    let a = C::a();
    if a.is_zero() {
        Element::zero()
    } else if a == Element::one() {
        v
    } else {
        a * v
    }
}

/// Normalize a slice of projective points to affine with **one** shared
/// field inversion (Montgomery's trick).
pub(crate) fn batch_to_affine<C: CurveSpec>(points: &[LdPoint<C>]) -> Vec<Point<C>> {
    let mut zs: Vec<Element<C::Field>> = points.iter().map(|p| p.z).collect();
    batch_invert(&mut zs);
    points
        .iter()
        .zip(zs)
        .map(|(p, zinv)| p.to_affine_with_zinv(zinv))
        .collect()
}

/// Affine `p_i + q_i` for every pair: one batched mixed addition
/// ([`add_affine_batch`], each `p_i` lifted to projective with Z = 1)
/// and one shared inversion to normalize the sums. The addition's
/// scratch is thread-local and reused from call to call.
pub(crate) fn add_pairs_batch<C: CurveSpec>(ps: &[Point<C>], qs: &[Point<C>]) -> Vec<Point<C>> {
    thread_local! {
        static ADD_TLS: RefCell<PointScratch> = RefCell::default();
    }
    let mut acc: Vec<LdPoint<C>> = ps.iter().map(LdPoint::from_affine).collect();
    let jobs: Vec<(usize, Point<C>)> = qs.iter().copied().enumerate().collect();
    ADD_TLS.with(|cell| add_affine_batch(&mut acc, &jobs, C::b(), &mut cell.borrow_mut()));
    batch_to_affine(&acc)
}

/// Reusable SoA scratch for the batched LD point operations: a pool of
/// plane-major coordinate buffers plus a live-index list. Deliberately
/// non-generic (raw plane words only), so one instance serves batches
/// over every curve — [`add_pairs_batch`] keeps one per thread, the
/// τNAF engine one per call, and the buffers are reused across
/// columns/positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointScratch {
    idx: Vec<usize>,
    px: Planes,
    py: Planes,
    pz: Planes,
    qx: Planes,
    qy: Planes,
    t0: Planes,
    t1: Planes,
    t2: Planes,
    t3: Planes,
    t4: Planes,
}

/// τ applied to every accumulator at once: three batched squaring
/// planes over all points. Infinity needs no special-casing — its
/// representative (1, 0, 0) is a fixed point of coordinate squaring.
pub(crate) fn tau_batch<C: CurveSpec>(pts: &mut [LdPoint<C>], s: &mut PointScratch) {
    let n = pts.len();
    if n == 0 {
        return;
    }
    s.px.reset(n);
    s.py.reset(n);
    s.pz.reset(n);
    for (i, p) in pts.iter().enumerate() {
        s.px.set(i, &p.x);
        s.py.set(i, &p.y);
        s.pz.set(i, &p.z);
    }
    sqr_planes::<C::Field>(&mut s.t0, &s.px);
    sqr_planes::<C::Field>(&mut s.t1, &s.py);
    sqr_planes::<C::Field>(&mut s.t2, &s.pz);
    for (i, p) in pts.iter_mut().enumerate() {
        p.x = s.t0.get(i);
        p.y = s.t1.get(i);
        p.z = s.t2.get(i);
    }
}

/// Mixed addition of an affine point into selected accumulators, all
/// lanes at once: `jobs` pairs an accumulator index with the point to
/// add (indices must be distinct). The batch runs the generic-position
/// LD mixed-add formula; degenerate lanes — infinity on either side,
/// or a shared x coordinate (`B = 0`, doubling/cancellation) — drop to
/// the scalar [`LdPoint::add_affine`], which is exact for all of them.
pub(crate) fn add_affine_batch<C: CurveSpec>(
    pts: &mut [LdPoint<C>],
    jobs: &[(usize, Point<C>)],
    b: Element<C::Field>,
    s: &mut PointScratch,
) {
    s.idx.clear();
    for (j, (i, p)) in jobs.iter().enumerate() {
        match p {
            Point::Infinity => {}
            Point::Affine { .. } => {
                if pts[*i].is_infinity() {
                    pts[*i] = LdPoint::from_affine(p);
                } else {
                    s.idx.push(j);
                }
            }
        }
    }
    // Phase A: A = Y₁ + y₂·Z₁², B = X₁ + x₂·Z₁ for every lane; lanes
    // where B = 0 retire to the scalar path and the phase recomputes
    // over the survivors (B depends only on inputs, so one retry
    // settles it).
    loop {
        let k = s.idx.len();
        if k == 0 {
            return;
        }
        s.px.reset(k);
        s.py.reset(k);
        s.pz.reset(k);
        s.qx.reset(k);
        s.qy.reset(k);
        for (t, &j) in s.idx.iter().enumerate() {
            let (i, p) = &jobs[j];
            let Point::Affine { x, y } = p else {
                unreachable!("infinity operands filtered above")
            };
            s.px.set(t, &pts[*i].x);
            s.py.set(t, &pts[*i].y);
            s.pz.set(t, &pts[*i].z);
            s.qx.set(t, x);
            s.qy.set(t, y);
        }
        sqr_planes::<C::Field>(&mut s.t0, &s.pz); // Z₁²
        mul_planes::<C::Field>(&mut s.t1, &s.qy, &s.t0); // y₂·Z₁²
        add_planes(&mut s.t1, &s.py); // A
        mul_planes::<C::Field>(&mut s.t2, &s.qx, &s.pz); // x₂·Z₁
        add_planes(&mut s.t2, &s.px); // B
        let any_zero = (0..k).any(|t| s.t2.is_zero_at(t));
        if !any_zero {
            break;
        }
        let (idx, t2) = (&mut s.idx, &s.t2);
        let mut t = 0;
        idx.retain(|&j| {
            let degenerate = t2.is_zero_at(t);
            t += 1;
            if degenerate {
                let (i, p) = &jobs[j];
                pts[*i] = pts[*i].add_affine(p, b);
            }
            !degenerate
        });
    }
    let k = s.idx.len();
    // Phase B — live: t1 = A, t2 = B, pz = Z₁, qx = x₂, qy = y₂.
    mul_planes::<C::Field>(&mut s.t3, &s.t2, &s.pz); // C = B·Z₁
    sqr_planes::<C::Field>(&mut s.t4, &s.t3); // Z₃ = C²
    mul_planes::<C::Field>(&mut s.t0, &s.qx, &s.t4); // D = x₂·Z₃
    sqr_planes::<C::Field>(&mut s.px, &s.t2); // B²
    add_planes(&mut s.px, &s.t1); // A + B²
    let a = C::a();
    let one = Element::<C::Field>::one();
    if a == one {
        add_planes(&mut s.px, &s.t3);
    } else if !a.is_zero() {
        s.pz.reset(k);
        s.pz.broadcast(&a);
        mul_planes::<C::Field>(&mut s.t2, &s.pz, &s.t3);
        add_planes(&mut s.px, &s.t2);
    }
    // px = A + B² + a·C
    mul_planes::<C::Field>(&mut s.t2, &s.t3, &s.px); // C·(…)
    sqr_planes::<C::Field>(&mut s.pz, &s.t1); // A²
    add_planes(&mut s.pz, &s.t2); // X₃
    add_planes(&mut s.t0, &s.pz); // D + X₃
    mul_planes::<C::Field>(&mut s.t2, &s.t1, &s.t3); // A·C
    add_planes(&mut s.t2, &s.t4); // A·C + Z₃
    mul_planes::<C::Field>(&mut s.px, &s.t0, &s.t2); // (D+X₃)·(A·C+Z₃)
    add_planes(&mut s.qy, &s.qx); // y₂ + x₂
    sqr_planes::<C::Field>(&mut s.t0, &s.t4); // Z₃²
    mul_planes::<C::Field>(&mut s.t2, &s.qy, &s.t0); // (y₂+x₂)·Z₃²
    add_planes(&mut s.px, &s.t2); // Y₃
    for (t, &j) in s.idx.iter().enumerate() {
        let i = jobs[j].0;
        pts[i] = LdPoint {
            x: s.pz.get(t),
            y: s.px.get(t),
            z: s.t4.get(t),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{K163, K233};

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

    fn random_points<C: CurveSpec>(n: usize, seed: u64) -> Vec<LdPoint<C>> {
        let mut r = rng_from(seed);
        (0..n)
            .map(|i| {
                if i % 5 == 4 {
                    LdPoint::infinity()
                } else {
                    // Random multiples of the generator, made projective
                    // with a random nonzero Z to exercise the formulas
                    // away from Z = 1.
                    let k = crate::scalar::Scalar::<C>::random_nonzero(&mut r);
                    let p = C::generator().mul_double_and_add(&k);
                    let mut q = LdPoint::from_affine(&p);
                    let z = Element::<C::Field>::random(&mut r);
                    if !q.is_infinity() && !z.is_zero() {
                        q = LdPoint {
                            x: q.x * z,
                            y: q.y * z.square(),
                            z,
                        };
                    }
                    q
                }
            })
            .collect()
    }

    fn batched_ops_match_scalar<C: CurveSpec>(seed: u64) {
        let b = C::b();
        let mut pts = random_points::<C>(13, seed);
        let mut s = PointScratch::default();

        let expect: Vec<LdPoint<C>> = pts.iter().map(LdPoint::tau).collect();
        tau_batch(&mut pts, &mut s);
        for (got, exp) in pts.iter().zip(&expect) {
            assert_eq!(batch_to_affine(&[*got]), batch_to_affine(&[*exp]));
        }

        // Additions: regular points, the infinity operand, a lane that
        // doubles (same point) and a lane that cancels (negated point).
        let affine = batch_to_affine(&pts);
        let jobs: Vec<(usize, Point<C>)> = vec![
            (0, affine[1]),
            (1, Point::Infinity),
            (2, affine[2]),  // B = 0, doubling branch
            (3, -affine[3]), // B = 0, cancellation branch
            (4, affine[0]),  // infinity accumulator (i % 5 == 4)
            (5, affine[6]),
        ];
        let expect: Vec<LdPoint<C>> = jobs.iter().map(|(i, p)| pts[*i].add_affine(p, b)).collect();
        add_affine_batch(&mut pts, &jobs, b, &mut s);
        for ((i, _), exp) in jobs.iter().zip(&expect) {
            assert_eq!(
                batch_to_affine(&[pts[*i]]),
                batch_to_affine(&[*exp]),
                "job for accumulator {i}"
            );
        }
    }

    #[test]
    fn batched_point_ops_match_scalar_k163_k233() {
        batched_ops_match_scalar::<K163>(7);
        batched_ops_match_scalar::<K233>(8);
    }
}
