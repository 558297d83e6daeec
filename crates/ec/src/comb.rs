//! Fixed-base comb scalar multiplication for the serving path.
//!
//! The gateway's dominant cost is `k·G` for the *fixed* generator G —
//! every ephemeral key pair, every Schnorr/Peeters–Hermans `s·P`/`d·P`
//! verification term. The Montgomery ladder recomputes everything from
//! scratch per scalar; a Lim–Lee comb instead precomputes the
//! `2^w − 1` tooth combinations `Σ 2^(i·t)·G` once per curve and then
//! evaluates any `k·G` in `t = ceil(bits/w)` doublings + at most `t`
//! additions.
//!
//! Accumulation runs in **López–Dahab projective coordinates**
//! (x = X/Z, y = Y/Z²), so the whole evaluation is inversion-free; the
//! single final normalization is deferred and — in
//! [`FixedBaseComb::mul_batch`] — shared across a whole batch of scalars
//! through [`medsec_gf2m::batch_invert`] (Montgomery's trick).
//!
//! The comb is a *compute* path, not a *model* path: its add/skip
//! pattern depends on the scalar, so it could never run on the paper's
//! implant hardware, where SPA/DPA resistance is the point. What the
//! simulation stack models about that hardware — the protected ladder's
//! trace shapes (via [`crate::ladder`] and the digit-serial MALU model)
//! and the per-point-multiplication energy ledger entries — is
//! unchanged; the comb only changes how fast this software computes the
//! identical group elements. Tests pin comb-vs-ladder agreement.

use std::any::{Any, TypeId};
use std::sync::Arc;

use medsec_gf2m::{batch_invert, Element, Registry};

use crate::curve::{CurveSpec, Point};
use crate::proj::{add_affine_batch, double_batch, LdPoint, PointScratch};
use crate::scalar::Scalar;

/// Precomputed Lim–Lee comb for multiples of one fixed base point.
///
/// # Example
///
/// ```
/// use medsec_ec::{comb::FixedBaseComb, CurveSpec, Scalar, Toy17};
/// let comb = FixedBaseComb::<Toy17>::new(4);
/// let k = Scalar::from_u64(12345);
/// assert_eq!(comb.mul(&k), Toy17::generator().mul_double_and_add(&k));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBaseComb<C: CurveSpec> {
    /// Teeth (window width) w.
    window: usize,
    /// Tooth spacing t = ceil(bits/w).
    spacing: usize,
    /// `table[j - 1] = Σ_{bit i of j} 2^(i·t)·G` for `j in 1..2^w`.
    table: Vec<Point<C>>,
}

impl<C: CurveSpec> FixedBaseComb<C> {
    /// Precompute the comb for the curve generator with `window` teeth.
    ///
    /// Table size is `2^window − 1` points; precomputation runs once
    /// (use [`generator_comb`] for the process-wide shared instance).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= window <= 12`.
    pub fn new(window: usize) -> Self {
        assert!(
            (1..=12).contains(&window),
            "comb window {window} out of range"
        );
        let bits = order_bits::<C>();
        let spacing = bits.div_ceil(window);
        let b = C::b();
        // strides[i] = 2^(i·t)·G, doubled projectively and normalized
        // together (affine doubling would pay one field inversion per
        // step — ~2^w·m of them for the whole precomputation).
        let mut strides_proj = Vec::with_capacity(window);
        let mut p = LdPoint::from_affine(&C::generator());
        for _ in 0..window {
            strides_proj.push(p);
            for _ in 0..spacing {
                p = p.double(b);
            }
        }
        let strides = crate::proj::batch_to_affine(&strides_proj);
        let mut table_proj = vec![LdPoint::infinity(); (1 << window) - 1];
        for j in 1usize..1 << window {
            let low = j & j.wrapping_neg(); // lowest set bit
            let rest = j ^ low;
            let stride = &strides[low.trailing_zeros() as usize];
            let entry = if rest == 0 {
                LdPoint::from_affine(stride)
            } else {
                table_proj[rest - 1].add_affine(stride, b)
            };
            table_proj[j - 1] = entry;
        }
        // One inversion normalizes the whole table.
        let table = crate::proj::batch_to_affine(&table_proj);
        Self {
            window,
            spacing,
            table,
        }
    }

    /// The comb's window (teeth count).
    pub fn window(&self) -> usize {
        self.window
    }

    /// `k·G` for one scalar (inversion-free accumulation, one final
    /// normalization).
    pub fn mul(&self, k: &Scalar<C>) -> Point<C> {
        self.mul_batch(std::slice::from_ref(k)).pop().expect("one")
    }

    /// `k·G` for every scalar in `ks`, sharing the per-column structure
    /// and normalizing all results with a single batched inversion.
    ///
    /// The column loop runs SoA-style across the whole batch: one
    /// `double_batch` per column (all accumulators), then one
    /// `add_affine_batch` over the scalars whose digit is nonzero —
    /// so every field operation is a batched plane op eligible for the
    /// `VPCLMULQDQ`/bitsliced backends.
    pub fn mul_batch(&self, ks: &[Scalar<C>]) -> Vec<Point<C>> {
        let b = C::b();
        let mut accs: Vec<LdPoint<C>> = vec![LdPoint::infinity(); ks.len()];
        let mut scratch = PointScratch::default();
        let mut jobs: Vec<(usize, Point<C>)> = Vec::with_capacity(ks.len());
        for col in (0..self.spacing).rev() {
            double_batch(&mut accs, b, &mut scratch);
            jobs.clear();
            for (i, k) in ks.iter().enumerate() {
                let mut digit = 0usize;
                for tooth in 0..self.window {
                    if k.bit(tooth * self.spacing + col) {
                        digit |= 1 << tooth;
                    }
                }
                if digit != 0 {
                    jobs.push((i, self.table[digit - 1]));
                }
            }
            add_affine_batch(&mut accs, &jobs, b, &mut scratch);
        }
        // One inversion for the whole batch.
        let mut zs: Vec<Element<C::Field>> = accs.iter().map(|p| p.z).collect();
        batch_invert(&mut zs);
        accs.iter()
            .zip(zs)
            .map(|(p, zinv)| p.to_affine_with_zinv(zinv))
            .collect()
    }
}

/// Bit length of the subgroup order (comb coverage).
fn order_bits<C: CurveSpec>() -> usize {
    for (i, &w) in C::ORDER.iter().enumerate().rev() {
        if w != 0 {
            return 64 * i + 64 - w.leading_zeros() as usize;
        }
    }
    0
}

/// Default comb window per curve size: wide combs only pay off when the
/// per-column work they save outweighs their precomputation (which is
/// cheap now that the table is built projectively — 2^10 entries cost
/// two inversions total).
fn default_window(bits: usize) -> usize {
    if bits >= 64 {
        10
    } else {
        4
    }
}

/// Process-wide shared comb for curve `C`'s generator (precomputed on
/// first use, then reused by every gateway/protocol call).
pub fn generator_comb<C: CurveSpec>() -> Arc<FixedBaseComb<C>> {
    static REGISTRY: Registry<TypeId, Arc<dyn Any + Send + Sync>> = Registry::new();
    REGISTRY
        .get_or_insert_with(TypeId::of::<C>(), || {
            Arc::new(FixedBaseComb::<C>::new(default_window(order_bits::<C>())))
        })
        .downcast::<FixedBaseComb<C>>()
        .expect("registry entry has the curve's type")
}

/// `k·G` through the shared fixed-base comb — the serving-path
/// counterpart of `ladder_mul(k, &C::generator(), ..)`.
pub fn generator_mul<C: CurveSpec>(k: &Scalar<C>) -> Point<C> {
    generator_comb::<C>().mul(k)
}

/// Batched `k·G` through the shared fixed-base comb: one batched
/// inversion normalizes every result.
pub fn generator_mul_batch<C: CurveSpec>(ks: &[Scalar<C>]) -> Vec<Point<C>> {
    if ks.is_empty() {
        return Vec::new();
    }
    generator_comb::<C>().mul_batch(ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Toy17, B163, K163};
    use crate::ladder::{ladder_mul, CoordinateBlinding};

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
    fn comb_matches_double_and_add_toy_exhaustive_small() {
        let comb = FixedBaseComb::<Toy17>::new(4);
        let g = Toy17::generator();
        for k in 0u64..300 {
            let s = Scalar::from_u64(k);
            assert_eq!(comb.mul(&s), g.mul_double_and_add(&s), "k={k}");
        }
    }

    #[test]
    fn comb_matches_ladder_toy_random_all_windows() {
        let g = Toy17::generator();
        let mut r = rng_from(71);
        for w in [1, 2, 4, 5, 8] {
            let comb = FixedBaseComb::<Toy17>::new(w);
            for _ in 0..100 {
                let s = Scalar::<Toy17>::random_nonzero(&mut r);
                assert_eq!(comb.mul(&s), g.mul_double_and_add(&s), "window {w}");
            }
        }
    }

    #[test]
    fn comb_matches_ladder_k163_and_b163() {
        let mut r = rng_from(72);
        for _ in 0..6 {
            let s = Scalar::<K163>::random_nonzero(&mut r);
            let expect = ladder_mul(&s, &K163::generator(), CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(generator_mul::<K163>(&s), expect);
        }
        let s = Scalar::<B163>::random_nonzero(&mut r);
        let expect = ladder_mul(&s, &B163::generator(), CoordinateBlinding::RandomZ, &mut r);
        // B-163 exercises the b ≠ 1 terms of the LD formulas.
        assert_eq!(generator_mul::<B163>(&s), expect);
    }

    #[test]
    fn batch_matches_singles_and_handles_edges() {
        let mut r = rng_from(73);
        let mut ks: Vec<Scalar<Toy17>> = (0..17).map(|_| Scalar::random_nonzero(&mut r)).collect();
        ks.push(Scalar::zero());
        ks.push(Scalar::one());
        ks.push(Scalar::zero() - Scalar::one());
        let comb = generator_comb::<Toy17>();
        let batch = comb.mul_batch(&ks);
        assert_eq!(batch.len(), ks.len());
        for (k, p) in ks.iter().zip(&batch) {
            assert_eq!(*p, comb.mul(k));
            assert!(p.is_on_curve());
        }
        // k = 0 must land exactly on infinity.
        assert_eq!(batch[17], Point::infinity());
        assert!(generator_mul_batch::<Toy17>(&[]).is_empty());
    }

    #[test]
    fn shared_comb_is_one_instance() {
        let a = generator_comb::<K163>();
        let b = generator_comb::<K163>();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
