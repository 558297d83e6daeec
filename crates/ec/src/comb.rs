//! Fixed-base scalar multiplication for the serving path: a regular
//! signed comb.
//!
//! The gateway's fixed-base work is `k·G` for the generator G — every
//! mutual server's ephemeral key pair, every Schnorr `s·G` and every
//! Peeters–Hermans `(s − ḋ)·G`. A comb precomputes multiples of G once
//! per curve and evaluates any `k·G` in `d` columns of one doubling and
//! one addition each, instead of the ladder's one step per bit.
//!
//! **The recoding.** With w teeth spaced d = ⌈(bits(n) + 1)/w⌉ apart,
//! an odd scalar k' < 2^(w·d) has the all-nonzero signed expansion
//! k' = Σ_i (2·u_(i+1) − 1)·2^i over the bits of u = (k' − 1)/2 +
//! 2^(w·d−1) = (k' >> 1) | 2^(w·d−1). So each scalar k is first made
//! odd — k, or k + n when k is even (n is odd, and (k + n)·G = k·G) —
//! by a masked addition, and column j's digit is the odd signed sum
//! Σ_t ±2^(t·d) over bits t·d + j of u, never zero. Its w signs are
//! the lane's digit word.
//!
//! **The table.** A digit and its negation share one entry: the
//! 2^(w−1) affine points whose top tooth is +1, T\[j\] = 2^((w−1)·d)·G
//! plus Σ_(t<w−1) ±2^(t·d)·G with tooth t positive iff bit t of j is
//! set, each stored with its double. A digit whose top tooth is −1
//! adds −T\[j\] for the complemented index.
//!
//! **The column loop runs behind the field seam**
//! ([`medsec_gf2m::FieldBackend::comb_batch`], through
//! [`medsec_gf2m::comb_planes`]) over plane-major López–Dahab
//! accumulators (x = X/Z, y = Y/Z²) that start at infinity: on AVX-512
//! hosts each chunk of up to eight scalars stays in ZMM registers for
//! every column; elsewhere, and on the toy field, each field operation
//! is one batch operation over all scalars. Every column doubles each
//! accumulator, reads every table entry and keeps its own by mask,
//! negates by a masked `y ↦ x + y`, and adds with the generic mixed
//! addition plus masked fixes for the cases it does not cover (an
//! accumulator at infinity, or equal to its entry). No lookup is
//! indexed by a digit, and nothing branches or retries on one, in the
//! recoding or in the column loop. The whole batch is then normalized
//! from its planes with one batched inversion.
//!
//! What remains secret-dependent is the final Z each accumulator
//! reaches, which the normalization's inversion reads unblinded (see
//! README's constant-time audit).
//!
//! The comb is a *compute* path, not a *model* path: the implant's
//! energy and side-channel behaviour are modelled on the protected
//! ladder ([`crate::ladder`]) and the digit-serial MALU model; the comb
//! only changes how fast this software computes the identical group
//! elements. Tests pin it against the ladder and double-and-add.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::sync::Arc;

use medsec_gf2m::{
    add_planes, batch_invert_planes, comb_planes, mul_planes, sqr_planes, CombPlanes, Element,
    Planes, Registry,
};

use crate::curve::{CurveSpec, Point};
use crate::proj::{batch_to_affine, LdPoint};
use crate::scalar::{shr_raw, Scalar, SCALAR_LIMBS};

/// Largest comb window (teeth count).
const MAX_WINDOW: usize = 8;

/// Most columns a comb may have: a tooth's d bits fit one word.
const MAX_COLUMNS: usize = 64;

/// Precomputed regular signed comb for multiples of the curve
/// generator.
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
    /// Tooth spacing d = ⌈(bits(n) + 1)/w⌉, the number of columns.
    columns: usize,
    /// Bit w·d − 1, set in every recoded scalar.
    top: [u64; SCALAR_LIMBS],
    /// Entry j: `[x, y]` of T\[j\] and of 2·T\[j\] (see the module doc).
    table: Vec<[Element<C::Field>; 4]>,
}

impl<C: CurveSpec> FixedBaseComb<C> {
    /// Precompute the comb for the curve generator with `window` teeth:
    /// 2^(window−1) table entries and their doubles, normalized with one
    /// inversion (use [`generator_comb`] for the process-wide shared
    /// instance).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= window <= 8`, the teeth span at most 64
    /// columns, and no table entry is the point at infinity (which
    /// only a window too wide for a tiny curve can cause).
    pub fn new(window: usize) -> Self {
        assert!(
            (1..=MAX_WINDOW).contains(&window),
            "comb window {window} out of range"
        );
        let columns = (order_bits::<C>() + 1).div_ceil(window);
        assert!(
            columns <= MAX_COLUMNS,
            "comb window {window} needs {columns} columns on {}",
            C::NAME
        );
        let b = C::b();
        // strides[t] = 2^(t·d)·G, doubled projectively and normalized
        // together, and their doubles.
        let mut strides_proj = Vec::with_capacity(window);
        let mut p = LdPoint::from_affine(&C::generator());
        for _ in 0..window {
            strides_proj.push(p);
            for _ in 0..columns {
                p = p.double(b);
            }
        }
        let strides = batch_to_affine(&strides_proj);
        let twice: Vec<LdPoint<C>> = strides_proj.iter().map(|p| p.double(b)).collect();
        let twice = batch_to_affine(&twice);
        // T[0] has every tooth below the top negative; setting bit t of
        // the index flips tooth t to positive, adding 2·2^(t·d)·G.
        let half = 1usize << (window - 1);
        let mut entries = Vec::with_capacity(2 * half);
        let mut first = LdPoint::from_affine(&strides[window - 1]);
        for s in &strides[..window - 1] {
            first = first.add_affine(&-*s, b);
        }
        entries.push(first);
        for j in 1..half {
            let rest: LdPoint<C> = entries[j & (j - 1)];
            entries.push(rest.add_affine(&twice[j.trailing_zeros() as usize], b));
        }
        let doubles: Vec<LdPoint<C>> = entries.iter().map(|e| e.double(b)).collect();
        entries.extend(doubles);
        let affine = batch_to_affine(&entries);
        let table = affine[..half]
            .iter()
            .zip(&affine[half..])
            .map(|pair| match pair {
                (Point::Affine { x, y }, Point::Affine { x: dx, y: dy }) => [*x, *y, *dx, *dy],
                _ => panic!(
                    "comb window {window} is too wide for {}: a table entry is at infinity",
                    C::NAME
                ),
            })
            .collect();
        let mut top = [0u64; SCALAR_LIMBS];
        let bit = window * columns - 1;
        top[bit / 64] = 1 << (bit % 64);
        Self {
            window,
            columns,
            top,
            table,
        }
    }

    /// The comb's window (teeth count).
    pub fn window(&self) -> usize {
        self.window
    }

    /// `k·G` for one scalar: a comb of width one.
    pub fn mul(&self, k: &Scalar<C>) -> Point<C> {
        self.mul_batch(std::slice::from_ref(k)).pop().expect("one")
    }

    /// `k·G` for every scalar in `ks`: every scalar recoded, the whole
    /// column loop one call into the field backend, and every result
    /// normalized with one batched inversion. The scratch is
    /// thread-local and reused from call to call.
    pub fn mul_batch(&self, ks: &[Scalar<C>]) -> Vec<Point<C>> {
        thread_local! {
            static COMB_TLS: RefCell<CombScratch> = RefCell::default();
        }
        COMB_TLS.with(|cell| self.mul_batch_with(ks, &mut cell.borrow_mut()))
    }

    fn mul_batch_with(&self, ks: &[Scalar<C>], scratch: &mut CombScratch) -> Vec<Point<C>> {
        let n = ks.len();
        let d = self.columns;
        let s = &mut scratch.state;
        s.reset(n, d);
        let digits = s.digits_mut();
        for (i, k) in ks.iter().enumerate() {
            // Column d − 1 runs first. Positions are public.
            for (j, digit) in self.recode(k).iter().take(d).enumerate() {
                digits[(d - 1 - j) * n + i] = *digit;
            }
        }
        comb_planes::<C::Field>(s, &self.table, &C::a(), &C::b());
        // x = X/Z, y = Y/Z² with one inversion for the batch.
        let [x, y, z] = s.coordinates();
        let CombScratch {
            zinv,
            zinv2,
            ax,
            ay,
            ..
        } = scratch;
        zinv.reset(n);
        add_planes(zinv, z);
        batch_invert_planes::<C::Field>(zinv);
        sqr_planes::<C::Field>(zinv2, zinv);
        mul_planes::<C::Field>(ax, x, zinv);
        mul_planes::<C::Field>(ay, y, zinv2);
        (0..n)
            .map(|i| {
                // Public: the result is infinity iff k = 0 mod n.
                if z.is_zero_at(i) {
                    Point::Infinity
                } else {
                    Point::Affine {
                        x: ax.get(i),
                        y: ay.get(i),
                    }
                }
            })
            .collect()
    }

    /// k's digit words, column 0 first: bit t of column j's word is bit
    /// t·d + j of u = (k' >> 1) | 2^(w·d−1), k' the odd representative
    /// of k, so that a set bit is tooth t's + sign.
    fn recode(&self, k: &Scalar<C>) -> [u64; MAX_COLUMNS] {
        let (w, d) = (self.window, self.columns);
        let low = u64::MAX >> (64 - d);
        let mut cols = [0u64; MAX_COLUMNS];
        // lint: ct-begin — the scalar's bits are shifted and masked at
        // positions fixed by the comb, never branched on or used as an
        // index.
        let mut u = shr_raw(&k.odd_limbs(), 1);
        for (limb, top) in u.iter_mut().zip(&self.top) {
            *limb |= top;
        }
        // Tooth t's d bits of u, one word each.
        let mut teeth = [0u64; MAX_WINDOW];
        for tooth in teeth.iter_mut().take(w) {
            *tooth = u[0] & low;
            u = shr_raw(&u, d);
        }
        for (j, col) in (0..).zip(cols.iter_mut().take(d)) {
            *col = teeth
                .iter()
                .take(w)
                .rev()
                .fold(0, |acc, tooth| (acc << 1) | ((tooth >> j) & 1));
        }
        // lint: ct-end
        cols
    }
}

/// The thread's comb scratch: the lanes' state and digits, and the
/// normalization's planes (non-generic, so one serves every curve).
#[derive(Debug, Default)]
struct CombScratch {
    state: CombPlanes,
    zinv: Planes,
    zinv2: Planes,
    ax: Planes,
    ay: Planes,
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

/// The comb window per curve, chosen by measurement: 5 teeth (33
/// columns) on the 163-bit curves, 6 on K-233 and K-283 (39 and 47
/// columns) and on the toy curve (3 columns). A wider window halves the
/// columns' share of the work more slowly than it doubles the masked
/// table scan of every column.
fn default_window(bits: usize) -> usize {
    if (64..200).contains(&bits) {
        5
    } else {
        6
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
    use crate::curves::{Toy17, B163, K163, K233, K283};
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

    /// Every Toy-17 scalar, 0 to n − 1, through the shared comb in
    /// batches, against double-and-add: every degenerate case a column
    /// can meet on that curve (an accumulator at infinity, equal to its
    /// entry or to its negative) occurs among them.
    #[test]
    fn comb_matches_double_and_add_toy_exhaustive() {
        let g = Toy17::generator();
        let n = Toy17::ORDER[0];
        let ks: Vec<Scalar<Toy17>> = (0..n).map(Scalar::from_u64).collect();
        for chunk in ks.chunks(4096) {
            let got = generator_mul_batch(chunk);
            for (k, p) in chunk.iter().zip(&got) {
                assert_eq!(*p, g.mul_double_and_add(k), "k={k}");
            }
        }
    }

    #[test]
    fn comb_matches_ladder_toy_random_all_windows() {
        let g = Toy17::generator();
        let mut r = rng_from(71);
        for w in 1..=MAX_WINDOW {
            let comb = FixedBaseComb::<Toy17>::new(w);
            let mut ks: Vec<Scalar<Toy17>> =
                (0..100).map(|_| Scalar::random_nonzero(&mut r)).collect();
            ks.extend([Scalar::zero(), Scalar::one(), -Scalar::one()]);
            for (k, p) in ks.iter().zip(comb.mul_batch(&ks)) {
                assert_eq!(p, g.mul_double_and_add(k), "window {w} k={k}");
            }
        }
    }

    /// The scalars whose last column meets its own entry: for each sign
    /// pattern D of a column digit, k = ±2·D mod n where k's column-0
    /// digit, the last one added, is D. The accumulator before that
    /// addition is k·G − D·G = D·G, so only the double-entry fix gets
    /// them right.
    fn last_column_doubling_scalars<C: CurveSpec>(comb: &FixedBaseComb<C>) -> Vec<Scalar<C>> {
        let mut stride = Scalar::<C>::one();
        let mut strides = Vec::new();
        for _ in 0..comb.window {
            strides.push(stride);
            for _ in 0..comb.columns {
                stride = stride + stride;
            }
        }
        let mut out = Vec::new();
        for pattern in 0u64..1 << comb.window {
            let digit = strides
                .iter()
                .enumerate()
                .fold(Scalar::zero(), |acc, (t, s)| {
                    if (pattern >> t) & 1 == 1 {
                        acc + *s
                    } else {
                        acc - *s
                    }
                });
            for k in [digit + digit, -(digit + digit)] {
                if comb.recode(&k)[0] == pattern {
                    out.push(k);
                }
            }
        }
        out
    }

    fn comb_matches_ladder<C: CurveSpec>(seed: u64) {
        let mut r = rng_from(seed);
        let g = C::generator();
        let comb = generator_comb::<C>();
        let mut ks = vec![
            Scalar::<C>::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            -Scalar::one(),
            -Scalar::from_u64(2),
        ];
        let doubling = last_column_doubling_scalars(&comb);
        assert!(!doubling.is_empty(), "{}: no doubling scalar", C::NAME);
        ks.extend(doubling);
        for width in (1..=9).chain(15..=17).chain(63..=65) {
            ks.extend((0..width).map(|_| Scalar::<C>::random_nonzero(&mut r)));
        }
        let got = generator_mul_batch(&ks);
        for (k, p) in ks.iter().zip(&got) {
            let expect = ladder_mul(k, &g, CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(*p, expect, "{} k={k}", C::NAME);
            assert_eq!(comb.mul(k), expect, "{} k={k} alone", C::NAME);
        }
        // The same scalars in batches of every tested width.
        let mut rest = &ks[..];
        for width in (1..=9).chain(15..=17).chain(63..=65).cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(width.min(rest.len()));
            let start = ks.len() - rest.len();
            assert_eq!(generator_mul_batch(batch), got[start..start + batch.len()]);
            rest = tail;
        }
    }

    #[test]
    fn comb_matches_ladder_k163_and_b163() {
        comb_matches_ladder::<K163>(72);
        // B-163 exercises the b ≠ 1 terms of the LD formulas.
        comb_matches_ladder::<B163>(73);
    }

    #[test]
    fn comb_matches_ladder_k233_k283_and_toy17() {
        // a = 0 on K-233 and K-283; the toy curve runs the default
        // schedule on every host.
        comb_matches_ladder::<K233>(74);
        comb_matches_ladder::<K283>(75);
        comb_matches_ladder::<Toy17>(76);
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
