//! Cached F₂-linear maps: multi-squaring `x ↦ x^(2^k)` and the
//! half-trace `x ↦ Σ x^(4^i)`.
//!
//! Squaring is F₂-linear, so both maps are linear in the coefficient
//! vector, and a linear map is fixed by its images of the m basis
//! elements `x^i`. A [`LinearMapTable`] stores, for each byte position
//! of the input, the images of all 256 byte values; applying the map
//! then costs `ceil(m/8)` table lookups and XORs instead of a chain of
//! dependent squarings. With `LIMBS` = 5 a row is 10 KiB, so a table is
//! 30 KiB on F17, 210 KiB on F163, 300 KiB on F233 and 360 KiB on F283.
//!
//! The consumers are the serving backends
//! ([`VpclmulBackend`](crate::VpclmulBackend) and
//! [`PortableBackend`](crate::PortableBackend)):
//!
//! * **Multi-squaring** ([`LinearMap::Frobenius`]). Itoh–Tsujii
//!   inversion interleaves ~log₂(m) multiplications with squaring
//!   *runs* of length 1, 2, 4, … (m−1)/2, and the runs dominate it at
//!   ~m sequential squarings. With the tables an inversion costs its
//!   multiplications plus a handful of lookups.
//! * **The half-trace** ([`LinearMap::HalfTrace`], odd m). Every
//!   received compressed point is decompressed by solving `z² + z = c`
//!   with `z = H(c)`, which the chain computes in (m−1)/2 dependent
//!   double squarings; the table makes it one pass of lookups.
//!
//! Tables are built once per (field, map) per process, on first use,
//! and cached; a serving process pays for them while it warms up or
//! provisions, outside any timed region. A build computes all m basis
//! images at once, in one lockstep pass of [`sqr_planes`] and
//! [`add_planes`] over a width-m [`Planes`] batch. The bit-exact
//! [`ModelBackend`](crate::ModelBackend) never uses the tables, and the
//! backend-equivalence suite pins both serving backends to it.

use core::any::TypeId;
use std::cell::RefCell;

use crate::batch::{add_planes, sqr_planes, Planes};
use crate::cache::Registry;
use crate::field::{Element, FieldSpec};
use crate::LIMBS;

/// An F₂-linear map of F(2^m) with a cached [`LinearMapTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LinearMap {
    /// `x ↦ x^(2^k)`, the k-th power of the Frobenius map.
    Frobenius(usize),
    /// `x ↦ Σ x^(4^i)` for i in 0..=(m−1)/2, the half-trace (odd m).
    HalfTrace,
}

impl LinearMap {
    /// The images of the m basis elements: slot i of the result holds
    /// the image of `x^i`. Every slot takes the same squaring steps, so
    /// the whole basis advances in lockstep through batched squarings.
    fn basis_images<F: FieldSpec>(self) -> Planes {
        let mut t = Planes::new();
        t.reset(F::M);
        for i in 0..F::M {
            t.set(i, &Element::<F>::zero().with_bit_flipped(i));
        }
        let mut sq = Planes::new();
        match self {
            LinearMap::Frobenius(k) => {
                for _ in 0..k {
                    sqr_planes::<F>(&mut sq, &t);
                    std::mem::swap(&mut sq, &mut t);
                }
                t
            }
            LinearMap::HalfTrace => {
                let mut acc = t.clone();
                for _ in 0..(F::M - 1) / 2 {
                    sqr_planes::<F>(&mut sq, &t);
                    sqr_planes::<F>(&mut t, &sq);
                    add_planes(&mut acc, &t);
                }
                acc
            }
        }
    }
}

/// Precomputed table of one linear map on one field: `rows[j][v]` is
/// the image of `v·x^(8j)` as raw limbs, so the image of `a` is
/// `⊕_j rows[j][byte j of a]`.
struct LinearMapTable {
    /// One 256-entry row per input byte position.
    rows: Vec<[[u64; LIMBS]; 256]>,
}

impl LinearMapTable {
    fn build<F: FieldSpec>(map: LinearMap) -> Self {
        let images = map.basis_images::<F>();
        let rows = (0..F::M.div_ceil(8))
            .map(|j| {
                let basis: [Element<F>; 8] = core::array::from_fn(|b| {
                    let bit = 8 * j + b;
                    if bit < F::M {
                        images.get(bit)
                    } else {
                        Element::zero()
                    }
                });
                // Subset XOR: every byte value from its lowest set bit.
                let mut row = [[0u64; LIMBS]; 256];
                for v in 1usize..256 {
                    let low = v.trailing_zeros() as usize;
                    let mut acc = row[v & (v - 1)];
                    for (a, b) in acc.iter_mut().zip(basis[low].limbs()) {
                        *a ^= b;
                    }
                    row[v] = acc;
                }
                row
            })
            .collect();
        Self { rows }
    }

    /// Apply the map to `a`.
    fn apply<F: FieldSpec>(&self, a: &Element<F>) -> Element<F> {
        debug_assert_eq!(self.rows.len(), F::M.div_ceil(8));
        let limbs = a.limbs();
        let mut acc = [0u64; LIMBS];
        for (j, row) in self.rows.iter().enumerate() {
            let byte = (limbs[j / 8] >> (8 * (j % 8))) & 0xff;
            if byte == 0 {
                continue;
            }
            for (a, b) in acc.iter_mut().zip(&row[byte as usize]) {
                *a ^= b;
            }
        }
        Element::from_raw_limbs(acc)
    }
}

/// The table of `map` on field `F`, built once per process on first
/// use and kept for the life of the process. Each thread also keeps the
/// tables it has used, so a lookup takes no lock and writes no shared
/// cache line: an inversion makes ~log₂(m) lookups, and the hub's
/// workers invert and decompress side by side.
fn table<F: FieldSpec>(map: LinearMap) -> &'static LinearMapTable {
    type Key = (TypeId, LinearMap);
    static REGISTRY: Registry<Key, &'static LinearMapTable> = Registry::new();
    thread_local! {
        static SEEN: RefCell<Vec<(Key, &'static LinearMapTable)>> =
            const { RefCell::new(Vec::new()) };
    }
    let key = (TypeId::of::<F>(), map);
    let seen = SEEN.with_borrow(|seen| seen.iter().find(|(k, _)| *k == key).map(|&(_, t)| t));
    if let Some(t) = seen {
        return t;
    }
    let t =
        REGISTRY.get_or_insert_with(key, || Box::leak(Box::new(LinearMapTable::build::<F>(map))));
    SEEN.with_borrow_mut(|seen| seen.push((key, t)));
    t
}

/// `a^(2^k)` through the cached table (k ≥ 2; short runs square
/// directly — a lookup pass costs about two squarings).
pub(crate) fn frobenius_pow<F: FieldSpec>(a: &Element<F>, k: usize) -> Element<F> {
    if k < 2 {
        let mut t = *a;
        for _ in 0..k {
            t = t.square();
        }
        return t;
    }
    table::<F>(LinearMap::Frobenius(k)).apply(a)
}

/// The half-trace `H(a)` through the cached table (odd m).
pub(crate) fn half_trace<F: FieldSpec>(a: &Element<F>) -> Element<F> {
    table::<F>(LinearMap::HalfTrace).apply(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{F163, F17};

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
    fn table_matches_repeated_squaring() {
        let mut r = rng_from(7);
        for k in [2usize, 3, 5, 20, 81, 162] {
            for _ in 0..8 {
                let a = Element::<F163>::random(&mut r);
                let mut expect = a;
                for _ in 0..k {
                    expect = expect.square();
                }
                assert_eq!(frobenius_pow(&a, k), expect, "k={k}");
            }
        }
    }

    #[test]
    fn toy_field_exhaustive_k8() {
        for v in 0u64..1 << 17 {
            let a = Element::<F17>::from_u64(v);
            let mut expect = a;
            for _ in 0..8 {
                expect = expect.square();
            }
            assert_eq!(frobenius_pow(&a, 8), expect, "v={v}");
        }
    }
}
