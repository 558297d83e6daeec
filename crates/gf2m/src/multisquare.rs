//! Multi-squaring tables: `x ↦ x^(2^k)` as a cached linear map.
//!
//! Squaring is F₂-linear, so `x^(2^k)` is a linear map of the
//! coefficient vector — for each byte position of the input, the 256
//! possible byte values map to precomputed field elements whose XOR is
//! the result. One k-fold squaring run then costs `ceil(m/8)` table
//! lookups and XORs instead of `k` dependent squarings.
//!
//! The consumers are the serving backends' inversions
//! ([`VpclmulBackend`](crate::VpclmulBackend) and
//! [`BitslicedBackend`](crate::BitslicedBackend)): Itoh–Tsujii
//! exponentiation interleaves ~log₂(m) multiplications with
//! squaring *runs* of length 1, 2, 4, … (m−1)/2 — the runs dominate the
//! inversion at ~m sequential squarings. With the tables, an inversion
//! costs its multiplications plus a handful of lookups, which is what
//! makes the serving layer's remaining per-session inversions (x-only
//! ladder normalization, point compression, decompression) cheap.
//!
//! Tables are built once per (field, k) pair per process and cached —
//! the fleet triggers construction during provisioning (the first comb
//! build), outside any timed region. The bit-exact
//! [`ModelBackend`](crate::ModelBackend) never uses them, and the
//! backend-equivalence suite pins both inversion paths equal.

use std::sync::Arc;

use crate::cache::Registry;
use crate::field::{Element, FieldSpec};
use crate::LIMBS;

/// Precomputed table for one (field, k): `table[j][v]` is
/// `(v·x^(8j))^(2^k)` as raw limbs, so `x^(2^k) = ⊕_j table[j][x_byte_j]`.
pub(crate) struct MultiSquareTable {
    k: usize,
    /// One 256-entry row per input byte position.
    rows: Vec<[[u64; LIMBS]; 256]>,
}

impl MultiSquareTable {
    fn build<F: FieldSpec>(k: usize) -> Self {
        let nbytes = F::M.div_ceil(8);
        let mut rows = Vec::with_capacity(nbytes);
        for j in 0..nbytes {
            let mut row = [[0u64; LIMBS]; 256];
            // Basis images: (x^(8j + b))^(2^k) by k squarings.
            let mut basis = [[0u64; LIMBS]; 8];
            for (b, slot) in basis.iter_mut().enumerate() {
                let bit = 8 * j + b;
                if bit >= F::M {
                    continue;
                }
                let mut l = [0u64; LIMBS];
                l[bit / 64] |= 1 << (bit % 64);
                let mut e = Element::<F>::from_limbs_reduced(l);
                for _ in 0..k {
                    e = e.square();
                }
                *slot = *e.limbs();
            }
            // Subset XOR: every byte value from its lowest set bit.
            for v in 1usize..256 {
                let low = v.trailing_zeros() as usize;
                let rest = v & (v - 1);
                let mut acc = row[rest];
                for (a, b) in acc.iter_mut().zip(&basis[low]) {
                    *a ^= b;
                }
                row[v] = acc;
            }
            rows.push(row);
        }
        Self { k, rows }
    }

    /// Apply the map: `a^(2^k)`.
    pub(crate) fn apply<F: FieldSpec>(&self, a: &Element<F>) -> Element<F> {
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

/// Process-wide cache of multi-squaring tables per (field, k).
pub(crate) fn table<F: FieldSpec>(k: usize) -> Arc<MultiSquareTable> {
    static REGISTRY: Registry<(core::any::TypeId, usize), Arc<MultiSquareTable>> = Registry::new();
    REGISTRY.get_or_insert_with((core::any::TypeId::of::<F>(), k), || {
        Arc::new(MultiSquareTable::build::<F>(k))
    })
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
    let t = table::<F>(k);
    debug_assert_eq!(t.k, k);
    t.apply(a)
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
