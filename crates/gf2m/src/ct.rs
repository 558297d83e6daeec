//! Constant-time building blocks: masked selects/swaps over limb
//! arrays and field elements, and an accumulate-OR byte comparison.
//!
//! This module is the single audited home for data-dependent selection
//! in the workspace. The protected Montgomery ladder (`medsec-ec`), its
//! lockstep server form (one swap per lane over plane-major batches)
//! and the MAC tag comparison (`medsec-lwc`) route through these helpers
//! instead of branching on secrets; `medsec-lint`'s `ct-*` rules
//! forbid branchy constructs everywhere else in ct-pinned modules and
//! allowlist exactly this file.
//!
//! Every helper follows the same discipline: derive an all-ones/
//! all-zeros mask from the secret condition with `wrapping_neg`, pass
//! it through [`core::hint::black_box`] so the optimizer cannot
//! convert the masked arithmetic back into a branch, then combine with
//! XOR/AND only. No helper here branches, indexes, or early-returns on
//! its secret inputs.

use crate::field::{Element, FieldSpec};
use crate::LIMBS;
use core::hint::black_box;

/// Expand a secret boolean into an all-ones (`true`) or all-zeros
/// (`false`) 64-bit mask, opaque to the optimizer.
#[inline]
#[must_use]
pub fn ct_mask_u64(c: bool) -> u64 {
    black_box((c as u64).wrapping_neg())
}

/// Return `a` when `c` is `true`, `b` otherwise, without branching.
#[inline]
#[must_use]
pub fn ct_select_u64(c: bool, a: u64, b: u64) -> u64 {
    let mask = ct_mask_u64(c);
    b ^ (mask & (a ^ b))
}

/// Swap `a[i]` and `b[i]` for every limb when `c` is `true`; leave
/// both untouched when `false`. Always performs the identical sequence
/// of loads, XORs and stores either way.
///
/// The two slices must have equal length; that length is public.
#[inline]
pub fn ct_swap_limbs(c: bool, a: &mut [u64], b: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mask = ct_mask_u64(c);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let t = mask & (*x ^ *y);
        *x ^= t;
        *y ^= t;
    }
}

/// Constant-time equality over byte strings of equal (public) length.
/// Accumulates the OR of all byte differences and compares once at the
/// end, so timing reveals only the length — never the position of the
/// first mismatch.
///
/// Returns `false` immediately only on a length mismatch, which is
/// public information (wire frames carry explicit lengths).
#[must_use]
pub fn ct_eq_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    black_box(diff) == 0
}

/// Branch-free element select: `a` when `c` is `true`, else `b`.
#[inline]
#[must_use]
pub fn ct_select<F: FieldSpec>(c: bool, a: &Element<F>, b: &Element<F>) -> Element<F> {
    let mut out = *b;
    let mask = ct_mask_u64(c);
    for (o, (x, y)) in out
        .limbs_mut()
        .iter_mut()
        .zip(a.limbs().iter().zip(b.limbs().iter()))
    {
        *o = y ^ (mask & (x ^ y));
    }
    out
}

/// Branch-free element swap: exchange `a` and `b` when `c` is `true`.
/// This is the ladder's cswap: the key bit steers which projective leg
/// feeds the madd/mdouble schedule, with an identical memory-access
/// pattern for both bit values.
#[inline]
pub fn ct_swap<F: FieldSpec>(c: bool, a: &mut Element<F>, b: &mut Element<F>) {
    ct_swap_limbs(c, a.limbs_mut(), b.limbs_mut());
}

/// Lane-wise element swap over two plane-major batches (the layout of
/// [`crate::batch`]): exchange slot `i` of `a` and `b` where `masks[i]`
/// is all ones, leave it where `masks[i]` is zero. This is the
/// lockstep ladder's cswap: each lane's key bit, expanded by
/// [`ct_mask_u64`], steers its own swap, and the loads, XORs and stores
/// are the same for every mask pattern.
///
/// # Panics
///
/// Panics unless `a` and `b` both hold `LIMBS` planes of
/// `masks.len()` (public) words.
pub fn ct_swap_lanes(masks: &[u64], a: &mut [u64], b: &mut [u64]) {
    let n = masks.len();
    assert!(
        a.len() == LIMBS * n && b.len() == LIMBS * n,
        "lane count mismatch"
    );
    if n == 0 {
        return;
    }
    let planes = a.chunks_exact_mut(n).zip(b.chunks_exact_mut(n));
    for (pa, pb) in planes {
        for ((x, y), mask) in pa.iter_mut().zip(pb.iter_mut()).zip(masks) {
            let t = mask & (*x ^ *y);
            *x ^= t;
            *y ^= t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Planes;
    use crate::fields::F163;

    #[test]
    fn mask_is_all_or_nothing() {
        assert_eq!(ct_mask_u64(true), u64::MAX);
        assert_eq!(ct_mask_u64(false), 0);
    }

    #[test]
    fn select_u64_matches_branch() {
        assert_eq!(ct_select_u64(true, 7, 9), 7);
        assert_eq!(ct_select_u64(false, 7, 9), 9);
    }

    #[test]
    fn swap_limbs_matches_branch() {
        let mut a = [1u64, 2, 3];
        let mut b = [9u64, 8, 7];
        ct_swap_limbs(false, &mut a, &mut b);
        assert_eq!((a, b), ([1, 2, 3], [9, 8, 7]));
        ct_swap_limbs(true, &mut a, &mut b);
        assert_eq!((a, b), ([9, 8, 7], [1, 2, 3]));
    }

    #[test]
    fn eq_bytes_semantics() {
        assert!(ct_eq_bytes(b"abcd", b"abcd"));
        assert!(!ct_eq_bytes(b"abcd", b"abce"));
        assert!(!ct_eq_bytes(b"abcd", b"zbcd"));
        assert!(!ct_eq_bytes(b"abcd", b"abc"));
        assert!(ct_eq_bytes(b"", b""));
    }

    #[test]
    fn element_select_and_swap() {
        let a = Element::<F163>::from_u64(0xdead_beef);
        let b = Element::<F163>::from_u64(0x1234_5678);
        assert_eq!(ct_select(true, &a, &b), a);
        assert_eq!(ct_select(false, &a, &b), b);
        let (mut x, mut y) = (a, b);
        ct_swap(false, &mut x, &mut y);
        assert_eq!((x, y), (a, b));
        ct_swap(true, &mut x, &mut y);
        assert_eq!((x, y), (b, a));
    }

    #[test]
    fn swap_lanes_matches_element_swap() {
        let mut s = 0x5eed_u64;
        let mut next = move || {
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            s
        };
        for n in [0usize, 1, 3, 8, 65] {
            let xs: Vec<Element<F163>> = (0..n).map(|_| Element::random(&mut next)).collect();
            let ys: Vec<Element<F163>> = (0..n).map(|_| Element::random(&mut next)).collect();
            let bits: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
            let (mut a, mut b) = (Planes::new(), Planes::new());
            a.reset(n);
            b.reset(n);
            for i in 0..n {
                a.set(i, &xs[i]);
                b.set(i, &ys[i]);
            }
            let masks: Vec<u64> = bits.iter().map(|&c| ct_mask_u64(c)).collect();
            ct_swap_lanes(&masks, a.data_mut(), b.data_mut());
            for i in 0..n {
                let (mut x, mut y) = (xs[i], ys[i]);
                ct_swap(bits[i], &mut x, &mut y);
                assert_eq!(
                    (a.get::<F163>(i), b.get::<F163>(i)),
                    (x, y),
                    "n={n} lane {i}"
                );
            }
        }
    }
}
