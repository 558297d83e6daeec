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

/// Lane-wise element select over two plane-major batches: slot `i` of
/// `dst` takes slot `i` of `src` where `masks[i]` is all ones and keeps
/// its own where it is zero. The comb's fixes for an accumulator at
/// infinity or equal to its entry go through here.
///
/// # Panics
///
/// Panics unless `dst` and `src` both hold `LIMBS` planes of
/// `masks.len()` (public) words.
pub fn ct_select_lanes(masks: &[u64], dst: &mut [u64], src: &[u64]) {
    let n = masks.len();
    assert!(
        dst.len() == LIMBS * n && src.len() == LIMBS * n,
        "lane count mismatch"
    );
    if n == 0 {
        return;
    }
    for (pd, ps) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
        for ((d, s), mask) in pd.iter_mut().zip(ps).zip(masks) {
            *d ^= mask & (*d ^ *s);
        }
    }
}

/// Lane-wise masked add over two plane-major batches: `dst[i] += src[i]`
/// (XOR) where `masks[i]` is all ones, nothing where it is zero. The
/// comb's negation y ↦ x + y goes through here.
///
/// # Panics
///
/// As [`ct_select_lanes`].
pub fn ct_xor_lanes(masks: &[u64], dst: &mut [u64], src: &[u64]) {
    let n = masks.len();
    assert!(
        dst.len() == LIMBS * n && src.len() == LIMBS * n,
        "lane count mismatch"
    );
    if n == 0 {
        return;
    }
    for (pd, ps) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
        for ((d, s), mask) in pd.iter_mut().zip(ps).zip(masks) {
            *d ^= mask & *s;
        }
    }
}

/// Per-lane table read by masked scan: slot `i` of each plane-major
/// batch `out[c]` takes coordinate `c` of entry `idx[i]` of `table`.
/// Every lane reads every entry and keeps the one whose position
/// matches its index by mask, so the memory accesses are the same
/// whatever the indices; an index past the table selects nothing and
/// leaves the slot zero. Only the field's own limbs are written.
///
/// # Panics
///
/// Panics unless every `out[c]` holds `LIMBS` planes of `idx.len()`
/// words.
pub fn ct_lookup_lanes<F: FieldSpec, const K: usize>(
    idx: &[u64],
    table: &[[Element<F>; K]],
    mut out: [&mut [u64]; K],
) {
    let n = idx.len();
    let nw = F::M.div_ceil(64);
    assert!(
        out.iter().all(|o| o.len() == LIMBS * n),
        "lane count mismatch"
    );
    for (i, &want) in idx.iter().enumerate() {
        let mut acc = [[0u64; LIMBS]; K];
        for (m, entry) in (0u64..).zip(table) {
            let mask = ct_mask_u64(want == m);
            for (a, e) in acc.iter_mut().zip(entry) {
                for (w, l) in a.iter_mut().zip(e.limbs()).take(nw) {
                    *w |= mask & l;
                }
            }
        }
        for (o, a) in out.iter_mut().zip(&acc) {
            for (j, w) in a.iter().enumerate().take(nw) {
                o[j * n + i] = *w;
            }
        }
    }
}

/// Lane-wise masked broadcast: slot `i` of the plane-major batch `dst`
/// takes the element whose low limbs are `limbs` where `masks[i]` is
/// all ones; planes past `limbs.len()` are left alone. The comb's
/// masked table scan goes through here, one call per entry and
/// coordinate.
///
/// # Panics
///
/// Panics unless `dst` holds `LIMBS` planes of `masks.len()` words and
/// `limbs` at most `LIMBS` limbs.
pub fn ct_fill_lanes(masks: &[u64], dst: &mut [u64], limbs: &[u64]) {
    let n = masks.len();
    assert!(
        dst.len() == LIMBS * n && limbs.len() <= LIMBS,
        "lane count mismatch"
    );
    if n == 0 {
        return;
    }
    for (pd, l) in dst.chunks_exact_mut(n).zip(limbs) {
        for (d, mask) in pd.iter_mut().zip(masks) {
            *d ^= mask & (*d ^ *l);
        }
    }
}

/// `masks[i]` ← all ones where slot `i` of the plane-major batch
/// `planes` is the zero element, else zero: the limbs are OR-folded and
/// compared once, whatever their values.
///
/// # Panics
///
/// Panics unless `planes` holds `LIMBS` planes of `masks.len()` words.
pub fn ct_zero_lanes(planes: &[u64], masks: &mut [u64]) {
    let n = masks.len();
    assert_eq!(planes.len(), LIMBS * n, "lane count mismatch");
    masks.fill(0);
    if n == 0 {
        return;
    }
    for plane in planes.chunks_exact(n) {
        for (acc, w) in masks.iter_mut().zip(plane) {
            *acc |= *w;
        }
    }
    for acc in masks.iter_mut() {
        *acc = ct_mask_u64(*acc == 0);
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

    /// The comb's lane helpers against per-element reference code, at
    /// widths that are empty, a single lane and ragged.
    #[test]
    fn comb_lane_helpers_match_element_ops() {
        let mut s = 0x1a4e_u64;
        let mut next = move || {
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            s
        };
        let planes = |xs: &[Element<F163>]| {
            let mut p = Planes::new();
            p.reset(xs.len());
            for (i, x) in xs.iter().enumerate() {
                p.set(i, x);
            }
            p
        };
        let table: Vec<[Element<F163>; 2]> = (0..4)
            .map(|_| [Element::random(&mut next), Element::random(&mut next)])
            .collect();
        for n in [0usize, 1, 3, 9] {
            let mut xs: Vec<Element<F163>> = (0..n).map(|_| Element::random(&mut next)).collect();
            let ys: Vec<Element<F163>> = (0..n).map(|_| Element::random(&mut next)).collect();
            if n > 1 {
                xs[1] = Element::zero();
            }
            let bits: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
            let masks: Vec<u64> = bits.iter().map(|&c| ct_mask_u64(c)).collect();
            let (px, py) = (planes(&xs), planes(&ys));

            let mut zero = vec![7u64; n];
            ct_zero_lanes(px.data(), &mut zero);
            let mut select = px.clone();
            ct_select_lanes(&masks, select.data_mut(), py.data());
            let mut add = px.clone();
            ct_xor_lanes(&masks, add.data_mut(), py.data());
            let mut fill = px.clone();
            ct_fill_lanes(&masks, fill.data_mut(), &[5, 6, 0]);
            // Index 4 is past the table: it reads nothing.
            let idx: Vec<u64> = (0..n).map(|_| next() % 5).collect();
            let (mut o0, mut o1) = (Planes::new(), Planes::new());
            o0.reset(n);
            o1.reset(n);
            ct_lookup_lanes(&idx, &table, [o0.data_mut(), o1.data_mut()]);

            let five_six = Element::<F163>::from_hex("60000000000000005").unwrap();
            for i in 0..n {
                assert_eq!(zero[i], ct_mask_u64(xs[i].is_zero()), "n={n} lane {i}");
                let pick = ct_select(bits[i], &ys[i], &xs[i]);
                assert_eq!(select.get::<F163>(i), pick, "n={n} lane {i}");
                let sum = if bits[i] { xs[i] + ys[i] } else { xs[i] };
                assert_eq!(add.get::<F163>(i), sum, "n={n} lane {i}");
                let filled = if bits[i] { five_six } else { xs[i] };
                assert_eq!(fill.get::<F163>(i), filled, "n={n} lane {i}");
                let entry = table
                    .get(idx[i] as usize)
                    .copied()
                    .unwrap_or([Element::zero(); 2]);
                assert_eq!([o0.get::<F163>(i), o1.get(i)], entry, "n={n} lane {i}");
            }
        }
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
