//! The server's variable-base scalar multiplication: `k·P` for a
//! run-time base point, computed on every curve by the paper's
//! protected Montgomery ladder ([`crate::ladder`]): constant length,
//! with randomized projective coordinates.
//!
//! The device-side paths (the implant's ECDH `shared_x`, the tag's
//! `r·Y`) and every SCA and energy experiment call `ladder::*`
//! directly. The entry points here are the gateway's: the same ladder,
//! batched.
//!
//! A batch runs its ladders **in lockstep** on every curve: every item
//! takes the same ladder step at the same time, and each item's key bit
//! steers a masked per-lane swap instead of a branch. The whole ladder
//! is one call into the field backend (`gf2m::ladder_planes`): on
//! AVX-512 hosts each chunk of up to eight items of a field with
//! m ≥ 64 stays in ZMM registers from the first step to the last; on
//! the others, and on the toy field, each field operation is one
//! batched plane operation over all items. The y-recoveries then share
//! one batched inversion, and `mul_add`'s `a·G + b·Q` is one batched
//! mixed addition normalized by a second. Each item's blinding Z is
//! drawn in item order before the first step, so results and the
//! caller's random stream match the per-item ladders bit for bit
//! (`tests/varbase_equivalence.rs`). The single-item [`varbase_mul`] is
//! the same ladder at width one, with its own inversion for
//! y-recovery. Every entry point keeps its scratch thread-local, so
//! callers hand over only scalars, points and a random stream.
//!
//! Two of the server's scalars are secrets: the Peeters–Hermans
//! reader's long-term key y (every ḋ = xcoord(y·R)) and the mutual
//! server's ephemeral key. The ladder's operation flow does not depend
//! on either: a lane's key bit only steers its masked swaps, inside a
//! lint-checked constant-time region, and every field multiplication
//! under it takes a fixed operation sequence (the AVX-512 kernel's
//! plane folds, and the scalar `mul`/`sqr`'s straight-line reduction
//! whose schedule depends only on the field). The τ-adic engine
//! ([`crate::tnaf`]) indexes a table by the scalar's digits, so no
//! serving path calls it.
//!
//! [`server_strategy_name`] names the algorithm behind these entry
//! points; perfbench's host fingerprint records it next to the field
//! backend, so every benchmark run is attributable to the compute
//! stack behind it.

use medsec_gf2m::Element;

use crate::curve::{CurveSpec, Point};
use crate::ladder::{
    batch_x_affine, ladder_mul, ladder_mul_lockstep, ladder_x_only_lockstep, CoordinateBlinding,
};
use crate::proj::add_pairs_batch;
use crate::scalar::Scalar;

/// Name of the server's variable-base algorithm for curve `C` (for
/// bench metadata): `"ladder"` on every curve.
pub fn server_strategy_name<C: CurveSpec>() -> &'static str {
    "ladder"
}

/// Server-side `k·P` for a run-time base point: one protected ladder,
/// blinded from `next_u64`.
///
/// # Panics
///
/// Panics if `p` is the order-2 point with x = 0 (see [`ladder_mul`]);
/// it is never in the prime-order subgroup, and servers refuse it
/// before calling here.
pub fn varbase_mul<C: CurveSpec>(
    k: &Scalar<C>,
    p: &Point<C>,
    next_u64: impl FnMut() -> u64,
) -> Point<C> {
    ladder_mul(k, p, CoordinateBlinding::RandomZ, next_u64)
}

/// Server-side batched `k_i·P_i`: the ladders run in lockstep with one
/// inversion for every y-recovery (see the module doc).
///
/// # Panics
///
/// Panics if a base is the order-2 point with x = 0.
pub fn varbase_mul_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    next_u64: impl FnMut() -> u64,
) -> Vec<Point<C>> {
    ladder_mul_lockstep(items, next_u64)
}

/// Server-side batched shared-secret computation: the affine
/// x-coordinate of `k_i·P_i` (`None` at infinity), the x-only ladders
/// run in lockstep (module doc) and every result normalized by one
/// shared inversion ([`batch_x_affine`]) — the gateway's ECDH shape.
///
/// # Panics
///
/// Panics if a base is the order-2 point with x = 0.
pub fn varbase_x_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    next_u64: impl FnMut() -> u64,
) -> Vec<Option<Element<C::Field>>> {
    // Bases at infinity have no x and yield `None` without running a
    // ladder.
    let mut lanes: Vec<(Scalar<C>, Element<C::Field>)> = Vec::with_capacity(items.len());
    let mut live: Vec<usize> = Vec::with_capacity(items.len());
    for (i, (k, p)) in items.iter().enumerate() {
        if let Some(px) = p.x() {
            lanes.push((*k, px));
            live.push(i);
        }
    }
    let xs = batch_x_affine(&ladder_x_only_lockstep(&lanes, next_u64));
    let mut out = vec![None; items.len()];
    for (slot, x) in live.into_iter().zip(xs) {
        out[slot] = x;
    }
    out
}

/// Server-side `a·G + b·Q` — the verification equation shape
/// (`s·P − e·X` for Schnorr, `(s − ḋ)·P − e·R` for Peeters–Hermans):
/// the fixed-base comb for `a·G` plus one protected ladder for `b·Q`,
/// as a batch of one.
///
/// # Panics
///
/// Panics if `q` is the order-2 point with x = 0.
pub fn varbase_mul_add_gen<C: CurveSpec>(
    a: &Scalar<C>,
    b: &Scalar<C>,
    q: &Point<C>,
    mut next_u64: impl FnMut() -> u64,
) -> Point<C> {
    varbase_mul_add_gen_batch(core::slice::from_ref(&(*a, *b, *q)), &mut next_u64)
        .pop()
        .expect("one result per input")
}

/// Batched `a_i·G + b_i·Q_i`. Every fixed-base term goes through one
/// comb pass (one inversion), the `b_i·Q_i` ladders run in lockstep,
/// every y is recovered with one inversion, and every
/// `a_i·G + b_i·Q_i` is one batched mixed addition normalized by one
/// more.
///
/// # Panics
///
/// Panics if a `Q_i` is the order-2 point with x = 0.
pub fn varbase_mul_add_gen_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Scalar<C>, Point<C>)],
    next_u64: impl FnMut() -> u64,
) -> Vec<Point<C>> {
    if items.is_empty() {
        return Vec::new();
    }
    let fixed_scalars: Vec<Scalar<C>> = items.iter().map(|(a, _, _)| *a).collect();
    let fixed = crate::comb::generator_mul_batch(&fixed_scalars);
    let var: Vec<(Scalar<C>, Point<C>)> = items.iter().map(|(_, b, q)| (*b, *q)).collect();
    add_pairs_batch(&fixed, &ladder_mul_lockstep(&var, next_u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Toy17, B163, K163};

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
    fn strategy_selection_per_curve() {
        use crate::curves::{K233, K283};
        assert_eq!(server_strategy_name::<K163>(), "ladder");
        assert_eq!(server_strategy_name::<K233>(), "ladder");
        assert_eq!(server_strategy_name::<K283>(), "ladder");
        assert_eq!(server_strategy_name::<B163>(), "ladder");
        assert_eq!(server_strategy_name::<Toy17>(), "ladder");
    }

    #[test]
    fn dispatch_agrees_with_ladder_k163() {
        let mut r = rng_from(61);
        let g = K163::generator();
        for _ in 0..4 {
            let k = Scalar::<K163>::random_nonzero(&mut r);
            let base = ladder_mul(
                &Scalar::<K163>::random_nonzero(&mut r),
                &g,
                CoordinateBlinding::RandomZ,
                &mut r,
            );
            let expect = ladder_mul(&k, &base, CoordinateBlinding::RandomZ, &mut r);
            assert_eq!(varbase_mul(&k, &base, &mut r), expect);
        }
    }

    #[test]
    fn fallback_curves_produce_ladder_results() {
        let mut r = rng_from(62);
        let g = B163::generator();
        let k = Scalar::<B163>::random_nonzero(&mut r);
        let expect = ladder_mul(&k, &g, CoordinateBlinding::RandomZ, &mut r);
        assert_eq!(varbase_mul(&k, &g, &mut r), expect);
        // Toy17: against brute force.
        let g = Toy17::generator();
        for kv in [0u64, 1, 2, 12345, 65586] {
            let k = Scalar::<Toy17>::from_u64(kv);
            assert_eq!(varbase_mul(&k, &g, &mut r), g.mul_double_and_add(&k));
        }
    }

    #[test]
    fn mul_batch_matches_singles_both_strategies() {
        fn check<C: CurveSpec>(seed: u64, n: usize) {
            let mut r = rng_from(seed);
            let g = C::generator();
            let mut items: Vec<(Scalar<C>, Point<C>)> = (0..n)
                .map(|_| {
                    let base = ladder_mul(
                        &Scalar::<C>::random_nonzero(&mut r),
                        &g,
                        CoordinateBlinding::RandomZ,
                        &mut r,
                    );
                    (Scalar::random_nonzero(&mut r), base)
                })
                .collect();
            items.push((Scalar::zero(), g));
            let batch = varbase_mul_batch(&items, &mut r);
            assert_eq!(batch.len(), items.len());
            for ((k, p), got) in items.iter().zip(&batch) {
                assert_eq!(*got, varbase_mul(k, p, &mut r));
            }
            assert_eq!(*batch.last().unwrap(), Point::infinity());
            assert!(varbase_mul_batch::<C>(&[], &mut r).is_empty());
        }
        check::<K163>(68, 3);
        check::<B163>(69, 2);
        check::<Toy17>(70, 6);
    }

    #[test]
    fn x_batch_matches_mul_both_strategies() {
        fn check<C: CurveSpec>(seed: u64, n: usize) {
            let mut r = rng_from(seed);
            let g = C::generator();
            let mut items: Vec<(Scalar<C>, Point<C>)> = (0..n)
                .map(|_| {
                    let base = ladder_mul(
                        &Scalar::<C>::random_nonzero(&mut r),
                        &g,
                        CoordinateBlinding::RandomZ,
                        &mut r,
                    );
                    (Scalar::random_nonzero(&mut r), base)
                })
                .collect();
            items.push((Scalar::zero(), g)); // result at infinity
            items.push((Scalar::one(), Point::infinity())); // base at infinity
            let xs = varbase_x_batch(&items, &mut r);
            assert_eq!(xs.len(), items.len());
            for ((k, p), x) in items.iter().zip(&xs) {
                let expect = if p.is_infinity() {
                    None
                } else {
                    ladder_mul(k, p, CoordinateBlinding::RandomZ, &mut r).x()
                };
                assert_eq!(*x, expect);
            }
        }
        check::<K163>(63, 3);
        check::<Toy17>(64, 8);
    }

    #[test]
    fn mul_add_matches_separate_ops_both_strategies() {
        fn check<C: CurveSpec>(seed: u64, n: usize) {
            let mut r = rng_from(seed);
            let g = C::generator();
            let items: Vec<(Scalar<C>, Scalar<C>, Point<C>)> = (0..n)
                .map(|_| {
                    let q = ladder_mul(
                        &Scalar::<C>::random_nonzero(&mut r),
                        &g,
                        CoordinateBlinding::RandomZ,
                        &mut r,
                    );
                    (
                        Scalar::random_nonzero(&mut r),
                        Scalar::random_nonzero(&mut r),
                        q,
                    )
                })
                .collect();
            let got = varbase_mul_add_gen_batch(&items, &mut r);
            for ((a, b, q), got) in items.iter().zip(&got) {
                let expect = ladder_mul(a, &g, CoordinateBlinding::RandomZ, &mut r)
                    + ladder_mul(b, q, CoordinateBlinding::RandomZ, &mut r);
                assert_eq!(*got, expect);
            }
        }
        check::<K163>(65, 3);
        check::<B163>(66, 2);
        check::<Toy17>(67, 6);
    }
}
