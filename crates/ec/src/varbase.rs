//! The variable-base scalar-multiplication seam: *what* is computed
//! (`k·P` for a run-time base point) decoupled from *how*.
//!
//! This mirrors the gf2m `FieldBackend` seam one layer up. Two
//! strategies implement the same group operation:
//!
//! * [`VarBaseStrategy::ProtectedLadder`] — the paper's constant-length
//!   Montgomery ladder with randomized projective coordinates
//!   ([`crate::ladder`]). Every **device-side** path (the implant's
//!   ECDH `shared_x`, the tag's `r·Y`) and every SCA/energy experiment
//!   is pinned to it directly — those call sites import `ladder::*`
//!   and never dispatch through this seam, so τNAF is unreachable from
//!   the modeled hardware.
//! * [`VarBaseStrategy::ServerTnaf`] — the τ-adic engine
//!   ([`crate::tnaf`]) for the wall-powered serving side, selected for
//!   Koblitz curves over fields large enough that the per-scalar
//!   recoding and table cost pays for itself (everything but the toy
//!   curve). Non-Koblitz curves (B-163) and the toy curve fall back to
//!   the ladder.
//!
//! On the ladder fallback, a batch entry point with at least four
//! finite bases (`LOCKSTEP_MIN_LANES`) over a field with m ≥ 64 (B-163
//! in practice) runs its ladders **in lockstep**: every item takes the
//! same ladder step at the same time, each field operation is one
//! batched plane operation over all items, and each item's key bit
//! steers a masked per-lane swap (`gf2m::ct`) instead of a branch. The
//! y-recoveries then share one batched inversion, and `mul_add`'s
//! `a·G + b·Q` is one batched mixed addition normalized by a second.
//! Each item's blinding Z is drawn in item order before the first
//! step, so results and the caller's random stream match the per-item
//! ladders bit for bit (`tests/varbase_equivalence.rs`). Smaller
//! batches, the toy curve and the single-item entry points run one
//! ladder per item, with one inversion each for y-recovery and the
//! affine sum.
//!
//! The server-side entry points below dispatch on
//! [`VarBaseStrategy::server_default`]; perfbench's host fingerprint
//! records the selected strategy name next to the field backend, so
//! every benchmark run is attributable to the exact compute stack
//! behind it.

use medsec_gf2m::{Element, FieldSpec};

use crate::curve::{CurveSpec, Point};
use crate::ladder::{
    batch_x_affine_into, ladder_mul, ladder_mul_lockstep, ladder_x_only, ladder_x_only_lockstep,
    CoordinateBlinding, LadderState, XAffineScratch,
};
use crate::proj::add_pairs_batch;
use crate::scalar::Scalar;
use crate::tnaf;

/// Fewest ladders a fallback batch must run before they go in
/// lockstep. Below four lanes every plane operation runs the batch
/// backend's scalar tail, with a gather and a scatter around it, and
/// the lockstep ladder loses to per-item ladders. Measured with
/// `varbase_x_batch` on B-163 over vpclmul (AVX-512 VPCLMULQDQ, 2-core
/// x86-64 host), per item, median of five ~200 ms rounds, lockstep
/// against per-item: width 1 233 µs against 191 µs, width 2 216 against
/// 204, width 3 202 against 167, width 4 33 against 190, width 64 22
/// against 184.
const LOCKSTEP_MIN_LANES: usize = 4;

/// Whether a fallback batch running `lanes` ladders (one per finite
/// base) on curve `C` runs them in lockstep: on fields with m ≥ 64 (the
/// cutoff [`VarBaseStrategy::server_default`] applies to τNAF; the toy
/// field's planes are reduced one element at a time, so lockstep gains
/// nothing there) and from [`LOCKSTEP_MIN_LANES`] ladders up.
fn use_lockstep<C: CurveSpec>(lanes: usize) -> bool {
    C::Field::M >= 64 && lanes >= LOCKSTEP_MIN_LANES
}

/// How a variable-base scalar multiplication is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarBaseStrategy {
    /// Constant-length Montgomery ladder with coordinate blinding — the
    /// device/SCA/energy path (and the fallback for curves τNAF cannot
    /// or should not serve).
    ProtectedLadder,
    /// Width-w τNAF over the Frobenius endomorphism — the serving path
    /// on Koblitz curves.
    ServerTnaf,
}

impl VarBaseStrategy {
    /// The strategy the serving side uses for curve `C`: τNAF exactly
    /// when the curve is Koblitz **and** the field is large enough for
    /// the recoding/table overhead to pay off (m ≥ 64 — i.e. K-163,
    /// K-233, K-283 but not the 17-bit toy curve).
    pub fn server_default<C: CurveSpec>() -> Self {
        if tnaf::is_koblitz::<C>() && C::Field::M >= 64 {
            VarBaseStrategy::ServerTnaf
        } else {
            VarBaseStrategy::ProtectedLadder
        }
    }

    /// Short name, recorded next to throughput numbers.
    pub fn name(self) -> &'static str {
        match self {
            VarBaseStrategy::ProtectedLadder => "ladder",
            VarBaseStrategy::ServerTnaf => "tnaf",
        }
    }
}

/// Name of the server-side strategy for curve `C` (for bench metadata).
pub fn server_strategy_name<C: CurveSpec>() -> &'static str {
    VarBaseStrategy::server_default::<C>().name()
}

/// Server-side `k·P` for a run-time base point. `next_u64` feeds the
/// ladder's coordinate blinding on the fallback path; the τNAF path is
/// deterministic (the server's scalars are not device secrets).
///
/// # Panics
///
/// On the ladder fallback, panics if `p` is the order-2 point with
/// x = 0 (see [`ladder_mul`]); it is never in the prime-order subgroup,
/// and servers refuse it before calling here.
pub fn varbase_mul<C: CurveSpec>(
    k: &Scalar<C>,
    p: &Point<C>,
    mut next_u64: impl FnMut() -> u64,
) -> Point<C> {
    match VarBaseStrategy::server_default::<C>() {
        VarBaseStrategy::ServerTnaf => tnaf::tnaf_mul(k, p),
        VarBaseStrategy::ProtectedLadder => {
            ladder_mul(k, p, CoordinateBlinding::RandomZ, &mut next_u64)
        }
    }
}

/// Server-side batched `k_i·P_i`. τNAF normalizes every result with
/// one inversion; the ladder fallback runs its ladders in lockstep
/// with one inversion for every y-recovery (see the module doc), or
/// one ladder per item in batches below the lockstep cutoff.
///
/// # Panics
///
/// On the ladder fallback, panics if a base is the order-2 point with
/// x = 0.
pub fn varbase_mul_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    mut next_u64: impl FnMut() -> u64,
) -> Vec<Point<C>> {
    if items.is_empty() {
        return Vec::new();
    }
    match VarBaseStrategy::server_default::<C>() {
        VarBaseStrategy::ServerTnaf => tnaf::tnaf_mul_batch(items),
        VarBaseStrategy::ProtectedLadder => {
            if use_lockstep::<C>(items.iter().filter(|(_, p)| !p.is_infinity()).count()) {
                return ladder_mul_lockstep(items, next_u64);
            }
            items
                .iter()
                .map(|(k, p)| ladder_mul(k, p, CoordinateBlinding::RandomZ, &mut next_u64))
                .collect()
        }
    }
}

/// Server-side batched shared-secret computation: the affine
/// x-coordinate of `k_i·P_i` (`None` at infinity), every result
/// normalized by one shared inversion — the gateway's ECDH shape.
///
/// # Panics
///
/// On the ladder fallback, panics if a base is the order-2 point with
/// x = 0.
pub fn varbase_x_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    next_u64: impl FnMut() -> u64,
) -> Vec<Option<Element<C::Field>>> {
    let mut out = Vec::with_capacity(items.len());
    varbase_x_batch_with(items, next_u64, &mut XAffineScratch::default(), &mut out);
    out
}

/// [`varbase_x_batch`] with caller-owned normalization scratch and
/// output buffer — the hub-worker entry point: the batched-inversion
/// and plane-multiplication buffers live in the worker's
/// [`XAffineScratch`] and are reused across batches on both
/// strategies. `out` is cleared and refilled.
///
/// On the ladder fallback the x-only ladders run in lockstep from four
/// finite bases up (module doc).
///
/// # Panics
///
/// On the ladder fallback, panics if a base is the order-2 point with
/// x = 0.
pub fn varbase_x_batch_with<C: CurveSpec>(
    items: &[(Scalar<C>, Point<C>)],
    mut next_u64: impl FnMut() -> u64,
    scratch: &mut XAffineScratch,
    out: &mut Vec<Option<Element<C::Field>>>,
) {
    out.clear();
    if items.is_empty() {
        return;
    }
    match VarBaseStrategy::server_default::<C>() {
        VarBaseStrategy::ServerTnaf => tnaf::tnaf_x_batch_with(items, scratch, out),
        VarBaseStrategy::ProtectedLadder => {
            // x-only ladders, one batched inversion. Bases at infinity
            // have no x and yield `None` without running a ladder.
            let mut lanes: Vec<(Scalar<C>, Element<C::Field>)> = Vec::with_capacity(items.len());
            let mut live: Vec<usize> = Vec::with_capacity(items.len());
            for (i, (k, p)) in items.iter().enumerate() {
                if let Some(px) = p.x() {
                    lanes.push((*k, px));
                    live.push(i);
                }
            }
            let states: Vec<LadderState<C>> = if use_lockstep::<C>(lanes.len()) {
                ladder_x_only_lockstep(&lanes, next_u64)
            } else {
                lanes
                    .iter()
                    .map(|(k, px)| {
                        ladder_x_only::<C>(k, *px, CoordinateBlinding::RandomZ, &mut next_u64)
                    })
                    .collect()
            };
            let mut xs = Vec::with_capacity(states.len());
            batch_x_affine_into(&states, scratch, &mut xs);
            out.resize(items.len(), None);
            for (slot, x) in live.into_iter().zip(xs) {
                out[slot] = x;
            }
        }
    }
}

/// Server-side `a·G + b·Q` — the verification equation shape
/// (`s·P − e·X` for Schnorr, `(s − ḋ)·P − e·R` for Peeters–Hermans).
/// On Koblitz curves this is one interleaved Strauss pass over τNAF;
/// the fallback runs the fixed-base comb plus one per-item ladder (a
/// single item never reaches the lockstep cutoff).
///
/// # Panics
///
/// On the ladder fallback, panics if `q` is the order-2 point with
/// x = 0.
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

/// Batched `a_i·G + b_i·Q_i`. τNAF shares one inversion across every
/// per-item table and one across every result. The ladder fallback
/// batches all fixed-base terms through one comb pass (one inversion).
/// From four finite `Q_i` up on fields with m ≥ 64 it runs the
/// `b_i·Q_i` ladders in lockstep, recovers every y with one inversion
/// and forms every `a_i·G + b_i·Q_i` by one batched mixed addition
/// normalized by one more. Smaller batches and the toy curve run one
/// ladder and two inversions per item.
///
/// # Panics
///
/// On the ladder fallback, panics if a `Q_i` is the order-2 point with
/// x = 0.
pub fn varbase_mul_add_gen_batch<C: CurveSpec>(
    items: &[(Scalar<C>, Scalar<C>, Point<C>)],
    mut next_u64: impl FnMut() -> u64,
) -> Vec<Point<C>> {
    if items.is_empty() {
        return Vec::new();
    }
    match VarBaseStrategy::server_default::<C>() {
        VarBaseStrategy::ServerTnaf => tnaf::tnaf_mul_add_gen_batch(items),
        VarBaseStrategy::ProtectedLadder => {
            let fixed_scalars: Vec<Scalar<C>> = items.iter().map(|(a, _, _)| *a).collect();
            let fixed = crate::comb::generator_mul_batch(&fixed_scalars);
            if use_lockstep::<C>(items.iter().filter(|(_, _, q)| !q.is_infinity()).count()) {
                let var: Vec<(Scalar<C>, Point<C>)> =
                    items.iter().map(|(_, b, q)| (*b, *q)).collect();
                return add_pairs_batch(&fixed, &ladder_mul_lockstep(&var, next_u64));
            }
            items
                .iter()
                .zip(fixed)
                .map(|((_, b, q), ag)| {
                    ag + ladder_mul(b, q, CoordinateBlinding::RandomZ, &mut next_u64)
                })
                .collect()
        }
    }
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
        assert_eq!(server_strategy_name::<K163>(), "tnaf");
        assert_eq!(server_strategy_name::<K233>(), "tnaf");
        assert_eq!(server_strategy_name::<K283>(), "tnaf");
        // Not Koblitz → ladder.
        assert_eq!(server_strategy_name::<B163>(), "ladder");
        // Koblitz but too small to pay the recoding overhead → ladder.
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
        // B-163: not Koblitz — fallback must be taken and correct.
        let g = B163::generator();
        let k = Scalar::<B163>::random_nonzero(&mut r);
        let expect = ladder_mul(&k, &g, CoordinateBlinding::RandomZ, &mut r);
        assert_eq!(varbase_mul(&k, &g, &mut r), expect);
        // Toy17: Koblitz but below the size cutoff.
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
