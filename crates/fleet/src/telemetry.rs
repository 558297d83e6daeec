//! Worker-side observability glue: the hub's bridge to `medsec-obs`.
//!
//! Each worker thread owns one [`WorkerObs`] — either `Off` (the
//! default; every hook below is a single branch) or `On` with a live
//! [`StageRecorder`] that is lock-free because nothing else can reach
//! it. After the serving scope joins, the hub folds every worker's
//! recorder into one fleet-wide [`Telemetry`](medsec_obs::Telemetry).
//!
//! Stage spans use the begin/end pair so sequential serving code can
//! bracket a phase without closure-borrow gymnastics, and every span
//! subtracts the wall time `medsec_gf2m::batch_invert` booked on this
//! thread while the span was open — the one-inversion-per-batch
//! contract gets its own [`Stage::BatchInvert`] attribution instead of
//! being smeared into whichever stage called it.

use std::time::Instant;

use medsec_obs::{Stage, StageRecorder};

/// Per-worker observability handle: `Off` costs one branch per hook.
#[derive(Debug)]
pub(crate) enum WorkerObs {
    /// Observability disabled (the default serving configuration).
    Off,
    /// Live recorder, owned by exactly one worker thread.
    On(Box<StageRecorder>),
}

/// An open stage span: wall-clock start plus the invclock level at
/// entry (so the inversion share can be peeled off at `end`).
pub(crate) struct SpanTimer {
    start: Instant,
    inv0: u64,
}

impl WorkerObs {
    /// A handle recording over `lanes` lanes when `enabled`.
    pub(crate) fn new(enabled: bool, lanes: usize) -> Self {
        if enabled {
            WorkerObs::On(Box::new(StageRecorder::new(lanes)))
        } else {
            WorkerObs::Off
        }
    }

    /// Open a stage span. `None` (no clock read at all) when disabled.
    #[inline]
    pub(crate) fn begin(&self) -> Option<SpanTimer> {
        match self {
            WorkerObs::Off => None,
            WorkerObs::On(_) => Some(SpanTimer {
                start: Instant::now(),
                inv0: medsec_gf2m::invclock::spent_ns(),
            }),
        }
    }

    /// Close a span, booking its wall time against `stage` on `lane` —
    /// minus whatever `batch_invert` booked meanwhile, which goes to
    /// [`Stage::BatchInvert`] instead.
    #[inline]
    pub(crate) fn end(&mut self, span: Option<SpanTimer>, lane: usize, stage: Stage) {
        let (WorkerObs::On(rec), Some(span)) = (self, span) else {
            return;
        };
        let ns = span.start.elapsed().as_nanos() as u64;
        let inv = medsec_gf2m::invclock::spent_ns().wrapping_sub(span.inv0);
        rec.stage(lane, stage, ns.saturating_sub(inv));
        if inv > 0 {
            rec.stage(lane, Stage::BatchInvert, inv);
        }
    }

    /// Start-of-wave wall clock for per-session latency attribution
    /// (`None`, no clock read, when disabled).
    #[inline]
    pub(crate) fn wave_start(&self) -> Option<Instant> {
        match self {
            WorkerObs::Off => None,
            WorkerObs::On(_) => Some(Instant::now()),
        }
    }

    /// Book `n` completed sessions on `lane` that each observed `ns`
    /// of wall latency.
    #[inline]
    pub(crate) fn session_latency(&mut self, lane: usize, ns: u64, n: u64) {
        if let WorkerObs::On(rec) = self {
            rec.session_latency(lane, ns, n);
        }
    }

    /// Bump the free-form counter `key` by `n` (dropped when disabled
    /// or zero — absent counters read as zero in the merged view).
    #[inline]
    pub(crate) fn count(&mut self, key: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        if let WorkerObs::On(rec) = self {
            rec.count(key, n);
        }
    }

    /// The live recorder, if any (for post-join merging).
    pub(crate) fn into_recorder(self) -> Option<Box<StageRecorder>> {
        match self {
            WorkerObs::Off => None,
            WorkerObs::On(rec) => Some(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_obs::STAGE_COUNT;

    #[test]
    fn off_handle_records_nothing_and_begin_is_free() {
        let mut obs = WorkerObs::new(false, 3);
        assert!(obs.begin().is_none());
        obs.end(None, 0, Stage::Hello);
        obs.session_latency(0, 1234, 1);
        obs.count("sched_stolen_batches", 7);
        assert!(obs.into_recorder().is_none());
    }

    #[test]
    fn spans_book_time_against_the_named_stage() {
        let mut obs = WorkerObs::new(true, 2);
        let t = obs.begin();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        obs.end(t, 1, Stage::Verify);
        obs.session_latency(1, 500, 4);
        obs.count("sched_home_batches", 3);
        obs.count("sched_home_batches", 2);
        obs.count("sched_stolen_batches", 0); // zero: dropped
        let rec = obs.into_recorder().expect("enabled");
        assert_eq!(rec.counters(), &[("sched_home_batches", 5)]);
        let lane = &rec.lanes()[1];
        assert_eq!(lane.stage_calls[Stage::Verify.index()], 1);
        assert!(lane.stage_ns[Stage::Verify.index()] > 0);
        assert_eq!(lane.latency.count(), 4);
        // Nothing leaked onto lane 0 or other stages.
        assert_eq!(rec.lanes()[0].stage_calls, [0; STAGE_COUNT]);
        assert_eq!(lane.stage_calls[Stage::Hello.index()], 0);
    }

    #[test]
    fn batch_invert_time_is_peeled_out_of_the_containing_span() {
        use medsec_gf2m::{Element, F163};
        medsec_gf2m::invclock::set_enabled(true);
        medsec_gf2m::invclock::take();
        let mut obs = WorkerObs::new(true, 1);
        let t = obs.begin();
        let mut v: Vec<Element<F163>> = (1..64u64).map(Element::from_u64).collect();
        assert_eq!(medsec_gf2m::batch_invert(&mut v), 63);
        obs.end(t, 0, Stage::Verify);
        medsec_gf2m::invclock::set_enabled(false);
        let rec = obs.into_recorder().expect("enabled");
        let lane = &rec.lanes()[0];
        assert!(
            lane.stage_ns[Stage::BatchInvert.index()] > 0,
            "inversion time must surface in its own stage"
        );
        assert_eq!(lane.stage_calls[Stage::BatchInvert.index()], 1);
        assert_eq!(lane.stage_calls[Stage::Verify.index()], 1);
    }
}
