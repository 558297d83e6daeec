//! Metric recorders: per-stage pipeline spans, per-lane latency
//! histograms, counters — thread-local by construction.
//!
//! The design rule is that **observability must cost one branch when
//! disabled**: a serving worker either holds no recorder at all (the
//! disabled path is that one branch) or owns a [`StageRecorder`]
//! outright — no locks, no atomics, no allocation after construction.
//! Workers are merged after the run joins, yielding one fleet-wide
//! [`Telemetry`].

use crate::events::EventLogSnapshot;
use crate::hist::Histogram;

/// One stage of the serving pipeline, in serving order. A session's
/// wall time decomposes into these attributable spans:
///
/// * [`Admit`](Stage::Admit) — wire-level `Negotiate` decode and
///   profile validation (reject-on-unknown), before any ECC work;
/// * [`Assemble`](Stage::Assemble) — batch assembly: id maps, frame
///   reference vectors, result pairing and tallying;
/// * [`Hello`](Stage::Hello) — batched `ServerHello` generation (the
///   fixed-base-comb hot loop);
/// * [`DeviceTurn`](Stage::DeviceTurn) — device-side deframe/decode
///   plus the device's ladder crypto and reply framing;
/// * [`Verify`](Stage::Verify) — batched server-side verification
///   (τNAF `mul_add` / ECDH engine batches, symmetric open);
/// * [`BatchInvert`](Stage::BatchInvert) — the shared Montgomery
///   batch inversions, measured inside `medsec_gf2m` and *subtracted*
///   from the containing stage, so the one-inversion-per-batch
///   contract is separately visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Negotiate/admit: wire decode + profile validation.
    Admit,
    /// Batch assembly: id maps, frame vectors, result tallying.
    Assemble,
    /// Batched ServerHello generation (fixed-base comb).
    Hello,
    /// Device-side deframe/decode + ladder crypto.
    DeviceTurn,
    /// Batched server verification (variable-base engine, symmetric).
    Verify,
    /// Shared Montgomery batch inversions (attributed separately).
    BatchInvert,
}

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 6;

/// Every stage, in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Admit,
    Stage::Assemble,
    Stage::Hello,
    Stage::DeviceTurn,
    Stage::Verify,
    Stage::BatchInvert,
];

impl Stage {
    /// Stable snake_case name (report/exposition label).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Assemble => "assemble",
            Stage::Hello => "hello",
            Stage::DeviceTurn => "device_turn",
            Stage::Verify => "verify",
            Stage::BatchInvert => "batch_invert",
        }
    }

    /// Index into stage-keyed arrays.
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            Stage::Admit => 0,
            Stage::Assemble => 1,
            Stage::Hello => 2,
            Stage::DeviceTurn => 3,
            Stage::Verify => 4,
            Stage::BatchInvert => 5,
        }
    }
}

/// One lane's worth of thread-local metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneRecorder {
    /// Per-session wall-latency histogram (ns).
    pub latency: Histogram,
    /// Wall nanoseconds booked per stage.
    pub stage_ns: [u64; STAGE_COUNT],
    /// Span count per stage.
    pub stage_calls: [u64; STAGE_COUNT],
}

impl LaneRecorder {
    fn new() -> Self {
        Self {
            latency: Histogram::new(),
            stage_ns: [0; STAGE_COUNT],
            stage_calls: [0; STAGE_COUNT],
        }
    }
}

/// The live recorder: owned by one worker thread (lock-free by
/// construction), merged after the run joins.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecorder {
    lanes: Vec<LaneRecorder>,
    counters: Vec<(&'static str, u64)>,
}

impl StageRecorder {
    /// A recorder covering `lanes` serving lanes.
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: (0..lanes).map(|_| LaneRecorder::new()).collect(),
            counters: Vec::new(),
        }
    }

    /// The per-lane state (for merging).
    pub fn lanes(&self) -> &[LaneRecorder] {
        &self.lanes
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Book `ns` of wall time against `stage` on lane `lane`.
    #[inline]
    pub fn stage(&mut self, lane: usize, stage: Stage, ns: u64) {
        let l = &mut self.lanes[lane];
        let i = stage.index();
        l.stage_ns[i] += ns;
        l.stage_calls[i] += 1;
    }

    /// Record `n` completed sessions on lane `lane` that each observed
    /// `ns` of wall latency (a batch wave completes its sessions
    /// together, so they share one measurement).
    #[inline]
    pub fn session_latency(&mut self, lane: usize, ns: u64, n: u64) {
        self.lanes[lane].latency.record_n(ns, n);
    }

    /// Bump a free-form counter by `n`.
    pub fn count(&mut self, counter: &'static str, n: u64) {
        if let Some(c) = self.counters.iter_mut().find(|(k, _)| *k == counter) {
            c.1 += n;
        } else {
            self.counters.push((counter, n));
        }
    }
}

/// One lane of the merged, fleet-wide view.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTelemetry {
    /// Lane label (curve name in the fleet).
    pub label: String,
    /// Merged per-session latency histogram.
    pub latency: Histogram,
    /// Wall nanoseconds per stage, summed over workers.
    pub stage_ns: [u64; STAGE_COUNT],
    /// Span count per stage, summed over workers.
    pub stage_calls: [u64; STAGE_COUNT],
}

impl LaneTelemetry {
    /// Total booked stage time, ns.
    pub fn total_stage_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }
}

/// The merged output of one observed run: per-lane latency and stage
/// attribution plus the forensic event-log snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// One entry per serving lane, in lane order.
    pub lanes: Vec<LaneTelemetry>,
    /// Fleet-wide counters folded across workers.
    pub counters: Vec<(&'static str, u64)>,
    /// Snapshot of the bounded event ring.
    pub events: EventLogSnapshot,
}

impl Telemetry {
    /// An empty telemetry frame over the given lane labels.
    pub fn new(labels: &[String], events: EventLogSnapshot) -> Self {
        Self {
            lanes: labels
                .iter()
                .map(|label| LaneTelemetry {
                    label: label.clone(),
                    latency: Histogram::new(),
                    stage_ns: [0; STAGE_COUNT],
                    stage_calls: [0; STAGE_COUNT],
                })
                .collect(),
            counters: Vec::new(),
            events,
        }
    }

    /// Fold one worker's recorder into the fleet view. Lane counts
    /// must match the labels this telemetry was built over.
    pub fn absorb(&mut self, rec: &StageRecorder) {
        assert_eq!(rec.lanes().len(), self.lanes.len(), "lane count mismatch");
        for (dst, src) in self.lanes.iter_mut().zip(rec.lanes()) {
            dst.latency.merge(&src.latency);
            for i in 0..STAGE_COUNT {
                dst.stage_ns[i] += src.stage_ns[i];
                dst.stage_calls[i] += src.stage_calls[i];
            }
        }
        for &(k, n) in rec.counters() {
            if let Some(c) = self.counters.iter_mut().find(|(key, _)| *key == k) {
                c.1 += n;
            } else {
                self.counters.push((k, n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;

    #[test]
    fn stage_recorder_books_time_and_merges() {
        let mut a = StageRecorder::new(2);
        let mut b = StageRecorder::new(2);
        a.stage(0, Stage::Hello, 100);
        a.stage(0, Stage::Hello, 50);
        b.stage(0, Stage::Verify, 30);
        b.stage(1, Stage::Admit, 7);
        a.session_latency(1, 1000, 3);
        b.session_latency(1, 2000, 1);
        a.count("rejects", 2);
        b.count("rejects", 1);

        let log = EventLog::new(8);
        let mut t = Telemetry::new(&["toy".into(), "k163".into()], log.snapshot());
        t.absorb(&a);
        t.absorb(&b);

        assert_eq!(t.lanes[0].stage_ns[Stage::Hello.index()], 150);
        assert_eq!(t.lanes[0].stage_calls[Stage::Hello.index()], 2);
        assert_eq!(t.lanes[0].stage_ns[Stage::Verify.index()], 30);
        assert_eq!(t.lanes[1].stage_ns[Stage::Admit.index()], 7);
        assert_eq!(t.lanes[1].latency.count(), 4);
        assert_eq!(t.lanes[1].latency.max(), 2000);
        assert_eq!(t.counters, vec![("rejects", 3)]);
    }

    #[test]
    fn stage_names_are_stable_and_indexed() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
        }
    }
}
