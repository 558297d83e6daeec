//! `stream_burst`: `GatewayHub::run_streaming` on a mixed hospital at 2
//! workers, under a reconnect storm plus staggered ward wake-ups with
//! about 2% hostile byte traffic.
//!
//! The load is **tick-paced**: arrivals fall due per tick, a tick lasts
//! as long as its serving takes, and a session's latency starts when
//! its first byte is delivered. It is therefore closed-loop-like in
//! wall time; a latency/offered-rate knee needs a fixed-Δt clock.

use std::hint::black_box;
use std::time::Instant;

use medsec_bench::loadgen;
use medsec_fleet::{
    device_class, mixed_hospital_wards, Arrival, ClassPolicy, DeviceKind, FleetConfig, GatewayHub,
    StreamingConfig, StreamingOutcome, StreamingStats, DEVICE_CLASSES,
};
use medsec_ingest::{AdmissionControl, FrameCursor};
use medsec_rng::SplitMix64;

use crate::probes::per_item_ns;
use crate::report::Report;
use crate::setup::Setups;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{derive_seed, Size, WORKERS};

/// A device does not reconnect while its previous session may still be
/// queued: the schedule keeps at most one arrival per device in any
/// window of this many ticks. Queues hold at most 1024 jobs drained 64
/// per tick, so a queued job is served within 16 ticks.
const RECONNECT_TICKS: usize = 24;

pub fn config(scale: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        threads: WORKERS,
        shards: 64,
        batch_size: 64,
        seed: derive_seed(seed, 0x5354_5200),
        forged_per_mille: 10,
        wards: mixed_hospital_wards(scale),
        ..FleetConfig::default()
    }
}

/// Queues and token buckets sized so that few genuine arrivals are
/// refused; 20‰ of arrivals replaced by hostile bytes.
pub fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        queue_high_water: 1024,
        drain_per_tick: 64,
        class_policies: [ClassPolicy::per_tick(1024, 64); DEVICE_CLASSES],
        hostile_per_mille: 20,
        ..StreamingConfig::default()
    }
}

/// Four reconnect-storm bursts of 35% of the fleet 25 ticks apart over
/// a 0.5/tick trickle, plus each ward waking 10 ticks after the last,
/// thinned to one arrival per device per [`RECONNECT_TICKS`].
pub fn schedule(cfg: &FleetConfig, seed: u64) -> Vec<Arrival> {
    let sizes: Vec<usize> = cfg.wards.iter().map(|w| w.devices).collect();
    let devices = sizes.iter().sum();
    let s = derive_seed(seed, 0x4C4F_4144);
    let mut arrivals = loadgen::bursty(devices, 4, 25, 0.35, 0.5, s);
    arrivals.extend(loadgen::ward_correlated(&sizes, 10, 5, s ^ 1));
    arrivals.sort_by_key(|a| (a.tick, a.device));
    let mut last: Vec<Option<usize>> = vec![None; devices];
    arrivals.retain(|a| {
        let keep = last[a.device].is_none_or(|t| a.tick >= t + RECONNECT_TICKS);
        if keep {
            last[a.device] = Some(a.tick);
        }
        keep
    });
    arrivals
}

pub struct Rep {
    pub run_s: f64,
    pub out: StreamingOutcome,
}

pub fn rep(cfg: &FleetConfig, schedule: &[Arrival], tr: &mut Tracer) -> Rep {
    let g = tr.next_group();
    let (hub, _) = tr.time("provision", g, |_| GatewayHub::provision(cfg));
    let (out, run_ns) = tr.time("run_streaming", g, |_| {
        hub.run_streaming(cfg, &streaming_config(), schedule)
    });
    Rep {
        run_s: run_ns as f64 * 1e-9,
        out,
    }
}

/// Arrivals classified as hostile traffic: garbage bytes, protocol
/// violations, and session frames with no serving context.
fn hostile(s: &StreamingStats) -> u64 {
    s.garbage + s.violations + s.stray_sessions
}

/// The deterministic counters that must repeat for a seed.
fn counts(s: &StreamingStats) -> [u64; 10] {
    [
        s.ticks as u64,
        s.arrivals,
        s.admitted,
        s.rate_limited,
        s.admission_denied,
        s.shed,
        s.garbage,
        s.violations,
        s.stray_sessions,
        s.dead_deliveries,
    ]
}

/// The per-repetition output checks.
pub fn check(r: &Rep, first: &Rep, out: &mut Report) {
    let s = &r.out.stats;
    let rep = &r.out.report;
    let completed = rep.sessions_completed();
    out.attempted += s.arrivals;
    out.failed += s.admitted.saturating_sub(completed) + rep.sessions_failed + rep.ph_failed;
    // Every arrival is classified, or was lost to a connection that
    // hostile bytes had closed or left mid-frame. Closed connections
    // count their deliveries; a mid-frame stall is bounded by twice the
    // expected number of hostile arrivals.
    let classified = s.admitted + s.rate_limited + s.admission_denied + s.shed + hostile(s);
    let budget =
        s.dead_deliveries + 2 * s.arrivals * u64::from(streaming_config().hostile_per_mille) / 1000;
    out.check(
        "stream_burst.every_arrival_accounted",
        s.arrivals >= classified && s.arrivals - classified <= budget,
        || {
            format!(
                "{} arrivals, {classified} classified, loss budget {budget}",
                s.arrivals
            )
        },
    );
    out.check(
        "stream_burst.completions_equal_admitted",
        completed == s.admitted && rep.sessions_failed + rep.ph_failed == 0,
        || {
            format!(
                "{completed} completed of {} admitted, {} failed",
                s.admitted,
                rep.sessions_failed + rep.ph_failed
            )
        },
    );
    let high_water = streaming_config().queue_high_water;
    out.check(
        "stream_burst.queues_bounded",
        s.lane_queue_high_water.iter().all(|&m| m <= high_water),
        || {
            format!(
                "queue marks {:?} over {high_water}",
                s.lane_queue_high_water
            )
        },
    );
    out.check(
        "stream_burst.counts_and_energy_repeat",
        counts(s) == counts(&first.out.stats)
            && rep.energy_per_session_j.to_bits()
                == first.out.report.energy_per_session_j.to_bits(),
        || format!("{:?} vs {:?}", counts(s), counts(&first.out.stats)),
    );
}

fn reps(
    cfg: &FleetConfig,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    tr: &mut Tracer,
    out: &mut Report,
    between: &mut dyn FnMut(),
) -> Vec<Rep> {
    let arrivals = schedule(cfg, seed);
    let start = Instant::now();
    // The first full-size repetition is checked but not timed: it pays
    // for first-touch memory the small warm-up pass never needed.
    let first = rep(cfg, &arrivals, tr);
    check(&first, &first, out);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        between();
        let r = rep(cfg, &arrivals, tr);
        check(&r, &first, out);
        reps.push(r);
    }
    crate::hub::report_cold_start(rate(&first), &reps.iter().map(rate).collect::<Vec<_>>());
    reps
}

fn rate(r: &Rep) -> f64 {
    r.out.report.sessions_completed() as f64 / r.run_s
}

/// Untraced measurement: repetitions until `seconds` have passed,
/// each timed from outside around `run_streaming`.
pub fn measure(seed: u64, seconds: f64, setups: &mut Setups, size: Size) -> Report {
    let cfg = config(size.stream_scale, seed);
    let mut out = Report::default();
    let reps = reps(
        &cfg,
        seed,
        seconds,
        size.min_reps,
        &mut Tracer::new(false),
        &mut out,
        &mut || setups.due(),
    );
    let n = reps.len() as u64;
    let col = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    let completed: u64 = reps.iter().map(|r| r.out.report.sessions_completed()).sum();
    let genuine: u64 = reps
        .iter()
        .map(|r| r.out.stats.arrivals - hostile(&r.out.stats))
        .sum();
    let first = &reps[0].out;
    out.metric("sessions_per_s", median(&rates), "1/s", n);
    out.metric(
        "session_p50_ms",
        col(&|r| r.out.stats.p50_ms),
        "ms",
        completed,
    );
    out.metric(
        "session_p99_ms",
        col(&|r| r.out.stats.p99_ms),
        "ms",
        completed,
    );
    out.metric(
        "served_share",
        completed as f64 / genuine as f64,
        "ratio",
        genuine,
    );
    out.metric(
        "device_uj_per_session",
        first.report.energy_per_session_j * 1e6,
        "uJ",
        first.report.sessions_completed(),
    );
    println!(
        "stream_burst: {} arrivals per run, {} admitted, p99 over {} sessions per run",
        first.stats.arrivals,
        first.stats.admitted,
        first.report.sessions_completed()
    );
    out
}

/// Traced figures: the streaming run's deterministic counters, and the
/// ingest layer timed on the workload's own chunked frames.
pub fn traced(seed: u64, seconds: f64, size: Size, tr: &mut Tracer, out: &mut Report) {
    let cfg = config(size.stream_scale, seed);
    let reps = reps(&cfg, seed, seconds, size.min_reps, tr, out, &mut || {});
    let n = reps.len() as u64;
    let s = &reps[0].out.stats;
    out.metric(
        "stream.run_s",
        median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        "s",
        n,
    );
    for (name, v) in [
        ("stream.admitted", s.admitted),
        ("stream.rate_limited", s.rate_limited),
        ("stream.shed", s.shed),
        ("stream.garbage", s.garbage),
        ("stream.violations", s.violations),
        ("stream.ticks", s.ticks as u64),
        (
            "stream.queue_high_water_max",
            s.lane_queue_high_water.iter().copied().max().unwrap_or(0) as u64,
        ),
    ] {
        out.metric(name, v as f64, "count", n);
    }
    out.metric(
        "stream.admit_ratio",
        s.admitted as f64 / s.arrivals as f64,
        "ratio",
        s.arrivals,
    );
    ingest_probes(&cfg, seed, tr, out);
}

/// Feed the workload's genuine Negotiate frames, cut into 1–3 chunks,
/// through per-device `FrameCursor`s, and its arrivals through the
/// per-class `AdmissionControl` buckets, timing each per item.
fn ingest_probes(cfg: &FleetConfig, seed: u64, tr: &mut Tracer, out: &mut Report) {
    let profiles: Vec<_> = cfg
        .wards
        .iter()
        .flat_map(|w| std::iter::repeat_n(w.profile, w.devices))
        .collect();
    let arrivals = schedule(cfg, seed);
    let mut rng = SplitMix64::new(derive_seed(seed, 0x4348_554E));
    let mut chunks: Vec<(usize, Vec<u8>)> = Vec::new();
    for a in &arrivals {
        let bytes = profiles[a.device].negotiate_frame().to_vec();
        let mut cuts: Vec<usize> = (1..1 + rng.next_u64() % 3)
            .map(|_| (rng.next_u64() as usize) % (bytes.len() + 1))
            .chain([0, bytes.len()])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        chunks.extend(
            cuts.windows(2)
                .map(|w| (a.device, bytes[w[0]..w[1]].to_vec())),
        );
    }
    let mut cursors: Vec<FrameCursor> = (0..profiles.len()).map(|_| FrameCursor::new()).collect();
    let mut frames = 0u64;
    let deframe_ns = per_item_ns(tr, "ingest.deframe", arrivals.len() as u64, || {
        cursors.iter_mut().for_each(FrameCursor::reset);
        for (device, chunk) in &chunks {
            let cursor = &mut cursors[*device];
            cursor.push(chunk);
            while let Ok(Some(frame)) = cursor.next_frame() {
                black_box(frame);
                frames += 1;
            }
        }
    });
    out.check(
        "ingest.every_frame_deframed",
        frames > 0 && frames.is_multiple_of(arrivals.len() as u64),
        || {
            format!(
                "{frames} frames from passes over {} arrivals",
                arrivals.len()
            )
        },
    );
    out.metric("ingest.deframe_ns_per_frame", deframe_ns, "ns", frames);

    let classes: Vec<usize> = profiles
        .iter()
        .map(|p| device_class(DeviceKind::for_protocol(p.protocol)))
        .collect();
    let policies = streaming_config().class_policies;
    let admit_ns = per_item_ns(tr, "ingest.admit", arrivals.len() as u64, || {
        let mut admission = AdmissionControl::new(&policies);
        let mut tick = 0;
        for a in &arrivals {
            while tick <= a.tick {
                admission.tick();
                tick += 1;
            }
            black_box(admission.try_admit(classes[a.device]));
        }
    });
    out.metric("ingest.admit_ns", admit_ns, "ns", arrivals.len() as u64);
}
