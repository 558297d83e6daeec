//! `hub_mixed`: the whole mixed hospital served as one offline batch
//! through `GatewayHub::run_at`.

use std::time::Instant;

use medsec_fleet::{mixed_hospital_wards, FleetConfig, FleetReport, GatewayHub};
use medsec_obs::{Stage, Telemetry, STAGES};

use crate::report::Report;
use crate::setup::Setups;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{derive_seed, Size, WORKERS};

/// The hub configuration: every ward of `mixed_hospital_wards(scale)`
/// (5 curves × 4 protocols, 7 profiles), 2 workers, 64-wide waves, 1%
/// of mutual-auth devices probed with a forged hello first.
pub fn config(scale: usize, seed: u64, observe: bool) -> FleetConfig {
    FleetConfig {
        threads: WORKERS,
        shards: 64,
        batch_size: 64,
        seed: derive_seed(seed, 0x4855_4200),
        forged_per_mille: 10,
        wards: mixed_hospital_wards(scale),
        observe,
        event_capacity: 4096,
        ..FleetConfig::default()
    }
}

/// One repetition: provision a fresh hub, then serve every device once.
/// (A hub's device ledgers and session counters accumulate, so each
/// repetition needs its own.)
pub struct Rep {
    pub run_s: f64,
    pub report: FleetReport,
}

pub fn rep(cfg: &FleetConfig, tr: &mut Tracer) -> Rep {
    let g = tr.next_group();
    let (hub, _) = tr.time("provision", g, |_| GatewayHub::provision(cfg));
    let call = if cfg.observe {
        "run_at+observe"
    } else {
        "run_at"
    };
    let (report, run_ns) = tr.time(call, g, |_| hub.run_at(cfg, 0));
    Rep {
        run_s: run_ns as f64 * 1e-9,
        report,
    }
}

/// The per-repetition output checks: every device completes, no
/// session fails, every forged probe is rejected, and the device energy
/// and forged-probe count repeat exactly across repetitions of a seed.
pub fn check(r: &Rep, first: &Rep, out: &mut Report) {
    let rep = &r.report;
    let devices = rep.devices as u64;
    let forged = rep.forged_rejected;
    out.attempted += devices + forged;
    let completed = rep.sessions_completed();
    out.failed += devices.saturating_sub(completed) + rep.sessions_failed + rep.ph_failed;
    out.check(
        "hub_mixed.every_device_completes",
        completed == devices,
        || format!("{completed} of {devices} sessions completed"),
    );
    out.check(
        "hub_mixed.no_session_fails",
        rep.sessions_failed + rep.ph_failed + rep.decode_failures == 0,
        || {
            format!(
                "failed {} ph_failed {} decode {}",
                rep.sessions_failed, rep.ph_failed, rep.decode_failures
            )
        },
    );
    // A forged hello a device accepted would count as a failed session
    // above; here the probes must also have happened.
    out.check("hub_mixed.forged_probes_rejected", forged > 0, || {
        "no forged probe was served".to_string()
    });
    out.check(
        "hub_mixed.energy_and_probes_repeat",
        rep.energy_per_session_j.to_bits() == first.report.energy_per_session_j.to_bits()
            && forged == first.report.forged_rejected,
        || {
            format!(
                "{} J / {forged} probes vs {} J / {} probes",
                rep.energy_per_session_j,
                first.report.energy_per_session_j,
                first.report.forged_rejected
            )
        },
    );
}

/// Untraced measurement: repetitions until `seconds` have passed (at
/// least `size.min_reps`), each timed from outside around `run_at`.
///
/// Every repetition serves the same fleet with the same keys, so each
/// does the same work; what varies is how much the shared host slows
/// the cores, which only ever adds time and comes in phases of seconds.
/// The timing metrics therefore come from the fastest of the run's
/// repetitions (a hundred or more at full size), its cost without that
/// interference; the median is printed beside it.
pub fn measure(seed: u64, seconds: f64, setups: &mut Setups, size: Size) -> Report {
    let cfg = config(size.hub_scale, seed, false);
    let mut tr = Tracer::new(false);
    let mut out = Report::default();
    let start = Instant::now();
    // The first full-size repetition is checked but not timed: it pays
    // for first-touch memory the small warm-up pass never needed.
    let first = rep(&cfg, &mut tr);
    check(&first, &first, &mut out);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < size.min_reps || start.elapsed().as_secs_f64() < seconds {
        setups.due();
        let r = rep(&cfg, &mut tr);
        check(&r, &first, &mut out);
        reps.push(r);
    }
    let n = reps.len() as u64;
    let rate = |r: &Rep| r.report.sessions_completed() as f64 / r.run_s;
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    let fastest = reps
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("at least one repetition");
    println!(
        "every timed repetition, host interference included: median {:.1} sessions/s, \
         makespan {:.3} ms",
        median(&rates),
        median(&reps.iter().map(|r| r.run_s * 1e3).collect::<Vec<_>>())
    );
    // An offline batch has every session due at t=0, so from outside a
    // session's latency is bounded by the batch's makespan: both
    // latency figures report the fastest repetition's makespan.
    let makespan_ms = fastest.run_s * 1e3;
    let completed: u64 = reps.iter().map(|r| r.report.sessions_completed()).sum();
    let devices: u64 = reps.iter().map(|r| r.report.devices as u64).sum();
    out.metric("sessions_per_s", rate(fastest), "1/s", n);
    out.metric("session_p50_ms", makespan_ms, "ms", n);
    out.metric("session_p99_ms", makespan_ms, "ms", n);
    out.metric(
        "served_share",
        completed as f64 / devices as f64,
        "ratio",
        devices,
    );
    out.metric(
        "device_uj_per_session",
        reps[0].report.energy_per_session_j * 1e6,
        "uJ",
        reps[0].report.sessions_completed(),
    );
    report_cold_start(rate(&first), &rates);
    out
}

/// Print how the untimed first repetition's rate compares with the
/// timed ones. The warm-up pass has already paid for backend selection,
/// the comb and τNAF tables and the lazy statics; what is left is
/// first-touch memory, which this shows and the timed figures exclude.
pub fn report_cold_start(first: f64, timed: &[f64]) {
    println!(
        "cold start: the untimed first repetition ran at {:.3}x the median timed rate",
        first / median(timed)
    );
}

/// Traced hub figures: alternating repetitions with the observe
/// recorder off and on. The recorder gives the stage times and
/// scheduler counters; the paired difference is the tracing overhead.
pub fn traced(seed: u64, seconds: f64, size: Size, tr: &mut Tracer, out: &mut Report) {
    let plain = config(size.hub_scale, seed, false);
    let observed = config(size.hub_scale, seed, true);
    let start = Instant::now();
    let first = rep(&plain, tr);
    check(&first, &first, out);
    let mut off: Vec<Rep> = Vec::new();
    let mut on: Vec<Rep> = Vec::new();
    while off.len() < size.min_reps || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side goes first so drift favours neither.
        let pair = if off.len().is_multiple_of(2) {
            let a = rep(&plain, tr);
            (a, rep(&observed, tr))
        } else {
            let b = rep(&observed, tr);
            (rep(&plain, tr), b)
        };
        check(&pair.0, &first, out);
        check(&pair.1, &first, out);
        off.push(pair.0);
        on.push(pair.1);
    }
    let n = on.len() as u64;
    let rate = |r: &Rep| r.report.sessions_completed() as f64 / r.run_s;
    let off_rate = median(&off.iter().map(rate).collect::<Vec<_>>());
    let on_rate = median(&on.iter().map(rate).collect::<Vec<_>>());
    out.metric(
        "hub.run_s",
        median(&off.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        "s",
        n,
    );
    out.metric(
        "obs.overhead_pct",
        (1.0 - on_rate / off_rate) * 100.0,
        "%",
        n,
    );

    // Stage times and scheduler counters: medians over observed runs.
    let tele: Vec<&Telemetry> = on
        .iter()
        .map(|r| r.report.telemetry.as_ref().expect("observe on"))
        .collect();
    let stage_ns =
        |t: &Telemetry, s: Stage| t.lanes.iter().map(|l| l.stage_ns[s.index()]).sum::<u64>();
    for stage in STAGES {
        let ms: Vec<f64> = tele
            .iter()
            .map(|t| stage_ns(t, stage) as f64 * 1e-6)
            .collect();
        out.metric(
            &format!("hub.stage_ms.{}", stage.name()),
            median(&ms),
            "ms",
            n,
        );
    }
    let device_share: Vec<f64> = tele
        .iter()
        .map(|t| {
            let total: u64 = t.lanes.iter().map(|l| l.total_stage_ns()).sum();
            stage_ns(t, Stage::DeviceTurn) as f64 / total as f64
        })
        .collect();
    out.metric("hub.device_share", median(&device_share), "ratio", n);
    let counter = |name: &str| -> Vec<f64> {
        tele.iter()
            .map(|t| {
                t.counters
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0, |c| c.1) as f64
            })
            .collect()
    };
    for (metric, key) in [
        ("sched.batches_home", "sched_batches_home"),
        ("sched.batches_stolen", "sched_batches_stolen"),
        ("sched.queue_depth_sum", "sched_queue_depth_sum"),
    ] {
        let v = counter(key);
        let repeats = v.iter().all(|x| *x == v[0]);
        println!("{metric}: {v:?} (repeats exactly across runs: {repeats})");
        out.metric(metric, median(&v), "count", n);
    }
    let jobs = counter("sched_jobs_served");
    out.check(
        "hub_mixed.sched_jobs_repeat",
        jobs.iter().all(|j| *j == jobs[0]),
        || format!("jobs served per run: {jobs:?}"),
    );
}
