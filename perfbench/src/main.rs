//! The serving benchmark: three workloads driven through the program's
//! public API, timed from outside, with output checks.
//!
//! ```text
//! perfbench --workload <hub_mixed|gateway_crypto|stream_burst>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! perfbench --workload <w> --seed <n> --setup-probe <full|smoke>
//! ```
//!
//! `--setup-probe` is how a run times `setup_s`: it starts this
//! executable with that flag, which sets the workload up once in the
//! fresh process and prints the seconds (see `setup.rs`).
//!
//! `--trace 0` measures the workload and prints every end-to-end metric.
//! `--trace 1` is the separate traced run: it records the benchmark's
//! own spans around each public call, covers every layer (field and
//! point probes, the suite calls, the hub with its observe recorder, the
//! streaming front end and the ingest layer) so that every per-layer
//! metric has a value, writes the spans to `out/` beside this package,
//! and prints the per-layer metrics. `--smoke` runs all three workloads
//! and the traced run at a tiny size with every check.
//!
//! The last line of standard output is the result object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. The exit
//! code is 0 only when every check passed.

mod gateway;
mod host;
mod hub;
mod probes;
mod report;
mod setup;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use medsec_fleet::GatewayHub;
use report::Report;
use setup::Setups;
use trace::Tracer;

/// Gateway worker threads for the multi-threaded workloads.
pub const WORKERS: usize = 2;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// What a set-up child process is told to build (`full`, `smoke`).
    pub name: &'static str,
    /// `mixed_hospital_wards` scale of `hub_mixed` (51 devices each).
    pub hub_scale: usize,
    /// `mixed_hospital_wards` scale of `stream_burst`.
    pub stream_scale: usize,
    /// Device multiplier of the `gateway_crypto` profiles (23 each).
    pub gateway_scale: usize,
    /// Fewest repetitions a run makes, however short `--seconds`.
    pub min_reps: usize,
}

/// 3,060 hub devices (about 0.3 s per `run_at`, so a run holds a
/// hundred or more repetitions); 2,040 streaming devices with about
/// 3,800 arrivals per run; 368 gateway devices per round.
const FULL: Size = Size {
    name: "full",
    hub_scale: 60,
    stream_scale: 40,
    gateway_scale: 16,
    min_reps: 3,
};

const SMOKE: Size = Size {
    name: "smoke",
    hub_scale: 2,
    stream_scale: 2,
    gateway_scale: 1,
    min_reps: 2,
};

pub const WORKLOADS: [&str; 3] = ["hub_mixed", "gateway_crypto", "stream_burst"];

/// The per-layer predictions, kept beside the code: every per-layer
/// metric a traced run prints must have an entry.
const PREDICTIONS: &str = include_str!("../predictions.json");

/// A sub-seed for one purpose (`salt`) of the run seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    medsec_rng::SplitMix64::new(seed ^ salt.rotate_left(32)).next_u64()
}

/// The untimed in-process pass at small size that resolves the field
/// backend, the comb and τNAF tables and the lazy statics before any
/// timing.
fn warmup(seed: u64) {
    let mut tr = Tracer::new(false);
    let _ = hub::rep(&hub::config(1, seed, false), &mut tr);
    let cfg = stream::config(1, seed);
    let _ = stream::rep(&cfg, &stream::schedule(&cfg, seed), &mut tr);
    gateway::warm(seed);
}

/// One fresh process's set-up: the warm-up pass plus one provisioning
/// of the workload's fleet, in seconds (the fleet is dropped untimed).
fn setup_probe(workload: &str, seed: u64, size: Size) -> f64 {
    fn timed<T>(start: Instant, provision: impl FnOnce() -> T) -> f64 {
        let fleet = std::hint::black_box(provision());
        let seconds = start.elapsed().as_secs_f64();
        drop(fleet);
        seconds
    }
    let start = Instant::now();
    warmup(seed);
    match workload {
        "hub_mixed" => timed(start, || {
            GatewayHub::provision(&hub::config(size.hub_scale, seed, false))
        }),
        "gateway_crypto" => timed(start, || gateway::provision(size.gateway_scale, seed)),
        _ => timed(start, || {
            GatewayHub::provision(&stream::config(size.stream_scale, seed))
        }),
    }
}

fn measure(workload: &str, seed: u64, seconds: f64, size: Size) -> Report {
    warmup(seed);
    let mut setups = Setups::new(workload, seed, size.name, seconds);
    let mut out = match workload {
        "hub_mixed" => hub::measure(seed, seconds, &mut setups, size),
        "gateway_crypto" => gateway::measure(seed, seconds, &mut setups, size),
        _ => stream::measure(seed, seconds, &mut setups, size),
    };
    setups.report(&mut out);
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB", 1);
    out
}

/// The traced run: half of `seconds` on the hub pairs, a fifth each on
/// the gateway and streaming workloads, plus the probes.
fn traced(workload: &str, seed: u64, seconds: f64, size: Size) -> Report {
    let mut tr = Tracer::new(true);
    let mut out = Report::default();
    let wall = Instant::now();
    tr.time("traced_run", 0, |tr| {
        tr.time("warmup", 0, |_| warmup(seed));
        tr.time("probes", 0, |tr| probes::run(seed, tr, &mut out));
        tr.time("gateway_crypto", 0, |tr| {
            gateway::traced(seed, seconds * 0.2, size, tr, &mut out)
        });
        tr.time("hub_mixed", 0, |tr| {
            hub::traced(seed, seconds * 0.5, size, tr, &mut out)
        });
        tr.time("stream_burst", 0, |tr| {
            stream::traced(seed, seconds * 0.2, size, tr, &mut out)
        });
    });
    let wall_ns = wall.elapsed().as_nanos() as u64;

    // Self times along the (single-threaded) blocking path add up to
    // the root span, and the root span to the wall time measured
    // around it, within the tracing overhead (at least 1%).
    let nesting = tr.check_nesting();
    out.check("trace.spans_nest", nesting.is_ok(), || nesting.unwrap_err());
    let self_sum: u64 = tr.self_ns().iter().sum();
    let root_span_ns = tr.spans()[0].dur_ns();
    out.check(
        "trace.self_times_sum_to_root",
        self_sum == root_span_ns,
        || format!("self times {self_sum} ns, root {root_span_ns} ns"),
    );
    let overhead = out
        .metrics
        .iter()
        .find(|m| m.name == "obs.overhead_pct")
        .map_or(0.0, |m| m.value);
    let tolerance = overhead.abs().max(1.0) / 100.0;
    let gap = (wall_ns as f64 - self_sum as f64).abs() / wall_ns as f64;
    out.check("trace.self_times_match_wall", gap <= tolerance, || {
        format!("self times {self_sum} ns vs wall {wall_ns} ns")
    });
    let unpredicted: Vec<String> = out
        .metrics
        .iter()
        .map(|m| m.name.clone())
        .filter(|name| !PREDICTIONS.contains(&format!("\"{name}\"")))
        .collect();
    out.check(
        "trace.every_metric_predicted",
        unpredicted.is_empty(),
        || format!("no prediction for {unpredicted:?}"),
    );

    println!("self time by span (top 12):");
    let mut by_name: Vec<_> = tr.by_name().into_iter().collect();
    by_name.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    for (name, (n, total, own)) in by_name.iter().take(12) {
        println!(
            "  {name:<32} spans {n:>6}  total {:>10.3} ms  self {:>10.3} ms",
            *total as f64 * 1e-6,
            *own as f64 * 1e-6
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    out.check("trace.span_file_written", written.is_ok(), || {
        format!("{path:?}: {written:?}")
    });
    println!("spans: {} written to {}", tr.spans().len(), path.display());
    out
}

fn smoke() -> Report {
    let mut out = Report::default();
    for w in WORKLOADS {
        let r = measure(w, 1, 0.0, SMOKE);
        let missing: Vec<&str> = [
            "sessions_per_s",
            "session_p50_ms",
            "session_p99_ms",
            "served_share",
        ]
        .into_iter()
        .filter(|m| !r.metrics.iter().any(|x| x.name == *m && x.value > 0.0))
        .collect();
        out.check(
            "smoke.end_to_end_metrics_present",
            missing.is_empty(),
            || format!("{w}: missing or zero {missing:?}"),
        );
        let mut r = r;
        r.metrics.clear();
        out.merge(r);
    }
    let mut t = traced("smoke", 1, 0.0, SMOKE);
    t.metrics.clear();
    out.merge(t);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Set in a set-up child: the name of the size to set up.
    setup_probe: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_probe: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            setup::PROBE_FLAG => a.setup_probe = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be within 0..=600".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &a.setup_probe {
        let Some(size) = [FULL, SMOKE].into_iter().find(|s| s.name == name) else {
            eprintln!("perfbench: {} {name}: no such size", setup::PROBE_FLAG);
            return ExitCode::from(2);
        };
        println!("setup_s {}", setup_probe(&a.workload, a.seed, size));
        return ExitCode::SUCCESS;
    }
    let out = if a.smoke {
        println!("perfbench smoke: every workload and the traced run at tiny size");
        smoke()
    } else {
        println!(
            "perfbench {} seed={} seconds={} trace={}",
            a.workload, a.seed, a.seconds, a.trace as u8
        );
        if a.trace {
            traced(&a.workload, a.seed, a.seconds, FULL)
        } else {
            measure(&a.workload, a.seed, a.seconds, FULL)
        }
    };
    out.print(&host::fingerprint_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
