//! FLEET — the serving-layer campaign: a hospital gateway driving a
//! fleet of simulated implants through authenticated sessions, batched
//! across worker threads and sharded session state.
//!
//! This is the first experiment with a *throughput* trajectory rather
//! than a paper-reproduction target: the JSON summary it emits
//! (`BENCH_fleet.json`, written by the `experiments` binary) is the
//! baseline future PRs optimize against. Since the SecuritySuite
//! redesign the campaign covers every fleet-servable curve (Toy17 and
//! K-163 as the historical trajectory, K-233/K-283 as the
//! higher-strength pyramid points) plus one **mixed** heterogeneous
//! run — five curves × four protocols through a single curve-erased
//! `GatewayHub`, with per-profile breakdowns.
//!
//! Since the lane-affine scheduler PR the campaign also measures how
//! the hub *scales*: a thread sweep over {1, 2, 4, 8, 16} workers on
//! the mixed fleet (recording per-point speedup and scaling
//! efficiency), a ≥100k-device mixed run in full mode, and a scaling
//! gate asserting the 4-thread mixed throughput reaches ≥2.5× the
//! 1-thread run on hosts that expose at least 4 hardware threads
//! (skipped, but still recorded, on smaller machines).

use medsec_fleet::{
    mixed_hospital_wards, run_fleet, FleetConfig, FleetReport, GatewayHub, StreamingConfig,
    StreamingOutcome,
};
use medsec_protocols::suite::CurveId;

use crate::loadgen;
use crate::table::{uj, Table};

/// The thread counts the scaling sweep measures.
pub const SWEEP_THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Minimum 4-thread/1-thread mixed-fleet speedup the scaling gate
/// demands on hosts with at least 4 hardware threads.
pub const SCALING_GATE_MIN_SPEEDUP_4T: f64 = 2.5;

/// The configuration the trajectory is measured at.
pub fn trajectory_config(fast: bool) -> FleetConfig {
    FleetConfig {
        devices: if fast { 512 } else { 4096 },
        // One worker per hardware thread: oversubscribing a small host
        // only adds context switches to a compute-bound workload.
        threads: host_parallelism().clamp(1, 16),
        shards: 64,
        batch_size: 64,
        curve: CurveId::Toy17,
        seed: 0x5EED_F1EE,
        forged_per_mille: 10,
        wards: Vec::new(),
        observe: false,
        event_capacity: 4096,
    }
}

/// Hardware threads the host exposes (1 if unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One point of the thread sweep: the best-of-N mixed-fleet run at a
/// fixed worker count, with its speedup over the sweep's 1-thread
/// baseline and the per-worker scaling efficiency (`speedup/threads`).
#[derive(Debug)]
pub struct SweepPoint {
    /// Worker threads this point ran with.
    pub threads: usize,
    /// Best run (by sessions/s) among the repetitions.
    pub report: FleetReport,
    /// Throughput relative to the 1-thread point.
    pub speedup: f64,
    /// `speedup / threads` — 1.0 is perfect linear scaling.
    pub scaling_efficiency: f64,
}

/// Sweep the mixed fleet across [`SWEEP_THREADS`], best-of-`reps` per
/// point so a background hiccup does not masquerade as a scaling cliff.
fn thread_sweep(cfg: &FleetConfig, reps: usize) -> Vec<SweepPoint> {
    let reports: Vec<FleetReport> = SWEEP_THREADS
        .iter()
        .map(|&threads| {
            (0..reps.max(1))
                .map(|_| {
                    run_fleet(&FleetConfig {
                        threads,
                        ..cfg.clone()
                    })
                })
                .max_by(|a, b| a.sessions_per_sec.total_cmp(&b.sessions_per_sec))
                .expect("at least one repetition")
        })
        .collect();
    let base = reports[0].sessions_per_sec;
    reports
        .into_iter()
        .map(|report| {
            let speedup = if base > 0.0 {
                report.sessions_per_sec / base
            } else {
                0.0
            };
            SweepPoint {
                threads: report.threads,
                speedup,
                scaling_efficiency: speedup / report.threads as f64,
                report,
            }
        })
        .collect()
}

/// The scaling gate: on a host with ≥4 hardware threads the 4-thread
/// mixed run must reach [`SCALING_GATE_MIN_SPEEDUP_4T`]× the 1-thread
/// run (panics otherwise — this is the bench-level regression fence CI
/// leans on); smaller hosts record the measured speedup without
/// asserting. Returns the human-readable gate verdict either way.
fn scaling_gate(sweep: &[SweepPoint]) -> String {
    let host = host_parallelism();
    let p4 = sweep
        .iter()
        .find(|p| p.threads == 4)
        .expect("sweep covers 4 threads");
    if host >= 4 {
        assert!(
            p4.speedup >= SCALING_GATE_MIN_SPEEDUP_4T,
            "scaling gate failed: 4-thread mixed fleet reached only {:.2}x the 1-thread \
             throughput (gate {SCALING_GATE_MIN_SPEEDUP_4T}x, host parallelism {host})",
            p4.speedup
        );
        format!(
            "scaling gate: 4-thread speedup {:.2}x >= {SCALING_GATE_MIN_SPEEDUP_4T}x \
             (host parallelism {host})",
            p4.speedup
        )
    } else {
        format!(
            "scaling gate skipped: host exposes {host} hardware thread(s) (<4); \
             4-thread speedup {:.2}x recorded, not asserted",
            p4.speedup
        )
    }
}

/// The p99 arrival→completion latency SLO the streaming run is judged
/// against, in milliseconds.
pub const STREAMING_SLO_P99_MS: f64 = 50.0;

/// The streaming-front-end pair: a provisioned-capacity run judged
/// against [`STREAMING_SLO_P99_MS`], and a deliberately
/// under-provisioned overload run that must shed gracefully (bounded
/// queues, typed rejects, crypto only on admitted frames).
fn streaming_runs(cfg: &FleetConfig, fast: bool) -> (StreamingOutcome, StreamingOutcome) {
    let stream_cfg = FleetConfig {
        wards: mixed_hospital_wards(if fast { 2 } else { 8 }),
        threads: 4,
        ..cfg.clone()
    };
    let hub = GatewayHub::provision(&stream_cfg);
    let devices = hub.device_count();
    let ward_sizes: Vec<usize> = stream_cfg.wards.iter().map(|w| w.devices).collect();

    // Offered load at provisioned capacity: synchronized reconnect
    // bursts over a background trickle, plus staggered ward wake-ups
    // (correlated within each ward's admission class).
    let mut schedule = loadgen::bursty(devices, 4, 25, 0.35, 0.5, stream_cfg.seed);
    schedule.extend(loadgen::ward_correlated(
        &ward_sizes,
        10,
        5,
        stream_cfg.seed ^ 1,
    ));
    let slo = hub.run_streaming(
        &stream_cfg,
        &StreamingConfig {
            slo_p99_ms: STREAMING_SLO_P99_MS,
            ..StreamingConfig::default()
        },
        &schedule,
    );

    // Overload: the whole fleet renegotiates twice in quick succession
    // into shallow queues with a slow drain. The fence is *graceful*
    // shedding: queues never exceed the high-water mark, every shed
    // arrival gets a typed reject, and the expensive field arithmetic
    // runs only for admitted frames.
    let storm = loadgen::bursty(devices, 2, 10, 1.0, 0.0, stream_cfg.seed ^ 2);
    let overload_scfg = StreamingConfig {
        queue_high_water: 8,
        drain_per_tick: 4,
        slo_p99_ms: STREAMING_SLO_P99_MS,
        ..StreamingConfig::default()
    };
    // Fresh provisioning for the overload run: gateway session counters
    // are cumulative per hub, and the fences below compare this run's
    // completions against this run's admissions.
    let hub = GatewayHub::provision(&stream_cfg);
    let overload = hub.run_streaming(&stream_cfg, &overload_scfg, &storm);
    assert!(
        overload.stats.shed > 0,
        "overload run must exercise load shedding"
    );
    assert!(
        overload
            .stats
            .lane_queue_high_water
            .iter()
            .all(|&m| m <= overload_scfg.queue_high_water),
        "lane queues must stay bounded at the high-water mark"
    );
    assert_eq!(
        overload.report.sessions_completed(),
        overload.stats.admitted,
        "crypto must run only for admitted frames"
    );
    assert_eq!(
        overload.stats.reject_frames,
        overload.stats.shed
            + overload.stats.rate_limited
            + overload.stats.admission_denied
            + overload.stats.violations,
        "every turned-away arrival gets exactly one typed reject frame"
    );
    (slo, overload)
}

/// Run the fleet campaign and return `(human report, json summary)`.
pub fn run_with_json(fast: bool) -> (String, String) {
    let cfg = trajectory_config(fast);
    let toy = run_fleet(&cfg);

    // The paper-strength curves alongside, so the trajectory tracks
    // every pyramid point the hub can serve. Device counts shrink with
    // field size: the pinned device-side ladder dominates.
    let curve_run = |curve: CurveId, devices: usize| {
        run_fleet(&FleetConfig {
            devices,
            curve,
            ..cfg.clone()
        })
    };
    let k163 = curve_run(CurveId::K163, if fast { 64 } else { 2048 });
    let k233 = curve_run(CurveId::K233, if fast { 16 } else { 256 });
    let k283 = curve_run(CurveId::K283, if fast { 8 } else { 128 });

    // One mixed heterogeneous run through the curve-erased hub, pinned
    // at 4 workers so the obs-overhead comparison below exercises the
    // multi-worker scheduler path (the threads=1..16 behaviour is the
    // sweep's job).
    let mixed_cfg = FleetConfig {
        wards: mixed_hospital_wards(if fast { 1 } else { 8 }),
        threads: 4,
        ..cfg.clone()
    };
    let mixed = run_fleet(&mixed_cfg);

    // The same mixed fleet with full telemetry on: per-lane latency
    // percentiles, stage spans, the forensic event ring and the
    // scheduler's sched_* steal/queue-depth counters. Comparing its
    // throughput against the unobserved run above is the measured
    // recorder overhead the observability PR pins below 3%.
    let observed = run_fleet(&FleetConfig {
        observe: true,
        ..mixed_cfg.clone()
    });

    // The scaling sweep: same ward mix, thread count varied.
    let sweep_cfg = FleetConfig {
        wards: mixed_hospital_wards(if fast { 8 } else { 24 }),
        ..cfg.clone()
    };
    let sweep = thread_sweep(&sweep_cfg, if fast { 2 } else { 3 });
    let gate = scaling_gate(&sweep);

    // The headline fleet: ≥100k devices across all five curves and
    // four protocols through one hub (full mode only — it is a
    // multi-second serve on a small host).
    let fleet_100k = if fast {
        None
    } else {
        let r = run_fleet(&FleetConfig {
            wards: mixed_hospital_wards(1962), // 51 * 1962 = 100_062
            shards: 256,
            ..cfg.clone()
        });
        assert!(r.devices >= 100_000, "headline run must reach 100k devices");
        Some(r)
    };

    // The streaming wire front end: framed byte ingestion, admission
    // control and backpressure in front of the same hub.
    let (streaming, streaming_overload) = streaming_runs(&cfg, fast);

    let mut t = Table::new("FLEET: hospital-gateway serving campaign");
    t.headers(&[
        "quantity",
        "Toy17",
        "K-163",
        "K-233",
        "K-283",
        "mixed hub",
        "mixed+obs",
    ]);
    let all = [&toy, &k163, &k233, &k283, &mixed, &observed];
    let row = |t: &mut Table, label: &str, f: &dyn Fn(&FleetReport) -> String| {
        let mut cells = vec![label.to_string()];
        cells.extend(all.iter().map(|r| f(r)));
        t.row(&cells);
    };
    row(&mut t, "devices", &|r| r.devices.to_string());
    row(&mut t, "sessions completed", &|r| {
        r.sessions_completed().to_string()
    });
    row(&mut t, "sessions / s", &|r| {
        format!("{:.0}", r.sessions_per_sec)
    });
    row(&mut t, "telemetry frames / s", &|r| {
        format!("{:.0}", r.frames_per_sec)
    });
    row(&mut t, "device energy / session [uJ]", &|r| {
        uj(r.energy_per_session_j)
    });
    row(&mut t, "forged hellos rejected", &|r| {
        r.forged_rejected.to_string()
    });
    row(&mut t, "failures", &|r| {
        (r.sessions_failed + r.ph_failed).to_string()
    });
    row(&mut t, "profiles served", &|r| {
        r.profiles.len().max(1).to_string()
    });
    t.note("curve-erased GatewayHub: profile negotiation on the wire, per-curve lanes over the batched fast paths (tnaf on Koblitz curves)");
    t.note(format!(
        "mixed+obs: full telemetry on (histograms + stage spans + event ring), recorder overhead {:.2}% sessions/s at 4 threads",
        obs_overhead_pct(&mixed, &observed)
    ));

    let mut st = Table::new("FLEET: lane-affine scheduler thread sweep (mixed fleet)");
    st.headers(&[
        "threads",
        "devices",
        "wall [ms]",
        "sessions / s",
        "speedup",
        "efficiency",
    ]);
    for p in &sweep {
        st.row(&[
            p.threads.to_string(),
            p.report.devices.to_string(),
            format!("{:.1}", p.report.wall_s * 1e3),
            format!("{:.0}", p.report.sessions_per_sec),
            format!("{:.2}x", p.speedup),
            format!("{:.0}%", p.scaling_efficiency * 100.0),
        ]);
    }
    st.note(gate.clone());
    if let Some(r) = &fleet_100k {
        st.note(format!(
            "100k headline: {} devices served at {:.0} sessions/s on {} threads ({:.1} s wall)",
            r.devices, r.sessions_per_sec, r.threads, r.wall_s
        ));
    }

    let mut wt = Table::new("FLEET: streaming wire front end (mixed fleet, framed ingestion)");
    wt.headers(&["quantity", "at capacity (SLO run)", "overload (shed run)"]);
    let pair = [&streaming, &streaming_overload];
    let wrow = |wt: &mut Table, label: &str, f: &dyn Fn(&StreamingOutcome) -> String| {
        let mut cells = vec![label.to_string()];
        cells.extend(pair.iter().map(|o| f(o)));
        wt.row(&cells);
    };
    wrow(&mut wt, "arrivals offered", &|o| {
        o.stats.arrivals.to_string()
    });
    wrow(&mut wt, "admitted", &|o| o.stats.admitted.to_string());
    wrow(&mut wt, "rate limited", &|o| {
        o.stats.rate_limited.to_string()
    });
    wrow(&mut wt, "shed at high-water", &|o| o.stats.shed.to_string());
    wrow(&mut wt, "shed rate", &|o| {
        format!("{:.1}%", o.stats.shed_rate * 100.0)
    });
    wrow(&mut wt, "sessions / s", &|o| {
        format!("{:.0}", o.report.sessions_per_sec)
    });
    wrow(&mut wt, "p99 latency [ms]", &|o| {
        format!("{:.2}", o.stats.p99_ms)
    });
    wrow(&mut wt, "SLO (p99 <= SLO?)", &|o| {
        format!(
            "{:.0} ms ({})",
            o.stats.slo_p99_ms,
            if o.stats.slo_met { "met" } else { "MISSED" }
        )
    });
    wrow(&mut wt, "deepest lane queue", &|o| {
        o.stats
            .lane_queue_high_water
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .to_string()
    });
    wt.note(
        "arrivals delivered as split/coalesced byte chunks; token-bucket admission per \
         device class; bounded per-lane queues shed with a typed Reject frame",
    );
    wt.note(
        "overload run: whole-fleet reconnect storm into shallow queues — queues stay at \
         the high-water mark and field arithmetic runs only for admitted frames",
    );

    (
        format!("{}\n{}\n{}", t.render(), st.render(), wt.render()),
        summary_json(
            &toy,
            &k163,
            &k233,
            &k283,
            &mixed,
            &observed,
            &sweep,
            fleet_100k.as_ref(),
            &streaming,
            &streaming_overload,
        ),
    )
}

/// The JSON object for one streaming run: ingest-side counters, the
/// latency/SLO verdict, per-lane queue high-water marks, and the full
/// embedded [`FleetReport`].
fn streaming_json(o: &StreamingOutcome) -> String {
    let marks = o
        .stats
        .lane_queue_high_water
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"arrivals\":{},\"admitted\":{},\"rate_limited\":{},\"admission_denied\":{},\
         \"shed\":{},\"shed_rate\":{:.6},\"garbage\":{},\"violations\":{},\
         \"reject_frames\":{},\"ticks\":{},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\
         \"max_ms\":{:.4},\"slo_p99_ms\":{},\"slo_met\":{},\
         \"lane_queue_high_water\":[{marks}],\"sessions_per_sec\":{:.3},\"report\":{}}}",
        o.stats.arrivals,
        o.stats.admitted,
        o.stats.rate_limited,
        o.stats.admission_denied,
        o.stats.shed,
        o.stats.shed_rate,
        o.stats.garbage,
        o.stats.violations,
        o.stats.reject_frames,
        o.stats.ticks,
        o.stats.p50_ms,
        o.stats.p99_ms,
        o.stats.max_ms,
        o.stats.slo_p99_ms,
        o.stats.slo_met,
        o.report.sessions_per_sec,
        o.report.to_json(),
    )
}

/// Throughput cost of turning telemetry on, percent of the unobserved
/// run (negative means the observed run was faster — run-to-run noise
/// on small fast-mode fleets).
fn obs_overhead_pct(baseline: &FleetReport, observed: &FleetReport) -> f64 {
    if baseline.sessions_per_sec <= 0.0 {
        return 0.0;
    }
    (1.0 - observed.sessions_per_sec / baseline.sessions_per_sec) * 100.0
}

/// Run the fleet campaign (human-readable report only).
pub fn run(fast: bool) -> String {
    run_with_json(fast).0
}

/// The `"thread_sweep"` JSON object: host parallelism, the swept fleet
/// shape, and one compact row per thread count (full reports would
/// quintuple the file for numbers the sweep table already carries).
fn sweep_json(sweep: &[SweepPoint]) -> String {
    let runs = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\":{},\"wall_s\":{:.6},\"sessions_per_sec\":{:.3},\
                 \"frames_per_sec\":{:.3},\"speedup\":{:.4},\"scaling_efficiency\":{:.4}}}",
                p.threads,
                p.report.wall_s,
                p.report.sessions_per_sec,
                p.report.frames_per_sec,
                p.speedup,
                p.scaling_efficiency
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"host_parallelism\":{},\"devices\":{},\"batch_size\":{},\
         \"gate_min_speedup_4t\":{SCALING_GATE_MIN_SPEEDUP_4T},\"runs\":[{runs}]}}",
        host_parallelism(),
        sweep[0].report.devices,
        64
    )
}

/// Combined machine-readable summary for `BENCH_fleet.json`. Records
/// which gf2m backend and which variable-base strategy the serving
/// path ran on, so a trajectory point is attributable to the exact
/// compute stack behind it; the `mixed` entry carries the per-profile
/// breakdown of the heterogeneous run, `thread_sweep` the scaling
/// trajectory, `fleet_100k` the ≥100k-device headline run (`null` in
/// fast mode), and `streaming`/`streaming_overload` the framed-
/// ingestion runs (sessions/s at the p99 SLO, and graceful-shedding
/// evidence under a reconnect storm).
#[allow(clippy::too_many_arguments)]
fn summary_json(
    toy: &FleetReport,
    k163: &FleetReport,
    k233: &FleetReport,
    k283: &FleetReport,
    mixed: &FleetReport,
    observed: &FleetReport,
    sweep: &[SweepPoint],
    fleet_100k: Option<&FleetReport>,
    streaming: &StreamingOutcome,
    streaming_overload: &StreamingOutcome,
) -> String {
    format!(
        "{{\"experiment\":\"fleet\",\"backend\":\"{}\",\
         \"varbase\":{{\"toy17\":\"{}\",\"k163\":\"{}\",\"k233\":\"{}\",\"k283\":\"{}\"}},\
         \"toy17\":{},\"k163\":{},\"k233\":{},\"k283\":{},\"mixed\":{},\
         \"mixed_observed\":{},\
         \"obs_overhead\":{{\"threads\":{},\"baseline_sessions_per_sec\":{:.3},\
         \"observed_sessions_per_sec\":{:.3},\"overhead_pct\":{:.3}}},\
         \"thread_sweep\":{},\"fleet_100k\":{},\
         \"streaming\":{},\"streaming_overload\":{}}}",
        medsec_gf2m::backend::active_backend_name(),
        medsec_ec::server_strategy_name::<medsec_ec::Toy17>(),
        medsec_ec::server_strategy_name::<medsec_ec::K163>(),
        medsec_ec::server_strategy_name::<medsec_ec::K233>(),
        medsec_ec::server_strategy_name::<medsec_ec::K283>(),
        toy.to_json(),
        k163.to_json(),
        k233.to_json(),
        k283.to_json(),
        mixed.to_json(),
        observed.to_json(),
        mixed.threads,
        mixed.sessions_per_sec,
        observed.sessions_per_sec,
        obs_overhead_pct(mixed, observed),
        sweep_json(sweep),
        fleet_100k.map_or("null".to_string(), FleetReport::to_json),
        streaming_json(streaming),
        streaming_json(streaming_overload),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_and_json_cover_throughput_and_energy() {
        let (report, json) = super::run_with_json(true);
        assert!(report.contains("sessions / s"));
        assert!(report.contains("forged hellos rejected"));
        assert!(report.contains("thread sweep"));
        assert!(report.contains("scaling gate"));
        assert!(json.contains("\"toy17\":{"));
        // The recorded backend is whatever the process resolved to
        // (vpclmul on AVX-512 hosts, clmul on CLMUL-capable hosts,
        // bitsliced otherwise or when the CI matrix forces it).
        let backend = medsec_gf2m::backend::active_backend_name();
        assert!(["vpclmul", "clmul", "bitsliced"].contains(&backend));
        assert!(json.contains(&format!("\"backend\":\"{backend}\"")));
        assert!(json.contains(
            "\"varbase\":{\"toy17\":\"ladder\",\"k163\":\"tnaf\",\"k233\":\"tnaf\",\"k283\":\"tnaf\"}"
        ));
        assert!(json.contains("\"sessions_per_sec\""));
        assert!(json.contains("\"energy_per_session_j\""));
        // The new pyramid points and the heterogeneous run are in the
        // trajectory.
        assert!(json.contains("\"k233\":{"));
        assert!(json.contains("\"k283\":{"));
        assert!(json.contains("\"mixed\":{"));
        assert!(json.contains("\"profile\":\"mutual@K283\""));
        assert!(json.contains("\"profile\":\"symmetric@Toy17\""));
        // The observed mixed run carries the full telemetry block:
        // per-lane latency percentiles, stage breakdown, event summary,
        // and the lane scheduler's steal telemetry.
        assert!(json.contains("\"mixed_observed\":{"));
        assert!(json.contains("\"p999_ns\":"));
        assert!(json.contains("\"batch_invert\":{\"ns\":"));
        assert!(json.contains("\"session_open\":"));
        assert!(json.contains("\"sched_batches_home\":"));
        assert!(json.contains("\"sched_jobs_served\":"));
        assert!(json.contains("\"obs_overhead\":{\"threads\":4,\"baseline_sessions_per_sec\":"));
        assert!(json.contains("\"overhead_pct\":"));
        // The scaling sweep covers every thread count with efficiency
        // figures, and fast mode skips the 100k headline run.
        assert!(json.contains("\"thread_sweep\":{\"host_parallelism\":"));
        for threads in super::SWEEP_THREADS {
            assert!(json.contains(&format!("{{\"threads\":{threads},")));
        }
        assert!(json.contains("\"scaling_efficiency\":"));
        assert!(json.contains("\"fleet_100k\":null"));
        // The streaming front-end pair: an SLO-judged run at capacity
        // and an overload run with graceful-shedding evidence.
        assert!(report.contains("streaming wire front end"));
        assert!(report.contains("shed at high-water"));
        assert!(report.contains("SLO"));
        assert!(json.contains("\"streaming\":{\"arrivals\":"));
        assert!(json.contains("\"streaming_overload\":{\"arrivals\":"));
        assert!(json.contains("\"slo_p99_ms\":50"));
        assert!(json.contains("\"slo_met\":"));
        assert!(json.contains("\"shed_rate\":"));
        assert!(json.contains("\"lane_queue_high_water\":["));
        assert!(json.contains("\"reject_frames\":"));
        medsec_obs::json::validate(&json).expect("BENCH_fleet summary must parse");
    }
}
