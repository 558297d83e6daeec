//! The aggregated outcome of a fleet run: throughput, energy and
//! failures, with hand-rolled JSON and Prometheus text exposition.
//!
//! All JSON goes through `medsec_obs::json`: strings are escaped and
//! non-finite floats are emitted as `null`, so a pathological run (zero
//! wall time, quoted profile names) still produces parseable output.

use medsec_obs::{json, EventLogSnapshot, LaneTelemetry, PrometheusExposition, Telemetry, STAGES};

/// Render a float with the given pre-formatted representation, falling
/// back to JSON `null` when the value is not finite (NaN/±inf have no
/// JSON encoding).
fn finite_or_null(v: f64, rendered: String) -> String {
    if v.is_finite() {
        rendered
    } else {
        "null".to_string()
    }
}

/// Per-profile slice of a fleet run: one row per pyramid point the
/// fleet was provisioned at, so a heterogeneous trajectory stays
/// comparable to its degenerate single-profile ancestors.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStats {
    /// Profile name (`protocol@curve`).
    pub profile: String,
    /// Curve name.
    pub curve: String,
    /// Protocol name.
    pub protocol: String,
    /// Countermeasure level name.
    pub countermeasures: String,
    /// Devices provisioned at this profile.
    pub devices: usize,
    /// Sessions that completed correctly.
    pub sessions_ok: u64,
    /// Sessions that failed (any cause, as seen by the driver).
    pub sessions_failed: u64,
    /// Completed sessions per second of (whole-run) wall time.
    pub sessions_per_sec: f64,
    /// Mean device energy per completed session, joules.
    pub energy_per_session_j: f64,
    /// The profile's planned per-session budget, joules.
    pub energy_budget_j: f64,
    /// Whether the measured per-session energy stayed within budget.
    pub within_budget: bool,
}

impl ProfileStats {
    /// Hand-rolled JSON object (no serde in the offline build). Names
    /// are escaped and non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"profile\":{},\"curve\":{},\"protocol\":{},\"countermeasures\":{},\
             \"devices\":{},\"sessions_ok\":{},\"sessions_failed\":{},\"sessions_per_sec\":{},\
             \"energy_per_session_j\":{},\"energy_budget_j\":{},\"within_budget\":{}}}",
            json::string(&self.profile),
            json::string(&self.curve),
            json::string(&self.protocol),
            json::string(&self.countermeasures),
            self.devices,
            self.sessions_ok,
            self.sessions_failed,
            finite_or_null(
                self.sessions_per_sec,
                format!("{:.3}", self.sessions_per_sec)
            ),
            finite_or_null(
                self.energy_per_session_j,
                format!("{:.9e}", self.energy_per_session_j)
            ),
            finite_or_null(
                self.energy_budget_j,
                format!("{:.9e}", self.energy_budget_j)
            ),
            self.within_budget
        )
    }
}

/// Aggregate result of one [`run_fleet`](crate::sim::run_fleet) call.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices provisioned.
    pub devices: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Pending-session table shards, summed over curve lanes (every
    /// server of a lane has this many).
    pub shards: usize,
    /// The gf2m backend the serving stack's field arithmetic ran on
    /// (`vpclmul`, `clmul` or `bitsliced` — see
    /// `medsec_gf2m::backend::active_backend_name`), so every
    /// trajectory point is attributable to the exact compute stack
    /// behind it.
    pub backend: &'static str,
    /// Sessions that completed correctly, other than Peeters–Hermans
    /// identifications: mutual authentications with verified telemetry
    /// plus symmetric and Schnorr authentications.
    pub sessions_ok: u64,
    /// Non-PH sessions that failed: a forged hello a device accepted,
    /// a device-side rejection, a rejected Negotiate, a server-side
    /// error, or a verified session with the wrong outcome.
    pub sessions_failed: u64,
    /// Telemetry frames verified and decrypted.
    pub frames_ok: u64,
    /// Peeters–Hermans identifications that matched.
    pub ph_identified: u64,
    /// Peeters–Hermans runs the server rejected.
    pub ph_failed: u64,
    /// Forged hellos the devices correctly rejected.
    pub forged_rejected: u64,
    /// Session frames the servers failed to decode (`SuiteError::Decode`
    /// from a hello or a verification). Each is also a failed session
    /// (`sessions_failed` or `ph_failed`); this field makes the
    /// wire-garbage share visible instead of folding it into auth
    /// failures.
    pub decode_failures: u64,
    /// Arrivals the streaming front end turned away *before* any
    /// crypto work: token-bucket rate limiting plus failed
    /// `admit_negotiate` (zero for in-process runs).
    pub admission_rejected: u64,
    /// Load shed by the ingestion queues: shed arrivals / offered
    /// arrivals (0.0 for in-process runs, which cannot shed).
    pub shed_rate: f64,
    /// Deepest each ingest lane queue ever got (the high-water mark a
    /// bounded queue plateaus at under overload). Empty for
    /// in-process runs.
    pub lane_queue_high_water: Vec<usize>,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Completed sessions (every protocol) per second of wall time.
    pub sessions_per_sec: f64,
    /// Verified telemetry frames per second of wall time.
    pub frames_per_sec: f64,
    /// Total energy drawn from every device battery, joules.
    pub device_energy_total_j: f64,
    /// Mean device energy per completed session, joules.
    pub energy_per_session_j: f64,
    /// Worst single-device energy draw, joules.
    pub device_energy_max_j: f64,
    /// Server-side energy (wall-powered, but it bounds rack sizing),
    /// joules.
    pub server_energy_j: f64,
    /// Bytes on the air across all devices.
    pub bytes_on_air: u64,
    /// Mean sessions one battery sustains at the measured per-session
    /// draw (fleet-level lifetime figure).
    pub mean_sessions_per_battery: f64,
    /// Per-profile breakdown (one row per pyramid point).
    pub profiles: Vec<ProfileStats>,
    /// Wall-clock start of the run, milliseconds since the Unix epoch
    /// (read once before workers spawn — never in a hot path).
    pub started_unix_ms: u64,
    /// Merged observability frame: per-lane latency percentiles, stage
    /// attribution and the forensic event summary. `None` unless the
    /// run was configured with `FleetConfig::observe`.
    pub telemetry: Option<Telemetry>,
}

impl FleetReport {
    /// Completed sessions of every protocol.
    pub fn sessions_completed(&self) -> u64 {
        self.sessions_ok + self.ph_identified
    }

    /// Machine-readable summary (hand-rolled JSON object; no serde in
    /// the offline build).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let field = |s: &mut String, key: &str, value: String| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push('"');
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&value);
        };
        field(&mut s, "devices", self.devices.to_string());
        field(&mut s, "threads", self.threads.to_string());
        field(&mut s, "shards", self.shards.to_string());
        field(&mut s, "backend", format!("\"{}\"", self.backend));
        field(&mut s, "sessions_ok", self.sessions_ok.to_string());
        field(&mut s, "sessions_failed", self.sessions_failed.to_string());
        field(&mut s, "frames_ok", self.frames_ok.to_string());
        field(&mut s, "ph_identified", self.ph_identified.to_string());
        field(&mut s, "ph_failed", self.ph_failed.to_string());
        field(&mut s, "forged_rejected", self.forged_rejected.to_string());
        field(&mut s, "decode_failures", self.decode_failures.to_string());
        field(
            &mut s,
            "admission_rejected",
            self.admission_rejected.to_string(),
        );
        field(
            &mut s,
            "shed_rate",
            finite_or_null(self.shed_rate, format!("{:.6}", self.shed_rate)),
        );
        field(
            &mut s,
            "lane_queue_high_water",
            format!(
                "[{}]",
                self.lane_queue_high_water
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        field(&mut s, "started_unix_ms", self.started_unix_ms.to_string());
        field(
            &mut s,
            "wall_s",
            finite_or_null(self.wall_s, format!("{:.6}", self.wall_s)),
        );
        field(
            &mut s,
            "sessions_per_sec",
            finite_or_null(
                self.sessions_per_sec,
                format!("{:.3}", self.sessions_per_sec),
            ),
        );
        field(
            &mut s,
            "frames_per_sec",
            finite_or_null(self.frames_per_sec, format!("{:.3}", self.frames_per_sec)),
        );
        field(
            &mut s,
            "device_energy_total_j",
            finite_or_null(
                self.device_energy_total_j,
                format!("{:.9e}", self.device_energy_total_j),
            ),
        );
        field(
            &mut s,
            "energy_per_session_j",
            finite_or_null(
                self.energy_per_session_j,
                format!("{:.9e}", self.energy_per_session_j),
            ),
        );
        field(
            &mut s,
            "device_energy_max_j",
            finite_or_null(
                self.device_energy_max_j,
                format!("{:.9e}", self.device_energy_max_j),
            ),
        );
        field(
            &mut s,
            "server_energy_j",
            finite_or_null(
                self.server_energy_j,
                format!("{:.9e}", self.server_energy_j),
            ),
        );
        field(&mut s, "bytes_on_air", self.bytes_on_air.to_string());
        field(
            &mut s,
            "mean_sessions_per_battery",
            finite_or_null(
                self.mean_sessions_per_battery,
                format!("{:.1}", self.mean_sessions_per_battery),
            ),
        );
        field(
            &mut s,
            "profiles",
            format!(
                "[{}]",
                self.profiles
                    .iter()
                    .map(ProfileStats::to_json)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        field(
            &mut s,
            "telemetry",
            match &self.telemetry {
                Some(t) => telemetry_json(t),
                None => "null".to_string(),
            },
        );
        s.push('}');
        s
    }

    /// Prometheus text exposition of the run's telemetry (`None` when
    /// the run was not observed).
    pub fn prometheus(&self) -> Option<String> {
        self.telemetry
            .as_ref()
            .map(|t| PrometheusExposition::new(t).to_string())
    }
}

/// The `"telemetry"` JSON object: per-lane latency percentiles + stage
/// breakdown, fleet counters and the forensic event summary.
fn telemetry_json(t: &Telemetry) -> String {
    let lanes = t
        .lanes
        .iter()
        .map(lane_telemetry_json)
        .collect::<Vec<_>>()
        .join(",");
    let counters = t
        .counters
        .iter()
        .map(|(k, n)| format!("{}:{}", json::string(k), n))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"lanes\":[{lanes}],\"counters\":{{{counters}}},\"events\":{}}}",
        events_json(&t.events)
    )
}

fn lane_telemetry_json(l: &LaneTelemetry) -> String {
    let snap = l.latency.snapshot();
    let stages = STAGES
        .iter()
        .map(|st| {
            format!(
                "{}:{{\"ns\":{},\"calls\":{}}}",
                json::string(st.name()),
                l.stage_ns[st.index()],
                l.stage_calls[st.index()]
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"lane\":{},\"latency\":{{\"count\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{},\
         \"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}},\"stages\":{{{stages}}}}}",
        json::string(&l.label),
        snap.count,
        snap.min_ns,
        json::num(snap.mean_ns),
        snap.max_ns,
        snap.p50_ns,
        snap.p99_ns,
        snap.p999_ns,
    )
}

fn events_json(ev: &EventLogSnapshot) -> String {
    let kinds = medsec_obs::ALL_EVENT_KINDS
        .iter()
        .map(|k| format!("{}:{}", json::string(k.name()), ev.count(*k)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"capacity\":{},\"logged\":{},\"dropped\":{},\"kinds\":{{{kinds}}}}}",
        ev.capacity, ev.logged, ev.dropped
    )
}

impl core::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "fleet: {} devices, {} threads, {} shards, {} gf2m backend",
            self.devices, self.threads, self.shards, self.backend
        )?;
        writeln!(
            f,
            "  sessions   {:>8} ok  {:>6} failed  ({:.0}/s)",
            self.sessions_completed(),
            self.sessions_failed,
            self.sessions_per_sec
        )?;
        writeln!(
            f,
            "  telemetry  {:>8} frames verified  ({:.0}/s)",
            self.frames_ok, self.frames_per_sec
        )?;
        writeln!(
            f,
            "  privacy    {:>8} PH identifications  {:>6} failed",
            self.ph_identified, self.ph_failed
        )?;
        writeln!(
            f,
            "  security   {:>8} forged hellos rejected by devices",
            self.forged_rejected
        )?;
        if self.decode_failures > 0
            || self.admission_rejected > 0
            || self.shed_rate > 0.0
            || !self.lane_queue_high_water.is_empty()
        {
            writeln!(
                f,
                "  ingestion  {:>8} bad session frames  {:>6} admission rejects  \
                 shed rate {:.2}%  queue high-water {:?}",
                self.decode_failures,
                self.admission_rejected,
                self.shed_rate * 100.0,
                self.lane_queue_high_water
            )?;
        }
        writeln!(
            f,
            "  energy     {:.2} µJ/session device-side (max device {:.2} µJ, server {:.2} mJ)",
            self.energy_per_session_j * 1e6,
            self.device_energy_max_j * 1e6,
            self.server_energy_j * 1e3
        )?;
        writeln!(
            f,
            "  lifetime   ≈{:.0} sessions per battery",
            self.mean_sessions_per_battery
        )?;
        write!(
            f,
            "  sharding   {} shards, {} bytes on air",
            self.shards, self.bytes_on_air
        )?;
        for p in &self.profiles {
            write!(
                f,
                "\n  profile    {:<18} {:>6} devices  {:>8} ok {:>5} failed  \
                 ({:.0}/s, {:.2} µJ/session, budget {:.2} µJ{})",
                p.profile,
                p.devices,
                p.sessions_ok,
                p.sessions_failed,
                p.sessions_per_sec,
                p.energy_per_session_j * 1e6,
                p.energy_budget_j * 1e6,
                if p.within_budget { "" } else { " EXCEEDED" }
            )?;
        }
        if let Some(t) = &self.telemetry {
            for lane in &t.lanes {
                if lane.latency.count() == 0 {
                    continue;
                }
                let s = lane.latency.snapshot();
                write!(
                    f,
                    "\n  latency    {:<18} p50 {:>8.1} µs  p99 {:>8.1} µs  p999 {:>8.1} µs  \
                     ({} sessions)",
                    lane.label,
                    s.p50_ns as f64 / 1e3,
                    s.p99_ns as f64 / 1e3,
                    s.p999_ns as f64 / 1e3,
                    s.count
                )?;
            }
            write!(
                f,
                "\n  forensics  {} events logged, {} dropped (ring capacity {})",
                t.events.logged, t.events.dropped, t.events.capacity
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetReport {
        FleetReport {
            devices: 8,
            threads: 2,
            shards: 4,
            backend: "bitsliced",
            sessions_ok: 6,
            sessions_failed: 0,
            frames_ok: 6,
            ph_identified: 2,
            ph_failed: 0,
            forged_rejected: 1,
            decode_failures: 1,
            admission_rejected: 2,
            shed_rate: 0.125,
            lane_queue_high_water: vec![3, 1],
            wall_s: 0.5,
            sessions_per_sec: 16.0,
            frames_per_sec: 12.0,
            device_energy_total_j: 8.0e-5,
            energy_per_session_j: 1.0e-5,
            device_energy_max_j: 2.0e-5,
            server_energy_j: 3.0e-4,
            bytes_on_air: 1024,
            mean_sessions_per_battery: 2.0e9,
            profiles: vec![ProfileStats {
                profile: "mutual@Toy17".into(),
                curve: "Toy17".into(),
                protocol: "mutual".into(),
                countermeasures: "unprotected".into(),
                devices: 6,
                sessions_ok: 6,
                sessions_failed: 0,
                sessions_per_sec: 12.0,
                energy_per_session_j: 1.0e-5,
                energy_budget_j: 8.0e-5,
                within_budget: true,
            }],
            started_unix_ms: 1_754_600_000_000,
            telemetry: None,
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "sessions_ok",
            "frames_per_sec",
            "energy_per_session_j",
            "forged_rejected",
            "decode_failures",
            "admission_rejected",
            "shed_rate",
            "lane_queue_high_water",
            "profiles",
            "backend",
            "started_unix_ms",
            "telemetry",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        assert!(j.contains("\"backend\":\"bitsliced\""));
        assert!(j.contains("\"telemetry\":null"));
        assert!(j.contains("\"shed_rate\":0.125000"));
        assert!(j.contains("\"lane_queue_high_water\":[3,1]"));
        // The per-profile row carries its pyramid point and budget.
        assert!(j.contains("\"profile\":\"mutual@Toy17\""));
        assert!(j.contains("\"within_budget\":true"));
        // Balanced quotes and brackets, and a real parse.
        assert_eq!(j.matches('"').count() % 2, 0);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        json::validate(&j).expect("report JSON must parse");
    }

    #[test]
    fn hostile_strings_and_nonfinite_floats_stay_valid_json() {
        let mut r = sample();
        r.profiles[0].profile = "mutual@\"Toy\\17\"".into();
        r.profiles[0].sessions_per_sec = f64::NAN;
        r.wall_s = f64::INFINITY;
        r.mean_sessions_per_battery = f64::NEG_INFINITY;
        r.shed_rate = f64::NAN;
        let j = r.to_json();
        json::validate(&j).unwrap_or_else(|e| panic!("invalid JSON ({e}): {j}"));
        assert!(j.contains("\"wall_s\":null"));
        assert!(j.contains("\"shed_rate\":null"));
        assert!(j.contains("\"sessions_per_sec\":null"));
        assert!(j.contains(r#""profile":"mutual@\"Toy\\17\"""#));
    }

    #[test]
    fn observed_report_emits_telemetry_block_and_prometheus() {
        use medsec_obs::{Event, EventKind, EventLog, Stage, StageRecorder};
        let mut r = sample();
        let log = EventLog::new(16);
        log.log(Event::new(EventKind::SessionOpen, 0, 7, 1));
        let mut rec = StageRecorder::new(1);
        rec.stage(0, Stage::Hello, 5_000);
        rec.session_latency(0, 42_000, 3);
        let mut t = Telemetry::new(&["Toy17".into()], log.snapshot());
        t.absorb(&rec);
        r.telemetry = Some(t);

        let j = r.to_json();
        json::validate(&j).unwrap_or_else(|e| panic!("invalid JSON ({e}): {j}"));
        for key in [
            "\"lanes\":",
            "\"p99_ns\":",
            "\"hello\":",
            "\"session_open\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        let prom = r.prometheus().expect("observed run exposes metrics");
        assert!(prom.contains("medsec_session_latency_seconds"));
        assert!(prom.contains("medsec_events_total"));
        // Display grows latency + forensics rows.
        let text = r.to_string();
        assert!(text.contains("latency"));
        assert!(text.contains("forensics"));
    }

    #[test]
    fn display_mentions_throughput_and_energy() {
        let text = sample().to_string();
        assert!(text.contains("sessions"));
        assert!(text.contains("µJ/session"));
        // The sample has ingestion activity, so the row appears…
        assert!(text.contains("ingestion"));
        assert!(text.contains("shed rate 12.50%"));
        // …and a purely in-process run keeps its legacy shape.
        let mut quiet = sample();
        quiet.decode_failures = 0;
        quiet.admission_rejected = 0;
        quiet.shed_rate = 0.0;
        quiet.lane_queue_high_water.clear();
        assert!(!quiet.to_string().contains("ingestion"));
    }
}
