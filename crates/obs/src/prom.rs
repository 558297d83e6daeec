//! Prometheus-style text exposition for a [`Telemetry`] frame.
//!
//! Dependency-free: `PrometheusExposition` borrows a telemetry frame
//! and renders the classic text format (`# HELP` / `# TYPE` + one
//! sample per line) through `Display`, so callers can `print!` it, log
//! it, or serve it over any transport they already have. Latencies are
//! exposed as summaries (quantile labels) plus total seconds/count, and
//! stage attribution and forensic event counts as counters — the
//! conventional shapes scrapers expect.

use std::fmt;

use crate::events::ALL_EVENT_KINDS;
use crate::recorder::{Telemetry, STAGES};

/// Borrowing `Display` adapter over one [`Telemetry`] frame.
pub struct PrometheusExposition<'a> {
    telemetry: &'a Telemetry,
}

impl<'a> PrometheusExposition<'a> {
    /// Wrap a telemetry frame for rendering.
    pub fn new(telemetry: &'a Telemetry) -> Self {
        Self { telemetry }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl fmt::Display for PrometheusExposition<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.telemetry;

        writeln!(
            f,
            "# HELP medsec_session_latency_seconds Per-session wall latency by curve lane."
        )?;
        writeln!(f, "# TYPE medsec_session_latency_seconds summary")?;
        for lane in &t.lanes {
            let s = lane.latency.snapshot();
            for (q, v) in [(0.5, s.p50_ns), (0.99, s.p99_ns), (0.999, s.p999_ns)] {
                writeln!(
                    f,
                    "medsec_session_latency_seconds{{lane=\"{}\",quantile=\"{}\"}} {}",
                    lane.label,
                    q,
                    secs(v)
                )?;
            }
            writeln!(
                f,
                "medsec_session_latency_seconds_sum{{lane=\"{}\"}} {}",
                lane.label,
                secs(lane.latency.sum())
            )?;
            writeln!(
                f,
                "medsec_session_latency_seconds_count{{lane=\"{}\"}} {}",
                lane.label, s.count
            )?;
        }

        writeln!(
            f,
            "# HELP medsec_stage_seconds_total Wall time attributed to each pipeline stage."
        )?;
        writeln!(f, "# TYPE medsec_stage_seconds_total counter")?;
        writeln!(
            f,
            "# HELP medsec_stage_spans_total Span count per pipeline stage."
        )?;
        writeln!(f, "# TYPE medsec_stage_spans_total counter")?;
        for lane in &t.lanes {
            for stage in STAGES {
                let i = stage.index();
                if lane.stage_calls[i] == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "medsec_stage_seconds_total{{lane=\"{}\",stage=\"{}\"}} {}",
                    lane.label,
                    stage.name(),
                    secs(lane.stage_ns[i])
                )?;
                writeln!(
                    f,
                    "medsec_stage_spans_total{{lane=\"{}\",stage=\"{}\"}} {}",
                    lane.label,
                    stage.name(),
                    lane.stage_calls[i]
                )?;
            }
        }

        writeln!(
            f,
            "# HELP medsec_events_total Forensic events logged, by kind."
        )?;
        writeln!(f, "# TYPE medsec_events_total counter")?;
        for kind in ALL_EVENT_KINDS {
            writeln!(
                f,
                "medsec_events_total{{kind=\"{}\"}} {}",
                kind.name(),
                t.events.count(kind)
            )?;
        }
        writeln!(
            f,
            "# HELP medsec_events_dropped_total Forensic events lost to ring wrap-around."
        )?;
        writeln!(f, "# TYPE medsec_events_dropped_total counter")?;
        writeln!(f, "medsec_events_dropped_total {}", t.events.dropped)?;

        if !t.counters.is_empty() {
            writeln!(f, "# HELP medsec_counter_total Free-form fleet counters.")?;
            writeln!(f, "# TYPE medsec_counter_total counter")?;
            for (name, v) in &t.counters {
                writeln!(f, "medsec_counter_total{{name=\"{name}\"}} {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, EventKind, EventLog};
    use crate::recorder::{Stage, StageRecorder};

    #[test]
    fn exposition_renders_all_families() {
        let mut rec = StageRecorder::new(1);
        rec.stage(0, Stage::Hello, 1_000_000);
        rec.session_latency(0, 2_000_000, 5);
        rec.count("forged_rejected", 3);
        let log = EventLog::new(8);
        log.log(Event::new(EventKind::SessionOpen, 0, 1, 0));
        let mut t = Telemetry::new(&["k163".into()], log.snapshot());
        t.absorb(&rec);

        let text = PrometheusExposition::new(&t).to_string();
        assert!(text.contains("# TYPE medsec_session_latency_seconds summary"));
        assert!(text.contains("medsec_session_latency_seconds{lane=\"k163\",quantile=\"0.99\"}"));
        assert!(text.contains("medsec_session_latency_seconds_count{lane=\"k163\"} 5"));
        assert!(text.contains("medsec_stage_seconds_total{lane=\"k163\",stage=\"hello\"} 0.001"));
        assert!(text.contains("medsec_stage_spans_total{lane=\"k163\",stage=\"hello\"} 1"));
        assert!(text.contains("medsec_events_total{kind=\"session_open\"} 1"));
        assert!(text.contains("medsec_events_dropped_total 0"));
        assert!(text.contains("medsec_counter_total{name=\"forged_rejected\"} 3"));
        // Every non-comment line is `name{...} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
        }
    }

    #[test]
    fn empty_stages_are_omitted() {
        let t = Telemetry::new(&["toy".into()], EventLog::new(2).snapshot());
        let text = PrometheusExposition::new(&t).to_string();
        assert!(!text.contains("stage=\"verify\""));
        assert!(text.contains("medsec_events_total{kind=\"auth_failure\"} 0"));
    }
}
