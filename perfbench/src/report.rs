//! What one run found: checks, counted attempts and failures, and named
//! metrics with units and sample counts; and how it is printed.

use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

/// A named output check, evaluated once or many times per run.
#[derive(Debug, Default, Clone)]
struct Check {
    passed: u64,
    failed: u64,
    first_failure: Option<String>,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose outputs were checked (sessions, forged frames,
    /// hostile arrivals).
    pub attempted: u64,
    /// Operations that ended wrongly, plus failed whole-run checks.
    pub failed: u64,
    checks: BTreeMap<String, Check>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record one evaluation of check `name`; `detail` describes a
    /// failure and is only built when the check fails.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let c = self.checks.entry(name.to_string()).or_default();
        if ok {
            c.passed += 1;
        } else {
            c.failed += 1;
            self.failed += 1;
            c.first_failure.get_or_insert_with(detail);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.check("metrics_finite", value.is_finite(), || {
            format!("{name} = {value}")
        });
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.checks.values().all(|c| c.failed == 0)
    }

    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, c) in other.checks {
            let dst = self.checks.entry(name).or_default();
            dst.passed += c.passed;
            dst.failed += c.failed;
            if dst.first_failure.is_none() {
                dst.first_failure = c.first_failure;
            }
        }
        self.metrics.extend(other.metrics);
    }

    /// Human-readable lines, then one detail JSON line (fingerprint,
    /// sample counts, checks), then the result object as the last line.
    pub fn print(&self, fingerprint: &str) {
        for (name, c) in &self.checks {
            let verdict = if c.failed == 0 { "ok  " } else { "FAIL" };
            let why = c.first_failure.as_deref().unwrap_or("");
            println!(
                "check  {verdict} {name} ({}/{}) {why}",
                c.passed,
                c.passed + c.failed
            );
        }
        for m in &self.metrics {
            println!(
                "metric {:<40} {:>16} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let samples = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\":{}", m.name, m.samples))
            .collect::<Vec<_>>()
            .join(",");
        let checks = self
            .checks
            .iter()
            .map(|(n, c)| {
                format!(
                    "\"{n}\":{{\"passed\":{},\"failed\":{}}}",
                    c.passed, c.failed
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"fingerprint\":{fingerprint},\"samples\":{{{samples}}},\"checks\":{{{checks}}}}}"
        );
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}
