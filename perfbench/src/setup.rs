//! `setup_s`: what a fresh process pays before it can serve, the
//! warm-up pass plus one provisioning of the workload's fleet, timed in
//! child processes of this executable spread over the run.
//!
//! A process pays its cold costs (backend selection, the comb and τNAF
//! tables, the lazy statics, first-touch memory) only once, and the
//! shared host's speed moves by a third in phases of seconds, so one
//! set-up reads whichever phase it fell in. The median of several fresh
//! processes, started at even steps through the run, reads several.

use std::process::Command;
use std::time::Instant;

use crate::report::Report;
use crate::stats::median;

/// Fresh-process set-ups per run.
pub const SETUPS: usize = 9;

/// The flag a child is started with, followed by the size's name; the
/// child prints `setup_s <seconds>` as its last line.
pub const PROBE_FLAG: &str = "--setup-probe";

pub struct Setups {
    args: Vec<String>,
    every_s: f64,
    start: Instant,
    attempts: usize,
    times: Vec<f64>,
    errors: Vec<String>,
}

impl Setups {
    pub fn new(workload: &str, seed: u64, size_name: &str, seconds: f64) -> Self {
        Setups {
            args: [
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                PROBE_FLAG,
                size_name,
            ]
            .map(String::from)
            .to_vec(),
            every_s: seconds / SETUPS as f64,
            start: Instant::now(),
            attempts: 0,
            times: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Run the next set-up once its step of the run has passed. Called
    /// between timed repetitions; the child runs alone, this process
    /// waits for it.
    pub fn due(&mut self) {
        let next_s = self.every_s * self.attempts as f64;
        if self.attempts < SETUPS && self.start.elapsed().as_secs_f64() >= next_s {
            self.run_one();
        }
    }

    fn run_one(&mut self) {
        self.attempts += 1;
        let out =
            std::env::current_exe().and_then(|exe| Command::new(exe).args(&self.args).output());
        let seconds = match &out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok()),
            _ => None,
        };
        match seconds {
            Some(s) => self.times.push(s),
            None => self.errors.push(format!("{out:?}")),
        }
    }

    /// Run the set-ups not yet due and report their median as
    /// `setup_s`.
    pub fn report(mut self, out: &mut Report) {
        while self.attempts < SETUPS {
            self.run_one();
        }
        out.check("setup.fresh_processes_ran", self.errors.is_empty(), || {
            self.errors.join("; ")
        });
        out.metric("setup_s", median(&self.times), "s", self.times.len() as u64);
    }
}
