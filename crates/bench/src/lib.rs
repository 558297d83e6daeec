//! Experiment harness: regenerates every quantitative claim of the
//! paper (`experiments --list` prints the experiment index).
//!
//! Each `eN_*` module produces a formatted report comparing the paper's
//! numbers with the values measured on the simulated system. Run them
//! all with:
//!
//! ```text
//! cargo run -p medsec-bench --release --bin experiments -- all
//! ```
//!
//! Pass `--fast` to shrink the trace counts (CI-friendly); the full run
//! reproduces the paper-scale campaigns (200 / 20 000 DPA traces).

#![forbid(unsafe_code)]

pub mod table;

pub mod e10_ablation;
pub mod e11_ordering;
pub mod e12_faults;
pub mod e1_energy;
pub mod e2_digit_sweep;
pub mod e3_dpa;
pub mod e4_timing;
pub mod e5_spa;
pub mod e6_gates;
pub mod e7_energy_xover;
pub mod e8_privacy;
pub mod e9_registers;
pub mod loadgen;

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

/// Run one experiment by id; `fast` shrinks statistical campaigns.
pub fn run(id: &str, fast: bool) -> Option<String> {
    let report = match id {
        "e1" => e1_energy::run(fast),
        "e2" => e2_digit_sweep::run(fast),
        "e3" => e3_dpa::run(fast),
        "e4" => e4_timing::run(fast),
        "e5" => e5_spa::run(fast),
        "e6" => e6_gates::run(fast),
        "e7" => e7_energy_xover::run(fast),
        "e8" => e8_privacy::run(fast),
        "e9" => e9_registers::run(fast),
        "e10" => e10_ablation::run(fast),
        "e11" => e11_ordering::run(fast),
        "e12" => e12_faults::run(fast),
        _ => return None,
    };
    Some(report)
}
