//! Activity → energy conversion, including side-channel-resistant logic
//! styles.
//!
//! Paper §6: "Sense amplifier based logic (SABL) consumes the same
//! amount of energy regardless of the data being processed … WDDL
//! operates using the same principle, and is compatible with regular
//! synthesis … they come with high area and power cost." We model a
//! logic style as (energy factor, area factor, residual data
//! dependence ε): dual-rail styles replace the data-dependent switching
//! count by a constant full-width term, with a small ε of residual
//! imbalance (perfect balance is unachievable in layout, §7).

use medsec_coproc::CycleActivity;
use serde::{Deserialize, Serialize};

use crate::technology::Technology;

/// Circuit-level logic style of the secure zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LogicStyle {
    /// Plain standard-cell CMOS: cheapest, fully data-dependent power
    /// (the 0→1 asymmetry the paper describes).
    #[default]
    StandardCell,
    /// Wave Dynamic Differential Logic: synthesis-compatible dual-rail
    /// precharge style (Tiri & Verbauwhede, cited as \[19\]).
    Wddl,
    /// Sense-amplifier based logic: full-custom dual-rail.
    Sabl,
}

impl LogicStyle {
    /// Multiplicative energy overhead relative to standard cells
    /// (dual-rail logic switches every signal pair every cycle).
    pub fn energy_factor(self) -> f64 {
        match self {
            LogicStyle::StandardCell => 1.0,
            LogicStyle::Wddl => 3.2,
            LogicStyle::Sabl => 2.1,
        }
    }

    /// Multiplicative area overhead.
    pub fn area_factor(self) -> f64 {
        match self {
            LogicStyle::StandardCell => 1.0,
            LogicStyle::Wddl => 3.0,
            LogicStyle::Sabl => 1.8,
        }
    }

    /// Residual data dependence ε of the switching energy (1 = fully
    /// data-dependent; dual-rail styles leak only through layout
    /// imbalance).
    pub fn residual_leakage(self) -> f64 {
        match self {
            LogicStyle::StandardCell => 1.0,
            LogicStyle::Wddl => 0.04,
            LogicStyle::Sabl => 0.015,
        }
    }

    /// Whether the style inherently suppresses glitches (§6: "dynamic
    /// differential logic provides inherent protection against
    /// glitching").
    pub fn suppresses_glitches(self) -> bool {
        !matches!(self, LogicStyle::StandardCell)
    }
}

/// Converts per-cycle switching activity into energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Technology / operating point.
    pub technology: Technology,
    /// Logic style of the secure zone (register file + MALU + control).
    pub style: LogicStyle,
}

/// Nominal full widths used for the constant term of dual-rail styles.
mod width {
    pub const MALU: f64 = 163.0;
    pub const REG: f64 = 163.0;
    pub const BUS: f64 = 326.0;
    pub const GLITCH: f64 = 163.0;
}

impl PowerModel {
    /// Standard-cell model at the paper's technology.
    pub fn paper_default() -> Self {
        Self {
            technology: Technology::umc130_low_leakage(),
            style: LogicStyle::StandardCell,
        }
    }

    /// Blend a data-dependent count with the style's constant full-width
    /// switching term.
    fn effective(&self, observed: f64, width: f64) -> f64 {
        let eps = self.style.residual_leakage();
        eps * observed + (1.0 - eps) * (width / 2.0)
    }

    /// Energy consumed in one clock cycle with the given activity, in
    /// joules. Deterministic — measurement noise is added by the trace
    /// recorder, not here.
    pub fn cycle_energy(&self, act: &CycleActivity) -> f64 {
        let e = &self.technology.energies;
        let mut data = 0.0;
        data += self.effective(act.malu_hd as f64, width::MALU) * e.malu_bit;
        // Partial-product array: its nominal width scales with the digit
        // size, so the activity record carries it.
        data += self.effective(act.malu_pp as f64, 2.0 * act.malu_pp_nominal as f64) * e.pp_event;
        data += self.effective(act.reg_write_hd as f64, width::REG) * e.reg_bit;
        data += self.effective(act.bus_hd as f64, width::BUS) * e.bus_bit;
        // Glitches: dual-rail precharge styles suppress them entirely.
        if !self.style.suppresses_glitches() {
            data += self.effective(act.glitch_hd as f64, width::GLITCH) * e.glitch_bit;
        }
        // Control/select network: dual-rail data path styles do not fix
        // the select encoding — that is MuxEncoding's job — so toggles
        // count as observed.
        data += act.mux_toggles as f64 * e.mux_toggle;

        // Clock: per-register branches with layout skew.
        let mut clock = 0.0;
        for (i, skew) in self.technology.reg_clock_skew.iter().enumerate() {
            if act.clocked_mask & (1 << i) != 0 {
                clock += e.reg_clock * (1.0 + skew);
            }
        }

        self.style.energy_factor() * data
            + clock
            + e.base_cycle
            + self.technology.leakage_per_cycle()
    }

    /// Average power in watts given total energy over a cycle count.
    pub fn average_power(&self, total_energy_j: f64, cycles: u64) -> f64 {
        total_energy_j / self.technology.cycles_to_seconds(cycles)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(malu: u32, reg: u32) -> CycleActivity {
        CycleActivity {
            malu_hd: malu,
            reg_write_hd: reg,
            clocked_mask: 0b11_1111,
            ..Default::default()
        }
    }

    #[test]
    fn standard_cell_energy_tracks_data() {
        let m = PowerModel::paper_default();
        let quiet = m.cycle_energy(&activity(0, 0));
        let busy = m.cycle_energy(&activity(120, 120));
        assert!(busy > quiet * 1.3, "data dependence too weak");
    }

    #[test]
    fn dual_rail_styles_flatten_data_dependence() {
        for style in [LogicStyle::Wddl, LogicStyle::Sabl] {
            let m = PowerModel {
                technology: Technology::umc130_low_leakage(),
                style,
            };
            let quiet = m.cycle_energy(&activity(0, 0));
            let busy = m.cycle_energy(&activity(120, 120));
            let rel = (busy - quiet) / quiet;
            assert!(
                rel < 0.05,
                "{style:?} still {rel:.3} data-dependent (should be ~ε)"
            );
        }
    }

    #[test]
    fn dual_rail_styles_cost_energy() {
        let std = PowerModel::paper_default();
        let wddl = PowerModel {
            technology: Technology::umc130_low_leakage(),
            style: LogicStyle::Wddl,
        };
        let act = activity(80, 40);
        assert!(wddl.cycle_energy(&act) > 1.5 * std.cycle_energy(&act));
    }

    #[test]
    fn clock_skew_differentiates_registers() {
        let m = PowerModel::paper_default();
        let a = CycleActivity {
            clocked_mask: 0b000010, // register 1 (+3 % skew)
            ..CycleActivity::default()
        };
        let b = CycleActivity {
            clocked_mask: 0b010000, // register 4 (−4 % skew)
            ..CycleActivity::default()
        };
        assert!(m.cycle_energy(&a) > m.cycle_energy(&b));
    }

    #[test]
    fn average_power_arithmetic() {
        let m = PowerModel::paper_default();
        // 59.5 pJ × 847500 cycles over 1 s → 50.4 µW.
        let p = m.average_power(59.5e-12 * 847_500.0, 847_500);
        assert!((p - 50.4e-6).abs() < 0.5e-6);
    }
}
