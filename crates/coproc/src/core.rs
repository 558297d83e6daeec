//! The cycle-accurate co-processor core.
//!
//! Executes [`Instr`] streams over a six-register file and a digit-serial
//! MALU, reporting per-cycle switching activity. The conditional swap is
//! implemented the way the silicon does it: a steering-multiplexer
//! network in front of the register file (Fig. 3), so a swap moves **no
//! data** — it only re-routes, and its power signature is exactly the
//! select-line transition activity determined by the control encoding.

use medsec_ec::CurveSpec;
use medsec_gf2m::digit_serial::DigitSerialMul;
use medsec_gf2m::Element;

use crate::activity::{ActivityObserver, CycleActivity, NUM_REGS};
use crate::config::{ClockGating, CoprocConfig};
use crate::isa::{Instr, OperandSlot, Reg};

/// A scheduled transient fault: at (or after) `cycle`, bit `bit` of
/// physical register `reg` flips — the single-event-upset model used by
/// the fault-attack evaluation (paper §4: operations "should be
/// protected against side-channel attacks and fault attacks").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cycle at (or after) which the upset strikes.
    pub cycle: u64,
    /// Physical register index (0..[`NUM_REGS`]).
    pub reg: usize,
    /// Bit position within the register (< m).
    pub bit: usize,
}

/// The programmable ECC co-processor, parameterized by the curve it is
/// synthesized for.
///
/// The datapath hardwires the Koblitz optimization b = 1 (the paper's
/// chip); construction rejects curves with other `b`.
///
/// # Example
///
/// ```
/// use medsec_coproc::{Coproc, CoprocConfig};
/// use medsec_ec::K163;
///
/// let core = Coproc::<K163>::new(CoprocConfig::paper_chip());
/// assert_eq!(core.cycle(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Coproc<C: CurveSpec> {
    config: CoprocConfig,
    regs: [Element<C::Field>; NUM_REGS],
    operands: [Element<C::Field>; 2],
    bus: [Element<C::Field>; 2],
    swap_select: bool,
    cycle: u64,
    pending_fault: Option<FaultSpec>,
}

impl<C: CurveSpec> Coproc<C> {
    /// Create a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the curve has `b != 1` (the datapath hardwires the
    /// Koblitz doubling) or if the digit size is not one of the MALU
    /// generator's supported values.
    pub fn new(config: CoprocConfig) -> Self {
        assert_eq!(
            C::b(),
            Element::one(),
            "co-processor datapath hardwires b = 1 (Koblitz); {} unsupported",
            C::NAME
        );
        assert!(
            medsec_gf2m::digit_serial::SUPPORTED_DIGITS.contains(&config.digit_size),
            "unsupported digit size {}",
            config.digit_size
        );
        Self {
            config,
            regs: [Element::zero(); NUM_REGS],
            operands: [Element::zero(); 2],
            bus: [Element::zero(); 2],
            swap_select: false,
            cycle: 0,
            pending_fault: None,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &CoprocConfig {
        &self.config
    }

    /// Cycles elapsed since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Write an input latch (done by the host MCU before starting).
    pub fn set_operand(&mut self, slot: OperandSlot, value: Element<C::Field>) {
        self.operands[slot_index(slot)] = value;
    }

    /// Reset registers, steering state and the cycle counter.
    pub fn reset(&mut self) {
        self.regs = [Element::zero(); NUM_REGS];
        self.bus = [Element::zero(); 2];
        self.swap_select = false;
        self.cycle = 0;
        // Note: a scheduled fault survives reset — fault cycles are
        // relative to the run that follows.
    }

    /// Read a logical register through the steering network — the
    /// *output latch* path; the ISA itself has no export instruction.
    pub fn read_reg(&self, reg: Reg) -> Element<C::Field> {
        self.regs[self.resolve(reg)]
    }

    /// The final projective ladder state (X1:Z1), (X2:Z2).
    #[allow(clippy::type_complexity)]
    pub fn read_result(
        &self,
    ) -> (
        Element<C::Field>,
        Element<C::Field>,
        Element<C::Field>,
        Element<C::Field>,
    ) {
        (
            self.read_reg(Reg::X1),
            self.read_reg(Reg::Z1),
            self.read_reg(Reg::X2),
            self.read_reg(Reg::Z2),
        )
    }

    /// Steering: when the swap select is asserted, logical X1↔X2 and
    /// Z1↔Z2 exchange physical registers.
    fn resolve(&self, reg: Reg) -> usize {
        let i = reg.index();
        if self.swap_select && i < 4 {
            i ^ 2 // X1<->X2 (0<->2), Z1<->Z2 (1<->3)
        } else {
            i
        }
    }

    /// Schedule a transient fault (single-event upset) to strike at the
    /// given cycle. At most one fault is pending at a time; scheduling
    /// replaces any previous one.
    ///
    /// # Panics
    ///
    /// Panics if the register index or bit position is out of range.
    pub fn schedule_fault(&mut self, fault: FaultSpec) {
        assert!(fault.reg < NUM_REGS, "register index out of range");
        assert!(
            fault.bit < <C::Field as FieldSpec>::M,
            "fault bit outside field degree"
        );
        self.pending_fault = Some(fault);
    }

    /// Execute a program, reporting every cycle to `observer`.
    pub fn execute(&mut self, program: &[Instr], observer: &mut impl ActivityObserver) {
        for instr in program {
            // Register upsets strike between instructions (register
            // granularity is what output-validation countermeasures see).
            if let Some(f) = self.pending_fault {
                if self.cycle >= f.cycle {
                    self.regs[f.reg] = self.regs[f.reg].with_bit_flipped(f.bit);
                    self.pending_fault = None;
                }
            }
            self.execute_instr(*instr, observer);
        }
    }

    fn execute_instr(&mut self, instr: Instr, observer: &mut impl ActivityObserver) {
        match instr {
            Instr::Mul { dst, a, b } => self.exec_mul(dst, a, b, observer),
            Instr::Add { dst, a, b } => {
                let va = self.regs[self.resolve(a)];
                let vb = self.regs[self.resolve(b)];
                self.exec_single_write(dst, va + vb, va, vb, observer);
            }
            Instr::Copy { dst, src } => {
                let v = self.regs[self.resolve(src)];
                self.exec_single_write(dst, v, v, Element::zero(), observer);
            }
            Instr::Load { dst, slot } => {
                let v = self.operands[slot_index(slot)];
                self.exec_single_write(dst, v, v, Element::zero(), observer);
            }
            Instr::CSwap { sel } => self.exec_cswap(sel, observer),
        }
    }

    fn exec_mul(&mut self, dst: Reg, a: Reg, b: Reg, observer: &mut impl ActivityObserver) {
        let va = self.regs[self.resolve(a)];
        let vb = self.regs[self.resolve(b)];
        let bus_hd = va.hamming_distance(&self.bus[0]) + vb.hamming_distance(&self.bus[1]);
        self.bus = [va, vb];
        let hw_b = vb.hamming_weight();
        // Nominal (data-average) partial-product activity, used by the
        // dual-rail styles as their constant full-switch term: d/2 set
        // digit bits times m/2 set multiplicand bits.
        let pp_nominal = (self.config.digit_size as u32 * <C::Field as FieldSpec>::M as u32) / 4;

        let mut mul = DigitSerialMul::new(va, vb, self.config.digit_size);
        let total = mul.total_cycles();
        for i in 0..total {
            let step = mul.step();
            let mut act = CycleActivity {
                cycle: self.cycle,
                malu_hd: step.acc_hd,
                // Partial-product AND-array switching: one row per set
                // digit bit, each row as active as the multiplicand.
                malu_pp: step.digit_hw * hw_b,
                malu_pp_nominal: pp_nominal,
                bus_hd: if i == 0 { bus_hd } else { 0 },
                clocked_mask: self.idle_clock_mask(),
                ..Default::default()
            };
            if !self.config.operand_isolation && i == 0 {
                // Without AND-gate isolation the fresh operands ripple
                // into the idle adder and comparator paths too.
                act.glitch_hd = bus_hd;
            }
            self.cycle += 1;
            observer.on_cycle(&act);
        }
        // Write-back stage: the accumulator is committed to the
        // destination register in its own cycle.
        let mut act = CycleActivity {
            cycle: self.cycle,
            ..Default::default()
        };
        self.commit_write(dst, mul.result(), &mut act);
        self.cycle += 1;
        observer.on_cycle(&act);
    }

    fn exec_single_write(
        &mut self,
        dst: Reg,
        value: Element<C::Field>,
        bus_a: Element<C::Field>,
        bus_b: Element<C::Field>,
        observer: &mut impl ActivityObserver,
    ) {
        let bus_hd = bus_a.hamming_distance(&self.bus[0]) + bus_b.hamming_distance(&self.bus[1]);
        self.bus = [bus_a, bus_b];
        let mut act = CycleActivity {
            cycle: self.cycle,
            bus_hd,
            ..Default::default()
        };
        if !self.config.operand_isolation {
            act.glitch_hd = bus_hd;
        }
        self.commit_write(dst, value, &mut act);
        self.cycle += 1;
        observer.on_cycle(&act);
    }

    fn exec_cswap(&mut self, sel: bool, observer: &mut impl ActivityObserver) {
        let transitions = self.config.mux_encoding.transitions(self.swap_select, sel);
        let cycles = self.config.mux_encoding.cycles_per_update();
        self.swap_select = sel;
        // Spread the (possibly precharge/evaluate) transitions over the
        // update cycles; total is what matters to the energy model, the
        // per-cycle split keeps RTZ's two phases visible in traces.
        for i in 0..cycles {
            let share = if cycles == 1 {
                transitions
            } else if i == 0 {
                transitions / 2
            } else {
                transitions - transitions / 2
            };
            let act = CycleActivity {
                cycle: self.cycle,
                mux_toggles: share * crate::activity::MUX_FANOUT,
                clocked_mask: self.idle_clock_mask(),
                ..Default::default()
            };
            self.cycle += 1;
            observer.on_cycle(&act);
        }
    }

    fn commit_write(&mut self, dst: Reg, value: Element<C::Field>, act: &mut CycleActivity) {
        let phys = self.resolve(dst);
        let old = self.regs[phys];
        act.reg_write_hd += old.hamming_distance(&value);
        act.reg_write_hw += value.hamming_weight();
        if !self.config.operand_isolation {
            // The written value ripples back into datapath inputs.
            act.glitch_hd += old.hamming_distance(&value);
        }
        act.clocked_mask |= match self.config.clock_gating {
            ClockGating::Ungated | ClockGating::Global => 0b11_1111,
            ClockGating::PerRegister => 1u8 << phys,
        };
        self.regs[phys] = value;
    }

    /// Clock activity on cycles without a register write.
    fn idle_clock_mask(&self) -> u8 {
        match self.config.clock_gating {
            ClockGating::Ungated => 0b11_1111,
            ClockGating::Global | ClockGating::PerRegister => 0,
        }
    }

    /// Cycles one conditional-swap control update takes.
    pub fn cswap_cycles(&self) -> u64 {
        self.config.mux_encoding.cycles_per_update()
    }
}

fn slot_index(slot: OperandSlot) -> usize {
    match slot {
        OperandSlot::BaseX => 0,
        OperandSlot::Blind => 1,
    }
}

// Re-export the field spec M through CurveSpec for cost helpers.
use medsec_gf2m::FieldSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{NullObserver, WindowCollector};
    use crate::config::MuxEncoding;
    use medsec_ec::{Toy17, K163};
    use medsec_rng::SplitMix64;

    fn el(v: u64) -> Element<<K163 as CurveSpec>::Field> {
        Element::from_u64(v)
    }

    #[test]
    fn mul_instruction_matches_field_mul() {
        let mut core = Coproc::<K163>::new(CoprocConfig::paper_chip());
        let mut rng = SplitMix64::new(1);
        let a = Element::random(rng.as_fn());
        let b = Element::random(rng.as_fn());
        core.set_operand(OperandSlot::BaseX, a);
        core.set_operand(OperandSlot::Blind, b);
        core.execute(
            &[
                Instr::Load {
                    dst: Reg::X1,
                    slot: OperandSlot::BaseX,
                },
                Instr::Load {
                    dst: Reg::Z1,
                    slot: OperandSlot::Blind,
                },
                Instr::Mul {
                    dst: Reg::T,
                    a: Reg::X1,
                    b: Reg::Z1,
                },
            ],
            &mut NullObserver,
        );
        assert_eq!(core.read_reg(Reg::T), a * b);
        // 2 loads + 41 MALU cycles + 1 write-back.
        assert_eq!(core.cycle(), 2 + 42);
    }

    #[test]
    fn add_and_copy() {
        let mut core = Coproc::<K163>::new(CoprocConfig::paper_chip());
        core.set_operand(OperandSlot::BaseX, el(0b1100));
        core.set_operand(OperandSlot::Blind, el(0b1010));
        core.execute(
            &[
                Instr::Load {
                    dst: Reg::X1,
                    slot: OperandSlot::BaseX,
                },
                Instr::Load {
                    dst: Reg::Z1,
                    slot: OperandSlot::Blind,
                },
                Instr::Add {
                    dst: Reg::T,
                    a: Reg::X1,
                    b: Reg::Z1,
                },
                Instr::Copy {
                    dst: Reg::XP,
                    src: Reg::T,
                },
            ],
            &mut NullObserver,
        );
        assert_eq!(core.read_reg(Reg::T), el(0b0110));
        assert_eq!(core.read_reg(Reg::XP), el(0b0110));
    }

    #[test]
    fn cswap_steers_without_moving_data() {
        let mut core = Coproc::<K163>::new(CoprocConfig::paper_chip());
        core.set_operand(OperandSlot::BaseX, el(7));
        core.set_operand(OperandSlot::Blind, el(9));
        core.execute(
            &[
                Instr::Load {
                    dst: Reg::X1,
                    slot: OperandSlot::BaseX,
                },
                Instr::Load {
                    dst: Reg::X2,
                    slot: OperandSlot::Blind,
                },
            ],
            &mut NullObserver,
        );
        let mut collector = WindowCollector::new(0, u64::MAX);
        core.execute(&[Instr::CSwap { sel: true }], &mut collector);
        // Logical view swapped.
        assert_eq!(core.read_reg(Reg::X1), el(9));
        assert_eq!(core.read_reg(Reg::X2), el(7));
        // No register write happened — pure steering.
        assert_eq!(collector.into_trace().total_reg_hd(), 0);
        // Swap back restores.
        core.execute(&[Instr::CSwap { sel: false }], &mut NullObserver);
        assert_eq!(core.read_reg(Reg::X1), el(7));
    }

    #[test]
    fn writes_through_steering_land_in_physical_partner() {
        let mut core = Coproc::<Toy17>::new(CoprocConfig::paper_chip());
        core.set_operand(OperandSlot::BaseX, Element::from_u64(3));
        core.execute(
            &[
                Instr::CSwap { sel: true },
                Instr::Load {
                    dst: Reg::X1,
                    slot: OperandSlot::BaseX,
                },
                Instr::CSwap { sel: false },
            ],
            &mut NullObserver,
        );
        // While steered, a write to logical X1 must hit physical X2.
        assert_eq!(core.read_reg(Reg::X2), Element::from_u64(3));
        assert_eq!(core.read_reg(Reg::X1), Element::zero());
    }

    #[test]
    fn rtz_cswap_activity_is_select_independent() {
        for pattern in [[false, false], [false, true], [true, true]] {
            let mut core = Coproc::<K163>::new(CoprocConfig::paper_chip());
            let mut toggles = Vec::new();
            for sel in pattern {
                let mut c = WindowCollector::new(0, u64::MAX);
                core.execute(&[Instr::CSwap { sel }], &mut c);
                toggles.push(c.into_trace().total_mux_toggles());
            }
            assert!(
                toggles.iter().all(|&t| t == toggles[0]),
                "RTZ toggles vary: {toggles:?}"
            );
        }
    }

    #[test]
    fn single_rail_cswap_activity_leaks_select() {
        let mut cfg = CoprocConfig::paper_chip();
        cfg.mux_encoding = MuxEncoding::SingleRail;
        let mut core = Coproc::<K163>::new(cfg);
        let mut c0 = WindowCollector::new(0, u64::MAX);
        core.execute(&[Instr::CSwap { sel: false }], &mut c0); // no change
        let mut c1 = WindowCollector::new(0, u64::MAX);
        core.execute(&[Instr::CSwap { sel: true }], &mut c1); // change
        assert_eq!(c0.into_trace().total_mux_toggles(), 0);
        assert!(c1.into_trace().total_mux_toggles() > 0);
    }

    #[test]
    fn per_register_gating_exposes_written_register() {
        let mut cfg = CoprocConfig::paper_chip();
        cfg.clock_gating = ClockGating::PerRegister;
        let mut core = Coproc::<K163>::new(cfg);
        core.set_operand(OperandSlot::BaseX, el(5));
        let mut c = WindowCollector::new(0, u64::MAX);
        core.execute(
            &[Instr::Load {
                dst: Reg::T,
                slot: OperandSlot::BaseX,
            }],
            &mut c,
        );
        let trace = c.into_trace();
        assert_eq!(trace.samples()[0].clocked_mask, 1 << Reg::T.index());
    }

    #[test]
    #[should_panic(expected = "b = 1")]
    fn rejects_non_koblitz_curves() {
        let _ = Coproc::<medsec_ec::B163>::new(CoprocConfig::paper_chip());
    }

    #[test]
    #[should_panic(expected = "digit size")]
    fn rejects_unsupported_digit() {
        let mut cfg = CoprocConfig::paper_chip();
        cfg.digit_size = 7;
        let _ = Coproc::<K163>::new(cfg);
    }
}
