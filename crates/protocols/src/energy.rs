//! Per-party energy ledgers — the bookkeeping behind the paper's
//! protocol-level rules: minimize device computation, minimize
//! communication, and avoid useless computation (§4).

use medsec_lwc::HwProfile;
use medsec_power::{EnergyReport, RadioModel};
use serde::{Deserialize, Serialize};

/// Energy account of one protocol party: four integer counts —
/// point multiplications, symmetric gate-cycles, bytes sent and bytes
/// received — priced on read with the party's unit costs. Every booking
/// is linear in its count, so the joules depend on what was booked, not
/// on the order it was booked in, and the account stays the same size
/// however many sessions it books.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Cost of one ECC point multiplication on this party's hardware.
    ecpm: EnergyReport,
    /// Per-gate-cycle block-energy scale (from the technology).
    symmetric_scale: f64,
    /// Radio model.
    radio: RadioModel,
    /// Link distance in meters.
    distance_m: f64,
    /// Point multiplications booked.
    point_muls: u64,
    /// Symmetric work booked: gate equivalents × cycles per block ×
    /// blocks, summed over bookings.
    gate_cycles: u64,
    /// Bytes transmitted.
    bytes_tx: usize,
    /// Bytes received.
    bytes_rx: usize,
}

impl EnergyLedger {
    /// Create a ledger for a device whose point multiplication costs
    /// `ecpm`, communicating over `distance_m` meters.
    pub fn new(ecpm: EnergyReport, radio: RadioModel, distance_m: f64) -> Self {
        Self {
            ecpm,
            // Same calibration as Technology::block_energy at 1 V.
            symmetric_scale: 4.7e-15,
            radio,
            distance_m,
            point_muls: 0,
            gate_cycles: 0,
            bytes_tx: 0,
            bytes_rx: 0,
        }
    }

    /// Record one ECC point multiplication.
    pub fn point_mul(&mut self) {
        self.point_muls += 1;
    }

    /// Record `blocks` invocations of a symmetric primitive with the
    /// given hardware profile.
    pub fn symmetric(&mut self, profile: &HwProfile, blocks: u64) {
        self.gate_cycles +=
            u64::from(profile.gate_equivalents) * u64::from(profile.cycles_per_block) * blocks;
    }

    /// Record a transmission of `bytes`.
    pub fn tx(&mut self, bytes: usize) {
        self.bytes_tx += bytes;
    }

    /// Record a reception of `bytes`.
    pub fn rx(&mut self, bytes: usize) {
        self.bytes_rx += bytes;
    }

    /// Total energy spent, joules.
    pub fn total(&self) -> f64 {
        self.compute() + self.radio_j()
    }

    /// Computation-only energy, joules.
    pub fn compute(&self) -> f64 {
        self.point_muls as f64 * self.ecpm.energy_j + self.gate_cycles as f64 * self.symmetric_scale
    }

    /// Communication-only energy, joules.
    pub fn communication(&self) -> f64 {
        self.total() - self.compute()
    }

    /// Bytes sent + received.
    pub fn bytes_on_air(&self) -> usize {
        self.bytes_tx + self.bytes_rx
    }

    /// Energy of the bytes sent and received, joules.
    fn radio_j(&self) -> f64 {
        self.radio.tx_energy(self.bytes_tx, self.distance_m) + self.radio.rx_energy(self.bytes_rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_lwc::{Aes128, BlockCipher};

    fn ledger(distance: f64) -> EnergyLedger {
        let ecpm = EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0);
        EnergyLedger::new(ecpm, RadioModel::first_order_default(), distance)
    }

    #[test]
    fn point_mul_accounts_5_microjoules() {
        let mut l = ledger(10.0);
        l.point_mul();
        assert!((l.total() - 5.1e-6).abs() < 1e-12);
        assert_eq!(l.communication(), 0.0);
    }

    #[test]
    fn radio_dominates_at_distance() {
        let mut l = ledger(30.0);
        l.point_mul();
        l.tx(22);
        // At 30 m the 22-byte transmission (~25 µJ) exceeds the 5.1 µJ
        // point multiplication — the paper's "communication is
        // power-hungry".
        assert!(l.communication() > l.compute());
    }

    #[test]
    fn symmetric_blocks_are_cheap() {
        let mut l = ledger(10.0);
        l.symmetric(&Aes128::hw_profile(), 2);
        assert!(l.compute() < 1.0e-6, "AES energy {}", l.compute());
    }

    #[test]
    fn ledger_bookkeeping() {
        let mut l = ledger(1.0);
        assert_eq!((l.total(), l.bytes_on_air()), (0.0, 0));
        l.tx(10);
        l.rx(20);
        l.point_mul();
        assert_eq!(l.bytes_on_air(), 30);
        // Counts priced on read: the compute, then the radio.
        let radio = RadioModel::first_order_default();
        let comm = radio.tx_energy(10, 1.0) + radio.rx_energy(20);
        assert_eq!(l.total().to_bits(), (comm + 5.1e-6).to_bits());
        assert_eq!(l.compute().to_bits(), 5.1e-6f64.to_bits());
        assert_eq!(l.communication(), l.total() - l.compute());
    }
}
