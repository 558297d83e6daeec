//! Fleet configuration and the one-call driver: a [`FleetConfig`]
//! names the fleet (a single-curve mix or explicit wards), and
//! [`run_fleet`] provisions a [`GatewayHub`](crate::hub::GatewayHub)
//! and serves every device once.

use medsec_protocols::suite::{CurveId, SecurityProfile};

use crate::registry::DeviceId;
use crate::report::FleetReport;

/// One homogeneous slice of a heterogeneous fleet: `devices` devices
/// provisioned at one pyramid point.
#[derive(Debug, Clone, PartialEq)]
pub struct WardSpec {
    /// The profile every device in this ward is provisioned at.
    pub profile: SecurityProfile,
    /// Number of devices in the ward.
    pub devices: usize,
}

impl WardSpec {
    /// A ward of `devices` devices at `profile`.
    pub fn new(profile: SecurityProfile, devices: usize) -> Self {
        Self { profile, devices }
    }
}

/// The canonical heterogeneous hospital: seven wards spanning five
/// curves and four protocols (toy test rigs, symmetric-only sensors,
/// K-163 pacemakers and neurostimulators, B-163 Schnorr staff badges,
/// K-233 monitors, a K-283 uplink tier). One shared definition drives
/// the hub tests, the `mixed_ward` example and the fleet bench, so a
/// ward added here is exercised everywhere. `scale` multiplies every
/// ward (scale 1 = 51 devices).
pub fn mixed_hospital_wards(scale: usize) -> Vec<WardSpec> {
    use medsec_protocols::suite::ProtocolId;
    vec![
        WardSpec::new(
            SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual),
            16 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::Toy17, ProtocolId::Symmetric),
            12 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::K163, ProtocolId::Mutual),
            8 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::K163, ProtocolId::Ph),
            6 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::B163, ProtocolId::Schnorr),
            4 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::K233, ProtocolId::Mutual),
            3 * scale,
        ),
        WardSpec::new(
            SecurityProfile::new(CurveId::K283, ProtocolId::Mutual),
            2 * scale,
        ),
    ]
}

/// Parameters of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of devices to provision when `wards` is empty (the
    /// single-curve fleet with the legacy kind mix). Ignored when
    /// `wards` names explicit profiles.
    pub devices: usize,
    /// Worker threads.
    pub threads: usize,
    /// Session-table shards per curve lane (rounded up to a power of
    /// two).
    pub shards: usize,
    /// Jobs a worker pulls per queue lock.
    pub batch_size: usize,
    /// Curve of the single-curve fleet when `wards` is empty.
    pub curve: CurveId,
    /// Root seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Per-mille of mutual-auth devices that are first probed with a
    /// forged `ServerHello` (the §4 flood scenario); devices must
    /// reject it cheaply before their real session runs.
    pub forged_per_mille: u32,
    /// Heterogeneous fleet composition: one entry per ward, each at
    /// its own [`SecurityProfile`] (mixing curves and protocols
    /// freely). Empty = degenerate single-profile fleet from `curve` +
    /// `devices`.
    pub wards: Vec<WardSpec>,
    /// Record telemetry (per-lane latency histograms, pipeline stage
    /// spans, the forensic event ring) for this run. Off by default:
    /// the disabled serving path pays one branch per hook and never
    /// reads a clock.
    pub observe: bool,
    /// Capacity of the forensic event ring when `observe` is on
    /// (rounded up to a power of two; older events are overwritten and
    /// counted as dropped).
    pub event_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: 256,
            threads: 4,
            shards: 16,
            batch_size: 32,
            curve: CurveId::Toy17,
            seed: 0x5EED_CAFE,
            forged_per_mille: 10,
            wards: Vec::new(),
            observe: false,
            event_capacity: 1024,
        }
    }
}

impl FleetConfig {
    /// Check that the config names at least one device to serve.
    /// [`GatewayHub::provision`](crate::hub::GatewayHub::provision)
    /// panics on a config this rejects, so a config built from input
    /// is validated first.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.wards.is_empty() {
            if self.devices == 0 {
                return Err(FleetConfigError::NoDevices);
            }
        } else if self.wards.iter().all(|w| w.devices == 0) {
            return Err(FleetConfigError::EmptyWards {
                wards: self.wards.len(),
            });
        }
        Ok(())
    }
}

/// Why a [`FleetConfig`] names no servable fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// No wards, and `devices` is zero.
    NoDevices,
    /// A ward list whose wards hold zero devices in total.
    EmptyWards {
        /// Number of (empty) wards in the list.
        wards: usize,
    },
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::NoDevices => {
                write!(f, "fleet needs at least one device (devices = 0, no wards)")
            }
            FleetConfigError::EmptyWards { wards } => write!(
                f,
                "fleet needs at least one device ({wards} wards, 0 devices in total)"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Milliseconds since the Unix epoch, read once per run in cold code
/// (never inside a serving path) so trajectory points are orderable.
pub(crate) fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Run a full fleet simulation as configured.
///
/// Every run — heterogeneous or degenerate single-profile — goes
/// through the curve-erased [`GatewayHub`](crate::hub::GatewayHub):
/// devices advertise their profile in a wire-level Negotiate hello and
/// the hub buckets them into per-curve lanes, each served through the
/// batched `SecuritySuite` entry points.
///
/// # Panics
///
/// If [`FleetConfig::validate`] rejects `cfg`, as
/// [`GatewayHub::provision`](crate::hub::GatewayHub::provision) does.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    crate::hub::GatewayHub::provision(cfg).run(cfg)
}

/// Deterministically mark ~`per_mille`/1000 of devices as forged-hello
/// targets.
pub(crate) fn is_forged_target(id: DeviceId, per_mille: u32) -> bool {
    id.wrapping_mul(2_654_435_761) % 1000 < per_mille
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{server_ledger, with_lane, GatewayHub};
    use crate::registry::{provision_lane, DeviceKind, LaneProvision};
    use medsec_ec::Toy17;
    use medsec_protocols::suite::{
        MutualSuite, ProtocolId, SecuritySuite, SuiteError, SuiteOutcome,
    };
    use medsec_protocols::wire::{self, MsgType};
    use medsec_rng::SplitMix64;

    #[test]
    fn small_fleet_completes_every_session() {
        let cfg = FleetConfig {
            devices: 100,
            threads: 4,
            shards: 8,
            batch_size: 8,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg);
        // ids % 4 ∈ {0,1,3} run mutual auth (75), {2} runs PH (25).
        assert_eq!(report.sessions_ok, 75);
        assert_eq!(report.ph_identified, 25);
        assert_eq!(report.sessions_failed, 0);
        assert_eq!(report.ph_failed, 0);
        assert_eq!(report.frames_ok, 75);
        assert!(report.sessions_per_sec > 0.0);
    }

    #[test]
    fn validate_rejects_zero_device_fleets() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
        let none = FleetConfig {
            devices: 0,
            ..FleetConfig::default()
        };
        assert_eq!(none.validate(), Err(FleetConfigError::NoDevices));
        let empty_wards = FleetConfig {
            devices: 0,
            wards: mixed_hospital_wards(0),
            ..FleetConfig::default()
        };
        assert_eq!(
            empty_wards.validate(),
            Err(FleetConfigError::EmptyWards { wards: 7 })
        );
        // Wards override `devices`: one non-empty ward is enough.
        let wards = FleetConfig {
            devices: 0,
            wards: mixed_hospital_wards(1),
            ..FleetConfig::default()
        };
        assert_eq!(wards.validate(), Ok(()));
    }

    /// One pacemaker (id 0) on a Toy17 lane, with its servers.
    fn pacemaker_lane(seed: u64) -> LaneProvision<Toy17> {
        let profile = SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual);
        provision_lane(
            &[(0, DeviceKind::Pacemaker, profile)],
            4,
            CurveId::Toy17,
            seed,
        )
    }

    #[test]
    fn session_establishment_single_device_round_trip() {
        let LaneProvision {
            mut devices,
            mutual,
            ..
        } = pacemaker_lane(7);
        let d = &mut devices[0];
        assert_eq!(d.profile.kind, DeviceKind::Pacemaker);
        let mut rng = SplitMix64::new(42);
        let mut server_ledger = server_ledger();

        let hello =
            MutualSuite::<Toy17>::hello(&mutual, 0, None, rng.as_fn(), &mut server_ledger).unwrap();
        assert_eq!(mutual.pending().len(), 1);
        let telemetry = d.profile.kind.telemetry();
        let closing = MutualSuite::device_turn(
            &mut d.mutual,
            &hello,
            telemetry,
            d.rng.as_fn(),
            &mut d.ledger,
        )
        .unwrap();
        let outcome = MutualSuite::<Toy17>::server_verify(
            &mutual,
            0,
            &closing,
            rng.as_fn(),
            &mut server_ledger,
        );
        assert_eq!(
            outcome,
            Ok(SuiteOutcome::Established {
                telemetry: telemetry.to_vec()
            })
        );
        // The closing frame closed the session: nothing is kept.
        assert!(mutual.pending().is_empty());
    }

    #[test]
    fn telemetry_is_rejected_without_a_pending_session() {
        let lane = pacemaker_lane(8);
        let bogus = wire::frame(MsgType::Telemetry, &[0u8; 24]);
        let mut rng = SplitMix64::new(44);
        assert_eq!(
            MutualSuite::<Toy17>::server_verify(
                &lane.mutual,
                0,
                &bogus,
                rng.as_fn(),
                &mut server_ledger()
            ),
            Err(SuiteError::NoSession(0))
        );
    }

    #[test]
    fn tampered_telemetry_fails_authentication() {
        let LaneProvision {
            mut devices,
            mutual,
            ..
        } = pacemaker_lane(9);
        let d = &mut devices[0];
        let mut rng = SplitMix64::new(43);
        let mut server_ledger = server_ledger();
        let hello =
            MutualSuite::<Toy17>::hello(&mutual, 0, None, rng.as_fn(), &mut server_ledger).unwrap();
        let closing = MutualSuite::device_turn(
            &mut d.mutual,
            &hello,
            b"hr=200;panic",
            d.rng.as_fn(),
            &mut d.ledger,
        )
        .unwrap();
        // Flip one ciphertext bit: "a modification on the ciphertext
        // may also lead to a corrupted therapy".
        let mut tampered = closing.to_vec();
        let mid = tampered.len() / 2;
        tampered[mid] ^= 0x01;
        assert_eq!(
            MutualSuite::<Toy17>::server_verify(
                &mutual,
                0,
                &tampered,
                rng.as_fn(),
                &mut server_ledger
            ),
            Err(SuiteError::AuthFailed)
        );
    }

    #[test]
    fn no_session_outlives_its_closing_frame() {
        let cfg = FleetConfig {
            devices: 128,
            threads: 2,
            shards: 8,
            forged_per_mille: 0,
            ..FleetConfig::default()
        };
        let hub = GatewayHub::provision(&cfg);
        let report = hub.run(&cfg);
        assert_eq!(report.sessions_completed(), 128);
        assert_eq!(report.shards, 8);
        // Every session closed: no server of any lane keeps state.
        for lane in hub.lanes() {
            with_lane!(lane, l => {
                assert!(l.mutual.pending().is_empty());
                assert!(l.ph.pending().is_empty());
                assert!(l.schnorr.pending().is_empty());
                assert!(l.symmetric.pending().is_empty());
            });
        }
    }

    #[test]
    fn energy_aggregation_matches_protocol_costs() {
        // A 4-device single-thread fleet: 3 mutual (ids 0,1,3) + 1 PH
        // (id 2). Every device pays at least two point multiplications
        // (≈5.1 µJ each) plus radio.
        let cfg = FleetConfig {
            devices: 4,
            threads: 1,
            shards: 4,
            forged_per_mille: 0,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg);
        assert_eq!(report.sessions_completed(), 4);
        let two_ecpm = 2.0 * 5.1e-6;
        assert!(
            report.energy_per_session_j > two_ecpm,
            "session energy {} should exceed two ECPMs",
            report.energy_per_session_j
        );
        assert!(report.energy_per_session_j < 10.0 * two_ecpm);
        assert!(report.device_energy_max_j >= report.energy_per_session_j * 0.5);
        assert!(report.bytes_on_air > 0);
        assert!(report.server_energy_j > 0.0);
        assert!(report.mean_sessions_per_battery > 1.0e6);
    }

    #[test]
    fn forged_hellos_are_rejected_and_do_not_block_service() {
        let cfg = FleetConfig {
            devices: 64,
            threads: 2,
            forged_per_mille: 1000, // every mutual device gets probed
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg);
        // ids % 4 ∈ {0,1,3} → 48 mutual devices, all probed.
        assert_eq!(report.forged_rejected, 48);
        assert_eq!(report.sessions_ok, 48);
        assert_eq!(report.sessions_failed, 0);
    }

    #[test]
    fn k163_fleet_runs_end_to_end() {
        let cfg = FleetConfig {
            devices: 8,
            threads: 2,
            curve: CurveId::K163,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg);
        assert_eq!(report.sessions_completed(), 8);
        assert_eq!(report.sessions_failed + report.ph_failed, 0);
    }
}
