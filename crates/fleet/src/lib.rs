//! # medsec-fleet — the hospital gateway serving layer
//!
//! The DAC'13 paper co-designs one implant's security stack; this crate
//! turns that single-session stack into a throughput-oriented serving
//! layer: a hospital **gateway** authenticating and collecting telemetry
//! from a large fleet of simulated implants (the e-SAFE deployment
//! shape: devices never talk to the open network, only to a gateway
//! that mediates access).
//!
//! Architecture:
//!
//! * [`registry`] — provisions each curve lane: devices (pacemakers,
//!   neurostimulators, ward sensors, staff badges), each with its keys,
//!   its one protocol's state machine and an energy ledger, plus the
//!   four `SecuritySuite` servers that serve them;
//! * [`hub`] — the curve-erased [`GatewayHub`]: devices negotiate
//!   their `SecurityProfile` on the wire and are bucketed into
//!   enum-dispatched per-curve lanes, and every protocol is served by
//!   one generic wave over the lane's suite servers, in the suite
//!   lifecycle's explicit device and server phases;
//! * [`scheduler`] — the lane-affine work-stealing [`LaneScheduler`]:
//!   per-lane chunked work queues with cache-padded lock-free chunk
//!   cursors, workers pinned to a home lane and stealing whole chunks
//!   across lanes once it drains, so batches never mix curve lanes and
//!   big lanes keep every core busy;
//! * [`sim`] — the fleet configuration (a list of wards, each at one
//!   `SecurityProfile`) and the one-call [`run_fleet`] driver;
//! * [`streaming`] — the byte-oriented wire front end: each device's
//!   traffic arrives as arbitrarily split/coalesced byte chunks, is
//!   reassembled by `medsec-ingest` connection state machines, passes
//!   token-bucket admission per device class, and is queued into
//!   bounded per-lane batch queues (shedding with a typed `Reject`
//!   frame at the high-water mark) before the lane scheduler serves
//!   the admitted batches through the same waves;
//! * [`report`] — the aggregated [`FleetReport`]: throughput, energy
//!   per session, failure counts.
//!
//! Every over-the-air message is framed with `medsec_protocols::wire`,
//! every joule is booked on a per-device [`medsec_protocols::EnergyLedger`],
//! and in-flight session state lives in the suite servers' sharded
//! pending tables — removed the moment a session's closing frame
//! arrives.
//!
//! ```
//! use medsec_fleet::{run_fleet, FleetConfig, WardSpec};
//! use medsec_protocols::suite::{CurveId, ProtocolId, SecurityProfile};
//!
//! let report = run_fleet(&FleetConfig {
//!     threads: 2,
//!     wards: vec![
//!         WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual), 48),
//!         WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Ph), 16),
//!     ],
//!     ..FleetConfig::default()
//! });
//! assert_eq!(report.sessions_ok + report.ph_identified, 64);
//! assert!(report.device_energy_total_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod registry;
pub mod report;
pub mod scheduler;
pub mod sim;
pub mod streaming;
mod telemetry;

pub use hub::{admit_negotiate, CurveLane, GatewayHub, Lane};
pub use registry::{provision_lane, DeviceId, DeviceKind, DeviceProfile, DeviceState, FleetDevice};
pub use report::{FleetReport, ProfileStats};
pub use scheduler::{LaneBatch, LaneScheduler, LaneWorker, StealStats};
pub use sim::{mixed_hospital_wards, run_fleet, FleetConfig, FleetConfigError, WardSpec};
pub use streaming::{
    device_class, Arrival, ClassPolicy, StreamingConfig, StreamingOutcome, StreamingStats,
    DEVICE_CLASSES,
};
