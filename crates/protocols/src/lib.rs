//! Protocol level of the medsec DAC'13 reproduction.
//!
//! Implements the protocols the paper's §4 discusses, with per-party
//! energy ledgers (compute + radio) so that the protocol-level design
//! rules can be measured rather than asserted:
//!
//! * [`peeters_hermans`] — the private identification protocol of
//!   Fig. 2 (two tag-side point multiplications, one modular
//!   multiplication; wide-forward-insider privacy);
//! * [`schnorr`] — Schnorr identification, the PKC baseline that is
//!   "easily traced";
//! * [`symmetric`] — AES-CMAC challenge–response, the secret-key
//!   baseline (cheap compute, no privacy, key-distribution burden);
//! * [`mutual`] — pacemaker↔server mutual authentication with
//!   encrypted/authenticated telemetry and the server-first ordering
//!   rule;
//! * [`privacy`] — the tracking game quantifying location privacy;
//! * [`energy`] — the per-party energy ledger;
//! * [`suite`] — the security-suite seam: every protocol above behind
//!   one profile-negotiated [`suite::SecuritySuite`] lifecycle
//!   (`device_open → hello → device_turn → server_verify`, batched),
//!   so a curve-erased gateway can serve heterogeneous fleets;
//! * [`shard`] — the sharded pending-session table every suite server
//!   keeps its in-flight sessions in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod mutual;
pub mod peeters_hermans;
pub mod privacy;
pub mod schnorr;
pub mod shard;
pub mod suite;
pub mod symmetric;
pub mod wire;

pub use energy::EnergyLedger;
pub use peeters_hermans::{PhReader, PhTag, PhTranscript, TagId};
pub use privacy::{ph_tracking_game, schnorr_tracking_game, symmetric_tracking_game, GameResult};
pub use schnorr::{
    extract_public_key, schnorr_verify, schnorr_verify_batch, SchnorrTag, SchnorrTranscript,
};
pub use shard::PendingTable;
pub use suite::{
    CountermeasureLevel, CurveId, MutualServer, MutualSuite, PhServer, PhSuite, ProtocolId,
    SchnorrSuite, SchnorrVerifier, SecurityProfile, SecuritySuite, SuiteError, SuiteOutcome,
    SymmetricGate, SymmetricSuite,
};
pub use symmetric::{SymmetricDevice, SymmetricServer, SymmetricTranscript};
