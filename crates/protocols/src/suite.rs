//! The security-suite seam: the paper's *security as a design
//! dimension* thesis turned into an API.
//!
//! A hospital does not run one protocol at one curve strength — it
//! picks a point on the energy/security pyramid **per device class**
//! (§3): a ward full of disposable sensors authenticates symmetrically,
//! a pacemaker runs mutual authentication on K-163, a
//! privacy-sensitive neurostimulator runs Peeters–Hermans, a
//! gateway-of-gateways pays for K-283. [`SecurityProfile`] names such a
//! point (curve × protocol × countermeasure level × energy budget) and
//! [`SecuritySuite`] gives every protocol the same session lifecycle:
//!
//! ```text
//! device_open (commit-first protocols)   device ──▶ server
//! hello / hello_batch                    server ──▶ device
//! device_turn                            device ──▶ server
//! server_verify / server_verify_batch    server decides
//! ```
//!
//! The `*_batch` entry points preserve the serving-side fast paths:
//! one fixed-base-comb batch per hello wave, one inversion per batch
//! of ECDH normalizations, and one lockstep-ladder `mul_add` batch for
//! every wave of verification equations. Profile selection is carried
//! on the wire by the versioned [`wire::MsgType::Negotiate`] frame, so
//! a curve-erased gateway can bucket heterogeneous fleets without
//! out-of-band configuration.

use std::collections::HashMap;

use bytes::Bytes;
use medsec_ec::{varbase_x_batch_with, CurveSpec, KeyPair, Point, Scalar, XAffineScratch};
use medsec_lwc::{Aes128, BlockCipher};

use crate::energy::EnergyLedger;
use crate::mutual::{self, open_telemetry, Pairing, SessionOutcome};
use crate::peeters_hermans::{PhReader, PhTag, PhTranscript, TagId};
use crate::schnorr::{schnorr_verify_batch, SchnorrTag, SchnorrTranscript};
use crate::shard::PendingTable;
use crate::symmetric::{SymmetricDevice, SymmetricServer, SymmetricTranscript};
use crate::wire::{self, DecodeError, MsgType, NegotiateFrame, NEGOTIATE_VERSION};

/// Fleet-wide device identifier as the suite layer sees it.
pub type SuiteDeviceId = u32;

/// Wire-decoded telemetry-frame pieces:
/// `(result slot, device id, ephemeral bytes, ciphertext, tag)`.
type TelemetryPieces<'a> = (usize, SuiteDeviceId, &'a [u8], &'a [u8], &'a [u8]);

/// Per-device pending sigma-protocol state: commitment `R` and
/// challenge `e`.
type SigmaPending<C> = PendingTable<(Point<C>, Scalar<C>)>;

/// Whether `p` is the order-2 point (0, √b). It decompresses from the
/// wire, but an honest ephemeral or commitment `r·G` lies in the
/// odd-order subgroup and never has x = 0, and the x-only ladder
/// cannot take it as a base, so the servers refuse it before any point
/// multiplication.
fn has_zero_x<C: CurveSpec>(p: &Point<C>) -> bool {
    p.x().is_some_and(|x| x.is_zero())
}

/// The server's half of a sigma-protocol hello wave: decode every
/// device's `PhCommit` frame and answer each valid commitment with the
/// challenge frame `challenge` returns for it.
///
/// Every frame is deframed first, then every payload decompresses in
/// one `Point::decompress_batch`, so the wave shares one field
/// inversion instead of paying one per device. Answers then go out in
/// wave order, booking the ledger and calling `challenge` exactly as
/// one `wire::decode_point` per device did: a device's received bytes
/// are booked unless its id is unknown or it sent nothing, and its
/// error is `UnknownDevice`, else a decode error (`Malformed` when the
/// point does not decompress), else `BadEphemeral` for the x = 0 point.
fn commitment_wave<C: CurveSpec>(
    opens: &[(SuiteDeviceId, Option<&[u8]>)],
    known: impl Fn(SuiteDeviceId) -> bool,
    ledger: &mut EnergyLedger,
    mut challenge: impl FnMut(SuiteDeviceId, Point<C>) -> Bytes,
) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
    let framed: Vec<Result<&[u8], SuiteError>> = opens
        .iter()
        .map(|&(id, open)| {
            if !known(id) {
                return Err(SuiteError::UnknownDevice(id));
            }
            let bytes = open.ok_or(SuiteError::Decode(DecodeError::Malformed))?;
            Ok(wire::point_payload(MsgType::PhCommit, bytes)?)
        })
        .collect();
    let payloads: Vec<&[u8]> = framed
        .iter()
        .filter_map(|f| f.as_ref().ok().copied())
        .collect();
    let mut points = Point::<C>::decompress_batch(&payloads).into_iter();
    opens
        .iter()
        .zip(framed)
        .map(|(&(id, open), payload)| {
            let r = (|| {
                if let (true, Some(bytes)) = (known(id), open) {
                    ledger.rx(bytes.len());
                }
                payload?;
                let commitment = points
                    .next()
                    .expect("one decoding per payload")
                    .ok_or(SuiteError::Decode(DecodeError::Malformed))?;
                if has_zero_x(&commitment) {
                    return Err(SuiteError::BadEphemeral);
                }
                let frame = challenge(id, commitment);
                ledger.tx(frame.len());
                Ok(frame)
            })();
            (id, r)
        })
        .collect()
}

/// Which curve a profile's co-processor is configured for (wire id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CurveId {
    /// 17-bit toy curve (test rigs, functional fleets).
    #[default]
    Toy17 = 0x1,
    /// B-163 random curve.
    B163 = 0x2,
    /// K-163 Koblitz curve — the paper's design point.
    K163 = 0x3,
    /// K-233 Koblitz curve.
    K233 = 0x4,
    /// K-283 Koblitz curve.
    K283 = 0x5,
}

impl CurveId {
    /// Every curve id, in wire order.
    pub const ALL: [CurveId; 5] = [
        CurveId::Toy17,
        CurveId::B163,
        CurveId::K163,
        CurveId::K233,
        CurveId::K283,
    ];

    /// Parse a wire byte; unknown bytes are rejected.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x1 => CurveId::Toy17,
            0x2 => CurveId::B163,
            0x3 => CurveId::K163,
            0x4 => CurveId::K233,
            0x5 => CurveId::K283,
            _ => return None,
        })
    }

    /// Human-readable curve name.
    pub fn name(&self) -> &'static str {
        match self {
            CurveId::Toy17 => "Toy17",
            CurveId::B163 => "B163",
            CurveId::K163 => "K163",
            CurveId::K233 => "K233",
            CurveId::K283 => "K283",
        }
    }
}

/// Which protocol a profile speaks (wire id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ProtocolId {
    /// AES-CMAC challenge–response (cheap, no privacy, key burden).
    Symmetric = 0x1,
    /// Mutual authentication + encrypted telemetry (pacemaker shape).
    Mutual = 0x2,
    /// Schnorr identification (PKC, "easily traced").
    Schnorr = 0x3,
    /// Peeters–Hermans private identification.
    Ph = 0x4,
}

impl ProtocolId {
    /// Every protocol id, in wire order.
    pub const ALL: [ProtocolId; 4] = [
        ProtocolId::Symmetric,
        ProtocolId::Mutual,
        ProtocolId::Schnorr,
        ProtocolId::Ph,
    ];

    /// Parse a wire byte; unknown bytes are rejected.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x1 => ProtocolId::Symmetric,
            0x2 => ProtocolId::Mutual,
            0x3 => ProtocolId::Schnorr,
            0x4 => ProtocolId::Ph,
            _ => return None,
        })
    }

    /// Human-readable protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolId::Symmetric => "symmetric",
            ProtocolId::Mutual => "mutual",
            ProtocolId::Schnorr => "schnorr",
            ProtocolId::Ph => "ph",
        }
    }
}

/// How much of the paper's countermeasure pyramid a profile applies
/// (§3: "skipping a countermeasure means opening the door for a
/// possible attack").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CountermeasureLevel {
    /// Nothing beyond functional correctness (toy test rigs only).
    Unprotected,
    /// Constant-time/constant-flow execution (timing analysis closed).
    ConstantTime,
    /// + Montgomery-ladder SPA hardening.
    SpaHardened,
    /// + randomized projective coordinates (the full paper chip).
    DpaHardened,
}

impl CountermeasureLevel {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CountermeasureLevel::Unprotected => "unprotected",
            CountermeasureLevel::ConstantTime => "constant-time",
            CountermeasureLevel::SpaHardened => "spa-hardened",
            CountermeasureLevel::DpaHardened => "dpa-hardened",
        }
    }
}

/// One point on the paper's energy/security pyramid: what a device
/// class runs, on which curve, how hardened, and the per-session
/// device-energy budget the deployment planned for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityProfile {
    /// Curve the co-processor is configured for (ignored by the
    /// symmetric protocol, still part of the profile identity).
    pub curve: CurveId,
    /// Protocol the device speaks.
    pub protocol: ProtocolId,
    /// Countermeasure level applied on the device.
    pub countermeasures: CountermeasureLevel,
    /// Planned device-side energy per session, joules. Reports compare
    /// measured energy against it.
    pub energy_budget_j: f64,
}

impl SecurityProfile {
    /// The canonical profile for a (curve, protocol) pyramid point:
    /// countermeasure level and energy budget follow the paper's
    /// defaults (toy rigs unprotected, symmetric devices constant-time,
    /// every PKC implant DPA-hardened like the paper chip).
    pub fn new(curve: CurveId, protocol: ProtocolId) -> Self {
        let countermeasures = if protocol == ProtocolId::Symmetric {
            CountermeasureLevel::ConstantTime
        } else if curve == CurveId::Toy17 {
            CountermeasureLevel::Unprotected
        } else {
            CountermeasureLevel::DpaHardened
        };
        Self {
            curve,
            protocol,
            countermeasures,
            energy_budget_j: default_budget(curve, protocol),
        }
    }

    /// Profile id on the wire: curve nibble ‖ protocol nibble. The
    /// redundancy against the explicit curve/protocol bytes of the
    /// Negotiate frame is deliberate — an inconsistent frame is
    /// rejected instead of trusted.
    pub fn id(&self) -> u8 {
        ((self.curve as u8) << 4) | self.protocol as u8
    }

    /// Resolve a wire profile id back to its canonical profile.
    pub fn from_id(id: u8) -> Option<Self> {
        let curve = CurveId::from_u8(id >> 4)?;
        let protocol = ProtocolId::from_u8(id & 0x0F)?;
        Some(Self::new(curve, protocol))
    }

    /// Override the countermeasure level (e.g. an explicitly
    /// down-graded ward).
    pub fn with_countermeasures(mut self, level: CountermeasureLevel) -> Self {
        self.countermeasures = level;
        self
    }

    /// Override the per-session energy budget.
    pub fn with_budget(mut self, budget_j: f64) -> Self {
        self.energy_budget_j = budget_j;
        self
    }

    /// Report name, e.g. `mutual@K163`.
    pub fn name(&self) -> String {
        format!("{}@{}", self.protocol.name(), self.curve.name())
    }

    /// The device's Negotiate hello frame advertising this profile.
    pub fn negotiate_frame(&self) -> Bytes {
        wire::encode_negotiate(self.id(), self.curve, self.protocol)
    }

    /// Accept a decoded Negotiate frame only if it is self-consistent:
    /// the profile id must resolve and its curve/protocol must match
    /// the frame's explicit bytes (reject-on-unknown *and*
    /// reject-on-inconsistent).
    pub fn from_negotiate(frame: &NegotiateFrame) -> Option<Self> {
        if frame.version != NEGOTIATE_VERSION {
            return None;
        }
        let profile = Self::from_id(frame.profile)?;
        (profile.curve == frame.curve && profile.protocol == frame.protocol).then_some(profile)
    }
}

/// Default per-session device-energy budget (J) for a pyramid point —
/// generous envelopes around the measured §6 costs (2 ECPM ≈ 10.2 µJ
/// plus radio), scaled with field size.
fn default_budget(curve: CurveId, protocol: ProtocolId) -> f64 {
    if protocol == ProtocolId::Symmetric {
        return 3.0e-5;
    }
    match curve {
        CurveId::Toy17 => 8.0e-5,
        CurveId::B163 | CurveId::K163 => 1.2e-4,
        CurveId::K233 => 1.6e-4,
        CurveId::K283 => 2.0e-4,
    }
}

/// Why a suite rejected a message or a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// The frame failed wire decoding.
    Decode(DecodeError),
    /// The device id was never provisioned with this server.
    UnknownDevice(SuiteDeviceId),
    /// No session state pending for this device.
    NoSession(SuiteDeviceId),
    /// An ephemeral/commitment point was invalid.
    BadEphemeral,
    /// Authentication failed (MAC mismatch, verification equation
    /// false, or the transcript matched no registered tag).
    AuthFailed,
    /// The device rejected the server's hello.
    ServerRejected,
    /// The Negotiate frame was unknown, unsupported or inconsistent.
    Negotiation,
}

impl core::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SuiteError::Decode(e) => write!(f, "wire decode failed: {e}"),
            SuiteError::UnknownDevice(id) => write!(f, "unknown device {id}"),
            SuiteError::NoSession(id) => write!(f, "no pending session for device {id}"),
            SuiteError::BadEphemeral => write!(f, "invalid ephemeral or commitment point"),
            SuiteError::AuthFailed => write!(f, "verification failed"),
            SuiteError::ServerRejected => write!(f, "device rejected the server hello"),
            SuiteError::Negotiation => write!(f, "negotiation frame rejected"),
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<DecodeError> for SuiteError {
    fn from(e: DecodeError) -> Self {
        SuiteError::Decode(e)
    }
}

/// What a successful `server_verify` established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteOutcome {
    /// Mutual authentication completed; the decrypted telemetry.
    Established {
        /// Verified, decrypted telemetry plaintext.
        telemetry: Vec<u8>,
    },
    /// Peeters–Hermans identified the tag.
    Identified(TagId),
    /// Challenge–response authentication succeeded (symmetric or
    /// Schnorr — no telemetry channel, no private identity).
    Authenticated,
}

/// One uniform session lifecycle over every protocol in the workspace.
///
/// Implementations own the *server* state shape (pairing stores,
/// pending challenges, tag databases) behind the `Server` associated
/// type and keep the device state machines of the underlying protocol
/// modules as `Device`. The batch entry points are the serving-side
/// hot path: they must preserve the one-inversion-per-batch and
/// fixed-base-comb/lockstep-ladder `mul_add` contracts of the
/// monomorphized protocol code — `suite_equivalence.rs` pins each
/// implementation byte-identical to its pre-suite entry points.
pub trait SecuritySuite {
    /// Device-side protocol state.
    type Device;
    /// Server-side protocol state (shared by reference; in-flight
    /// sessions live in a sharded [`PendingTable`] from hello to
    /// closing frame, so one server serves every worker thread).
    type Server;

    /// The protocol this suite speaks on the wire.
    const PROTOCOL: ProtocolId;

    /// The device's opening frame — `Some` for commit-first protocols
    /// (Schnorr, Peeters–Hermans), `None` where the server speaks
    /// first (symmetric nonce, mutual `ServerHello`).
    fn device_open(
        device: &mut Self::Device,
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Option<Bytes>;

    /// The server's hello for a whole wave of devices, given each
    /// device's opening frame. Entry `i` of the result corresponds to
    /// `opens[i]`. The server keys the session's pending state by
    /// device id, so an id belongs in at most one entry of a wave: a
    /// second hello to the same device replaces the first.
    fn hello_batch(
        server: &Self::Server,
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)>;

    /// The device's main turn: consume the server's hello frame and
    /// produce the closing frame. `telemetry` is the uplink payload
    /// for protocols that carry one (ignored elsewhere).
    fn device_turn(
        device: &mut Self::Device,
        hello: &[u8],
        telemetry: &[u8],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError>;

    /// The server's verification of a whole wave of closing frames,
    /// with caller-owned normalization scratch: serving workers thread
    /// their per-thread [`XAffineScratch`] through here so the batched
    /// inversion and `x·Z⁻¹` plane buffers are reused across waves
    /// instead of reallocated per batch. Entry `i` of the result
    /// corresponds to `frames[i]`.
    fn server_verify_batch_with(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
        ec: &mut XAffineScratch,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)>;

    /// [`server_verify_batch_with`](Self::server_verify_batch_with)
    /// with a fresh scratch.
    fn server_verify_batch(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> {
        Self::server_verify_batch_with(
            server,
            frames,
            next_u64,
            ledger,
            &mut XAffineScratch::default(),
        )
    }

    /// Single-device hello (degenerate batch).
    fn hello(
        server: &Self::Server,
        id: SuiteDeviceId,
        open: Option<&[u8]>,
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError> {
        Self::hello_batch(server, &[(id, open)], next_u64, ledger)
            .pop()
            .expect("one result per input")
            .1
    }

    /// Single-frame verification (degenerate batch).
    fn server_verify(
        server: &Self::Server,
        id: SuiteDeviceId,
        frame: &[u8],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<SuiteOutcome, SuiteError> {
        Self::server_verify_batch(server, &[(id, frame)], next_u64, ledger)
            .pop()
            .expect("one result per input")
            .1
    }

    /// Drive one complete session through the lifecycle — the
    /// single-device reference flow (tests, examples). `next_u64` is
    /// shared between both parties exactly like the pre-suite
    /// `run_session` helpers, so transcripts are comparable.
    fn run_session(
        device: &mut Self::Device,
        server: &Self::Server,
        id: SuiteDeviceId,
        telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        device_ledger: &mut EnergyLedger,
        server_ledger: &mut EnergyLedger,
    ) -> Result<SuiteOutcome, SuiteError> {
        let open = Self::device_open(device, &mut next_u64, device_ledger);
        let hello = Self::hello(server, id, open.as_deref(), &mut next_u64, server_ledger)?;
        let closing = Self::device_turn(device, &hello, telemetry, &mut next_u64, device_ledger)?;
        Self::server_verify(server, id, &closing, &mut next_u64, server_ledger)
    }
}

// ---------------------------------------------------------------------------
// Symmetric
// ---------------------------------------------------------------------------

/// Server state for [`SymmetricSuite`]: the key table plus the nonce
/// issued to each in-flight session, so a response only verifies
/// against the challenge this server actually sent — replays and
/// unsolicited transcripts fail with `NoSession`/`AuthFailed` exactly
/// like the other suites, even though the underlying
/// [`SymmetricServer::verify`] is stateless.
#[derive(Debug)]
pub struct SymmetricGate {
    server: SymmetricServer,
    pending: PendingTable<[u8; 8]>,
}

impl SymmetricGate {
    /// Wrap a provisioned key table (one pending-table shard).
    pub fn new(server: SymmetricServer) -> Self {
        Self::with_shards(server, 1)
    }

    /// Wrap a provisioned key table, sharding the pending nonces over
    /// `shards` locks (rounded up to a power of two).
    pub fn with_shards(server: SymmetricServer, shards: usize) -> Self {
        Self {
            server,
            pending: PendingTable::new(shards),
        }
    }

    /// The in-flight sessions.
    pub fn pending(&self) -> &PendingTable<[u8; 8]> {
        &self.pending
    }

    /// The wrapped key table.
    pub fn server(&self) -> &SymmetricServer {
        &self.server
    }
}

/// AES-CMAC challenge–response behind the suite lifecycle.
///
/// `hello` is the server's 8-byte nonce; the closing frame carries the
/// full [`SymmetricTranscript`] (the stable device id necessarily in
/// the clear — the privacy cost the paper attributes to symmetric-only
/// designs).
pub struct SymmetricSuite;

/// Wire layout of a symmetric response payload.
const SYM_RESPONSE_LEN: usize = 4 + 8 + 8 + 16;

impl SecuritySuite for SymmetricSuite {
    type Device = SymmetricDevice;
    type Server = SymmetricGate;

    const PROTOCOL: ProtocolId = ProtocolId::Symmetric;

    fn device_open(
        _device: &mut Self::Device,
        _next_u64: impl FnMut() -> u64,
        _ledger: &mut EnergyLedger,
    ) -> Option<Bytes> {
        None
    }

    fn hello_batch(
        server: &Self::Server,
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
        opens
            .iter()
            .map(|&(id, _)| {
                let nonce = server.server.challenge(&mut next_u64);
                server.pending.insert(id, nonce);
                let frame = wire::frame(MsgType::SymChallenge, &nonce);
                ledger.tx(frame.len());
                (id, Ok(frame))
            })
            .collect()
    }

    fn device_turn(
        device: &mut Self::Device,
        hello: &[u8],
        _telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError> {
        let payload = match wire::deframe(hello)? {
            (MsgType::SymChallenge, payload) if payload.len() == 8 => payload,
            _ => return Err(SuiteError::Decode(DecodeError::Malformed)),
        };
        let nonce: [u8; 8] = payload.try_into().expect("8 bytes");
        let t = device.respond(nonce, &mut next_u64, ledger);
        let mut buf = [0u8; SYM_RESPONSE_LEN];
        buf[..4].copy_from_slice(&t.device_id.to_be_bytes());
        buf[4..12].copy_from_slice(&t.server_nonce);
        buf[12..20].copy_from_slice(&t.device_nonce);
        buf[20..].copy_from_slice(&t.mac);
        Ok(wire::frame(MsgType::SymResponse, &buf))
    }

    fn server_verify_batch_with(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        _next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
        _ec: &mut XAffineScratch,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> {
        frames
            .iter()
            .map(|&(id, bytes)| {
                ledger.rx(bytes.len());
                let verdict = (|| {
                    let payload = match wire::deframe(bytes)? {
                        (MsgType::SymResponse, payload) if payload.len() == SYM_RESPONSE_LEN => {
                            payload
                        }
                        _ => return Err(SuiteError::Decode(DecodeError::Malformed)),
                    };
                    let t = SymmetricTranscript {
                        device_id: u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")),
                        server_nonce: payload[4..12].try_into().expect("8 bytes"),
                        device_nonce: payload[12..20].try_into().expect("8 bytes"),
                        mac: payload[20..].try_into().expect("16 bytes"),
                    };
                    // The response must answer the challenge *this*
                    // server issued for this id — a replayed or
                    // unsolicited transcript has no pending nonce.
                    let issued = server.pending.remove(id).ok_or(SuiteError::NoSession(id))?;
                    if t.device_id != id || t.server_nonce != issued {
                        return Err(SuiteError::AuthFailed);
                    }
                    if server.server.verify(&t) {
                        Ok(SuiteOutcome::Authenticated)
                    } else {
                        Err(SuiteError::AuthFailed)
                    }
                })();
                (id, verdict)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Mutual authentication + telemetry
// ---------------------------------------------------------------------------

/// Server state for [`MutualSuite`]: the pairing-key store and the
/// pending ephemeral of each in-flight session.
#[derive(Debug)]
pub struct MutualServer<C: CurveSpec> {
    pairings: HashMap<SuiteDeviceId, Pairing>,
    pending: PendingTable<KeyPair<C>>,
}

impl<C: CurveSpec> MutualServer<C> {
    /// Build a server from provisioning output (one pending-table
    /// shard).
    pub fn new(pairings: Vec<(SuiteDeviceId, Pairing)>) -> Self {
        Self::with_shards(pairings, 1)
    }

    /// Build a server from provisioning output, sharding the pending
    /// ephemerals over `shards` locks (rounded up to a power of two).
    pub fn with_shards(pairings: Vec<(SuiteDeviceId, Pairing)>, shards: usize) -> Self {
        Self {
            pairings: pairings.into_iter().collect(),
            pending: PendingTable::new(shards),
        }
    }

    /// The in-flight sessions.
    pub fn pending(&self) -> &PendingTable<KeyPair<C>> {
        &self.pending
    }
}

/// Pacemaker-shape mutual authentication behind the suite lifecycle:
/// `hello` is the authenticated ECDH ephemeral (batched through one
/// fixed-base-comb pass), the device turn is the encrypted telemetry
/// frame, and verification runs every shared secret through one
/// variable-base engine batch normalized by a single inversion.
pub struct MutualSuite<C: CurveSpec>(core::marker::PhantomData<C>);

impl<C: CurveSpec> SecuritySuite for MutualSuite<C> {
    type Device = mutual::Device<C>;
    type Server = MutualServer<C>;

    const PROTOCOL: ProtocolId = ProtocolId::Mutual;

    fn device_open(
        _device: &mut Self::Device,
        _next_u64: impl FnMut() -> u64,
        _ledger: &mut EnergyLedger,
    ) -> Option<Bytes> {
        None
    }

    fn hello_batch(
        server: &Self::Server,
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
        // One comb batch for every known device; unknown ids answered
        // without burning a key pair.
        let mut results: Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> = opens
            .iter()
            .map(|&(id, _)| (id, Err(SuiteError::UnknownDevice(id))))
            .collect();
        let mut known: Vec<usize> = Vec::with_capacity(opens.len());
        let mut pairing_refs: Vec<&Pairing> = Vec::with_capacity(opens.len());
        for (i, &(id, _)) in opens.iter().enumerate() {
            if let Some(p) = server.pairings.get(&id) {
                known.push(i);
                pairing_refs.push(p);
            }
        }
        let hellos = mutual::server_hello_batch::<C>(&pairing_refs, &mut next_u64);
        for (i, (kp, hello, eph_bytes)) in known.into_iter().zip(hellos) {
            // The ephemeral's point multiplication, then the hello MAC
            // (three AES blocks of CMAC over the compressed point).
            ledger.point_mul();
            ledger.symmetric(&Aes128::hw_profile(), 3);
            let frame = wire::encode_server_hello_payload::<C>(&eph_bytes, &hello.mac);
            ledger.tx(frame.len());
            server.pending.insert(opens[i].0, kp);
            results[i].1 = Ok(frame);
        }
        results
    }

    fn device_turn(
        device: &mut Self::Device,
        hello: &[u8],
        telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError> {
        let payload = match wire::deframe(hello)? {
            (MsgType::ServerHello, payload) => payload,
            _ => return Err(SuiteError::Decode(DecodeError::Malformed)),
        };
        match device.run_session_frame(payload, telemetry, &mut next_u64, ledger) {
            SessionOutcome::Established { telemetry_frame } => {
                Ok(wire::frame(MsgType::Telemetry, &telemetry_frame))
            }
            SessionOutcome::ServerRejected => Err(SuiteError::ServerRejected),
        }
    }

    fn server_verify_batch_with(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
        ec: &mut XAffineScratch,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> {
        let mut results: Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> = frames
            .iter()
            .map(|&(id, _)| (id, Err(SuiteError::NoSession(id))))
            .collect();

        // Wire decoding first, no ECC.
        let plen = Point::<C>::compressed_len();
        let mut framed: Vec<TelemetryPieces<'_>> = Vec::with_capacity(frames.len());
        for (i, &(id, bytes)) in frames.iter().enumerate() {
            ledger.rx(bytes.len());
            let payload = match wire::deframe(bytes) {
                Ok((MsgType::Telemetry, payload)) if payload.len() >= plen + 16 => payload,
                Ok(_) => {
                    results[i].1 = Err(SuiteError::Decode(DecodeError::Malformed));
                    continue;
                }
                Err(e) => {
                    results[i].1 = Err(e.into());
                    continue;
                }
            };
            let (eph_bytes, rest) = payload.split_at(plen);
            let (ct, tag) = rest.split_at(rest.len() - 16);
            framed.push((i, id, eph_bytes, ct, tag));
        }

        // All device ephemerals decompress through one shared inversion.
        let encodings: Vec<&[u8]> = framed.iter().map(|f| f.2).collect();
        let points = Point::<C>::decompress_batch(&encodings);

        // Pull pending ephemerals, then one variable-base engine batch
        // for every live ECDH, one inversion for the normalization.
        let mut live: Vec<TelemetryPieces<'_>> = Vec::with_capacity(framed.len());
        let mut items: Vec<(Scalar<C>, Point<C>)> = Vec::with_capacity(framed.len());
        for ((i, id, eph_bytes, ct, tag), eph) in framed.into_iter().zip(points) {
            let Some(eph) = eph else {
                results[i].1 = Err(SuiteError::BadEphemeral);
                continue;
            };
            if eph.is_infinity() {
                results[i].1 = Err(SuiteError::BadEphemeral);
                continue;
            }
            let Some(server_eph) = server.pending.remove(id) else {
                continue; // stays NoSession
            };
            // Like a failed MAC, this closes the session it answers.
            if has_zero_x(&eph) {
                results[i].1 = Err(SuiteError::BadEphemeral);
                continue;
            }
            ledger.point_mul();
            items.push((*server_eph.secret(), eph));
            live.push((i, id, eph_bytes, ct, tag));
        }
        let mut shared_xs = Vec::with_capacity(items.len());
        varbase_x_batch_with(&items, next_u64, ec, &mut shared_xs);

        for ((i, _, eph_bytes, ct, tag), shared) in live.into_iter().zip(shared_xs) {
            let Some(shared) = shared else {
                results[i].1 = Err(SuiteError::BadEphemeral);
                continue;
            };
            results[i].1 = match open_telemetry::<C>(&shared, eph_bytes, ct, tag, ledger) {
                Some((_key, telemetry)) => Ok(SuiteOutcome::Established { telemetry }),
                None => Err(SuiteError::AuthFailed),
            };
        }
        results
    }
}

// ---------------------------------------------------------------------------
// Schnorr
// ---------------------------------------------------------------------------

/// Server state for [`SchnorrSuite`]: registered tag public keys and
/// the pending `(R, e)` of each in-flight identification.
#[derive(Debug)]
pub struct SchnorrVerifier<C: CurveSpec> {
    publics: HashMap<SuiteDeviceId, Point<C>>,
    pending: SigmaPending<C>,
}

impl<C: CurveSpec> SchnorrVerifier<C> {
    /// Empty verifier (one pending-table shard).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Empty verifier sharding the pending `(R, e)` over `shards`
    /// locks (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            publics: HashMap::new(),
            pending: PendingTable::new(shards),
        }
    }

    /// The in-flight identifications.
    pub fn pending(&self) -> &SigmaPending<C> {
        &self.pending
    }

    /// Register a tag's long-term public key.
    pub fn register(&mut self, id: SuiteDeviceId, public: Point<C>) {
        self.publics.insert(id, public);
    }

    /// Number of registered tags.
    pub fn len(&self) -> usize {
        self.publics.len()
    }

    /// Whether no tag is registered.
    pub fn is_empty(&self) -> bool {
        self.publics.is_empty()
    }
}

impl<C: CurveSpec> Default for SchnorrVerifier<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Schnorr identification behind the suite lifecycle. The commitment
/// rides the generic sigma-protocol frame types (`PhCommit` /
/// `PhChallenge` / `PhResponse` — the Negotiate frame already named
/// the protocol, so the tags are shared across sigma protocols), and
/// batch verification runs every `s·P − e·X` through one interleaved
/// `mul_add` engine pass.
pub struct SchnorrSuite<C: CurveSpec>(core::marker::PhantomData<C>);

impl<C: CurveSpec> SecuritySuite for SchnorrSuite<C> {
    type Device = SchnorrTag<C>;
    type Server = SchnorrVerifier<C>;

    const PROTOCOL: ProtocolId = ProtocolId::Schnorr;

    fn device_open(
        device: &mut Self::Device,
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Option<Bytes> {
        let commitment = device.commit(&mut next_u64, ledger);
        Some(wire::encode_point(MsgType::PhCommit, &commitment))
    }

    fn hello_batch(
        server: &Self::Server,
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
        let known = |id| server.publics.contains_key(&id);
        commitment_wave::<C>(opens, known, ledger, |id, commitment| {
            let challenge = Scalar::<C>::random_nonzero(&mut next_u64);
            server.pending.insert(id, (commitment, challenge));
            wire::encode_scalar(MsgType::PhChallenge, &challenge)
        })
    }

    fn device_turn(
        device: &mut Self::Device,
        hello: &[u8],
        _telemetry: &[u8],
        _next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError> {
        let challenge = wire::decode_scalar::<C>(MsgType::PhChallenge, hello)?;
        let response = device.respond(&challenge, ledger);
        Ok(wire::encode_scalar(MsgType::PhResponse, &response))
    }

    fn server_verify_batch_with(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
        _ec: &mut XAffineScratch,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> {
        let mut results: Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> = frames
            .iter()
            .map(|&(id, _)| (id, Err(SuiteError::NoSession(id))))
            .collect();

        // Decode + pull pending state; the expensive verification
        // equations then run as one batch.
        let mut live: Vec<usize> = Vec::with_capacity(frames.len());
        let mut items: Vec<(SchnorrTranscript<C>, Point<C>)> = Vec::with_capacity(frames.len());
        for (i, &(id, bytes)) in frames.iter().enumerate() {
            ledger.rx(bytes.len());
            let response = match wire::decode_scalar::<C>(MsgType::PhResponse, bytes) {
                Ok(s) => s,
                Err(e) => {
                    results[i].1 = Err(e.into());
                    continue;
                }
            };
            let Some((commitment, challenge)) = server.pending.remove(id) else {
                continue; // stays NoSession
            };
            let Some(public) = server.publics.get(&id) else {
                results[i].1 = Err(SuiteError::UnknownDevice(id));
                continue;
            };
            items.push((
                SchnorrTranscript {
                    commitment,
                    challenge,
                    response,
                },
                *public,
            ));
            live.push(i);
        }
        let verdicts = schnorr_verify_batch(&items, &mut next_u64);
        for (slot, ok) in live.into_iter().zip(verdicts) {
            ledger.point_mul();
            results[slot].1 = if ok {
                Ok(SuiteOutcome::Authenticated)
            } else {
                Err(SuiteError::AuthFailed)
            };
        }
        results
    }
}

// ---------------------------------------------------------------------------
// Peeters–Hermans
// ---------------------------------------------------------------------------

/// Server state for [`PhSuite`]: the reader (key pair + tag database)
/// and the pending `(R, e)` of each in-flight identification.
#[derive(Debug)]
pub struct PhServer<C: CurveSpec> {
    reader: PhReader<C>,
    pending: SigmaPending<C>,
}

impl<C: CurveSpec> PhServer<C> {
    /// Wrap a provisioned reader (one pending-table shard).
    pub fn new(reader: PhReader<C>) -> Self {
        Self::with_shards(reader, 1)
    }

    /// Wrap a provisioned reader, sharding the pending `(R, e)` over
    /// `shards` locks (rounded up to a power of two).
    pub fn with_shards(reader: PhReader<C>, shards: usize) -> Self {
        Self {
            reader,
            pending: PendingTable::new(shards),
        }
    }

    /// The in-flight identifications.
    pub fn pending(&self) -> &SigmaPending<C> {
        &self.pending
    }

    /// The wrapped reader (e.g. to register tags before serving).
    pub fn reader_mut(&mut self) -> &mut PhReader<C> {
        &mut self.reader
    }
}

/// Peeters–Hermans private identification behind the suite lifecycle,
/// with both verification stages batched exactly like the pre-suite
/// reader: every `ḋ` through one engine batch, every
/// `(s − ḋ)·P − e·R` through one interleaved `mul_add` batch.
pub struct PhSuite<C: CurveSpec>(core::marker::PhantomData<C>);

impl<C: CurveSpec> SecuritySuite for PhSuite<C> {
    type Device = PhTag<C>;
    type Server = PhServer<C>;

    const PROTOCOL: ProtocolId = ProtocolId::Ph;

    fn device_open(
        device: &mut Self::Device,
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Option<Bytes> {
        let commitment = device.commit(&mut next_u64, ledger);
        Some(wire::encode_point(MsgType::PhCommit, &commitment))
    }

    fn hello_batch(
        server: &Self::Server,
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
        // Tags stay anonymous until verification: every id is known.
        commitment_wave::<C>(
            opens,
            |_| true,
            ledger,
            |id, commitment| {
                let challenge = server.reader.challenge(&mut next_u64);
                server.pending.insert(id, (commitment, challenge));
                wire::encode_scalar(MsgType::PhChallenge, &challenge)
            },
        )
    }

    fn device_turn(
        device: &mut Self::Device,
        hello: &[u8],
        _telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Result<Bytes, SuiteError> {
        let challenge = wire::decode_scalar::<C>(MsgType::PhChallenge, hello)?;
        let response = device.respond(&challenge, &mut next_u64, ledger);
        Ok(wire::encode_scalar(MsgType::PhResponse, &response))
    }

    fn server_verify_batch_with(
        server: &Self::Server,
        frames: &[(SuiteDeviceId, &[u8])],
        next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
        ec: &mut XAffineScratch,
    ) -> Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> {
        let mut results: Vec<(SuiteDeviceId, Result<SuiteOutcome, SuiteError>)> = frames
            .iter()
            .map(|&(id, _)| (id, Err(SuiteError::NoSession(id))))
            .collect();

        let mut live: Vec<usize> = Vec::with_capacity(frames.len());
        let mut transcripts: Vec<PhTranscript<C>> = Vec::with_capacity(frames.len());
        for (i, &(id, bytes)) in frames.iter().enumerate() {
            ledger.rx(bytes.len());
            let response = match wire::decode_scalar::<C>(MsgType::PhResponse, bytes) {
                Ok(s) => s,
                Err(e) => {
                    results[i].1 = Err(e.into());
                    continue;
                }
            };
            let Some((commitment, challenge)) = server.pending.remove(id) else {
                continue; // stays NoSession
            };
            transcripts.push(PhTranscript {
                commitment,
                challenge,
                response,
            });
            live.push(i);
        }
        let found = server
            .reader
            .identify_batch_with(&transcripts, next_u64, ec);
        for (slot, tag_id) in live.into_iter().zip(found) {
            // ḋ plus three point multiplications per transcript —
            // the paper's asymmetric-cost rule, batching changes the
            // instruction stream, not the model.
            for _ in 0..4 {
                ledger.point_mul();
            }
            results[slot].1 = match tag_id {
                Some(tag_id) => Ok(SuiteOutcome::Identified(tag_id)),
                None => Err(SuiteError::AuthFailed),
            };
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;
    use medsec_power::{EnergyReport, RadioModel};
    use medsec_rng::SplitMix64;

    fn ledger() -> EnergyLedger {
        EnergyLedger::new(
            EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
            RadioModel::first_order_default(),
            2.0,
        )
    }

    #[test]
    fn profile_ids_round_trip_and_reject_unknowns() {
        for curve in CurveId::ALL {
            for protocol in ProtocolId::ALL {
                let p = SecurityProfile::new(curve, protocol);
                let back = SecurityProfile::from_id(p.id()).expect("registry profile");
                assert_eq!(back, p, "{}", p.name());
            }
        }
        assert_eq!(SecurityProfile::from_id(0x00), None);
        assert_eq!(SecurityProfile::from_id(0x61), None); // unknown curve nibble
        assert_eq!(SecurityProfile::from_id(0x15), None); // unknown protocol nibble
    }

    #[test]
    fn profile_defaults_follow_the_pyramid() {
        let rig = SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual);
        assert_eq!(rig.countermeasures, CountermeasureLevel::Unprotected);
        let pacemaker = SecurityProfile::new(CurveId::K163, ProtocolId::Mutual);
        assert_eq!(pacemaker.countermeasures, CountermeasureLevel::DpaHardened);
        let sensor = SecurityProfile::new(CurveId::Toy17, ProtocolId::Symmetric);
        assert_eq!(sensor.countermeasures, CountermeasureLevel::ConstantTime);
        assert!(sensor.energy_budget_j < pacemaker.energy_budget_j);
        let hub = SecurityProfile::new(CurveId::K283, ProtocolId::Mutual);
        assert!(hub.energy_budget_j > pacemaker.energy_budget_j);
        assert_eq!(pacemaker.name(), "mutual@K163");
    }

    #[test]
    fn negotiate_frames_self_validate() {
        let p = SecurityProfile::new(CurveId::K233, ProtocolId::Ph);
        let frame = p.negotiate_frame();
        let decoded = wire::decode_negotiate(&frame).expect("well-formed");
        assert_eq!(SecurityProfile::from_negotiate(&decoded), Some(p));
        // An inconsistent triple (profile id says K233/PH, explicit
        // curve byte says K163) is rejected.
        let forged = wire::encode_negotiate(p.id(), CurveId::K163, ProtocolId::Ph);
        let decoded = wire::decode_negotiate(&forged).expect("well-formed wire");
        assert_eq!(SecurityProfile::from_negotiate(&decoded), None);
    }

    #[test]
    fn symmetric_suite_full_lifecycle() {
        let mut rng = SplitMix64::new(7001);
        let mut table = SymmetricServer::new();
        let mut device = table.register_device(9, rng.as_fn());
        let server = SymmetricGate::new(table);
        let (mut dl, mut sl) = (ledger(), ledger());
        let out = SymmetricSuite::run_session(
            &mut device,
            &server,
            9,
            b"",
            rng.as_fn(),
            &mut dl,
            &mut sl,
        );
        assert_eq!(out, Ok(SuiteOutcome::Authenticated));
        // A response under an id the server never challenged fails.
        let hello = SymmetricSuite::hello(&server, 9, None, rng.as_fn(), &mut sl).unwrap();
        let closing =
            SymmetricSuite::device_turn(&mut device, &hello, b"", rng.as_fn(), &mut dl).unwrap();
        assert_eq!(
            SymmetricSuite::server_verify(&server, 8, &closing, rng.as_fn(), &mut sl),
            Err(SuiteError::NoSession(8))
        );
        // The genuine response still verifies once…
        assert_eq!(
            SymmetricSuite::server_verify(&server, 9, &closing, rng.as_fn(), &mut sl),
            Ok(SuiteOutcome::Authenticated)
        );
        // …but a replay of it is rejected: the nonce was consumed.
        assert_eq!(
            SymmetricSuite::server_verify(&server, 9, &closing, rng.as_fn(), &mut sl),
            Err(SuiteError::NoSession(9))
        );
        // A stale response (answering an older challenge than the one
        // outstanding) fails authentication.
        let _hello2 = SymmetricSuite::hello(&server, 9, None, rng.as_fn(), &mut sl).unwrap();
        assert_eq!(
            SymmetricSuite::server_verify(&server, 9, &closing, rng.as_fn(), &mut sl),
            Err(SuiteError::AuthFailed)
        );
    }

    #[test]
    fn mutual_suite_full_lifecycle_and_errors() {
        let mut rng = SplitMix64::new(7002);
        let pairing = Pairing {
            auth_key: *b"suite pairing ky",
        };
        let server = MutualServer::<Toy17>::new(vec![(3, pairing.clone())]);
        let mut device = mutual::Device::<Toy17>::new(pairing, mutual::Ordering::ServerFirst);
        let (mut dl, mut sl) = (ledger(), ledger());
        let out = MutualSuite::run_session(
            &mut device,
            &server,
            3,
            b"hr=062",
            rng.as_fn(),
            &mut dl,
            &mut sl,
        );
        assert_eq!(
            out,
            Ok(SuiteOutcome::Established {
                telemetry: b"hr=062".to_vec()
            })
        );
        // Unknown device: no hello.
        assert_eq!(
            MutualSuite::<Toy17>::hello(&server, 99, None, rng.as_fn(), &mut sl),
            Err(SuiteError::UnknownDevice(99))
        );
        // Closing frame without a pending session.
        let hello = MutualSuite::<Toy17>::hello(&server, 3, None, rng.as_fn(), &mut sl).unwrap();
        let closing =
            MutualSuite::device_turn(&mut device, &hello, b"x", rng.as_fn(), &mut dl).unwrap();
        let _ = MutualSuite::<Toy17>::server_verify(&server, 3, &closing, rng.as_fn(), &mut sl);
        assert_eq!(
            MutualSuite::<Toy17>::server_verify(&server, 3, &closing, rng.as_fn(), &mut sl),
            Err(SuiteError::NoSession(3))
        );
    }

    #[test]
    fn mutual_hello_books_point_mul_mac_and_tx() {
        let mut rng = SplitMix64::new(7007);
        let pairing = Pairing {
            auth_key: *b"booking pairing!",
        };
        let server = MutualServer::<Toy17>::new(vec![(4, pairing)]);
        let mut sl = ledger();
        let hello = MutualSuite::<Toy17>::hello(&server, 4, None, rng.as_fn(), &mut sl).unwrap();
        // The same bookings in the same order give the same bits.
        let mut want = ledger();
        want.point_mul();
        want.symmetric(&Aes128::hw_profile(), 3);
        want.tx(hello.len());
        assert_eq!(sl.total().to_bits(), want.total().to_bits());
        assert_eq!(sl.compute().to_bits(), want.compute().to_bits());
        assert_eq!(sl.bytes_on_air(), want.bytes_on_air());
        assert_eq!(server.pending().len(), 1);
    }

    #[test]
    fn schnorr_suite_full_lifecycle_and_tamper() {
        let mut rng = SplitMix64::new(7003);
        let mut device = SchnorrTag::<Toy17>::new(rng.as_fn());
        let mut server = SchnorrVerifier::<Toy17>::new();
        server.register(5, *device.public());
        let (mut dl, mut sl) = (ledger(), ledger());
        let out =
            SchnorrSuite::run_session(&mut device, &server, 5, b"", rng.as_fn(), &mut dl, &mut sl);
        assert_eq!(out, Ok(SuiteOutcome::Authenticated));
        // Tampered response fails the batch verification.
        let open = SchnorrSuite::device_open(&mut device, rng.as_fn(), &mut dl).unwrap();
        let hello = SchnorrSuite::hello(&server, 5, Some(&open), rng.as_fn(), &mut sl).unwrap();
        let closing =
            SchnorrSuite::device_turn(&mut device, &hello, b"", rng.as_fn(), &mut dl).unwrap();
        let mut bad = closing.to_vec();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(
            SchnorrSuite::server_verify(&server, 5, &bad, rng.as_fn(), &mut sl),
            Err(SuiteError::AuthFailed)
        );
    }

    #[test]
    fn ph_suite_full_lifecycle_identifies() {
        let mut rng = SplitMix64::new(7004);
        let mut reader = PhReader::<Toy17>::new(rng.as_fn());
        let mut device = reader.register_tag(11, rng.as_fn());
        let server = PhServer::new(reader);
        let (mut dl, mut sl) = (ledger(), ledger());
        let out =
            PhSuite::run_session(&mut device, &server, 11, b"", rng.as_fn(), &mut dl, &mut sl);
        assert_eq!(out, Ok(SuiteOutcome::Identified(11)));
        // The tag pays exactly two point multiplications.
        assert!((dl.compute() - 2.0 * 5.1e-6).abs() < 1e-9);
    }

    /// The compressed encoding of the order-2 point (0, √b): tag 0, all
    /// of x zero. It decompresses, but no honest device sends it.
    fn zero_x_encoding<C: CurveSpec>() -> Vec<u8> {
        let bytes = vec![0u8; Point::<C>::compressed_len()];
        let p = Point::<C>::decompress(&bytes).expect("decodes to (0, sqrt b)");
        assert_eq!(p.x(), Some(medsec_gf2m::Element::zero()));
        bytes
    }

    fn refuses_zero_x_points<C: CurveSpec>(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let (mut dl, mut sl) = (ledger(), ledger());
        let zero_x = zero_x_encoding::<C>();

        // Mutual: a Telemetry frame whose ephemeral is (0, √b).
        let pairing = Pairing {
            auth_key: *b"zero-x pairing k",
        };
        let server = MutualServer::<C>::new(vec![(1, pairing.clone())]);
        let mut device = mutual::Device::<C>::new(pairing, mutual::Ordering::ServerFirst);
        let hello = MutualSuite::<C>::hello(&server, 1, None, rng.as_fn(), &mut sl).unwrap();
        let closing =
            MutualSuite::device_turn(&mut device, &hello, b"hr=070", rng.as_fn(), &mut dl).unwrap();
        let (_, payload) = wire::deframe(&closing).unwrap();
        let mut forged = payload.to_vec();
        forged[..zero_x.len()].copy_from_slice(&zero_x);
        let forged = wire::frame(MsgType::Telemetry, &forged);
        assert_eq!(
            MutualSuite::<C>::server_verify(&server, 1, &forged, rng.as_fn(), &mut sl),
            Err(SuiteError::BadEphemeral),
            "{}: mutual",
            C::NAME
        );
        let out = MutualSuite::run_session(
            &mut device,
            &server,
            1,
            b"hr=071",
            rng.as_fn(),
            &mut dl,
            &mut sl,
        );
        assert_eq!(
            out,
            Ok(SuiteOutcome::Established {
                telemetry: b"hr=071".to_vec()
            }),
            "{}: mutual after the forged frame",
            C::NAME
        );

        // Schnorr and Peeters–Hermans: a PhCommit carrying (0, √b).
        let commit = wire::frame(MsgType::PhCommit, &zero_x);
        let mut tag = SchnorrTag::<C>::new(rng.as_fn());
        let mut verifier = SchnorrVerifier::<C>::new();
        verifier.register(2, *tag.public());
        assert_eq!(
            SchnorrSuite::<C>::hello(&verifier, 2, Some(&commit), rng.as_fn(), &mut sl),
            Err(SuiteError::BadEphemeral),
            "{}: schnorr",
            C::NAME
        );
        let out =
            SchnorrSuite::run_session(&mut tag, &verifier, 2, b"", rng.as_fn(), &mut dl, &mut sl);
        assert_eq!(
            out,
            Ok(SuiteOutcome::Authenticated),
            "{}: schnorr after",
            C::NAME
        );

        let mut reader = PhReader::<C>::new(rng.as_fn());
        let mut tag = reader.register_tag(3, rng.as_fn());
        let server = PhServer::new(reader);
        assert_eq!(
            PhSuite::<C>::hello(&server, 3, Some(&commit), rng.as_fn(), &mut sl),
            Err(SuiteError::BadEphemeral),
            "{}: ph",
            C::NAME
        );
        let out = PhSuite::run_session(&mut tag, &server, 3, b"", rng.as_fn(), &mut dl, &mut sl);
        assert_eq!(
            out,
            Ok(SuiteOutcome::Identified(3)),
            "{}: ph after",
            C::NAME
        );
    }

    #[test]
    fn zero_x_points_are_refused_on_every_curve() {
        refuses_zero_x_points::<Toy17>(7008);
        refuses_zero_x_points::<medsec_ec::B163>(7009);
        refuses_zero_x_points::<medsec_ec::K163>(7010);
    }

    /// A hello wave as one `wire::decode_point` per device answered it:
    /// the reference `commitment_wave` must match result for result,
    /// booking for booking and draw for draw.
    fn hello_per_frame<C: CurveSpec>(
        opens: &[(SuiteDeviceId, Option<&[u8]>)],
        known: impl Fn(SuiteDeviceId) -> bool,
        ledger: &mut EnergyLedger,
        mut challenge: impl FnMut(SuiteDeviceId, Point<C>) -> Bytes,
    ) -> Vec<(SuiteDeviceId, Result<Bytes, SuiteError>)> {
        opens
            .iter()
            .map(|&(id, open)| {
                let r = (|| {
                    if !known(id) {
                        return Err(SuiteError::UnknownDevice(id));
                    }
                    let bytes = open.ok_or(SuiteError::Decode(DecodeError::Malformed))?;
                    ledger.rx(bytes.len());
                    let commitment = wire::decode_point::<C>(MsgType::PhCommit, bytes)?;
                    if has_zero_x(&commitment) {
                        return Err(SuiteError::BadEphemeral);
                    }
                    let frame = challenge(id, commitment);
                    ledger.tx(frame.len());
                    Ok(frame)
                })();
                (id, r)
            })
            .collect()
    }

    fn hello_waves_match_per_frame<C: CurveSpec>(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut dl = ledger();
        // Genuine commitments, then every way a frame can fail, each
        // kind twice so a bad entry sits between good ones.
        let mut tag = SchnorrTag::<C>::new(rng.as_fn());
        let good: Vec<Bytes> = (0..4)
            .map(|_| wire::encode_point(MsgType::PhCommit, &tag.commit(rng.as_fn(), &mut dl)))
            .collect();
        let plen = Point::<C>::compressed_len();
        let mut not_canonical = vec![0xffu8; plen];
        not_canonical[0] = 1;
        let bad = [
            wire::frame(MsgType::PhCommit, &zero_x_encoding::<C>()),
            wire::frame(MsgType::PhCommit, &not_canonical),
            wire::frame(MsgType::PhCommit, &[1u8; 3]),
            wire::frame(MsgType::PhResponse, &good[0][2..]),
            Bytes::copy_from_slice(&good[1][..plen / 2]),
            wire::encode_point::<C>(MsgType::PhCommit, &Point::infinity()),
        ];
        let mut opens: Vec<(SuiteDeviceId, Option<&[u8]>)> = Vec::new();
        for (i, frame) in bad.iter().chain(&good).chain(&bad).enumerate() {
            opens.push((i as u32, Some(frame)));
            opens.push((100 + i as u32, Some(frame)));
        }
        opens.extend([(3, None), (103, None), (2, Some(&good[2][..]))]);
        let known = |id: SuiteDeviceId| id < 100;

        // Schnorr: registered ids only.
        let verifiers = [0, 1].map(|_| {
            let mut v = SchnorrVerifier::<C>::new();
            for i in 0..30 {
                v.register(i, *tag.public());
            }
            v
        });
        let (mut want_rng, mut got_rng) = (SplitMix64::new(seed ^ 1), SplitMix64::new(seed ^ 1));
        let (mut want_l, mut got_l) = (ledger(), ledger());
        let want = hello_per_frame::<C>(&opens, known, &mut want_l, |id, commitment| {
            let challenge = Scalar::<C>::random_nonzero(want_rng.as_fn());
            verifiers[0].pending.insert(id, (commitment, challenge));
            wire::encode_scalar(MsgType::PhChallenge, &challenge)
        });
        let got =
            SchnorrSuite::<C>::hello_batch(&verifiers[1], &opens, got_rng.as_fn(), &mut got_l);
        assert_eq!(got, want, "{}: schnorr results", C::NAME);
        assert!(got.iter().any(|(_, r)| r.is_ok()), "{}", C::NAME);
        for kind in [
            SuiteError::UnknownDevice(100),
            SuiteError::Decode(DecodeError::Malformed),
            SuiteError::Decode(DecodeError::Truncated),
            SuiteError::BadEphemeral,
        ] {
            assert!(
                got.iter().any(|(_, r)| r.as_ref().err() == Some(&kind)),
                "{kind:?}"
            );
        }
        assert_eq!(got_l.total().to_bits(), want_l.total().to_bits());
        assert_eq!(got_l.bytes_on_air(), want_l.bytes_on_air());
        assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        for (id, _) in &opens {
            assert_eq!(
                verifiers[1].pending.remove(*id),
                verifiers[0].pending.remove(*id)
            );
        }

        // Peeters–Hermans: tags stay anonymous, every id is known.
        let servers =
            [0, 1].map(|_| PhServer::new(PhReader::<C>::new(SplitMix64::new(seed).as_fn())));
        let (mut want_l, mut got_l) = (ledger(), ledger());
        let want = hello_per_frame::<C>(
            &opens,
            |_| true,
            &mut want_l,
            |id, commitment| {
                let challenge = servers[0].reader.challenge(want_rng.as_fn());
                servers[0].pending.insert(id, (commitment, challenge));
                wire::encode_scalar(MsgType::PhChallenge, &challenge)
            },
        );
        let got = PhSuite::<C>::hello_batch(&servers[1], &opens, got_rng.as_fn(), &mut got_l);
        assert_eq!(got, want, "{}: ph results", C::NAME);
        assert_eq!(got_l.total().to_bits(), want_l.total().to_bits());
        assert_eq!(got_l.bytes_on_air(), want_l.bytes_on_air());
        assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        for (id, _) in &opens {
            assert_eq!(
                servers[1].pending.remove(*id),
                servers[0].pending.remove(*id)
            );
        }
    }

    #[test]
    fn hello_waves_match_one_decode_per_frame() {
        hello_waves_match_per_frame::<Toy17>(7011);
        hello_waves_match_per_frame::<medsec_ec::K163>(7012);
        hello_waves_match_per_frame::<medsec_ec::B163>(7013);
    }

    #[test]
    fn suite_batches_keep_per_entry_order() {
        let mut rng = SplitMix64::new(7005);
        let pairings: Vec<(u32, Pairing)> = (0..4)
            .map(|i| {
                (
                    i,
                    Pairing {
                        auth_key: [i as u8 + 1; 16],
                    },
                )
            })
            .collect();
        let server = MutualServer::<Toy17>::new(pairings.clone());
        let mut sl = ledger();
        // Batch with an unknown id in the middle: order preserved.
        let opens: Vec<(u32, Option<&[u8]>)> = vec![(0, None), (77, None), (2, None), (1, None)];
        let hellos = MutualSuite::<Toy17>::hello_batch(&server, &opens, rng.as_fn(), &mut sl);
        assert_eq!(hellos.len(), 4);
        assert_eq!(hellos[1].0, 77);
        assert!(matches!(hellos[1].1, Err(SuiteError::UnknownDevice(77))));
        for (slot, (id, r)) in hellos.iter().enumerate() {
            assert_eq!(*id, opens[slot].0);
            if *id != 77 {
                assert!(r.is_ok());
            }
        }
    }
}
