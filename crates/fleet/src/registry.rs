//! Device provisioning: the enrollment step a hospital performs at
//! implantation time.
//!
//! [`provision_lane`] builds both sides of the trust relationship for
//! one curve lane at once — the devices (secrets, pairing keys,
//! protocol state machines, energy ledgers) and the four suite servers
//! that serve them (pairing-key store, Peeters–Hermans reader database,
//! Schnorr public keys, symmetric key table, each with its sharded
//! pending-session table) — so tests and simulations always start from
//! a consistent key state.

use medsec_ec::CurveSpec;
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::mutual::{Device, Ordering, Pairing};
use medsec_protocols::peeters_hermans::{PhReader, PhTag};
use medsec_protocols::schnorr::SchnorrTag;
use medsec_protocols::suite::{
    CurveId, MutualServer, PhServer, ProtocolId, SchnorrVerifier, SecurityProfile, SymmetricGate,
};
use medsec_protocols::symmetric::{SymmetricDevice, SymmetricServer};
use medsec_protocols::EnergyLedger;
use medsec_rng::SplitMix64;

/// Fleet-wide device identifier (also the Peeters–Hermans tag id).
pub type DeviceId = u32;

/// The class of device, which fixes its protocol and radio profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Pacemaker: mutual authentication + encrypted telemetry uplink.
    Pacemaker,
    /// Neurostimulator: privacy-preserving Peeters–Hermans
    /// identification (tracking a patient by their implant must stay
    /// infeasible).
    Neurostimulator,
    /// Subcutaneous cardiac monitor: mutual authentication with a
    /// larger telemetry payload (an ECG chunk).
    CardiacMonitor,
    /// Disposable ward sensor: symmetric challenge–response only — the
    /// bottom of the pyramid (cheap compute, stable identity in the
    /// clear, key-distribution burden).
    WardSensor,
    /// Staff badge: Schnorr identification — PKC-authenticated but
    /// deliberately traceable (staff, not patients).
    StaffBadge,
}

impl DeviceKind {
    /// Deterministic single-curve fleet mix: half pacemakers, a quarter
    /// each of neurostimulators and cardiac monitors (the legacy
    /// trajectory mix; heterogeneous fleets assign kinds per ward).
    pub fn assign(id: DeviceId) -> Self {
        match id % 4 {
            0 | 1 => DeviceKind::Pacemaker,
            2 => DeviceKind::Neurostimulator,
            _ => DeviceKind::CardiacMonitor,
        }
    }

    /// The protocol this kind speaks.
    pub fn protocol(&self) -> ProtocolId {
        match self {
            DeviceKind::Pacemaker | DeviceKind::CardiacMonitor => ProtocolId::Mutual,
            DeviceKind::Neurostimulator => ProtocolId::Ph,
            DeviceKind::WardSensor => ProtocolId::Symmetric,
            DeviceKind::StaffBadge => ProtocolId::Schnorr,
        }
    }

    /// The representative kind for a ward speaking `protocol`.
    pub fn for_protocol(protocol: ProtocolId) -> Self {
        match protocol {
            ProtocolId::Mutual => DeviceKind::Pacemaker,
            ProtocolId::Ph => DeviceKind::Neurostimulator,
            ProtocolId::Symmetric => DeviceKind::WardSensor,
            ProtocolId::Schnorr => DeviceKind::StaffBadge,
        }
    }

    /// Link distance to the gateway in meters (bedside wand vs ward
    /// base station).
    pub fn distance_m(&self) -> f64 {
        match self {
            DeviceKind::Pacemaker => 2.0,
            DeviceKind::Neurostimulator => 1.0,
            DeviceKind::CardiacMonitor => 5.0,
            DeviceKind::WardSensor => 8.0,
            DeviceKind::StaffBadge => 1.0,
        }
    }

    /// Battery capacity in joules (order-of-magnitude realistic for the
    /// implant class; used for lifetime projections in the report).
    pub fn battery_j(&self) -> f64 {
        match self {
            DeviceKind::Pacemaker => 20_000.0,
            DeviceKind::Neurostimulator => 40_000.0,
            DeviceKind::CardiacMonitor => 5_000.0,
            DeviceKind::WardSensor => 2_000.0,
            DeviceKind::StaffBadge => 1_000.0,
        }
    }

    /// One telemetry payload for this kind (empty for kinds whose
    /// protocol carries no telemetry channel).
    pub fn telemetry(&self) -> &'static [u8] {
        match self {
            DeviceKind::Pacemaker => b"hr=062;lead=ok;batt=81%",
            DeviceKind::CardiacMonitor => {
                b"ecg=[-12,40,112,23,-8,-15,4,88,130,42,-20,-11,2,76,122,38]"
            }
            DeviceKind::Neurostimulator | DeviceKind::WardSensor | DeviceKind::StaffBadge => b"",
        }
    }
}

/// Static per-device facts recorded at provisioning time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Fleet-wide identifier.
    pub id: DeviceId,
    /// Implant class.
    pub kind: DeviceKind,
    /// Curve the device's co-processor is configured for.
    pub curve: CurveId,
    /// The pyramid point this device was provisioned at — the profile
    /// it advertises in its Negotiate hello and the gateway enforces.
    pub suite: SecurityProfile,
    /// Link distance to the gateway, meters.
    pub distance_m: f64,
    /// Battery capacity, joules.
    pub battery_j: f64,
}

/// One simulated implant: profile, secrets, protocol state machines,
/// private RNG stream and energy ledger.
#[derive(Debug, Clone)]
pub struct FleetDevice<C: CurveSpec> {
    /// Static provisioning facts.
    pub profile: DeviceProfile,
    /// Pairing key shared with the gateway (mutual authentication).
    pub pairing: Pairing,
    /// Mutual-authentication state machine.
    pub mutual: Device<C>,
    /// Peeters–Hermans tag state machine — only provisioned for kinds
    /// that identify privately (neurostimulators); registering the
    /// whole fleet would bloat the reader database every
    /// identification scans.
    pub tag: Option<PhTag<C>>,
    /// Symmetric challenge–response state — only for symmetric-only
    /// kinds (ward sensors).
    pub sym: Option<SymmetricDevice>,
    /// Schnorr tag state — only for Schnorr-identified kinds (staff
    /// badges).
    pub badge: Option<SchnorrTag<C>>,
    /// Device-private deterministic RNG stream.
    pub rng: SplitMix64,
    /// Lifetime energy account.
    pub ledger: EnergyLedger,
}

/// Paper-chip point-multiplication cost: ≈86.5k cycles, ≈5.1 µJ at
/// 847.5 kHz (§6 measurement).
fn paper_ecpm() -> EnergyReport {
    EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0)
}

/// Everything one curve lane of a gateway hub needs: the provisioned
/// devices plus one suite server per protocol the lane can serve.
#[derive(Debug)]
pub struct LaneProvision<C: CurveSpec> {
    /// Devices assigned to this lane, in assignment order.
    pub devices: Vec<FleetDevice<C>>,
    /// Mutual-authentication server (pairing-key store).
    pub mutual: MutualServer<C>,
    /// Peeters–Hermans server (reader key pair + tag database).
    pub ph: PhServer<C>,
    /// Schnorr public-key registry.
    pub schnorr: SchnorrVerifier<C>,
    /// Symmetric key table behind the challenge-binding gate.
    pub symmetric: SymmetricGate,
}

/// Provision one curve lane from explicit per-device assignments
/// `(id, kind, profile)`. Every server's pending-session table gets
/// `shards` shards (rounded up to a power of two).
///
/// All keys derive from `seed` in assignment order, so a lane is
/// exactly reproducible.
pub fn provision_lane<C: CurveSpec>(
    assignments: &[(DeviceId, DeviceKind, SecurityProfile)],
    shards: usize,
    curve: CurveId,
    seed: u64,
) -> LaneProvision<C> {
    let mut root = SplitMix64::new(seed);
    let mut reader = PhReader::<C>::new(root.as_fn());
    let mut schnorr = SchnorrVerifier::<C>::with_shards(shards);
    let mut symmetric = SymmetricServer::new();
    let mut pairings = Vec::with_capacity(assignments.len());
    let mut devices = Vec::with_capacity(assignments.len());

    for &(id, kind, suite) in assignments {
        let mut auth_key = [0u8; 16];
        for chunk in auth_key.chunks_mut(8) {
            chunk.copy_from_slice(&root.next_u64().to_be_bytes());
        }
        let pairing = Pairing { auth_key };
        pairings.push((id, pairing.clone()));

        // Protocol-specific enrollment: the Peeters–Hermans reader DB,
        // the Schnorr public-key registry or the symmetric key table.
        let mut tag = None;
        let mut sym = None;
        let mut badge = None;
        match kind.protocol() {
            ProtocolId::Ph => tag = Some(reader.register_tag(id, root.as_fn())),
            ProtocolId::Symmetric => sym = Some(symmetric.register_device(id, root.as_fn())),
            ProtocolId::Schnorr => {
                let t = SchnorrTag::<C>::new(root.as_fn());
                schnorr.register(id, *t.public());
                badge = Some(t);
            }
            ProtocolId::Mutual => {}
        }

        let profile = DeviceProfile {
            id,
            kind,
            curve,
            suite,
            distance_m: kind.distance_m(),
            battery_j: kind.battery_j(),
        };
        devices.push(FleetDevice {
            profile,
            pairing: pairing.clone(),
            mutual: Device::new(pairing, Ordering::ServerFirst),
            tag,
            sym,
            badge,
            rng: SplitMix64::new(seed ^ (0x5EED_0000_0000_0000 | u64::from(id))),
            ledger: EnergyLedger::new(
                paper_ecpm(),
                RadioModel::first_order_default(),
                kind.distance_m(),
            ),
        });
    }

    LaneProvision {
        devices,
        mutual: MutualServer::with_shards(pairings, shards),
        ph: PhServer::with_shards(reader, shards),
        schnorr,
        symmetric: SymmetricGate::with_shards(symmetric, shards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;

    /// `n` devices in the single-curve fleet mix of
    /// [`DeviceKind::assign`].
    fn provision_mix(n: u32, seed: u64) -> LaneProvision<Toy17> {
        let assignments: Vec<(DeviceId, DeviceKind, SecurityProfile)> = (0..n)
            .map(|id| {
                let kind = DeviceKind::assign(id);
                let profile = SecurityProfile::new(CurveId::Toy17, kind.protocol());
                (id, kind, profile)
            })
            .collect();
        provision_lane(&assignments, 4, CurveId::Toy17, seed)
    }

    #[test]
    fn provisioning_is_reproducible_and_complete() {
        let a = provision_mix(16, 99);
        let b = provision_mix(16, 99);
        assert_eq!(a.devices.len(), 16);
        for (a, b) in a.devices.iter().zip(&b.devices) {
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.pairing.auth_key, b.pairing.auth_key);
        }
        // Different seeds give different keys.
        let c = provision_mix(16, 100);
        assert_ne!(a.devices[0].pairing.auth_key, c.devices[0].pairing.auth_key);
        // Every server's table got the requested shards.
        assert_eq!(a.mutual.pending().shard_count(), 4);
        assert_eq!(a.ph.pending().shard_count(), 4);
        assert_eq!(a.schnorr.pending().shard_count(), 4);
        assert_eq!(a.symmetric.pending().shard_count(), 4);
    }

    #[test]
    fn fleet_mix_covers_all_kinds() {
        let lane = provision_mix(8, 1);
        let kinds: Vec<_> = lane.devices.iter().map(|d| d.profile.kind).collect();
        assert!(kinds.contains(&DeviceKind::Pacemaker));
        assert!(kinds.contains(&DeviceKind::Neurostimulator));
        assert!(kinds.contains(&DeviceKind::CardiacMonitor));
        // Only the neurostimulators carry a Peeters–Hermans tag.
        for d in &lane.devices {
            assert_eq!(
                d.tag.is_some(),
                d.profile.kind == DeviceKind::Neurostimulator
            );
        }
    }
}
