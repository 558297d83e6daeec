//! Device provisioning: the enrollment step a hospital performs at
//! implantation time.
//!
//! [`provision_lane`] builds both sides of the trust relationship for
//! one curve lane at once — the devices (secrets, one protocol state
//! machine each, energy ledgers) and the four suite servers that serve
//! them (pairing-key store, Peeters–Hermans reader database, Schnorr
//! public keys, symmetric key table, each with its sharded
//! pending-session table) — so tests and simulations always start from
//! a consistent key state. A device enrolls with its own protocol's
//! server only.

use std::sync::Mutex;

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

use crate::hub::CurveLane;

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
    /// Disposable ward sensor: symmetric challenge–response only — the
    /// bottom of the pyramid (cheap compute, stable identity in the
    /// clear, key-distribution burden).
    WardSensor,
    /// Staff badge: Schnorr identification — PKC-authenticated but
    /// deliberately traceable (staff, not patients).
    StaffBadge,
}

impl DeviceKind {
    /// The kind of device a ward speaking `protocol` holds.
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
            DeviceKind::WardSensor => 2_000.0,
            DeviceKind::StaffBadge => 1_000.0,
        }
    }

    /// One telemetry payload for this kind (empty for kinds whose
    /// protocol carries no telemetry channel).
    pub fn telemetry(&self) -> &'static [u8] {
        match self {
            DeviceKind::Pacemaker => b"hr=062;lead=ok;batt=81%",
            DeviceKind::Neurostimulator | DeviceKind::WardSensor | DeviceKind::StaffBadge => b"",
        }
    }
}

/// Static per-device facts recorded at provisioning time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Fleet-wide identifier.
    pub id: DeviceId,
    /// Implant class (fixes the link distance, battery and telemetry).
    pub kind: DeviceKind,
    /// The pyramid point this device was provisioned at — the profile
    /// it advertises in its Negotiate hello and the gateway enforces.
    pub suite: SecurityProfile,
}

/// The one protocol state machine a device runs: the protocol of the
/// profile it was provisioned at.
#[derive(Debug, Clone)]
pub enum DeviceState<C: CurveSpec> {
    /// Mutual authentication, under a pairing key shared with the
    /// lane's mutual server.
    Mutual(Device<C>),
    /// Peeters–Hermans tag, registered in the lane's reader database.
    Ph(PhTag<C>),
    /// Symmetric challenge–response key, in the lane's key table.
    Symmetric(SymmetricDevice),
    /// Schnorr tag, its public key in the lane's registry.
    Schnorr(SchnorrTag<C>),
}

/// One simulated implant: profile, protocol state, private RNG stream
/// and energy ledger.
#[derive(Debug, Clone)]
pub struct FleetDevice<C: CurveSpec> {
    /// Static provisioning facts.
    pub profile: DeviceProfile,
    /// The device's protocol state machine and secrets.
    pub state: DeviceState<C>,
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

/// Provision the `curve` lane from explicit per-device assignments
/// `(id, profile)`: each device gets the state of its profile's
/// protocol and enrolls with that protocol's server. Every server's
/// pending-session table gets `shards` shards (rounded up to a power of
/// two).
///
/// All keys derive from `seed` in assignment order, so a lane is
/// exactly reproducible.
pub fn provision_lane<C: CurveSpec>(
    curve: CurveId,
    assignments: &[(DeviceId, SecurityProfile)],
    shards: usize,
    seed: u64,
) -> CurveLane<C> {
    let mut root = SplitMix64::new(seed);
    let mut reader = PhReader::<C>::new(root.as_fn());
    let mut schnorr = SchnorrVerifier::<C>::with_shards(shards);
    let mut symmetric = SymmetricServer::new();
    let mut pairings = Vec::new();
    let mut devices = Vec::with_capacity(assignments.len());

    for &(id, suite) in assignments {
        let state = match suite.protocol {
            ProtocolId::Mutual => {
                let mut auth_key = [0u8; 16];
                for chunk in auth_key.chunks_mut(8) {
                    chunk.copy_from_slice(&root.next_u64().to_be_bytes());
                }
                let pairing = Pairing { auth_key };
                pairings.push((id, pairing.clone()));
                DeviceState::Mutual(Device::new(pairing, Ordering::ServerFirst))
            }
            ProtocolId::Ph => DeviceState::Ph(reader.register_tag(id, root.as_fn())),
            ProtocolId::Symmetric => {
                DeviceState::Symmetric(symmetric.register_device(id, root.as_fn()))
            }
            ProtocolId::Schnorr => {
                let tag = SchnorrTag::<C>::new(root.as_fn());
                schnorr.register(id, *tag.public());
                DeviceState::Schnorr(tag)
            }
        };
        let kind = DeviceKind::for_protocol(suite.protocol);
        devices.push(Mutex::new(FleetDevice {
            profile: DeviceProfile { id, kind, suite },
            state,
            rng: SplitMix64::new(seed ^ (0x5EED_0000_0000_0000 | u64::from(id))),
            ledger: EnergyLedger::new(
                paper_ecpm(),
                RadioModel::first_order_default(),
                kind.distance_m(),
            ),
        }));
    }

    CurveLane {
        curve,
        mutual: MutualServer::with_shards(pairings, shards),
        ph: PhServer::with_shards(reader, shards),
        schnorr,
        symmetric: SymmetricGate::with_shards(symmetric, shards),
        devices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;

    /// `n` Toy17 devices cycling through the four protocols.
    fn provision_mix(n: u32, seed: u64) -> CurveLane<Toy17> {
        let assignments: Vec<(DeviceId, SecurityProfile)> = (0..n)
            .map(|id| {
                let protocol = ProtocolId::ALL[id as usize % ProtocolId::ALL.len()];
                (id, SecurityProfile::new(CurveId::Toy17, protocol))
            })
            .collect();
        provision_lane(CurveId::Toy17, &assignments, 4, seed)
    }

    /// The provisioning facts and secrets of one device, comparable
    /// across lanes.
    fn enrolled(lane: &CurveLane<Toy17>, slot: usize) -> (DeviceProfile, String) {
        let d = lane.devices[slot].lock().unwrap();
        (d.profile, format!("{:?}", d.state))
    }

    #[test]
    fn provisioning_is_reproducible_and_complete() {
        let a = provision_mix(16, 99);
        let b = provision_mix(16, 99);
        assert_eq!(a.devices.len(), 16);
        for slot in 0..16 {
            assert_eq!(enrolled(&a, slot), enrolled(&b, slot));
        }
        // Different seeds give different keys.
        let c = provision_mix(16, 100);
        assert_ne!(enrolled(&a, 0).1, enrolled(&c, 0).1);
        // Every server's table got the requested shards.
        assert_eq!(a.mutual.pending().shard_count(), 4);
        assert_eq!(a.ph.pending().shard_count(), 4);
        assert_eq!(a.schnorr.pending().shard_count(), 4);
        assert_eq!(a.symmetric.pending().shard_count(), 4);
    }

    #[test]
    fn fleet_mix_covers_all_kinds() {
        let lane = provision_mix(8, 1);
        let mut kinds = std::collections::HashSet::new();
        for cell in &lane.devices {
            let profile = cell.lock().unwrap().profile;
            assert_eq!(
                profile.kind,
                DeviceKind::for_protocol(profile.suite.protocol)
            );
            kinds.insert(profile.kind);
        }
        assert_eq!(kinds.len(), 4);
    }
}
