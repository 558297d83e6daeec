//! The curve-erased gateway hub: one serving front-end for a
//! heterogeneous fleet.
//!
//! The paper's thesis is that security is a *design dimension*: a
//! hospital picks a pyramid point per device class, so a real ward
//! mixes toy test rigs, K-163 pacemakers, K-233 pacemakers,
//! symmetric-only sensors and K-283 uplinks in one deployment. The
//! [`GatewayHub`] erases the curve at the API boundary:
//!
//! * devices advertise their [`SecurityProfile`] in a wire-level
//!   [`Negotiate`](medsec_protocols::wire::MsgType::Negotiate) hello,
//!   which the hub validates with reject-on-unknown semantics;
//! * admitted devices are bucketed into per-curve **lanes** —
//!   enum-dispatched (`Lane`), so the hot loop pays one `match` per
//!   *bucket*, never a `dyn` call per device — each holding one
//!   [`SecuritySuite`] server per protocol;
//! * every protocol is served by one generic wave, `serve_wave`, in
//!   the suite lifecycle's explicit device and server phases:
//!
//! ```text
//! device_open            devices (commit-first protocols commit)
//! hello_batch            server: one fixed-base-comb batch per wave
//! device_turn            devices
//! server_verify_batch    server: one inversion per ECDH batch, lockstep-ladder mul_add
//! ```
//!
//! The batch driver ([`GatewayHub::run_at`]) and the streaming front
//! end ([`GatewayHub::run_streaming`]) both reach the crypto through
//! `serve_admitted` and that one wave.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use medsec_ec::{CurveSpec, Toy17, B163, K163, K233, K283};
use medsec_obs::{Event, EventKind, EventLog, Stage, Telemetry};
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::mutual::{self, SessionOutcome};
use medsec_protocols::suite::{
    CurveId, MutualServer, MutualSuite, PhServer, PhSuite, ProtocolId, SchnorrSuite,
    SchnorrVerifier, SecurityProfile, SecuritySuite, SuiteError, SuiteOutcome, SymmetricGate,
    SymmetricSuite,
};
use medsec_protocols::wire;
use medsec_protocols::EnergyLedger;
use medsec_rng::SplitMix64;

use crate::registry::{provision_lane, DeviceId, DeviceProfile, DeviceState, FleetDevice};
use crate::report::{FleetReport, ProfileStats};
use crate::scheduler::{LaneScheduler, LaneWorker};
use crate::sim::{is_forged_target, unix_ms_now, FleetConfig};
use crate::telemetry::WorkerObs;

/// One curve's worth of serving state, as
/// [`provision_lane`] built it: one suite server per protocol and the
/// devices assigned here.
#[derive(Debug)]
pub struct CurveLane<C: CurveSpec> {
    /// The curve this lane is monomorphized over.
    pub curve: CurveId,
    /// Mutual-authentication server.
    pub mutual: MutualServer<C>,
    /// Peeters–Hermans server.
    pub ph: PhServer<C>,
    /// Schnorr verification server.
    pub schnorr: SchnorrVerifier<C>,
    /// Symmetric challenge–response server (challenge-binding gate
    /// over the key table).
    pub symmetric: SymmetricGate,
    /// Devices bucketed into this lane, behind per-device locks.
    pub devices: Vec<Mutex<FleetDevice<C>>>,
}

/// A lane with its curve erased: enum dispatch, resolved once per
/// serving bucket (no `dyn` in the per-device hot loop).
#[derive(Debug)]
pub enum Lane {
    /// Toy17 lane.
    Toy17(CurveLane<Toy17>),
    /// B-163 lane.
    B163(CurveLane<B163>),
    /// K-163 lane.
    K163(CurveLane<K163>),
    /// K-233 lane.
    K233(CurveLane<K233>),
    /// K-283 lane.
    K283(CurveLane<K283>),
}

/// Run `$body` with `$l` bound to the lane's monomorphized
/// [`CurveLane`].
macro_rules! with_lane {
    ($lane:expr, $l:ident => $body:expr) => {
        match $lane {
            $crate::hub::Lane::Toy17($l) => $body,
            $crate::hub::Lane::B163($l) => $body,
            $crate::hub::Lane::K163($l) => $body,
            $crate::hub::Lane::K233($l) => $body,
            $crate::hub::Lane::K283($l) => $body,
        }
    };
}
pub(crate) use with_lane;

/// The curve-erased serving front-end for one (possibly heterogeneous)
/// fleet.
#[derive(Debug)]
pub struct GatewayHub {
    lanes: Vec<Lane>,
    /// Global device index → (lane, slot-in-lane).
    index: Vec<(usize, usize)>,
}

/// Worker-local tallies merged after the scope joins; every session
/// count in the [`FleetReport`] comes from here.
#[derive(Debug, Default)]
pub(crate) struct HubTally {
    pub(crate) forged_rejected: u64,
    pub(crate) forged_accepted: u64,
    pub(crate) device_rejections: u64,
    /// Sessions a server accepted with the wrong outcome (someone
    /// else's telemetry or tag id).
    pub(crate) mismatches: u64,
    pub(crate) negotiation_rejected: u64,
    /// Mutual sessions whose telemetry verified (`Established`).
    pub(crate) established: u64,
    /// Peeters–Hermans tags identified (`Identified`).
    pub(crate) identified: u64,
    /// Symmetric and Schnorr sessions accepted (`Authenticated`).
    pub(crate) authenticated: u64,
    /// Non-PH sessions a server rejected.
    pub(crate) server_rejected: u64,
    /// Peeters–Hermans sessions a server rejected.
    pub(crate) ph_failed: u64,
    /// Server rejections that were wire-decode failures.
    pub(crate) decode_failures: u64,
    pub(crate) server_energy_j: f64,
    /// profile id → (sessions ok, sessions failed).
    pub(crate) per_profile: HashMap<u8, (u64, u64)>,
}

impl HubTally {
    fn ok_profile(&mut self, profile_id: u8) {
        self.per_profile.entry(profile_id).or_default().0 += 1;
    }

    fn fail_profile(&mut self, profile_id: u8) {
        self.per_profile.entry(profile_id).or_default().1 += 1;
    }

    pub(crate) fn merge(&mut self, other: HubTally) {
        self.forged_rejected += other.forged_rejected;
        self.forged_accepted += other.forged_accepted;
        self.device_rejections += other.device_rejections;
        self.mismatches += other.mismatches;
        self.negotiation_rejected += other.negotiation_rejected;
        self.established += other.established;
        self.identified += other.identified;
        self.authenticated += other.authenticated;
        self.server_rejected += other.server_rejected;
        self.ph_failed += other.ph_failed;
        self.decode_failures += other.decode_failures;
        self.server_energy_j += other.server_energy_j;
        for (id, (ok, failed)) in other.per_profile {
            let e = self.per_profile.entry(id).or_default();
            e.0 += ok;
            e.1 += failed;
        }
    }
}

/// Validate a device's wire-level Negotiate hello against what the
/// receiving lane provisioned: the frame must decode (known version,
/// curve and protocol bytes), resolve to a registry profile that is
/// self-consistent, land on the lane's curve, and match the profile
/// the device was actually provisioned at. Anything else is rejected
/// before a single point multiplication is spent.
pub fn admit_negotiate(
    frame: &[u8],
    provisioned: &SecurityProfile,
    lane_curve: CurveId,
) -> Result<ProtocolId, SuiteError> {
    let decoded = wire::decode_negotiate(frame).map_err(SuiteError::Decode)?;
    let profile = SecurityProfile::from_negotiate(&decoded).ok_or(SuiteError::Negotiation)?;
    // Match on the wire-carried identity (curve × protocol). The
    // countermeasure level and energy budget are provisioning-side
    // policy, not wire state — a ward provisioned at an overridden
    // budget still negotiates with its canonical profile id.
    if profile.curve != lane_curve || profile.id() != provisioned.id() {
        return Err(SuiteError::Negotiation);
    }
    Ok(profile.protocol)
}

/// Provision a run's observability cold, before any worker starts: the
/// event ring is the only allocation, the backend selection is its
/// first event, and the invclock window opens before any worker can
/// reach `batch_invert`. `None` unless `cfg.observe`.
pub(crate) fn open_events(cfg: &FleetConfig) -> Option<EventLog> {
    let ev = cfg
        .observe
        .then(|| EventLog::new(cfg.event_capacity.max(2)))?;
    let name = medsec_gf2m::backend::active_backend_name();
    let mut tag = [0u8; 8];
    for (slot, b) in tag.iter_mut().zip(name.bytes()) {
        *slot = b;
    }
    ev.log(Event::new(
        EventKind::BackendSelected,
        0,
        0,
        u64::from_le_bytes(tag),
    ));
    medsec_gf2m::invclock::set_enabled(true);
    Some(ev)
}

/// The gateway's wall-power ledger template (same calibrated models as
/// the devices; it exists to size the rack).
pub(crate) fn server_ledger() -> EnergyLedger {
    EnergyLedger::new(
        EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
        RadioModel::first_order_default(),
        2.0,
    )
}

impl GatewayHub {
    /// Provision a hub from a fleet configuration: one lane per curve
    /// that appears in the ward list, in first-appearance order.
    ///
    /// # Panics
    ///
    /// If [`FleetConfig::validate`] rejects `cfg`: a fleet of zero
    /// devices. Validate a config built from input before provisioning.
    pub fn provision(cfg: &FleetConfig) -> GatewayHub {
        if let Err(e) = cfg.validate() {
            panic!("invalid fleet config: {e}");
        }
        // Resolve the gf2m backend selection (env read + CPUID) during
        // provisioning, outside any timed serving region.
        medsec_gf2m::select_backend();
        // Expand the wards into (global id, profile) assignments, one
        // lane per curve in first-appearance order; ids run sequentially
        // in ward order across the fleet.
        let mut buckets: Vec<(CurveId, Vec<(DeviceId, SecurityProfile)>)> = Vec::new();
        let mut index = Vec::new();
        for ward in cfg.wards.iter().filter(|w| w.devices > 0) {
            let curve = ward.profile.curve;
            let lane = match buckets.iter().position(|(c, _)| *c == curve) {
                Some(lane) => lane,
                None => {
                    buckets.push((curve, Vec::new()));
                    buckets.len() - 1
                }
            };
            let bucket = &mut buckets[lane].1;
            for _ in 0..ward.devices {
                let id = index.len() as DeviceId;
                index.push((lane, bucket.len()));
                bucket.push((id, ward.profile));
            }
        }

        // Lane keys are salted by curve, so two lanes never share a key
        // stream.
        let lanes = buckets
            .iter()
            .map(|(curve, assignments)| {
                let seed = cfg.seed ^ ((*curve as u64) << 56);
                build_lane(*curve, assignments, cfg.shards, seed)
            })
            .collect();
        GatewayHub { lanes, index }
    }

    /// Number of devices across all lanes.
    pub fn device_count(&self) -> usize {
        self.index.len()
    }

    /// The lanes (read access for tests/benches).
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// (lane, slot-in-lane) of a global device index.
    pub(crate) fn placement(&self, global: usize) -> (usize, usize) {
        self.index[global]
    }

    /// Drive every provisioned device through one authenticated
    /// session and aggregate the run into a [`FleetReport`] with a
    /// per-profile breakdown. The run's wall-clock start is stamped
    /// here, once, outside every serving path.
    pub fn run(&self, cfg: &FleetConfig) -> FleetReport {
        self.run_at(cfg, unix_ms_now())
    }

    /// [`run`](Self::run) with the wall-clock start passed in (so
    /// callers batching several runs stamp the clock themselves and no
    /// hot path ever touches `SystemTime`).
    pub fn run_at(&self, cfg: &FleetConfig, started_unix_ms: u64) -> FleetReport {
        let threads = cfg.threads.max(1);
        // Lane-affine scheduling: one chunked queue per curve lane, so
        // a claimed batch never mixes lanes (the batched crypto paths
        // keep their full amortization) and chunk boundaries — hence
        // the exact crypto work — are identical at every thread count.
        let lane_sizes: Vec<usize> = self
            .lanes
            .iter()
            .map(|lane| with_lane!(lane, l => l.devices.len()))
            .collect();
        let scheduler = LaneScheduler::new(&lane_sizes, cfg.batch_size);

        let events = open_events(cfg);
        let start = Instant::now();
        let outcomes: Vec<(HubTally, WorkerObs)> =
            scheduler.run_workers(threads, |w| self.worker(w, cfg, events.as_ref()));
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);

        let mut tally = HubTally::default();
        let mut telemetry = self.close_events(events);
        for (t, obs) in outcomes {
            tally.merge(t);
            if let (Some(tele), Some(rec)) = (telemetry.as_mut(), obs.into_recorder()) {
                tele.absorb(&rec);
            }
        }

        self.finalize_report(threads, tally, wall_s, telemetry, started_unix_ms)
    }

    /// Close the observability window [`open_events`] opened and start
    /// the run's telemetry frame: one lane per curve lane, plus the
    /// event ring's snapshot.
    pub(crate) fn close_events(&self, events: Option<EventLog>) -> Option<Telemetry> {
        let ev = events?;
        medsec_gf2m::invclock::set_enabled(false);
        let labels: Vec<String> = self
            .lanes
            .iter()
            .map(|lane| with_lane!(lane, l => l.curve.name().to_string()))
            .collect();
        Some(Telemetry::new(&labels, ev.snapshot()))
    }

    /// Fold a run's merged [`HubTally`] plus the lanes' post-run device
    /// ledgers into a [`FleetReport`]. Shared by the batch driver ([`run_at`](Self::run_at))
    /// and the streaming front end ([`run_streaming`](Self::run_streaming)),
    /// so both report through one aggregation path.
    pub(crate) fn finalize_report(
        &self,
        threads: usize,
        tally: HubTally,
        wall_s: f64,
        telemetry: Option<Telemetry>,
        started_unix_ms: u64,
    ) -> FleetReport {
        let total = self.device_count();
        // Device-side energy, aggregated fleet-wide and per profile.
        struct ProfileAgg {
            profile: SecurityProfile,
            devices: usize,
            energy_j: f64,
        }
        let mut device_energy_total = 0.0f64;
        let mut device_energy_max = 0.0f64;
        let mut bytes_on_air = 0u64;
        let mut battery_sessions_sum = 0.0f64;
        let mut battery_sessions_n = 0u64;
        let mut per_profile: HashMap<u8, ProfileAgg> = HashMap::new();
        let mut shards = 0usize;
        for lane in &self.lanes {
            with_lane!(lane, l => {
                for cell in &l.devices {
                    let d = cell.lock().expect("device poisoned");
                    let e = d.ledger.total();
                    device_energy_total += e;
                    device_energy_max = device_energy_max.max(e);
                    bytes_on_air += d.ledger.bytes_on_air() as u64;
                    if e > 0.0 {
                        battery_sessions_sum += d.profile.kind.battery_j() / e;
                        battery_sessions_n += 1;
                    }
                    let agg = per_profile
                        .entry(d.profile.suite.id())
                        .or_insert_with(|| ProfileAgg {
                            profile: d.profile.suite,
                            devices: 0,
                            energy_j: 0.0,
                        });
                    agg.devices += 1;
                    agg.energy_j += e;
                }
                shards += l.mutual.pending().shard_count();
            });
        }

        let mut profile_ids: Vec<u8> = per_profile.keys().copied().collect();
        profile_ids.sort_unstable();
        let profiles: Vec<ProfileStats> = profile_ids
            .into_iter()
            .map(|pid| {
                let agg = &per_profile[&pid];
                let (ok, failed) = tally.per_profile.get(&pid).copied().unwrap_or((0, 0));
                let energy_per_session = if ok > 0 {
                    agg.energy_j / ok as f64
                } else {
                    0.0
                };
                ProfileStats {
                    profile: agg.profile.name(),
                    curve: agg.profile.curve.name().to_string(),
                    protocol: agg.profile.protocol.name().to_string(),
                    countermeasures: agg.profile.countermeasures.name().to_string(),
                    devices: agg.devices,
                    sessions_ok: ok,
                    sessions_failed: failed,
                    sessions_per_sec: ok as f64 / wall_s,
                    energy_per_session_j: energy_per_session,
                    energy_budget_j: agg.profile.energy_budget_j,
                    within_budget: energy_per_session <= agg.profile.energy_budget_j,
                }
            })
            .collect();

        let completed = tally.established + tally.identified + tally.authenticated;
        FleetReport {
            devices: total,
            threads,
            shards,
            backend: medsec_gf2m::backend::active_backend_name(),
            sessions_ok: tally.established + tally.authenticated,
            sessions_failed: tally.device_rejections
                + tally.forged_accepted
                + tally.mismatches
                + tally.server_rejected
                + tally.negotiation_rejected,
            frames_ok: tally.established,
            ph_identified: tally.identified,
            ph_failed: tally.ph_failed,
            forged_rejected: tally.forged_rejected,
            decode_failures: tally.decode_failures,
            wall_s,
            sessions_per_sec: completed as f64 / wall_s,
            frames_per_sec: tally.established as f64 / wall_s,
            device_energy_total_j: device_energy_total,
            energy_per_session_j: if completed > 0 {
                device_energy_total / completed as f64
            } else {
                0.0
            },
            device_energy_max_j: device_energy_max,
            server_energy_j: tally.server_energy_j,
            bytes_on_air,
            mean_sessions_per_battery: if battery_sessions_n > 0 {
                battery_sessions_sum / battery_sessions_n as f64
            } else {
                0.0
            },
            profiles,
            started_unix_ms,
            telemetry,
        }
    }

    /// One worker: claim same-lane batches from the lane-affine
    /// scheduler (home lane first, whole-chunk steals once drained),
    /// admit each device's Negotiate hello and serve the bucket. A
    /// batch is a contiguous slot range inside one lane, so the
    /// per-worker buffers are reused and the dispatch is one lane
    /// `match` per batch — the serving code below it is monomorphized.
    fn worker(
        &self,
        mut w: LaneWorker<'_>,
        cfg: &FleetConfig,
        events: Option<&EventLog>,
    ) -> (HubTally, WorkerObs) {
        let seed = cfg.seed ^ 0xB47C_0000_0000_0000 ^ w.index as u64;
        let mut state = WorkerState::new(cfg, events, self.lanes.len(), seed);
        let mut jobs: Vec<(usize, ProtocolId)> = Vec::with_capacity(cfg.batch_size);
        let mut parts = Partitions::default();

        // lint: hot-path — the wave loop claims and serves batches until
        // the fleet drains; per-wave state (rng, ledger, scratch, obs)
        // is allocated once above and reused across every batch.
        while let Some(batch) = w.next_batch() {
            with_lane!(&self.lanes[batch.lane], l => {
                admit_bucket(l, batch.lane, batch.slots.clone(), &mut jobs, &mut state);
                serve_admitted(l, batch.lane, &jobs, &mut parts, &mut state);
            });
        }
        // lint: hot-path-end

        // Scheduler telemetry rides the existing recorder seam: how
        // much of this worker's work was home-lane vs stolen, and how
        // drained the queues were at claim time.
        let s = w.stats();
        state.obs.count("sched_batches_home", s.home_batches);
        state.obs.count("sched_batches_stolen", s.stolen_batches);
        state.obs.count("sched_jobs_served", s.jobs);
        state.obs.count("sched_queue_depth_sum", s.queue_depth_sum);
        state.finish()
    }
}

/// One serving worker's private state, reused across every wave it
/// serves: its server RNG stream and ledger, its tallies and recorder
/// (the crypto's batch scratch is the thread's own, kept by the
/// callees). Owned by exactly one thread and merged after the scope
/// joins.
pub(crate) struct WorkerState<'a> {
    cfg: &'a FleetConfig,
    events: Option<&'a EventLog>,
    rng: SplitMix64,
    ledger: EnergyLedger,
    tally: HubTally,
    pub(crate) obs: WorkerObs,
}

impl<'a> WorkerState<'a> {
    /// A worker over `lanes` lanes drawing server randomness from
    /// `seed`.
    pub(crate) fn new(
        cfg: &'a FleetConfig,
        events: Option<&'a EventLog>,
        lanes: usize,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            events,
            rng: SplitMix64::new(seed),
            ledger: server_ledger(),
            tally: HubTally::default(),
            obs: WorkerObs::new(events.is_some(), lanes),
        }
    }

    /// The worker's tally (server energy folded in) and recorder.
    pub(crate) fn finish(mut self) -> (HubTally, WorkerObs) {
        self.tally.server_energy_j = self.ledger.total();
        (self.tally, self.obs)
    }

    fn log(&self, kind: EventKind, lane_idx: usize, device: DeviceId, detail: u64) {
        if let Some(ev) = self.events {
            ev.log(Event::new(kind, lane_idx as u8, device, detail));
        }
    }

    /// A device could not play its part (no state for the protocol, or
    /// it rejected the server's hello).
    fn device_rejected(&mut self, lane_idx: usize, s: &Session) {
        self.tally.device_rejections += 1;
        self.tally.fail_profile(s.profile);
        self.log(EventKind::AuthFailure, lane_idx, s.id, 0);
    }

    /// The server rejected a hello request or a closing frame.
    fn server_rejected(
        &mut self,
        lane_idx: usize,
        s: &Session,
        protocol: ProtocolId,
        e: &SuiteError,
    ) {
        if protocol == ProtocolId::Ph {
            self.tally.ph_failed += 1;
        } else {
            self.tally.server_rejected += 1;
        }
        if matches!(e, SuiteError::Decode(_)) {
            self.tally.decode_failures += 1;
        }
        self.tally.fail_profile(s.profile);
        self.log(EventKind::AuthFailure, lane_idx, s.id, 0);
    }

    /// The server accepted a session with `outcome`. It completes only
    /// with the outcome this device should get: its own telemetry back,
    /// its own tag id, or plain authentication. Returns whether it did.
    fn server_accepted(&mut self, lane_idx: usize, s: &Session, outcome: &SuiteOutcome) -> bool {
        let (ok, completed) = match outcome {
            SuiteOutcome::Established { telemetry } => {
                (telemetry == s.sent, &mut self.tally.established)
            }
            SuiteOutcome::Identified(tag) => (*tag == s.id, &mut self.tally.identified),
            SuiteOutcome::Authenticated => (true, &mut self.tally.authenticated),
        };
        if ok {
            *completed += 1;
            self.tally.ok_profile(s.profile);
            self.log(EventKind::SessionClose, lane_idx, s.id, 0);
        } else {
            self.tally.mismatches += 1;
            self.tally.fail_profile(s.profile);
            self.log(EventKind::AuthFailure, lane_idx, s.id, 0);
        }
        ok
    }
}

/// Per-worker protocol partition of one bucket, reused across buckets
/// so the steady-state serving loop performs no per-batch allocation
/// for the partition step.
#[derive(Debug, Default)]
pub(crate) struct Partitions {
    mutual: Vec<usize>,
    ph: Vec<usize>,
    sym: Vec<usize>,
    schnorr: Vec<usize>,
}

/// Build one lane, dispatching the curve choice into a monomorphized
/// [`CurveLane`].
fn build_lane(
    curve: CurveId,
    assignments: &[(DeviceId, SecurityProfile)],
    shards: usize,
    seed: u64,
) -> Lane {
    match curve {
        CurveId::Toy17 => Lane::Toy17(provision_lane(curve, assignments, shards, seed)),
        CurveId::B163 => Lane::B163(provision_lane(curve, assignments, shards, seed)),
        CurveId::K163 => Lane::K163(provision_lane(curve, assignments, shards, seed)),
        CurveId::K233 => Lane::K233(provision_lane(curve, assignments, shards, seed)),
        CurveId::K283 => Lane::K283(provision_lane(curve, assignments, shards, seed)),
    }
}

/// The batch driver's admission step: every device in `slots` sends
/// its Negotiate hello, and the admitted ones land in `jobs` with their
/// *negotiated* protocol (not out-of-band registry state).
fn admit_bucket<C: CurveSpec>(
    lane: &CurveLane<C>,
    lane_idx: usize,
    slots: Range<usize>,
    jobs: &mut Vec<(usize, ProtocolId)>,
    w: &mut WorkerState<'_>,
) {
    // A batch from the lane-affine scheduler is a slot range strictly
    // inside this lane — re-checked here so a scheduler regression
    // that mixes lanes trips immediately in debug builds.
    debug_assert!(
        slots.end <= lane.devices.len(),
        "batch {slots:?} escapes lane {lane_idx} ({} devices)",
        lane.devices.len()
    );
    let span = w.obs.begin();
    jobs.clear();
    for slot in slots {
        let mut guard = lane.devices[slot].lock().expect("device poisoned");
        let d = &mut *guard;
        let frame = d.profile.suite.negotiate_frame();
        d.ledger.tx(frame.len());
        w.ledger.rx(frame.len());
        match admit_negotiate(&frame, &d.profile.suite, lane.curve) {
            Ok(proto) => {
                w.log(EventKind::SessionOpen, lane_idx, d.profile.id, proto as u64);
                jobs.push((slot, proto));
            }
            Err(_) => {
                w.tally.negotiation_rejected += 1;
                w.tally.fail_profile(d.profile.suite.id());
                w.log(EventKind::NegotiateRejected, lane_idx, d.profile.id, 0);
            }
        }
    }
    w.obs.end(span, lane_idx, Stage::Admit);
}

/// Serve a bucket of admitted jobs — lane-local device slots paired
/// with their negotiated protocol — through one [`serve_wave`] per
/// protocol. The batch driver admits its buckets in `admit_bucket`;
/// the streaming front end runs its admission ladder (token buckets →
/// `admit_negotiate` → bounded lane queues) on the ingest side, so by
/// the time a job reaches here the only thing left is the crypto.
///
/// Each wave keys server state by device id, so a device appears at
/// most once per bucket.
pub(crate) fn serve_admitted<C: CurveSpec>(
    lane: &CurveLane<C>,
    lane_idx: usize,
    jobs: &[(usize, ProtocolId)],
    parts: &mut Partitions,
    w: &mut WorkerState<'_>,
) {
    debug_assert!(
        jobs.iter()
            .enumerate()
            .all(|(i, (slot, _))| slot < &lane.devices.len()
                && !jobs[..i].iter().any(|(s, _)| s == slot)),
        "a device appears twice in one bucket of lane {lane_idx}"
    );
    let span = w.obs.begin();
    let Partitions {
        mutual,
        ph,
        sym,
        schnorr,
    } = parts;
    for part in [&mut *mutual, &mut *ph, &mut *sym, &mut *schnorr] {
        part.clear();
    }
    for &(slot, proto) in jobs {
        match proto {
            ProtocolId::Mutual => mutual.push(slot),
            ProtocolId::Ph => ph.push(slot),
            ProtocolId::Symmetric => sym.push(slot),
            ProtocolId::Schnorr => schnorr.push(slot),
        }
    }
    w.obs.end(span, lane_idx, Stage::Assemble);

    forged_probes(lane, lane_idx, mutual, w);
    serve_wave::<C, MutualSuite<C>>(lane, lane_idx, mutual, w);
    serve_wave::<C, PhSuite<C>>(lane, lane_idx, ph, w);
    serve_wave::<C, SymmetricSuite>(lane, lane_idx, sym, w);
    serve_wave::<C, SchnorrSuite<C>>(lane, lane_idx, schnorr, w);
}

/// Detail word marking an [`EventKind::AuthFailure`] caused by a
/// deliberately forged probe (expected to fail), distinguishing it
/// from organic failures (detail 0) in the forensic trail.
const FORGED_PROBE: u64 = 1;

/// §4 flood scenario, before the mutual wave: a slice of devices first
/// receives a forged hello, which `ServerFirst` ordering must reject
/// cheaply. The rejection is device-side work, so it books as
/// `DeviceTurn`; the (by-design) MAC failure is a forensic
/// `AuthFailure` event.
fn forged_probes<C: CurveSpec>(
    lane: &CurveLane<C>,
    lane_idx: usize,
    jobs: &[usize],
    w: &mut WorkerState<'_>,
) {
    if jobs.is_empty() {
        return;
    }
    let span = w.obs.begin();
    for &slot in jobs {
        let mut guard = lane.devices[slot].lock().expect("device poisoned");
        let FleetDevice {
            profile,
            state: DeviceState::Mutual(device),
            rng,
            ledger,
        } = &mut *guard
        else {
            continue;
        };
        if !is_forged_target(profile.id, w.cfg.forged_per_mille) {
            continue;
        }
        let forged = mutual::forged_hello::<C>(w.rng.as_fn());
        match device.run_session(&forged, profile.kind.telemetry(), rng.as_fn(), ledger) {
            SessionOutcome::ServerRejected => {
                w.tally.forged_rejected += 1;
                w.log(EventKind::AuthFailure, lane_idx, profile.id, FORGED_PROBE);
            }
            SessionOutcome::Established { .. } => w.tally.forged_accepted += 1,
        }
    }
    w.obs.end(span, lane_idx, Stage::DeviceTurn);
}

/// A device's protocol state machine, RNG stream and energy ledger,
/// borrowed together for one suite call (`None`: the device runs
/// another protocol).
type DeviceParts<'a, D> = Option<(&'a mut D, &'a mut SplitMix64, &'a mut EnergyLedger)>;

/// Per-protocol glue between a lane and a [`SecuritySuite`]: which
/// lane server speaks the suite and which [`DeviceState`] variant holds
/// its device state machine.
trait LaneSuite<C: CurveSpec>: SecuritySuite {
    fn server(lane: &CurveLane<C>) -> &Self::Server;
    fn device(d: &mut FleetDevice<C>) -> DeviceParts<'_, Self::Device>;
}

impl<C: CurveSpec> LaneSuite<C> for MutualSuite<C> {
    fn server(lane: &CurveLane<C>) -> &Self::Server {
        &lane.mutual
    }
    fn device(d: &mut FleetDevice<C>) -> DeviceParts<'_, Self::Device> {
        match &mut d.state {
            DeviceState::Mutual(device) => Some((device, &mut d.rng, &mut d.ledger)),
            _ => None,
        }
    }
}

impl<C: CurveSpec> LaneSuite<C> for PhSuite<C> {
    fn server(lane: &CurveLane<C>) -> &Self::Server {
        &lane.ph
    }
    fn device(d: &mut FleetDevice<C>) -> DeviceParts<'_, Self::Device> {
        match &mut d.state {
            DeviceState::Ph(tag) => Some((tag, &mut d.rng, &mut d.ledger)),
            _ => None,
        }
    }
}

impl<C: CurveSpec> LaneSuite<C> for SymmetricSuite {
    fn server(lane: &CurveLane<C>) -> &Self::Server {
        &lane.symmetric
    }
    fn device(d: &mut FleetDevice<C>) -> DeviceParts<'_, Self::Device> {
        match &mut d.state {
            DeviceState::Symmetric(sym) => Some((sym, &mut d.rng, &mut d.ledger)),
            _ => None,
        }
    }
}

impl<C: CurveSpec> LaneSuite<C> for SchnorrSuite<C> {
    fn server(lane: &CurveLane<C>) -> &Self::Server {
        &lane.schnorr
    }
    fn device(d: &mut FleetDevice<C>) -> DeviceParts<'_, Self::Device> {
        match &mut d.state {
            DeviceState::Schnorr(badge) => Some((badge, &mut d.rng, &mut d.ledger)),
            _ => None,
        }
    }
}

/// One device's place in a wave.
struct Session {
    slot: usize,
    id: DeviceId,
    /// Profile id, for the per-profile tally.
    profile: u8,
    /// Telemetry payload the device sends (empty where the protocol
    /// carries none).
    sent: &'static [u8],
}

impl Session {
    fn new(slot: usize, p: &DeviceProfile) -> Self {
        Self {
            slot,
            id: p.id,
            profile: p.suite.id(),
            sent: p.kind.telemetry(),
        }
    }
}

/// Serve one wave of same-lane devices speaking suite `S`, in the
/// lifecycle's explicit phases: `device_open` on every device, one
/// server `hello_batch`, `device_turn` on every device, one server
/// `server_verify_batch`. Suite batch results are positional.
///
/// When observability is on, every session the wave completes books
/// one elapsed-since-wave-start latency (a batch wave finishes its
/// sessions together, so they honestly share one observation).
fn serve_wave<C: CurveSpec, S: LaneSuite<C>>(
    lane: &CurveLane<C>,
    lane_idx: usize,
    jobs: &[usize],
    w: &mut WorkerState<'_>,
) {
    if jobs.is_empty() {
        return;
    }
    let wave = w.obs.wave_start();

    // Device phase: open every session (commit-first protocols commit).
    let span = w.obs.begin();
    let mut sessions: Vec<Session> = Vec::with_capacity(jobs.len());
    let mut opens: Vec<Option<Bytes>> = Vec::with_capacity(jobs.len());
    for &slot in jobs {
        let mut guard = lane.devices[slot].lock().expect("device poisoned");
        let s = Session::new(slot, &guard.profile);
        match S::device(&mut guard) {
            Some((device, rng, ledger)) => {
                opens.push(S::device_open(device, rng.as_fn(), ledger));
                sessions.push(s);
            }
            None => w.device_rejected(lane_idx, &s),
        }
    }
    let open_refs: Vec<(DeviceId, Option<&[u8]>)> = sessions
        .iter()
        .zip(&opens)
        .map(|(s, open)| (s.id, open.as_deref()))
        .collect();
    w.obs.end(span, lane_idx, Stage::DeviceTurn);

    // Server phase: one hello batch for the wave.
    let span = w.obs.begin();
    let hellos = S::hello_batch(S::server(lane), &open_refs, w.rng.as_fn(), &mut w.ledger);
    w.obs.end(span, lane_idx, Stage::Hello);

    // Device phase: every device answers its hello.
    let span = w.obs.begin();
    let mut closings: Vec<(Session, Bytes)> = Vec::with_capacity(sessions.len());
    for (s, (_, hello)) in sessions.into_iter().zip(hellos) {
        let hello = match hello {
            Ok(hello) => hello,
            Err(e) => {
                w.server_rejected(lane_idx, &s, S::PROTOCOL, &e);
                continue;
            }
        };
        let mut guard = lane.devices[s.slot].lock().expect("device poisoned");
        let turn = S::device(&mut guard).map(|(device, rng, ledger)| {
            S::device_turn(device, &hello, s.sent, rng.as_fn(), ledger)
        });
        match turn {
            Some(Ok(frame)) => closings.push((s, frame)),
            _ => w.device_rejected(lane_idx, &s),
        }
    }
    let frame_refs: Vec<(DeviceId, &[u8])> = closings
        .iter()
        .map(|(s, frame)| (s.id, frame.as_ref()))
        .collect();
    w.obs.end(span, lane_idx, Stage::DeviceTurn);

    // Server phase: one verification batch for the wave.
    let span = w.obs.begin();
    let verdicts =
        S::server_verify_batch(S::server(lane), &frame_refs, w.rng.as_fn(), &mut w.ledger);
    let mut done = 0u64;
    for ((s, _), (_, verdict)) in closings.iter().zip(verdicts) {
        match verdict {
            Ok(outcome) => done += u64::from(w.server_accepted(lane_idx, s, &outcome)),
            Err(e) => w.server_rejected(lane_idx, s, S::PROTOCOL, &e),
        }
    }
    w.obs.end(span, lane_idx, Stage::Verify);

    if let (Some(t0), true) = (wave, done > 0) {
        w.obs
            .session_latency(lane_idx, t0.elapsed().as_nanos() as u64, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::mixed_hospital_wards;

    #[test]
    fn mixed_fleet_completes_every_session() {
        let wards = mixed_hospital_wards(1);
        let total: usize = wards.iter().map(|w| w.devices).sum();
        let cfg = FleetConfig {
            threads: 4,
            shards: 4,
            batch_size: 8,
            forged_per_mille: 0,
            wards,
            ..FleetConfig::default()
        };
        let report = crate::sim::run_fleet(&cfg);
        assert_eq!(report.devices, total);
        assert_eq!(report.sessions_completed(), total as u64);
        assert_eq!(report.sessions_failed + report.ph_failed, 0);
        // Per-profile rows cover every ward, each within budget.
        assert_eq!(report.profiles.len(), 7);
        let curves: std::collections::HashSet<&str> =
            report.profiles.iter().map(|p| p.curve.as_str()).collect();
        assert!(curves.len() >= 3, "mixes at least three curves: {curves:?}");
        let protocols: std::collections::HashSet<&str> = report
            .profiles
            .iter()
            .map(|p| p.protocol.as_str())
            .collect();
        assert!(
            protocols.len() >= 2,
            "mixes at least two protocols: {protocols:?}"
        );
        for p in &report.profiles {
            assert_eq!(p.sessions_ok, p.devices as u64, "{}", p.profile);
            assert_eq!(p.sessions_failed, 0, "{}", p.profile);
            assert!(p.within_budget, "{} exceeded its budget", p.profile);
            assert!(p.energy_per_session_j > 0.0);
        }
        // Symmetric sessions must be far cheaper than PKC ones.
        let sym = report
            .profiles
            .iter()
            .find(|p| p.protocol == "symmetric")
            .unwrap();
        let k163 = report
            .profiles
            .iter()
            .find(|p| p.profile == "mutual@K163")
            .unwrap();
        assert!(sym.energy_per_session_j < k163.energy_per_session_j / 2.0);
        // Telemetry is strictly opt-in.
        assert!(report.telemetry.is_none());
        assert!(report.started_unix_ms > 0);
    }

    #[test]
    fn observed_mixed_fleet_attributes_every_session_and_stage() {
        let wards = mixed_hospital_wards(1);
        let total: u64 = wards.iter().map(|w| w.devices as u64).sum();
        let cfg = FleetConfig {
            threads: 2,
            shards: 4,
            batch_size: 8,
            forged_per_mille: 25,
            wards,
            observe: true,
            event_capacity: 512,
            ..FleetConfig::default()
        };
        let report = crate::sim::run_fleet(&cfg);
        assert_eq!(report.sessions_completed(), total);
        let t = report.telemetry.as_ref().expect("observe was on");

        // One telemetry lane per serving lane, labelled by curve, and
        // every completed session appears in exactly one latency
        // histogram.
        assert_eq!(t.lanes.len(), 5);
        let recorded: u64 = t.lanes.iter().map(|l| l.latency.count()).sum();
        assert_eq!(recorded, total, "every session gets a latency sample");
        for lane in &t.lanes {
            assert!(!lane.label.is_empty());
            if lane.latency.count() == 0 {
                continue;
            }
            let s = lane.latency.snapshot();
            assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns);
            assert!(s.p999_ns <= s.max_ns);
            // A served lane booked time somewhere in the pipeline.
            assert!(
                lane.total_stage_ns() > 0,
                "lane {} booked no time",
                lane.label
            );
            assert!(lane.stage_calls[Stage::DeviceTurn.index()] > 0);
        }
        // The ECC lanes share batch inversions; the attribution seam
        // must surface them as their own stage.
        assert!(
            t.lanes
                .iter()
                .any(|l| l.stage_ns[Stage::BatchInvert.index()] > 0),
            "batch_invert time must be attributed"
        );

        // Forensics: one open + one close per completed session, the
        // backend-selection event, and the forged probes as failures.
        assert_eq!(t.events.count(EventKind::SessionOpen), total);
        assert_eq!(t.events.count(EventKind::SessionClose), total);
        assert_eq!(t.events.count(EventKind::BackendSelected), 1);
        assert!(t.events.count(EventKind::AuthFailure) > 0, "forged probes");
        assert_eq!(t.events.dropped, 0, "512-slot ring holds this run");
        // Sequence numbers in the snapshot are strictly increasing.
        for pair in t.events.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }

        // The JSON and Prometheus exports materialize the same frame.
        let j = report.to_json();
        medsec_obs::json::validate(&j).expect("observed report JSON parses");
        assert!(j.contains("\"telemetry\":{\"lanes\":["));
        let prom = report.prometheus().expect("observed");
        assert!(prom.contains("medsec_session_latency_seconds_count"));
        assert!(prom.contains("medsec_events_total{kind=\"session_open\"}"));
    }

    #[test]
    fn forged_probes_hit_exactly_the_targeted_mutual_devices() {
        use crate::sim::WardSpec;
        let cfg = FleetConfig {
            threads: 2,
            shards: 8,
            batch_size: 16,
            wards: vec![
                WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual), 72),
                WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Ph), 24),
            ],
            ..FleetConfig::default()
        };
        let hub = crate::sim::run_fleet(&cfg);
        // Ids 0..72 run mutual auth, 72..96 Peeters–Hermans; 1% of the
        // mutual devices are probed with a forged hello first.
        let probed = (0..72u32)
            .filter(|&id| is_forged_target(id, cfg.forged_per_mille))
            .count() as u64;
        assert!(probed > 0);
        assert_eq!(hub.sessions_ok, 72);
        assert_eq!(hub.frames_ok, 72);
        assert_eq!(hub.ph_identified, 24);
        assert_eq!(hub.sessions_failed + hub.ph_failed, 0);
        assert_eq!(hub.forged_rejected, probed);
        assert_eq!(hub.profiles.len(), 2); // mutual@Toy17 + ph@Toy17
    }

    #[test]
    fn negotiation_rejects_unknown_and_mismatched_profiles() {
        let profile = SecurityProfile::new(CurveId::K163, ProtocolId::Mutual);
        let frame = profile.negotiate_frame();
        // Happy path.
        assert_eq!(
            admit_negotiate(&frame, &profile, CurveId::K163),
            Ok(ProtocolId::Mutual)
        );
        // Wrong lane: a K-163 profile knocking on the Toy17 lane.
        assert_eq!(
            admit_negotiate(&frame, &profile, CurveId::Toy17),
            Err(SuiteError::Negotiation)
        );
        // Provisioned at a different profile than advertised.
        let other = SecurityProfile::new(CurveId::K163, ProtocolId::Ph);
        assert_eq!(
            admit_negotiate(&frame, &other, CurveId::K163),
            Err(SuiteError::Negotiation)
        );
        // Unknown version byte.
        let mut v9 = frame.to_vec();
        v9[2] = 9;
        assert!(matches!(
            admit_negotiate(&v9, &profile, CurveId::K163),
            Err(SuiteError::Decode(_))
        ));
        // Garbage frame.
        assert!(matches!(
            admit_negotiate(b"zz", &profile, CurveId::K163),
            Err(SuiteError::Decode(_))
        ));
    }

    #[test]
    fn overridden_profiles_negotiate_and_serve() {
        use crate::sim::WardSpec;
        use medsec_protocols::suite::CountermeasureLevel;
        // A ward provisioned at a non-canonical pyramid point: the
        // budget and countermeasure level are provisioning-side
        // policy, so the canonical profile id on the wire must still
        // be admitted.
        let profile = SecurityProfile::new(CurveId::K163, ProtocolId::Mutual)
            .with_budget(2.0e-4)
            .with_countermeasures(CountermeasureLevel::SpaHardened);
        assert_eq!(
            admit_negotiate(&profile.negotiate_frame(), &profile, CurveId::K163),
            Ok(ProtocolId::Mutual)
        );
        let cfg = FleetConfig {
            threads: 1,
            shards: 4,
            forged_per_mille: 0,
            wards: vec![WardSpec::new(profile, 4)],
            ..FleetConfig::default()
        };
        let report = crate::sim::run_fleet(&cfg);
        assert_eq!(report.sessions_ok, 4);
        assert_eq!(report.sessions_failed, 0);
        // The report carries the overridden policy, not the canonical
        // defaults.
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(report.profiles[0].energy_budget_j, 2.0e-4);
        assert_eq!(report.profiles[0].countermeasures, "spa-hardened");
    }

    /// The small-N edge: a heterogeneous fleet with exactly one device
    /// per lane, more worker threads than devices, and far more shards
    /// than devices. Every session must still complete — the Fibonacci
    /// shard hash, the batched paths (batch size 1) and the per-profile
    /// accounting all have to behave at N=1.
    #[test]
    fn one_device_per_lane_mixed_fleet() {
        use crate::sim::WardSpec;
        let wards = vec![
            WardSpec::new(SecurityProfile::new(CurveId::Toy17, ProtocolId::Mutual), 1),
            WardSpec::new(SecurityProfile::new(CurveId::B163, ProtocolId::Schnorr), 1),
            WardSpec::new(SecurityProfile::new(CurveId::K163, ProtocolId::Ph), 1),
            WardSpec::new(SecurityProfile::new(CurveId::K233, ProtocolId::Mutual), 1),
            WardSpec::new(SecurityProfile::new(CurveId::K283, ProtocolId::Mutual), 1),
        ];
        let cfg = FleetConfig {
            threads: 4, // more workers than devices
            shards: 64, // far more shards than devices
            batch_size: 1,
            forged_per_mille: 0,
            wards,
            ..FleetConfig::default()
        };
        let hub = GatewayHub::provision(&cfg);
        assert_eq!(hub.lanes().len(), 5);
        assert_eq!(hub.device_count(), 5);
        let report = hub.run(&cfg);
        assert_eq!(report.devices, 5);
        assert_eq!(report.sessions_completed(), 5);
        assert_eq!(report.sessions_failed + report.ph_failed, 0);
        assert_eq!(report.profiles.len(), 5);
        for p in &report.profiles {
            assert_eq!(p.devices, 1);
            assert_eq!(p.sessions_ok, 1, "{}", p.profile);
            assert_eq!(p.sessions_failed, 0, "{}", p.profile);
        }
        // Five lanes of 64 shards each.
        assert_eq!(report.shards, 5 * 64);
        assert_eq!(report.backend, medsec_gf2m::backend::active_backend_name());
    }

    /// Drive every mutual-auth device of one provisioned lane through a
    /// full hello → telemetry session against its own mutual server.
    fn run_lane_sessions<C: CurveSpec>(lane: CurveLane<C>) {
        let mut rng = SplitMix64::new(0x1D5);
        let mut ledger = server_ledger();
        let mut devices: Vec<FleetDevice<C>> = lane
            .devices
            .into_iter()
            .map(|d| d.into_inner().unwrap())
            .collect();
        let opens: Vec<(DeviceId, Option<&[u8]>)> =
            devices.iter().map(|d| (d.profile.id, None)).collect();
        let hellos = MutualSuite::<C>::hello_batch(&lane.mutual, &opens, rng.as_fn(), &mut ledger);
        assert_eq!(hellos.len(), devices.len());
        let mut closings = Vec::new();
        for (d, (id, hello)) in devices.iter_mut().zip(hellos) {
            assert_eq!(id, d.profile.id);
            let hello = hello.expect("hello for a provisioned id");
            let telemetry = d.profile.kind.telemetry();
            let (device, rng, ledger) = MutualSuite::device(d).expect("a mutual device");
            let closing = MutualSuite::device_turn(device, &hello, telemetry, rng.as_fn(), ledger)
                .unwrap_or_else(|e| panic!("genuine hello must establish for id {id}: {e}"));
            closings.push((id, closing, telemetry));
        }
        let frames: Vec<(DeviceId, &[u8])> = closings
            .iter()
            .map(|(id, f, _)| (*id, f.as_ref()))
            .collect();
        let verdicts =
            MutualSuite::<C>::server_verify_batch(&lane.mutual, &frames, rng.as_fn(), &mut ledger);
        for ((_, _, sent), (_, verdict)) in closings.iter().zip(verdicts) {
            assert_eq!(
                verdict,
                Ok(SuiteOutcome::Established {
                    telemetry: sent.to_vec()
                })
            );
        }
        assert!(lane.mutual.pending().is_empty());
    }

    /// Device ids are global (the hub assigns them sequentially), but
    /// `provision_lane` is public API and nothing stops two lanes of a
    /// multi-hub deployment from reusing an id space. Sessions keyed by
    /// the same id in different lanes must stay fully isolated: each
    /// lane's servers hold their own pairing table and pending shards.
    #[test]
    fn colliding_ids_across_lanes_stay_isolated() {
        let assignments = |curve| {
            let profile = SecurityProfile::new(curve, ProtocolId::Mutual);
            [(0, profile), (7, profile)]
        };
        // Same ids, different lanes, different key streams.
        let toy = provision_lane::<Toy17>(CurveId::Toy17, &assignments(CurveId::Toy17), 8, 42);
        let k163 = provision_lane::<K163>(CurveId::K163, &assignments(CurveId::K163), 8, 43);
        run_lane_sessions(toy);
        run_lane_sessions(k163);
    }

    /// Check that every device of `lane` holds its own protocol's state
    /// and that only mutual devices are enrolled with the lane's mutual
    /// server. Returns how many devices the mutual server turned away.
    fn check_enrolment<C: CurveSpec>(lane: &CurveLane<C>) -> usize {
        let mut rng = SplitMix64::new(0xE1);
        let mut ledger = server_ledger();
        let mut unknown = 0;
        for cell in &lane.devices {
            let d = cell.lock().unwrap();
            let (id, protocol) = (d.profile.id, d.profile.suite.protocol);
            assert!(
                matches!(
                    (&d.state, protocol),
                    (DeviceState::Mutual(_), ProtocolId::Mutual)
                        | (DeviceState::Ph(_), ProtocolId::Ph)
                        | (DeviceState::Symmetric(_), ProtocolId::Symmetric)
                        | (DeviceState::Schnorr(_), ProtocolId::Schnorr)
                ),
                "device {id} holds the wrong state for {}",
                protocol.name()
            );
            let hello = MutualSuite::<C>::hello(&lane.mutual, id, None, rng.as_fn(), &mut ledger);
            if protocol == ProtocolId::Mutual {
                assert!(hello.is_ok(), "mutual device {id} must be enrolled");
            } else {
                assert_eq!(hello, Err(SuiteError::UnknownDevice(id)));
                unknown += 1;
            }
        }
        unknown
    }

    /// Each device holds only its own protocol's state and enrolls only
    /// with that protocol's server: a Schnorr, Peeters–Hermans or
    /// symmetric device's id is unknown to its lane's mutual server.
    #[test]
    fn devices_enrol_only_with_their_own_protocol_server() {
        let cfg = FleetConfig {
            wards: mixed_hospital_wards(1),
            ..FleetConfig::default()
        };
        let hub = GatewayHub::provision(&cfg);
        let unknown: usize = hub
            .lanes()
            .iter()
            .map(|lane| with_lane!(lane, l => check_enrolment(l)))
            .sum();
        // The mixed hospital's symmetric, PH and Schnorr wards.
        assert_eq!(unknown, 12 + 6 + 4);
    }

    #[test]
    fn hub_provision_buckets_by_curve_with_stable_ids() {
        let cfg = FleetConfig {
            forged_per_mille: 0,
            wards: mixed_hospital_wards(1),
            ..FleetConfig::default()
        };
        let hub = GatewayHub::provision(&cfg);
        assert_eq!(hub.device_count(), 51);
        // Five curves → five lanes, in first-appearance order.
        assert_eq!(hub.lanes().len(), 5);
        // Every global id maps to exactly one (lane, slot) and the
        // device stored there carries that id.
        for g in 0..hub.device_count() {
            let (lane_idx, slot) = hub.index[g];
            let id = with_lane!(&hub.lanes()[lane_idx], l => {
                l.devices[slot].lock().unwrap().profile.id
            });
            assert_eq!(id as usize, g);
        }
    }
}
