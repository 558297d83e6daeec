//! The streaming wire front end: byte chunks in, latency SLOs out.
//!
//! [`GatewayHub::run_at`] drives a *batch* campaign — every device
//! served exactly once, work handed to the scheduler as device indices.
//! A deployed gateway sees neither of those luxuries: devices arrive
//! when they arrive, their bytes cut wherever the transport cut them,
//! with hostile traffic interleaved. `run_streaming` is that world:
//!
//! * every arrival is delivered as **byte chunks** into a per-device
//!   [`Connection`] (`medsec-ingest`), whose incremental deframer
//!   reassembles frames across arbitrary read boundaries and fails
//!   closed on garbage using the exact `wire::deframe` taxonomy;
//! * complete `Negotiate` hellos climb the **admission ladder** —
//!   per-device-class token buckets ([`AdmissionControl`]), then the
//!   hub's [`admit_negotiate`] profile check — before a single point
//!   multiplication is spent; every refusal is answered with a typed
//!   [`wire::encode_reject`] frame and an
//!   [`EventKind::AdmissionReject`] forensic event;
//! * admitted work lands in **bounded per-lane queues**
//!   ([`BoundedLaneQueue`]) that shed at a high-water mark
//!   ([`EventKind::LoadShed`] + `QueueFull` reject) instead of growing
//!   without bound, and each tick's drained batches are served through
//!   the same lane-affine [`LaneScheduler`] workers and batched crypto
//!   waves as the batch driver (`serve_admitted`). A tick's drain takes
//!   each device at most once: a device's later Negotiate stays queued
//!   for the next tick, because the suite servers key a session's
//!   pending state by device id;
//! * each admitted session's **arrival→completion latency** is
//!   recorded, so the run reports a p50/p99/max against a configured
//!   SLO alongside the shed rate — throughput *at* a latency target,
//!   not throughput alone.
//!
//! Time is a tick counter, not a wall clock: arrivals, refills,
//! admission verdicts, shed counts and queue high-water marks are a
//! pure function of (config, schedule, seed). Only wall-clock derived
//! figures (latency percentiles, sessions/s) vary run to run.

use std::time::Instant;

pub use medsec_ingest::ClassPolicy;
use medsec_ingest::{
    AdmissionControl, BoundedLaneQueue, ConnState, Connection, Ingress, Push, RejectReason,
};
use medsec_obs::{Event, EventKind, EventLog, Stage};
use medsec_protocols::suite::{ProtocolId, SecurityProfile};
use medsec_protocols::wire;
use medsec_rng::SplitMix64;

use crate::hub::{
    admit_negotiate, open_events, serve_admitted, server_ledger, with_lane, GatewayHub, HubTally,
    Partitions, WorkerState,
};
use crate::registry::DeviceKind;
use crate::report::FleetReport;
use crate::scheduler::LaneScheduler;
use crate::sim::{unix_ms_now, FleetConfig};
use crate::telemetry::WorkerObs;

/// Number of admission classes (one token bucket each).
pub const DEVICE_CLASSES: usize = 4;

/// Token-bucket class index of a device kind. Implant classes are
/// rate-limited independently: a flood of staff-badge Negotiates must
/// not starve pacemaker admissions.
pub fn device_class(kind: DeviceKind) -> usize {
    match kind {
        DeviceKind::Pacemaker => 0,
        DeviceKind::Neurostimulator => 1,
        DeviceKind::WardSensor => 2,
        DeviceKind::StaffBadge => 3,
    }
}

/// One scheduled arrival: device `device` (global index) starts
/// transmitting at tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Global device index (the hub's id space).
    pub device: usize,
    /// Tick the first byte chunk is delivered.
    pub tick: usize,
}

impl Arrival {
    /// An arrival of `device` at `tick`.
    pub fn new(device: usize, tick: usize) -> Self {
        Self { device, tick }
    }
}

/// Streaming front-end policy: queue depths, admission rates, hostile
/// load, and the latency SLO the run is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// Per-lane queue depth at which arrivals are shed.
    pub queue_high_water: usize,
    /// Jobs drained from each lane queue per tick (the serving
    /// capacity the SLO math is relative to).
    pub drain_per_tick: usize,
    /// Token-bucket policy per admission class, indexed by
    /// [`device_class`].
    pub class_policies: [ClassPolicy; DEVICE_CLASSES],
    /// Per-mille of arrivals replaced by hostile traffic (garbage
    /// bytes, truncated hellos, session frames before any Negotiate).
    pub hostile_per_mille: u32,
    /// The p99 arrival→completion latency target, in milliseconds.
    pub slo_p99_ms: f64,
    /// Safety bound on post-schedule drain ticks (a regression that
    /// stops draining must terminate, not hang).
    pub max_drain_ticks: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            queue_high_water: 256,
            drain_per_tick: 64,
            class_policies: [ClassPolicy::per_tick(64, 32); DEVICE_CLASSES],
            hostile_per_mille: 0,
            slo_p99_ms: 50.0,
            max_drain_ticks: 10_000,
        }
    }
}

/// Deterministic ingest-side counters of one streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingStats {
    /// Ticks the run took (schedule horizon + drain).
    pub ticks: usize,
    /// Scheduled arrivals delivered (hostile ones included).
    pub arrivals: u64,
    /// Negotiates enqueued for serving (passed the whole ladder).
    pub admitted: u64,
    /// Negotiates turned away by token buckets.
    pub rate_limited: u64,
    /// Negotiates turned away by `admit_negotiate`.
    pub admission_denied: u64,
    /// Admitted Negotiates shed at a lane queue's high-water mark.
    pub shed: u64,
    /// Connections killed by deframe errors (fail-closed).
    pub garbage: u64,
    /// Connections killed by state-machine violations (session traffic
    /// before Negotiate, server-role tags from a device).
    pub violations: u64,
    /// Session frames that were legal to send but have no serving
    /// context in this driver (counted, never silently dropped).
    pub stray_sessions: u64,
    /// Byte chunks delivered to already-closed connections.
    pub dead_deliveries: u64,
    /// Typed reject frames sent back on the wire.
    pub reject_frames: u64,
    /// Arrival→completion latency percentiles over served jobs (ms).
    pub p50_ms: f64,
    /// 99th-percentile service latency (ms).
    pub p99_ms: f64,
    /// Worst observed service latency (ms).
    pub max_ms: f64,
    /// The SLO this run was judged against (ms).
    pub slo_p99_ms: f64,
    /// Whether the measured p99 met the SLO.
    pub slo_met: bool,
    /// `shed / (shed + admitted)` — fraction of post-admission work
    /// turned away by queue backpressure.
    pub shed_rate: f64,
    /// Deepest each lane queue ever got (bounded-growth evidence).
    pub lane_queue_high_water: Vec<usize>,
}

/// A streaming run's result: the standard [`FleetReport`] plus the
/// ingest-side [`StreamingStats`].
#[derive(Debug)]
pub struct StreamingOutcome {
    /// The aggregated fleet report (same shape as the batch driver's).
    pub report: FleetReport,
    /// Deterministic ingest counters and the SLO verdict.
    pub stats: StreamingStats,
}

/// One queued admitted job: a lane-local device slot, its negotiated
/// protocol, and when its first byte arrived (latency anchor).
#[derive(Debug, Clone, Copy)]
struct Job {
    slot: usize,
    proto: ProtocolId,
    arrived: Instant,
}

/// One byte chunk scheduled for delivery.
#[derive(Debug)]
struct Delivery {
    device: usize,
    bytes: Vec<u8>,
    /// First chunk of an arrival (counts it, stamps its clock).
    first: bool,
    /// Chunk of a genuine (device-originated) arrival — its radio
    /// energy is booked on the device ledger.
    genuine: bool,
}

/// Per-device facts snapshotted at run start so the ingest loop never
/// locks a device just to read provisioning state.
#[derive(Debug, Clone, Copy)]
struct DeviceMeta {
    lane: usize,
    slot: usize,
    suite: SecurityProfile,
    class: usize,
}

impl GatewayHub {
    /// Drive the fleet through the streaming wire front end: `schedule`
    /// arrivals delivered as split byte chunks, classified per
    /// connection, rate-limited, admitted, queued with shedding, and
    /// served tick by tick through the lane-affine scheduler. See the
    /// module docs for the pipeline.
    pub fn run_streaming(
        &self,
        cfg: &FleetConfig,
        scfg: &StreamingConfig,
        schedule: &[Arrival],
    ) -> StreamingOutcome {
        let started_unix_ms = unix_ms_now();
        let threads = cfg.threads.max(1);
        let lanes = self.lanes().len();
        let n = self.device_count();

        let meta: Vec<DeviceMeta> = (0..n)
            .map(|g| {
                let (lane, slot) = self.placement(g);
                let (suite, kind) = with_lane!(&self.lanes()[lane], l => {
                    let d = l.devices[slot].lock().expect("device poisoned");
                    (d.profile.suite, d.profile.kind)
                });
                DeviceMeta {
                    lane,
                    slot,
                    suite,
                    class: device_class(kind),
                }
            })
            .collect();

        // Pre-split every arrival into delivery chunks: 1–3 chunks on
        // consecutive ticks, boundaries wherever the "transport" cut
        // them. A device serializes its own radio: if the schedule asks
        // it to arrive again while a previous send is still in flight,
        // the new bytes queue up behind it (back-to-back, never
        // interleaved — interleaving would corrupt the byte stream in a
        // way no real link does). Pure function of (schedule, seed).
        let mut chunk_rng = SplitMix64::new(cfg.seed ^ 0xC4_0C4_0C4_0C4_0C4);
        let mut order: Vec<&Arrival> = schedule.iter().collect();
        order.sort_by_key(|a| a.tick);
        let mut tx_free = vec![0usize; n];
        let mut deliveries: Vec<Vec<Delivery>> = Vec::new();
        for a in order {
            assert!(a.device < n, "arrival names device {} of {n}", a.device);
            let hostile = scfg.hostile_per_mille > 0
                && chunk_rng.next_u64() % 1000 < u64::from(scfg.hostile_per_mille);
            let bytes = if hostile {
                hostile_bytes(&mut chunk_rng)
            } else {
                meta[a.device].suite.negotiate_frame().to_vec()
            };
            let chunks = 1 + (chunk_rng.next_u64() % 3) as usize;
            let mut cuts: Vec<usize> = (1..chunks)
                .map(|_| (chunk_rng.next_u64() as usize) % (bytes.len() + 1))
                .collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            cuts.dedup();
            let start = a.tick.max(tx_free[a.device]);
            tx_free[a.device] = start + cuts.len() - 1;
            for (i, win) in cuts.windows(2).enumerate() {
                let tick = start + i;
                if deliveries.len() <= tick {
                    deliveries.resize_with(tick + 1, Vec::new);
                }
                deliveries[tick].push(Delivery {
                    device: a.device,
                    bytes: bytes[win[0]..win[1]].to_vec(),
                    first: i == 0,
                    genuine: !hostile,
                });
            }
        }
        let horizon = deliveries.len();

        // Observability: same provisioning as the batch driver.
        let events = open_events(cfg);

        let mut conns: Vec<Connection> = (0..n).map(|_| Connection::new()).collect();
        let mut last_arrival: Vec<Option<Instant>> = vec![None; n];
        let mut admission = AdmissionControl::new(&scfg.class_policies);
        let mut queues: Vec<BoundedLaneQueue<Job>> = (0..lanes)
            .map(|_| BoundedLaneQueue::new(scfg.queue_high_water))
            .collect();
        let mut stats = StreamingStats {
            slo_p99_ms: scfg.slo_p99_ms,
            ..StreamingStats::default()
        };
        let mut ingest_obs = WorkerObs::new(events.is_some(), lanes);
        let mut ingest_ledger = server_ledger();
        let mut tally = HubTally::default();
        let mut recorders = Vec::new();
        let mut latencies_ns: Vec<u64> = Vec::new();

        let start = Instant::now();
        let mut tick = 0usize;
        loop {
            let drained_dry = tick >= horizon && queues.iter().all(BoundedLaneQueue::is_empty);
            if drained_dry || tick >= horizon + scfg.max_drain_ticks {
                break;
            }
            admission.tick();

            // Phase 1: deliver this tick's byte chunks and classify
            // every complete frame through the admission ladder.
            for d in deliveries.get(tick).map(Vec::as_slice).unwrap_or(&[]) {
                let m = meta[d.device];
                if d.first {
                    stats.arrivals += 1;
                    last_arrival[d.device] = Some(Instant::now());
                }
                let conn = &mut conns[d.device];
                if conn.state() == ConnState::Closed {
                    stats.dead_deliveries += 1;
                    continue;
                }
                if d.genuine {
                    with_lane!(&self.lanes()[m.lane], l => {
                        l.devices[m.slot]
                            .lock()
                            .expect("device poisoned")
                            .ledger
                            .tx(d.bytes.len());
                    });
                }
                ingest_ledger.rx(d.bytes.len());
                let span = ingest_obs.begin();
                conn.push(&d.bytes);
                loop {
                    match conn.next_ingress() {
                        None => break,
                        Some(Ingress::Negotiate(frame)) => {
                            if !admission.try_admit(m.class) {
                                stats.rate_limited += 1;
                                reject(
                                    RejectReason::RateLimited,
                                    &m,
                                    d.device,
                                    &mut stats,
                                    &mut ingest_ledger,
                                    events.as_ref(),
                                );
                                continue;
                            }
                            let lane_curve = with_lane!(&self.lanes()[m.lane], l => l.curve);
                            match admit_negotiate(frame, &m.suite, lane_curve) {
                                Err(_) => {
                                    stats.admission_denied += 1;
                                    reject(
                                        RejectReason::AdmissionDenied,
                                        &m,
                                        d.device,
                                        &mut stats,
                                        &mut ingest_ledger,
                                        events.as_ref(),
                                    );
                                }
                                Ok(proto) => {
                                    let job = Job {
                                        slot: m.slot,
                                        proto,
                                        arrived: last_arrival[d.device]
                                            .unwrap_or_else(Instant::now),
                                    };
                                    match queues[m.lane].push(job) {
                                        Push::Enqueued => {
                                            stats.admitted += 1;
                                            if let Some(ev) = &events {
                                                ev.log(Event::new(
                                                    EventKind::SessionOpen,
                                                    m.lane as u8,
                                                    d.device as u32,
                                                    proto as u64,
                                                ));
                                            }
                                        }
                                        Push::Shed => {
                                            stats.shed += 1;
                                            if let Some(ev) = &events {
                                                ev.log(Event::new(
                                                    EventKind::LoadShed,
                                                    m.lane as u8,
                                                    d.device as u32,
                                                    queues[m.lane].len() as u64,
                                                ));
                                            }
                                            reject(
                                                RejectReason::QueueFull,
                                                &m,
                                                d.device,
                                                &mut stats,
                                                &mut ingest_ledger,
                                                events.as_ref(),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                        Some(Ingress::Session(_, _)) => {
                            // Legal per the state machine, but this
                            // driver's session traffic is generated by
                            // the serving waves — count it, never
                            // silently drop it.
                            stats.stray_sessions += 1;
                        }
                        Some(Ingress::Violation(reason)) => {
                            stats.violations += 1;
                            reject(
                                reason,
                                &m,
                                d.device,
                                &mut stats,
                                &mut ingest_ledger,
                                events.as_ref(),
                            );
                            break;
                        }
                        Some(Ingress::Garbage(_)) => {
                            stats.garbage += 1;
                            break;
                        }
                    }
                }
                ingest_obs.end(span, m.lane, Stage::Admit);
            }

            // Phase 2: drain up to `drain_per_tick` jobs per lane, each
            // device at most once, and serve them through the
            // lane-affine scheduler — the same batched waves, scratch
            // reuse and steal behaviour as the batch driver.
            let drained: Vec<Vec<Job>> = queues
                .iter_mut()
                .map(|q| q.drain_batch(scfg.drain_per_tick, |j| j.slot))
                .collect();
            if drained.iter().any(|jobs| !jobs.is_empty()) {
                let lane_sizes: Vec<usize> = drained.iter().map(Vec::len).collect();
                let scheduler = LaneScheduler::new(&lane_sizes, cfg.batch_size);
                let outcomes = scheduler.run_workers(threads, |mut w| {
                    let seed =
                        cfg.seed ^ 0x517E_0000_0000_0000 ^ ((tick as u64) << 8) ^ w.index as u64;
                    let mut state = WorkerState::new(cfg, events.as_ref(), lanes, seed);
                    let mut parts = Partitions::default();
                    let mut pairs: Vec<(usize, ProtocolId)> = Vec::new();
                    let mut lat: Vec<u64> = Vec::new();
                    while let Some(batch) = w.next_batch() {
                        let jobs = &drained[batch.lane][batch.slots.clone()];
                        pairs.clear();
                        pairs.extend(jobs.iter().map(|j| (j.slot, j.proto)));
                        with_lane!(&self.lanes()[batch.lane], l => serve_admitted(
                            l, batch.lane, &pairs, &mut parts, &mut state,
                        ));
                        let served = Instant::now();
                        for j in jobs {
                            lat.push(served.duration_since(j.arrived).as_nanos() as u64);
                        }
                    }
                    let (tally, obs) = state.finish();
                    (tally, obs, lat)
                });
                for (t, obs, lat) in outcomes {
                    tally.merge(t);
                    if let Some(rec) = obs.into_recorder() {
                        recorders.push(rec);
                    }
                    latencies_ns.extend(lat);
                }
            }
            tick += 1;
        }
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);
        stats.ticks = tick;

        tally.server_energy_j += ingest_ledger.total();
        let mut telemetry = self.close_events(events);
        if let Some(tele) = telemetry.as_mut() {
            for rec in &recorders {
                tele.absorb(rec);
            }
            if let Some(rec) = ingest_obs.into_recorder() {
                tele.absorb(&rec);
            }
        }

        latencies_ns.sort_unstable();
        stats.p50_ms = pctl_ms(&latencies_ns, 0.50);
        stats.p99_ms = pctl_ms(&latencies_ns, 0.99);
        stats.max_ms = latencies_ns.last().map_or(0.0, |&ns| ns as f64 / 1e6);
        stats.slo_met = stats.p99_ms <= scfg.slo_p99_ms;
        stats.shed_rate = if stats.shed + stats.admitted > 0 {
            stats.shed as f64 / (stats.shed + stats.admitted) as f64
        } else {
            0.0
        };
        stats.lane_queue_high_water = queues
            .iter()
            .map(BoundedLaneQueue::high_water_mark)
            .collect();

        let report = self.finalize_report(threads, tally, wall_s, telemetry, started_unix_ms);
        StreamingOutcome { report, stats }
    }
}

/// Send one typed reject frame back on the wire: counted, booked on
/// the ingest ledger, logged as an [`EventKind::AdmissionReject`]
/// (detail = the reason byte the device received).
fn reject(
    reason: RejectReason,
    m: &DeviceMeta,
    device: usize,
    stats: &mut StreamingStats,
    ingest_ledger: &mut medsec_protocols::EnergyLedger,
    events: Option<&EventLog>,
) {
    let frame = wire::encode_reject(reason);
    stats.reject_frames += 1;
    ingest_ledger.tx(frame.len());
    if let Some(ev) = events {
        ev.log(Event::new(
            EventKind::AdmissionReject,
            m.lane as u8,
            device as u32,
            reason as u64,
        ));
    }
}

/// Percentile (nearest-rank) of a sorted ns vector, in milliseconds.
fn pctl_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// One hostile arrival's bytes: an unknown-tag burst, a truncated
/// hello (the stream goes silent mid-frame), or session traffic sent
/// before any Negotiate.
fn hostile_bytes(rng: &mut SplitMix64) -> Vec<u8> {
    match rng.next_u64() % 3 {
        0 => {
            // Unknown tag + noise: poisons the cursor on sight.
            let mut b = vec![0xEEu8, 0x05];
            b.extend((0..5).map(|_| rng.next_u64() as u8));
            b
        }
        1 => {
            // A Negotiate header promising more bytes than ever come.
            use medsec_protocols::{CurveId, ProtocolId};
            wire::encode_negotiate(0x7F, CurveId::K163, ProtocolId::Mutual)[..3].to_vec()
        }
        _ => {
            // Session traffic before any Negotiate: a state violation.
            wire::frame(wire::MsgType::Telemetry, b"stolen=vitals").to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{mixed_hospital_wards, FleetConfig};

    fn mixed_cfg() -> FleetConfig {
        FleetConfig {
            threads: 2,
            shards: 4,
            batch_size: 8,
            forged_per_mille: 0,
            wards: mixed_hospital_wards(1),
            ..FleetConfig::default()
        }
    }

    /// One arrival per device, spread over `spread` ticks.
    fn trickle(n: usize, spread: usize) -> Vec<Arrival> {
        (0..n).map(|d| Arrival::new(d, d % spread.max(1))).collect()
    }

    #[test]
    fn underload_completes_every_arrival_with_no_shedding() {
        let cfg = mixed_cfg();
        let hub = GatewayHub::provision(&cfg);
        let n = hub.device_count();
        let out = hub.run_streaming(&cfg, &StreamingConfig::default(), &trickle(n, 8));
        assert_eq!(out.stats.arrivals, n as u64);
        assert_eq!(out.stats.admitted, n as u64);
        assert_eq!(out.stats.shed, 0);
        assert_eq!(out.stats.rate_limited, 0);
        assert_eq!(out.stats.garbage + out.stats.violations, 0);
        assert_eq!(out.report.sessions_completed(), n as u64);
        assert_eq!(out.report.sessions_failed + out.report.ph_failed, 0);
        assert_eq!(out.stats.shed_rate, 0.0);
        assert_eq!(out.stats.admission_denied, 0);
        assert!(out.stats.p99_ms >= out.stats.p50_ms);
        assert!(out.stats.max_ms >= out.stats.p99_ms);
        // Queues stayed bounded, and the stats carry one mark per lane.
        assert_eq!(out.stats.lane_queue_high_water.len(), hub.lanes().len());
        assert!(out
            .stats
            .lane_queue_high_water
            .iter()
            .all(|&m| m <= StreamingConfig::default().queue_high_water));
    }

    #[test]
    fn overload_sheds_at_the_high_water_mark_and_stays_bounded() {
        let cfg = mixed_cfg();
        let hub = GatewayHub::provision(&cfg);
        let n = hub.device_count();
        // Everyone at tick 0 into shallow queues with slow drains.
        let scfg = StreamingConfig {
            queue_high_water: 4,
            drain_per_tick: 2,
            ..StreamingConfig::default()
        };
        let burst: Vec<Arrival> = (0..n).map(|d| Arrival::new(d, 0)).collect();
        let out = hub.run_streaming(&cfg, &scfg, &burst);
        assert!(out.stats.shed > 0, "a tick-0 fleet burst must shed");
        assert!(out.stats.shed_rate > 0.0);
        // Bounded queues: the mark never exceeds the shed threshold.
        assert!(out
            .stats
            .lane_queue_high_water
            .iter()
            .all(|&m| m <= scfg.queue_high_water));
        // Crypto was only spent on admitted work: completions equal
        // admissions (shed arrivals never reached a worker).
        assert_eq!(out.report.sessions_completed(), out.stats.admitted);
        // Every arrival is accounted for, nothing silently vanished.
        assert_eq!(
            out.stats.admitted + out.stats.shed + out.stats.rate_limited,
            out.stats.arrivals
        );
        assert_eq!(out.stats.reject_frames, out.stats.shed);
    }

    #[test]
    fn token_buckets_rate_limit_before_any_crypto() {
        let cfg = mixed_cfg();
        let hub = GatewayHub::provision(&cfg);
        let n = hub.device_count();
        // One admission per class, ever (no refill): everything past
        // the first per class is rate-limited.
        let scfg = StreamingConfig {
            class_policies: [ClassPolicy {
                burst: 1,
                refill_milli_per_tick: 0,
            }; DEVICE_CLASSES],
            ..StreamingConfig::default()
        };
        let burst: Vec<Arrival> = (0..n).map(|d| Arrival::new(d, 0)).collect();
        let out = hub.run_streaming(&cfg, &scfg, &burst);
        // The mixed hospital spans all four admission classes (mutual
        // wards all map to the pacemaker class); exactly one admission
        // each.
        assert_eq!(out.stats.admitted, 4);
        assert_eq!(out.stats.rate_limited, n as u64 - 4);
        assert_eq!(out.stats.admission_denied, 0);
        assert_eq!(out.report.sessions_completed(), 4);
    }

    #[test]
    fn hostile_arrivals_fail_closed_without_crypto_or_hangs() {
        let cfg = FleetConfig {
            observe: true,
            event_capacity: 2048,
            ..mixed_cfg()
        };
        let hub = GatewayHub::provision(&cfg);
        let n = hub.device_count();
        let scfg = StreamingConfig {
            hostile_per_mille: 400,
            ..StreamingConfig::default()
        };
        let out = hub.run_streaming(&cfg, &scfg, &trickle(n, 4));
        assert_eq!(out.stats.arrivals, n as u64);
        assert!(
            out.stats.garbage + out.stats.violations > 0,
            "400‰ hostile load must trip the fail-closed paths"
        );
        // Hostile arrivals cost parsing, not crypto: completions match
        // admissions exactly.
        assert_eq!(out.report.sessions_completed(), out.stats.admitted);
        assert!(out.stats.admitted < n as u64);
        // Forensics: admitted sessions opened, rejects logged typed.
        let t = out.report.telemetry.as_ref().expect("observe on");
        assert_eq!(t.events.count(EventKind::SessionOpen), out.stats.admitted);
        assert_eq!(
            t.events.count(EventKind::AdmissionReject),
            out.stats.reject_frames
        );
    }

    /// A device may negotiate again while its earlier Negotiate is
    /// still queued; every admitted Negotiate must still complete
    /// exactly once, with no failure and no panic. Two shapes:
    ///
    /// * two symmetric devices arriving twice, well apart (closed-loop);
    /// * a 12-device ward of each protocol arriving at ticks 0, 1 and 2
    ///   into a slow drain, so one tick's drain would otherwise hold a
    ///   device twice. The suite servers key a session's pending state
    ///   by device id, so a second hello in one wave replaces the
    ///   first: a session is lost or fails, and a Schnorr badge asked
    ///   to respond twice to one commitment panics its worker.
    #[test]
    fn renegotiation_serves_a_device_twice() {
        use crate::sim::WardSpec;
        use medsec_protocols::CurveId;
        let apart = (
            ProtocolId::Symmetric,
            2,
            vec![0, 20],
            StreamingConfig::default(),
        );
        let crowded = |protocol| {
            (
                protocol,
                12,
                vec![0, 1, 2],
                StreamingConfig {
                    drain_per_tick: 8,
                    queue_high_water: 4096,
                    class_policies: [ClassPolicy::per_tick(4096, 4096); DEVICE_CLASSES],
                    ..StreamingConfig::default()
                },
            )
        };
        let cases = std::iter::once(apart).chain(ProtocolId::ALL.into_iter().map(crowded));
        for (protocol, devices, ticks, scfg) in cases {
            for threads in [1usize, 2] {
                let cfg = FleetConfig {
                    threads,
                    shards: 4,
                    seed: 4,
                    forged_per_mille: 0,
                    wards: vec![WardSpec::new(
                        SecurityProfile::new(CurveId::Toy17, protocol),
                        devices,
                    )],
                    ..FleetConfig::default()
                };
                let hub = GatewayHub::provision(&cfg);
                let schedule: Vec<Arrival> = ticks
                    .iter()
                    .flat_map(|&t| (0..devices).map(move |d| Arrival::new(d, t)))
                    .collect();
                let out = hub.run_streaming(&cfg, &scfg, &schedule);
                let case = format!("{} × {devices} at {threads} workers", protocol.name());
                let arrivals = schedule.len() as u64;
                assert_eq!(out.stats.arrivals, arrivals, "{case}");
                assert_eq!(out.stats.admitted, arrivals, "{case}");
                assert_eq!(out.report.sessions_completed(), arrivals, "{case}");
                assert_eq!(
                    out.report.sessions_failed + out.report.ph_failed,
                    0,
                    "{case}"
                );
            }
        }
    }

    /// `run_streaming`'s deterministic counters, session tallies and
    /// device-energy books are a pure function of (config, schedule,
    /// seed): equal at 1, 2 and 8 workers on a bursty schedule with
    /// hostile bytes, shedding and repeat arrivals.
    #[test]
    fn streaming_outcome_is_identical_at_every_thread_count() {
        fn view(out: &StreamingOutcome) -> impl PartialEq + std::fmt::Debug {
            let s = &out.stats;
            let r = &out.report;
            (
                [
                    s.ticks as u64,
                    s.arrivals,
                    s.admitted,
                    s.rate_limited,
                    s.admission_denied,
                    s.shed,
                    s.garbage,
                    s.violations,
                    s.stray_sessions,
                    s.dead_deliveries,
                    s.reject_frames,
                ],
                s.lane_queue_high_water.clone(),
                [
                    r.sessions_ok,
                    r.sessions_failed,
                    r.frames_ok,
                    r.ph_identified,
                    r.ph_failed,
                    r.forged_rejected,
                    r.decode_failures,
                    r.bytes_on_air,
                ],
                r.device_energy_total_j.to_bits(),
                r.device_energy_max_j.to_bits(),
                r.profiles
                    .iter()
                    .map(|p| {
                        (
                            p.sessions_ok,
                            p.sessions_failed,
                            p.energy_per_session_j.to_bits(),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
        }
        let scfg = StreamingConfig {
            queue_high_water: 12,
            drain_per_tick: 6,
            hostile_per_mille: 150,
            ..StreamingConfig::default()
        };
        let run = |threads: usize| {
            let cfg = FleetConfig {
                threads,
                forged_per_mille: 60,
                ..mixed_cfg()
            };
            let hub = GatewayHub::provision(&cfg);
            let n = hub.device_count();
            // Two bursts of the whole fleet on top of a trickle: queues
            // shed, and devices arrive again while still queued.
            let mut schedule = trickle(n, 10);
            schedule.extend((0..n).map(|d| Arrival::new(d, 3)));
            schedule.extend((0..n).step_by(2).map(|d| Arrival::new(d, 4)));
            hub.run_streaming(&cfg, &scfg, &schedule)
        };
        let baseline = run(1);
        assert!(baseline.stats.shed > 0, "the bursts must shed");
        assert!(baseline.stats.garbage + baseline.stats.violations > 0);
        assert!(
            baseline.report.forged_rejected > 0,
            "forged probes must fire"
        );
        assert_eq!(
            baseline.report.sessions_completed(),
            baseline.stats.admitted
        );
        // Every turned-away arrival gets exactly one typed reject
        // frame; garbage bytes get none.
        let s = &baseline.stats;
        assert_eq!(
            s.reject_frames,
            s.shed + s.rate_limited + s.admission_denied + s.violations
        );
        let want = view(&baseline);
        for threads in [2usize, 8] {
            assert_eq!(view(&run(threads)), want, "drifted at {threads} workers");
        }
    }
}
