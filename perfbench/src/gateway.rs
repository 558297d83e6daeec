//! `gateway_crypto`: the server-only path. The paper-strength profiles
//! of the mixed hospital are served on one thread through the
//! `SecuritySuite` batch entry points, in waves of 64 devices. Only
//! `hello_batch` and `server_verify_batch` are timed; the device's
//! `device_open` and `device_turn` run between them, outside the timed
//! region. 1% of closing frames are forged and must be rejected.

use std::time::Instant;

use medsec_ec::{CurveSpec, B163, K163, K233, K283};
use medsec_fleet::DeviceKind;
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::mutual::{self, Ordering, Pairing};
use medsec_protocols::suite::{
    MutualServer, MutualSuite, PhServer, PhSuite, ProtocolId, SchnorrSuite, SchnorrVerifier,
    SecuritySuite, SuiteDeviceId, SuiteOutcome,
};
use medsec_protocols::{EnergyLedger, PhReader, SchnorrTag};
use medsec_rng::SplitMix64;

use crate::report::Report;
use crate::setup::Setups;
use crate::stats::{median, weighted_percentile};
use crate::trace::Tracer;
use crate::{derive_seed, Size};

/// Devices per server batch.
pub const WAVE: usize = 64;
/// Closing frames forged per thousand.
const FORGED_PER_MILLE: u64 = 10;

/// Per-profile counts and server/device time.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub genuine: u64,
    pub genuine_ok: u64,
    pub forged: u64,
    pub forged_rejected: u64,
    pub hello_ns: u64,
    pub verify_ns: u64,
    pub device_ns: u64,
}

/// One profile's server and devices, with the curve and protocol
/// erased so the five profiles can be served in one loop.
pub trait Lane {
    fn name(&self) -> &'static str;
    fn waves(&self) -> usize;
    /// Serve wave `w` and fold its counts into `t`. Returns the
    /// wave's genuine sessions accepted and its gateway nanoseconds
    /// (`hello_batch` plus `server_verify_batch`).
    fn wave(
        &mut self,
        w: usize,
        forge: &mut SplitMix64,
        tr: &mut Tracer,
        t: &mut Tally,
    ) -> (u64, u64);
    /// Energy drawn from every device battery so far, joules.
    fn device_energy_j(&self) -> f64;
}

struct Dev<D> {
    id: SuiteDeviceId,
    state: D,
    /// The current wave's ledger; its total moves to `energy_j` after
    /// every wave, because a ledger keeps every event it books.
    ledger: EnergyLedger,
    energy_j: f64,
}

struct SuiteLane<S: SecuritySuite> {
    name: &'static str,
    server: S::Server,
    devices: Vec<Dev<S::Device>>,
    telemetry: &'static [u8],
    /// Whether an outcome is the right one for this device and payload.
    accepts: fn(SuiteDeviceId, &[u8], &SuiteOutcome) -> bool,
    protocol: ProtocolId,
    server_rng: SplitMix64,
    device_rng: SplitMix64,
    server_ledger: EnergyLedger,
}

/// The paper-chip cost model every fleet device is provisioned with.
fn device_ledger(protocol: ProtocolId) -> EnergyLedger {
    ledger(DeviceKind::for_protocol(protocol).distance_m())
}

fn ledger(distance_m: f64) -> EnergyLedger {
    EnergyLedger::new(
        EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
        RadioModel::first_order_default(),
        distance_m,
    )
}

impl<S: SecuritySuite> Lane for SuiteLane<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn waves(&self) -> usize {
        self.devices.len().div_ceil(WAVE)
    }

    fn wave(
        &mut self,
        w: usize,
        forge: &mut SplitMix64,
        tr: &mut Tracer,
        t: &mut Tally,
    ) -> (u64, u64) {
        let g = tr.next_group();
        let hi = ((w + 1) * WAVE).min(self.devices.len());
        let devs = &mut self.devices[w * WAVE..hi];
        let (server, telemetry, accepts) = (&self.server, self.telemetry, self.accepts);
        let (srng, drng, sledger) = (
            &mut self.server_rng,
            &mut self.device_rng,
            &mut self.server_ledger,
        );
        let (result, _) = tr.time("wave", g, |tr| {
            let (opens, open_ns) = tr.time("device_open", g, |_| {
                devs.iter_mut()
                    .map(|d| S::device_open(&mut d.state, drng.as_fn(), &mut d.ledger))
                    .collect::<Vec<_>>()
            });
            let open_refs: Vec<(SuiteDeviceId, Option<&[u8]>)> = devs
                .iter()
                .zip(&opens)
                .map(|(d, o)| (d.id, o.as_deref()))
                .collect();
            let (hellos, hello_ns) = tr.time("hello_batch", g, |_| {
                S::hello_batch(server, &open_refs, srng.as_fn(), sledger)
            });
            let (closings, turn_ns) = tr.time("device_turn", g, |_| {
                devs.iter_mut()
                    .zip(&hellos)
                    .map(|(d, (id, hello))| {
                        let hello = hello.as_ref().ok().filter(|_| *id == d.id)?;
                        S::device_turn(&mut d.state, hello, telemetry, drng.as_fn(), &mut d.ledger)
                            .ok()
                            .map(|b| b.to_vec())
                    })
                    .collect::<Vec<_>>()
            });
            // A device whose hello or turn failed is a failed genuine
            // session; every other closing may be forged.
            let mut frames: Vec<(SuiteDeviceId, Vec<u8>, bool)> = Vec::with_capacity(devs.len());
            for (d, closing) in devs.iter().zip(closings) {
                match closing {
                    Some(mut bytes) => {
                        let forged = forge.next_u64() % 1000 < FORGED_PER_MILLE;
                        if forged {
                            if let Some(b) = bytes.last_mut() {
                                *b ^= 0x01;
                            }
                        }
                        frames.push((d.id, bytes, forged));
                    }
                    None => t.genuine += 1,
                }
            }
            let frame_refs: Vec<(SuiteDeviceId, &[u8])> = frames
                .iter()
                .map(|(id, b, _)| (*id, b.as_slice()))
                .collect();
            let (verdicts, verify_ns) = tr.time("server_verify_batch", g, |_| {
                S::server_verify_batch(server, &frame_refs, srng.as_fn(), sledger)
            });
            let mut ok = 0;
            for (i, (id, _, forged)) in frames.iter().enumerate() {
                let verdict = verdicts.get(i).filter(|(vid, _)| vid == id).map(|(_, v)| v);
                if *forged {
                    t.forged += 1;
                    t.forged_rejected += u64::from(matches!(verdict, Some(Err(_))));
                } else {
                    t.genuine += 1;
                    if let Some(Ok(outcome)) = verdict {
                        if accepts(*id, telemetry, outcome) {
                            t.genuine_ok += 1;
                            ok += 1;
                        }
                    }
                }
            }
            t.hello_ns += hello_ns;
            t.verify_ns += verify_ns;
            t.device_ns += open_ns + turn_ns;
            (ok, hello_ns + verify_ns)
        });
        for d in devs.iter_mut() {
            d.energy_j += d.ledger.total();
            d.ledger = device_ledger(self.protocol);
        }
        self.server_ledger = ledger(2.0);
        result
    }

    fn device_energy_j(&self) -> f64 {
        self.devices.iter().map(|d| d.energy_j).sum()
    }
}

fn key(rng: &mut SplitMix64) -> [u8; 16] {
    let mut k = [0u8; 16];
    for chunk in k.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
    }
    k
}

fn lane<S: SecuritySuite + 'static>(
    name: &'static str,
    protocol: ProtocolId,
    server: S::Server,
    devices: Vec<(SuiteDeviceId, S::Device)>,
    accepts: fn(SuiteDeviceId, &[u8], &SuiteOutcome) -> bool,
    rng: &mut SplitMix64,
) -> Box<dyn Lane> {
    Box::new(SuiteLane::<S> {
        name,
        server,
        devices: devices
            .into_iter()
            .map(|(id, state)| Dev {
                id,
                state,
                ledger: device_ledger(protocol),
                energy_j: 0.0,
            })
            .collect(),
        telemetry: DeviceKind::for_protocol(protocol).telemetry(),
        accepts,
        protocol,
        server_rng: rng.split(),
        device_rng: rng.split(),
        server_ledger: ledger(2.0),
    })
}

fn mutual_lane<C: CurveSpec + 'static>(
    name: &'static str,
    n: usize,
    rng: &mut SplitMix64,
) -> Box<dyn Lane> {
    let mut pairings = Vec::with_capacity(n);
    let mut devices = Vec::with_capacity(n);
    for id in 0..n as SuiteDeviceId {
        let pairing = Pairing { auth_key: key(rng) };
        pairings.push((id, pairing.clone()));
        devices.push((id, mutual::Device::<C>::new(pairing, Ordering::ServerFirst)));
    }
    lane::<MutualSuite<C>>(
        name,
        ProtocolId::Mutual,
        MutualServer::new(pairings),
        devices,
        |_, sent, o| matches!(o, SuiteOutcome::Established { telemetry } if telemetry == sent),
        rng,
    )
}

fn ph_lane<C: CurveSpec + 'static>(
    name: &'static str,
    n: usize,
    rng: &mut SplitMix64,
) -> Box<dyn Lane> {
    let mut reader = PhReader::<C>::new(rng.as_fn());
    let devices = (0..n as SuiteDeviceId)
        .map(|id| (id, reader.register_tag(id, rng.as_fn())))
        .collect();
    lane::<PhSuite<C>>(
        name,
        ProtocolId::Ph,
        PhServer::new(reader),
        devices,
        |id, _, o| matches!(o, SuiteOutcome::Identified(tag) if *tag == id),
        rng,
    )
}

fn schnorr_lane<C: CurveSpec + 'static>(
    name: &'static str,
    n: usize,
    rng: &mut SplitMix64,
) -> Box<dyn Lane> {
    let mut verifier = SchnorrVerifier::<C>::new();
    let devices = (0..n as SuiteDeviceId)
        .map(|id| {
            let tag = SchnorrTag::<C>::new(rng.as_fn());
            verifier.register(id, *tag.public());
            (id, tag)
        })
        .collect();
    lane::<SchnorrSuite<C>>(
        name,
        ProtocolId::Schnorr,
        verifier,
        devices,
        |_, _, o| matches!(o, SuiteOutcome::Authenticated),
        rng,
    )
}

/// The five paper-strength profiles of the mixed hospital, sized in the
/// hospital's ward proportions (8 : 6 : 4 : 3 : 2) times `scale`.
pub fn provision(scale: usize, seed: u64) -> Vec<Box<dyn Lane>> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x4757_0000));
    vec![
        mutual_lane::<K163>("mutual-K163", 8 * scale, &mut rng),
        ph_lane::<K163>("ph-K163", 6 * scale, &mut rng),
        schnorr_lane::<B163>("schnorr-B163", 4 * scale, &mut rng),
        mutual_lane::<K233>("mutual-K233", 3 * scale, &mut rng),
        mutual_lane::<K283>("mutual-K283", 2 * scale, &mut rng),
    ]
}

/// Every profile's devices served once, wave by wave.
struct Round {
    ok: u64,
    gateway_ns: u64,
    /// (wave gateway time in ms, genuine sessions it accepted).
    waves: Vec<(f64, u64)>,
}

/// Serve rounds until `seconds` have passed and at least `min_rounds`
/// ran, calling `between` before each round. Returns the rounds and the
/// per-profile tallies.
fn serve(
    lanes: &mut [Box<dyn Lane>],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    tr: &mut Tracer,
    between: &mut dyn FnMut(),
) -> (Vec<Round>, Vec<Tally>) {
    let mut forge = SplitMix64::new(derive_seed(seed, 0x464F_5247));
    let mut tallies = vec![Tally::default(); lanes.len()];
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        between();
        let mut round = Round {
            ok: 0,
            gateway_ns: 0,
            waves: Vec::new(),
        };
        for (lane, t) in lanes.iter_mut().zip(&mut tallies) {
            for w in 0..lane.waves() {
                let (ok, ns) = lane.wave(w, &mut forge, tr, t);
                round.ok += ok;
                round.gateway_ns += ns;
                round.waves.push((ns as f64 * 1e-6, ok));
            }
        }
        rounds.push(round);
    }
    (rounds, tallies)
}

/// The output checks over a run's tallies: every genuine closing is
/// accepted with the right outcome, every forged one is rejected, and
/// forged frames were actually sent.
fn check(tallies: &[Tally], lanes: &[Box<dyn Lane>], out: &mut Report) {
    for (t, lane) in tallies.iter().zip(lanes) {
        out.attempted += t.genuine + t.forged;
        out.failed += (t.genuine - t.genuine_ok) + (t.forged - t.forged_rejected);
        out.check(
            "gateway_crypto.genuine_accepted",
            t.genuine_ok == t.genuine,
            || {
                format!(
                    "{}: {} of {} genuine closings accepted",
                    lane.name(),
                    t.genuine_ok,
                    t.genuine
                )
            },
        );
        out.check(
            "gateway_crypto.forged_rejected",
            t.forged_rejected == t.forged,
            || {
                format!(
                    "{}: {} of {} forged closings rejected",
                    lane.name(),
                    t.forged_rejected,
                    t.forged
                )
            },
        );
    }
    let forged: u64 = tallies.iter().map(|t| t.forged).sum();
    out.check("gateway_crypto.forged_frames_sent", forged > 0, || {
        "no closing frame was forged".to_string()
    });
}

/// Device energy per device session (genuine and forged alike: the
/// device does the same work for both), in µJ.
fn device_uj(lanes: &[Box<dyn Lane>], tallies: &[Tally]) -> f64 {
    let energy: f64 = lanes.iter().map(|l| l.device_energy_j()).sum();
    let sessions: u64 = tallies.iter().map(|t| t.genuine + t.forged).sum();
    energy / sessions as f64 * 1e6
}

/// One untimed round at the smallest size (part of the warm-up pass).
pub fn warm(seed: u64) {
    let mut lanes = provision(1, seed);
    serve(
        &mut lanes,
        seed,
        0.0,
        1,
        &mut Tracer::new(false),
        &mut || {},
    );
}

/// Each wave position's fastest gateway time (ms) over `rounds`, with
/// the median count of genuine sessions it accepted.
///
/// Every round serves the same devices with the same keys, so a wave
/// position does the same work each round; what varies is how much the
/// shared host slows the core, which only ever adds time and comes in
/// phases of seconds. The fastest of a wave's hundreds of repetitions
/// is its cost without that interference.
fn fastest_waves(rounds: &[Round]) -> Vec<(f64, u64)> {
    (0..rounds[0].waves.len())
        .map(|i| {
            let ms = rounds
                .iter()
                .map(|r| r.waves[i].0)
                .fold(f64::INFINITY, f64::min);
            let ok: Vec<f64> = rounds.iter().map(|r| r.waves[i].1 as f64).collect();
            (ms, median(&ok).round() as u64)
        })
        .collect()
}

/// Untraced measurement: gateway-only sessions per second and session
/// latency, from each wave position's fastest time over the run.
pub fn measure(seed: u64, seconds: f64, setups: &mut Setups, size: Size) -> Report {
    let mut out = Report::default();
    let mut lanes = provision(size.gateway_scale, seed);
    let (rounds, tallies) = serve(
        &mut lanes,
        seed,
        seconds,
        size.min_reps + 1,
        &mut Tracer::new(false),
        &mut || setups.due(),
    );
    check(&tallies, &lanes, &mut out);
    // The first round is checked but not timed: it pays for first-touch
    // memory the small warm-up pass never needed.
    let rate = |r: &Round| r.ok as f64 / (r.gateway_ns as f64 * 1e-9);
    crate::hub::report_cold_start(
        rate(&rounds[0]),
        &rounds[1..].iter().map(rate).collect::<Vec<_>>(),
    );
    let rounds = &rounds[1..];
    let n = rounds.len() as u64;
    // Every session of a wave completes when the wave's verify returns:
    // its gateway latency is the wave's hello plus verify time.
    let all_waves: Vec<(f64, u64)> = rounds
        .iter()
        .flat_map(|r| r.waves.iter().copied())
        .collect();
    println!(
        "every timed round, host interference included: median {:.1} sessions/s, \
         wave p50 {:.3} ms, p99 {:.3} ms",
        median(&rounds.iter().map(rate).collect::<Vec<_>>()),
        weighted_percentile(&all_waves, 0.50),
        weighted_percentile(&all_waves, 0.99)
    );
    let fastest = fastest_waves(rounds);
    let round_ok: u64 = fastest.iter().map(|w| w.1).sum();
    let round_ms: f64 = fastest.iter().map(|w| w.0).sum();
    let genuine: u64 = tallies.iter().map(|t| t.genuine).sum();
    let served: u64 = tallies.iter().map(|t| t.genuine_ok).sum();
    out.metric(
        "sessions_per_s",
        round_ok as f64 / (round_ms * 1e-3),
        "1/s",
        n,
    );
    out.metric(
        "session_p50_ms",
        weighted_percentile(&fastest, 0.50),
        "ms",
        n * round_ok,
    );
    out.metric(
        "session_p99_ms",
        weighted_percentile(&fastest, 0.99),
        "ms",
        n * round_ok,
    );
    out.metric(
        "served_share",
        served as f64 / genuine as f64,
        "ratio",
        genuine,
    );
    out.metric(
        "device_uj_per_session",
        device_uj(&lanes, &tallies),
        "uJ",
        genuine,
    );
    out
}

/// Traced figures: per-session hello, verify and device time per
/// profile, and the share of useful outcomes. Also checks that no
/// device work runs inside a timed suite call.
pub fn traced(seed: u64, seconds: f64, size: Size, tr: &mut Tracer, out: &mut Report) {
    let (mut lanes, _) = tr.time("provision", 0, |_| provision(size.gateway_scale, seed));
    let first_span = tr.spans().len();
    let (_, tallies) = serve(&mut lanes, seed, seconds, size.min_reps, tr, &mut || {});
    check(&tallies, &lanes, out);
    for (t, lane) in tallies.iter().zip(&lanes) {
        let per = |ns: u64| ns as f64 * 1e-3 / (t.genuine + t.forged) as f64;
        let n = t.genuine + t.forged;
        out.metric(
            &format!("suite.hello_us.{}", lane.name()),
            per(t.hello_ns),
            "us",
            n,
        );
        out.metric(
            &format!("suite.verify_us.{}", lane.name()),
            per(t.verify_ns),
            "us",
            n,
        );
        out.metric(
            &format!("suite.device_us.{}", lane.name()),
            per(t.device_ns),
            "us",
            n,
        );
    }
    let attempts: u64 = tallies.iter().map(|t| t.genuine + t.forged).sum();
    let useful: u64 = tallies
        .iter()
        .map(|t| t.genuine_ok + t.forged_rejected)
        .sum();
    out.metric(
        "suite.ok_ratio",
        useful as f64 / attempts as f64,
        "ratio",
        attempts,
    );

    // The timed calls are leaves: device work is their sibling.
    let spans = &tr.spans()[first_span..];
    let timed_parent = spans.iter().any(|s| {
        s.parent
            .map(|p| {
                matches!(
                    tr.spans()[p].name.as_str(),
                    "hello_batch" | "server_verify_batch"
                )
            })
            .unwrap_or(false)
    });
    out.check(
        "gateway_crypto.device_work_outside_timed_calls",
        !timed_parent,
        || "a span ran inside a timed suite call".to_string(),
    );
}
