//! `medsec-obs` — zero-overhead fleet telemetry.
//!
//! The DAC'13 thesis is that security/energy trade-offs must be
//! *measured* per design point; this crate makes measurement a
//! first-class subsystem of the serving stack instead of an
//! end-of-run afterthought. Three pieces, all dependency-free and
//! `unsafe`-free:
//!
//! * [`hist`] — log-bucketed (HDR-style) latency [`Histogram`]s:
//!   lock-free single-writer recording, element-wise mergeable,
//!   p50/p99/p999 with a ≤3.1% quantization bound.
//! * [`recorder`] — the live [`StageRecorder`], thread-local by
//!   ownership (a worker without one pays one branch per hook) and
//!   folded into one fleet-wide [`Telemetry`] after the run joins.
//!   [`Stage`] names the pipeline spans a session's wall time
//!   decomposes into.
//! * [`events`] — a bounded, wait-free forensic [`EventLog`] ring
//!   (session open/close, auth failure, rejected Negotiate, id
//!   collision, backend selection) with global sequence numbers and a
//!   drop counter.
//!
//! Export helpers ride along: [`json`] (string escaping, non-finite
//! f64 → `null`, a tiny validator for CI) and [`prom`]
//! ([`PrometheusExposition`], a `Display`-based text exposition).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod json;
pub mod prom;
pub mod recorder;

pub use events::{Event, EventKind, EventLog, EventLogSnapshot, ALL_EVENT_KINDS, EVENT_KINDS};
pub use hist::{Histogram, LatencySnapshot};
pub use prom::PrometheusExposition;
pub use recorder::{
    LaneRecorder, LaneTelemetry, Stage, StageRecorder, Telemetry, STAGES, STAGE_COUNT,
};
