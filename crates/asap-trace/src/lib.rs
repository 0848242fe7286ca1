//! Deterministic observability for the ASAP simulator.
//!
//! A [`TraceSink`] attached to a simulation receives every engine and
//! protocol event as a typed [`Event`], stamped with the **virtual** clock
//! only — no wall time, no OS entropy, no allocation on the disabled path —
//! so attaching a sink never perturbs a run: golden replay digests are
//! bit-identical with tracing off and on.
//!
//! The bundled [`Recorder`] keeps a bounded ring of [`Record`]s plus
//! always-on [`TraceStats`] aggregation (per-class latency/bytes histograms,
//! query-lifecycle spans, hop distributions). Export paths:
//!
//! * [`Recorder::write_jsonl`] — one fixed-key-order JSON object per line,
//!   integers and fixed label strings only, byte-identical across replays of
//!   the same seed;
//! * [`chrome::to_chrome_trace`] — a `chrome://tracing` / Perfetto JSON
//!   document with per-node instant events and per-query spans.
//!
//! Determinism policy (lint rules R1–R6 apply to this crate): events carry
//! integers and `Copy` enums only; aggregation uses integer-only
//! [`asap_metrics::LogHistogram`]s; file I/O stays in `asap-bench`.

pub mod chrome;
pub mod event;
pub mod recorder;
pub mod sink;
pub mod stats;

pub use chrome::to_chrome_trace;
pub use event::{Event, Record};
pub use recorder::{Recorder, TraceConfig};
pub use sink::TraceSink;
pub use stats::TraceStats;
