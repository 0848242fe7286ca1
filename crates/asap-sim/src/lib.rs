//! Deterministic discrete-event P2P simulator.
//!
//! The paper's evaluation is a trace-driven simulation (§IV): overlay
//! messages travel with the physical network's shortest-path latency, every
//! message's bytes are charged to a per-second, per-class load bucket, and
//! churn/content events from the trace mutate the world as the clock
//! advances. Node processing time is ignored ("the processing time at a node
//! is negligible compared to the network delay").
//!
//! Search algorithms implement the [`Protocol`] trait; the engine is
//! deterministic — a fixed seed yields byte-identical ledgers — which the
//! integration suite exploits for replay tests.

pub mod adversary;
pub mod audit;
pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod fault;
pub mod message;
pub mod spread;
pub mod transport;
pub mod util;

/// Deterministic fixed-seed hash collections (see `lint.toml` rule R1).
/// Defined in `asap-overlay` so that crates below the simulator can share
/// them; this re-export is the canonical path for everyone else.
pub use asap_overlay::collections;

/// The field-list macros behind every [`Codec`] impl (see
/// [`asap_overlay::codec`]), re-exported for the protocol crates.
pub use asap_overlay::{codec_enum, codec_struct};

/// The observability layer (trace events, sinks, recorder). Re-exported so
/// protocol crates depending on `asap-sim` can name trace events without a
/// direct `asap-trace` dependency.
pub use asap_trace as trace;

pub use adversary::{
    assign_roles, AdversaryPlan, AdversaryRole, AdversaryState, AdversaryStats, EclipseTarget,
};
pub use audit::{AuditConfig, AuditReport};
pub use checkpoint::{Checkpoint, CheckpointProtocol, Codec, CodecError, Decoder, Encoder, Fnv64};
pub use engine::{
    Ctx, EngineProfile, Protocol, SimBuilder, SimReport, Simulation, Violation, CLOCK_BOUND_US,
};
pub use event::EngineEvent;
pub use fault::{FaultDecision, FaultPlan, FaultState, FaultStats, PartitionWindow};
pub use message::{
    ads_reply_size, ads_request_size, confirm_reply_size, confirm_size, query_hit_size, query_size,
    HEADER_BYTES, KEYWORD_WIRE_BYTES, RESULT_WIRE_BYTES, TOPIC_WIRE_BYTES, VERSION_WIRE_BYTES,
};
pub use transport::{Carrier, InMemory, ScratchGuard, ScratchSlot, Transport};
