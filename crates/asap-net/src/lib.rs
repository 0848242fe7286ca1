//! Wire-crossing runtimes for the ASAP protocol stack.
//!
//! The protocol crates (`asap-search`, `asap-core`) are written against the
//! [`asap_sim::Transport`] capability trait, and the engine is generic over
//! what its queue holds for a message in flight ([`asap_sim::Carrier`]).
//! This crate supplies the wire side of that seam:
//!
//! * [`wire`] — length-prefixed, checksummed framing whose payload is the
//!   message's [`asap_sim::Codec`]; no per-protocol wire code.
//! * [`loopback`] — the [`Framed`] message carrier and [`Loopback`], the
//!   sim engine's own builder on that carrier: the event queue holds
//!   encoded frames, `send` encodes, dispatch decodes, and everything
//!   else *is* `asap_sim::Simulation`. An audited replay on this carrier
//!   that reproduces the pinned sim audit digest, with no frame failing
//!   to decode, proves protocol behavior survives serialization; the
//!   audit, fault and adversary layers work on the net carrier because it
//!   is the same code.
//! * [`clock`] — the monotonic wall→virtual clock mapping.
//! * [`daemon`] — the `asapd` runtime: the same engine paced by the wall
//!   clock and driven over a Unix-socket control protocol whose commands
//!   become workload events. Nondeterministic at one documented boundary
//!   (pacing); it makes no digest claim.
//!
//! Determinism policy: lint rules R1–R5 apply to this crate. The wall
//! clock reads in [`clock`] are the single sanctioned ambient-time
//! boundary, pragma'd at each site.

pub mod clock;
pub mod daemon;
pub mod loopback;
pub mod wire;

pub use clock::VirtualClock;
pub use daemon::{run_daemon, DaemonConfig};
pub use loopback::{Framed, Loopback, PackedFrame};
pub use wire::{Frame, WireError, MAX_FRAME};
