//! The net carrier: the sim engine with every protocol message crossing
//! the wire codec.
//!
//! There is no second runtime here. [`Framed`] is an
//! [`asap_sim::Carrier`]: the engine's `send` serializes the message (its
//! [`asap_sim::Codec`] is the frame payload) into a [`crate::wire`] frame
//! just before the queue push, and dispatch validates and decodes it just
//! before `on_message`. Placement, the
//! `(time, seq)` event order, join/leave/content bookkeeping, RNG streams,
//! and the audit, fault, adversary and profile layers are the engine's own
//! code, so a [`Loopback`] run makes the identical decision sequence as a
//! `Simulation::builder` run with the wire format load-bearing in between;
//! equal backend-tagged lifecycle digests
//! ([`asap_trace::LifecycleDigest`]) are the checked sim≡net witness.
//!
//! Locally produced frames decode cleanly by construction; if one ever
//! does not, the engine drops the message and counts it in
//! [`SimReport::wire_errors`](asap_sim::SimReport::wire_errors) rather
//! than panicking (lint rule R4), so a codec regression surfaces as a
//! digest mismatch plus a nonzero error count, never an abort.

use crate::wire::{self, Frame};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{Carrier, CheckpointProtocol, SimBuilder};
use std::marker::PhantomData;

/// The wire carrier: the event queue holds encoded frames of protocol `P`.
pub struct Framed<P>(PhantomData<P>);

impl<P: CheckpointProtocol> Carrier<P::Msg> for Framed<P> {
    type Packed = Vec<u8>;

    fn pack(from: PeerId, to: PeerId, class: MsgClass, bytes: usize, msg: P::Msg) -> Vec<u8> {
        wire::encode_frame::<P>(&Frame {
            from,
            to,
            class,
            billed: bytes as u32,
            msg,
        })
    }

    fn unpack(packed: Vec<u8>) -> Option<P::Msg> {
        wire::decode_frame_exact::<P>(&packed).ok().map(|f| f.msg)
    }
}

/// A loopback run: the engine's own builder on the [`Framed`] carrier.
/// `Loopback::new(phys, workload, overlay, kind, protocol, seed)` takes the
/// arguments of `Simulation::builder` and offers the same layers.
pub type Loopback<'a, P> = SimBuilder<'a, P, Framed<P>>;
