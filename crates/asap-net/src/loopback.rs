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
//! `Simulation::builder` run with the wire format load-bearing in between.
//! The checked sim≡net witness: on every cell of `asap-bench`'s fault-free
//! and lossy golden matrices, an audited run on this carrier reproduces the
//! sim's pinned audit digest (ordered and timestamped, over the whole trace
//! stream) with zero wire errors.
//!
//! The carrier keeps one thing between messages, owned by the engine's
//! `Ctx` and gone with it: the buffer every frame is encoded in. Every
//! frame decodes into allocations of its own. An ad's filter is cached by
//! many peers at once (that is the paper's point, §III-B); the protocol's
//! ad caches find an arriving filter's equal by its contents
//! (`asap_core::repository::FilterStore`), so its cachers share one
//! allocation, as they do on the sim, and the decoded copy is dropped with
//! the message.
//!
//! Locally produced frames decode cleanly by construction; if one ever
//! does not, the engine drops the message and counts it in
//! [`SimReport::wire_errors`](asap_sim::SimReport::wire_errors) rather
//! than panicking (lint rule R4), so a codec regression surfaces as a
//! nonzero error count, never an abort. The count is half of the witness:
//! the engine traces a delivery before it unpacks the frame, so a dropped
//! message moves the digest only when its loss changes what happens next.

use crate::wire::{self, Frame};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{Carrier, CheckpointProtocol, SimBuilder};
use std::marker::PhantomData;

/// The wire carrier: the event queue holds encoded frames of protocol `P`.
pub struct Framed<P> {
    /// Every frame is encoded here first, so the queued copy is one
    /// allocation of exactly the frame's size.
    scratch: Vec<u8>,
    protocol: PhantomData<P>,
}

impl<P> Default for Framed<P> {
    fn default() -> Self {
        Self {
            scratch: Vec::new(),
            protocol: PhantomData,
        }
    }
}

impl<P: CheckpointProtocol> Carrier<P::Msg> for Framed<P> {
    type Packed = Vec<u8>;

    fn pack(
        &mut self,
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: usize,
        msg: P::Msg,
    ) -> Vec<u8> {
        let frame = Frame {
            from,
            to,
            class,
            billed: bytes as u32,
            msg,
        };
        self.scratch.clear();
        wire::encode_frame_into::<P>(&frame, &mut self.scratch);
        self.scratch.as_slice().to_vec()
    }

    fn unpack(&mut self, packed: Vec<u8>) -> Option<P::Msg> {
        wire::decode_frame_exact::<P>(&packed).ok().map(|f| f.msg)
    }
}

/// A loopback run: the engine's own builder on the [`Framed`] carrier.
/// `Loopback::new(phys, workload, overlay, kind, protocol, seed)` takes the
/// arguments of `Simulation::builder` and offers the same layers.
pub type Loopback<'a, P> = SimBuilder<'a, P, Framed<P>>;
