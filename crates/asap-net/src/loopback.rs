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
//! `Ctx` and gone with it: the buffer every frame is encoded in. The queue
//! holds a [`PackedFrame`] copy of it: a short frame inline in the queue
//! slot, a long one in one heap allocation. Dispatch runs the frame through
//! the one validator every wire decoder shares and keeps only the message,
//! whose `Rc`s are allocations of its own. An ad's filter is cached by
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

/// One encoded frame as the event queue holds it. A frame of up to
/// [`PackedFrame::INLINE`] bytes sits in the queue slot itself; a longer
/// one (a full or patch ad, an ads reply) is one heap allocation of
/// exactly its size.
#[derive(Debug)]
pub struct PackedFrame(Stored);

#[derive(Debug)]
enum Stored {
    Inline {
        len: u8,
        bytes: [u8; PackedFrame::INLINE],
    },
    Heap(Box<[u8]>),
}

impl PackedFrame {
    /// The longest frame kept inline. A refresh ad, nine frames in ten of
    /// an ASAP run, is 48 bytes; 54 is the most that keeps a packed frame
    /// at the 56 bytes a 48-byte one takes anyway (length and variant
    /// bytes included), and it takes in every confirm reply and hit and
    /// most confirms and query frames as well.
    pub const INLINE: usize = 54;

    /// Queue a copy of one encoded frame.
    #[inline]
    pub fn copy_of(frame: &[u8]) -> Self {
        if frame.len() <= Self::INLINE {
            let mut bytes = [0; Self::INLINE];
            bytes[..frame.len()].copy_from_slice(frame);
            // INLINE < 256, so the length fits its byte.
            let len = frame.len() as u8;
            Self(Stored::Inline { len, bytes })
        } else {
            Self(Stored::Heap(frame.into()))
        }
    }

    /// Whether the frame sits in the queue slot rather than on the heap.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Stored::Inline { .. })
    }

    /// The frame's bytes, as [`wire::encode_frame_into`] wrote them.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Stored::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Stored::Heap(bytes) => bytes,
        }
    }

    /// The frame's bytes, writable in place: how a test plants a corrupt
    /// byte in a queued frame.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Stored::Inline { len, bytes } => &mut bytes[..usize::from(*len)],
            Stored::Heap(bytes) => bytes,
        }
    }
}

/// The wire carrier: the event queue holds encoded frames of protocol `P`.
pub struct Framed<P> {
    /// Every frame is encoded here first, then copied into its
    /// [`PackedFrame`].
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
    type Packed = PackedFrame;

    fn pack(
        &mut self,
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: usize,
        msg: P::Msg,
    ) -> PackedFrame {
        let frame = Frame {
            from,
            to,
            class,
            billed: bytes as u32,
            msg,
        };
        self.scratch.clear();
        wire::encode_frame_into::<P>(&frame, &mut self.scratch);
        PackedFrame::copy_of(&self.scratch)
    }

    fn unpack(&mut self, packed: PackedFrame) -> Option<P::Msg> {
        wire::read_whole_frame::<P>(packed.as_bytes())
            .ok()
            .map(|(_, msg)| msg)
    }
}

/// A loopback run: the engine's own builder on the [`Framed`] carrier.
/// `Loopback::new(phys, workload, overlay, kind, protocol, seed)` takes the
/// arguments of `Simulation::builder` and offers the same layers.
pub type Loopback<'a, P> = SimBuilder<'a, P, Framed<P>>;
