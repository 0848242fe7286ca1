//! The transport capability trait: what a [`Protocol`](crate::Protocol)
//! may ask of the world it runs in.
//!
//! Protocols used to be written directly against the simulator's
//! [`Ctx`](crate::Ctx), which welded them to the discrete-event engine.
//! [`Transport`] extracts the engine-coupled surface — clock, messaging,
//! timers, randomness, liveness, content, metrics, tracing — into a trait
//! that `Protocol` hooks are generic over. There is one implementation,
//! the engine's `Ctx`; what varies between the backends is only what the
//! event queue holds while a message is in flight, and that is the
//! [`Carrier`] type parameter of the engine:
//!
//! * [`InMemory`] (the default) queues the `P::Msg` value itself — the
//!   deterministic sim engine every golden digest is pinned on, and
//! * `asap_net::Framed` queues the message as an encoded wire frame
//!   (`asap_net::PackedFrame`) whose payload is the message's
//!   [`Codec`](crate::Codec): [`Carrier::pack`] serializes inside `send`,
//!   [`Carrier::unpack`] validates the frame and decodes only its message
//!   just before `on_message`. `asap-net`'s loopback
//!   and the `asapd` daemon are this same engine on that carrier.
//!
//! The engine's `Ctx` owns one carrier value per run, so a carrier can keep
//! state across messages without any global. The framed one keeps a
//! single encode buffer, which every frame is written into before the
//! queued copy is taken: inline in the queue slot for a short frame (the
//! refresh ads that are most of an ASAP run), one heap allocation for a
//! long one.
//!
//! The trait is deliberately *not* object-safe ([`Transport::trace`] is
//! generic so an unobserved run never constructs the event); protocols
//! take `&mut C` with `C: Transport<Msg = Self::Msg>` and the call
//! devirtualizes at monomorphization time.
//!
//! # Contract
//!
//! Implementations must uphold what protocols assume of the engine:
//!
//! * **Clock** — [`now_us`](Transport::now_us) is monotonically
//!   non-decreasing across callbacks, and equals the scheduled time of the
//!   event being dispatched.
//! * **Messaging** — [`send`](Transport::send) charges `bytes` to the
//!   sender immediately and delivers to `to` later (never re-entrantly,
//!   never to a dead node). Ordering between two sends is
//!   implementation-defined; protocols may not rely on it.
//! * **Timers** — [`set_timer`](Transport::set_timer) fires
//!   `on_timer(node, tag)` no earlier than `delay_us` from now, and never
//!   on a dead node. A timer cannot be cancelled: a protocol keys it by
//!   tag and ignores one whose state has gone stale by the time it fires.
//! * **Randomness** — [`rng`](Transport::rng) is the backend's decision
//!   stream. Deterministic backends must document its seeding discipline
//!   (see `lint.toml` rule R6); protocols must draw from it and nothing
//!   else.
//! * **World views** — liveness, neighbors, degree, and content reflect
//!   the world as of the current event; they only change between
//!   callbacks.

use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_trace::Event as TraceEvt;
use asap_workload::{ContentModel, ContentState};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Engine capabilities a protocol runs against. See the module docs for
/// the behavioral contract each backend must uphold.
pub trait Transport {
    /// Protocol-specific message payload. `Clone` because fault layers and
    /// wire backends may need to duplicate or re-encode a payload.
    type Msg: Clone;

    /// Current virtual time, µs.
    fn now_us(&self) -> u64;

    /// The backend's deterministic decision RNG stream.
    fn rng(&mut self) -> &mut SmallRng;

    /// Send a protocol message: `bytes` are charged to `class` now (the
    /// sender consumed the bandwidth), delivery happens later.
    fn send(&mut self, from: PeerId, to: PeerId, class: MsgClass, bytes: usize, msg: Self::Msg);

    /// Schedule `on_timer(node, tag)` after `delay_us` (dropped if the node
    /// is dead when it fires).
    fn set_timer(&mut self, node: PeerId, delay_us: u64, tag: u64);

    /// Lease the backend's reusable scratch buffer (cleared); capacity
    /// returns automatically when the guard drops.
    fn scratch(&mut self) -> ScratchGuard;

    /// Evolving shared-content state.
    fn content(&self) -> &ContentState<'_>;

    /// The static content model (documents, interests, vocabulary).
    fn model(&self) -> &ContentModel;

    /// Live neighbors of `p` in the overlay.
    fn neighbors(&self, p: PeerId) -> &[PeerId];

    /// Overlay degree of `p`.
    fn degree(&self, p: PeerId) -> usize;

    /// Whether `p` is currently alive.
    fn alive(&self, p: PeerId) -> bool;

    /// Number of currently-alive peers.
    fn alive_count(&self) -> usize;

    /// Currently-alive peers in ascending id order.
    fn alive_peers(&self) -> &[PeerId];

    /// Total peers in the world (alive or not).
    fn num_peers(&self) -> usize;

    /// Whether `query` has already been answered (protocols use this to
    /// stop retransmitting).
    fn is_answered(&self, query: u32) -> bool;

    /// Record a confirmed result for `query_id` arriving now.
    fn report_answer(&mut self, query_id: u32);

    /// Count one protocol-robustness event (retry, duplicate suppressed,
    /// confirmation lost, delivery abandoned).
    fn count(&mut self, stat: RetryStat);

    /// Emit one event to the backend's observers (the engine's auditor and
    /// trace sink, when attached). The closure defers event construction,
    /// so a run with neither attached never builds the event.
    fn trace(&mut self, f: impl FnOnce() -> TraceEvt);
}

/// What the event queue holds for a message between [`Transport::send`]
/// and `on_message`. The engine packs just before the queue push and
/// unpacks just before the protocol callback, so everything else — clock,
/// fault and adversary decisions, audit, load accounting, `(time, seq)`
/// order — is carrier-independent by construction.
///
/// A carrier may keep state between messages (buffers it reuses, what it
/// has already decoded). The engine's `Ctx` owns the one instance, built
/// by `Default`, so that state lives and dies with the `Simulation`; it
/// must never change what `unpack` returns for a given packed form.
pub trait Carrier<M>: Default {
    /// The queued form of one message.
    type Packed;

    /// Encode `msg` with the envelope `send` was called with.
    fn pack(
        &mut self,
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: usize,
        msg: M,
    ) -> Self::Packed;

    /// Decode a queued message. `None` means the packed form failed
    /// validation: the engine drops the message and counts it in
    /// [`SimReport::wire_errors`](crate::SimReport::wire_errors).
    fn unpack(&mut self, packed: Self::Packed) -> Option<M>;
}

/// The identity carrier: the queue holds the message value itself.
#[derive(Default)]
pub struct InMemory;

impl<M> Carrier<M> for InMemory {
    type Packed = M;

    #[inline]
    fn pack(&mut self, _: PeerId, _: PeerId, _: MsgClass, _: usize, msg: M) -> M {
        msg
    }

    #[inline]
    fn unpack(&mut self, packed: M) -> Option<M> {
        Some(packed)
    }
}

/// A shareable scratch-capacity slot. Backends hold one and lease it to
/// protocols via [`Transport::scratch`]; the lease hands capacity back on
/// drop, so concurrent leases simply allocate fresh.
#[derive(Clone, Default)]
pub struct ScratchSlot(Rc<RefCell<Vec<PeerId>>>);

impl ScratchSlot {
    /// Lease the slot's buffer (cleared). The guard returns the capacity on
    /// drop, early returns included.
    pub fn lease(&self) -> ScratchGuard {
        let mut buf = std::mem::take(&mut *self.0.borrow_mut());
        buf.clear();
        ScratchGuard {
            slot: Rc::clone(&self.0),
            buf,
        }
    }
}

/// RAII scratch-buffer lease (see [`Transport::scratch`]): derefs to the
/// `Vec<PeerId>`, and hands the capacity back to the backend on drop.
pub struct ScratchGuard {
    slot: Rc<RefCell<Vec<PeerId>>>,
    buf: Vec<PeerId>,
}

impl Deref for ScratchGuard {
    type Target = Vec<PeerId>;
    fn deref(&self) -> &Vec<PeerId> {
        &self.buf
    }
}

impl DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut Vec<PeerId> {
        &mut self.buf
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        *self.slot.borrow_mut() = std::mem::take(&mut self.buf);
    }
}
