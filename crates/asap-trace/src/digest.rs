//! Backend-independent lifecycle digests: the sim≡net equivalence check.
//!
//! A [`LifecycleDigest`] folds the message/query/ad **lifecycle** subset of
//! the trace stream — sends, deliveries, query progress, ad publications,
//! churn, content changes — into one order-independent 64-bit value. Two
//! properties make it the right equality witness between the deterministic
//! sim engine and `asap-net`'s loopback runtime:
//!
//! * **Timestamp-free.** Per-event hashes cover the event's fields, never
//!   `now_us`: the net backend's wall-clock→virtual mapping may stamp the
//!   same event a little differently without breaking equality. (The
//!   deterministic loopback harness reproduces virtual time exactly too,
//!   but the digest does not depend on that.)
//! * **Commutative.** Per-event FNV-1a hashes combine by `wrapping_add`,
//!   so the digest is a multiset fingerprint: events that are *scheduled*
//!   identically but *observed* in a different interleaving (same virtual
//!   instant, different dispatch order) still agree.
//!
//! Scheduling-internal events — timer arms/fires/cancels, fault and
//! adversary verdicts, robustness counters — are deliberately excluded:
//! they describe *how* a backend runs, not *what* the protocol did.

use crate::event::Event;
use crate::sink::TraceSink;
use asap_overlay::codec::Fnv64;
use std::any::Any;

/// Which runtime produced a trace stream. Tags digests (and any derived
/// artifacts) so a sim digest is never silently compared against the wrong
/// backend's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic discrete-event engine (`asap-sim`).
    Sim,
    /// The wire-crossing runtime (`asap-net` loopback or daemon).
    Net,
}

impl Backend {
    /// Stable lower-case label (report and golden-file key).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Net => "net",
        }
    }
}

/// Per-event lifecycle hash; `None` for scheduling-internal events the
/// digest ignores. The leading kind word keeps same-field events of
/// different kinds distinct; field order is fixed and part of the format.
fn lifecycle_hash(ev: &Event) -> Option<u64> {
    let mut h = Fnv64::new();
    match *ev {
        Event::Send {
            from,
            to,
            class,
            bytes,
            delay_us,
        } => h.write_all(&[1, from.0 as u64, to.0 as u64, class as u64, bytes as u64, delay_us]),
        Event::Deliver {
            to,
            from,
            delivered,
            dup,
        } => h.write_all(&[2, to.0 as u64, from.0 as u64, delivered as u64, dup as u64]),
        Event::QueryIssued { id, requester } => h.write_all(&[3, id as u64, requester.0 as u64]),
        Event::QueryAnswered { id } => h.write_all(&[4, id as u64]),
        Event::ContentChanged {
            peer,
            doc,
            added,
            applied,
        } => h.write_all(&[5, peer.0 as u64, doc as u64, added as u64, applied as u64]),
        Event::Join { peer } => h.write_all(&[6, peer.0 as u64]),
        Event::Leave { peer } => h.write_all(&[7, peer.0 as u64]),
        Event::AdPublished { node, class } => h.write_all(&[8, node.0 as u64, class as u64]),
        Event::QueryLocalHits { id, node, hits } => {
            h.write_all(&[9, id as u64, node.0 as u64, hits as u64])
        }
        Event::QueryFallback { id, node } => h.write_all(&[10, id as u64, node.0 as u64]),
        Event::ConfirmSent { id, node, targets } => {
            h.write_all(&[11, id as u64, node.0 as u64, targets as u64])
        }
        Event::ConfirmResult { id, node, positive } => {
            h.write_all(&[12, id as u64, node.0 as u64, positive as u64])
        }
        Event::FloodFanout {
            id,
            node,
            ttl,
            fanout,
        } => h.write_all(&[13, id as u64, node.0 as u64, ttl as u64, fanout as u64]),
        Event::WalkStep { id, node, ttl } => {
            h.write_all(&[14, id as u64, node.0 as u64, ttl as u64])
        }
        Event::GsaDisperse {
            id,
            node,
            fanout,
            budget,
        } => h.write_all(&[15, id as u64, node.0 as u64, fanout as u64, budget as u64]),
        Event::TimerSet { .. }
        | Event::TimerFired { .. }
        | Event::TimerCancelled { .. }
        | Event::FaultDrop { .. }
        | Event::FaultDuplicate { .. }
        | Event::AdversaryAbsorb { .. }
        | Event::Counter { .. } => return None,
    }
    Some(h.finish())
}

/// Order-independent fingerprint of a run's lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleDigest {
    backend: Backend,
    acc: u64,
    count: u64,
}

impl LifecycleDigest {
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            acc: 0,
            count: 0,
        }
    }

    /// Fold one event in (no-op for non-lifecycle events).
    pub fn absorb(&mut self, ev: &Event) {
        if let Some(h) = lifecycle_hash(ev) {
            self.acc = self.acc.wrapping_add(h);
            self.count += 1;
        }
    }

    /// The digest value: a multiset fingerprint of every absorbed
    /// lifecycle event. Comparable across backends.
    pub fn value(&self) -> u64 {
        // Folding in the count distinguishes e.g. {x, x} from {2x}.
        let mut h = Fnv64::new();
        h.write_all(&[self.count, self.acc]);
        h.finish()
    }

    /// How many lifecycle events were absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `<backend>:<hex-digest>/<count>` — the golden-file line format.
    pub fn report(&self) -> String {
        format!("{}:{:016x}/{}", self.backend.label(), self.value(), self.count)
    }
}

/// A [`TraceSink`] that feeds a [`LifecycleDigest`] — attach it to either
/// backend and compare [`LifecycleDigest::value`]s afterwards.
#[derive(Debug)]
pub struct DigestSink {
    digest: LifecycleDigest,
}

impl DigestSink {
    pub fn new(backend: Backend) -> Self {
        Self {
            digest: LifecycleDigest::new(backend),
        }
    }

    pub fn digest(&self) -> LifecycleDigest {
        self.digest
    }
}

impl TraceSink for DigestSink {
    fn record(&mut self, _now_us: u64, ev: &Event) {
        self.digest.absorb(ev);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_metrics::MsgClass;
    use asap_overlay::PeerId;

    fn send(from: u32, to: u32) -> Event {
        Event::Send {
            from: PeerId(from),
            to: PeerId(to),
            class: MsgClass::Query,
            bytes: 60,
            delay_us: 4_000,
        }
    }

    #[test]
    fn order_does_not_matter() {
        let mut a = LifecycleDigest::new(Backend::Sim);
        let mut b = LifecycleDigest::new(Backend::Net);
        a.absorb(&send(1, 2));
        a.absorb(&send(3, 4));
        b.absorb(&send(3, 4));
        b.absorb(&send(1, 2));
        assert_eq!(a.value(), b.value());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn fields_matter() {
        let mut a = LifecycleDigest::new(Backend::Sim);
        let mut b = LifecycleDigest::new(Backend::Sim);
        a.absorb(&send(1, 2));
        b.absorb(&send(2, 1));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn scheduling_internal_events_are_ignored() {
        let mut d = LifecycleDigest::new(Backend::Sim);
        let before = d.value();
        d.absorb(&Event::TimerSet {
            node: PeerId(0),
            delay_us: 5,
            tag: 1,
        });
        d.absorb(&Event::TimerFired {
            node: PeerId(0),
            tag: 1,
            fired: true,
        });
        d.absorb(&Event::FaultDrop {
            from: PeerId(0),
            to: PeerId(1),
            class: MsgClass::Query,
            bytes: 60,
            partition: false,
        });
        assert_eq!(d.value(), before);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn multiset_multiplicity_matters() {
        let mut a = LifecycleDigest::new(Backend::Sim);
        let mut b = LifecycleDigest::new(Backend::Sim);
        a.absorb(&send(1, 2));
        a.absorb(&send(1, 2));
        b.absorb(&send(1, 2));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn digest_sink_accumulates() {
        let mut sink: Box<dyn TraceSink> = Box::new(DigestSink::new(Backend::Net));
        sink.record(7, &send(1, 2));
        let sink = sink
            .into_any()
            .downcast::<DigestSink>()
            .expect("concrete sink comes back out");
        assert_eq!(sink.digest().count(), 1);
        assert_eq!(sink.digest().backend(), Backend::Net);
        assert!(sink.digest().report().starts_with("net:"));
    }
}
