//! The typed trace-event taxonomy and its JSONL serialization.
//!
//! Events are flat `Copy` structs of integers and small label enums; the
//! JSONL writer emits keys in a fixed order so two replays of the same seed
//! produce byte-identical output (pinned by the trace determinism test).

use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;

/// One observable simulation event. Engine events are the one stream both
/// the engine's auditor and any attached sink consume (so they carry every
/// field the auditor folds); protocol taps come from the
/// search/advertisement implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A message left `from`: bytes charged, delivery scheduled `delay_us`
    /// from now (network latency plus any fault-injected jitter). Dropped
    /// sends appear as [`Event::FaultDrop`] instead.
    Send {
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: u32,
        delay_us: u64,
    },
    /// A delivery reached dispatch; `delivered` is the liveness gate's
    /// verdict, `dup` marks a fault-injected duplicate copy.
    Deliver {
        to: PeerId,
        from: PeerId,
        delivered: bool,
        dup: bool,
    },
    /// The fault layer dropped a send (random loss, or a partition cut)
    /// after its bytes were charged.
    FaultDrop {
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: u32,
        partition: bool,
    },
    /// The fault layer scheduled a duplicate copy of a send.
    FaultDuplicate { from: PeerId, to: PeerId },
    /// The adversary layer absorbed a send at a free-riding target (bytes
    /// charged, nothing queued for delivery).
    AdversaryAbsorb {
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: u32,
    },
    /// A protocol timer was armed.
    TimerSet {
        node: PeerId,
        delay_us: u64,
        tag: u64,
    },
    /// A timer reached dispatch; `fired` is the liveness gate's verdict.
    TimerFired { node: PeerId, tag: u64, fired: bool },
    /// A trace query entered the ledger and is about to reach the protocol.
    QueryIssued { id: u32, requester: PeerId },
    /// A confirmed answer for query `id` was reported.
    QueryAnswered { id: u32 },
    /// A content-change trace event was applied (or skipped as a no-op).
    ContentChanged {
        peer: PeerId,
        doc: u32,
        added: bool,
        applied: bool,
    },
    /// `peer` joined and was re-attached to the overlay.
    Join { peer: PeerId },
    /// `peer` departed and was detached.
    Leave { peer: PeerId },
    /// A robustness counter ticked (see `asap_metrics::RetryStat`).
    Counter { stat: RetryStat },
    /// ASAP published an advertisement of the given class (full, patch, or
    /// refresh) from `node`.
    AdPublished { node: PeerId, class: MsgClass },
    /// ASAP answered query `id` from `node`'s local ad cache with `hits`
    /// candidate sources.
    QueryLocalHits { id: u32, node: PeerId, hits: u32 },
    /// ASAP found no usable cached ads for query `id` and fell back to the
    /// underlying blind-search dispersal.
    QueryFallback { id: u32, node: PeerId },
    /// ASAP sent `targets` content confirmations for query `id`.
    ConfirmSent { id: u32, node: PeerId, targets: u32 },
    /// A confirmation reply for query `id` came back (`positive`: the source
    /// still holds matching content).
    ConfirmResult {
        id: u32,
        node: PeerId,
        positive: bool,
    },
    /// A flooding fan-out for query `id`: `fanout` copies at `ttl` hops left.
    FloodFanout {
        id: u32,
        node: PeerId,
        ttl: u32,
        fanout: u32,
    },
    /// One random-walk step for query `id` with `ttl` hops left.
    WalkStep { id: u32, node: PeerId, ttl: u32 },
    /// A GSA dispersal for query `id`: `fanout` probes sharing `budget`.
    GsaDisperse {
        id: u32,
        node: PeerId,
        fanout: u32,
        budget: u32,
    },
}

impl Event {
    /// Stable lower-kebab-case event name (the JSONL `ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Send { .. } => "send",
            Self::Deliver { .. } => "deliver",
            Self::FaultDrop { .. } => "fault-drop",
            Self::FaultDuplicate { .. } => "fault-dup",
            Self::AdversaryAbsorb { .. } => "adversary-absorb",
            Self::TimerSet { .. } => "timer-set",
            Self::TimerFired { .. } => "timer-fired",
            Self::QueryIssued { .. } => "query-issued",
            Self::QueryAnswered { .. } => "query-answered",
            Self::ContentChanged { .. } => "content-changed",
            Self::Join { .. } => "join",
            Self::Leave { .. } => "leave",
            Self::Counter { .. } => "counter",
            Self::AdPublished { .. } => "ad-published",
            Self::QueryLocalHits { .. } => "query-local-hits",
            Self::QueryFallback { .. } => "query-fallback",
            Self::ConfirmSent { .. } => "confirm-sent",
            Self::ConfirmResult { .. } => "confirm-result",
            Self::FloodFanout { .. } => "flood-fanout",
            Self::WalkStep { .. } => "walk-step",
            Self::GsaDisperse { .. } => "gsa-disperse",
        }
    }

    /// The query id this event belongs to, when it has one (`--trace-query`
    /// drill-down filters on this).
    pub fn query_id(&self) -> Option<u32> {
        match *self {
            Self::QueryIssued { id, .. }
            | Self::QueryAnswered { id }
            | Self::QueryLocalHits { id, .. }
            | Self::QueryFallback { id, .. }
            | Self::ConfirmSent { id, .. }
            | Self::ConfirmResult { id, .. }
            | Self::FloodFanout { id, .. }
            | Self::WalkStep { id, .. }
            | Self::GsaDisperse { id, .. } => Some(id),
            _ => None,
        }
    }

    /// The node the event is anchored at (the Chrome-trace thread lane).
    pub fn node(&self) -> Option<PeerId> {
        match *self {
            Self::Send { from, .. }
            | Self::FaultDrop { from, .. }
            | Self::FaultDuplicate { from, .. }
            | Self::AdversaryAbsorb { from, .. } => Some(from),
            Self::Deliver { to, .. } => Some(to),
            Self::TimerSet { node, .. }
            | Self::TimerFired { node, .. }
            | Self::AdPublished { node, .. }
            | Self::QueryLocalHits { node, .. }
            | Self::QueryFallback { node, .. }
            | Self::ConfirmSent { node, .. }
            | Self::ConfirmResult { node, .. }
            | Self::FloodFanout { node, .. }
            | Self::WalkStep { node, .. }
            | Self::GsaDisperse { node, .. } => Some(node),
            Self::QueryIssued { requester, .. } => Some(requester),
            Self::ContentChanged { peer, .. } | Self::Join { peer } | Self::Leave { peer } => {
                Some(peer)
            }
            Self::QueryAnswered { .. } | Self::Counter { .. } => None,
        }
    }
}

/// A timestamped event as retained by the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Virtual time, µs. Never wall time (lint rule R2).
    pub now_us: u64,
    pub event: Event,
}

/// Append `key:int` to a JSONL object under construction.
fn push_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn push_bool(out: &mut String, key: &str, v: bool) {
    push_u64(out, key, v as u64);
}

fn push_label(out: &mut String, key: &str, label: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(label);
    out.push('"');
}

impl Record {
    /// One JSONL line (no trailing newline): `{"t":<µs>,"ev":"<name>",...}`
    /// with event fields in declaration order. Integers and fixed label
    /// strings only — replaying a seed reproduces the bytes exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t\":");
        out.push_str(&self.now_us.to_string());
        push_label(&mut out, "ev", self.event.name());
        match self.event {
            Event::Send {
                from,
                to,
                class,
                bytes,
                delay_us,
            } => {
                push_u64(&mut out, "from", from.0 as u64);
                push_u64(&mut out, "to", to.0 as u64);
                push_label(&mut out, "class", class.label());
                push_u64(&mut out, "bytes", bytes as u64);
                push_u64(&mut out, "delay_us", delay_us);
            }
            Event::Deliver {
                to,
                from,
                delivered,
                dup,
            } => {
                push_u64(&mut out, "to", to.0 as u64);
                push_u64(&mut out, "from", from.0 as u64);
                push_bool(&mut out, "delivered", delivered);
                push_bool(&mut out, "dup", dup);
            }
            Event::FaultDrop {
                from,
                to,
                class,
                bytes,
                partition,
            } => {
                push_u64(&mut out, "from", from.0 as u64);
                push_u64(&mut out, "to", to.0 as u64);
                push_label(&mut out, "class", class.label());
                push_u64(&mut out, "bytes", bytes as u64);
                push_bool(&mut out, "partition", partition);
            }
            Event::FaultDuplicate { from, to } => {
                push_u64(&mut out, "from", from.0 as u64);
                push_u64(&mut out, "to", to.0 as u64);
            }
            Event::AdversaryAbsorb {
                from,
                to,
                class,
                bytes,
            } => {
                push_u64(&mut out, "from", from.0 as u64);
                push_u64(&mut out, "to", to.0 as u64);
                push_label(&mut out, "class", class.label());
                push_u64(&mut out, "bytes", bytes as u64);
            }
            Event::TimerSet {
                node,
                delay_us,
                tag,
            } => {
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "delay_us", delay_us);
                push_u64(&mut out, "tag", tag);
            }
            Event::TimerFired { node, tag, fired } => {
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "tag", tag);
                push_bool(&mut out, "fired", fired);
            }
            Event::QueryIssued { id, requester } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "requester", requester.0 as u64);
            }
            Event::QueryAnswered { id } => {
                push_u64(&mut out, "id", id as u64);
            }
            Event::ContentChanged {
                peer,
                doc,
                added,
                applied,
            } => {
                push_u64(&mut out, "peer", peer.0 as u64);
                push_u64(&mut out, "doc", doc as u64);
                push_bool(&mut out, "added", added);
                push_bool(&mut out, "applied", applied);
            }
            Event::Join { peer } | Event::Leave { peer } => {
                push_u64(&mut out, "peer", peer.0 as u64);
            }
            Event::Counter { stat } => {
                push_label(&mut out, "stat", stat.label());
            }
            Event::AdPublished { node, class } => {
                push_u64(&mut out, "node", node.0 as u64);
                push_label(&mut out, "class", class.label());
            }
            Event::QueryLocalHits { id, node, hits } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "hits", hits as u64);
            }
            Event::QueryFallback { id, node } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
            }
            Event::ConfirmSent { id, node, targets } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "targets", targets as u64);
            }
            Event::ConfirmResult { id, node, positive } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_bool(&mut out, "positive", positive);
            }
            Event::FloodFanout {
                id,
                node,
                ttl,
                fanout,
            } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "ttl", ttl as u64);
                push_u64(&mut out, "fanout", fanout as u64);
            }
            Event::WalkStep { id, node, ttl } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "ttl", ttl as u64);
            }
            Event::GsaDisperse {
                id,
                node,
                fanout,
                budget,
            } => {
                push_u64(&mut out, "id", id as u64);
                push_u64(&mut out, "node", node.0 as u64);
                push_u64(&mut out, "fanout", fanout as u64);
                push_u64(&mut out, "budget", budget as u64);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_has_fixed_key_order_and_integer_fields() {
        let r = Record {
            now_us: 12_345,
            event: Event::Send {
                from: PeerId(1),
                to: PeerId(2),
                class: MsgClass::Query,
                bytes: 60,
                delay_us: 4_000,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"t\":12345,\"ev\":\"send\",\"from\":1,\"to\":2,\"class\":\"query\",\"bytes\":60,\"delay_us\":4000}"
        );
        // A dropped send still carries what it was billed.
        let event = Event::FaultDrop {
            from: PeerId(1),
            to: PeerId(2),
            class: MsgClass::Query,
            bytes: 60,
            partition: false,
        };
        assert_eq!(
            Record { now_us: 7, event }.to_jsonl(),
            "{\"t\":7,\"ev\":\"fault-drop\",\"from\":1,\"to\":2,\"class\":\"query\",\"bytes\":60,\"partition\":0}"
        );
    }

    #[test]
    fn bools_serialize_as_zero_one() {
        let r = Record {
            now_us: 0,
            event: Event::Deliver {
                to: PeerId(3),
                from: PeerId(4),
                delivered: true,
                dup: false,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"t\":0,\"ev\":\"deliver\",\"to\":3,\"from\":4,\"delivered\":1,\"dup\":0}"
        );
    }

    #[test]
    fn every_event_kind_serializes_with_its_name() {
        let samples = [
            Event::Send {
                from: PeerId(0),
                to: PeerId(1),
                class: MsgClass::Confirm,
                bytes: 8,
                delay_us: 1,
            },
            Event::Deliver {
                to: PeerId(0),
                from: PeerId(1),
                delivered: true,
                dup: false,
            },
            Event::FaultDrop {
                from: PeerId(0),
                to: PeerId(1),
                class: MsgClass::Query,
                bytes: 60,
                partition: true,
            },
            Event::FaultDuplicate {
                from: PeerId(0),
                to: PeerId(1),
            },
            Event::AdversaryAbsorb {
                from: PeerId(0),
                to: PeerId(1),
                class: MsgClass::Query,
                bytes: 60,
            },
            Event::TimerSet {
                node: PeerId(0),
                delay_us: 5,
                tag: 9,
            },
            Event::TimerFired {
                node: PeerId(0),
                tag: 9,
                fired: true,
            },
            Event::QueryIssued {
                id: 7,
                requester: PeerId(0),
            },
            Event::QueryAnswered { id: 7 },
            Event::ContentChanged {
                peer: PeerId(0),
                doc: 3,
                added: true,
                applied: true,
            },
            Event::Join { peer: PeerId(0) },
            Event::Leave { peer: PeerId(0) },
            Event::Counter {
                stat: RetryStat::Retries,
            },
            Event::AdPublished {
                node: PeerId(0),
                class: MsgClass::FullAd,
            },
            Event::QueryLocalHits {
                id: 7,
                node: PeerId(0),
                hits: 2,
            },
            Event::QueryFallback {
                id: 7,
                node: PeerId(0),
            },
            Event::ConfirmSent {
                id: 7,
                node: PeerId(0),
                targets: 3,
            },
            Event::ConfirmResult {
                id: 7,
                node: PeerId(0),
                positive: true,
            },
            Event::FloodFanout {
                id: 7,
                node: PeerId(0),
                ttl: 6,
                fanout: 5,
            },
            Event::WalkStep {
                id: 7,
                node: PeerId(0),
                ttl: 3,
            },
            Event::GsaDisperse {
                id: 7,
                node: PeerId(0),
                fanout: 4,
                budget: 100,
            },
        ];
        for ev in samples {
            let line = Record {
                now_us: 1,
                event: ev,
            }
            .to_jsonl();
            assert!(line.starts_with("{\"t\":1,\"ev\":\""), "{line}");
            assert!(line.contains(ev.name()), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn query_ids_are_extracted_for_drilldown() {
        assert_eq!(
            Event::WalkStep {
                id: 42,
                node: PeerId(0),
                ttl: 1
            }
            .query_id(),
            Some(42)
        );
        assert_eq!(Event::Join { peer: PeerId(0) }.query_id(), None);
    }
}
