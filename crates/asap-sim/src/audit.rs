//! Invariant auditing and event-stream digesting for the engine.
//!
//! The auditor is a passive consumer of the engine's one event stream: the
//! engine's tap builds each [`asap_trace::Event`] once and hands it to
//! [`SimAuditor::observe`] with the `(time, seq)` key of the event being
//! dispatched, then to the trace sink, if any. It keeps **independent
//! mirrors** of the state it checks — its own liveness map, its own
//! per-class byte and message counters — so a bookkeeping bug in the
//! engine cannot hide by corrupting both sides of a comparison. At
//! the end of a run the mirrors must reconcile *exactly* with the engine's
//! [`LoadRecorder`] and liveness map, and the [`QueryLedger`] must pass its
//! structural consistency check.
//!
//! Checks performed while running (all O(1) per event, except the overlay
//! sweep after churn):
//!
//! * no message is dispatched to a dead node, and drops match the mirror;
//! * event `(time, seq)` keys are strictly increasing at dispatch;
//! * joins/leaves flip liveness in the legal direction only;
//! * after churn, dead peers have degree 0, adjacency stays symmetric and
//!   self-loop-free, and the engine's live count matches the mirror.
//!
//! What it reads from the stream: every send arrives as exactly one of
//! `send`, `fault-drop` or `adversary-absorb` and is mirrored and folded
//! from whichever one it is; `deliver`, `timer-fired`, `query-issued`,
//! `content-changed`, `join` and `leave` are the dispatched events;
//! `fault-dup` and `counter` feed their mirrors. Timer arming and
//! cancelling, answers and the protocol taps change nothing it mirrors and
//! are ignored. The overlay sweep is a state check, not an event: the
//! engine calls [`SimAuditor::check_overlay`] after each join and leave.
//!
//! The auditor also folds every dispatched event (and every send) into an
//! FNV-1a digest. The digest covers integers only — peer ids, times,
//! sequence numbers, byte counts — so it is identical across debug/release
//! builds and platforms, which is what the differential-replay harness in
//! `asap-bench` pins as golden values.
//!
//! Auditing is **off by default**: a `Simulation` built without
//! [`SimBuilder::audit`](crate::SimBuilder::audit) carries `None` and pays
//! one pointer test per event.

use crate::adversary::AdversaryStats;
use crate::fault::FaultStats;
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters, RetryStat};
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder, Fnv64};
use asap_overlay::{Overlay, PeerId};
use asap_trace::Event;

/// The argument of [`SimBuilder::audit`](crate::SimBuilder::audit). It
/// holds no settings: an attached auditor always checks every invariant and
/// always digests.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {}

/// Most violation messages kept; further ones are counted but not
/// formatted (a broken invariant usually fires per-event, and the cap
/// bounds the report's memory).
pub const MAX_VIOLATIONS: usize = 64;

/// Outcome of an audited run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Formatted violations, capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<String>,
    /// Violations beyond the cap (count only).
    pub suppressed: u64,
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Events observed at dispatch (delivers + timers + trace events).
    pub events: u64,
    /// FNV-1a digest over the event stream, sends, and final metrics.
    pub digest: u64,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }
}

// Event-kind tags folded ahead of each digest record, so records of
// different kinds can never alias.
const TAG_SEND: u64 = 1;
const TAG_DELIVER: u64 = 2;
const TAG_TIMER: u64 = 3;
const TAG_QUERY: u64 = 4;
const TAG_CONTENT: u64 = 5;
const TAG_JOIN: u64 = 6;
const TAG_LEAVE: u64 = 7;
const TAG_FINAL: u64 = 8;
// Fault-layer records. These tags are folded only when a fault actually
// fires, so a fault-free (or inert-plan) run's digest is bit-for-bit
// identical to a run without a fault layer at all.
const TAG_FAULT_DROP: u64 = 9;
const TAG_FAULT_DUP: u64 = 10;
// Adversary-layer record: folded only when an absorption actually fires, so
// an adversary-free (or inert-plan) run's digest is bit-for-bit identical to
// a run without an adversary layer at all.
const TAG_ADVERSARY_ABSORB: u64 = 11;

/// The event-stream consumer owned by the engine context. See the module
/// docs for the invariant list.
#[derive(Debug)]
pub struct SimAuditor {
    violations: Vec<String>,
    suppressed: u64,
    checks: u64,
    events: u64,
    digest: Fnv64,
    /// Last dispatched `(time, seq)` key.
    last_key: Option<(u64, u64)>,
    /// Independent liveness mirror, driven only by observed join/leave.
    alive: Vec<bool>,
    alive_count: usize,
    /// Independent per-class accounting, driven only by observed sends.
    sent_bytes: [u64; MsgClass::COUNT],
    sent_msgs: [u64; MsgClass::COUNT],
    /// Independent robustness-counter mirror, driven only by `counter`
    /// events.
    retry_mirror: RetryCounters,
    /// Fault-event mirrors, driven only by `fault-drop` and `fault-dup`.
    fault_drops: u64,
    fault_partition_drops: u64,
    fault_dups_announced: u64,
    /// Duplicate deliveries observed at dispatch; may never exceed the
    /// announced count (the tripwire), and stragglers past the horizon make
    /// "fewer seen than announced" legal.
    fault_dups_seen: u64,
    /// Adversary-absorption mirror, driven only by `adversary-absorb`.
    adversary_absorbed: u64,
}

// Hand-written: the digest travels as its raw state word and `retry_mirror`
// is an `asap-metrics` type, restored through `RetryCounters::from_counts`.
// Checkpoint section [10] (DESIGN.md §6d).
impl Codec for SimAuditor {
    fn put(&self, enc: &mut Encoder) {
        self.violations.put(enc);
        self.suppressed.put(enc);
        self.checks.put(enc);
        self.events.put(enc);
        self.digest.finish().put(enc);
        self.last_key.put(enc);
        self.alive.put(enc);
        self.alive_count.put(enc);
        self.sent_bytes.put(enc);
        self.sent_msgs.put(enc);
        self.retry_mirror.counts().put(enc);
        self.fault_drops.put(enc);
        self.fault_partition_drops.put(enc);
        self.fault_dups_announced.put(enc);
        self.fault_dups_seen.put(enc);
        self.adversary_absorbed.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            violations: Codec::pull(dec)?,
            suppressed: Codec::pull(dec)?,
            checks: Codec::pull(dec)?,
            events: Codec::pull(dec)?,
            digest: Fnv64::from_raw(Codec::pull(dec)?),
            last_key: Codec::pull(dec)?,
            alive: Codec::pull(dec)?,
            alive_count: Codec::pull(dec)?,
            sent_bytes: Codec::pull(dec)?,
            sent_msgs: Codec::pull(dec)?,
            retry_mirror: RetryCounters::from_counts(Codec::pull(dec)?),
            fault_drops: Codec::pull(dec)?,
            fault_partition_drops: Codec::pull(dec)?,
            fault_dups_announced: Codec::pull(dec)?,
            fault_dups_seen: Codec::pull(dec)?,
            adversary_absorbed: Codec::pull(dec)?,
        })
    }
}

impl SimAuditor {
    /// Build an auditor whose liveness mirror starts from `alive` (the
    /// engine's initial map, before any event runs).
    pub fn new(alive: &[bool]) -> Self {
        Self {
            violations: Vec::new(),
            suppressed: 0,
            checks: 0,
            events: 0,
            digest: Fnv64::new(),
            last_key: None,
            alive_count: alive.iter().filter(|&&a| a).count(),
            alive: alive.to_vec(),
            sent_bytes: [0; MsgClass::COUNT],
            sent_msgs: [0; MsgClass::COUNT],
            retry_mirror: RetryCounters::new(),
            fault_drops: 0,
            fault_partition_drops: 0,
            fault_dups_announced: 0,
            fault_dups_seen: 0,
            adversary_absorbed: 0,
        }
    }

    #[inline]
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(msg());
            } else {
                self.suppressed += 1;
            }
        }
    }

    /// Record an externally detected violation (protocol hooks, ledger).
    pub(crate) fn push_violation(&mut self, msg: String) {
        self.check(false, || msg);
    }

    /// Length of the liveness mirror (decode validation: must equal the
    /// engine's peer count).
    pub(crate) fn mirror_len(&self) -> usize {
        self.alive.len()
    }

    /// Common per-dispatch bookkeeping: count the event and require the
    /// `(time, seq)` key to strictly increase.
    fn observe_key(&mut self, time_us: u64, seq: u64) {
        self.events += 1;
        let key = (time_us, seq);
        if let Some(last) = self.last_key {
            self.check(key > last, || {
                format!("event key {key:?} not after previous {last:?}")
            });
        }
        self.last_key = Some(key);
    }

    /// Fold `record` into the digest.
    #[inline]
    fn fold(&mut self, record: &[u64]) {
        self.digest.write_all(record);
    }

    /// Consume one engine event. `(now_us, seq)` is the key of the event
    /// being dispatched; `seq` is read only for the dispatched kinds (the
    /// module docs list what each kind drives).
    pub fn observe(&mut self, now_us: u64, seq: u64, ev: &Event) {
        match *ev {
            Event::Send {
                from,
                to,
                class,
                bytes,
                ..
            } => self.sent(now_us, from, to, class, bytes),
            Event::FaultDrop {
                from,
                to,
                class,
                bytes,
                partition,
            } => {
                self.sent(now_us, from, to, class, bytes);
                if partition {
                    self.fault_partition_drops += 1;
                } else {
                    self.fault_drops += 1;
                }
                self.fold(&[
                    TAG_FAULT_DROP,
                    now_us,
                    from.0 as u64,
                    to.0 as u64,
                    partition as u64,
                ]);
            }
            Event::AdversaryAbsorb {
                from,
                to,
                class,
                bytes,
            } => {
                self.sent(now_us, from, to, class, bytes);
                self.adversary_absorbed += 1;
                let class = class.index() as u64;
                self.fold(&[
                    TAG_ADVERSARY_ABSORB,
                    now_us,
                    from.0 as u64,
                    to.0 as u64,
                    class,
                ]);
            }
            Event::FaultDuplicate { from, to } => {
                self.fault_dups_announced += 1;
                self.fold(&[TAG_FAULT_DUP, now_us, from.0 as u64, to.0 as u64]);
            }
            // Reconciled exactly at `finish` but never folded into the digest
            // (fault-free digests keep their historical values).
            Event::Counter { stat } => self.retry_mirror.record(stat),
            // `delivered` is the engine's liveness gate; `dup` marks a
            // fault-injected copy, which a `fault-dup` must have announced.
            // `dup` is deliberately **not** folded: fault-free records keep
            // their exact historical shape, and a duplicate is already
            // visible in the stream as an extra record.
            Event::Deliver {
                to,
                from,
                delivered,
                dup,
            } => {
                self.observe_key(now_us, seq);
                self.fault_dups_seen += dup as u64;
                self.check(delivered == self.alive[to.index()], || {
                    let fate = if delivered {
                        "delivered to dead"
                    } else {
                        "dropped at live"
                    };
                    format!("message from {from:?} {fate} node {to:?} at {now_us}")
                });
                if dup {
                    self.check(self.fault_dups_seen <= self.fault_dups_announced, || {
                        format!(
                            "duplicate delivery from {from:?} to {to:?} at {now_us} \
                             without a matching fault-layer duplication event"
                        )
                    });
                }
                let (to, from) = (to.0 as u64, from.0 as u64);
                self.fold(&[TAG_DELIVER, now_us, seq, to, from, delivered as u64]);
            }
            Event::TimerFired { node, tag, fired } => {
                self.observe_key(now_us, seq);
                let mirror = self.alive[node.index()];
                self.check(fired == mirror, || {
                    format!("timer tag {tag} at {node:?}: fired={fired} but mirror alive={mirror}")
                });
                self.fold(&[TAG_TIMER, now_us, seq, node.0 as u64, tag, fired as u64]);
            }
            Event::QueryIssued { id, requester } => {
                self.observe_key(now_us, seq);
                self.check(self.alive[requester.index()], || {
                    format!("query {id} issued by dead node {requester:?} at {now_us}")
                });
                self.fold(&[TAG_QUERY, now_us, seq, id as u64, requester.0 as u64]);
            }
            Event::ContentChanged {
                peer,
                doc,
                added,
                applied,
            } => {
                self.observe_key(now_us, seq);
                let (peer, doc) = (peer.0 as u64, doc as u64);
                self.fold(&[
                    TAG_CONTENT,
                    now_us,
                    seq,
                    peer,
                    doc,
                    added as u64,
                    applied as u64,
                ]);
            }
            Event::Join { peer } => {
                self.flip(now_us, seq, peer, true);
                self.fold(&[TAG_JOIN, now_us, seq, peer.0 as u64]);
            }
            Event::Leave { peer } => {
                self.flip(now_us, seq, peer, false);
                self.fold(&[TAG_LEAVE, now_us, seq, peer.0 as u64]);
            }
            Event::TimerSet { .. }
            | Event::TimerCancelled { .. }
            | Event::QueryAnswered { .. }
            | Event::AdPublished { .. }
            | Event::QueryLocalHits { .. }
            | Event::QueryFallback { .. }
            | Event::ConfirmSent { .. }
            | Event::ConfirmResult { .. }
            | Event::FloodFanout { .. }
            | Event::WalkStep { .. }
            | Event::GsaDisperse { .. } => {}
        }
    }

    /// A message left `from` for `to` (whatever became of it): mirror the
    /// byte/message accounting and require the sender to be alive.
    fn sent(&mut self, now_us: u64, from: PeerId, to: PeerId, class: MsgClass, bytes: u32) {
        self.sent_bytes[class.index()] += bytes as u64;
        self.sent_msgs[class.index()] += 1;
        self.check(from != to, || format!("self-send at {from:?}"));
        self.check(self.alive[from.index()], || {
            format!("dead node {from:?} sent {class:?} at {now_us}")
        });
        let (from, to, class) = (from.0 as u64, to.0 as u64, class.index() as u64);
        self.fold(&[TAG_SEND, now_us, from, to, class, bytes as u64]);
    }

    /// A join (`alive`) or leave was applied: flip the mirror, legal
    /// direction only.
    fn flip(&mut self, time_us: u64, seq: u64, p: PeerId, alive: bool) {
        self.observe_key(time_us, seq);
        let legal = self.alive[p.index()] != alive;
        let what = if alive {
            "join of already-live"
        } else {
            "leave of already-dead"
        };
        self.check(legal, || format!("{what} node {p:?} at {time_us}"));
        if legal {
            self.alive[p.index()] = alive;
            if alive {
                self.alive_count += 1;
            } else {
                self.alive_count -= 1;
            }
        }
    }

    /// Overlay/liveness consistency sweep, run after churn and at the end:
    /// dead ⇒ degree 0, adjacency symmetric and self-loop-free, engine
    /// liveness identical to the mirror.
    pub fn check_overlay(&mut self, overlay: &Overlay, engine_alive: &[bool], engine_count: usize) {
        self.check(engine_alive == self.alive.as_slice(), || {
            "engine liveness map diverged from audit mirror".to_string()
        });
        let mirror_count = self.alive_count;
        self.check(engine_count == mirror_count, || {
            format!("engine alive count {engine_count} != mirror {mirror_count}")
        });
        for i in 0..overlay.num_peers() {
            let p = PeerId(i as u32);
            let deg = overlay.degree(p);
            if !self.alive[i] {
                self.check(deg == 0, || {
                    format!("dead node {p:?} still has degree {deg}")
                });
            }
            for &q in overlay.neighbors(p) {
                self.check(q != p, || format!("self-loop at {p:?}"));
                self.check(overlay.has_edge(q, p), || {
                    format!("asymmetric edge {p:?} -> {q:?}")
                });
            }
        }
    }

    /// Final reconciliation against the engine's metrics, then fold the
    /// final world state into the digest and produce the report.
    ///
    /// `retry` is the engine's robustness-counter ledger, `faults` the
    /// fault layer's own statistics, and `adversary` the adversary layer's
    /// (`None` when the respective plan was not attached); all must
    /// reconcile exactly with this auditor's independent mirrors.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        mut self,
        load: &LoadRecorder,
        ledger: &QueryLedger,
        overlay: &Overlay,
        engine_alive: &[bool],
        engine_count: usize,
        messages_sent: u64,
        end_time_us: u64,
        retry: &RetryCounters,
        faults: Option<&FaultStats>,
        adversary: Option<&AdversaryStats>,
    ) -> AuditReport {
        // Robustness counters: the engine's ledger and the mirror saw
        // the same `Ctx::count` calls and nothing else.
        for s in RetryStat::ALL {
            let (eng, mir) = (retry.get(s), self.retry_mirror.get(s));
            self.check(eng == mir, || {
                format!("{} counter: engine {eng} != audit mirror {mir}", s.label())
            });
        }

        // Fault statistics: every drop and duplication the layer counted
        // must have been announced to the auditor, and none invented.
        let (drops, partitioned, duplicated) = match faults {
            Some(f) => (f.dropped, f.partitioned, f.duplicated),
            None => (0, 0, 0),
        };
        let (md, mp, ma) = (
            self.fault_drops,
            self.fault_partition_drops,
            self.fault_dups_announced,
        );
        self.check(drops == md, || {
            format!("fault drops: layer {drops} != audit mirror {md}")
        });
        self.check(partitioned == mp, || {
            format!("partition drops: layer {partitioned} != audit mirror {mp}")
        });
        self.check(duplicated == ma, || {
            format!("duplications: layer {duplicated} != audit mirror {ma}")
        });
        // Stragglers past the horizon make "fewer seen" legal, never more.
        let seen = self.fault_dups_seen;
        self.check(seen <= ma, || {
            format!("duplicate deliveries seen {seen} > announced {ma}")
        });
        // Adversary statistics: every absorption the layer counted must
        // have been announced to the auditor, and none invented.
        let absorbed = adversary.map_or(0, |a| a.absorbed);
        let mirror_absorbed = self.adversary_absorbed;
        self.check(absorbed == mirror_absorbed, || {
            format!("adversary absorbs: layer {absorbed} != audit mirror {mirror_absorbed}")
        });
        // Per-class bytes and message counts must reconcile *exactly*:
        // both sides saw the same `send` calls and nothing else.
        let bytes = load.class_totals();
        let msgs = load.class_message_totals();
        for c in MsgClass::ALL {
            let i = c.index();
            let (sb, sm) = (self.sent_bytes[i], self.sent_msgs[i]);
            self.check(bytes[i] == sb, || {
                format!(
                    "{} bytes: recorder {} != audited sends {sb}",
                    c.label(),
                    bytes[i]
                )
            });
            self.check(msgs[i] == sm, || {
                format!(
                    "{} messages: recorder {} != audited sends {sm}",
                    c.label(),
                    msgs[i]
                )
            });
        }
        let total_msgs: u64 = self.sent_msgs.iter().sum();
        self.check(messages_sent == total_msgs, || {
            format!("engine messages_sent {messages_sent} != audited sends {total_msgs}")
        });

        // Ledger outcome consistency (success ⇒ in-range response time,
        // issued = resolved + unanswered).
        for v in ledger.check_consistency(end_time_us) {
            self.push_violation(v);
        }

        // The live-peer step timeline must be monotone in time.
        let steps = load.alive_steps();
        for w in steps.windows(2) {
            self.check(w[0].0 <= w[1].0, || {
                format!("alive timeline goes backwards: {:?} then {:?}", w[0], w[1])
            });
        }

        self.check_overlay(overlay, engine_alive, engine_count);

        // Final metrics: everything integral the replay harness pins.
        self.digest
            .write_all(&[TAG_FINAL, end_time_us, messages_sent]);
        self.digest.write_all(&load.class_totals());
        self.digest.write_all(&load.class_message_totals());
        self.digest.write_all(&[
            ledger.num_queries() as u64,
            ledger.num_succeeded() as u64,
            ledger.num_unanswered() as u64,
        ]);
        for (id, rec) in ledger.records_with_ids() {
            self.digest.write_all(&[
                id as u64,
                rec.issue_us,
                rec.first_answer_us.map_or(u64::MAX, |t| t),
                rec.answers as u64,
            ]);
        }
        for (i, &a) in engine_alive.iter().enumerate() {
            if a {
                self.digest.write_u64(i as u64);
            }
        }

        AuditReport {
            violations: self.violations,
            suppressed: self.suppressed,
            checks: self.checks,
            events: self.events,
            digest: self.digest.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(to: u32, from: u32, delivered: bool, dup: bool) -> Event {
        Event::Deliver {
            to: PeerId(to),
            from: PeerId(from),
            delivered,
            dup,
        }
    }

    // A 40-byte query from peer 0 to peer 1, by each of its three fates.
    const Q: MsgClass = MsgClass::Query;
    const SEND: Event = Event::Send {
        from: PeerId(0),
        to: PeerId(1),
        class: Q,
        bytes: 40,
        delay_us: 4_000,
    };
    const ABSORB: Event = Event::AdversaryAbsorb {
        from: PeerId(0),
        to: PeerId(1),
        class: Q,
        bytes: 40,
    };

    fn fault_drop(partition: bool) -> Event {
        Event::FaultDrop {
            from: PeerId(0),
            to: PeerId(1),
            class: Q,
            bytes: 40,
            partition,
        }
    }

    /// Finish a four-peer run in which the engine charged `sends` copies of
    /// the 40-byte query.
    fn finish(
        a: SimAuditor,
        sends: u64,
        retry: &RetryCounters,
        faults: Option<&FaultStats>,
        adversary: Option<&AdversaryStats>,
    ) -> AuditReport {
        use asap_overlay::{OverlayConfig, OverlayKind};
        let alive = vec![true; 4];
        let overlay: Overlay = OverlayConfig::new(OverlayKind::Random, 4, 1).build();
        let mut load = LoadRecorder::new();
        for _ in 0..sends {
            load.record(5, Q, 40);
        }
        a.finish(
            &load,
            &QueryLedger::new(),
            &overlay,
            &alive,
            4,
            sends,
            0,
            retry,
            faults,
            adversary,
        )
    }

    #[test]
    fn delivery_to_dead_node_is_flagged() {
        let mut a = SimAuditor::new(&[true, false]);
        a.observe(10, 0, &deliver(1, 0, true, false));
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("dead node"));
    }

    #[test]
    fn drop_at_live_node_is_flagged() {
        let mut a = SimAuditor::new(&[true, true]);
        a.observe(10, 0, &deliver(1, 0, false, false));
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("dropped at live node"));
    }

    #[test]
    fn non_monotone_keys_are_flagged() {
        let mut a = SimAuditor::new(&[true, true]);
        a.observe(10, 5, &deliver(1, 0, true, false));
        a.observe(10, 4, &deliver(0, 1, true, false)); // same time, seq back
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("not after"));
        // Equal times with increasing seq are fine.
        let mut b = SimAuditor::new(&[true, true]);
        b.observe(10, 5, &deliver(1, 0, true, false));
        b.observe(10, 6, &deliver(0, 1, true, false));
        assert!(b.violations.is_empty());
    }

    #[test]
    fn join_leave_mirror_tracks_and_flags_illegal_flips() {
        let mut a = SimAuditor::new(&[true, false]);
        a.observe(5, 0, &Event::Join { peer: PeerId(1) });
        assert!(a.violations.is_empty());
        a.observe(6, 1, &Event::Join { peer: PeerId(1) }); // already live
        assert_eq!(a.violations.len(), 1);
        a.observe(7, 2, &Event::Leave { peer: PeerId(0) });
        a.observe(8, 3, &Event::Leave { peer: PeerId(0) }); // already dead
        assert_eq!(a.violations.len(), 2);
        assert!(a.violations[0].contains("join of already-live node"));
        assert!(a.violations[1].contains("leave of already-dead node"));
        assert_eq!(a.alive_count, 1); // node 1 alive, node 0 dead
    }

    #[test]
    fn violation_cap_suppresses_formatting() {
        let mut a = SimAuditor::new(&[false]);
        let over = MAX_VIOLATIONS as u64 + 3;
        for i in 0..over {
            a.observe(i, i, &deliver(0, 0, true, false));
        }
        assert_eq!(a.violations.len(), MAX_VIOLATIONS);
        assert_eq!(a.suppressed, 3);
    }

    #[test]
    fn unannounced_duplicate_delivery_is_flagged() {
        let mut a = SimAuditor::new(&[true, true]);
        a.observe(10, 0, &deliver(1, 0, true, true));
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("without a matching fault-layer duplication event"));
    }

    #[test]
    fn announced_duplicate_delivery_is_clean() {
        let mut a = SimAuditor::new(&[true, true]);
        a.observe(
            5,
            0,
            &Event::FaultDuplicate {
                from: PeerId(0),
                to: PeerId(1),
            },
        );
        a.observe(10, 0, &deliver(1, 0, true, false));
        a.observe(11, 1, &deliver(1, 0, true, true));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        // A second duplicate without a second announcement trips.
        a.observe(12, 2, &deliver(1, 0, true, true));
        assert_eq!(a.violations.len(), 1);
    }

    /// `fault-drop` and `adversary-absorb` each stand for a send: they fold
    /// the `TAG_SEND` record a delivered send folds, then their own — the
    /// two records the engine's old hook pair folded, in that order.
    #[test]
    fn drop_and_absorb_fold_the_send_record_then_their_own() {
        let by_hand = |own: &[u64]| {
            let mut h = Fnv64::new();
            h.write_all(&[TAG_SEND, 5, 0, 1, Q.index() as u64, 40]);
            h.write_all(own);
            h
        };
        let observed = |ev: Event| {
            let mut a = SimAuditor::new(&[true, true]);
            a.observe(5, 0, &ev);
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert_eq!((a.sent_msgs[Q.index()], a.sent_bytes[Q.index()]), (1, 40));
            assert_eq!(a.events, 0, "a send is not a dispatched event");
            a
        };
        for partition in [false, true] {
            let a = observed(fault_drop(partition));
            let own = [TAG_FAULT_DROP, 5, 0, 1, partition as u64];
            assert_eq!(a.digest, by_hand(&own), "partition={partition}");
            let mirrors = (a.fault_drops, a.fault_partition_drops);
            assert_eq!(mirrors, (!partition as u64, partition as u64));
        }
        let a = observed(ABSORB);
        assert_eq!(
            a.digest,
            by_hand(&[TAG_ADVERSARY_ABSORB, 5, 0, 1, Q.index() as u64])
        );
        assert_eq!(a.adversary_absorbed, 1);
        // A delivered send folds the same record and nothing more.
        assert_eq!(observed(SEND).digest, by_hand(&[]));
    }

    #[test]
    fn ignored_events_change_nothing() {
        let mut a = SimAuditor::new(&[true, true]);
        for ev in [
            Event::TimerSet {
                node: PeerId(0),
                delay_us: 5,
                tag: 1,
            },
            Event::TimerCancelled { cancelled: true },
            Event::QueryAnswered { id: 3 },
            Event::QueryFallback {
                id: 3,
                node: PeerId(0),
            },
        ] {
            a.observe(9, 9, &ev);
        }
        assert_eq!((a.events, a.checks, a.last_key), (0, 0, None));
        assert_eq!(a.digest, Fnv64::new());
    }

    #[test]
    fn fault_records_change_the_digest_only_when_faults_fire() {
        let stream = |fault: bool| {
            let mut a = SimAuditor::new(&[true, true]);
            if fault {
                a.observe(5, 0, &fault_drop(false));
            } else {
                a.observe(5, 0, &SEND);
                a.observe(9, 0, &deliver(1, 0, true, false));
            }
            a
        };
        // Same sends, different fate ⇒ different digests (drop vs deliver).
        assert_ne!(stream(true).digest, stream(false).digest);
    }

    #[test]
    fn counter_mirror_reconciles_in_finish() {
        let finish_with = |mirror_hits: u32, engine_hits: u32| {
            let mut a = SimAuditor::new(&[true; 4]);
            for _ in 0..mirror_hits {
                a.observe(
                    0,
                    0,
                    &Event::Counter {
                        stat: RetryStat::Retries,
                    },
                );
            }
            let mut retry = RetryCounters::new();
            for _ in 0..engine_hits {
                retry.record(RetryStat::Retries);
            }
            finish(a, 0, &retry, None, None)
        };
        assert!(finish_with(3, 3).is_clean());
        let bad = finish_with(3, 2);
        assert!(!bad.is_clean());
        assert!(bad.violations.iter().any(|v| v.contains("retries counter")));
    }

    #[test]
    fn fault_stats_mirror_reconciles_in_finish() {
        let finish_with = |announce: bool| {
            let mut a = SimAuditor::new(&[true; 4]);
            if announce {
                a.observe(5, 0, &fault_drop(false));
            }
            let stats = FaultStats {
                dropped: 1,
                ..FaultStats::default()
            };
            // The dropped send was charged either way.
            finish(a, 1, &RetryCounters::new(), Some(&stats), None)
        };
        assert!(finish_with(true).is_clean());
        let bad = finish_with(false);
        assert!(bad.violations.iter().any(|v| v.contains("fault drops")));
    }

    #[test]
    fn adversary_stats_mirror_reconciles_in_finish() {
        let finish_with = |announce: bool| {
            let mut a = SimAuditor::new(&[true; 4]);
            if announce {
                a.observe(5, 0, &ABSORB);
            }
            let stats = AdversaryStats {
                absorbed: 1,
                free_riders: 1,
                ..AdversaryStats::default()
            };
            // The absorbed send was charged either way.
            finish(a, 1, &RetryCounters::new(), None, Some(&stats))
        };
        assert!(finish_with(true).is_clean());
        let bad = finish_with(false);
        assert!(bad
            .violations
            .iter()
            .any(|v| v.contains("adversary absorbs")));
    }

    #[test]
    fn absorb_records_change_the_digest_only_when_they_fire() {
        let stream = |absorbed: bool| {
            let mut a = SimAuditor::new(&[true, true]);
            if absorbed {
                a.observe(5, 0, &ABSORB);
            } else {
                a.observe(5, 0, &SEND);
                a.observe(9, 0, &deliver(1, 0, true, false));
            }
            a
        };
        assert_ne!(stream(true).digest, stream(false).digest);
    }
}
