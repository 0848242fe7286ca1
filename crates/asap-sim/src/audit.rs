//! Toggleable invariant auditing and event-stream digesting for the engine.
//!
//! The auditor is a passive observer threaded through the event loop. It
//! keeps **independent mirrors** of the state it checks — its own liveness
//! map, its own per-class byte and message counters — so a bookkeeping bug
//! in the engine cannot hide by corrupting both sides of a comparison. At
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
//! The auditor also folds every dispatched event (and every send) into an
//! FNV-1a digest. The digest covers integers only — peer ids, times,
//! sequence numbers, byte counts — so it is identical across debug/release
//! builds and platforms, which is what the differential-replay harness in
//! `asap-bench` pins as golden values.
//!
//! Auditing is **off by default**: a `Simulation` without
//! [`with_audit`](crate::Simulation::with_audit) carries `None` and pays one
//! pointer test per event.

use crate::adversary::AdversaryStats;
use crate::fault::FaultStats;
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters, RetryStat};
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder};
use asap_overlay::{codec_struct, Overlay, PeerId};

/// Streaming FNV-1a 64-bit hash. Stable, dependency-free, and fast enough
/// to run per-event; collisions are irrelevant for a regression digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub const fn new() -> Self {
        Self(Self::OFFSET)
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let mut h = self.0;
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Fold a whole record at once.
    #[inline]
    pub fn write_all(&mut self, vs: &[u64]) {
        for &v in vs {
            self.write_u64(v);
        }
    }

    /// Fold raw bytes (the checkpoint trailer checksum).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    pub const fn finish(self) -> u64 {
        self.0
    }

    /// Rebuild a streaming hash from a previously observed [`Fnv64::finish`]
    /// value, continuing the fold exactly where the snapshot left off
    /// (checkpointing; FNV-1a state is just the running hash word).
    pub const fn from_raw(h: u64) -> Self {
        Self(h)
    }
}

/// What the auditor does. Both halves are independent: digesting without
/// invariant checks gives the cheapest replay fingerprint; checks without
/// digesting gives a pure tripwire.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Run structural invariant checks on every event.
    pub check_invariants: bool,
    /// Fold events and sends into the replay digest.
    pub digest_events: bool,
    /// Keep at most this many violation messages; further ones are counted
    /// but not formatted (a broken invariant usually fires per-event).
    pub max_violations: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            check_invariants: true,
            digest_events: true,
            max_violations: 64,
        }
    }
}

/// Outcome of an audited run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Formatted violations, capped at `max_violations`.
    pub violations: Vec<String>,
    /// Violations beyond the cap (count only).
    pub suppressed: u64,
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Events observed at dispatch (delivers + timers + trace events).
    pub events: u64,
    /// FNV-1a digest over the event stream, sends, and final metrics;
    /// 0 if `digest_events` was off.
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

/// The audit hook object owned by the engine context. See the module docs
/// for the invariant list.
#[derive(Debug)]
pub struct SimAuditor {
    cfg: AuditConfig,
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
    /// Independent robustness-counter mirror, driven only by [`Self::on_counter`].
    retry_mirror: RetryCounters,
    /// Fault-event mirrors, driven only by the `on_fault_*` hooks.
    fault_drops: u64,
    fault_partition_drops: u64,
    fault_dups_announced: u64,
    /// Duplicate deliveries observed at dispatch; may never exceed the
    /// announced count (the tripwire), and stragglers past the horizon make
    /// "fewer seen than announced" legal.
    fault_dups_seen: u64,
    /// Adversary-absorption mirror, driven only by
    /// [`Self::on_adversary_absorb`].
    adversary_absorbed: u64,
}

codec_struct!(AuditConfig { check_invariants, digest_events, max_violations });

// Hand-written: the digest travels as its raw state word and `retry_mirror`
// is an `asap-metrics` type, restored through `RetryCounters::from_counts`.
// Checkpoint section [11] (DESIGN.md §6d).
impl Codec for SimAuditor {
    fn put(&self, enc: &mut Encoder) {
        self.cfg.put(enc);
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
            cfg: Codec::pull(dec)?,
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
    pub fn new(cfg: AuditConfig, alive: &[bool]) -> Self {
        Self {
            cfg,
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
            if self.violations.len() < self.cfg.max_violations {
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
        if self.cfg.check_invariants {
            let key = (time_us, seq);
            if let Some(last) = self.last_key {
                self.check(key > last, || {
                    format!("event key {key:?} not after previous {last:?}")
                });
            }
            self.last_key = Some(key);
        }
    }

    /// A message left `from` for `to`: mirror the byte/message accounting
    /// and require the sender to be alive.
    pub fn on_send(&mut self, now_us: u64, from: PeerId, to: PeerId, class: MsgClass, bytes: usize) {
        self.sent_bytes[class.index()] += bytes as u64;
        self.sent_msgs[class.index()] += 1;
        if self.cfg.check_invariants {
            self.check(from != to, || format!("self-send at {from:?}"));
            self.check(self.alive[from.index()], || {
                format!("dead node {from:?} sent {class:?} at {now_us}")
            });
        }
        if self.cfg.digest_events {
            self.digest.write_all(&[
                TAG_SEND,
                now_us,
                from.0 as u64,
                to.0 as u64,
                class.index() as u64,
                bytes as u64,
            ]);
        }
    }

    /// A `Deliver` event reached dispatch. `delivered` is the engine's
    /// decision (false = dropped because `to` is dead); `dup` marks a
    /// fault-injected duplicate copy, which must have been announced via
    /// [`Self::on_fault_duplicate`] — a double delivery without a matching
    /// duplication event is a violation.
    ///
    /// The `dup` flag is deliberately **not** folded into the digest record:
    /// fault-free records keep their exact historical shape, and a duplicate
    /// is already visible in the stream as an extra record.
    pub fn on_deliver(
        &mut self,
        time_us: u64,
        seq: u64,
        to: PeerId,
        from: PeerId,
        delivered: bool,
        dup: bool,
    ) {
        self.observe_key(time_us, seq);
        if dup {
            self.fault_dups_seen += 1;
        }
        if self.cfg.check_invariants {
            let mirror = self.alive[to.index()];
            self.check(delivered == mirror, || {
                if delivered {
                    format!("message from {from:?} delivered to dead node {to:?} at {time_us}")
                } else {
                    format!("message from {from:?} dropped at live node {to:?} at {time_us}")
                }
            });
            if dup {
                self.check(self.fault_dups_seen <= self.fault_dups_announced, || {
                    format!(
                        "duplicate delivery from {from:?} to {to:?} at {time_us} \
                         without a matching fault-layer duplication event"
                    )
                });
            }
        }
        if self.cfg.digest_events {
            self.digest.write_all(&[
                TAG_DELIVER,
                time_us,
                seq,
                to.0 as u64,
                from.0 as u64,
                delivered as u64,
            ]);
        }
    }

    /// The fault layer dropped a send (random loss or a partition cut).
    pub fn on_fault_drop(&mut self, now_us: u64, from: PeerId, to: PeerId, partition: bool) {
        if partition {
            self.fault_partition_drops += 1;
        } else {
            self.fault_drops += 1;
        }
        if self.cfg.digest_events {
            self.digest.write_all(&[
                TAG_FAULT_DROP,
                now_us,
                from.0 as u64,
                to.0 as u64,
                partition as u64,
            ]);
        }
    }

    /// The fault layer scheduled a duplicate copy of a send.
    pub fn on_fault_duplicate(&mut self, now_us: u64, from: PeerId, to: PeerId) {
        self.fault_dups_announced += 1;
        if self.cfg.digest_events {
            self.digest
                .write_all(&[TAG_FAULT_DUP, now_us, from.0 as u64, to.0 as u64]);
        }
    }

    /// The adversary layer absorbed a send at a free-riding target (the
    /// bytes were charged, nothing was queued).
    pub fn on_adversary_absorb(
        &mut self,
        now_us: u64,
        from: PeerId,
        to: PeerId,
        class: MsgClass,
    ) {
        self.adversary_absorbed += 1;
        if self.cfg.digest_events {
            self.digest.write_all(&[
                TAG_ADVERSARY_ABSORB,
                now_us,
                from.0 as u64,
                to.0 as u64,
                class.index() as u64,
            ]);
        }
    }

    /// The protocol counted a robustness event via `Ctx::count`; mirror it.
    /// Counters are reconciled exactly at [`Self::finish`] but never folded
    /// into the digest (fault-free digests keep their historical values).
    pub fn on_counter(&mut self, stat: RetryStat) {
        self.retry_mirror.record(stat);
    }

    /// A `Timer` event reached dispatch. `fired` mirrors the liveness gate.
    pub fn on_timer(&mut self, time_us: u64, seq: u64, node: PeerId, tag: u64, fired: bool) {
        self.observe_key(time_us, seq);
        if self.cfg.check_invariants {
            let mirror = self.alive[node.index()];
            self.check(fired == mirror, || {
                format!("timer tag {tag} at {node:?}: fired={fired} but mirror alive={mirror}")
            });
        }
        if self.cfg.digest_events {
            self.digest
                .write_all(&[TAG_TIMER, time_us, seq, node.0 as u64, tag, fired as u64]);
        }
    }

    /// A trace query is about to be handed to the protocol.
    pub fn on_trace_query(&mut self, time_us: u64, seq: u64, id: u32, requester: PeerId) {
        self.observe_key(time_us, seq);
        if self.cfg.check_invariants {
            self.check(self.alive[requester.index()], || {
                format!("query {id} issued by dead node {requester:?} at {time_us}")
            });
        }
        if self.cfg.digest_events {
            self.digest
                .write_all(&[TAG_QUERY, time_us, seq, id as u64, requester.0 as u64]);
        }
    }

    /// A content-change trace event was applied (or skipped as a no-op).
    pub fn on_content_change(
        &mut self,
        time_us: u64,
        seq: u64,
        peer: PeerId,
        doc: u32,
        added: bool,
        applied: bool,
    ) {
        self.observe_key(time_us, seq);
        if self.cfg.digest_events {
            self.digest.write_all(&[
                TAG_CONTENT,
                time_us,
                seq,
                peer.0 as u64,
                doc as u64,
                added as u64,
                applied as u64,
            ]);
        }
    }

    /// A join trace event was applied: flip the mirror, legal direction only.
    pub fn on_join(&mut self, time_us: u64, seq: u64, p: PeerId) {
        self.observe_key(time_us, seq);
        if self.cfg.check_invariants {
            self.check(!self.alive[p.index()], || {
                format!("join of already-live node {p:?} at {time_us}")
            });
        }
        if !self.alive[p.index()] {
            self.alive[p.index()] = true;
            self.alive_count += 1;
        }
        if self.cfg.digest_events {
            self.digest.write_all(&[TAG_JOIN, time_us, seq, p.0 as u64]);
        }
    }

    /// A leave trace event was applied.
    pub fn on_leave(&mut self, time_us: u64, seq: u64, p: PeerId) {
        self.observe_key(time_us, seq);
        if self.cfg.check_invariants {
            self.check(self.alive[p.index()], || {
                format!("leave of already-dead node {p:?} at {time_us}")
            });
        }
        if self.alive[p.index()] {
            self.alive[p.index()] = false;
            self.alive_count -= 1;
        }
        if self.cfg.digest_events {
            self.digest.write_all(&[TAG_LEAVE, time_us, seq, p.0 as u64]);
        }
    }

    /// Overlay/liveness consistency sweep, run after churn and at the end:
    /// dead ⇒ degree 0, adjacency symmetric and self-loop-free, engine
    /// liveness identical to the mirror.
    pub fn check_overlay(&mut self, overlay: &Overlay, engine_alive: &[bool], engine_count: usize) {
        if !self.cfg.check_invariants {
            return;
        }
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
        if self.cfg.check_invariants {
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
                    format!("{} bytes: recorder {} != audited sends {sb}", c.label(), bytes[i])
                });
                self.check(msgs[i] == sm, || {
                    format!("{} messages: recorder {} != audited sends {sm}", c.label(), msgs[i])
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
        }

        if self.cfg.digest_events {
            // Final metrics: everything integral the replay harness pins.
            self.digest.write_all(&[TAG_FINAL, end_time_us, messages_sent]);
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
        }

        AuditReport {
            violations: self.violations,
            suppressed: self.suppressed,
            checks: self.checks,
            events: self.events,
            digest: if self.cfg.digest_events {
                self.digest.finish()
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        // One zero byte from write_u64 folds eight zero bytes; cross-check
        // against a direct byte-at-a-time computation.
        let mut h = Fnv64::new();
        h.write_u64(0x0102_0304_0506_0708);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for b in [0x08u8, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01] {
            expect = (expect ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_all(&[1, 2]);
        let mut b = Fnv64::new();
        b.write_all(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn delivery_to_dead_node_is_flagged() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, false]);
        a.on_deliver(10, 0, PeerId(1), PeerId(0), true, false);
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("dead node"));
    }

    #[test]
    fn drop_at_live_node_is_flagged() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
        a.on_deliver(10, 0, PeerId(1), PeerId(0), false, false);
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("dropped at live node"));
    }

    #[test]
    fn non_monotone_keys_are_flagged() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
        a.on_deliver(10, 5, PeerId(1), PeerId(0), true, false);
        a.on_deliver(10, 4, PeerId(0), PeerId(1), true, false); // same time, seq back
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("not after"));
        // Equal times with increasing seq are fine.
        let mut b = SimAuditor::new(AuditConfig::default(), &[true, true]);
        b.on_deliver(10, 5, PeerId(1), PeerId(0), true, false);
        b.on_deliver(10, 6, PeerId(0), PeerId(1), true, false);
        assert!(b.violations.is_empty());
    }

    #[test]
    fn join_leave_mirror_tracks_and_flags_illegal_flips() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, false]);
        a.on_join(5, 0, PeerId(1));
        assert!(a.violations.is_empty());
        a.on_join(6, 1, PeerId(1)); // already live
        assert_eq!(a.violations.len(), 1);
        a.on_leave(7, 2, PeerId(0));
        a.on_leave(8, 3, PeerId(0)); // already dead
        assert_eq!(a.violations.len(), 2);
        assert_eq!(a.alive_count, 1); // node 1 alive, node 0 dead
    }

    #[test]
    fn violation_cap_suppresses_formatting() {
        let cfg = AuditConfig {
            max_violations: 2,
            ..AuditConfig::default()
        };
        let mut a = SimAuditor::new(cfg, &[false]);
        for i in 0..5 {
            a.on_deliver(i, i, PeerId(0), PeerId(0), true, false);
        }
        assert_eq!(a.violations.len(), 2);
        assert_eq!(a.suppressed, 3);
    }

    #[test]
    fn disabled_checks_still_digest() {
        let cfg = AuditConfig {
            check_invariants: false,
            ..AuditConfig::default()
        };
        let mut a = SimAuditor::new(cfg, &[false]);
        a.on_deliver(1, 0, PeerId(0), PeerId(0), true, false); // would violate
        assert!(a.violations.is_empty());
        assert_eq!(a.events, 1);
    }

    #[test]
    fn unannounced_duplicate_delivery_is_flagged() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
        a.on_deliver(10, 0, PeerId(1), PeerId(0), true, true);
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].contains("without a matching fault-layer duplication event"));
    }

    #[test]
    fn announced_duplicate_delivery_is_clean() {
        let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
        a.on_fault_duplicate(5, PeerId(0), PeerId(1));
        a.on_deliver(10, 0, PeerId(1), PeerId(0), true, false);
        a.on_deliver(11, 1, PeerId(1), PeerId(0), true, true);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        // A second duplicate without a second announcement trips.
        a.on_deliver(12, 2, PeerId(1), PeerId(0), true, true);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    fn fault_records_change_the_digest_only_when_faults_fire() {
        let stream = |fault: bool| {
            let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
            a.on_send(5, PeerId(0), PeerId(1), MsgClass::Query, 40);
            if fault {
                a.on_fault_drop(5, PeerId(0), PeerId(1), false);
            } else {
                a.on_deliver(9, 0, PeerId(1), PeerId(0), true, false);
            }
            a
        };
        // Same sends, different fate ⇒ different digests (drop vs deliver).
        assert_ne!(
            stream(true).digest.finish(),
            stream(false).digest.finish()
        );
    }

    #[test]
    fn counter_mirror_reconciles_in_finish() {
        use asap_overlay::{Overlay, OverlayConfig, OverlayKind};
        let finish_with = |mirror_hits: u32, engine_hits: u32| {
            let alive = vec![true; 4];
            let mut a = SimAuditor::new(AuditConfig::default(), &alive);
            for _ in 0..mirror_hits {
                a.on_counter(RetryStat::Retries);
            }
            let mut retry = RetryCounters::new();
            for _ in 0..engine_hits {
                retry.record(RetryStat::Retries);
            }
            let overlay: Overlay = OverlayConfig::new(OverlayKind::Random, 4, 1).build();
            a.finish(
                &LoadRecorder::new(),
                &QueryLedger::new(),
                &overlay,
                &alive,
                4,
                0,
                0,
                &retry,
                None,
                None,
            )
        };
        assert!(finish_with(3, 3).is_clean());
        let bad = finish_with(3, 2);
        assert!(!bad.is_clean());
        assert!(bad.violations.iter().any(|v| v.contains("retries counter")));
    }

    #[test]
    fn fault_stats_mirror_reconciles_in_finish() {
        use asap_overlay::{Overlay, OverlayConfig, OverlayKind};
        let finish_with = |announce: bool| {
            let alive = vec![true; 4];
            let mut a = SimAuditor::new(AuditConfig::default(), &alive);
            if announce {
                a.on_fault_drop(5, PeerId(0), PeerId(1), false);
            }
            let stats = FaultStats {
                dropped: 1,
                ..FaultStats::default()
            };
            let overlay: Overlay = OverlayConfig::new(OverlayKind::Random, 4, 1).build();
            a.finish(
                &LoadRecorder::new(),
                &QueryLedger::new(),
                &overlay,
                &alive,
                4,
                0,
                0,
                &RetryCounters::new(),
                Some(&stats),
                None,
            )
        };
        assert!(finish_with(true).is_clean());
        let bad = finish_with(false);
        assert!(bad
            .violations
            .iter()
            .any(|v| v.contains("fault drops")));
    }

    #[test]
    fn adversary_stats_mirror_reconciles_in_finish() {
        use asap_overlay::{Overlay, OverlayConfig, OverlayKind};
        let finish_with = |announce: bool| {
            let alive = vec![true; 4];
            let mut a = SimAuditor::new(AuditConfig::default(), &alive);
            if announce {
                a.on_adversary_absorb(5, PeerId(0), PeerId(1), MsgClass::Query);
            }
            let stats = AdversaryStats {
                absorbed: 1,
                free_riders: 1,
                ..AdversaryStats::default()
            };
            let overlay: Overlay = OverlayConfig::new(OverlayKind::Random, 4, 1).build();
            a.finish(
                &LoadRecorder::new(),
                &QueryLedger::new(),
                &overlay,
                &alive,
                4,
                0,
                0,
                &RetryCounters::new(),
                None,
                Some(&stats),
            )
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
            let mut a = SimAuditor::new(AuditConfig::default(), &[true, true]);
            a.on_send(5, PeerId(0), PeerId(1), MsgClass::Query, 40);
            if absorbed {
                a.on_adversary_absorb(5, PeerId(0), PeerId(1), MsgClass::Query);
            } else {
                a.on_deliver(9, 0, PeerId(1), PeerId(0), true, false);
            }
            a
        };
        assert_ne!(
            stream(true).digest.finish(),
            stream(false).digest.finish()
        );
    }
}
