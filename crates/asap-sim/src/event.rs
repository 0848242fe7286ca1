//! The engine's event queue: one binary min-heap ordered by `(time, seq)`.
//! `seq` is a monotone per-queue counter, so simultaneous events pop in
//! insertion order and the pop stream is a pure function of the push/cancel
//! history. Cancellation is tombstone-based — `cancel` records the sequence
//! number, `pop`/`peek_time` discard matching entries as they surface — and
//! tombstones whose entries can no longer surface are purged once the set
//! outgrows `max(PURGE_TRIGGER, live entries)`, and at the engine's halt.

use crate::collections::DetHashSet;
use asap_overlay::PeerId;
use asap_workload::TraceEvent;
use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle to a scheduled event, usable with [`EventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    /// The underlying queue sequence number. Sequence numbers survive
    /// checkpoint/resume verbatim, so protocols that keep handles in their
    /// own state can serialize them (`CheckpointProtocol::encode_state`)
    /// and rebuild with [`EventHandle::from_raw`].
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from a checkpointed sequence number.
    pub fn from_raw(seq: u64) -> Self {
        Self(seq)
    }
}

/// An event awaiting execution.
#[derive(Debug, Clone)]
pub enum EngineEvent<M> {
    /// A message arriving at `to`. `dup` marks a fault-injected duplicate
    /// copy; the auditor requires every `dup` delivery to have been
    /// announced by the fault layer.
    Deliver {
        to: PeerId,
        from: PeerId,
        msg: M,
        dup: bool,
    },
    /// A protocol timer firing at `node` with an opaque tag.
    Timer { node: PeerId, tag: u64 },
    /// A workload trace event (query, churn, content change).
    Trace(TraceEvent),
}

/// Heap entry ordered by `(time, seq)` — `seq` makes simultaneous events
/// FIFO and the whole run deterministic.
#[derive(Debug)]
pub struct Scheduled<M> {
    pub time_us: u64,
    pub seq: u64,
    pub event: EngineEvent<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time_us, self.seq).cmp(&(other.time_us, other.seq))
    }
}

/// Tombstone purges trigger once the set outgrows `max(PURGE_TRIGGER,
/// live entries)` — at that point at least one tombstone is provably dead.
const PURGE_TRIGGER: usize = 64;

/// Min-queue of scheduled events with a monotone sequence counter.
///
/// Cancellation is tombstone-based: `cancel` records the handle's sequence
/// number and `pop` silently discards matching entries when they surface, so
/// cancelling is O(1) and never disturbs queue order. Tombstones whose
/// entries never surface (cancel-after-fire, horizon cut-offs) are drained
/// by [`EventQueue::purge_cancelled`] — automatically once the set outgrows
/// the live queue, and at the engine's horizon halt. The tombstone set is
/// used for membership only — iteration order never influences the
/// simulation — but it is a [`DetHashSet`] anyway, per the repo-wide
/// determinism policy (DESIGN.md §6).
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Reverse<Scheduled<M>>>,
    next_seq: u64,
    cancelled: DetHashSet<u64>,
    /// High-water mark of `cancelled` over the queue's lifetime (diagnostic;
    /// not serialized — a resumed queue restarts its mark).
    cancelled_hwm: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::from_parts(0, Vec::new(), Vec::new())
    }
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time_us: u64, event: EngineEvent<M>) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            time_us,
            seq,
            event,
        }));
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if a tombstone was
    /// recorded (i.e. the handle was not already cancelled). Cancelling an
    /// event that has already fired is benign — its tombstone can never match
    /// a future pop — but the return value is not a fired/pending oracle;
    /// callers that need that distinction must track firing themselves.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        debug_assert!(handle.0 < self.next_seq, "cancel of never-issued handle");
        let fresh = self.cancelled.insert(handle.0);
        if fresh {
            self.cancelled_hwm = self.cancelled_hwm.max(self.cancelled.len());
            // A tombstone per live entry is the most that can ever match;
            // beyond that the set provably holds dead tombstones. Purging is
            // a pure function of queue state, so it cannot perturb replay.
            if self.cancelled.len() > PURGE_TRIGGER.max(self.heap.len()) {
                self.purge_cancelled();
            }
        }
        fresh
    }

    /// Drop every tombstone whose entry is no longer in the queue (it fired
    /// before the cancel, or a horizon halt cut it off). Dead tombstones can
    /// never match a pop, so purging is behaviorally invisible — it only
    /// bounds memory and checkpoint size.
    pub fn purge_cancelled(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        let live: DetHashSet<u64> = self.heap.iter().map(|Reverse(s)| s.seq).collect();
        self.cancelled.retain(|seq| live.contains(seq));
    }

    /// Uncollected tombstones currently held.
    pub fn cancelled_len(&self) -> usize {
        self.cancelled.len()
    }

    /// Largest tombstone count ever held (see the regression test pinning
    /// this against unbounded cancel-after-fire growth).
    pub fn cancelled_hwm(&self) -> usize {
        self.cancelled_hwm
    }

    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        loop {
            let Reverse(s) = self.heap.pop()?;
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            return Some(s);
        }
    }

    /// Time of the next event `pop` would return, without removing it.
    /// Collects tombstoned heads exactly as the next `pop` would, so peeking
    /// never changes what a later `pop` observes.
    pub fn peek_time(&mut self) -> Option<u64> {
        loop {
            let Reverse(head) = self.heap.peek()?;
            let (time_us, seq) = (head.time_us, head.seq);
            if self.cancelled.remove(&seq) {
                self.heap.pop();
            } else {
                return Some(time_us);
            }
        }
    }

    /// Scheduled entries still queued, including cancelled ones whose
    /// tombstones have not yet been collected by `pop`.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next sequence number `push` would hand out (checkpointing).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every entry still queued — uncollected tombstones included — in
    /// canonical `(time, seq)` order, for checkpoint serialization. The
    /// heap's internal layout is not state; the sorted view is.
    pub fn entries_sorted(&self) -> Vec<&Scheduled<M>> {
        let mut v: Vec<&Scheduled<M>> = self.heap.iter().map(|Reverse(s)| s).collect();
        v.sort_by_key(|s| (s.time_us, s.seq));
        v
    }

    /// Uncollected tombstone sequence numbers in ascending order.
    pub fn cancelled_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.cancelled.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Rebuild a queue from checkpoint state: the surviving entries (with
    /// their original sequence numbers), the uncollected tombstones, and the
    /// sequence counter to continue from. `pop` always returns the unique
    /// `(time, seq)` minimum, so replay order does not depend on the order
    /// `entries` arrive in.
    pub fn from_parts(next_seq: u64, entries: Vec<Scheduled<M>>, cancelled: Vec<u64>) -> Self {
        Self {
            heap: entries.into_iter().map(Reverse).collect(),
            next_seq,
            cancelled: cancelled.into_iter().collect(),
            cancelled_hwm: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, tag: u64) -> EngineEvent<()> {
        EngineEvent::Timer {
            node: PeerId(node),
            tag,
        }
    }

    fn drain_tags(q: &mut EventQueue<()>) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                EngineEvent::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(300, timer(0, 3));
        q.push(100, timer(0, 1));
        q.push(200, timer(0, 2));
        assert_eq!(drain_tags(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for tag in 0..10 {
            q.push(42, timer(0, tag));
        }
        assert_eq!(drain_tags(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, timer(0, 0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn tie_break_is_insertion_order_even_interleaved_with_pops() {
        let mut q = EventQueue::new();
        q.push(10, timer(0, 0));
        q.push(5, timer(0, 100));
        assert_eq!(q.pop().unwrap().time_us, 5);
        // Later insertions at the same time as a pending event sort after it.
        q.push(10, timer(0, 1));
        q.push(10, timer(0, 2));
        assert_eq!(drain_tags(&mut q), vec![0, 1, 2]);
    }

    #[test]
    fn scheduled_ordering_is_time_then_seq() {
        let a = Scheduled::<()> { time_us: 5, seq: 9, event: timer(0, 0) };
        let b = Scheduled::<()> { time_us: 5, seq: 10, event: timer(0, 1) };
        let c = Scheduled::<()> { time_us: 6, seq: 0, event: timer(0, 2) };
        assert!(a < b, "equal time falls back to seq");
        assert!(b < c, "time dominates seq");
        assert_eq!(a, Scheduled::<()> { time_us: 5, seq: 9, event: timer(1, 7) });
    }

    #[test]
    fn cancelled_event_never_surfaces() {
        let mut q = EventQueue::new();
        q.push(100, timer(0, 0));
        let h = q.push(200, timer(0, 1));
        q.push(300, timer(0, 2));
        assert!(q.cancel(h));
        assert_eq!(drain_tags(&mut q), vec![0, 2]);
    }

    #[test]
    fn cancel_is_idempotent() {
        let mut q = EventQueue::new();
        let h = q.push(1, timer(0, 0));
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "second cancel of the same handle is a no-op");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_benign() {
        let mut q = EventQueue::new();
        let h = q.push(1, timer(0, 0));
        q.pop().unwrap();
        q.cancel(h); // tombstone for an already-popped seq can never match
        q.push(2, timer(0, 1));
        assert!(q.pop().is_some(), "later events are unaffected");
    }

    #[test]
    fn peek_time_matches_pop_and_collects_tombstones() {
        let mut q = EventQueue::new();
        let h = q.push(100, timer(0, 0));
        q.push(200, timer(0, 1));
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(200), "tombstoned head is skipped");
        assert_eq!(q.pop().unwrap().time_us, 200);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn from_parts_replays_identically() {
        let mut q = EventQueue::new();
        q.push(300, timer(0, 3));
        q.push(100, timer(0, 1));
        let h = q.push(200, timer(0, 2));
        q.cancel(h);
        let entries: Vec<Scheduled<()>> = q
            .entries_sorted()
            .into_iter()
            .map(|s| Scheduled {
                time_us: s.time_us,
                seq: s.seq,
                event: s.event.clone(),
            })
            .collect();
        let mut rebuilt = EventQueue::from_parts(q.next_seq(), entries, q.cancelled_sorted());
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        assert_eq!(rebuilt.len(), q.len());
        loop {
            match (q.pop(), rebuilt.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(
                    a.map(|s| (s.time_us, s.seq)),
                    b.map(|s| (s.time_us, s.seq))
                ),
            }
        }
    }

    #[test]
    fn cancelling_head_does_not_reorder_survivors() {
        let mut q = EventQueue::new();
        let h = q.push(10, timer(0, 0));
        q.push(10, timer(0, 1));
        q.push(10, timer(0, 2));
        q.cancel(h);
        assert_eq!(drain_tags(&mut q), vec![1, 2]);
    }

    // --- tombstone purging (regression: unbounded cancel-after-fire) ---

    /// Before purging landed, a workload that cancels every timer *after*
    /// it fired (the common retry pattern: the reply arrives, the protocol
    /// cancels its retransmit timer, but the timer already popped) grew the
    /// tombstone set without bound. The high-water mark now stays pinned at
    /// the auto-purge trigger.
    #[test]
    fn cancel_after_fire_tombstones_are_purged() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            let h = q.push(i, timer(0, i));
            let fired = q.pop().expect("just pushed");
            assert_eq!(fired.seq, h.raw());
            q.cancel(h); // cancel-after-fire: tombstone can never match
        }
        assert!(
            q.cancelled_hwm() <= PURGE_TRIGGER + 1,
            "hwm {} must stay pinned at the purge trigger",
            q.cancelled_hwm()
        );
        assert!(q.cancelled_len() <= PURGE_TRIGGER + 1);
    }

    /// Live tombstones (cancelled entries still queued) survive a purge;
    /// dead ones do not. Checkpoint-size parity: the serialized tombstone
    /// list (`cancelled_sorted`, exactly what the checkpoint writes) shrinks
    /// to the live set, while the entry list is untouched.
    #[test]
    fn purge_keeps_live_tombstones_and_shrinks_checkpoint_state() {
        let mut q = EventQueue::new();
        // 3 live cancelled entries…
        let live: Vec<EventHandle> = (0..3).map(|i| q.push(1000 + i, timer(0, i))).collect();
        // …and 200 cancel-after-fire tombstones (dead).
        for i in 0..200u64 {
            let h = q.push(i, timer(0, i));
            q.pop();
            q.cancelled.insert(h.raw()); // bypass auto-purge to build backlog
        }
        for &h in &live {
            q.cancelled.insert(h.raw());
        }
        let entries_before = q.entries_sorted().len();
        assert_eq!(q.cancelled_sorted().len(), 203);
        q.purge_cancelled();
        assert_eq!(q.entries_sorted().len(), entries_before, "entries untouched");
        let kept = q.cancelled_sorted();
        assert_eq!(kept.len(), 3, "only live tombstones survive");
        let mut want: Vec<u64> = live.iter().map(|h| h.raw()).collect();
        want.sort_unstable();
        assert_eq!(kept, want);
        // The cancelled entries still never surface.
        assert!(drain_tags(&mut q).is_empty());
    }

    /// A purge mid-stream changes nothing observable: pop order and
    /// tombstone matching are identical with and without it.
    #[test]
    fn purge_is_behaviorally_invisible() {
        let build = || {
            let mut q = EventQueue::new();
            let mut cancels = Vec::new();
            for i in 0..50u64 {
                let h = q.push(i * 7 % 40, timer(0, i));
                if i % 3 == 0 {
                    cancels.push(h);
                }
            }
            for h in cancels {
                q.cancel(h);
            }
            q
        };
        let mut plain = build();
        let mut purged = build();
        purged.purge_cancelled();
        assert_eq!(drain_tags(&mut plain), drain_tags(&mut purged));
    }
}
