//! The engine's event queue: a calendar ring over the µs clock that pops the
//! unique `(time, seq)` minimum. `seq` is a monotone per-queue counter, so
//! simultaneous events pop in insertion order and the pop stream is a pure
//! function of the push history — the layout below is not state.
//!
//! Four parts, none of which can grow past the queue's own depth:
//!
//! - one **slab** of `Option<Scheduled>` slots, with a `u32` link per slot,
//!   holds every queued payload: written once by `push`, read once by `pop`,
//!   never moved in between. Freed slots chain LIFO through their links, so
//!   the slab is bounded by the depth high-water mark;
//! - a fixed **ring** of `RING_BUCKETS` bucket *heads*, one `u32` each, plus
//!   an occupancy bitmap. A bucket is an intrusive singly-linked list through
//!   the slots' links, so a push inside the window is a list insert and no
//!   bucket owns a container that could keep capacity;
//! - one sorted **run** of keys for the bucket being drained, collected by
//!   walking its list once and popped from the back;
//! - one **overflow** heap of keys for everything outside the window:
//!   entries beyond the ring's horizon (preloaded trace events, long timers)
//!   move into the ring as the cursor reaches them, and entries at or behind
//!   the current bucket race the run's tail for the head. Any degenerate
//!   schedule therefore degrades to O(log n) per event, never to an O(n)
//!   insert.
//!
//! The queue only schedules and pops: nothing is ever cancelled. A protocol
//! keys its timers by tag and ignores one whose state is stale when it fires.

use asap_overlay::codec::CodecError;
use asap_overlay::PeerId;
use asap_workload::TraceEvent;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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

/// A queued event and its `(time, seq)` position — `seq` makes simultaneous
/// events FIFO and the whole run deterministic.
#[derive(Debug)]
pub struct Scheduled<M> {
    pub time_us: u64,
    pub seq: u64,
    pub event: EngineEvent<M>,
}

/// What the queue orders by: `(time, seq)`, with the slab slot of the
/// payload riding along. `seq` is unique, so `slot` never decides.
#[derive(Debug, Clone, Copy)]
struct EventKey {
    time_us: u64,
    seq: u64,
    slot: u32,
}

impl EventKey {
    fn bucket(&self) -> u64 {
        self.time_us >> BUCKET_SHIFT
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time_us, self.seq).cmp(&(other.time_us, other.seq))
    }
}

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// Ring geometry: 16,384 buckets of 128 µs, a 2.1 s window (64 KB of heads).
/// Link latencies are at most a few hundred ms, so every in-flight message
/// lands inside it. Narrow buckets keep the sorted run short — about twenty
/// entries on the densest workload, three or four elsewhere — so a bucket's
/// slots are still in cache from the collecting walk when they pop.
const BUCKET_SHIFT: u32 = 7;
const RING_BUCKETS: usize = 1 << 14;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const BITMAP_WORDS: usize = RING_BUCKETS / 64;

/// Which container holds the `(time, seq)` minimum.
#[derive(Debug, Clone, Copy)]
enum HeadAt {
    Run,
    Overflow,
}

/// Min-queue of scheduled events with a monotone sequence counter.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// One slot per queued payload; `None` marks a free slot.
    slab: Vec<Option<Scheduled<M>>>,
    /// `links[slot]`: the next slot of the same ring bucket, or of the free
    /// chain. Kept beside the slab rather than inside its slots so a slot
    /// is exactly the payload (a cache line for the baseline protocols).
    links: Vec<u32>,
    /// Head of the free-slot chain.
    free: u32,
    /// First slot of each ring bucket's list; bucket `b` lives at
    /// `b & RING_MASK`. Only buckets strictly after `cursor` and less than
    /// `RING_BUCKETS` ahead of it are ever in the ring, so an index names
    /// exactly one bucket.
    heads: Box<[u32; RING_BUCKETS]>,
    /// One bit per ring index: its list is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// The bucket (`time_us >> BUCKET_SHIFT`) the run was collected from.
    cursor: u64,
    /// Keys of the cursor's bucket in descending order: the tail is next.
    run: Vec<EventKey>,
    /// Keys the window does not cover: beyond the ring's horizon, or at or
    /// behind the cursor.
    overflow: BinaryHeap<Reverse<EventKey>>,
    len: usize,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self {
            slab: Vec::new(),
            links: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; RING_BUCKETS]),
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            run: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time_us: u64, event: EngineEvent<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.enqueue_scheduled(Scheduled {
            time_us,
            seq,
            event,
        });
    }

    fn enqueue_scheduled(&mut self, s: Scheduled<M>) {
        let (time_us, seq) = (s.time_us, s.seq);
        let slot = self.fill_slot(s);
        self.place_key(EventKey { time_us, seq, slot });
    }

    /// Store a payload in the most recently freed slot, or a new one.
    fn fill_slot(&mut self, s: Scheduled<M>) -> u32 {
        self.len += 1;
        let slot = self.free;
        // `NIL` is never a valid index, so an empty free list falls through.
        if let Some(entry) = self.slab.get_mut(slot as usize) {
            self.free = self.links[slot as usize];
            *entry = Some(s);
            return slot;
        }
        debug_assert!(self.slab.len() < NIL as usize, "slot ids are u32");
        self.slab.push(Some(s));
        self.links.push(NIL);
        (self.slab.len() - 1) as u32
    }

    /// Take a payload out of the slab and chain its slot onto the free list.
    fn release_slot(&mut self, slot: u32) -> Option<Scheduled<M>> {
        let entry = self.slab.get_mut(slot as usize)?;
        self.links[slot as usize] = self.free;
        self.free = slot;
        self.len -= 1;
        entry.take()
    }

    /// Route a key: a bucket inside the window is a list insert at its ring
    /// head; anything else — beyond the horizon, or at or behind the cursor
    /// — goes to the overflow heap.
    fn place_key(&mut self, key: EventKey) {
        let bucket = key.bucket();
        if bucket > self.cursor && bucket - self.cursor < RING_BUCKETS as u64 {
            let i = (bucket & RING_MASK) as usize;
            self.links[key.slot as usize] = self.heads[i];
            self.heads[i] = key.slot;
            self.occupied[i / 64] |= 1 << (i % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// The first occupied bucket after the cursor: a circular scan of the
    /// bitmap, a word at a time, from the cursor's own ring index (whose bit
    /// is always clear — see `heads`).
    fn next_occupied_bucket(&self) -> Option<u64> {
        let start = (self.cursor & RING_MASK) as usize;
        let (word, bit) = (start / 64, start % 64);
        for step in 0..=BITMAP_WORDS {
            let w = (word + step) % BITMAP_WORDS;
            // The starting word is visited twice: its bits from the cursor
            // up first, and last — those having been clear — the ones below,
            // almost a full lap ahead.
            let mask = if step == 0 { !0 << bit } else { !0 };
            let bits = self.occupied[w] & mask;
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + RING_BUCKETS - start) % RING_BUCKETS;
                return Some(self.cursor + ahead as u64);
            }
        }
        None
    }

    /// Move the cursor to the earliest bucket holding anything — the ring's
    /// next occupied one or the overflow head's, whichever comes first —
    /// pull in every overflow entry the new window covers, and sort that
    /// bucket into the run. Requires an empty run and nothing in the
    /// overflow at or behind the cursor. `false`: the queue is empty.
    fn advance_cursor(&mut self) -> bool {
        debug_assert!(self.run.is_empty());
        let overflow_next = self.overflow.peek().map(|Reverse(k)| k.bucket());
        debug_assert!(overflow_next.is_none_or(|b| b > self.cursor));
        let ring_next = self.next_occupied_bucket();
        let Some(target) = ring_next.into_iter().chain(overflow_next).min() else {
            return false;
        };
        self.cursor = target;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if key.bucket() - target >= RING_BUCKETS as u64 {
                break;
            }
            self.overflow.pop();
            if key.bucket() == target {
                self.run.push(key);
            } else {
                self.place_key(key);
            }
        }
        let i = (target & RING_MASK) as usize;
        let mut slot = std::mem::replace(&mut self.heads[i], NIL);
        self.occupied[i / 64] &= !(1 << (i % 64));
        while let Some(entry) = self.slab.get(slot as usize) {
            if let Some(s) = entry {
                self.run.push(EventKey {
                    time_us: s.time_us,
                    seq: s.seq,
                    slot,
                });
            }
            slot = self.links[slot as usize];
        }
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    /// The key of the `(time, seq)` minimum and the container holding it,
    /// advancing the cursor until one of the two does.
    fn locate_head(&mut self) -> Option<(HeadAt, EventKey)> {
        loop {
            match (self.run.last(), self.overflow.peek()) {
                (Some(&r), Some(&Reverse(o))) if o < r => return Some((HeadAt::Overflow, o)),
                (Some(&r), _) => return Some((HeadAt::Run, r)),
                (None, Some(&Reverse(o))) if o.bucket() <= self.cursor => {
                    return Some((HeadAt::Overflow, o))
                }
                (None, _) => {
                    if !self.advance_cursor() {
                        return None;
                    }
                }
            }
        }
    }

    /// Remove the entry [`EventQueue::locate_head`] just reported.
    fn remove_head(&mut self, at: HeadAt, key: EventKey) -> Option<Scheduled<M>> {
        match at {
            HeadAt::Run => {
                self.run.pop();
            }
            HeadAt::Overflow => {
                self.overflow.pop();
            }
        }
        self.release_slot(key.slot)
    }

    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        let (at, key) = self.locate_head()?;
        let s = self.remove_head(at, key);
        debug_assert!(s.is_some(), "a key names a filled slot");
        s
    }

    /// Time of the next event `pop` would return, without removing it.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.locate_head().map(|(_, key)| key.time_us)
    }

    /// Scheduled entries still queued.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The next sequence number `push` would hand out (checkpointing).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every entry still queued, in canonical `(time, seq)` order, for
    /// checkpoint serialization. The queue's internal layout is not state;
    /// the sorted view is.
    pub fn entries_sorted(&self) -> Vec<&Scheduled<M>> {
        let mut v: Vec<&Scheduled<M>> = self.slab.iter().filter_map(Option::as_ref).collect();
        v.sort_by_key(|s| (s.time_us, s.seq));
        v
    }

    /// Rebuild a queue from checkpoint state: the surviving entries (with
    /// their original sequence numbers) and the sequence counter to continue
    /// from. `pop` always returns the unique `(time, seq)` minimum, so
    /// replay order does not depend on the order `entries` arrive in.
    ///
    /// Rejects entries no history of `push` up to clock `now_us` leaves
    /// behind: one scheduled before `now_us`, one whose seq was never
    /// issued, or two sharing a seq.
    pub fn from_parts(
        now_us: u64,
        next_seq: u64,
        entries: Vec<Scheduled<M>>,
    ) -> Result<Self, CodecError> {
        if entries.iter().any(|s| s.time_us < now_us) {
            return Err(CodecError::Invalid(
                "queued entry scheduled before the clock",
            ));
        }
        let mut seqs: Vec<u64> = entries.iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        if seqs.last().is_some_and(|&seq| seq >= next_seq) {
            return Err(CodecError::Invalid("queued entry with a never-issued seq"));
        }
        if seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(CodecError::Invalid("two queued entries share a seq"));
        }
        let mut queue = Self {
            slab: Vec::with_capacity(entries.len()),
            links: Vec::with_capacity(entries.len()),
            next_seq,
            ..Self::default()
        };
        for s in entries {
            queue.enqueue_scheduled(s);
        }
        Ok(queue)
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
    fn key_ordering_is_time_then_seq() {
        let key = |time_us, seq, slot| EventKey { time_us, seq, slot };
        assert!(key(5, 9, 7) < key(5, 10, 0), "equal time falls back to seq");
        assert!(key(5, 10, 7) < key(6, 0, 0), "time dominates seq");
        assert_eq!(key(5, 9, 0), key(5, 9, 7), "the slot never decides");
    }

    /// `q` rebuilt from its checkpoint view.
    fn rebuilt_from_parts(q: &EventQueue<()>) -> EventQueue<()> {
        let entries: Vec<Scheduled<()>> = q
            .entries_sorted()
            .into_iter()
            .map(|s| Scheduled {
                time_us: s.time_us,
                seq: s.seq,
                event: s.event.clone(),
            })
            .collect();
        let rebuilt = EventQueue::from_parts(0, q.next_seq(), entries)
            .expect("a queue's own parts are valid");
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        assert_eq!(rebuilt.len(), q.len());
        rebuilt
    }

    /// Pop both queues dry in lockstep.
    fn assert_same_pop_stream(mut q: EventQueue<()>, mut rebuilt: EventQueue<()>) {
        loop {
            match (q.pop(), rebuilt.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a.map(|s| (s.time_us, s.seq)), b.map(|s| (s.time_us, s.seq))),
            }
        }
    }

    #[test]
    fn from_parts_replays_identically() {
        let mut q = EventQueue::new();
        q.push(300, timer(0, 3));
        q.push(100, timer(0, 1));
        q.push(200, timer(0, 2));
        let rebuilt = rebuilt_from_parts(&q);
        assert_same_pop_stream(q, rebuilt);
    }

    /// What a resume at t = 250 s hands `from_parts`: the original queue has
    /// its cursor at 250 s and its entries spread over run, ring and
    /// overflow; the rebuilt one starts at bucket 0, so every entry is far
    /// beyond its horizon and has to migrate in. Same pop stream.
    #[test]
    fn from_parts_far_beyond_the_horizon_replays_identically() {
        const T0: u64 = 250_000_000;
        let mut q = EventQueue::new();
        q.push(T0, timer(0, 0));
        q.push(T0 + 1, timer(0, 1));
        assert_eq!(q.pop().map(|s| s.time_us), Some(T0), "cursor is at 250 s");
        for i in 0..600u64 {
            // 0–6 s ahead of the cursor: about a third inside the window.
            q.push(T0 + i * 10_007 % 6_000_000, timer(0, i));
        }
        assert!(!q.run.is_empty() && !q.overflow.is_empty());
        assert!(q.occupied.iter().any(|&w| w != 0));
        let mut rebuilt = rebuilt_from_parts(&q);
        assert_eq!(
            rebuilt.overflow.len(),
            rebuilt.len(),
            "all beyond the horizon"
        );
        // The first advance lands on 250 s and migrates the window's share.
        assert_eq!(rebuilt.peek_time(), q.peek_time());
        assert_eq!(rebuilt.cursor, q.cursor);
        let beyond = |k: &EventKey| k.bucket() - rebuilt.cursor >= RING_BUCKETS as u64;
        assert!(rebuilt.overflow.iter().all(|Reverse(k)| beyond(k)));
        assert!(rebuilt.occupied.iter().any(|&w| w != 0));
        assert_same_pop_stream(q, rebuilt);
    }

    // --- calendar layout ---

    const BUCKET_US: u64 = 1 << BUCKET_SHIFT;
    const WINDOW_US: u64 = BUCKET_US * RING_BUCKETS as u64;

    /// The memory bound of the module doc, as a test: a million push/pop
    /// pairs at steady depth `d` leave a slab of at most `d + 1` slots (one
    /// more than the depth because each round pushes before it pops), and
    /// nothing else has grown with the traffic — the ring is a fixed array,
    /// the run never holds more than one bucket's entries.
    #[test]
    fn slab_is_bounded_by_depth_not_by_traffic() {
        const DEPTH: usize = 1_000;
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        // Delays of 0–300 ms, plus one push in 64 that lands beyond the ring.
        let mut delay = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let d = (x >> 33) % 300_000;
            d + if x >> 58 == 0 { WINDOW_US } else { 0 }
        };
        for i in 0..DEPTH as u64 {
            q.push(delay(), timer(0, i));
        }
        let mut now = 0;
        for i in 0..1_000_000u64 {
            q.push(now + delay(), timer(0, i));
            now = q.pop().expect("depth is positive").time_us;
        }
        assert_eq!(q.len(), DEPTH);
        assert!(q.slab.len() <= DEPTH + 1, "{} slots", q.slab.len());
        assert_eq!(q.links.len(), q.slab.len());
        assert_eq!(q.heads.len(), RING_BUCKETS);
        assert!(q.run.capacity() <= DEPTH + 1 && q.overflow.len() <= DEPTH);
    }

    /// `push` at the end of time: the bucket arithmetic must not overflow,
    /// whether the cursor is at 0 or already in the last bucket.
    #[test]
    fn push_at_u64_max_is_safe() {
        let mut q = EventQueue::new();
        q.push(u64::MAX, timer(0, 2));
        q.push(u64::MAX - BUCKET_US, timer(0, 1));
        q.push(7, timer(0, 0));
        assert_eq!(q.pop().map(|s| s.time_us), Some(7));
        assert_eq!(q.pop().map(|s| s.time_us), Some(u64::MAX - BUCKET_US));
        q.push(u64::MAX, timer(0, 3));
        q.push(u64::MAX - 1, timer(0, 4));
        assert_eq!(q.peek_time(), Some(u64::MAX - 1));
        assert_eq!(drain_tags(&mut q), vec![4, 2, 3]);
    }
}
