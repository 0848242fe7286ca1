//! Event-queue model test: randomized schedules and cancellations drive
//! `EventQueue` and a small sorted-map reference model through the same op
//! tape; every observable — handles, pop stream, `peek_time`, `len`,
//! `cancel` return values — must agree.

use asap_overlay::PeerId;
use asap_sim::event::{EngineEvent, EventQueue};
use asap_sim::EventHandle;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Reference model: `(time, seq) -> tag` in a sorted map plus the tombstone
/// set, collected lazily at the head and purged by the queue's rule (a dead
/// tombstone's purge is observable through a repeated `cancel`).
#[derive(Default)]
struct Model {
    entries: BTreeMap<(u64, u64), u64>,
    cancelled: BTreeSet<u64>,
}

impl Model {
    fn cancel(&mut self, seq: u64) -> bool {
        let fresh = self.cancelled.insert(seq);
        if fresh && self.cancelled.len() > self.entries.len().max(64) {
            let live: BTreeSet<u64> = self.entries.keys().map(|k| k.1).collect();
            self.cancelled.retain(|s| live.contains(s));
        }
        fresh
    }

    /// The head key once tombstoned heads are discarded.
    fn head(&mut self) -> Option<(u64, u64)> {
        loop {
            let key = *self.entries.first_key_value()?.0;
            if !self.cancelled.remove(&key.1) {
                return Some(key);
            }
            self.entries.remove(&key);
        }
    }

    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        let key = self.head()?;
        self.entries.remove(&key).map(|tag| (key.0, key.1, tag))
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Push at `last_popped_time + offset_us`. The engine only ever pushes
    /// ahead; a negative offset (clamped at time 0) is a push *behind* the
    /// clock, which the API allows and the queue must still surface first.
    Push {
        offset_us: i64,
    },
    Pop,
    /// Cancel the handle at `index % issued` (may already have fired).
    Cancel {
        index: usize,
    },
    Peek,
}

const MS: i64 = 1_000;
const S: i64 = 1_000_000;

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest shim's prop_oneof! is uniform; repeat arms to
    // weight them. The push arms are the queue's placement regions (its
    // bucket width and ring size are private, so each range straddles every
    // plausible choice: buckets of 64 µs–4 ms, a window of 0.5–4 s): the
    // clock's own instant, the bucket being drained, inside the ring, and
    // beyond its horizon from seconds to hours — so one tape carries the
    // far-to-ring migration, ring indices wrapping many laps, and late
    // pushes racing the bucket being drained; the last push arm lands behind
    // the clock. `Cancel` and `Peek` hit wherever the tape has put entries.
    prop_oneof![
        (0i64..1).prop_map(|offset_us| Op::Push { offset_us }),
        (1i64..64).prop_map(|offset_us| Op::Push { offset_us }),
        (0..500 * MS).prop_map(|offset_us| Op::Push { offset_us }),
        (0..500 * MS).prop_map(|offset_us| Op::Push { offset_us }),
        (500 * MS..5 * S).prop_map(|offset_us| Op::Push { offset_us }),
        (5 * S..120 * S).prop_map(|offset_us| Op::Push { offset_us }),
        (120 * S..10_000 * S).prop_map(|offset_us| Op::Push { offset_us }),
        (-10 * S..0).prop_map(|offset_us| Op::Push { offset_us }),
        (0u32..1).prop_map(|_| Op::Pop),
        (0u32..1).prop_map(|_| Op::Pop),
        (0u32..1).prop_map(|_| Op::Pop),
        (0u32..1).prop_map(|_| Op::Pop),
        (0usize..10_000).prop_map(|index| Op::Cancel { index }),
        (0u32..1).prop_map(|_| Op::Peek),
    ]
}

fn popped(q: &mut EventQueue<()>) -> Option<(u64, u64, u64)> {
    q.pop().map(|s| match s.event {
        EngineEvent::Timer { tag, .. } => (s.time_us, s.seq, tag),
        _ => unreachable!("only timers are pushed"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any op tape — pushes from the clock's own instant to hours ahead of
    /// it and behind it, interleaved pops, cancels of arbitrary (possibly
    /// fired) handles — drives the queue and the model through identical
    /// observable states.
    #[test]
    fn op_tapes_match_the_model(ops in prop::collection::vec(op_strategy(), 1..600)) {
        let mut queue: EventQueue<()> = EventQueue::new();
        let mut model = Model::default();
        let mut issued: Vec<EventHandle> = Vec::new();
        let mut clock = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { offset_us } => {
                    let (t, tag) = (clock.saturating_add_signed(offset_us), i as u64);
                    let h = queue.push(t, EngineEvent::Timer { node: PeerId(0), tag });
                    prop_assert_eq!(h.raw(), issued.len() as u64, "seq is the push count");
                    model.entries.insert((t, h.raw()), tag);
                    issued.push(h);
                }
                Op::Pop => {
                    let got = popped(&mut queue);
                    prop_assert_eq!(got, model.pop(), "pop divergence at op {}", i);
                    if let Some((t, _, _)) = got {
                        clock = clock.max(t);
                    }
                }
                Op::Cancel { index } => {
                    if !issued.is_empty() {
                        let h = issued[index % issued.len()];
                        prop_assert_eq!(queue.cancel(h), model.cancel(h.raw()));
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(queue.peek_time(), model.head().map(|k| k.0));
                }
            }
            prop_assert_eq!(queue.len(), model.entries.len(), "len divergence at op {}", i);
        }
        // Drain: the tails must match too.
        loop {
            let got = popped(&mut queue);
            prop_assert_eq!(got, model.pop(), "drain divergence");
            if got.is_none() {
                break;
            }
        }
    }
}
