//! Event-queue model test: randomized schedules drive `EventQueue` and a
//! small sorted-map reference model through the same op tape; every
//! observable — the pop stream with its sequence numbers, `peek_time`,
//! `len` — must agree.

use asap_overlay::PeerId;
use asap_sim::event::{EngineEvent, EventQueue};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Reference model: `(time, seq) -> tag` in a sorted map, where `seq` is
/// the number of pushes before this one.
#[derive(Default)]
struct Model {
    entries: BTreeMap<(u64, u64), u64>,
}

impl Model {
    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        self.entries
            .pop_first()
            .map(|((time_us, seq), tag)| (time_us, seq, tag))
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
    // the clock. `Peek` hits wherever the tape has put entries.
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
    /// it and behind it, interleaved with pops and peeks — drives the queue
    /// and the model through identical observable states. The model keys
    /// each push by the push count, so every popped `seq` is checked
    /// against it.
    #[test]
    fn op_tapes_match_the_model(ops in prop::collection::vec(op_strategy(), 1..600)) {
        let mut queue: EventQueue<()> = EventQueue::new();
        let mut model = Model::default();
        let mut pushes = 0u64;
        let mut clock = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { offset_us } => {
                    let (t, tag) = (clock.saturating_add_signed(offset_us), i as u64);
                    queue.push(t, EngineEvent::Timer { node: PeerId(0), tag });
                    model.entries.insert((t, pushes), tag);
                    pushes += 1;
                }
                Op::Pop => {
                    let got = popped(&mut queue);
                    prop_assert_eq!(got, model.pop(), "pop divergence at op {}", i);
                    if let Some((t, _, _)) = got {
                        clock = clock.max(t);
                    }
                }
                Op::Peek => {
                    let head = model.entries.first_key_value().map(|(k, _)| k.0);
                    prop_assert_eq!(queue.peek_time(), head);
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
