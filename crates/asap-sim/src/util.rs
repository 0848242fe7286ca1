//! Small protocol-side utilities.

use crate::collections::DetHashMap;
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder};
use asap_overlay::codec_struct;
use std::collections::VecDeque;
use std::hash::Hash;

/// Per-key visited-set with a bounded window of recent keys, for duplicate
/// suppression in flood-style dissemination. Memory stays flat over an
/// arbitrarily long trace: once more than `window` keys are live, the oldest
/// key's state is forgotten (by then its flood has long died out).
///
/// Visitors are peer ids — dense, and a flood reaches most of them — so each
/// key keeps a bitset (one `u64` per 64 ids, grown to the highest id seen):
/// a visit is one map probe and one word test.
#[derive(Debug)]
pub struct SeenTracker<K: Hash + Eq + Copy> {
    seen: DetHashMap<K, Vec<u64>>,
    order: VecDeque<K>,
    window: usize,
}

/// Set `visitor`'s bit; `true` if it was clear.
fn mark_visitor(bits: &mut Vec<u64>, visitor: u32) -> bool {
    let (word, bit) = (visitor as usize / 64, 1u64 << (visitor % 64));
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    let fresh = bits[word] & bit == 0;
    bits[word] |= bit;
    fresh
}

impl<K: Hash + Eq + Copy> SeenTracker<K> {
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            seen: DetHashMap::default(),
            order: VecDeque::new(),
            window,
        }
    }

    /// Returns `true` the first time `(key, visitor)` is observed; `false`
    /// afterwards (until `key` ages out of the window).
    pub fn first_visit(&mut self, key: K, visitor: u32) -> bool {
        if let Some(bits) = self.seen.get_mut(&key) {
            return mark_visitor(bits, visitor);
        }
        // New key: evict *before* inserting, so the tracker never holds more
        // than `window` keys (not even transiently) and the key registered by
        // this very call can never be the one evicted.
        while self.seen.len() >= self.window {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            } else {
                break;
            }
        }
        self.order.push_back(key);
        let mut bits = Vec::new();
        mark_visitor(&mut bits, visitor);
        self.seen.insert(key, bits);
        true
    }

    pub fn tracked_keys(&self) -> usize {
        self.seen.len()
    }
}

// Hand-written: the window must be positive and hold every entry. Wire
// form: the window, then `(key, visitors)` pairs in eviction-queue order
// (oldest first), visitors as a counted list of ascending ids — the eviction
// queue and the map hold exactly the same keys, so this is the whole state.
impl<K: Hash + Eq + Copy + Codec> Codec for SeenTracker<K> {
    fn put(&self, enc: &mut Encoder) {
        self.window.put(enc);
        enc.put_len(self.order.len());
        for key in &self.order {
            key.put(enc);
            let bits = self.seen.get(key).map_or(&[][..], Vec::as_slice);
            enc.put_len(bits.iter().map(|w| w.count_ones() as usize).sum());
            for (word, &set) in bits.iter().enumerate() {
                let mut rest = set;
                while rest != 0 {
                    (word as u32 * 64 + rest.trailing_zeros()).put(enc);
                    rest &= rest - 1;
                }
            }
        }
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (window, entries): (usize, Vec<(K, Vec<u32>)>) = Codec::pull(dec)?;
        if window == 0 {
            return Err(CodecError::Invalid("zero seen window"));
        }
        if entries.len() > window {
            return Err(CodecError::Invalid("seen entries exceed window"));
        }
        let peers = dec.bounds().peers;
        let mut seen = DetHashMap::default();
        let mut order = VecDeque::with_capacity(entries.len());
        for (key, visitors) in entries {
            let mut bits = Vec::new();
            for visitor in visitors {
                // The bitset grows to the highest id it is handed: a corrupt
                // id must be refused here, not turned into an allocation.
                if visitor as usize >= peers {
                    return Err(CodecError::Invalid("seen visitor out of range"));
                }
                mark_visitor(&mut bits, visitor);
            }
            seen.insert(key, bits);
            order.push_back(key);
        }
        Ok(Self {
            seen,
            order,
            window,
        })
    }
}

impl<K: Hash + Eq + Copy + Codec> SeenTracker<K> {
    /// Decode a tracker its owner runs with `window`: the window is the
    /// protocol's constant, so a checkpoint carrying another one is refused
    /// rather than resumed under a different eviction policy.
    pub fn pull_window(dec: &mut Decoder<'_>, window: usize) -> Result<Self, CodecError> {
        let tracker = Self::pull(dec)?;
        if tracker.window != window {
            return Err(CodecError::Invalid("seen window is not the protocol's"));
        }
        Ok(tracker)
    }
}

/// Capped exponential backoff with a bounded retry budget: the universal
/// retransmission pacer for protocol robustness under loss. Pure integer
/// arithmetic (this module is inside lint rule R3's no-float scope).
///
/// Each successful [`Backoff::next`] yields the delay to wait before the
/// next attempt and doubles it for the one after, saturating at `cap_us`;
/// once the budget is spent it yields `None` forever (give up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    delay_us: u64,
    cap_us: u64,
    remaining: u32,
}

impl Backoff {
    /// A backoff starting at `base_us`, doubling up to `cap_us`, allowing
    /// `retries` attempts in total. `retries = 0` is the inert backoff:
    /// `next` immediately yields `None`.
    pub fn new(base_us: u64, cap_us: u64, retries: u32) -> Self {
        Self {
            delay_us: base_us.min(cap_us).max(1),
            cap_us: cap_us.max(1),
            remaining: retries,
        }
    }

    /// Retries still available.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// True iff `next` would yield `None`.
    pub fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

codec_struct!(Backoff {
    delay_us,
    cap_us,
    remaining
});

/// The delay before each retry, one item per attempt in the budget.
impl Iterator for Backoff {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let d = self.delay_us;
        self.delay_us = self.delay_us.saturating_mul(2).min(self.cap_us);
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_per_key() {
        let mut t: SeenTracker<u64> = SeenTracker::new(8);
        assert!(t.first_visit(1, 5));
        assert!(!t.first_visit(1, 5));
        assert!(t.first_visit(1, 6));
        assert!(t.first_visit(2, 5));
    }

    #[test]
    fn window_bounds_memory() {
        let mut t: SeenTracker<u64> = SeenTracker::new(4);
        for k in 0..100u64 {
            assert!(t.first_visit(k, 0));
        }
        assert!(t.tracked_keys() <= 4);
        assert!(t.first_visit(0, 0), "evicted key looks fresh again");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _: SeenTracker<u32> = SeenTracker::new(0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(100, 350, 5);
        assert_eq!(b.next(), Some(100));
        assert_eq!(b.next(), Some(200));
        assert_eq!(b.next(), Some(350), "doubling saturates at the cap");
        assert_eq!(b.next(), Some(350));
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.next(), Some(350));
        assert!(b.exhausted());
        assert_eq!(b.next(), None);
        assert_eq!(b.next(), None, "exhaustion is permanent");
    }

    #[test]
    fn zero_retries_is_inert() {
        let mut b = Backoff::new(1_000, 10_000, 0);
        assert!(b.exhausted());
        assert_eq!(b.next(), None);
    }

    #[test]
    fn backoff_base_above_cap_is_clamped() {
        let mut b = Backoff::new(5_000, 1_000, 2);
        assert_eq!(b.next(), Some(1_000));
        assert_eq!(b.next(), Some(1_000));
        assert_eq!(b.next(), None);
    }

    #[test]
    fn never_exceeds_window_and_window_one_revisit_sticks() {
        let mut t: SeenTracker<u64> = SeenTracker::new(1);
        assert!(t.first_visit(1, 0));
        assert_eq!(t.tracked_keys(), 1);
        // A second key evicts the first — never the key being inserted.
        assert!(t.first_visit(2, 0));
        assert_eq!(t.tracked_keys(), 1, "eviction happens before insert");
        // Re-visits of the surviving key are still deduplicated: the insert
        // path must not evict the entry it just created.
        assert!(!t.first_visit(2, 0), "revisit of the live key is not fresh");
        assert!(t.first_visit(2, 1), "new visitor on the live key is fresh");
        // The evicted key looks fresh again.
        assert!(t.first_visit(1, 0));
    }
}
