//! The per-node ads repository ("$" in the paper's pseudo-code), and the
//! [`FilterStore`] the repositories of one protocol keep their filters in.
//!
//! One entry per source peer, holding that source's latest known filter,
//! topics, version and freshness. Capacity-bounded with LRU eviction (the
//! paper's nodes "selectively store interesting ads"; a bounded cache is the
//! practical reading).
//!
//! Layout: two parallel vectors sorted by source `PeerId` — a dense key
//! array (`sources`) and a 24-byte entry array indexed by the same
//! position. On the lookup/update hot path (every interested hop of an ad,
//! most of them refreshes) a source is found by interpolation: cached ids
//! spread roughly evenly, so the first probe goes to `source × len / (top + 1)`,
//! where `top` is the largest id the cache ever held, and a gallop from
//! there brackets the answer for a short binary search. Iteration order
//! (ascending `PeerId`) is what the simulator's replay digests and the
//! checkpoint byte format depend on. The invariant `sources.len() ==
//! entries.len()` with `sources` strictly ascending holds between all
//! public calls.
//!
//! An entry names its filter by a `u32` slot of the protocol's
//! [`FilterStore`] instead of holding an `Rc` (the slot's top bit is free
//! for the `stale` flag): `{ last_used_us, last_refreshed_us, filter,
//! version, topics }` is 24 bytes against the 32 of an inline `Rc` entry.
//! The store keeps one `Rc<BloomFilter>` per slot and counts the entries
//! that name it; a slot whose count drops to zero is freed and reused.
//! A slot is found by its filter's contents, so live slots are pairwise
//! distinct and entries share a slot exactly when their filters are equal,
//! whichever allocation each arrived in. The usual hit, the very allocation
//! the slot holds, is decided by address before any word is compared. The
//! refresh path — most of an announcement walk's hops — never touches the
//! store.
//!
//! Each vector grows by an eighth of its length (at least 4 entries) and
//! never past the configured capacity, instead of doubling: a cache that
//! fills to a few hundred entries keeps at most an eighth of them as slack.
//!
//! A repository made by [`AdRepository::new`] has a private store; the
//! protocols make theirs with [`AdRepository::sharing`], so every cache of
//! one simulation shares one store and a filter cached at many nodes is
//! one slot.

use crate::ad::AdSnapshot;
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, ProbePlan};
use asap_overlay::PeerId;
use asap_sim::checkpoint::CodecError;
use asap_sim::collections::DetHashMap;
use asap_workload::InterestSet;
use std::cell::RefCell;
use std::mem::size_of;
use std::rc::Rc;

/// A cached ad as [`AdRepository::get`] and [`AdRepository::iter`] hand it
/// out: the entry's fields with its filter resolved from the store.
#[derive(Debug, Clone)]
pub struct CachedAd {
    pub topics: InterestSet,
    pub version: u16,
    pub filter: Rc<BloomFilter>,
    /// Last time the entry was used by a lookup or updated (LRU key).
    pub last_used_us: u64,
    /// Last time the source proved liveness (any ad received).
    pub last_refreshed_us: u64,
    /// Version gap detected — unusable until repaired by a full ad.
    pub stale: bool,
}

/// Outcome of applying an incremental update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Entry now reflects the advertised version.
    Applied,
    /// Update refers to a version we can't reach — entry marked stale; a
    /// full-ad repair is needed.
    VersionGap,
    /// We hold nothing from this source.
    Unknown,
    /// Update is older than (or equal to) what we already hold.
    Outdated,
}

/// The `stale` flag's bit in [`Entry::filter`]; the slot is the rest.
const STALE_BIT: u32 = 1 << 31;

/// One cache entry: 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Last time the entry was used by a lookup or updated (LRU key).
    pub(crate) last_used_us: u64,
    /// Last time the source proved liveness (any ad received).
    pub(crate) last_refreshed_us: u64,
    /// The filter's [`FilterStore`] slot, with [`STALE_BIT`] set while a
    /// version gap makes the entry unusable.
    filter: u32,
    pub(crate) version: u16,
    pub(crate) topics: InterestSet,
}

impl Entry {
    pub(crate) fn packed(
        topics: InterestSet,
        version: u16,
        slot: u32,
        last_used_us: u64,
        last_refreshed_us: u64,
        stale: bool,
    ) -> Self {
        Self {
            last_used_us,
            last_refreshed_us,
            filter: slot | if stale { STALE_BIT } else { 0 },
            version,
            topics,
        }
    }

    pub(crate) fn slot_id(self) -> u32 {
        self.filter & !STALE_BIT
    }

    pub(crate) fn is_stale(self) -> bool {
        self.filter & STALE_BIT != 0
    }

    fn mark_stale(&mut self) {
        self.filter |= STALE_BIT;
    }
}

/// One store slot: a filter and the number of cache entries naming it
/// (`None` and zero while the slot is on the free list).
#[derive(Debug)]
struct Slot {
    filter: Option<Rc<BloomFilter>>,
    refs: u32,
}

/// The filters behind the cache entries of one protocol instance: a slab of
/// reference-counted slots with a free list, handed out as `u32` ids.
///
/// Each live slot holds a distinct filter, found again by its contents, so
/// a filter announced to a thousand cachers is one slot with a count of a
/// thousand, however many copies of it were decoded on the way. Slot ids
/// are an artefact of allocation order and never reach a digest or a
/// checkpoint (which renumbers them, see [`crate::checkpoint`]).
#[derive(Debug, Default)]
pub struct FilterStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live slot by its filter. `Rc`'s equality checks the address before
    /// the contents, and `BloomFilter`'s hash reads a few words only.
    by_content: DetHashMap<Rc<BloomFilter>, u32>,
}

impl FilterStore {
    /// An empty store behind the handle repositories share it by.
    pub fn new_shared() -> Rc<RefCell<Self>> {
        Rc::default()
    }

    /// Slots currently named by at least one entry.
    pub fn live_slots(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Entries naming a live slot, summed over the slots. Diagnostic /
    /// test API.
    pub fn counted_entries(&self) -> u64 {
        self.slots.iter().map(|s| u64::from(s.refs)).sum()
    }

    /// The filter in `slot`, if the slot is live.
    pub(crate) fn filter_at(&self, slot: u32) -> Option<&Rc<BloomFilter>> {
        self.slots.get(slot as usize)?.filter.as_ref()
    }

    /// The store's filter equal to `filter` if one is live, else `filter`.
    pub(crate) fn shared(&self, filter: Rc<BloomFilter>) -> Rc<BloomFilter> {
        match self.by_content.get_key_value(&filter) {
            Some((held, _)) => Rc::clone(held),
            None => filter,
        }
    }

    /// Heap bytes the store holds: its slot, free-list and content tables,
    /// and every live filter (the `Rc` block and the filter's words).
    pub fn heap_bytes(&self) -> usize {
        let filter_block = 2 * size_of::<usize>() + size_of::<BloomFilter>();
        let filters: usize = self
            .slots
            .iter()
            .filter_map(|s| s.filter.as_ref())
            .map(|f| filter_block + std::mem::size_of_val(f.words()))
            .sum();
        self.slots.capacity() * size_of::<Slot>()
            + self.free.capacity() * size_of::<u32>()
            + self.by_content.capacity() * (size_of::<(Rc<BloomFilter>, u32)>() + 1)
            + filters
    }

    /// A store whose slot `i` holds `filters[i]`, every count zero: the
    /// decoder's starting point, which counts the entries in as it reads
    /// them ([`FilterStore::count_entry`]). Two equal filters would be two
    /// live slots of one content, so they are an error.
    pub(crate) fn from_filters(filters: Vec<Rc<BloomFilter>>) -> Result<Self, CodecError> {
        let mut store = Self::default();
        for filter in filters {
            let slot = store.slots.len() as u32;
            if store.by_content.insert(Rc::clone(&filter), slot).is_some() {
                return Err(CodecError::Invalid("filter table repeats a filter"));
            }
            store.slots.push(Slot {
                filter: Some(filter),
                refs: 0,
            });
        }
        Ok(store)
    }

    /// One more entry names `slot`.
    pub(crate) fn count_entry(&mut self, slot: u32) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            s.refs += 1;
        }
    }

    /// A slot for `filter`, counted once more: the live slot holding equal
    /// contents, else a free or new one.
    pub(crate) fn acquire(&mut self, filter: &Rc<BloomFilter>) -> u32 {
        if let Some(&slot) = self.by_content.get(filter) {
            self.count_entry(slot);
            return slot;
        }
        let fresh = Slot {
            filter: Some(Rc::clone(filter)),
            refs: 1,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_content.insert(Rc::clone(filter), slot);
        slot
    }

    /// One entry fewer names `slot`; the last one frees it.
    pub(crate) fn release(&mut self, slot: u32) {
        let Some(s) = self.slots.get_mut(slot as usize) else {
            return;
        };
        s.refs = s.refs.saturating_sub(1);
        if s.refs == 0 {
            if let Some(filter) = s.filter.take() {
                self.by_content.remove(&filter);
                self.free.push(slot);
            }
        }
    }

    /// The slot an entry naming `held` names once its filter is `filter`.
    /// Acquiring first keeps `held` when the two are equal.
    fn reassign(&mut self, held: u32, filter: &Rc<BloomFilter>) -> u32 {
        let slot = self.acquire(filter);
        self.release(held);
        slot
    }
}

/// Make room for one more element: grow by an eighth of the length (at
/// least 4), never past `limit` elements.
fn reserve_one<T>(v: &mut Vec<T>, limit: usize) {
    if v.len() == v.capacity() {
        let step = (v.len() / 8).max(4).min(limit.saturating_sub(v.len()));
        v.reserve_exact(step.max(1));
    }
}

/// Capacity-bounded ad cache over sorted parallel vectors (see module docs).
#[derive(Debug)]
pub struct AdRepository {
    /// Source peers, strictly ascending; position `i` owns `entries[i]`.
    sources: Vec<PeerId>,
    entries: Vec<Entry>,
    capacity: u32,
    /// No cached source is above this id: the largest one ever inserted
    /// (it never shrinks), the scale of [`AdRepository::position`]'s guess.
    top: u32,
    store: Rc<RefCell<FilterStore>>,
}

impl AdRepository {
    /// An empty repository with a private [`FilterStore`].
    pub fn new(capacity: usize) -> Self {
        Self::sharing(capacity, &FilterStore::new_shared())
    }

    /// An empty repository keeping its filters in `store`.
    pub fn sharing(capacity: usize, store: &Rc<RefCell<FilterStore>>) -> Self {
        assert!(
            (1..=u32::MAX as usize).contains(&capacity),
            "capacity must be positive and fit in a u32"
        );
        Self {
            sources: Vec::new(),
            entries: Vec::new(),
            capacity: capacity as u32,
            top: 0,
            store: Rc::clone(store),
        }
    }

    /// A repository over decoded entries whose slots `store` already
    /// counts. Nothing may look a source up before the protocol's
    /// `validate` has checked that the sources ascend strictly.
    pub(crate) fn from_decoded(
        capacity: usize,
        store: &Rc<RefCell<FilterStore>>,
        sources: Vec<PeerId>,
        entries: Vec<Entry>,
    ) -> Self {
        let mut repo = Self::sharing(capacity, store);
        repo.top = sources.last().map_or(0, |s| s.0);
        repo.sources = sources;
        repo.entries = entries;
        repo
    }

    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Heap bytes of the two vectors (their capacities, not their lengths).
    pub fn heap_bytes(&self) -> usize {
        self.sources.capacity() * size_of::<PeerId>() + self.entries.capacity() * size_of::<Entry>()
    }

    /// Capacities of the `sources` and `entries` vectors.
    #[cfg(test)]
    pub(crate) fn vector_capacities(&self) -> (usize, usize) {
        (self.sources.capacity(), self.entries.capacity())
    }

    /// The raw entries, keyed by source, in `PeerId` order.
    pub(crate) fn raw_entries(&self) -> impl Iterator<Item = (PeerId, Entry)> + '_ {
        self.sources
            .iter()
            .copied()
            .zip(self.entries.iter().copied())
    }

    /// All cached entries, keyed by source, in `PeerId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, CachedAd)> + '_ {
        let store = self.store.borrow();
        self.raw_entries().filter_map(move |(source, e)| {
            Some((source, cached_view(e, store.filter_at(e.slot_id())?)))
        })
    }

    /// Where `source` sits in `sources`: `Ok` at its index, `Err` at the
    /// index it would be inserted at — the one answer a sorted vector has.
    ///
    /// Cached sources are peer ids spread roughly evenly over `0..=top`, so
    /// the first probe goes where an even spread puts `source`; from there
    /// the search gallops outward to bracket it and binary-searches only
    /// the bracket. A good guess reads one or two cache lines where a
    /// binary search of a few hundred ids reads five; clustered ids cost
    /// the gallop O(log n) probes.
    fn position(&self, source: PeerId) -> Result<usize, usize> {
        let ids = &self.sources[..];
        let len = ids.len();
        if len == 0 || source.0 > self.top {
            return Err(len);
        }
        // `source <= top`, so the guess is below `len`.
        let guess = (u64::from(source.0) * len as u64 / (u64::from(self.top) + 1)) as usize;
        // `ids[lo..hi]` holds the answer: every id left of `lo` is below
        // `source`, and `ids[hi - 1] >= source` unless `hi == len`.
        let (lo, hi) = if ids[guess] < source {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                let probe = guess + step;
                if probe >= len {
                    break (lo, len);
                }
                if ids[probe] >= source {
                    break (lo, probe + 1);
                }
                lo = probe + 1;
                step *= 2;
            }
        } else {
            let (mut hi, mut step) = (guess + 1, 1);
            loop {
                let Some(probe) = guess.checked_sub(step) else {
                    break (0, hi);
                };
                if ids[probe] < source {
                    break (probe + 1, hi);
                }
                hi = probe + 1;
                step *= 2;
            }
        };
        ids[lo..hi]
            .binary_search(&source)
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// The cached ad of `source`, if any.
    pub fn get(&self, source: PeerId) -> Option<CachedAd> {
        let e = self.entries[self.position(source).ok()?];
        let store = self.store.borrow();
        Some(cached_view(e, store.filter_at(e.slot_id())?))
    }

    /// `(version, stale)` of the entry for `source`, without the filter.
    pub(crate) fn version_of(&self, source: PeerId) -> Option<(u16, bool)> {
        let e = self.entries[self.position(source).ok()?];
        Some((e.version, e.is_stale()))
    }

    /// Store/overwrite the full ad of `source`. Evicts the least-recently
    /// used entry when full. Overwrites with an *older* version are ignored
    /// (out-of-order delivery).
    pub fn insert_full(&mut self, snap: &AdSnapshot, now_us: u64) -> ApplyOutcome {
        match self.position(snap.source) {
            Ok(i) => {
                let existing = &mut self.entries[i];
                if !existing.is_stale() && version_not_newer(snap.version, existing.version) {
                    existing.last_refreshed_us = now_us;
                    return ApplyOutcome::Outdated;
                }
                let slot = self
                    .store
                    .borrow_mut()
                    .reassign(existing.slot_id(), &snap.filter);
                *existing = Entry::packed(snap.topics, snap.version, slot, now_us, now_us, false);
                ApplyOutcome::Applied
            }
            Err(mut i) => {
                let slot = self.store.borrow_mut().acquire(&snap.filter);
                let limit = self.capacity();
                if self.sources.len() >= limit {
                    let victim = self.evict_lru();
                    // Eviction shifts the insertion point when the victim
                    // sat left of it.
                    if victim < i {
                        i -= 1;
                    }
                }
                reserve_one(&mut self.sources, limit);
                reserve_one(&mut self.entries, limit);
                self.sources.insert(i, snap.source);
                self.top = self.top.max(snap.source.0);
                let fresh = Entry::packed(snap.topics, snap.version, slot, now_us, now_us, false);
                self.entries.insert(i, fresh);
                ApplyOutcome::Applied
            }
        }
    }

    /// Apply a patch ad: only valid on top of `version - 1`. The shared
    /// `result` filter is exactly `old ⊕ patch` (asserted in tests).
    pub fn apply_patch(
        &mut self,
        source: PeerId,
        version: u16,
        topics: InterestSet,
        result: &Rc<BloomFilter>,
        now_us: u64,
    ) -> ApplyOutcome {
        let Ok(i) = self.position(source) else {
            return ApplyOutcome::Unknown;
        };
        let entry = &mut self.entries[i];
        if entry.is_stale() {
            return ApplyOutcome::VersionGap;
        }
        if version_not_newer(version, entry.version) {
            entry.last_refreshed_us = now_us;
            return ApplyOutcome::Outdated;
        }
        if version != entry.version.wrapping_add(1) {
            entry.mark_stale();
            return ApplyOutcome::VersionGap;
        }
        let slot = self.store.borrow_mut().reassign(entry.slot_id(), result);
        *entry = Entry::packed(topics, version, slot, now_us, now_us, false);
        ApplyOutcome::Applied
    }

    /// Apply a refresh ad: bumps freshness when the version matches, flags a
    /// gap otherwise.
    pub fn apply_refresh(&mut self, source: PeerId, version: u16, now_us: u64) -> ApplyOutcome {
        let Ok(i) = self.position(source) else {
            return ApplyOutcome::Unknown;
        };
        let entry = &mut self.entries[i];
        if entry.is_stale() {
            return ApplyOutcome::VersionGap;
        }
        if entry.version == version {
            entry.last_refreshed_us = now_us;
            ApplyOutcome::Applied
        } else if version_not_newer(version, entry.version) {
            ApplyOutcome::Outdated
        } else {
            entry.mark_stale();
            ApplyOutcome::VersionGap
        }
    }

    pub fn remove(&mut self, source: PeerId) -> bool {
        match self.position(source) {
            Ok(i) => {
                self.remove_at(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The ASAP local lookup: sources whose cached filter contains **all**
    /// query terms (pre-hashed). Stale or expired entries are skipped;
    /// matched entries' LRU stamps are bumped.
    ///
    /// The term hashes are compiled once into a word-parallel [`ProbePlan`]
    /// (probe positions depend only on hashes + parameters) and the plan is
    /// reused across every cached filter with matching parameters — in
    /// practice all of them, since one config sizes every filter in a run.
    /// A parameter mismatch falls back to the per-hash scan, which the plan
    /// is provably equivalent to, so hits are identical either way.
    pub fn lookup(
        &mut self,
        term_hashes: &[KeyHash],
        now_us: u64,
        expire_before_us: u64,
    ) -> Vec<PeerId> {
        let mut hits = Vec::new();
        let mut plan: Option<ProbePlan> = None;
        let store = self.store.borrow();
        for (&source, e) in self.sources.iter().zip(self.entries.iter_mut()) {
            if e.is_stale() || e.last_refreshed_us < expire_before_us {
                continue;
            }
            let Some(filter) = store.filter_at(e.slot_id()) else {
                continue;
            };
            let plan = plan.get_or_insert_with(|| ProbePlan::new(filter.params(), term_hashes));
            let matched = if filter.params() == plan.params() {
                filter.contains_plan(plan)
            } else {
                term_hashes.iter().all(|h| filter.contains_hash(h))
            };
            if matched {
                e.last_used_us = now_us;
                hits.push(source);
            }
        }
        hits
    }

    /// Snapshots of cached ads whose filters contain every query term —
    /// what a neighbor ships back for a query-driven ads request. Skips
    /// stale/expired entries; capped at `max`.
    pub fn snapshots_matching(
        &mut self,
        term_hashes: &[KeyHash],
        now_us: u64,
        expire_before_us: u64,
        max: usize,
    ) -> Vec<AdSnapshot> {
        let sources = self.lookup(term_hashes, now_us, expire_before_us);
        sources
            .into_iter()
            .take(max)
            .filter_map(|source| self.get(source).map(|ad| snapshot_from(source, ad)))
            .collect()
    }

    /// Cached ads with topic overlap, for an ads reply — freshest first,
    /// capped at `max`.
    pub fn ads_for_interests(&self, interests: InterestSet, max: usize) -> Vec<AdSnapshot> {
        let mut matches: Vec<(PeerId, Entry)> = self
            .raw_entries()
            .filter(|(_, e)| !e.is_stale() && e.topics.intersects(interests))
            .collect();
        // Stable sort: equal freshness keeps ascending-source order, as the
        // old map iteration did.
        matches.sort_by_key(|(_, e)| std::cmp::Reverse(e.last_refreshed_us));
        let store = self.store.borrow();
        matches
            .into_iter()
            .take(max)
            .filter_map(|(source, e)| {
                Some(snapshot_from(
                    source,
                    cached_view(e, store.filter_at(e.slot_id())?),
                ))
            })
            .collect()
    }

    /// Remove the least-recently-used entry, returning its position.
    fn evict_lru(&mut self) -> usize {
        let mut victim = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            // Ties on last_used_us break toward the smaller source, which is
            // the smaller index in a sorted array — i.e. first wins.
            if e.last_used_us < self.entries[victim].last_used_us {
                victim = i;
            }
        }
        if !self.sources.is_empty() {
            self.remove_at(victim);
        }
        victim
    }

    /// Drop the entry at `i` and release its slot.
    fn remove_at(&mut self, i: usize) {
        self.sources.remove(i);
        let gone = self.entries.remove(i);
        self.store.borrow_mut().release(gone.slot_id());
    }
}

impl Drop for AdRepository {
    /// A dropped cache stops naming its filters.
    fn drop(&mut self) {
        let mut store = self.store.borrow_mut();
        for e in &self.entries {
            store.release(e.slot_id());
        }
    }
}

fn cached_view(e: Entry, filter: &Rc<BloomFilter>) -> CachedAd {
    CachedAd {
        topics: e.topics,
        version: e.version,
        filter: Rc::clone(filter),
        last_used_us: e.last_used_us,
        last_refreshed_us: e.last_refreshed_us,
        stale: e.is_stale(),
    }
}

fn snapshot_from(source: PeerId, ad: CachedAd) -> AdSnapshot {
    AdSnapshot {
        source,
        topics: ad.topics,
        version: ad.version,
        filter: ad.filter,
    }
}

/// `candidate` is not newer than `held`, under wrapping 16-bit versions
/// (half-range comparison).
fn version_not_newer(candidate: u16, held: u16) -> bool {
    candidate.wrapping_sub(held) == 0 || candidate.wrapping_sub(held) > u16::MAX / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_bloom::{BloomParams, FilterPatch};

    fn snap(source: u32, version: u16, keys: &[&str]) -> AdSnapshot {
        AdSnapshot {
            source: PeerId(source),
            topics: InterestSet(0b1),
            version,
            filter: Rc::new(BloomFilter::from_keys(
                BloomParams::for_capacity(100, 8),
                keys.iter().copied(),
            )),
        }
    }

    fn hashes(keys: &[&str]) -> Vec<KeyHash> {
        keys.iter().map(|k| KeyHash::of(k)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut repo = AdRepository::new(10);
        repo.insert_full(&snap(1, 0, &["rock", "metal"]), 100);
        repo.insert_full(&snap(2, 0, &["jazz"]), 100);
        let hits = repo.lookup(&hashes(&["rock"]), 200, 0);
        assert_eq!(hits, vec![PeerId(1)]);
        let both = repo.lookup(&hashes(&[]), 200, 0);
        assert_eq!(both.len(), 2, "empty term list matches everything");
    }

    #[test]
    fn lru_eviction_prefers_unused() {
        let mut repo = AdRepository::new(2);
        repo.insert_full(&snap(1, 0, &["a"]), 10);
        repo.insert_full(&snap(2, 0, &["b"]), 20);
        // Touch source 1 so source 2 becomes the LRU victim.
        let _ = repo.lookup(&hashes(&["a"]), 30, 0);
        repo.insert_full(&snap(3, 0, &["c"]), 40);
        assert!(repo.get(PeerId(1)).is_some());
        assert!(repo.get(PeerId(2)).is_none(), "LRU entry evicted");
        assert!(repo.get(PeerId(3)).is_some());
    }

    #[test]
    fn lru_tie_breaks_toward_smaller_source() {
        let mut repo = AdRepository::new(2);
        repo.insert_full(&snap(7, 0, &["a"]), 10);
        repo.insert_full(&snap(3, 0, &["b"]), 10);
        repo.insert_full(&snap(5, 0, &["c"]), 20);
        assert!(
            repo.get(PeerId(3)).is_none(),
            "equal stamps evict smaller id"
        );
        assert!(repo.get(PeerId(7)).is_some());
        assert!(repo.get(PeerId(5)).is_some());
    }

    #[test]
    fn eviction_keeps_sorted_invariant_when_inserting_above_victim() {
        let mut repo = AdRepository::new(2);
        repo.insert_full(&snap(1, 0, &["a"]), 10); // LRU victim
        repo.insert_full(&snap(5, 0, &["b"]), 20);
        // New source sorts after the victim: insertion point must shift.
        repo.insert_full(&snap(3, 0, &["c"]), 30);
        let order: Vec<PeerId> = repo.iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![PeerId(3), PeerId(5)]);
        assert!(repo.get(PeerId(3)).is_some());
        assert!(repo.get(PeerId(5)).is_some());
    }

    #[test]
    fn iter_is_ascending_by_source() {
        let mut repo = AdRepository::new(10);
        for id in [9, 2, 7, 1, 4] {
            repo.insert_full(&snap(id, 0, &["k"]), 0);
        }
        let order: Vec<u32> = repo.iter().map(|(p, _)| p.0).collect();
        assert_eq!(order, vec![1, 2, 4, 7, 9]);
    }

    #[test]
    fn patch_applies_in_sequence() {
        let params = BloomParams::for_capacity(100, 8);
        let v0 = BloomFilter::from_keys(params, ["a"]);
        let v1 = BloomFilter::from_keys(params, ["a", "b"]);
        let patch = FilterPatch::diff(&v0, &v1);
        let mut check = v0.clone();
        patch.apply(&mut check);
        assert_eq!(check, v1, "shared result must equal old ⊕ patch");

        let mut repo = AdRepository::new(4);
        repo.insert_full(
            &AdSnapshot {
                source: PeerId(1),
                topics: InterestSet(0b1),
                version: 0,
                filter: Rc::new(v0),
            },
            0,
        );
        let result = Rc::new(v1);
        assert_eq!(
            repo.apply_patch(PeerId(1), 1, InterestSet(0b1), &result, 10),
            ApplyOutcome::Applied
        );
        assert_eq!(repo.get(PeerId(1)).unwrap().version, 1);
        assert!(repo.lookup(&hashes(&["b"]), 20, 0).contains(&PeerId(1)));
    }

    #[test]
    fn patch_gap_marks_stale_until_full_repair() {
        let mut repo = AdRepository::new(4);
        repo.insert_full(&snap(1, 0, &["a"]), 0);
        let result = Rc::new(BloomFilter::from_keys(
            BloomParams::for_capacity(100, 8),
            ["a", "b", "c"],
        ));
        // Version jumps 0 → 2: gap.
        assert_eq!(
            repo.apply_patch(PeerId(1), 2, InterestSet(0b1), &result, 10),
            ApplyOutcome::VersionGap
        );
        assert!(repo.get(PeerId(1)).unwrap().stale);
        assert!(
            repo.lookup(&hashes(&["a"]), 20, 0).is_empty(),
            "stale skipped"
        );
        // Full ad repairs.
        assert_eq!(
            repo.insert_full(&snap(1, 2, &["a", "b", "c"]), 30),
            ApplyOutcome::Applied
        );
        assert!(!repo.get(PeerId(1)).unwrap().stale);
    }

    #[test]
    fn patch_on_unknown_source() {
        let mut repo = AdRepository::new(4);
        let result = Rc::new(BloomFilter::from_keys(
            BloomParams::for_capacity(100, 8),
            ["x"],
        ));
        assert_eq!(
            repo.apply_patch(PeerId(9), 1, InterestSet(0b1), &result, 0),
            ApplyOutcome::Unknown
        );
    }

    #[test]
    fn outdated_updates_ignored() {
        let mut repo = AdRepository::new(4);
        repo.insert_full(&snap(1, 5, &["a"]), 0);
        assert_eq!(
            repo.insert_full(&snap(1, 3, &["old"]), 10),
            ApplyOutcome::Outdated
        );
        assert_eq!(repo.get(PeerId(1)).unwrap().version, 5);
        let result = Rc::new(BloomFilter::from_keys(
            BloomParams::for_capacity(100, 8),
            ["old"],
        ));
        assert_eq!(
            repo.apply_patch(PeerId(1), 4, InterestSet(0b1), &result, 20),
            ApplyOutcome::Outdated
        );
    }

    #[test]
    fn refresh_semantics() {
        let mut repo = AdRepository::new(4);
        repo.insert_full(&snap(1, 2, &["a"]), 0);
        assert_eq!(repo.apply_refresh(PeerId(1), 2, 100), ApplyOutcome::Applied);
        assert_eq!(repo.get(PeerId(1)).unwrap().last_refreshed_us, 100);
        assert_eq!(
            repo.apply_refresh(PeerId(1), 1, 200),
            ApplyOutcome::Outdated
        );
        // Newer version we never saw: gap.
        assert_eq!(
            repo.apply_refresh(PeerId(1), 4, 300),
            ApplyOutcome::VersionGap
        );
        assert!(repo.get(PeerId(1)).unwrap().stale);
        assert_eq!(repo.apply_refresh(PeerId(9), 0, 0), ApplyOutcome::Unknown);
    }

    #[test]
    fn expiry_hides_dead_sources() {
        let mut repo = AdRepository::new(4);
        repo.insert_full(&snap(1, 0, &["a"]), 1_000);
        assert_eq!(repo.lookup(&hashes(&["a"]), 2_000, 0).len(), 1);
        // Expire everything refreshed before t = 5,000.
        assert!(repo.lookup(&hashes(&["a"]), 6_000, 5_000).is_empty());
    }

    #[test]
    fn ads_for_interests_filters_and_caps() {
        let mut repo = AdRepository::new(10);
        for i in 0..6 {
            let mut s = snap(i, 0, &["k"]);
            s.topics = InterestSet(if i % 2 == 0 { 0b01 } else { 0b10 });
            repo.insert_full(&s, u64::from(i) * 10);
        }
        let evens = repo.ads_for_interests(InterestSet(0b01), 10);
        assert_eq!(evens.len(), 3);
        assert!(evens.iter().all(|a| a.topics.intersects(InterestSet(0b01))));
        let capped = repo.ads_for_interests(InterestSet(0b11), 2);
        assert_eq!(capped.len(), 2);
        // Freshest first.
        assert!(capped[0].source > capped[1].source);
    }

    #[test]
    fn wrapping_version_comparison() {
        assert!(version_not_newer(5, 5));
        assert!(version_not_newer(4, 5));
        assert!(!version_not_newer(6, 5));
        // Near the wrap point: 2 is newer than 65,534.
        assert!(!version_not_newer(2, u16::MAX - 1));
        assert!(version_not_newer(u16::MAX - 1, 2));
    }

    #[test]
    fn an_entry_is_24_bytes() {
        assert_eq!(size_of::<Entry>(), 24);
    }

    #[test]
    fn a_repository_header_is_64_bytes() {
        assert_eq!(size_of::<AdRepository>(), 64);
    }

    #[test]
    fn vectors_grow_by_an_eighth_and_stop_at_capacity() {
        let mut repo = AdRepository::new(100);
        for id in 0..150 {
            repo.insert_full(&snap(id, 0, &["k"]), u64::from(id));
            let len = repo.len();
            for cap in [repo.sources.capacity(), repo.entries.capacity()] {
                assert!(
                    cap <= len + (len / 8).max(4),
                    "{cap} slots for {len} entries"
                );
                assert!(cap <= 100, "{cap} slots past the capacity");
            }
        }
        assert_eq!(repo.entries.capacity(), 100);
    }

    #[test]
    fn repositories_sharing_a_store_share_a_filter_slot() {
        let store = FilterStore::new_shared();
        let mut a = AdRepository::sharing(4, &store);
        let mut b = AdRepository::sharing(4, &store);
        let ad = snap(1, 0, &["a"]);
        a.insert_full(&ad, 0);
        b.insert_full(&ad, 0);
        assert_eq!(store.borrow().live_slots(), 1);
        assert_eq!(store.borrow().slots[0].refs, 2);
        // Equal contents in another allocation: the entry keeps its slot.
        assert_eq!(a.insert_full(&snap(1, 1, &["a"]), 1), ApplyOutcome::Applied);
        assert_eq!(store.borrow().live_slots(), 1);
        // Other contents take a second slot; dropping and removing free them.
        b.insert_full(&snap(1, 1, &["b"]), 2);
        assert_eq!(store.borrow().live_slots(), 2);
        drop(b);
        assert_eq!(store.borrow().live_slots(), 1);
        assert!(a.remove(PeerId(1)));
        assert_eq!(store.borrow().live_slots(), 0);
        // A freed slot is reused.
        a.insert_full(&snap(2, 0, &["c"]), 3);
        assert_eq!(store.borrow().slots.len(), 2);
    }

    mod position {
        use super::*;
        use proptest::prelude::*;

        /// Strictly ascending ids from `raw`, laid out `layout`: 0 spread
        /// evenly over a few thousand peers, 1 in three tight clusters far
        /// apart, 2 packed just below `u32::MAX`.
        fn ids(layout: u8, raw: &[u32]) -> Vec<u32> {
            let mut ids: Vec<u32> = raw
                .iter()
                .map(|&x| match layout {
                    0 => x % 4_096,
                    1 => [0, 1 << 20, 3 << 30][(x % 3) as usize] + (x >> 8) % 64,
                    _ => u32::MAX - x % 512,
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }

        /// Probes below the least id, above the greatest and the top, at
        /// every id, and beside every id (between neighbours or past one).
        fn probes(ids: &[u32], top: u32) -> Vec<u32> {
            let mut at = vec![0, 1, u32::MAX, u32::MAX - 1, top, top.saturating_add(1)];
            for &id in ids {
                at.extend([id, id.saturating_sub(1), id.saturating_add(1)]);
            }
            at
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `position` answers exactly what a binary search of the whole
            /// vector answers, for every probe and every layout; `shape`
            /// keeps 0 ids, 1 id, all of them (at capacity), or removes some
            /// (the greatest included, when picked) so `top` sits above the
            /// greatest id left.
            #[test]
            fn agrees_with_a_binary_search_of_the_whole_vector(
                layout in 0u8..3,
                raw in prop::collection::vec(any::<u32>(), 1..300),
                shape in 0u8..4,
                drop_mask in any::<u64>(),
            ) {
                let mut ids = ids(layout, &raw);
                ids.truncate(match shape {
                    0 => 0,
                    1 => 1,
                    _ => ids.len(),
                });
                let mut repo = AdRepository::new(ids.len().max(1));
                for &id in &ids {
                    prop_assert_eq!(repo.insert_full(&snap(id, 0, &["k"]), 0), ApplyOutcome::Applied);
                }
                if shape == 3 {
                    for (i, &id) in ids.iter().enumerate() {
                        if drop_mask >> (i % 64) & 1 == 1 {
                            prop_assert!(repo.remove(PeerId(id)));
                        }
                    }
                }
                let held: Vec<u32> = repo.sources.iter().map(|s| s.0).collect();
                prop_assert!(held.windows(2).all(|w| w[0] < w[1]), "{:?}", held);
                prop_assert!(held.iter().all(|&id| id <= repo.top));
                for probe in probes(&ids, repo.top) {
                    let source = PeerId(probe);
                    prop_assert_eq!(
                        repo.position(source),
                        repo.sources.binary_search(&source),
                        "probe {} in {:?} (top {})", probe, held, repo.top
                    );
                }
            }
        }
    }

    mod shared_store {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const REPOS: usize = 3;
        const SOURCES: u32 = 8;
        const CAPACITY: usize = 4;
        const KEYWORDS: usize = 6;

        /// One step on repository `repo`. A full or patch ad carries the
        /// pool's filter for `kw`, or (`fresh`) an equal one in a new
        /// allocation.
        #[derive(Debug, Clone)]
        enum Op {
            Full {
                repo: usize,
                source: u32,
                version: u16,
                kw: usize,
                fresh: bool,
            },
            Patch {
                repo: usize,
                source: u32,
                version: u16,
                kw: usize,
                fresh: bool,
            },
            Refresh {
                repo: usize,
                source: u32,
                version: u16,
            },
            Remove {
                repo: usize,
                source: u32,
            },
        }

        fn op() -> impl Strategy<Value = Op> {
            let ad = || (0..REPOS, 0..SOURCES, 0u16..6, 0..KEYWORDS, any::<bool>());
            prop_oneof![
                ad().prop_map(|(repo, source, version, kw, fresh)| Op::Full {
                    repo,
                    source,
                    version,
                    kw,
                    fresh
                }),
                ad().prop_map(|(repo, source, version, kw, fresh)| Op::Patch {
                    repo,
                    source,
                    version,
                    kw,
                    fresh
                }),
                (0..REPOS, 0..SOURCES, 0u16..6).prop_map(|(repo, source, version)| Op::Refresh {
                    repo,
                    source,
                    version
                }),
                (0..REPOS, 0..SOURCES).prop_map(|(repo, source)| Op::Remove { repo, source }),
            ]
        }

        /// The store's books against the entries, and every entry's filter
        /// against the one the model last gave it.
        fn check(
            store: &FilterStore,
            repos: &[AdRepository],
            model: &[BTreeMap<PeerId, BloomFilter>],
        ) {
            let mut named: BTreeMap<u32, u32> = BTreeMap::new();
            for (repo, expected) in repos.iter().zip(model) {
                for (source, e) in repo.raw_entries() {
                    *named.entry(e.slot_id()).or_default() += 1;
                    let filter = store.filter_at(e.slot_id());
                    prop_assert!(filter.is_some(), "{source:?} names a free slot");
                    prop_assert_eq!(filter.map(|f| &**f), expected.get(&source));
                }
            }
            for (slot, s) in store.slots.iter().enumerate() {
                if s.filter.is_some() {
                    prop_assert!(s.refs > 0, "live slot {} counts no entry", slot);
                    prop_assert_eq!(s.refs, named.get(&(slot as u32)).copied().unwrap_or(0));
                }
            }
            prop_assert_eq!(store.live_slots(), named.len());
        }

        proptest! {
            /// Three repositories share one store through tapes of full,
            /// patch, refresh and remove steps that overflow their
            /// capacity: after every step each live slot counts exactly
            /// the entries naming it (so none counts zero), and each entry
            /// holds the filter its last applied ad carried.
            #[test]
            fn slot_counts_match_the_entries_naming_them(
                ops in prop::collection::vec(op(), 1..200),
            ) {
                let params = BloomParams::for_capacity(32, 4);
                let pool: Vec<Rc<BloomFilter>> = (0..KEYWORDS)
                    .map(|kw| Rc::new(BloomFilter::from_keys(params, [format!("kw{kw}").as_str()])))
                    .collect();
                let filter = |kw: usize, fresh: bool| {
                    if fresh { Rc::new((*pool[kw]).clone()) } else { Rc::clone(&pool[kw]) }
                };
                let store = FilterStore::new_shared();
                let mut repos: Vec<AdRepository> =
                    (0..REPOS).map(|_| AdRepository::sharing(CAPACITY, &store)).collect();
                let mut model: Vec<BTreeMap<PeerId, BloomFilter>> = vec![BTreeMap::new(); REPOS];
                for (clock, op) in (1u64..).zip(ops) {
                    match op {
                        Op::Full { repo, source, version, kw, fresh } => {
                            let ad = AdSnapshot {
                                source: PeerId(source),
                                topics: InterestSet(0b1),
                                version,
                                filter: filter(kw, fresh),
                            };
                            if repos[repo].insert_full(&ad, clock) == ApplyOutcome::Applied {
                                model[repo].insert(ad.source, (*ad.filter).clone());
                            }
                        }
                        Op::Patch { repo, source, version, kw, fresh } => {
                            let result = filter(kw, fresh);
                            let outcome = repos[repo].apply_patch(
                                PeerId(source), version, InterestSet(0b1), &result, clock,
                            );
                            if outcome == ApplyOutcome::Applied {
                                model[repo].insert(PeerId(source), (*result).clone());
                            }
                        }
                        Op::Refresh { repo, source, version } => {
                            repos[repo].apply_refresh(PeerId(source), version, clock);
                        }
                        Op::Remove { repo, source } => {
                            repos[repo].remove(PeerId(source));
                        }
                    }
                    prop_assert!(repos.iter().all(|r| r.len() <= CAPACITY));
                    check(&store.borrow(), &repos, &model);
                }
            }
        }
    }
}
