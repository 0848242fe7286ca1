//! The per-node ads repository ("$" in the paper's pseudo-code), and the
//! [`FilterStore`] the repositories of one protocol keep their filters in.
//!
//! One entry per source peer, holding that source's latest known filter,
//! topics, version and freshness. Capacity-bounded with LRU eviction (the
//! paper's nodes "selectively store interesting ads"; a bounded cache is the
//! practical reading).
//!
//! Layout: one vector of 24-byte records sorted by source `PeerId`. On the
//! lookup/update hot path (every interested hop of an ad, most of them
//! refreshes) a source is found by interpolation: cached ids spread
//! roughly evenly, so the first probe goes to `source × len / (top + 1)`,
//! where `top` is the largest id the cache ever held, and a gallop from
//! there brackets the answer for a short binary search. Iteration order
//! (ascending `PeerId`) is what the simulator's replay digests and the
//! checkpoint byte format depend on. Sources ascend strictly between all
//! public calls.
//!
//! A record names its filter by a `u32` slot of the protocol's
//! [`FilterStore`] instead of holding an `Rc` (the slot's top bit is free
//! for the `stale` flag), and keeps its two µs stamps in 48 bits each:
//! the engine's clock never reaches [`CLOCK_BOUND_US`] = 2⁴⁸ µs, so the
//! stamps are exact. `{ source, filter, version, topics, last_used,
//! last_refreshed }` is 24 bytes. `Entry` is the by-value view with the
//! stamps widened again, which the checkpoint writes and reads.
//!
//! The store keeps one `Rc<BloomFilter>` per slot and counts the records
//! that name it; a slot whose count drops to zero is freed and reused.
//! A slot is found by its filter's contents, so live slots are pairwise
//! distinct and records share a slot exactly when their filters are equal,
//! whichever allocation each arrived in. The usual hit, the very allocation
//! the slot holds, is decided by address before any word is compared. The
//! refresh path — most of an announcement walk's hops — never touches the
//! store.
//!
//! The vector grows by an eighth of its length (at least 4 records) and
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
use asap_sim::CLOCK_BOUND_US;
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

/// The `stale` flag's bit in a record's filter word; the slot is the rest.
const STALE_BIT: u32 = 1 << 31;

/// A µs stamp in 48 bits, exact for every time below [`CLOCK_BOUND_US`].
#[derive(Debug, Clone, Copy)]
struct Stamp([u16; 3]);

const _: () = assert!(CLOCK_BOUND_US <= 1 << 48, "stamps hold 48 bits");

impl Stamp {
    /// `us`, which the engine keeps below [`CLOCK_BOUND_US`] and the
    /// checkpoint decoder refuses at or past it.
    #[inline]
    fn at(us: u64) -> Self {
        debug_assert!(us < CLOCK_BOUND_US, "stamp {us} µs past the clock bound");
        Self([us as u16, (us >> 16) as u16, (us >> 32) as u16])
    }

    #[inline]
    fn us(self) -> u64 {
        let [lo, mid, hi] = self.0;
        u64::from(lo) | u64::from(mid) << 16 | u64::from(hi) << 32
    }
}

/// One cache entry as the repository stores it: 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    source: PeerId,
    /// The filter's [`FilterStore`] slot, with [`STALE_BIT`] set while a
    /// version gap makes the entry unusable.
    filter: u32,
    version: u16,
    topics: InterestSet,
    /// Last time the entry was used by a lookup or updated (LRU key).
    last_used: Stamp,
    /// Last time the source proved liveness (any ad received).
    last_refreshed: Stamp,
}

impl Record {
    /// `source`'s record of `e`, whose stamps are below [`CLOCK_BOUND_US`].
    pub(crate) fn new(source: PeerId, e: Entry) -> Self {
        Self {
            source,
            filter: e.slot | if e.stale { STALE_BIT } else { 0 },
            version: e.version,
            topics: e.topics,
            last_used: Stamp::at(e.last_used_us),
            last_refreshed: Stamp::at(e.last_refreshed_us),
        }
    }

    /// A fresh, usable record stamped `now_us` twice.
    fn fresh(source: PeerId, topics: InterestSet, version: u16, slot: u32, now_us: u64) -> Self {
        let now = Stamp::at(now_us);
        Self {
            source,
            filter: slot,
            version,
            topics,
            last_used: now,
            last_refreshed: now,
        }
    }

    /// The record by value, its stamps widened to µs.
    fn entry(self) -> Entry {
        Entry {
            topics: self.topics,
            version: self.version,
            slot: self.slot_id(),
            last_used_us: self.last_used.us(),
            last_refreshed_us: self.last_refreshed.us(),
            stale: self.is_stale(),
        }
    }

    fn slot_id(self) -> u32 {
        self.filter & !STALE_BIT
    }

    fn is_stale(self) -> bool {
        self.filter & STALE_BIT != 0
    }

    fn mark_stale(&mut self) {
        self.filter |= STALE_BIT;
    }
}

/// A cache entry by value, its stamps in µs: what the checkpoint writes
/// and reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) topics: InterestSet,
    pub(crate) version: u16,
    /// The filter's [`FilterStore`] slot.
    pub(crate) slot: u32,
    /// Last time the entry was used by a lookup or updated (LRU key).
    pub(crate) last_used_us: u64,
    /// Last time the source proved liveness (any ad received).
    pub(crate) last_refreshed_us: u64,
    /// Version gap detected — unusable until repaired by a full ad.
    pub(crate) stale: bool,
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

/// Capacity-bounded ad cache over one sorted record vector (see module
/// docs).
#[derive(Debug)]
pub struct AdRepository {
    /// Records by source, strictly ascending.
    records: Vec<Record>,
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
            records: Vec::new(),
            capacity: capacity as u32,
            top: 0,
            store: Rc::clone(store),
        }
    }

    /// A repository over decoded records whose slots `store` already
    /// counts. Nothing may look a source up before the protocol's
    /// `validate` has checked that the sources ascend strictly.
    pub(crate) fn from_decoded(
        capacity: usize,
        store: &Rc<RefCell<FilterStore>>,
        records: Vec<Record>,
    ) -> Self {
        let mut repo = Self::sharing(capacity, store);
        repo.top = records.last().map_or(0, |r| r.source.0);
        repo.records = records;
        repo
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Heap bytes of the record vector (its capacity, not its length).
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * size_of::<Record>()
    }

    /// Capacity of the record vector.
    #[cfg(test)]
    pub(crate) fn record_capacity(&self) -> usize {
        self.records.capacity()
    }

    /// The raw entries, keyed by source, in `PeerId` order.
    pub(crate) fn raw_entries(&self) -> impl Iterator<Item = (PeerId, Entry)> + '_ {
        self.records.iter().map(|r| (r.source, r.entry()))
    }

    /// All cached entries, keyed by source, in `PeerId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, CachedAd)> + '_ {
        let store = self.store.borrow();
        self.records
            .iter()
            .filter_map(move |&r| Some((r.source, cached_view(r, store.filter_at(r.slot_id())?))))
    }

    /// Where `source` sits in `records`: `Ok` at its index, `Err` at the
    /// index it would be inserted at — the one answer a sorted vector has.
    ///
    /// Cached sources are peer ids spread roughly evenly over `0..=top`, so
    /// the first probe goes where an even spread puts `source`; from there
    /// the search gallops outward to bracket it and binary-searches only
    /// the bracket. A good guess reads one or two cache lines where a
    /// binary search of a few hundred records reads eight; clustered ids
    /// cost the gallop O(log n) probes.
    fn position(&self, source: PeerId) -> Result<usize, usize> {
        let recs = &self.records[..];
        let len = recs.len();
        if len == 0 || source.0 > self.top {
            return Err(len);
        }
        // `source <= top`, so the guess is below `len`.
        let guess = (u64::from(source.0) * len as u64 / (u64::from(self.top) + 1)) as usize;
        // `recs[lo..hi]` holds the answer: every source left of `lo` is
        // below `source`, and `recs[hi - 1].source >= source` unless
        // `hi == len`.
        let (lo, hi) = if recs[guess].source < source {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                let probe = guess + step;
                if probe >= len {
                    break (lo, len);
                }
                if recs[probe].source >= source {
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
                if recs[probe].source < source {
                    break (probe + 1, hi);
                }
                hi = probe + 1;
                step *= 2;
            }
        };
        recs[lo..hi]
            .binary_search_by_key(&source, |r| r.source)
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// The cached ad of `source`, if any.
    pub fn get(&self, source: PeerId) -> Option<CachedAd> {
        let r = self.records[self.position(source).ok()?];
        let store = self.store.borrow();
        Some(cached_view(r, store.filter_at(r.slot_id())?))
    }

    /// `(version, stale)` of the entry for `source`, without the filter.
    pub(crate) fn version_of(&self, source: PeerId) -> Option<(u16, bool)> {
        let r = self.records[self.position(source).ok()?];
        Some((r.version, r.is_stale()))
    }

    /// Store/overwrite the full ad of `source`. Evicts the least-recently
    /// used entry when full. Overwrites with an *older* version are ignored
    /// (out-of-order delivery).
    pub fn insert_full(&mut self, snap: &AdSnapshot, now_us: u64) -> ApplyOutcome {
        match self.position(snap.source) {
            Ok(i) => {
                let existing = &mut self.records[i];
                if !existing.is_stale() && version_not_newer(snap.version, existing.version) {
                    existing.last_refreshed = Stamp::at(now_us);
                    return ApplyOutcome::Outdated;
                }
                let slot = self
                    .store
                    .borrow_mut()
                    .reassign(existing.slot_id(), &snap.filter);
                *existing = Record::fresh(snap.source, snap.topics, snap.version, slot, now_us);
                ApplyOutcome::Applied
            }
            Err(mut i) => {
                let slot = self.store.borrow_mut().acquire(&snap.filter);
                let limit = self.capacity();
                if self.records.len() >= limit {
                    let victim = self.evict_lru();
                    // Eviction shifts the insertion point when the victim
                    // sat left of it.
                    if victim < i {
                        i -= 1;
                    }
                }
                reserve_one(&mut self.records, limit);
                self.top = self.top.max(snap.source.0);
                let fresh = Record::fresh(snap.source, snap.topics, snap.version, slot, now_us);
                self.records.insert(i, fresh);
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
        let record = &mut self.records[i];
        if record.is_stale() {
            return ApplyOutcome::VersionGap;
        }
        if version_not_newer(version, record.version) {
            record.last_refreshed = Stamp::at(now_us);
            return ApplyOutcome::Outdated;
        }
        if version != record.version.wrapping_add(1) {
            record.mark_stale();
            return ApplyOutcome::VersionGap;
        }
        let slot = self.store.borrow_mut().reassign(record.slot_id(), result);
        *record = Record::fresh(source, topics, version, slot, now_us);
        ApplyOutcome::Applied
    }

    /// Apply a refresh ad: bumps freshness when the version matches, flags a
    /// gap otherwise.
    pub fn apply_refresh(&mut self, source: PeerId, version: u16, now_us: u64) -> ApplyOutcome {
        let Ok(i) = self.position(source) else {
            return ApplyOutcome::Unknown;
        };
        let record = &mut self.records[i];
        if record.is_stale() {
            return ApplyOutcome::VersionGap;
        }
        if record.version == version {
            record.last_refreshed = Stamp::at(now_us);
            ApplyOutcome::Applied
        } else if version_not_newer(version, record.version) {
            ApplyOutcome::Outdated
        } else {
            record.mark_stale();
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
        let now = Stamp::at(now_us);
        let store = self.store.borrow();
        for r in self.records.iter_mut() {
            if r.is_stale() || r.last_refreshed.us() < expire_before_us {
                continue;
            }
            let Some(filter) = store.filter_at(r.slot_id()) else {
                continue;
            };
            let plan = plan.get_or_insert_with(|| ProbePlan::new(filter.params(), term_hashes));
            let matched = if filter.params() == plan.params() {
                filter.contains_plan(plan)
            } else {
                term_hashes.iter().all(|h| filter.contains_hash(h))
            };
            if matched {
                r.last_used = now;
                hits.push(r.source);
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
        let mut matches: Vec<Record> = self
            .records
            .iter()
            .copied()
            .filter(|r| !r.is_stale() && r.topics.intersects(interests))
            .collect();
        // Stable sort: equal freshness keeps ascending-source order, as the
        // old map iteration did.
        matches.sort_by_key(|r| std::cmp::Reverse(r.last_refreshed.us()));
        let store = self.store.borrow();
        matches
            .into_iter()
            .take(max)
            .filter_map(|r| {
                Some(snapshot_from(
                    r.source,
                    cached_view(r, store.filter_at(r.slot_id())?),
                ))
            })
            .collect()
    }

    /// Remove the least-recently-used entry, returning its position.
    fn evict_lru(&mut self) -> usize {
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (i, r) in self.records.iter().enumerate() {
            // Ties on the stamp break toward the smaller source, which is
            // the smaller index in a sorted array — i.e. first wins.
            let used = r.last_used.us();
            if used < oldest {
                (victim, oldest) = (i, used);
            }
        }
        if !self.records.is_empty() {
            self.remove_at(victim);
        }
        victim
    }

    /// Drop the record at `i` and release its slot.
    fn remove_at(&mut self, i: usize) {
        let gone = self.records.remove(i);
        self.store.borrow_mut().release(gone.slot_id());
    }
}

impl Drop for AdRepository {
    /// A dropped cache stops naming its filters.
    fn drop(&mut self) {
        let mut store = self.store.borrow_mut();
        for r in &self.records {
            store.release(r.slot_id());
        }
    }
}

fn cached_view(r: Record, filter: &Rc<BloomFilter>) -> CachedAd {
    CachedAd {
        topics: r.topics,
        version: r.version,
        filter: Rc::clone(filter),
        last_used_us: r.last_used.us(),
        last_refreshed_us: r.last_refreshed.us(),
        stale: r.is_stale(),
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
pub(crate) fn version_not_newer(candidate: u16, held: u16) -> bool {
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
    fn a_record_is_24_bytes() {
        assert_eq!(size_of::<Record>(), 24);
    }

    #[test]
    fn a_repository_header_is_40_bytes() {
        assert_eq!(size_of::<AdRepository>(), 40);
    }

    /// A stamp keeps every µs below the clock bound exactly: zero, the
    /// first time past 32 bits, and the last time the clock can reach.
    #[test]
    fn stamps_round_trip_up_to_the_clock_bound() {
        for us in [
            0,
            1 << 32,
            (1 << 32) - 1,
            0x1234_5678_9abc,
            CLOCK_BOUND_US - 1,
        ] {
            assert_eq!(Stamp::at(us).us(), us);
        }
        let mut repo = AdRepository::new(2);
        let last = CLOCK_BOUND_US - 1;
        repo.insert_full(&snap(1, 0, &["a"]), 1 << 32);
        assert_eq!(
            repo.apply_refresh(PeerId(1), 0, last),
            ApplyOutcome::Applied
        );
        let ad = repo.get(PeerId(1)).unwrap();
        assert_eq!((ad.last_used_us, ad.last_refreshed_us), (1 << 32, last));
        // LRU order holds across the 32-bit line: the entry stamped just
        // below it is the one evicted.
        repo.insert_full(&snap(2, 0, &["b"]), (1 << 32) - 1);
        repo.insert_full(&snap(3, 0, &["c"]), last);
        assert!(repo.get(PeerId(2)).is_none());
        assert!(repo.get(PeerId(1)).is_some());
    }

    #[test]
    fn records_grow_by_an_eighth_and_stop_at_capacity() {
        let mut repo = AdRepository::new(100);
        for id in 0..150 {
            repo.insert_full(&snap(id, 0, &["k"]), u64::from(id));
            let (len, cap) = (repo.len(), repo.record_capacity());
            assert!(
                cap <= len + (len / 8).max(4),
                "{cap} slots for {len} entries"
            );
            assert!(cap <= 100, "{cap} slots past the capacity");
        }
        assert_eq!(repo.record_capacity(), 100);
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
                let held: Vec<u32> = repo.records.iter().map(|r| r.source.0).collect();
                prop_assert!(held.windows(2).all(|w| w[0] < w[1]), "{:?}", held);
                prop_assert!(held.iter().all(|&id| id <= repo.top));
                for probe in probes(&ids, repo.top) {
                    let source = PeerId(probe);
                    prop_assert_eq!(
                        repo.position(source),
                        repo.records.binary_search_by_key(&source, |r| r.source),
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
                    *named.entry(e.slot).or_default() += 1;
                    let filter = store.filter_at(e.slot);
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
