//! The per-node ads repository ("$" in the paper's pseudo-code), and the
//! [`FilterStore`] the repositories of one protocol keep their filters in.
//!
//! One entry per source peer, holding that source's latest known filter,
//! topics, version and freshness. Capacity-bounded with LRU eviction (the
//! paper's nodes "selectively store interesting ads"; a bounded cache is the
//! practical reading).
//!
//! Layout: one vector of 20-byte records in ascending source order, and a
//! rank index beside it that says where each source's record is. Index
//! word `w` covers the 48 peer ids `48w..48w + 48`: bits `0..48` mark which
//! of them are cached, bits `48..64` count the records whose source is
//! below `48w`. On the lookup/update hot path (every interested hop of an
//! ad, most of them refreshes) `source`'s record is at that count plus the
//! marked bits below `source` in its word: one index word and one record,
//! no search. An insert or remove moves the counts of the later words by
//! one, O(ids / 48) beside the record vector's own shift. Iteration walks
//! the set bits beside the records, so it runs in ascending `PeerId`
//! order, which the simulator's replay digests and the checkpoint byte
//! format depend on. Sources are peer ids, dense from 0 in a network of
//! `n` peers: the index covers the ids up to the largest source ever
//! cached, at most `n / 48 + 1` words. The 16-bit counts bound a cache at
//! [`MAX_CACHE_CAPACITY`] records.
//!
//! A record names its filter by a `u32` slot of the protocol's
//! [`FilterStore`] instead of holding an `Rc` (the slot's top bit is free
//! for the `stale` flag), and keeps its two µs stamps in 48 bits each:
//! the engine's clock never reaches [`CLOCK_BOUND_US`] = 2⁴⁸ µs, so the
//! stamps are exact. `{ filter, version, topics, last_used,
//! last_refreshed }` is 20 bytes; the source is the record's place in the
//! index. `Entry` is the by-value view with the stamps widened again,
//! which the checkpoint writes and reads.
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
//! The index grows to exactly the words its largest source needs.
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

/// Most records one cache holds: an index word counts the records below
/// it in 16 bits.
pub const MAX_CACHE_CAPACITY: usize = u16::MAX as usize;

/// Peer ids one index word covers, one presence bit each.
const IDS_PER_WORD: u32 = 48;

/// An index word's presence bits; the bits above are its rank.
const PRESENCE: u64 = (1 << IDS_PER_WORD) - 1;

/// One record in an index word's rank.
const RANK_ONE: u64 = 1 << IDS_PER_WORD;

/// The index word covering `source`, and `source`'s bit in it.
#[inline]
fn word_of(source: PeerId) -> (usize, u64) {
    (
        (source.0 / IDS_PER_WORD) as usize,
        1 << (source.0 % IDS_PER_WORD),
    )
}

/// Records whose source is below the ids `word` covers.
#[inline]
fn rank(word: u64) -> usize {
    (word >> IDS_PER_WORD) as usize
}

/// The position of the record for the source whose bit in `word` is
/// `bit`: the records below the word, then those marked below `bit`.
#[inline]
fn place(word: u64, bit: u64) -> usize {
    rank(word) + (word & (bit - 1)).count_ones() as usize
}

/// The sources `index` marks, ascending: the source of each record in
/// turn.
fn sources(index: &[u64]) -> impl Iterator<Item = PeerId> + '_ {
    index.iter().zip(0u32..).flat_map(|(&word, w)| {
        let mut bits = word & PRESENCE;
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros();
            bits &= bits.wrapping_sub(1);
            (bit < IDS_PER_WORD).then(|| PeerId(w * IDS_PER_WORD + bit))
        })
    })
}

/// One cache entry as the repository stores it: 20 bytes. Its source is
/// its place in the index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
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
    /// The record of `e`, whose stamps are below [`CLOCK_BOUND_US`].
    pub(crate) fn new(e: Entry) -> Self {
        Self {
            filter: e.slot | if e.stale { STALE_BIT } else { 0 },
            version: e.version,
            topics: e.topics,
            last_used: Stamp::at(e.last_used_us),
            last_refreshed: Stamp::at(e.last_refreshed_us),
        }
    }

    /// A fresh, usable record stamped `now_us` twice.
    fn fresh(topics: InterestSet, version: u16, slot: u32, now_us: u64) -> Self {
        let now = Stamp::at(now_us);
        Self {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Capacity-bounded ad cache over one record vector and its rank index
/// (see module docs).
#[derive(Debug)]
pub struct AdRepository {
    /// Records by source, strictly ascending.
    records: Vec<Record>,
    /// Word `w`: which of the sources `48w..48w + 48` are cached (bits
    /// `0..48`), and how many records have a source below `48w` (bits
    /// `48..64`).
    index: Vec<u64>,
    capacity: u32,
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
            (1..=MAX_CACHE_CAPACITY).contains(&capacity),
            "capacity must be between 1 and {MAX_CACHE_CAPACITY}"
        );
        Self {
            records: Vec::new(),
            index: Vec::new(),
            capacity: capacity as u32,
            store: Rc::clone(store),
        }
    }

    /// A repository over decoded records, `records[i]` cached for
    /// `sources[i]`, whose slots `store` already counts. The decoder has
    /// checked that the sources ascend strictly and that there are at most
    /// `capacity` of them.
    pub(crate) fn from_decoded(
        capacity: usize,
        store: &Rc<RefCell<FilterStore>>,
        sources: &[PeerId],
        records: Vec<Record>,
    ) -> Self {
        let mut repo = Self::sharing(capacity, store);
        let words = sources.last().map_or(0, |&s| word_of(s).0 + 1);
        repo.index.reserve_exact(words);
        repo.records.reserve_exact(records.len());
        for (&source, record) in sources.iter().zip(records) {
            repo.mark(source);
            repo.records.push(record);
        }
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

    /// Heap bytes of the record vector and the index (their capacities,
    /// not their lengths).
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * size_of::<Record>() + self.index.capacity() * size_of::<u64>()
    }

    /// Capacity of the record vector.
    #[cfg(test)]
    pub(crate) fn record_capacity(&self) -> usize {
        self.records.capacity()
    }

    /// The raw entries, keyed by source, in `PeerId` order.
    pub(crate) fn raw_entries(&self) -> impl Iterator<Item = (PeerId, Entry)> + '_ {
        sources(&self.index)
            .zip(&self.records)
            .map(|(source, r)| (source, r.entry()))
    }

    /// All cached entries, keyed by source, in `PeerId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, CachedAd)> + '_ {
        let store = self.store.borrow();
        sources(&self.index)
            .zip(&self.records)
            .filter_map(move |(source, &r)| {
                Some((source, cached_view(r, store.filter_at(r.slot_id())?)))
            })
    }

    /// Where `source` sits in `records`: `Ok` at its index, `Err` at the
    /// index it would be inserted at. The index word covering `source`
    /// counts the records below its first id; the marked bits below
    /// `source` in it count the rest.
    fn position(&self, source: PeerId) -> Result<usize, usize> {
        let (w, bit) = word_of(source);
        let Some(&word) = self.index.get(w) else {
            return Err(self.records.len());
        };
        if word & bit != 0 {
            Ok(place(word, bit))
        } else {
            Err(place(word, bit))
        }
    }

    /// The source of the record at `i < len`: the last index word whose
    /// rank is at most `i` holds it, as its `i - rank`-th marked bit.
    fn source_at(&self, i: usize) -> PeerId {
        let w = self
            .index
            .partition_point(|&word| rank(word) <= i)
            .saturating_sub(1);
        let word = self.index[w];
        let mut bits = word & PRESENCE;
        for _ in rank(word)..i {
            bits &= bits.wrapping_sub(1);
        }
        PeerId(w as u32 * IDS_PER_WORD + bits.trailing_zeros())
    }

    /// Mark `source`, which is not cached, in the index, growing it to
    /// cover `source`: the position its record goes to.
    fn mark(&mut self, source: PeerId) -> usize {
        let (w, bit) = word_of(source);
        if w >= self.index.len() {
            let below = self.records.len() as u64 * RANK_ONE;
            self.index.reserve_exact(w + 1 - self.index.len());
            self.index.resize(w + 1, below);
        }
        for word in &mut self.index[w + 1..] {
            *word += RANK_ONE;
        }
        self.index[w] |= bit;
        place(self.index[w], bit)
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
                *existing = Record::fresh(snap.topics, snap.version, slot, now_us);
                ApplyOutcome::Applied
            }
            Err(_) => {
                let slot = self.store.borrow_mut().acquire(&snap.filter);
                let limit = self.capacity();
                // Evict before marking, so the new record's position
                // counts the victim out.
                if self.records.len() >= limit {
                    self.evict_lru();
                }
                reserve_one(&mut self.records, limit);
                let i = self.mark(snap.source);
                let fresh = Record::fresh(snap.topics, snap.version, slot, now_us);
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
        *record = Record::fresh(topics, version, slot, now_us);
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
                self.remove_at(i, source);
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
        for (source, r) in sources(&self.index).zip(self.records.iter_mut()) {
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
        let mut matches: Vec<(PeerId, Record)> = sources(&self.index)
            .zip(&self.records)
            .filter(|(_, r)| !r.is_stale() && r.topics.intersects(interests))
            .map(|(source, &r)| (source, r))
            .collect();
        // Stable sort: equal freshness keeps ascending-source order, as the
        // old map iteration did.
        matches.sort_by_key(|(_, r)| std::cmp::Reverse(r.last_refreshed.us()));
        let store = self.store.borrow();
        matches
            .into_iter()
            .take(max)
            .filter_map(|(source, r)| {
                Some(snapshot_from(
                    source,
                    cached_view(r, store.filter_at(r.slot_id())?),
                ))
            })
            .collect()
    }

    /// Remove the least-recently-used entry.
    fn evict_lru(&mut self) {
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
            let source = self.source_at(victim);
            self.remove_at(victim, source);
        }
    }

    /// Drop the record at `i`, `source`'s, unmark `source` and release the
    /// record's slot.
    fn remove_at(&mut self, i: usize, source: PeerId) {
        let (w, bit) = word_of(source);
        self.index[w] &= !bit;
        for word in &mut self.index[w + 1..] {
            *word -= RANK_ONE;
        }
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
    fn a_record_is_20_bytes() {
        assert_eq!(size_of::<Record>(), 20);
    }

    #[test]
    fn a_repository_header_is_64_bytes() {
        assert_eq!(size_of::<AdRepository>(), 64);
    }

    /// An index word counts the records below it in 16 bits.
    #[test]
    fn the_largest_capacity_is_accepted() {
        let repo = AdRepository::new(MAX_CACHE_CAPACITY);
        assert_eq!(repo.capacity(), 65_535);
    }

    #[test]
    #[should_panic(expected = "capacity must be between 1 and 65535")]
    fn a_capacity_past_the_rank_bound_is_refused() {
        AdRepository::new(MAX_CACHE_CAPACITY + 1);
    }

    /// Each index word's rank counts the marked bits of the words before
    /// it, and the marks count the records.
    fn check_index(repo: &AdRepository) {
        let mut below = 0;
        for (w, &word) in repo.index.iter().enumerate() {
            assert_eq!(rank(word), below, "rank of word {w}");
            below += (word & PRESENCE).count_ones() as usize;
        }
        assert_eq!(below, repo.len(), "marks against records");
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
        /// apart, 2 packed densely over a few full index words.
        fn ids(layout: u8, raw: &[u32]) -> Vec<u32> {
            let mut ids: Vec<u32> = raw
                .iter()
                .map(|&x| match layout {
                    0 => x % 4_096,
                    1 => [0, 5_000, 20_000][(x % 3) as usize] + (x >> 8) % 64,
                    _ => 10_000 + x % 512,
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }

        /// Probes at 0, far past the greatest id, at every id, and beside
        /// every id (between neighbours or past one).
        fn probes(ids: &[u32]) -> Vec<u32> {
            let mut at = vec![0, 1, 30_000, u32::MAX];
            for &id in ids {
                at.extend([id, id.saturating_sub(1), id + 1]);
            }
            at
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `position` answers exactly what a binary search of the
            /// cached ids answers, for every probe and every layout;
            /// `shape` keeps 0 ids, 1 id, all of them (at capacity), or
            /// removes some (the greatest included, when picked) so the
            /// index covers words past the greatest id left.
            #[test]
            fn agrees_with_a_binary_search_of_the_cached_ids(
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
                check_index(&repo);
                let held: Vec<u32> = repo.iter().map(|(s, _)| s.0).collect();
                prop_assert!(held.windows(2).all(|w| w[0] < w[1]), "{:?}", held);
                for (i, &id) in held.iter().enumerate() {
                    prop_assert_eq!(repo.source_at(i), PeerId(id));
                }
                for probe in probes(&ids) {
                    prop_assert_eq!(
                        repo.position(PeerId(probe)),
                        held.binary_search(&probe),
                        "probe {} in {:?}", probe, held
                    );
                }
            }
        }
    }

    /// `AdRepository` against a `BTreeMap` reference that states each
    /// operation's rule directly: tapes of every operation over ids
    /// 0..200, half of them beside the index words' boundaries, into
    /// caches of 1 to 8 entries, so evictions and LRU ties happen.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Ids either side of the first three index-word boundaries, and
        /// the two ends of the range.
        const EDGES: [u32; 8] = [0, 47, 48, 95, 96, 143, 144, 199];
        /// Filters in the pool; a lookup for keyword `KEYWORDS` has no
        /// terms and matches every usable entry.
        const KEYWORDS: usize = 4;

        /// One step, taken `tick` µs (0 or 1, so stamps tie) after the last.
        #[derive(Debug, Clone)]
        enum Op {
            Full {
                source: u32,
                version: u16,
                kw: usize,
            },
            Patch {
                source: u32,
                version: u16,
                kw: usize,
            },
            Refresh {
                source: u32,
                version: u16,
            },
            Remove {
                source: u32,
            },
            Lookup {
                kw: usize,
                expire_lag: u64,
            },
        }

        fn id() -> impl Strategy<Value = u32> {
            prop_oneof![0u32..200, (0..EDGES.len()).prop_map(|i| EDGES[i])]
        }

        fn op() -> impl Strategy<Value = (Op, u64)> {
            let op = prop_oneof![
                (id(), 0u16..4, 0..KEYWORDS).prop_map(|(source, version, kw)| Op::Full {
                    source,
                    version,
                    kw
                }),
                (id(), 0u16..4, 0..KEYWORDS).prop_map(|(source, version, kw)| Op::Patch {
                    source,
                    version,
                    kw
                }),
                (id(), 0u16..4).prop_map(|(source, version)| Op::Refresh { source, version }),
                id().prop_map(|source| Op::Remove { source }),
                (0..=KEYWORDS, 0u64..40).prop_map(|(kw, expire_lag)| Op::Lookup { kw, expire_lag }),
            ];
            (op, 0u64..2)
        }

        /// The reference: entries by source, `slot` naming the pool filter.
        type Reference = BTreeMap<PeerId, Entry>;

        fn fresh(kw: usize, version: u16, now_us: u64) -> Entry {
            Entry {
                topics: InterestSet(1 << kw),
                version,
                slot: kw as u32,
                last_used_us: now_us,
                last_refreshed_us: now_us,
                stale: false,
            }
        }

        /// A full ad: an older or equal version only refreshes a usable
        /// entry; a new source evicts the least recently used entry
        /// (ties: the smaller source) from a full cache.
        fn insert_full(
            reference: &mut Reference,
            capacity: usize,
            source: PeerId,
            (version, kw): (u16, usize),
            now_us: u64,
        ) -> (ApplyOutcome, Option<PeerId>) {
            if let Some(e) = reference.get_mut(&source) {
                if !e.stale && version_not_newer(version, e.version) {
                    e.last_refreshed_us = now_us;
                    return (ApplyOutcome::Outdated, None);
                }
                *e = fresh(kw, version, now_us);
                return (ApplyOutcome::Applied, None);
            }
            let mut victim = None;
            if reference.len() >= capacity {
                let lru = reference.iter().min_by_key(|(&s, e)| (e.last_used_us, s));
                victim = lru.map(|(&s, _)| s);
                reference.retain(|&s, _| Some(s) != victim);
            }
            reference.insert(source, fresh(kw, version, now_us));
            (ApplyOutcome::Applied, victim)
        }

        fn apply_patch(
            reference: &mut Reference,
            source: PeerId,
            (version, kw): (u16, usize),
            now_us: u64,
        ) -> ApplyOutcome {
            let Some(e) = reference.get_mut(&source) else {
                return ApplyOutcome::Unknown;
            };
            if e.stale {
                ApplyOutcome::VersionGap
            } else if version_not_newer(version, e.version) {
                e.last_refreshed_us = now_us;
                ApplyOutcome::Outdated
            } else if version != e.version.wrapping_add(1) {
                e.stale = true;
                ApplyOutcome::VersionGap
            } else {
                *e = fresh(kw, version, now_us);
                ApplyOutcome::Applied
            }
        }

        fn apply_refresh(
            reference: &mut Reference,
            source: PeerId,
            version: u16,
            now_us: u64,
        ) -> ApplyOutcome {
            let Some(e) = reference.get_mut(&source) else {
                return ApplyOutcome::Unknown;
            };
            if e.stale {
                ApplyOutcome::VersionGap
            } else if e.version == version {
                e.last_refreshed_us = now_us;
                ApplyOutcome::Applied
            } else if version_not_newer(version, e.version) {
                ApplyOutcome::Outdated
            } else {
                e.stale = true;
                ApplyOutcome::VersionGap
            }
        }

        /// Usable, unexpired entries whose filter holds every term, in
        /// source order, their LRU stamps bumped.
        fn lookup(
            reference: &mut Reference,
            pool: &[Rc<BloomFilter>],
            terms: &[KeyHash],
            now_us: u64,
            expire_before_us: u64,
        ) -> Vec<PeerId> {
            let mut hits = Vec::new();
            for (&source, e) in reference.iter_mut() {
                if e.stale || e.last_refreshed_us < expire_before_us {
                    continue;
                }
                let filter = &pool[e.slot as usize];
                if terms.iter().all(|h| filter.contains_hash(h)) {
                    e.last_used_us = now_us;
                    hits.push(source);
                }
            }
            hits
        }

        /// Every view of `repo` against the reference, its store slots
        /// read back as pool indices.
        fn check(repo: &AdRepository, reference: &Reference, pool: &[Rc<BloomFilter>]) {
            check_index(repo);
            let kw_of = |filter: &BloomFilter| pool.iter().position(|f| **f == *filter);
            let raw: Vec<(PeerId, Entry)> = repo
                .raw_entries()
                .map(|(source, e)| {
                    let filter = repo.store.borrow().filter_at(e.slot).map(|f| kw_of(f));
                    let slot = filter.flatten().expect("a pool filter") as u32;
                    (source, Entry { slot, ..e })
                })
                .collect();
            let expected: Vec<(PeerId, Entry)> = reference.iter().map(|(&s, &e)| (s, e)).collect();
            prop_assert_eq!(&raw, &expected);
            prop_assert_eq!(repo.len(), reference.len());
            let viewed: Vec<(PeerId, u16, bool, u64, u64)> = repo
                .iter()
                .map(|(s, ad)| {
                    (
                        s,
                        ad.version,
                        ad.stale,
                        ad.last_used_us,
                        ad.last_refreshed_us,
                    )
                })
                .collect();
            let expected_views: Vec<(PeerId, u16, bool, u64, u64)> = reference
                .iter()
                .map(|(&s, e)| (s, e.version, e.stale, e.last_used_us, e.last_refreshed_us))
                .collect();
            prop_assert_eq!(viewed, expected_views);
            for id in 0..200 {
                let source = PeerId(id);
                let held = reference.get(&source);
                prop_assert_eq!(repo.version_of(source), held.map(|e| (e.version, e.stale)));
                let got = repo.get(source);
                prop_assert_eq!(got.is_some(), held.is_some(), "get {}", id);
                if let (Some(ad), Some(e)) = (got, held) {
                    prop_assert_eq!(kw_of(&ad.filter), Some(e.slot as usize));
                    prop_assert_eq!(ad.topics, e.topics);
                    prop_assert_eq!((ad.version, ad.stale), (e.version, e.stale));
                    prop_assert_eq!(
                        (ad.last_used_us, ad.last_refreshed_us),
                        (e.last_used_us, e.last_refreshed_us)
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn every_view_agrees_with_a_btree_map_after_every_step(
                capacity in 1usize..9,
                ops in prop::collection::vec(op(), 1..120),
            ) {
                let params = BloomParams::for_capacity(32, 4);
                let keys: Vec<String> = (0..KEYWORDS).map(|kw| format!("kw{kw}")).collect();
                let pool: Vec<Rc<BloomFilter>> = keys
                    .iter()
                    .map(|k| Rc::new(BloomFilter::from_keys(params, [k.as_str()])))
                    .collect();
                let mut repo = AdRepository::new(capacity);
                let mut reference = Reference::new();
                let mut now = 1;
                for (op, tick) in ops {
                    now += tick;
                    match op {
                        Op::Full { source, version, kw } => {
                            let ad = AdSnapshot {
                                source: PeerId(source),
                                topics: InterestSet(1 << kw),
                                version,
                                filter: Rc::clone(&pool[kw]),
                            };
                            let before: Vec<PeerId> = repo.iter().map(|(s, _)| s).collect();
                            let (outcome, victim) =
                                insert_full(&mut reference, capacity, ad.source, (version, kw), now);
                            prop_assert_eq!(repo.insert_full(&ad, now), outcome);
                            let evicted: Vec<PeerId> =
                                before.into_iter().filter(|&s| repo.get(s).is_none()).collect();
                            prop_assert_eq!(evicted, victim.into_iter().collect::<Vec<_>>());
                        }
                        Op::Patch { source, version, kw } => {
                            let outcome = apply_patch(&mut reference, PeerId(source), (version, kw), now);
                            let got = repo.apply_patch(
                                PeerId(source), version, InterestSet(1 << kw), &pool[kw], now,
                            );
                            prop_assert_eq!(got, outcome);
                        }
                        Op::Refresh { source, version } => {
                            let outcome = apply_refresh(&mut reference, PeerId(source), version, now);
                            prop_assert_eq!(repo.apply_refresh(PeerId(source), version, now), outcome);
                        }
                        Op::Remove { source } => {
                            let held = reference.remove(&PeerId(source)).is_some();
                            prop_assert_eq!(repo.remove(PeerId(source)), held);
                        }
                        Op::Lookup { kw, expire_lag } => {
                            let terms = match keys.get(kw) {
                                Some(key) => hashes(&[key.as_str()]),
                                None => Vec::new(),
                            };
                            let expire = now.saturating_sub(expire_lag);
                            let hits = lookup(&mut reference, &pool, &terms, now, expire);
                            prop_assert_eq!(repo.lookup(&terms, now, expire), hits);
                        }
                    }
                    check(&repo, &reference, &pool);
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
