//! The per-node ads repository ("$" in the paper's pseudo-code).
//!
//! One entry per source peer, holding that source's latest known filter,
//! topics, version and freshness. Capacity-bounded with LRU eviction (the
//! paper's nodes "selectively store interesting ads"; a bounded cache is the
//! practical reading).
//!
//! Layout: two parallel vectors sorted by source `PeerId` — a dense key
//! array (`sources`) binary-searched on the lookup/update hot path and a
//! payload array (`ads`) indexed by the same position. This replaces the
//! original `BTreeMap`: iteration order (ascending `PeerId`) and every
//! observable behavior are identical — the simulator's replay digests and
//! the checkpoint byte format depend on that order — but the key scan now
//! touches one contiguous cache line per ~16 entries instead of chasing
//! tree nodes. The invariant `sources.len() == ads.len()` with `sources`
//! strictly ascending holds between all public calls.

use crate::ad::AdSnapshot;
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, ProbePlan};
use asap_overlay::PeerId;
use asap_sim::CodecError;
use asap_workload::InterestSet;
use std::rc::Rc;

/// One cached ad.
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

/// Capacity-bounded ad cache over sorted parallel vectors (see module docs).
#[derive(Debug)]
pub struct AdRepository {
    /// Source peers, strictly ascending; position `i` owns `ads[i]`.
    sources: Vec<PeerId>,
    ads: Vec<CachedAd>,
    capacity: usize,
}

impl AdRepository {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        Self {
            sources: Vec::new(),
            ads: Vec::new(),
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All cached entries, keyed by source, in `PeerId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &CachedAd)> {
        self.sources.iter().copied().zip(self.ads.iter())
    }

    fn position(&self, source: PeerId) -> Result<usize, usize> {
        self.sources.binary_search(&source)
    }

    pub fn get(&self, source: PeerId) -> Option<&CachedAd> {
        self.position(source).ok().map(|i| &self.ads[i])
    }

    /// Rebuild a repository from checkpointed entries. Returns `None` when
    /// the entries exceed `capacity` (a valid repository never does).
    /// Entries are sorted by source; a duplicated source keeps the later
    /// entry (the `BTreeMap`-collect behavior this layout replaced).
    pub fn from_entries(capacity: usize, entries: Vec<(PeerId, CachedAd)>) -> Option<Self> {
        if capacity == 0 || entries.len() > capacity {
            return None;
        }
        let mut entries = entries;
        // Stable sort: duplicates stay in input order, so "keep last" below
        // matches repeated-insert semantics.
        entries.sort_by_key(|&(p, _)| p);
        let mut sources: Vec<PeerId> = Vec::with_capacity(entries.len());
        let mut ads: Vec<CachedAd> = Vec::with_capacity(entries.len());
        for (p, ad) in entries {
            if sources.last() == Some(&p) {
                if let Some(slot) = ads.last_mut() {
                    *slot = ad;
                }
            } else {
                sources.push(p);
                ads.push(ad);
            }
        }
        Some(Self {
            sources,
            ads,
            capacity,
        })
    }

    /// Capacity is configuration, not state: a checkpoint restores only the
    /// entries (the decoded repository is exactly full) and the resuming
    /// protocol installs its configured capacity here.
    pub(crate) fn restore_capacity(&mut self, capacity: usize) -> Result<(), CodecError> {
        if self.len() > capacity {
            return Err(CodecError::Invalid("ad cache over capacity"));
        }
        self.capacity = capacity;
        Ok(())
    }

    /// Store/overwrite the full ad of `source`. Evicts the least-recently
    /// used entry when full. Overwrites with an *older* version are ignored
    /// (out-of-order delivery).
    pub fn insert_full(&mut self, snap: &AdSnapshot, now_us: u64) -> ApplyOutcome {
        let fresh = CachedAd {
            topics: snap.topics,
            version: snap.version,
            filter: Rc::clone(&snap.filter),
            last_used_us: now_us,
            last_refreshed_us: now_us,
            stale: false,
        };
        match self.position(snap.source) {
            Ok(i) => {
                let existing = &mut self.ads[i];
                if !existing.stale && version_not_newer(snap.version, existing.version) {
                    existing.last_refreshed_us = now_us;
                    return ApplyOutcome::Outdated;
                }
                *existing = fresh;
                ApplyOutcome::Applied
            }
            Err(mut i) => {
                if self.sources.len() >= self.capacity {
                    let victim = self.evict_lru();
                    // Eviction shifts the insertion point when the victim
                    // sat left of it.
                    if victim < i {
                        i -= 1;
                    }
                }
                self.sources.insert(i, snap.source);
                self.ads.insert(i, fresh);
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
        let entry = &mut self.ads[i];
        if entry.stale {
            return ApplyOutcome::VersionGap;
        }
        if version_not_newer(version, entry.version) {
            entry.last_refreshed_us = now_us;
            return ApplyOutcome::Outdated;
        }
        if version != entry.version.wrapping_add(1) {
            entry.stale = true;
            return ApplyOutcome::VersionGap;
        }
        entry.version = version;
        entry.topics = topics;
        entry.filter = Rc::clone(result);
        entry.last_used_us = now_us;
        entry.last_refreshed_us = now_us;
        ApplyOutcome::Applied
    }

    /// Apply a refresh ad: bumps freshness when the version matches, flags a
    /// gap otherwise.
    pub fn apply_refresh(&mut self, source: PeerId, version: u16, now_us: u64) -> ApplyOutcome {
        let Ok(i) = self.position(source) else {
            return ApplyOutcome::Unknown;
        };
        let entry = &mut self.ads[i];
        if entry.stale {
            return ApplyOutcome::VersionGap;
        }
        if entry.version == version {
            entry.last_refreshed_us = now_us;
            ApplyOutcome::Applied
        } else if version_not_newer(version, entry.version) {
            ApplyOutcome::Outdated
        } else {
            entry.stale = true;
            ApplyOutcome::VersionGap
        }
    }

    pub fn remove(&mut self, source: PeerId) -> bool {
        match self.position(source) {
            Ok(i) => {
                self.sources.remove(i);
                self.ads.remove(i);
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
        for (&source, ad) in self.sources.iter().zip(self.ads.iter_mut()) {
            if ad.stale || ad.last_refreshed_us < expire_before_us {
                continue;
            }
            let plan = plan.get_or_insert_with(|| ProbePlan::new(ad.filter.params(), term_hashes));
            let matched = if ad.filter.params() == plan.params() {
                ad.filter.contains_plan(plan)
            } else {
                term_hashes.iter().all(|h| ad.filter.contains_hash(h))
            };
            if matched {
                ad.last_used_us = now_us;
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
            .filter_map(|source| {
                self.get(source).map(|ad| AdSnapshot {
                    source,
                    topics: ad.topics,
                    version: ad.version,
                    filter: Rc::clone(&ad.filter),
                })
            })
            .collect()
    }

    /// Cached ads with topic overlap, for an ads reply — freshest first,
    /// capped at `max`.
    pub fn ads_for_interests(&self, interests: InterestSet, max: usize) -> Vec<AdSnapshot> {
        let mut matches: Vec<(PeerId, &CachedAd)> = self
            .iter()
            .filter(|(_, ad)| !ad.stale && ad.topics.intersects(interests))
            .collect();
        // Stable sort: equal freshness keeps ascending-source order, as the
        // old map iteration did.
        matches.sort_by_key(|(_, ad)| std::cmp::Reverse(ad.last_refreshed_us));
        matches
            .into_iter()
            .take(max)
            .map(|(source, ad)| AdSnapshot {
                source,
                topics: ad.topics,
                version: ad.version,
                filter: Rc::clone(&ad.filter),
            })
            .collect()
    }

    /// Remove the least-recently-used entry, returning its position.
    fn evict_lru(&mut self) -> usize {
        let mut victim = 0usize;
        for (i, ad) in self.ads.iter().enumerate() {
            // Ties on last_used_us break toward the smaller source, which is
            // the smaller index in a sorted array — i.e. first wins.
            if ad.last_used_us < self.ads[victim].last_used_us {
                victim = i;
            }
        }
        if !self.sources.is_empty() {
            self.sources.remove(victim);
            self.ads.remove(victim);
        }
        victim
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
        assert!(repo.get(PeerId(3)).is_none(), "equal stamps evict smaller id");
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
    fn from_entries_sorts_and_keeps_last_duplicate() {
        let mk = |id: u32, version: u16| {
            (
                PeerId(id),
                CachedAd {
                    topics: InterestSet(0b1),
                    version,
                    filter: Rc::new(BloomFilter::empty(BloomParams::for_capacity(10, 4))),
                    last_used_us: 0,
                    last_refreshed_us: 0,
                    stale: false,
                },
            )
        };
        let repo = AdRepository::from_entries(10, vec![mk(5, 0), mk(2, 1), mk(5, 9)])
            .unwrap_or_else(|| unreachable!("fits capacity"));
        let order: Vec<(u32, u16)> = repo.iter().map(|(p, ad)| (p.0, ad.version)).collect();
        assert_eq!(order, vec![(2, 1), (5, 9)], "sorted; later duplicate wins");
        assert!(AdRepository::from_entries(2, vec![mk(1, 0), mk(2, 0), mk(3, 0)]).is_none());
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
        assert!(repo.lookup(&hashes(&["a"]), 20, 0).is_empty(), "stale skipped");
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
        assert_eq!(repo.apply_refresh(PeerId(1), 1, 200), ApplyOutcome::Outdated);
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
}
