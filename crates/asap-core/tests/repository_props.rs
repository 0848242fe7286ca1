//! Property-based tests for the ad repository: arbitrary interleavings of
//! full / patch / refresh / lookup operations preserve its invariants, and
//! repositories sharing a filter store keep one slot per filter content.

use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, BloomParams};
use asap_core::repository::{AdRepository, ApplyOutcome, FilterStore};
use asap_core::AdSnapshot;
use asap_overlay::PeerId;
use asap_sim::collections::DetHashSet;
use asap_workload::InterestSet;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The sources ads come from: peer ids, sparse and clustered over the
/// 100,000 peers of the largest scale (both ends, a run of neighbours,
/// two ids either side of an index-word boundary, lone ids far apart),
/// so lookups cross the repository's rank-index words and long runs of
/// empty ones.
const SOURCES: [u32; 8] = [0, 1, 2, 47, 48, 1_499, 70_000, 99_999];
const CAPACITY: usize = 5;

fn source() -> impl Strategy<Value = u32> {
    (0..SOURCES.len()).prop_map(|i| SOURCES[i])
}

#[derive(Debug, Clone)]
enum Op {
    /// Full ad from `source` at `version` containing keyword `kw`.
    Full {
        source: u32,
        version: u16,
        kw: u8,
    },
    /// Refresh from `source` at `version`.
    Refresh {
        source: u32,
        version: u16,
    },
    /// Lookup for keyword `kw`.
    Lookup {
        kw: u8,
    },
    Remove {
        source: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (source(), 0u16..6, 0u8..12).prop_map(|(source, version, kw)| Op::Full {
            source,
            version,
            kw
        }),
        (source(), 0u16..6).prop_map(|(source, version)| Op::Refresh { source, version }),
        (0u8..12).prop_map(|kw| Op::Lookup { kw }),
        source().prop_map(|source| Op::Remove { source }),
    ]
}

fn params() -> BloomParams {
    BloomParams::for_capacity(32, 4)
}

fn snap(source: u32, version: u16, kw: u8) -> AdSnapshot {
    AdSnapshot {
        source: PeerId(source),
        topics: InterestSet(0b1),
        version,
        filter: Rc::new(BloomFilter::from_keys(
            params(),
            [format!("kw{kw}").as_str()],
        )),
    }
}

proptest! {
    /// Capacity is never exceeded; lookups never return stale entries; the
    /// cached version for a source is the max non-outdated version accepted.
    #[test]
    fn repository_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut repo = AdRepository::new(CAPACITY);
        // Reference: highest version accepted per source (while cached).
        let mut shadow: BTreeMap<u32, u16> = BTreeMap::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            match op {
                Op::Full { source, version, kw } => {
                    let outcome = repo.insert_full(&snap(source, version, kw), clock);
                    match outcome {
                        ApplyOutcome::Applied => {
                            shadow.insert(source, version);
                        }
                        ApplyOutcome::Outdated => {
                            // Must already hold something at least as new.
                            let held = repo.get(PeerId(source)).expect("outdated implies cached");
                            prop_assert!(version_not_newer(version, held.version));
                        }
                        other => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::Refresh { source, version } => {
                    let _ = repo.apply_refresh(PeerId(source), version, clock);
                }
                Op::Lookup { kw } => {
                    let key = format!("kw{kw}");
                    let h = [KeyHash::of(&key)];
                    for hit in repo.lookup(&h, clock, 0) {
                        let ad = repo.get(hit).expect("lookup returns cached sources");
                        prop_assert!(!ad.stale, "stale entries must not match");
                        let contains = ad.filter.contains(&key);
                        prop_assert!(contains, "lookup hit without keyword");
                    }
                }
                Op::Remove { source } => {
                    repo.remove(PeerId(source));
                    shadow.remove(&source);
                }
            }
            prop_assert!(repo.len() <= CAPACITY, "capacity breached: {}", repo.len());
            // Every cached source is found again, and no other one is.
            let cached: Vec<PeerId> = repo.iter().map(|(source, _)| source).collect();
            prop_assert!(cached.windows(2).all(|w| w[0] < w[1]), "{cached:?}");
            for &id in &SOURCES {
                let found = repo.get(PeerId(id)).is_some();
                prop_assert_eq!(found, cached.contains(&PeerId(id)), "source {}", id);
            }
            // Spot-check shadow consistency for still-cached sources.
            for (&source, &version) in &shadow {
                if let Some(ad) = repo.get(PeerId(source)) {
                    if !ad.stale {
                        prop_assert!(
                            !version_newer(version, ad.version),
                            "cached version regressed for {source}"
                        );
                    }
                }
            }
        }
    }
}

/// One step on one of three repositories sharing a store: every filter it
/// carries is a fresh allocation of one of a few contents.
#[derive(Debug, Clone)]
enum SharedOp {
    Full {
        repo: usize,
        source: u32,
        version: u16,
        kw: u8,
    },
    Patch {
        repo: usize,
        source: u32,
        version: u16,
        kw: u8,
    },
    Remove {
        repo: usize,
        source: u32,
    },
}

fn shared_op() -> impl Strategy<Value = SharedOp> {
    let ad = || (0..3usize, 0u32..6, 0u16..4, 0u8..4);
    prop_oneof![
        ad().prop_map(|(repo, source, version, kw)| SharedOp::Full {
            repo,
            source,
            version,
            kw
        }),
        ad().prop_map(|(repo, source, version, kw)| SharedOp::Patch {
            repo,
            source,
            version,
            kw
        }),
        (0..3usize, 0u32..6).prop_map(|(repo, source)| SharedOp::Remove { repo, source }),
    ]
}

proptest! {
    /// Equal contents arriving in fresh allocations — a full ad from
    /// another source, or a patch's result — share one slot: after every
    /// step the live slots are as many as the distinct contents the
    /// entries name, each content is one allocation, and the slots count
    /// every entry once.
    #[test]
    fn the_store_keeps_one_slot_per_content(ops in prop::collection::vec(shared_op(), 1..150)) {
        let fresh = |kw: u8| Rc::new((*snap(0, 0, kw).filter).clone());
        let store = FilterStore::new_shared();
        let mut repos: Vec<AdRepository> =
            (0..3).map(|_| AdRepository::sharing(4, &store)).collect();
        for (clock, op) in (1u64..).zip(ops) {
            match op {
                SharedOp::Full { repo, source, version, kw } => {
                    let ad = AdSnapshot { filter: fresh(kw), ..snap(source, version, kw) };
                    repos[repo].insert_full(&ad, clock);
                }
                SharedOp::Patch { repo, source, version, kw } => {
                    let (topics, result) = (InterestSet(0b1), fresh(kw));
                    repos[repo].apply_patch(PeerId(source), version, topics, &result, clock);
                }
                SharedOp::Remove { repo, source } => {
                    repos[repo].remove(PeerId(source));
                }
            }
            let named: Vec<Rc<BloomFilter>> = repos
                .iter()
                .flat_map(|r| r.iter().map(|(_, ad)| ad.filter))
                .collect();
            let contents: DetHashSet<&BloomFilter> = named.iter().map(|f| &**f).collect();
            let allocations: DetHashSet<*const BloomFilter> = named.iter().map(Rc::as_ptr).collect();
            let store = store.borrow();
            prop_assert_eq!(store.live_slots(), contents.len());
            prop_assert_eq!(allocations.len(), contents.len());
            prop_assert_eq!(store.counted_entries(), named.len() as u64);
        }
    }
}

fn version_not_newer(candidate: u16, held: u16) -> bool {
    candidate.wrapping_sub(held) == 0 || candidate.wrapping_sub(held) > u16::MAX / 2
}

fn version_newer(candidate: u16, held: u16) -> bool {
    !version_not_newer(candidate, held)
}
