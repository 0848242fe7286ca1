//! Checkpoint codec for the ASAP protocol ([`CheckpointProtocol`]), and —
//! through [`AsapMsg`]'s field list — the payload of its `asap-net` frames.
//!
//! Static configuration ([`crate::AsapConfig`]) and the keyword hash table
//! (derived from the content model) are never serialized — the resume caller
//! reconstructs the protocol with the same configuration the original run
//! used. Everything dynamic rides the checkpoint: per-node own filters,
//! versions, ad repositories, fetch pacers and re-advertisement watchdogs,
//! the pending-search table, the flood dedup window, claimed (spam) topics
//! and poison documents, the delivery-id counter and the aggregate stats.
//!
//! Maps serialize in ascending key order and sets in ascending element
//! order (the only exceptions are `PendingSearch::in_flight` / `backlog`,
//! whose *insertion* order is behaviorally meaningful and serialized
//! verbatim), so encode → decode → re-encode is byte-identical.
//!
//! Bloom filters carry their [`asap_bloom::BloomParams`] inline (`bits`,
//! `hashes`, then the words), making every filter
//! self-describing: a message decodes without access to the protocol config.
//!
//! The ad caches' filters are written once: the protocol section opens
//! with a filter table — every distinct filter the caches name, in order
//! of first use (nodes in id order, each cache's entries in source order)
//! — and each cache entry carries a `u32` index into it. The
//! [`crate::repository::FilterStore`] keeps one slot per distinct filter,
//! so the table numbers slots; the numbering is a function of the cached
//! values alone, slot ids never reach the bytes, and decode → re-encode is
//! byte-identical. A node's fields are written from its state and read
//! back into it, and cache entries go through the table straight from and
//! into the [`AdRepository`]; there is no image type between.
//!
//! The decoder checks only what the bytes alone state: the table repeats
//! no filter, every index is in range and in first-use order, every table
//! filter is named by some entry, every entry stamp is below
//! [`asap_sim::CLOCK_BOUND_US`] (a repository keeps 48 bits of it), and
//! the spam claims ascend by peer, each with some topic. It also refuses
//! a cache over its capacity or whose sources do not ascend strictly,
//! before it builds the repository's rank index, which can hold neither.
//! It rebuilds one store whose slot *i* is table filter *i*. Everything
//! that can be stated over the restored state — a flat node's entry for
//! its own ad, filter geometry, entry stamps, cache
//! coherence with the sources, a published filter that is not the one its
//! holdings build, the dedup window — is the protocol's
//! [`asap_sim::Protocol::validate`], which the resume runs once the world
//! is installed and an audited run runs at its end.
//!
//! Other filters (a node's own, those in in-flight messages) are written
//! per handle and decode into allocations of their own. A node's own
//! filter is then swapped for the store's equal one, so it shares its
//! allocation with the caches again; a message's filter finds its equal
//! in the store when it is delivered. Behavior only depends on filter
//! values, so digests never see the difference.

use crate::ad::{AdPayload, AdSnapshot, AsapMsg, Forwarding};
use crate::protocol::{Asap, AsapStats, NodeState, ReAdvert};
use crate::repository::{AdRepository, Entry, FilterStore, Record};
use crate::search::{PendingSearch, Phase};
use asap_bloom::BloomFilter;
use asap_overlay::PeerId;
use asap_sim::checkpoint::{CheckpointProtocol, Codec, CodecError, Decoder, Encoder};
use asap_sim::{codec_enum, codec_struct, CLOCK_BOUND_US};
use asap_workload::{DocId, InterestSet};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

// --- messages ---------------------------------------------------------------

codec_struct!(AdSnapshot {
    source,
    topics,
    version,
    filter
});
codec_enum!(Forwarding {
    0 => Direct,
    1 => Flood { ttl },
    2 => Walk { budget },
    3 => Gsa { budget },
});
codec_enum!(AdPayload {
    0 => Full(snap),
    1 => Patch { source, topics, version, patch, result },
    2 => Refresh { source, topics, version },
});
codec_enum!(AsapMsg {
    0 => Ad { payload, fwd, delivery },
    1 => FullAdFetch,
    2 => AdsRequest { requester, interests, hops, query, terms },
    3 => AdsReply { ads, query },
    4 => Confirm { query, requester, terms },
    5 => ConfirmReply { query, results },
});

// --- per-node and per-search state ------------------------------------------

codec_struct!(ReAdvert {
    baseline_fetches,
    backoff
});
codec_enum!(Phase { 0 => Confirming, 1 => Fallback });
codec_struct!(AsapStats {
    local_lookup_hits,
    fallback_rounds,
    confirms_sent,
    confirms_positive,
    confirms_negative,
    repair_fetches,
    full_deliveries,
    patch_deliveries,
    refresh_deliveries,
});

// --- ad caches: one filter table, one table index per entry ----------------

/// The filters one protocol's caches name, numbered for one encode in
/// order of first use — repositories in node order, entries in source
/// order. Live store slots hold distinct filters, so numbering slots
/// numbers contents: the table is a function of the cached values alone,
/// decode → re-encode reproduces it, and no store slot id reaches the
/// bytes.
pub(crate) struct FilterTable {
    /// Table index per store slot (`u32::MAX`: not numbered yet).
    index: Vec<u32>,
    filters: Vec<Rc<BloomFilter>>,
}

impl FilterTable {
    pub(crate) fn number_filters<'a>(
        store: &FilterStore,
        repos: impl IntoIterator<Item = &'a AdRepository>,
    ) -> Self {
        let mut table = Self {
            index: Vec::new(),
            filters: Vec::new(),
        };
        for repo in repos {
            for (_, e) in repo.raw_entries() {
                let slot = e.slot as usize;
                if table.index.len() <= slot {
                    table.index.resize(slot + 1, u32::MAX);
                }
                let Some(filter) = store.filter_at(e.slot) else {
                    continue;
                };
                if table.index[slot] == u32::MAX {
                    table.index[slot] = table.filters.len() as u32;
                    table.filters.push(Rc::clone(filter));
                }
            }
        }
        table
    }

    /// The table itself, written once before every entry that indexes it.
    pub(crate) fn put_table(&self, enc: &mut Encoder) {
        self.filters.put(enc);
    }

    /// `repo`'s entries as a counted list of `(source, topics, version,
    /// table index, last_used_us, last_refreshed_us, stale)`.
    pub(crate) fn put_repo(&self, repo: &AdRepository, enc: &mut Encoder) {
        enc.put_len(repo.len());
        for (source, e) in repo.raw_entries() {
            let filter = self.index.get(e.slot as usize).copied();
            (source, e.topics, e.version, filter.unwrap_or(u32::MAX)).put(enc);
            (e.last_used_us, e.last_refreshed_us, e.stale).put(enc);
        }
    }
}

/// A decoded filter table turning entry lists back into repositories over
/// one fresh store. It accepts exactly the table [`FilterTable`] writes:
/// distinct filters, each named by some entry, numbered in order of first
/// use.
pub(crate) struct TableReader {
    store: Rc<RefCell<FilterStore>>,
    len: u32,
    /// Table indices named so far; the next new index must be this one.
    named: u32,
}

impl TableReader {
    pub(crate) fn pull_table(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let filters: Vec<Rc<BloomFilter>> = Codec::pull(dec)?;
        let len = u32::try_from(filters.len())
            .ok()
            .filter(|&n| n < 1 << 31)
            .ok_or(CodecError::Invalid("filter table too long"))?;
        Ok(Self {
            store: Rc::new(RefCell::new(FilterStore::from_filters(filters)?)),
            len,
            named: 0,
        })
    }

    /// A decoded node's own filter, sharing the allocation of the equal
    /// table filter, if there is one, as it did before the checkpoint.
    pub(crate) fn pull_node_filter(
        &self,
        dec: &mut Decoder<'_>,
    ) -> Result<Rc<BloomFilter>, CodecError> {
        Ok(self.store.borrow().shared(Codec::pull(dec)?))
    }

    /// A repository of `capacity` over the entries [`FilterTable::put_repo`]
    /// wrote.
    pub(crate) fn pull_repo(
        &mut self,
        dec: &mut Decoder<'_>,
        capacity: usize,
    ) -> Result<AdRepository, CodecError> {
        // The index holds only a cache of at most `capacity` entries with
        // strictly ascending sources, so both are refused here.
        let n = dec.get_len()?;
        if n > capacity {
            return Err(CodecError::Invalid("ad cache over capacity"));
        }
        let mut sources: Vec<PeerId> = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        let mut store = self.store.borrow_mut();
        for _ in 0..n {
            let (source, topics, version, slot): (PeerId, _, _, u32) = Codec::pull(dec)?;
            let (last_used_us, last_refreshed_us, stale): (u64, u64, _) = Codec::pull(dec)?;
            if sources.last().is_some_and(|&last| source <= last) {
                return Err(CodecError::Invalid(
                    "ad cache sources not strictly ascending",
                ));
            }
            if slot >= self.len {
                return Err(CodecError::Invalid("ad cache filter index out of range"));
            }
            if slot > self.named {
                return Err(CodecError::Invalid(
                    "filter table not in order of first use",
                ));
            }
            // A record keeps 48 bits of each stamp; a wider one would not
            // re-encode to these bytes.
            if last_used_us.max(last_refreshed_us) >= CLOCK_BOUND_US {
                return Err(CodecError::Invalid("ad cache stamp past the clock bound"));
            }
            self.named += u32::from(slot == self.named);
            store.count_entry(slot);
            let entry = Entry {
                topics,
                version,
                slot,
                last_used_us,
                last_refreshed_us,
                stale,
            };
            sources.push(source);
            records.push(Record::new(entry));
        }
        drop(store);
        Ok(AdRepository::from_decoded(
            capacity,
            &self.store,
            &sources,
            records,
        ))
    }

    /// The store, once every table filter has been named.
    pub(crate) fn into_store(self) -> Result<Rc<RefCell<FilterStore>>, CodecError> {
        if self.named < self.len {
            return Err(CodecError::Invalid(
                "filter table holds a filter no entry names",
            ));
        }
        Ok(self.store)
    }
}

/// One ad spammer as it rides the checkpoint: its claimed topics and the
/// documents its filter is poisoned with. Decoded as a map of the same
/// bytes, so the spammers ascend and none is listed twice.
type SpamClaim = (PeerId, InterestSet, Vec<DocId>);

// Hand-written: `term_hashes` is a pure function of `terms` and the
// protocol's keyword table — left empty here, recomputed by `decode_state`.
impl Codec for PendingSearch {
    fn put(&self, enc: &mut Encoder) {
        self.requester.put(enc);
        self.terms.put(enc);
        self.answered.put(enc);
        self.phase.put(enc);
        self.in_flight.put(enc);
        self.confirmed.put(enc);
        self.backlog.put(enc);
        self.backoff.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            requester: Codec::pull(dec)?,
            terms: Codec::pull(dec)?,
            term_hashes: Vec::new(),
            answered: Codec::pull(dec)?,
            phase: Codec::pull(dec)?,
            in_flight: Codec::pull(dec)?,
            confirmed: Codec::pull(dec)?,
            backlog: Codec::pull(dec)?,
            backoff: Codec::pull(dec)?,
        })
    }
}

// --- the protocol impl -------------------------------------------------------

impl CheckpointProtocol for Asap {
    fn encode_state(&self, enc: &mut Encoder) {
        let store = self.store.borrow();
        let table = FilterTable::number_filters(&store, self.nodes.iter().map(|st| &st.repo));
        table.put_table(enc);
        enc.put_len(self.nodes.len());
        for st in &self.nodes {
            st.snapshot.put(enc);
            st.version.put(enc);
            table.put_repo(&st.repo, enc);
            st.fetching.put(enc);
            st.fetch_backoff.put(enc);
            st.fetches_served.put(enc);
            st.readvert.put(enc);
        }
        self.pending.put(enc);
        self.seen.put(enc);
        // Dense slots in index order == ascending peer order; EMPTY slots
        // are "no claim" (spam claims always union ≥1 class).
        let claims = self
            .claimed_topics
            .iter()
            .zip(self.poison.iter())
            .enumerate();
        let claims: Vec<SpamClaim> = claims
            .filter(|(_, (topics, _))| !topics.is_empty())
            .map(|(p, (&topics, poison))| (PeerId(p as u32), topics, poison.to_vec()))
            .collect();
        claims.put(enc);
        self.next_delivery.put(enc);
        self.stats.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let num_peers = self.nodes.len();
        let mut table = TableReader::pull_table(dec)?;
        if dec.get_len()? != num_peers {
            return Err(CodecError::Invalid("node count mismatch"));
        }
        let mut nodes = Vec::with_capacity(num_peers);
        for _ in 0..num_peers {
            nodes.push(NodeState {
                snapshot: table.pull_node_filter(dec)?,
                version: Codec::pull(dec)?,
                repo: table.pull_repo(dec, self.config.cache_capacity)?,
                fetching: Codec::pull(dec)?,
                fetch_backoff: Codec::pull(dec)?,
                fetches_served: Codec::pull(dec)?,
                readvert: Codec::pull(dec)?,
            });
        }
        let store = table.into_store()?;
        let mut pending: asap_sim::collections::DetHashMap<u32, PendingSearch> = Codec::pull(dec)?;
        for p in pending.values_mut() {
            p.term_hashes = p.terms.iter().map(|&k| self.hash_of(k)).collect();
        }
        let seen = Codec::pull(dec)?;
        let claims: BTreeMap<PeerId, (InterestSet, Vec<DocId>)> = Codec::pull(dec)?;
        let mut claimed_topics = vec![InterestSet::EMPTY; num_peers];
        let mut poison = vec![Box::default(); num_peers];
        for (p, (topics, docs)) in claims {
            if topics.is_empty() {
                return Err(CodecError::Invalid("spam claim without topics"));
            }
            claimed_topics[p.index()] = topics;
            poison[p.index()] = docs.into_boxed_slice();
        }
        self.next_delivery = Codec::pull(dec)?;
        self.stats = Codec::pull(dec)?;
        self.nodes = nodes;
        self.store = store;
        self.pending = pending;
        self.seen = seen;
        self.claimed_topics = claimed_topics;
        self.poison = poison;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AsapConfig, DeliveryKind};
    use crate::superpeer::SuperAsap;
    use asap_bloom::BloomParams;
    use asap_bloom::FilterPatch;
    use asap_overlay::{OverlayConfig, OverlayKind};
    use asap_sim::checkpoint::{assert_canonical, Checkpoint};
    use asap_sim::collections::DetHashSet;
    use asap_sim::util::Retransmit;
    use asap_sim::util::SeenTracker;
    use asap_sim::{AdversaryPlan, AuditConfig, FaultPlan, Simulation};
    use asap_topology::{PhysicalNetwork, TransitStubConfig};
    use asap_workload::{KeywordId, Workload, WorkloadConfig};
    use std::rc::Rc;

    fn world(
        peers: usize,
        queries: usize,
        seed: u64,
    ) -> (PhysicalNetwork, Workload, asap_overlay::Overlay) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
        let workload = asap_workload::generate(&WorkloadConfig::reduced(peers, queries, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
        (phys, workload, overlay)
    }

    fn sample_snapshot() -> AdSnapshot {
        AdSnapshot {
            source: PeerId(7),
            topics: InterestSet(0b101),
            version: 3,
            filter: Rc::new(BloomFilter::from_keys(
                BloomParams::for_capacity(64, 4),
                ["rock", "jazz"],
            )),
        }
    }

    #[test]
    fn asap_msg_codec_roundtrips() {
        let terms: Rc<[KeywordId]> = vec![KeywordId(1), KeywordId(44)].into();
        let snap = sample_snapshot();
        let old = BloomFilter::from_keys(BloomParams::for_capacity(64, 4), ["rock"]);
        let patch = FilterPatch::diff(&old, &snap.filter);
        assert_canonical(&AsapMsg::Ad {
            payload: AdPayload::Full(snap.clone()),
            fwd: Forwarding::Flood { ttl: 6 },
            delivery: 42,
        });
        assert_canonical(&AsapMsg::Ad {
            payload: AdPayload::Patch {
                source: PeerId(7),
                topics: InterestSet(0b101),
                version: 4,
                patch: Rc::new(patch),
                result: Rc::clone(&snap.filter),
            },
            fwd: Forwarding::Walk { budget: 900 },
            delivery: 43,
        });
        assert_canonical(&AsapMsg::Ad {
            payload: AdPayload::Refresh {
                source: PeerId(9),
                topics: InterestSet(0b1),
                version: 0,
            },
            fwd: Forwarding::Gsa { budget: 12 },
            delivery: 44,
        });
        assert_canonical(&AsapMsg::FullAdFetch);
        assert_canonical(&AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(0b11),
            hops: 1,
            query: Some(17),
            terms: Some(Rc::clone(&terms)),
        });
        assert_canonical(&AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(0b11),
            hops: 2,
            query: None,
            terms: None,
        });
        assert_canonical(&AsapMsg::AdsReply {
            ads: vec![snap.clone(), sample_snapshot()],
            query: Some(17),
        });
        assert_canonical(&AsapMsg::AdsReply {
            ads: Vec::new(),
            query: None,
        });
        assert_canonical(&AsapMsg::Confirm {
            query: 17,
            requester: PeerId(3),
            terms,
        });
        assert_canonical(&AsapMsg::ConfirmReply {
            query: 17,
            results: 2,
        });
    }

    #[test]
    fn asap_msg_decode_rejects_bad_tags() {
        for bytes in [[200u8].as_slice(), &[0, 9], &[0]] {
            let mut dec = Decoder::new(bytes);
            assert!(AsapMsg::pull(&mut dec).is_err(), "accepted {bytes:?}");
        }
    }

    #[test]
    fn filter_decode_rejects_degenerate_params() {
        let mut enc = Encoder::new();
        enc.put_u32(0); // bits = 0
        enc.put_u32(8);
        enc.put_len(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            BloomFilter::pull(&mut dec),
            Err(CodecError::Invalid(_))
        ));
    }

    /// Run `make()` twice over the same world: once uninterrupted, once
    /// split at `frac` of the trace through a byte-roundtripped checkpoint.
    /// Digests must match bit-for-bit.
    fn assert_split_run_identical<P, F>(
        make: F,
        seed: u64,
        faults: Option<FaultPlan>,
        adversary: Option<AdversaryPlan>,
    ) where
        P: CheckpointProtocol,
        F: Fn(&asap_workload::ContentModel, &[asap_sim::AdversaryRole]) -> P,
    {
        let (phys, workload, overlay) = world(120, 150, seed);
        let roles = adversary
            .as_ref()
            .map(|plan| asap_sim::assign_roles(plan, workload.model.num_peers(), seed))
            .unwrap_or_else(|| vec![asap_sim::AdversaryRole::Honest; workload.model.num_peers()]);
        let build = |protocol: P, ov: asap_overlay::Overlay| {
            let mut b =
                Simulation::builder(&phys, &workload, ov, OverlayKind::Random, protocol, seed)
                    .audit(AuditConfig::default());
            if let Some(f) = faults.clone() {
                b = b.faults(f);
            }
            if let Some(a) = adversary.clone() {
                b = b.adversary(a);
            }
            b
        };
        let cold = build(make(&workload.model, &roles), overlay.clone()).run();
        let cold_audit = cold.audit.expect("audited run");
        assert!(cold_audit.is_clean(), "{:?}", cold_audit.violations);

        let t_mid = workload.trace.duration_us() / 2;
        let mut first = build(make(&workload.model, &roles), overlay.clone()).build();
        first.run_until(t_mid);
        let ckpt = first.checkpoint();
        drop(first);

        let ckpt = Checkpoint::from_bytes(ckpt.into_bytes()).expect("self-produced bytes");
        // Resume from a plain builder: the checkpoint carries the audit,
        // fault, and adversary layers itself.
        let warm = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            make(&workload.model, &roles),
            seed,
        )
        .from_checkpoint(&ckpt)
        .expect("resume")
        .run();
        let warm_audit = warm.audit.expect("audited resume");

        assert_eq!(
            cold_audit.digest, warm_audit.digest,
            "split run digest diverged"
        );
        assert_eq!(cold.messages_sent, warm.messages_sent);
        assert_eq!(cold.end_time_us, warm.end_time_us);
        assert_eq!(cold.ledger.num_succeeded(), warm.ledger.num_succeeded());
        assert_eq!(cold.profile, warm.profile);
    }

    fn scaled(delivery: DeliveryKind) -> AsapConfig {
        AsapConfig::paper_default(delivery).scaled_to(120)
    }

    #[test]
    fn asap_fld_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::Flooding), model),
            61,
            None,
            None,
        );
    }

    #[test]
    fn asap_rw_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::RandomWalk), model),
            62,
            None,
            None,
        );
    }

    #[test]
    fn asap_gsa_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::Gsa), model),
            63,
            None,
            None,
        );
    }

    /// The hierarchical deployment rides the same checkpoint: roles, super
    /// peers' repositories and registrations, union interests, stats.
    #[test]
    fn superpeer_split_run_is_bit_identical() {
        use crate::superpeer::SuperAsap;
        assert_split_run_identical(
            |model, _| {
                let asap = scaled(DeliveryKind::RandomWalk);
                SuperAsap::new(asap, model)
            },
            67,
            None,
            None,
        );
    }

    #[test]
    fn super_msg_codec_roundtrips() {
        use crate::superpeer::SuperMsg;
        let terms: Rc<[KeywordId]> = vec![KeywordId(1), KeywordId(44)].into();
        let (query, requester) = (17, PeerId(3));
        assert_canonical(&SuperMsg::Register {
            snap: sample_snapshot(),
        });
        assert_canonical(&SuperMsg::Digest {
            entries: vec![(PeerId(7), InterestSet(0b101), 3)].into(),
            budget: 40,
        });
        assert_canonical(&SuperMsg::Fetch);
        assert_canonical(&SuperMsg::FetchReply {
            snap: sample_snapshot(),
        });
        assert_canonical(&SuperMsg::QueryAsk {
            query,
            requester,
            terms: Rc::clone(&terms),
        });
        assert_canonical(&SuperMsg::Confirm {
            query,
            requester,
            terms: Rc::clone(&terms),
        });
        assert_canonical(&SuperMsg::ConfirmReply { query, results: 2 });
        assert_canonical(&SuperMsg::AdsRequest {
            query,
            requester,
            terms: Rc::clone(&terms),
        });
        assert_canonical(&SuperMsg::AdsReply {
            query,
            requester,
            terms,
            ads: vec![sample_snapshot()],
        });
    }

    #[test]
    fn asap_lossy_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| {
                let config = AsapConfig {
                    retransmit: Some(Retransmit),
                    ..scaled(DeliveryKind::RandomWalk)
                };
                Asap::new(config, model)
            },
            64,
            Some(FaultPlan {
                loss_ppm: 20_000,
                jitter_max_us: 50_000,
                ..FaultPlan::none()
            }),
            None,
        );
    }

    #[test]
    fn asap_spam_adversary_split_run_is_bit_identical() {
        let seed = 65;
        assert_split_run_identical(
            move |model, roles| {
                Asap::new_with_adversaries(scaled(DeliveryKind::RandomWalk), model, roles, seed)
            },
            seed,
            None,
            Some(AdversaryPlan {
                spam_ppm: 100_000,
                ..AdversaryPlan::none()
            }),
        );
    }

    #[test]
    fn asap_state_reencode_is_byte_identical() {
        let seed = 66;
        let (phys, workload, overlay) = world(100, 120, seed);
        let make = || Asap::new(scaled(DeliveryKind::Flooding), &workload.model);
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            make(),
            seed,
        )
        .build();
        sim.run_until(workload.trace.duration_us() / 2);
        let ckpt1 = sim.checkpoint();
        let resumed = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            make(),
            ckpt1.run_seed(),
        )
        .from_checkpoint(&ckpt1)
        .expect("resume");
        let ckpt2 = resumed.checkpoint();
        assert_eq!(
            ckpt1.as_bytes(),
            ckpt2.as_bytes(),
            "checkpoint re-encode differs"
        );
        // The bytes write each cached filter once; the resumed caches share
        // it exactly as far as the running ones did.
        let cached = |asap: &Asap| (0..100).map(|p| asap.cache_len(PeerId(p))).sum::<usize>();
        let (before, after) = (sim.protocol(), resumed.protocol());
        assert_eq!(cached(before), cached(after));
        assert_eq!(
            before.distinct_cached_filters(),
            after.distinct_cached_filters()
        );
        assert!(
            after.distinct_cached_filters() * 4 < cached(after),
            "{} allocations behind {} cached ads",
            after.distinct_cached_filters(),
            cached(after)
        );
        // A node's own filter decodes on its own, then shares the store's
        // equal one again: no more allocations than before the split.
        let allocations = |asap: &Asap| {
            let cached = asap.nodes.iter().flat_map(|st| st.repo.iter());
            let mut all: DetHashSet<_> = cached.map(|(_, ad)| Rc::as_ptr(&ad.filter)).collect();
            all.extend(asap.nodes.iter().map(|st| Rc::as_ptr(&st.snapshot)));
            all.len()
        };
        assert!(
            allocations(after) <= allocations(before),
            "{} filter allocations after the resume, {} before",
            allocations(after),
            allocations(before)
        );
    }

    /// `bytes` with its protocol section — the last thing before the
    /// checksum, `state` as the running protocol encoded it — decoded into
    /// `fresh`, edited, re-encoded in place and resealed.
    fn spliced_protocol<P: CheckpointProtocol>(
        bytes: &[u8],
        state: &[u8],
        mut fresh: P,
        edit: impl FnOnce(&mut P),
    ) -> Vec<u8> {
        let body = &bytes[..bytes.len() - 8];
        assert!(
            body.ends_with(state),
            "the protocol section closes the body"
        );
        fresh
            .decode_state(&mut Decoder::new(state))
            .expect("the running protocol's own state decodes");
        edit(&mut fresh);
        let mut enc = Encoder::new();
        fresh.encode_state(&mut enc);
        let mut out = body[..body.len() - state.len()].to_vec();
        out.extend_from_slice(&enc.into_bytes());
        let mut sum = asap_sim::checkpoint::Fnv64::new();
        sum.write_bytes(&out);
        out.extend_from_slice(&sum.finish().to_le_bytes());
        out
    }

    /// Resume `make`'s protocol halfway through the seed-`seed` run from a
    /// checkpoint whose protocol section `edit` changed, after a control:
    /// the unedited splice is the original bytes and resumes. `edit` is
    /// handed a peer whose content changes after the split, so its filter
    /// is rebuilt in the resumed half.
    fn resume_with_edited_protocol<P: CheckpointProtocol>(
        seed: u64,
        make: impl Fn(&asap_workload::ContentModel) -> P,
        edit: impl FnOnce(&mut P, usize),
    ) -> Result<(), CodecError> {
        let (phys, workload, overlay) = world(100, 120, seed);
        let split = workload.trace.duration_us() / 2;
        let mut late = workload.trace.events.iter().filter(|e| e.time_us > split);
        let churner = late.find_map(|e| match e.event {
            asap_workload::TraceEvent::AddDocument { peer, .. }
            | asap_workload::TraceEvent::RemoveDocument { peer, .. } => Some(peer.index()),
            _ => None,
        });
        let churner = churner.expect("the trace changes content after the split");
        let kind = OverlayKind::Random;
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            kind,
            make(&workload.model),
            seed,
        )
        .build();
        sim.run_until(split);
        let bytes = sim.checkpoint().into_bytes();
        let mut state = Encoder::new();
        sim.protocol().encode_state(&mut state);
        let state = state.into_bytes();
        let resume = |bytes: Vec<u8>| {
            let ckpt = Checkpoint::from_bytes(bytes)?;
            let protocol = make(&workload.model);
            Simulation::builder(
                &phys,
                &workload,
                overlay.clone(),
                kind,
                protocol,
                ckpt.run_seed(),
            )
            .from_checkpoint(&ckpt)
            .map(|_| ())
        };
        let unedited = spliced_protocol(&bytes, &state, make(&workload.model), |_| {});
        assert_eq!(unedited, bytes, "decode → encode is byte-identical");
        assert_eq!(resume(unedited), Ok(()));
        let edited = spliced_protocol(&bytes, &state, make(&workload.model), |p| edit(p, churner));
        resume(edited)
    }

    fn small_filter() -> Rc<BloomFilter> {
        Rc::new(BloomFilter::from_keys(
            BloomParams::for_capacity(64, 4),
            ["rock"],
        ))
    }

    const OTHER_PARAMS: Result<(), CodecError> = Err(CodecError::Invalid(
        "node filter parameters differ from the configuration",
    ));

    /// A node filter built for other parameters than the configuration's
    /// resumed `Ok`; the node's next content change rebuilt with the
    /// configured parameters, and `FilterPatch::diff` panicked on the
    /// mismatch in the middle of `Simulation::run`.
    #[test]
    fn flat_node_filter_with_other_params_is_rejected() {
        let make = |model: &asap_workload::ContentModel| {
            Asap::new(scaled(DeliveryKind::RandomWalk), model)
        };
        let edit = |asap: &mut Asap, peer: usize| asap.nodes[peer].snapshot = small_filter();
        assert_eq!(resume_with_edited_protocol(68, make, edit), OTHER_PARAMS);
    }

    /// A flood dedup window other than [`SEEN_WINDOW`] resumed `Ok` and ran
    /// the rest of the delivery waves under another eviction policy.
    #[test]
    fn seen_window_other_than_the_protocols_is_rejected() {
        let make =
            |model: &asap_workload::ContentModel| Asap::new(scaled(DeliveryKind::Flooding), model);
        let edit = |asap: &mut Asap, _| asap.seen = SeenTracker::new(100_000);
        assert_eq!(
            resume_with_edited_protocol(71, make, edit),
            Err(CodecError::Invalid("seen window is not the protocol's"))
        );
    }

    /// The super-peer deployment rebuilds its own filters the same way, so
    /// its checkpoint is held to the same parameters.
    #[test]
    fn superpeer_node_filter_with_other_params_is_rejected() {
        let edit = |sp: &mut SuperAsap, peer: usize| sp.nodes[peer].snapshot = small_filter();
        assert_eq!(
            resume_with_edited_protocol(69, super_rw, edit),
            OTHER_PARAMS
        );
    }

    fn super_rw(model: &asap_workload::ContentModel) -> SuperAsap {
        SuperAsap::new(scaled(DeliveryKind::RandomWalk), model)
    }

    /// `filter` with its first bit flipped: same geometry, other contents.
    fn flipped(filter: &BloomFilter) -> Rc<BloomFilter> {
        let mut words = filter.words().to_vec();
        words[0] ^= 1;
        Rc::new(BloomFilter::from_words(filter.params(), words).unwrap())
    }

    /// A cache entry stamped after the checkpoint's clock would outlive
    /// the expiry it is measured against; the auditor reports it, and so
    /// does the resume.
    #[test]
    fn flat_cache_entry_stamped_in_the_future_is_rejected() {
        let make = |model: &asap_workload::ContentModel| {
            Asap::new(scaled(DeliveryKind::RandomWalk), model)
        };
        let edit = |asap: &mut Asap, _| {
            let (owner, source) = (0, PeerId(1));
            let snap = AdSnapshot {
                source,
                topics: InterestSet(0b1),
                version: asap.nodes[1].version,
                filter: Rc::clone(&asap.nodes[1].snapshot),
            };
            asap.nodes[owner].repo.remove(source);
            asap.nodes[owner]
                .repo
                .insert_full(&snap, CLOCK_BOUND_US - 1);
        };
        assert_eq!(
            resume_with_edited_protocol(72, make, edit),
            Err(CodecError::Invalid("ad cache entry stamped in the future"))
        );
    }

    /// A super peer's cache holds at most four times the flat capacity.
    /// The capacity is not on the wire, so more entries than that would
    /// resume into a cache past its bound.
    #[test]
    fn superpeer_cache_over_capacity_is_rejected() {
        let make = |model: &asap_workload::ContentModel| {
            let config = AsapConfig {
                cache_capacity: 8,
                ..scaled(DeliveryKind::RandomWalk)
            };
            SuperAsap::new(config, model)
        };
        let edit = |sp: &mut SuperAsap, _| {
            let full = sp.super_cache_capacity();
            let mut repo = AdRepository::sharing(full + 1, &sp.store);
            for p in 0..=full {
                let snap = AdSnapshot {
                    source: PeerId(p as u32),
                    topics: InterestSet(0b1),
                    version: sp.nodes[p].version,
                    filter: Rc::clone(&sp.nodes[p].snapshot),
                };
                repo.insert_full(&snap, 0);
            }
            let node = sp.nodes.iter_mut().find(|st| st.repo.is_some());
            node.expect("a super peer halfway").repo = Some(repo);
        };
        assert_eq!(
            resume_with_edited_protocol(73, make, edit),
            Err(CodecError::Invalid("ad cache over capacity"))
        );
    }

    /// Only super peers cache ads: a leaf holding a repository would answer
    /// searches the hierarchy never routes to it.
    #[test]
    fn superpeer_leaf_holding_a_repository_is_rejected() {
        let edit = |sp: &mut SuperAsap, _| {
            let leaf = (0..sp.nodes.len())
                .find(|&p| !sp.is_super(PeerId(p as u32)))
                .expect("a leaf");
            let repo = AdRepository::sharing(sp.super_cache_capacity(), &sp.store);
            sp.nodes[leaf].repo = Some(repo);
        };
        assert_eq!(
            resume_with_edited_protocol(74, super_rw, edit),
            Err(CodecError::Invalid(
                "repository does not match the peer's role"
            ))
        );
    }

    /// A super-peer node's published filter is the one its holdings build,
    /// as a flat node's is.
    #[test]
    fn superpeer_filter_that_differs_from_its_holdings_is_rejected() {
        let edit = |sp: &mut SuperAsap, peer: usize| {
            sp.nodes[peer].snapshot = flipped(&sp.nodes[peer].snapshot);
        };
        assert_eq!(
            resume_with_edited_protocol(75, super_rw, edit),
            Err(CodecError::Invalid(
                "published filter differs from its holdings"
            ))
        );
    }

    /// The spam claims close the protocol section but for the delivery
    /// counter and the stats: spammers out of order, one listed twice or
    /// one claiming no topics used to decode `Ok`, sorted, merged or
    /// dropped by the re-encode.
    #[test]
    fn spam_claims_out_of_canonical_form_are_rejected() {
        let (_, workload, _) = world(100, 120, 76);
        let roles: Vec<_> = (0..100)
            .map(|p| match p % 10 == 3 {
                true => asap_sim::AdversaryRole::AdSpammer,
                false => asap_sim::AdversaryRole::Honest,
            })
            .collect();
        let cfg = scaled(DeliveryKind::RandomWalk);
        let spammy = Asap::new_with_adversaries(cfg.clone(), &workload.model, &roles, 76);
        let mut enc = Encoder::new();
        spammy.encode_state(&mut enc);
        let state = enc.into_bytes();
        let claim = |p: u32| {
            let topics = spammy.claimed_topics[p as usize];
            (PeerId(p), topics, spammy.poison[p as usize].to_vec())
        };
        let claims: Vec<SpamClaim> = (0..100).filter(|p| p % 10 == 3).map(claim).collect();
        let mut written = Encoder::new();
        claims.put(&mut written);
        let (written, tail) = (written.into_bytes(), 8 + 9 * 8);
        let head = state.len() - tail - written.len();
        assert_eq!(state[head..state.len() - tail], written[..]);
        let decode = |claims: Vec<SpamClaim>| {
            let mut enc = Encoder::appending_to(state[..head].to_vec());
            claims.put(&mut enc);
            enc.put_bytes(&state[state.len() - tail..]);
            let bytes = enc.into_bytes();
            Asap::new(cfg.clone(), &workload.model).decode_state(&mut Decoder::new(&bytes))
        };
        assert_eq!(decode(claims.clone()), Ok(()));
        let refused = Err(CodecError::Invalid("keys not strictly ascending"));
        assert_eq!(decode(claims.iter().rev().cloned().collect()), refused);
        assert_eq!(decode(vec![claim(3), claim(3)]), refused);
        let silent = (PeerId(4), InterestSet::EMPTY, vec![DocId(0)]);
        assert_eq!(
            decode(vec![claim(3), silent]),
            Err(CodecError::Invalid("spam claim without topics"))
        );
    }

    /// Each spammer's poison rides the checkpoint: a resume into a protocol
    /// built without adversaries still rebuilds a spammer's filter with it.
    #[test]
    fn spam_poison_rides_the_checkpoint() {
        let (_, workload, _) = world(100, 120, 70);
        let model = &workload.model;
        let roles: Vec<_> = (0..100)
            .map(|p| {
                if p % 10 == 3 {
                    asap_sim::AdversaryRole::AdSpammer
                } else {
                    asap_sim::AdversaryRole::Honest
                }
            })
            .collect();
        let cfg = scaled(DeliveryKind::RandomWalk);
        let spammy = Asap::new_with_adversaries(cfg.clone(), model, &roles, 70);
        let mut enc = Encoder::new();
        spammy.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut plain = Asap::new(cfg, model);
        plain.decode_state(&mut Decoder::new(&bytes)).unwrap();
        for (p, &role) in roles.iter().enumerate() {
            assert_eq!(plain.poison[p], spammy.poison[p], "peer {p}");
            assert_eq!(
                plain.claimed_topics[p], spammy.claimed_topics[p],
                "peer {p}"
            );
            assert_eq!(
                plain.nodes[p].snapshot, spammy.nodes[p].snapshot,
                "peer {p}"
            );
            assert_eq!(
                spammy.poison[p].is_empty(),
                role != asap_sim::AdversaryRole::AdSpammer
            );
        }
        let mut again = Encoder::new();
        plain.encode_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }
}
