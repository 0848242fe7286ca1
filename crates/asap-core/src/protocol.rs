//! The ASAP [`Protocol`] implementation: per-node state, ad lifecycle,
//! and event dispatch. The search-side handlers live in [`crate::search`].

use crate::ad::{AdPayload, AdSnapshot, AsapMsg, Forwarding};
use crate::config::AsapConfig;
use crate::delivery::{ad_class, continue_delivery, start_delivery};
use crate::repository::{version_not_newer, AdRepository, ApplyOutcome, FilterStore};
use crate::search::{self, PendingSearch};
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, BloomParams, FilterPatch};
use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_sim::collections::{DetHashMap, DetHashSet};
use asap_sim::util::{Backoff, SeenTracker};
use asap_sim::AdversaryRole;
use asap_sim::{Protocol, Transport, Violation};
use asap_workload::{ContentModel, DocId, InterestSet, KeywordId, QuerySpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Timer tags. Query tags grow upward from `TAG_QUERY_BASE` (two per query
/// id, so they stay far below 2⁶¹); the robustness timers claim the high
/// bits instead, so the spaces can never collide.
pub(crate) const TAG_REFRESH: u64 = 0;
pub(crate) const TAG_INIT_AD: u64 = 1;
pub(crate) const TAG_QUERY_BASE: u64 = 2;
/// Re-advertisement check for an unacknowledged initial/join ad wave.
pub(crate) const TAG_READVERT: u64 = 1 << 61;
/// Repair-fetch retransmit; the low bits carry the fetch's source peer.
pub(crate) const TAG_FETCH_BIT: u64 = 1 << 62;

/// Cached ads older than this many refresh periods (without any update) are
/// treated as dead and skipped by lookups.
pub const EXPIRY_PERIODS: u32 = 8;
/// Duplicate-suppression window for flooded ads (deliveries).
pub const SEEN_WINDOW: usize = 1_024;

/// Under `Some(Retransmit)`, the delay before the first retransmit of a
/// repair fetch or a re-advertisement, µs.
const BACKOFF_BASE_US: u64 = 1_000_000;
/// Ceiling of the doubled retry delays (fetches, re-advertisements and
/// confirmation retries), µs: well under the simulation's 30 s post-trace
/// grace window.
pub(crate) const BACKOFF_CAP_US: u64 = 8_000_000;
/// Retransmissions of an unanswered direct full-ad fetch.
const FETCH_RETRIES: u32 = 3;
/// Re-announcements of an initial/join ad wave that attracted no full-ad
/// fetch (the delivery went unacknowledged).
const READVERT_RETRIES: u32 = 2;

/// Stream salt for the ad-spam poison pass, XORed into the run seed. The
/// pass runs once at construction time — before the engine starts — so it
/// never perturbs the engine, fault, adversary, or workload RNG streams;
/// the salt only has to be distinct from theirs so a shared run seed can't
/// correlate the draws. Its result rides the checkpoint, so a resume never
/// draws it again.
const SPAM_POISON_SALT: u64 = 0x5BAD_AD00_F17E_D0C5;

/// Documents whose keywords each ad-spam peer falsely claims to hold.
/// Drawn uniformly from the real catalog, so the poisoned Bloom bits sit
/// exactly where honest queries probe — lookups match, confirmations fail.
const SPAM_POISON_DOCS: usize = 25;

/// Pending re-advertisement state: the ad wave is considered acknowledged
/// once *any* peer fetches our full ad (delivery demonstrably arrived);
/// otherwise the announcement is repeated on a backoff schedule.
#[derive(Clone)]
pub(crate) struct ReAdvert {
    /// `fetches_served` level when the (re)announcement went out.
    pub(crate) baseline_fetches: u64,
    pub(crate) backoff: Backoff,
}

/// A peer's own ad filter: the OR of the keyword hashes of the documents
/// `docs` it holds and, for an ad spammer, of its `poison` documents.
///
/// The paper keeps a counting filter per peer so that removals can clear
/// bits (§III-B). Its counts are a function of the same holdings, so no peer
/// keeps them: every content change rebuilds the filter from what the peer
/// now holds. The bits are exactly the counting filter's nonzero cells as
/// long as no `u16` cell saturates, which would take over 1,000 documents
/// at one peer (DESIGN.md §6e).
pub(crate) fn own_filter(
    params: BloomParams,
    kw_hashes: &[KeyHash],
    model: &ContentModel,
    docs: &[DocId],
    poison: &[DocId],
) -> BloomFilter {
    let keywords = docs
        .iter()
        .chain(poison)
        .flat_map(|&d| model.doc(d).keywords);
    BloomFilter::from_hashes(params, keywords.map(|kw| &kw_hashes[kw.index()]))
}

/// The first invariant an ASAP node breaks, flat or super-peer, for
/// [`Protocol::validate`]: its own and cached filters have the configured
/// geometry (a content change rebuilds with it, and `FilterPatch::diff`
/// between the two would panic); its cache, if any, holds at most its
/// capacity, nothing stamped after `now_us` and not `owner`'s own ad
/// (`handle_ad` never stores one); its published filter is `truth()`,
/// [`own_filter`] of what it holds now. A cache's sources ascend by
/// construction: its index iterates them in order.
pub(crate) fn node_violation(
    bloom: BloomParams,
    snapshot: &BloomFilter,
    repo: Option<&AdRepository>,
    owner: Option<PeerId>,
    now_us: u64,
    truth: impl FnOnce() -> BloomFilter,
) -> Option<&'static str> {
    const OTHER_GEOMETRY: &str = "node filter parameters differ from the configuration";
    if snapshot.params() != bloom {
        return Some(OTHER_GEOMETRY);
    }
    if let Some(repo) = repo {
        if repo.len() > repo.capacity() {
            return Some("ad cache over capacity");
        }
        for (source, ad) in repo.iter() {
            if Some(source) == owner {
                return Some("ad cache holds its owner's own ad");
            }
            if ad.last_used_us > now_us || ad.last_refreshed_us > now_us {
                return Some("ad cache entry stamped in the future");
            }
            if ad.filter.params() != bloom {
                return Some(OTHER_GEOMETRY);
            }
        }
    }
    (*snapshot != truth()).then_some("published filter differs from its holdings")
}

/// Per-node ASAP state.
pub(crate) struct NodeState {
    /// Current ad version `v` (bumped on every content change).
    pub version: u16,
    /// The node's own filter at `version` ([`own_filter`] of its holdings),
    /// shared with every ad that carries it.
    pub snapshot: Rc<BloomFilter>,
    /// Foreign-ads cache ("$" in the paper's pseudo-code).
    pub repo: AdRepository,
    /// Sources with an un-answered direct full-ad fetch in flight, so a
    /// burst of announcements triggers one fetch, not one per walker.
    pub fetching: DetHashSet<PeerId>,
    /// Retransmission pacers for in-flight fetches (populated only under
    /// `Some(Retransmit)`; without retries a fetch whose request
    /// or reply is dropped would leave its `fetching` entry stuck forever).
    pub fetch_backoff: DetHashMap<PeerId, Backoff>,
    /// Full-ad fetches this node has served — the acknowledgment signal for
    /// re-advertisement (someone heard the announcement and wanted the ad).
    pub fetches_served: u64,
    /// Pending re-advertisement of an unacknowledged announcement.
    pub readvert: Option<ReAdvert>,
}

/// Aggregate protocol statistics, readable after a run.
#[derive(Debug, Default, Clone)]
pub struct AsapStats {
    /// Queries answered from the local ads cache (first lookup had hits).
    pub local_lookup_hits: u64,
    /// Queries that needed the neighbor ads-request fallback.
    pub fallback_rounds: u64,
    /// Confirmations sent.
    pub confirms_sent: u64,
    /// Positive confirmations returned.
    pub confirms_positive: u64,
    /// Empty confirmations returned — the advertised content wasn't there.
    /// Honest runs see a handful (content churn between ad and confirm);
    /// ad-spam adversaries inflate this without bound.
    pub confirms_negative: u64,
    /// Full-ad repair fetches issued (version gaps / refresh misses).
    pub repair_fetches: u64,
    /// Ad deliveries started, by payload kind.
    pub full_deliveries: u64,
    pub patch_deliveries: u64,
    pub refresh_deliveries: u64,
}

/// The ASAP protocol under simulation.
pub struct Asap {
    pub config: AsapConfig,
    /// Per-node protocol state, indexed by [`PeerId::index`] — delivery
    /// and timer handlers index straight into the slot, no map probe.
    pub(crate) nodes: Vec<NodeState>,
    /// The filters behind every node's cache entries, shared by all of
    /// `nodes`' repositories.
    pub(crate) store: Rc<RefCell<FilterStore>>,
    /// Precomputed keyword hashes, indexed by `KeywordId`.
    pub(crate) kw_hashes: Vec<KeyHash>,
    /// Active searches by query id (requester-side state).
    pub(crate) pending: DetHashMap<u32, PendingSearch>,
    /// Duplicate suppression for flooded deliveries.
    pub(crate) seen: SeenTracker<u64>,
    /// Topics ad-spam adversaries falsely claim, indexed by peer
    /// ([`InterestSet::EMPTY`] = honest — a real claim is never empty, it
    /// unions at least one document class). Unioned into announcements and
    /// served ads so a content-free spammer still advertises; ground-truth
    /// confirmation is what exposes the lie.
    pub(crate) claimed_topics: Vec<InterestSet>,
    /// Documents whose keywords each ad spammer's filter falsely carries,
    /// indexed by peer (empty = honest, no allocation).
    pub(crate) poison: Vec<Box<[DocId]>>,
    pub(crate) next_delivery: u64,
    pub stats: AsapStats,
}

impl Asap {
    /// Build protocol state for every peer of `model` (filters reflect the
    /// initial holdings; joiners' content can't change while offline, so
    /// their filters stay valid until they come online).
    pub fn new(config: AsapConfig, model: &ContentModel) -> Self {
        config.validate();
        let kw_hashes: Vec<KeyHash> = (0..model.vocab.len())
            .map(|i| KeyHash::of(model.vocab.word(KeywordId(i as u16))))
            .collect();
        let store = FilterStore::new_shared();
        let nodes: Vec<NodeState> = (0..model.num_peers() as u32)
            .map(|p| {
                let docs = model.initial_holdings(PeerId(p));
                let filter = own_filter(config.bloom, &kw_hashes, model, docs, &[]);
                NodeState {
                    version: 0,
                    snapshot: Rc::new(filter),
                    repo: AdRepository::sharing(config.cache_capacity, &store),
                    fetching: DetHashSet::default(),
                    fetch_backoff: DetHashMap::default(),
                    fetches_served: 0,
                    readvert: None,
                }
            })
            .collect();
        Self {
            seen: SeenTracker::new(SEEN_WINDOW),
            kw_hashes,
            claimed_topics: vec![InterestSet::EMPTY; nodes.len()],
            poison: vec![Box::default(); nodes.len()],
            nodes,
            store,
            pending: DetHashMap::default(),
            next_delivery: 0,
            stats: AsapStats::default(),
            config,
        }
    }

    /// [`Asap::new`] plus the adversary poison pass: every `AdSpammer` in
    /// `roles` draws `SPAM_POISON_DOCS` documents, keeps them as its poison
    /// (its filter carries their keywords from now on, whatever it holds)
    /// and claims their classes as advertised topics. An all-honest `roles`
    /// slice draws no randomness and produces state identical to
    /// [`Asap::new`].
    ///
    /// Poisoning lives here — not in the simulator — because ad spam is a
    /// protocol-layer attack: the lie is in the Bloom filter the protocol
    /// publishes, and the protocol's own ground-truth confirmation step
    /// (`handle_confirm` checks real content) is what catches it.
    pub fn new_with_adversaries(
        config: AsapConfig,
        model: &ContentModel,
        roles: &[AdversaryRole],
        run_seed: u64,
    ) -> Self {
        let mut asap = Self::new(config, model);
        if !roles.contains(&AdversaryRole::AdSpammer) {
            return asap;
        }
        let mut rng = SmallRng::seed_from_u64(run_seed ^ SPAM_POISON_SALT);
        let num_docs = model.num_docs() as u32;
        // Peers in id order, one rng stream: the poison layout is a pure
        // function of (roles, run_seed, model).
        for (p, role) in roles.iter().enumerate() {
            if *role != AdversaryRole::AdSpammer {
                continue;
            }
            let poison: Box<[DocId]> = (0..SPAM_POISON_DOCS)
                .map(|_| DocId(rng.gen_range(0..num_docs)))
                .collect();
            let claimed = poison.iter().map(|&d| model.doc(d).class).collect();
            let docs = model.initial_holdings(PeerId(p as u32));
            let filter = own_filter(asap.config.bloom, &asap.kw_hashes, model, docs, &poison);
            asap.nodes[p].snapshot = Rc::new(filter);
            asap.claimed_topics[p] = claimed;
            asap.poison[p] = poison;
        }
        asap
    }

    /// The first way an entry of `repo` disagrees with its source: it is
    /// newer than the source's own version, or it is usable at that version
    /// and holds another filter than the source's snapshot or other topics
    /// than an ad of that version carries — what the source advertises,
    /// plus, from a patch, the changed document's class, which a removal
    /// can take off the source. An older or stale entry waits for the next
    /// ad and is not checked.
    fn incoherent_entry<C: Transport<Msg = AsapMsg>>(
        &self,
        ctx: &C,
        repo: &AdRepository,
    ) -> Option<&'static str> {
        repo.iter().find_map(|(source, ad)| {
            let src = self.nodes.get(source.index())?;
            if !version_not_newer(ad.version, src.version) {
                return Some("ad cache entry newer than its source");
            }
            if ad.stale || ad.version != src.version {
                return None;
            }
            let advertised = self.advertised_topics(ctx, source).0;
            let (missing, extra) = (advertised & !ad.topics.0, ad.topics.0 & !advertised);
            (ad.filter != src.snapshot || missing != 0 || extra.count_ones() > 1)
                .then_some("ad cache entry differs from its source at the same version")
        })
    }

    /// Topics `node` advertises: its real content classes, unioned with any
    /// falsely claimed ones. Honest nodes union with `EMPTY` (a no-op), so
    /// this is one indexed load over [`Asap::new`]'s behavior.
    fn advertised_topics<C: Transport<Msg = AsapMsg>>(&self, ctx: &C, node: PeerId) -> InterestSet {
        let real = ctx.content().peer_topics(node);
        real.union(self.claimed_topics[node.index()])
    }

    pub(crate) fn hash_of(&self, kw: KeywordId) -> KeyHash {
        self.kw_hashes[kw.index()]
    }

    /// Inspect a node's ad cache: `(version, stale)` of the entry for
    /// `source`, if cached. Diagnostic / test API.
    pub fn cached_version(&self, node: PeerId, source: PeerId) -> Option<(u16, bool)> {
        self.nodes[node.index()].repo.version_of(source)
    }

    /// Number of ads currently cached at `node`. Diagnostic / test API.
    pub fn cache_len(&self, node: PeerId) -> usize {
        self.nodes[node.index()].repo.len()
    }

    /// Distinct filter allocations behind every cached ad of every node:
    /// how far `Rc` sharing reaches (a cached-ad count of thousands over a
    /// few hundred allocations is the simulator's memory model working).
    /// The filter store holds each in one slot, so this is also its live
    /// slot count. Diagnostic / test API.
    pub fn distinct_cached_filters(&self) -> usize {
        let cached = self.nodes.iter().flat_map(|st| st.repo.iter());
        let allocations: DetHashSet<_> = cached.map(|(_, ad)| Rc::as_ptr(&ad.filter)).collect();
        allocations.len()
    }

    /// Heap bytes of the ad caches: every repository's record vector at
    /// its capacity, plus the filter store's tables and live filters.
    /// Diagnostic / test API.
    pub fn cache_heap_bytes(&self) -> usize {
        let repos: usize = self.nodes.iter().map(|st| st.repo.heap_bytes()).sum();
        repos + self.store.borrow().heap_bytes()
    }

    /// The node's own current ad version. Diagnostic / test API.
    pub fn own_version(&self, node: PeerId) -> u16 {
        self.nodes[node.index()].version
    }

    fn next_delivery_id(&mut self) -> u64 {
        let id = self.next_delivery;
        self.next_delivery += 1;
        id
    }

    /// The node's current full-ad snapshot.
    pub(crate) fn snapshot_of(&self, node: PeerId, topics: InterestSet) -> AdSnapshot {
        let st = &self.nodes[node.index()];
        AdSnapshot {
            source: node,
            topics,
            version: st.version,
            filter: Rc::clone(&st.snapshot),
        }
    }

    /// Launch one ad delivery from `node` within the paper's `topics × M₀`
    /// envelope.
    fn deliver<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        node: PeerId,
        payload: AdPayload,
    ) {
        match payload {
            AdPayload::Full(_) => self.stats.full_deliveries += 1,
            AdPayload::Patch { .. } => self.stats.patch_deliveries += 1,
            AdPayload::Refresh { .. } => self.stats.refresh_deliveries += 1,
        }
        let id = self.next_delivery_id();
        start_delivery(
            ctx,
            self.config.delivery,
            self.config.budget_unit,
            node,
            payload,
            id,
        );
    }

    /// Announce the node's current ad `(source, topics, version)` through
    /// the overlay. The filter itself does NOT ride the announcement wave:
    /// interested receivers without a current copy fetch it directly
    /// (one hop, once per interested pair) — shipping kilobyte filters on
    /// every hop of a thousands-of-messages walk would dwarf every other
    /// load in the system (see DESIGN.md §6).
    fn deliver_announce<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, node: PeerId) -> bool {
        let topics = self.advertised_topics(ctx, node);
        if topics.is_empty() {
            return false; // free riders have "nothing to advertise"
        }
        let version = self.nodes[node.index()].version;
        self.deliver(
            ctx,
            node,
            AdPayload::Refresh {
                source: node,
                topics,
                version,
            },
        );
        true
    }

    /// Oldest acceptable refresh stamp for lookups at `now`.
    pub(crate) fn expire_before(&self, now_us: u64) -> u64 {
        now_us.saturating_sub(self.config.refresh_interval_us * u64::from(EXPIRY_PERIODS))
    }

    /// Direct full-ad fetch from `source` to repair a gap or warm a miss.
    /// At most one fetch per (node, source) is in flight at a time.
    fn repair_fetch<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        node: PeerId,
        source: PeerId,
    ) {
        if node == source || !self.nodes[node.index()].fetching.insert(source) {
            return;
        }
        self.stats.repair_fetches += 1;
        ctx.send(
            node,
            source,
            MsgClass::FullAd,
            asap_sim::HEADER_BYTES,
            AsapMsg::FullAdFetch,
        );
        if self.config.retransmit.is_some() {
            let backoff = Backoff::new(BACKOFF_BASE_US, BACKOFF_CAP_US, FETCH_RETRIES);
            self.nodes[node.index()]
                .fetch_backoff
                .insert(source, backoff);
            ctx.set_timer(node, BACKOFF_BASE_US, TAG_FETCH_BIT | u64::from(source.0));
        }
    }

    /// A repair-fetch retransmit timer fired: if the fetch is still
    /// unanswered, resend it (within the backoff budget) or give the source
    /// up — otherwise its `fetching` entry would leak forever under loss.
    fn handle_fetch_timer<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        node: PeerId,
        source: PeerId,
    ) {
        let next = {
            let st = &mut self.nodes[node.index()];
            if !st.fetching.contains(&source) {
                // Answered in the meantime; retire the pacer.
                st.fetch_backoff.remove(&source);
                return;
            }
            match st.fetch_backoff.get_mut(&source) {
                Some(b) => b.next(),
                None => return,
            }
        };
        match next {
            Some(delay) => {
                self.stats.repair_fetches += 1;
                ctx.count(RetryStat::Retries);
                ctx.send(
                    node,
                    source,
                    MsgClass::FullAd,
                    asap_sim::HEADER_BYTES,
                    AsapMsg::FullAdFetch,
                );
                ctx.set_timer(node, delay, TAG_FETCH_BIT | u64::from(source.0));
            }
            None => {
                let st = &mut self.nodes[node.index()];
                st.fetching.remove(&source);
                st.fetch_backoff.remove(&source);
                ctx.count(RetryStat::DeliveriesAbandoned);
            }
        }
    }

    /// Arm the re-advertisement watchdog after an initial/join announcement
    /// (only under `Some(Retransmit)` — `None` arms no timer, keeping
    /// fault-free digests unchanged).
    fn arm_readvert<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, node: PeerId) {
        if self.config.retransmit.is_none() {
            return;
        }
        let st = &mut self.nodes[node.index()];
        st.readvert = Some(ReAdvert {
            baseline_fetches: st.fetches_served,
            backoff: Backoff::new(BACKOFF_BASE_US, BACKOFF_CAP_US, READVERT_RETRIES),
        });
        ctx.set_timer(node, BACKOFF_BASE_US, TAG_READVERT);
    }

    /// The re-advertisement watchdog fired: if nobody fetched our full ad
    /// since the last announcement, the wave may have been lost — repeat it
    /// (within the backoff budget) or record the delivery as abandoned.
    fn handle_readvert_timer<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, node: PeerId) {
        let (acked, next) = {
            let st = &mut self.nodes[node.index()];
            let Some(ra) = st.readvert.as_mut() else {
                return;
            };
            let acked = st.fetches_served > ra.baseline_fetches;
            let next = if acked { None } else { ra.backoff.next() };
            (acked, next)
        };
        if acked {
            self.nodes[node.index()].readvert = None;
            return;
        }
        match next {
            Some(delay) => {
                ctx.count(RetryStat::Retries);
                self.deliver_announce(ctx, node);
                let st = &mut self.nodes[node.index()];
                let served = st.fetches_served;
                if let Some(ra) = st.readvert.as_mut() {
                    ra.baseline_fetches = served;
                }
                ctx.set_timer(node, delay, TAG_READVERT);
            }
            None => {
                self.nodes[node.index()].readvert = None;
                ctx.count(RetryStat::DeliveriesAbandoned);
            }
        }
    }

    /// Ad received at `node`: cache if interesting, repair if inconsistent,
    /// keep the wave moving.
    fn handle_ad<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        node: PeerId,
        from: PeerId,
        payload: AdPayload,
        fwd: Forwarding,
        delivery: u64,
    ) {
        // Duplicate suppression only applies to flood waves; walks and GSA
        // dispersal rely on their budgets.
        if matches!(fwd, Forwarding::Flood { .. }) && !self.seen.first_visit(delivery, node.0) {
            ctx.count(RetryStat::DuplicatesSuppressed);
            return;
        }

        let source = payload.source();
        let interested = source != node
            && payload
                .topics()
                .intersects(ctx.model().interests[node.index()]);
        if interested {
            let now = ctx.now_us();
            let st = &mut self.nodes[node.index()];
            let outcome = match &payload {
                AdPayload::Full(snap) => {
                    st.fetching.remove(&source);
                    st.repo.insert_full(snap, now)
                }
                AdPayload::Patch {
                    version,
                    topics,
                    result,
                    ..
                } => st.repo.apply_patch(source, *version, *topics, result, now),
                AdPayload::Refresh { version, .. } => st.repo.apply_refresh(source, *version, now),
            };
            let has_room = self.nodes[node.index()].repo.len() < self.config.cache_capacity;
            match outcome {
                ApplyOutcome::Applied | ApplyOutcome::Outdated => {}
                ApplyOutcome::VersionGap => self.repair_fetch(ctx, node, source),
                ApplyOutcome::Unknown => {
                    // Interested but uncached: announcements double as
                    // discovery — fetch the full ad directly, but only while
                    // the cache has room. Fetching into a full cache would
                    // evict another useful entry that the next announcement
                    // round re-discovers, an endless paid loop; a full cache
                    // is the "selectively store" budget exhausted, and
                    // query-time fallbacks still pull in what's missing.
                    if has_room {
                        self.repair_fetch(ctx, node, source);
                    }
                }
            }
        }

        continue_delivery(ctx, node, from, payload, delivery, fwd);
    }
}

impl Protocol for Asap {
    type Msg = AsapMsg;

    fn on_init<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C) {
        // Stagger the initial full-ad wave so the event queue (and the
        // network) isn't hit by every node at t = 0.
        let stagger = self.config.warmup_stagger_us.max(1);
        for p in 0..ctx.num_peers() as u32 {
            let peer = PeerId(p);
            if !ctx.alive(peer) {
                continue;
            }
            let delay = ctx.rng().gen_range(0..stagger);
            ctx.set_timer(peer, delay, TAG_INIT_AD);
        }
    }

    fn on_query<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, query: &QuerySpec) {
        search::start_query(self, ctx, query);
    }

    fn on_message<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: AsapMsg,
    ) {
        match msg {
            AsapMsg::Ad {
                payload,
                fwd,
                delivery,
            } => self.handle_ad(ctx, to, from, payload, fwd, delivery),
            AsapMsg::FullAdFetch => {
                // Serve our full ad directly to the requester. The fetch also
                // acknowledges our announcement reached someone interested.
                self.nodes[to.index()].fetches_served += 1;
                let topics = self.advertised_topics(ctx, to);
                if topics.is_empty() {
                    return;
                }
                let snap = self.snapshot_of(to, topics);
                let payload = AdPayload::Full(snap);
                let bytes = payload.encoded_size();
                ctx.send(
                    to,
                    from,
                    ad_class(&payload),
                    bytes,
                    AsapMsg::Ad {
                        payload,
                        fwd: Forwarding::Direct,
                        delivery: u64::MAX,
                    },
                );
            }
            AsapMsg::AdsRequest {
                requester,
                interests,
                hops,
                query,
                terms,
            } => search::handle_ads_request(
                self, ctx, to, from, requester, interests, hops, query, terms,
            ),
            AsapMsg::AdsReply { ads, query } => search::handle_ads_reply(self, ctx, to, ads, query),
            AsapMsg::Confirm {
                query,
                requester,
                terms,
            } => search::handle_confirm(self, ctx, to, requester, query, &terms),
            AsapMsg::ConfirmReply { query, results } => {
                search::handle_confirm_reply(self, ctx, to, from, query, results)
            }
        }
    }

    fn on_timer<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        if tag & TAG_FETCH_BIT != 0 {
            let source = PeerId((tag & !TAG_FETCH_BIT) as u32);
            self.handle_fetch_timer(ctx, node, source);
            return;
        }
        if tag == TAG_READVERT {
            self.handle_readvert_timer(ctx, node);
            return;
        }
        match tag {
            TAG_INIT_AD => {
                if self.deliver_announce(ctx, node) {
                    self.arm_readvert(ctx, node);
                }
                // First refresh lands one period (plus jitter) later.
                let jitter = ctx
                    .rng()
                    .gen_range(0..self.config.refresh_interval_us / 4 + 1);
                ctx.set_timer(node, self.config.refresh_interval_us + jitter, TAG_REFRESH);
            }
            TAG_REFRESH => {
                self.deliver_announce(ctx, node);
                // Re-jitter every period (±25 %) so refresh beacons never
                // phase-lock across the population — synchronized waves
                // would turn the load series into a square wave.
                let base = self.config.refresh_interval_us;
                let next = ctx.rng().gen_range(base - base / 4..=base + base / 4);
                ctx.set_timer(node, next, TAG_REFRESH);
            }
            _ => search::handle_timeout(self, ctx, node, tag),
        }
    }

    fn on_join<C: Transport<Msg = AsapMsg>>(&mut self, ctx: &mut C, node: PeerId) {
        // Warm the cache: "this is the same ads requesting process as the
        // one when a brand new node joins."
        search::send_ads_request(self, ctx, node, None, None);
        // A rejoining node's content (and hence version) is unchanged, so a
        // cheap announcement suffices: peers still caching the ad revive it,
        // and interested peers that lost it fetch the filter directly.
        if self.deliver_announce(ctx, node) {
            self.arm_readvert(ctx, node);
        }
        let jitter = ctx
            .rng()
            .gen_range(0..self.config.refresh_interval_us / 4 + 1);
        ctx.set_timer(node, self.config.refresh_interval_us + jitter, TAG_REFRESH);
    }

    fn on_leave<C: Transport<Msg = AsapMsg>>(&mut self, _ctx: &mut C, node: PeerId) {
        // Abandon searches this node was running.
        self.pending.retain(|_, p| p.requester != node);
    }

    fn on_content_change<C: Transport<Msg = AsapMsg>>(
        &mut self,
        ctx: &mut C,
        peer: PeerId,
        doc: DocId,
        _added: bool,
    ) {
        // The engine has already applied the change: an addition and a
        // removal both rebuild from what the peer holds now.
        let model = ctx.model();
        let docs = ctx.content().peer_docs(peer);
        let filter = own_filter(
            self.config.bloom,
            &self.kw_hashes,
            model,
            docs,
            &self.poison[peer.index()],
        );
        let st = &mut self.nodes[peer.index()];
        st.version = st.version.wrapping_add(1);
        if *st.snapshot == filter {
            // Duplicate keywords: nothing observable changed, and the
            // published handle stays shared with the caches holding it.
            return;
        }
        let version = st.version;
        let new_snapshot = Rc::new(filter);
        let old_snapshot = std::mem::replace(&mut st.snapshot, Rc::clone(&new_snapshot));

        // Patch topics: union of old and new, so cachers from a dropped
        // class still hear about the removal. Claimed (spam) topics ride
        // along so cachers keyed on the false classes stay in sync too.
        let new_topics = self.advertised_topics(ctx, peer);
        let topics = new_topics.union(InterestSet::singleton(model.doc(doc).class));

        let patch = Rc::new(FilterPatch::diff(&old_snapshot, &new_snapshot));
        self.deliver(
            ctx,
            peer,
            AdPayload::Patch {
                source: peer,
                topics,
                version,
                patch,
                result: new_snapshot,
            },
        );
    }

    /// The flood dedup window is [`SEEN_WINDOW`], every node keeps
    /// `node_violation`'s invariants, and every cache is coherent with the
    /// sources it caches (`incoherent_entry`).
    fn validate<C: Transport<Msg = AsapMsg>>(&self, ctx: &C) -> Vec<Violation> {
        let (bloom, now) = (self.config.bloom, ctx.now_us());
        let nodes = self.nodes.iter().zip(&self.poison).enumerate();
        let nodes = nodes.filter_map(|(i, (st, poison))| {
            let node = PeerId(i as u32);
            let docs = ctx.content().peer_docs(node);
            let truth = || own_filter(bloom, &self.kw_hashes, ctx.model(), docs, poison);
            let kind = node_violation(bloom, &st.snapshot, Some(&st.repo), Some(node), now, truth);
            Some(Violation {
                node: Some(node),
                kind: kind?,
            })
        });
        // Across nodes, once every node has been checked on its own.
        let caches = self.nodes.iter().enumerate().filter_map(|(i, st)| {
            Some(Violation {
                node: Some(PeerId(i as u32)),
                kind: self.incoherent_entry(ctx, &st.repo)?,
            })
        });
        let seen = self.seen.window_violation(SEEN_WINDOW);
        seen.into_iter().chain(nodes).chain(caches).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_bloom::CountingBloom;
    use asap_overlay::{OverlayConfig, OverlayKind};
    use asap_sim::Simulation;
    use asap_topology::{PhysicalNetwork, TransitStubConfig};
    use asap_workload::{TraceEvent, Workload, WorkloadConfig};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn model() -> ContentModel {
        let cfg = WorkloadConfig::reduced(120, 50, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        asap_workload::content::generate_model(&cfg, &mut rng)
    }

    #[test]
    fn node_filters_reflect_initial_content() {
        let m = model();
        let asap = Asap::new(AsapConfig::rw().scaled_to(120), &m);
        for p in 0..m.num_peers() {
            let st = &asap.nodes[p];
            for &doc in m.initial_holdings(PeerId(p as u32)) {
                for &kw in m.doc(doc).keywords {
                    assert!(
                        st.snapshot.contains_hash(&asap.kw_hashes[kw.index()]),
                        "peer {p}'s filter must cover its keywords"
                    );
                }
            }
            if m.is_free_rider(PeerId(p as u32)) {
                assert!(st.snapshot.is_empty(), "free riders have null filters");
            }
        }
    }

    #[test]
    fn keyword_hash_table_matches_direct_hashing() {
        let m = model();
        let asap = Asap::new(AsapConfig::rw().scaled_to(120), &m);
        for i in (0..m.vocab.len()).step_by(37) {
            let kw = KeywordId(i as u16);
            assert_eq!(asap.hash_of(kw), KeyHash::of(m.vocab.word(kw)));
        }
    }

    #[test]
    fn delivery_ids_are_unique() {
        let m = model();
        let mut asap = Asap::new(AsapConfig::rw().scaled_to(120), &m);
        let a = asap.next_delivery_id();
        let b = asap.next_delivery_id();
        assert_ne!(a, b);
    }

    /// Roles vector with `AdSpammer` at every index divisible by 10.
    fn spam_roles(peers: usize) -> Vec<AdversaryRole> {
        (0..peers)
            .map(|p| {
                if p % 10 == 0 {
                    AdversaryRole::AdSpammer
                } else {
                    AdversaryRole::Honest
                }
            })
            .collect()
    }

    #[test]
    fn all_honest_roles_match_plain_construction() {
        let m = model();
        let cfg = AsapConfig::rw().scaled_to(120);
        let plain = Asap::new(cfg.clone(), &m);
        let adv = Asap::new_with_adversaries(cfg, &m, &[AdversaryRole::Honest; 120], 7);
        assert!(adv.claimed_topics.iter().all(|c| c.is_empty()));
        for p in 0..m.num_peers() {
            assert_eq!(
                plain.nodes[p].snapshot, adv.nodes[p].snapshot,
                "peer {p}: honest roles must not perturb filters"
            );
        }
    }

    #[test]
    fn spam_poisoning_is_deterministic_and_scoped_to_spammers() {
        let m = model();
        let cfg = AsapConfig::rw().scaled_to(120);
        let roles = spam_roles(120);
        let plain = Asap::new(cfg.clone(), &m);
        let a = Asap::new_with_adversaries(cfg.clone(), &m, &roles, 7);
        let b = Asap::new_with_adversaries(cfg.clone(), &m, &roles, 7);
        let c = Asap::new_with_adversaries(cfg, &m, &roles, 8);
        let mut diverged = false;
        for (p, role) in roles.iter().enumerate() {
            assert_eq!(
                a.nodes[p].snapshot, b.nodes[p].snapshot,
                "peer {p}: same seed must poison identically"
            );
            match role {
                AdversaryRole::AdSpammer => {
                    assert!(!a.claimed_topics[p].is_empty());
                    assert_ne!(
                        plain.nodes[p].snapshot, a.nodes[p].snapshot,
                        "peer {p}: a spammer's filter must be poisoned"
                    );
                    diverged |= a.nodes[p].snapshot != c.nodes[p].snapshot;
                }
                _ => {
                    assert!(a.claimed_topics[p].is_empty());
                    assert_eq!(
                        plain.nodes[p].snapshot, a.nodes[p].snapshot,
                        "peer {p}: honest filters must be untouched"
                    );
                }
            }
        }
        assert!(diverged, "different seeds must draw different poison sets");
    }

    #[test]
    fn spammer_filters_are_their_holdings_plus_poison() {
        let m = model();
        let cfg = AsapConfig::rw().scaled_to(120);
        let asap = Asap::new_with_adversaries(cfg.clone(), &m, &spam_roles(120), 7);
        for p in 0..m.num_peers() {
            assert_eq!(
                asap.poison[p].len(),
                if p % 10 == 0 { SPAM_POISON_DOCS } else { 0 }
            );
            let docs = m.initial_holdings(PeerId(p as u32));
            let own = own_filter(cfg.bloom, &asap.kw_hashes, &m, docs, &asap.poison[p]);
            assert_eq!(*asap.nodes[p].snapshot, own, "peer {p}");
        }
    }

    #[test]
    fn spammers_claim_topics_beyond_their_content() {
        let m = model();
        let asap =
            Asap::new_with_adversaries(AsapConfig::rw().scaled_to(120), &m, &spam_roles(120), 7);
        let mut spammers = 0;
        for (p, &claimed) in asap.claimed_topics.iter().enumerate() {
            if claimed.is_empty() {
                continue; // honest slot
            }
            spammers += 1;
            // Claimed classes come from real documents, so honest queries in
            // those classes will probe — and confirmation will expose — them.
            assert!(claimed.len() <= m.num_classes, "peer {p} claims too much");
        }
        assert_eq!(spammers, 120 / 10, "one spammer per 10 peers must claim");
    }

    /// A 60-peer world. The tests below apply their own events at time
    /// zero, before its generated trace begins.
    fn small_world(seed: u64) -> (PhysicalNetwork, Workload, asap_overlay::Overlay) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
        let workload = asap_workload::generate(&WorkloadConfig::reduced(60, 20, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, 60, seed).build();
        (phys, workload, overlay)
    }

    /// The audit's ground truth is the filter rebuilt from what each node
    /// holds: a hand-corrupted published filter is reported, by node.
    #[test]
    fn audit_reports_a_filter_that_differs_from_the_holdings() {
        let (phys, workload, overlay) = small_world(5);
        let cfg = AsapConfig::rw().scaled_to(60);
        let roles = spam_roles(60);
        let build = |asap: Asap| {
            Simulation::builder(
                &phys,
                &workload,
                overlay.clone(),
                OverlayKind::Random,
                asap,
                5,
            )
            .build()
        };
        let clean = build(Asap::new_with_adversaries(
            cfg.clone(),
            &workload.model,
            &roles,
            5,
        ));
        assert_eq!(clean.protocol().validate(clean.ctx()), Vec::new());

        let honest_sharer = (0..60)
            .find(|&p| p % 10 != 0 && !workload.model.is_free_rider(PeerId(p as u32)))
            .unwrap();
        for victim in [honest_sharer, 10] {
            let mut asap = Asap::new_with_adversaries(cfg.clone(), &workload.model, &roles, 5);
            let mut words = asap.nodes[victim].snapshot.words().to_vec();
            words[0] ^= 1;
            asap.nodes[victim].snapshot =
                Rc::new(BloomFilter::from_words(cfg.bloom, words).unwrap());
            let sim = build(asap);
            assert_eq!(
                sim.protocol().validate(sim.ctx()),
                vec![Violation {
                    node: Some(PeerId(victim as u32)),
                    kind: "published filter differs from its holdings"
                }]
            );
        }
    }

    /// A cache entry usable at its source's current version holds the
    /// source's filter and topics (a patch may add one class), and none is
    /// newer than its source: a perturbed copy of the filter, a missing
    /// topic, two extra topics and a version ahead are each reported at
    /// the cacher; an older entry is not checked.
    #[test]
    fn validate_reports_a_cache_entry_incoherent_with_its_source() {
        let (phys, workload, overlay) = small_world(5);
        let (cfg, model) = (AsapConfig::rw().scaled_to(60), &workload.model);
        let (cacher, source) = (3, PeerId(7));
        let topics: InterestSet = model
            .initial_holdings(source)
            .iter()
            .map(|&d| model.doc(d).class)
            .collect();
        assert!(!topics.is_empty());
        let validate = |ahead: u16, perturb: bool, topics: InterestSet| {
            let mut asap = Asap::new(cfg.clone(), model);
            let own = &asap.nodes[source.index()];
            let mut words = own.snapshot.words().to_vec();
            words[0] ^= u64::from(perturb);
            let snap = AdSnapshot {
                source,
                topics,
                version: own.version.wrapping_add(ahead),
                filter: Rc::new(BloomFilter::from_words(cfg.bloom, words).unwrap()),
            };
            asap.nodes[cacher].repo.insert_full(&snap, 0);
            let sim = Simulation::builder(
                &phys,
                &workload,
                overlay.clone(),
                OverlayKind::Random,
                asap,
                5,
            )
            .build();
            sim.protocol().validate(sim.ctx())
        };
        let at = |kind| {
            vec![Violation {
                node: Some(PeerId(cacher as u32)),
                kind,
            }]
        };
        let differs = at("ad cache entry differs from its source at the same version");
        assert_eq!(validate(0, false, topics), Vec::new());
        assert_eq!(validate(0, true, topics), differs);
        assert_eq!(validate(0, false, InterestSet::EMPTY), differs);
        // A patch that removed a class's last document still carries it.
        let absent: Vec<u16> = (0..16)
            .map(|c| 1 << c)
            .filter(|b| topics.0 & b == 0)
            .collect();
        let extra = |n: usize| InterestSet(absent[..n].iter().fold(topics.0, |t, b| t | b));
        assert_eq!(validate(0, false, extra(1)), Vec::new());
        assert_eq!(validate(0, false, extra(2)), differs);
        assert_eq!(
            validate(1, false, topics),
            at("ad cache entry newer than its source")
        );
        assert_eq!(validate(u16::MAX, true, topics), Vec::new());
    }

    /// An audited run of a reduced-scale world, and its end state.
    fn audited_run(peers: usize, seed: u64) -> Asap {
        let topology = if peers <= 300 {
            TransitStubConfig::reduced(seed)
        } else {
            TransitStubConfig::medium(seed)
        };
        let phys = PhysicalNetwork::generate(&topology);
        let workload = asap_workload::generate(&WorkloadConfig::reduced(peers, peers, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
        let asap = Asap::new(AsapConfig::rw().scaled_to(peers), &workload.model);
        let report =
            Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, asap, seed)
                .audit(asap_sim::AuditConfig::default())
                .run();
        let audit = report.audit.expect("audited run");
        assert!(audit.is_clean(), "{:?}", audit.violations);
        report.protocol
    }

    /// The store holds each cached filter allocation in exactly one slot.
    #[test]
    fn the_store_keeps_one_slot_per_cached_filter() {
        let asap = audited_run(150, 21);
        let live = asap.store.borrow().live_slots();
        assert_eq!(asap.distinct_cached_filters(), live);
        assert!(live > 0);
    }

    /// The ad caches' heap is what their entries, indexes and filters
    /// need.
    ///
    /// An entry is one 20 B `Record`. The vector grows by max(4, len / 8),
    /// so from 32 entries on it holds at most an eighth more than it uses,
    /// 1.125 × 20 B per entry; the bound allows 1.15 ×. A cache's index is
    /// one 8 B word per 48 peer ids up to its largest source, at most
    /// `peers / 48 + 1` words. A live filter is 1,448 B of words (11,542
    /// bits), a 56 B `Rc` block, a 16 B slot and its content-table entry,
    /// ≈ 1,540 B against the bound's 1,500 B. Caches under 32 entries keep
    /// up to 4 slots of slack; the entries' spare 2.5 % pays for both as
    /// long as a filter is cached some 80 times or more (here 89 times:
    /// 71,130 entries over 803 filters, 2.91 MB against a 3.01 MB bound,
    /// 0.17 MB of it index). Doubling growth or the 24 B layout (3.21 MB
    /// with the index) would each break it.
    #[test]
    fn ad_cache_heap_is_bounded_by_entries_and_filters() {
        let peers = 1_000;
        let asap = audited_run(peers, 22);
        let entries: usize = (0..peers as u32).map(|p| asap.cache_len(PeerId(p))).sum();
        let filters = asap.distinct_cached_filters();
        let index = peers * (peers / 48 + 1) * 8;
        let bound = entries * 20 * 115 / 100 + index + filters * 1_500;
        let heap = asap.cache_heap_bytes();
        assert!(
            heap <= bound,
            "{heap} B for {entries} entries over {filters} filters"
        );
        for st in asap.nodes.iter() {
            let (len, cap) = (st.repo.len(), st.repo.record_capacity());
            assert!(
                cap <= len + (len / 8).max(4),
                "{cap} slots for {len} entries"
            );
        }
    }

    /// One peer a tape drives: the documents it holds now, the documents it
    /// draws from, and the paper's counting filter replaying its changes.
    struct Tracked {
        peer: PeerId,
        held: BTreeSet<DocId>,
        pool: Vec<DocId>,
        counting: CountingBloom,
    }

    impl Tracked {
        fn new(asap: &Asap, model: &ContentModel, p: usize) -> Self {
            let held: BTreeSet<DocId> = model
                .initial_holdings(PeerId(p as u32))
                .iter()
                .copied()
                .collect();
            let poison = &asap.poison[p];
            let mut counting = CountingBloom::new(asap.config.bloom);
            for &d in held.iter().chain(poison.iter()) {
                for kw in model.doc(d).keywords {
                    counting.insert_hash(&asap.kw_hashes[kw.index()]);
                }
            }
            // Its own documents, its poison, and a shared slice of the
            // catalogue that every tracked peer draws from.
            let pool = held
                .iter()
                .chain(poison.iter())
                .copied()
                .chain((0..24).map(DocId))
                .collect();
            Self {
                peer: PeerId(p as u32),
                held,
                pool,
                counting,
            }
        }
    }

    /// What a tape saw, so that no case passes vacuously.
    #[derive(Default)]
    struct Coverage {
        /// Removals whose document shared a keyword with one still held.
        shared_keyword_kept: usize,
        /// Changes made while the spammer held one of its poison documents.
        poison_held: usize,
    }

    /// Apply one change through the engine (so through `on_content_change`),
    /// replay it into the counting filter, and compare.
    fn step(
        sim: &mut Simulation<'_, Asap>,
        t: &mut Tracked,
        doc: DocId,
        add: bool,
        cov: &mut Coverage,
    ) {
        let model = sim.ctx().model;
        let applied = if add {
            t.held.insert(doc)
        } else {
            t.held.remove(&doc)
        };
        let event = if add {
            TraceEvent::AddDocument { peer: t.peer, doc }
        } else {
            TraceEvent::RemoveDocument { peer: t.peer, doc }
        };
        sim.apply_event(0, event);
        let asap = sim.protocol();
        if applied {
            for kw in model.doc(doc).keywords {
                let h = asap.kw_hashes[kw.index()];
                if add {
                    t.counting.insert_hash(&h);
                } else {
                    assert!(
                        t.counting.remove_hash(&h),
                        "the replay removes what it inserted"
                    );
                }
            }
            if !add {
                let still =
                    |kw: &KeywordId| t.held.iter().any(|&d| model.doc(d).keywords.contains(kw));
                cov.shared_keyword_kept += usize::from(model.doc(doc).keywords.iter().any(still));
            }
        }
        let poison = &asap.poison[t.peer.index()];
        cov.poison_held += usize::from(t.held.iter().any(|d| poison.contains(d)));
        let docs: Vec<DocId> = t.held.iter().copied().collect();
        assert_eq!(sim.ctx().content().peer_docs(t.peer), docs.as_slice());
        let published = &asap.nodes[t.peer.index()].snapshot;
        let reference = t.counting.as_filter();
        assert_eq!(
            published.words(),
            reference.words(),
            "peer {:?} after {doc:?} add={add}",
            t.peer
        );
        assert_eq!(published.count_ones(), reference.count_ones());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A peer's filter rebuilt from its holdings on every content change
        /// equals the paper's counting filter replaying the same changes,
        /// over random add/remove tapes on four peers: a free rider, an ad
        /// spammer (whose pool includes its own poison documents), and two
        /// sharers. Every peer is then drained to empty — the free rider
        /// after gaining content — and refilled.
        #[test]
        fn own_filter_equals_a_counting_bloom_replay(
            seed in 1u64..1_000,
            tape in prop::collection::vec((0usize..4, 0usize..1_000, any::<bool>()), 150..300),
            refill in prop::collection::vec((0usize..4, 0usize..1_000), 4..24),
        ) {
            let (phys, workload, overlay) = small_world(seed);
            let model = &workload.model;
            let sharers: Vec<usize> = (0..60).filter(|&p| !model.is_free_rider(PeerId(p as u32))).collect();
            let free_rider = (0..60).find(|&p| model.is_free_rider(PeerId(p as u32))).unwrap();
            let slots = [free_rider, sharers[0], sharers[1], sharers[2]];
            let roles: Vec<_> = (0..60)
                .map(|p| if p == slots[1] { AdversaryRole::AdSpammer } else { AdversaryRole::Honest })
                .collect();
            let asap = Asap::new_with_adversaries(AsapConfig::rw().scaled_to(60), model, &roles, seed);
            let mut tracked: Vec<Tracked> = slots.iter().map(|&p| Tracked::new(&asap, model, p)).collect();
            let mut sim = Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, asap, seed).build();
            let mut cov = Coverage::default();

            // The free rider gains content first, so the drain below empties it.
            for i in 0..3 {
                let doc = tracked[0].pool[i];
                step(&mut sim, &mut tracked[0], doc, true, &mut cov);
            }
            for (slot, pick, add) in tape {
                let t = &mut tracked[slot];
                let doc = t.pool[pick % t.pool.len()];
                step(&mut sim, t, doc, add, &mut cov);
            }
            for t in &mut tracked {
                while let Some(&doc) = t.held.iter().next() {
                    step(&mut sim, t, doc, false, &mut cov);
                }
                let poison = &sim.protocol().poison[t.peer.index()];
                prop_assert_eq!(sim.protocol().nodes[t.peer.index()].snapshot.is_empty(), poison.is_empty());
            }
            for (slot, pick) in refill {
                let t = &mut tracked[slot];
                let doc = t.pool[pick % t.pool.len()];
                step(&mut sim, t, doc, true, &mut cov);
            }
            prop_assert!(cov.shared_keyword_kept > 0, "no removal kept a shared keyword");
            prop_assert!(cov.poison_held > 0, "the spammer never held a poison document");
        }
    }
}
