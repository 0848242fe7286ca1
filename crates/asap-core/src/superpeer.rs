//! Super-peer ASAP — the hierarchical deployment the paper sketches.
//!
//! Footnote 3 (§IV-A): "ASAP can work well on hierarchical systems in which
//! only super peers are responsible for ad representation, delivery, caching
//! and processing." This module implements that deployment:
//!
//! * the top [`SUPER_FRACTION`] of peers **by overlay degree** act as *super peers*;
//!   every leaf registers its content snapshot with a super-peer neighbor
//!   (its *home*), promoting itself if it has none;
//! * ads live **only on super peers**: announcements travel by random walk
//!   over the super-peer subgraph as *batched digests* of `(source, topics,
//!   version)` entries — aggregation is what the hierarchy buys — and a
//!   super peer caches an entry when its *union interest* (its own plus its
//!   leaves') overlaps the topics, fetching the filter directly from the
//!   content's source;
//! * a leaf's search is one hop to its home super peer, a repository lookup
//!   there, and confirmations sent to the candidate sources, which reply
//!   **directly to the requester** — so the leaf-observed latency stays in
//!   the one-hop regime; a lookup miss triggers a term-filtered ads request
//!   to neighboring super peers.
//!
//! Relative to flat ASAP this variant is deliberately lean (no retry
//! timers, no iterative confirm rounds): it exists to demonstrate the claim
//! and to let the harness compare the two deployments, not to replace the
//! flat protocol.

use crate::ad::AdSnapshot;
use crate::checkpoint::{FilterTable, TableReader};
use crate::config::{AsapConfig, SUPER_CACHE_FACTOR};
use crate::protocol::{node_violation, own_filter};
use crate::repository::{AdRepository, FilterStore};
use crate::search::MAX_CONFIRM_FANOUT;
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, WireFilter};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::checkpoint::{CheckpointProtocol, Codec, CodecError, Decoder, Encoder};
use asap_sim::{
    ads_reply_size, ads_request_size, confirm_reply_size, confirm_size, query_size, spread,
    Protocol, Transport, Violation, HEADER_BYTES, TOPIC_WIRE_BYTES, VERSION_WIRE_BYTES,
};
use asap_sim::{codec_enum, codec_struct};
use asap_workload::{ContentModel, DocId, InterestSet, KeywordId, QuerySpec};
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Wire size of one digest entry: source id + topics + version.
const DIGEST_ENTRY_BYTES: usize = 4 + VERSION_WIRE_BYTES;

/// Fraction of peers (highest degree first) promoted to super peers.
pub const SUPER_FRACTION: f64 = 0.2;

/// A peer's role in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Super,
    /// Leaf registered with `home`.
    Leaf {
        home: PeerId,
    },
}

/// Wire messages of the super-peer deployment.
#[derive(Debug, Clone)]
pub enum SuperMsg {
    /// Leaf → home super: (re-)register my content snapshot.
    Register { snap: AdSnapshot },
    /// Digest walk over the super-peer subgraph.
    Digest {
        entries: Rc<[(PeerId, InterestSet, u16)]>,
        budget: u32,
    },
    /// Super → content source: send me your filter.
    Fetch,
    /// Source → super: the filter (piggybacks current topics/version).
    FetchReply { snap: AdSnapshot },
    /// Leaf → home super: run this search for me.
    QueryAsk {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
    },
    /// Super → candidate source: confirm against your actual content.
    Confirm {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
    },
    /// Source → requester (direct): verdict.
    ConfirmReply { query: u32, results: u32 },
    /// Super → neighbor supers: ads serving these terms?
    AdsRequest {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
    },
    /// Neighbor super → asking super: matching cached ads (terms echoed so
    /// the asker can confirm without per-query state).
    AdsReply {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
        ads: Vec<AdSnapshot>,
    },
}

/// Statistics specific to the hierarchical deployment.
#[derive(Debug, Default, Clone)]
pub struct SuperStats {
    pub supers: usize,
    pub leaves: usize,
    pub registrations: u64,
    pub digests_sent: u64,
    pub fetches: u64,
    pub leaf_queries_forwarded: u64,
    pub super_local_hits: u64,
    pub super_fallbacks: u64,
}

pub(crate) struct NodeState {
    pub(crate) version: u16,
    /// The node's own filter at `version` ([`own_filter`] of its holdings).
    pub(crate) snapshot: Rc<BloomFilter>,
    /// Super peers only: the ads repository and registered dependents.
    pub(crate) repo: Option<AdRepository>,
    pub(crate) registered: BTreeMap<PeerId, (InterestSet, u16)>,
}

/// The hierarchical ASAP protocol.
pub struct SuperAsap {
    /// Underlying ASAP knobs (budget unit, cache capacity, Bloom geometry;
    /// the warm-up stagger and refresh period pace registrations and digest
    /// rounds). `ads_request_hops` and `max_ads_per_reply` are unused, and
    /// so is `retransmit`: super-peer ASAP has no retry path.
    pub config: AsapConfig,
    roles: Vec<Role>,
    pub(crate) nodes: Vec<NodeState>,
    /// The filters behind every super peer's cache entries.
    pub(crate) store: Rc<RefCell<FilterStore>>,
    kw_hashes: Vec<KeyHash>,
    /// Union of a super peer's own and registered leaves' interests.
    union_interests: Vec<InterestSet>,
    pub stats: SuperStats,
    initialized: bool,
}

impl SuperAsap {
    pub fn new(config: AsapConfig, model: &ContentModel) -> Self {
        config.validate();
        let kw_hashes: Vec<KeyHash> = (0..model.vocab.len())
            .map(|i| KeyHash::of(model.vocab.word(KeywordId(i as u16))))
            .collect();
        let nodes = (0..model.num_peers() as u32)
            .map(|p| {
                let docs = model.initial_holdings(PeerId(p));
                let filter = own_filter(config.bloom, &kw_hashes, model, docs, &[]);
                NodeState {
                    version: 0,
                    snapshot: Rc::new(filter),
                    repo: None,
                    registered: BTreeMap::new(),
                }
            })
            .collect();
        let n = model.num_peers();
        Self {
            roles: vec![Role::Super; n],
            union_interests: vec![InterestSet::EMPTY; n],
            kw_hashes,
            nodes,
            store: FilterStore::new_shared(),
            stats: SuperStats::default(),
            initialized: false,
            config,
        }
    }

    /// Super peers are the "powerful and willing" nodes of the hierarchy:
    /// they carry a multiple of the flat cache budget because they cache on
    /// behalf of all their leaves.
    pub(crate) fn super_cache_capacity(&self) -> usize {
        self.config.cache_capacity * SUPER_CACHE_FACTOR
    }

    pub fn role(&self, p: PeerId) -> Role {
        self.roles[p.index()]
    }

    pub fn is_super(&self, p: PeerId) -> bool {
        matches!(self.roles[p.index()], Role::Super)
    }

    /// The super peer handling `node`'s traffic right now: its assigned home
    /// if that peer is still alive, otherwise the best live super neighbor,
    /// otherwise itself (self-promotion keeps partitions functional).
    fn live_home<C: Transport<Msg = SuperMsg>>(&self, ctx: &C, node: PeerId) -> PeerId {
        if self.is_super(node) {
            return node;
        }
        if let Role::Leaf { home } = self.roles[node.index()] {
            if ctx.alive(home) && ctx.neighbors(node).contains(&home) {
                return home;
            }
        }
        ctx.neighbors(node)
            .iter()
            .copied()
            .filter(|&s| self.is_super(s) && ctx.alive(s))
            .max_by_key(|&s| ctx.degree(s))
            .unwrap_or(node)
    }

    fn snapshot_of(&self, node: PeerId, topics: InterestSet) -> AdSnapshot {
        let st = &self.nodes[node.index()];
        AdSnapshot {
            source: node,
            topics,
            version: st.version,
            filter: Rc::clone(&st.snapshot),
        }
    }

    /// Assign roles from overlay degree and wire every leaf to a home.
    fn assign_roles<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C) {
        let n = ctx.num_peers();
        let mut by_degree: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
        by_degree.sort_by_key(|&p| std::cmp::Reverse(ctx.degree(p)));
        let quota = ((n as f64 * SUPER_FRACTION).ceil() as usize).max(1);
        let mut is_super = vec![false; n];
        for &p in by_degree.iter().take(quota) {
            is_super[p.index()] = true;
        }
        // A leaf without a super neighbor promotes itself.
        for p in 0..n {
            if is_super[p] {
                continue;
            }
            let peer = PeerId(p as u32);
            if !ctx.neighbors(peer).iter().any(|&s| is_super[s.index()]) {
                is_super[p] = true;
            }
        }
        for p in 0..n {
            let peer = PeerId(p as u32);
            if is_super[p] {
                self.roles[p] = Role::Super;
                let repo = AdRepository::sharing(self.super_cache_capacity(), &self.store);
                self.nodes[p].repo = Some(repo);
                self.union_interests[p] = ctx.model().interests[p];
                self.stats.supers += 1;
            } else {
                let home = ctx
                    .neighbors(peer)
                    .iter()
                    .copied()
                    .filter(|&s| is_super[s.index()])
                    .max_by_key(|&s| ctx.degree(s))
                    // lint: allow(unwrap, reason=the promotion loop above self-promotes any leaf without a super neighbor)
                    .expect("leaves have super neighbors by construction");
                self.roles[p] = Role::Leaf { home };
                self.stats.leaves += 1;
            }
        }
    }

    /// Leaf (or super, to itself) registers its snapshot with its home.
    fn register_with_home<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C, node: PeerId) {
        let topics = ctx.content().peer_topics(node);
        if topics.is_empty() {
            return; // free riders: nothing to advertise
        }
        let home = self.live_home(ctx, node);
        let snap = self.snapshot_of(node, topics);
        self.stats.registrations += 1;
        if home == node {
            self.accept_registration(ctx, node, snap);
        } else {
            let bytes = HEADER_BYTES
                + WireFilter::size_of(&snap.filter)
                + snap.topics.len() * TOPIC_WIRE_BYTES
                + VERSION_WIRE_BYTES;
            ctx.send(
                node,
                home,
                MsgClass::FullAd,
                bytes,
                SuperMsg::Register { snap },
            );
        }
    }

    /// A super peer takes responsibility for a source and gossips a digest.
    fn accept_registration<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        me: PeerId,
        snap: AdSnapshot,
    ) {
        let entry = (snap.source, snap.topics, snap.version);
        self.union_interests[me.index()] =
            self.union_interests[me.index()].union(ctx.model().interests[snap.source.index()]);
        self.nodes[me.index()]
            .registered
            .insert(snap.source, (snap.topics, snap.version));
        if let Some(repo) = self.nodes[me.index()].repo.as_mut() {
            repo.insert_full(&snap, ctx.now_us());
        }
        // Gossip a single-entry digest for the new/updated source.
        self.send_digest(ctx, me, Rc::from(vec![entry].into_boxed_slice()));
    }

    /// Launch a digest walk over the super-peer subgraph.
    fn send_digest<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        from: PeerId,
        entries: Rc<[(PeerId, InterestSet, u16)]>,
    ) {
        // Same envelope as flat ASAP: M₀ per topic advertised.
        let topics: u32 = entries.iter().map(|e| e.1.len().max(1) as u32).sum();
        let budget = self.config.budget_unit * topics;
        self.stats.digests_sent += 1;
        self.forward_digest(ctx, from, None, entries, budget);
    }

    /// One hop of a digest walk: random live super neighbor.
    fn forward_digest<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        node: PeerId,
        came_from: Option<PeerId>,
        entries: Rc<[(PeerId, InterestSet, u16)]>,
        budget: u32,
    ) {
        if budget == 0 {
            return;
        }
        let candidates: Vec<PeerId> = ctx
            .neighbors(node)
            .iter()
            .copied()
            .filter(|&s| self.is_super(s) && Some(s) != came_from)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let next = candidates[ctx.rng().gen_range(0..candidates.len())];
        let bytes = HEADER_BYTES + entries.len() * (DIGEST_ENTRY_BYTES + TOPIC_WIRE_BYTES);
        ctx.send(
            node,
            next,
            MsgClass::RefreshAd,
            bytes,
            SuperMsg::Digest {
                entries,
                budget: budget - 1,
            },
        );
    }

    /// Digest received at a super peer: fetch anything interesting we lack.
    fn handle_digest<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        me: PeerId,
        from: PeerId,
        entries: Rc<[(PeerId, InterestSet, u16)]>,
        budget: u32,
    ) {
        if self.is_super(me) {
            let now = ctx.now_us();
            let union = self.union_interests[me.index()];
            let mut fetches = Vec::new();
            if let Some(repo) = self.nodes[me.index()].repo.as_mut() {
                for &(source, topics, version) in entries.iter() {
                    if source == me || !topics.intersects(union) {
                        continue;
                    }
                    let needs = match repo.version_of(source) {
                        None => true,
                        Some((held, stale)) => stale || held != version,
                    };
                    if needs {
                        fetches.push(source);
                    } else {
                        repo.apply_refresh(source, version, now);
                    }
                }
            }
            for source in fetches {
                if ctx.alive(source) {
                    self.stats.fetches += 1;
                    ctx.send(me, source, MsgClass::FullAd, HEADER_BYTES, SuperMsg::Fetch);
                }
            }
            self.forward_digest(ctx, me, Some(from), entries, budget);
        }
    }

    /// Repository lookup + confirmations at a super peer on behalf of a
    /// requester; on a miss, ask neighboring super peers.
    fn run_search<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        me: PeerId,
        query: u32,
        requester: PeerId,
        terms: &Rc<[KeywordId]>,
    ) {
        let hashes: Vec<KeyHash> = terms.iter().map(|&k| self.kw_hashes[k.index()]).collect();
        let now = ctx.now_us();
        // Without timers there is no second confirm round, so supers confirm
        // a triple-width batch up front — they are the capable nodes, and a
        // confirmation is ~50 B.
        let fanout = MAX_CONFIRM_FANOUT * 3;
        let candidates = match self.nodes[me.index()].repo.as_mut() {
            Some(repo) => repo.lookup(&hashes, now, 0),
            None => Vec::new(),
        };
        let mut sent = 0;
        for source in candidates {
            if sent >= fanout {
                break;
            }
            if source == requester {
                continue;
            }
            if source == me {
                // Our own content matched: verdict without a network hop
                // (the reply to the requester still travels).
                let results = ctx.content().matching_docs(me, terms).count() as u32;
                if results > 0 && requester != me {
                    ctx.send(
                        me,
                        requester,
                        MsgClass::ConfirmReply,
                        confirm_reply_size(results as usize),
                        SuperMsg::ConfirmReply { query, results },
                    );
                    sent += 1;
                }
                continue;
            }
            ctx.send(
                me,
                source,
                MsgClass::Confirm,
                confirm_size(terms.len()),
                SuperMsg::Confirm {
                    query,
                    requester,
                    terms: Rc::clone(terms),
                },
            );
            sent += 1;
        }
        if sent > 0 {
            self.stats.super_local_hits += 1;
        }
        // Thin or empty candidate sets also consult neighboring super peers
        // (one term-filtered round): without timers this variant cannot
        // react to all-negative confirmations, so it hedges up front when
        // the local evidence is weak.
        if sent >= fanout / 2 && sent > 0 {
            return;
        }
        self.stats.super_fallbacks += 1;
        let mut supers: Vec<PeerId> = ctx
            .neighbors(me)
            .iter()
            .copied()
            .filter(|&s| self.is_super(s))
            .collect();
        // Hubs can have dozens of super neighbors; a handful of randomly
        // chosen ones bounds the fallback fan-out.
        const FALLBACK_FANOUT: usize = 6;
        spread::pick_front(ctx.rng(), &mut supers, FALLBACK_FANOUT);
        supers.truncate(FALLBACK_FANOUT);
        let bytes = ads_request_size(terms.len());
        for s in supers {
            ctx.send(
                me,
                s,
                MsgClass::AdsRequest,
                bytes,
                SuperMsg::AdsRequest {
                    query,
                    requester,
                    terms: Rc::clone(terms),
                },
            );
        }
    }
}

impl Protocol for SuperAsap {
    type Msg = SuperMsg;

    fn on_init<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C) {
        self.assign_roles(ctx);
        self.initialized = true;
        // Stagger registrations like flat ASAP's warm-up wave.
        let stagger = self.config.warmup_stagger_us.max(1);
        for p in 0..ctx.num_peers() as u32 {
            let peer = PeerId(p);
            if ctx.alive(peer) {
                let delay = ctx.rng().gen_range(0..stagger);
                ctx.set_timer(peer, delay, 0);
            }
        }
    }

    fn on_timer<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        match tag {
            0 => {
                self.register_with_home(ctx, node);
                // Supers gossip their whole registered set periodically —
                // the hierarchy's analogue of flat ASAP's refresh rounds.
                if self.is_super(node) {
                    let base = self.config.refresh_interval_us;
                    let jitter = ctx.rng().gen_range(0..base / 4 + 1);
                    ctx.set_timer(node, base + jitter, 1);
                }
            }
            _ => {
                let entries: Vec<(PeerId, InterestSet, u16)> = self.nodes[node.index()]
                    .registered
                    .iter()
                    .map(|(&src, &(topics, version))| (src, topics, version))
                    .collect();
                if !entries.is_empty() {
                    self.send_digest(ctx, node, Rc::from(entries.into_boxed_slice()));
                }
                let base = self.config.refresh_interval_us;
                let next = ctx.rng().gen_range(base - base / 4..=base + base / 4);
                ctx.set_timer(node, next, 1);
            }
        }
    }

    fn on_query<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        let terms: Rc<[KeywordId]> = q.terms.clone().into();
        let home = self.live_home(ctx, q.requester);
        if home == q.requester {
            self.run_search(ctx, home, q.id, q.requester, &terms);
        } else {
            self.stats.leaf_queries_forwarded += 1;
            ctx.send(
                q.requester,
                home,
                MsgClass::Query,
                query_size(terms.len()),
                SuperMsg::QueryAsk {
                    query: q.id,
                    requester: q.requester,
                    terms,
                },
            );
        }
    }

    fn on_message<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: SuperMsg,
    ) {
        match msg {
            SuperMsg::Register { snap } => self.accept_registration(ctx, to, snap),
            SuperMsg::Digest { entries, budget } => {
                self.handle_digest(ctx, to, from, entries, budget)
            }
            SuperMsg::Fetch => {
                let topics = ctx.content().peer_topics(to);
                if topics.is_empty() {
                    return;
                }
                let snap = self.snapshot_of(to, topics);
                let bytes = HEADER_BYTES
                    + WireFilter::size_of(&snap.filter)
                    + snap.topics.len() * TOPIC_WIRE_BYTES
                    + VERSION_WIRE_BYTES;
                ctx.send(
                    to,
                    from,
                    MsgClass::FullAd,
                    bytes,
                    SuperMsg::FetchReply { snap },
                );
            }
            SuperMsg::FetchReply { snap } => {
                let now = ctx.now_us();
                if let Some(repo) = self.nodes[to.index()].repo.as_mut() {
                    repo.insert_full(&snap, now);
                }
            }
            SuperMsg::QueryAsk {
                query,
                requester,
                terms,
            } => self.run_search(ctx, to, query, requester, &terms),
            SuperMsg::Confirm {
                query,
                requester,
                terms,
            } => {
                let results = ctx.content().matching_docs(to, &terms).count() as u32;
                ctx.send(
                    to,
                    requester,
                    MsgClass::ConfirmReply,
                    confirm_reply_size(results as usize),
                    SuperMsg::ConfirmReply { query, results },
                );
            }
            SuperMsg::ConfirmReply { query, results } => {
                if results > 0 {
                    ctx.report_answer(query);
                }
            }
            SuperMsg::AdsRequest {
                query,
                requester,
                terms,
            } => {
                let hashes: Vec<KeyHash> =
                    terms.iter().map(|&k| self.kw_hashes[k.index()]).collect();
                let now = ctx.now_us();
                // Term-filtered: a few candidates suffice (each ad carries
                // a full filter).
                let max = 4;
                let ads = match self.nodes[to.index()].repo.as_mut() {
                    Some(repo) => repo.snapshots_matching(&hashes, now, 0, max),
                    None => Vec::new(),
                };
                if !ads.is_empty() {
                    let payload: usize = ads.iter().map(AdSnapshot::encoded_size).sum();
                    ctx.send(
                        to,
                        from,
                        MsgClass::AdsReply,
                        ads_reply_size(payload),
                        SuperMsg::AdsReply {
                            query,
                            requester,
                            terms,
                            ads,
                        },
                    );
                }
            }
            SuperMsg::AdsReply {
                query,
                requester,
                terms,
                ads,
            } => {
                // Merge into our repository, then confirm on behalf of the
                // requester — the reply was term-filtered, so every ad is a
                // candidate.
                let now = ctx.now_us();
                let fanout = MAX_CONFIRM_FANOUT;
                if let Some(repo) = self.nodes[to.index()].repo.as_mut() {
                    for snap in &ads {
                        repo.insert_full(snap, now);
                    }
                }
                for snap in ads.iter().take(fanout) {
                    if snap.source == requester || snap.source == to {
                        continue;
                    }
                    ctx.send(
                        to,
                        snap.source,
                        MsgClass::Confirm,
                        confirm_size(terms.len()),
                        SuperMsg::Confirm {
                            query,
                            requester,
                            terms: Rc::clone(&terms),
                        },
                    );
                }
            }
        }
    }

    fn on_join<C: Transport<Msg = SuperMsg>>(&mut self, ctx: &mut C, node: PeerId) {
        if self.initialized {
            self.register_with_home(ctx, node);
        }
    }

    fn on_content_change<C: Transport<Msg = SuperMsg>>(
        &mut self,
        ctx: &mut C,
        peer: PeerId,
        _doc: DocId,
        _added: bool,
    ) {
        let docs = ctx.content().peer_docs(peer);
        let filter = own_filter(self.config.bloom, &self.kw_hashes, ctx.model(), docs, &[]);
        let st = &mut self.nodes[peer.index()];
        st.version = st.version.wrapping_add(1);
        if *st.snapshot != filter {
            st.snapshot = Rc::new(filter);
        }
        self.register_with_home(ctx, peer);
    }

    /// Every node keeps `node_violation`'s invariants — a super peer
    /// caches its own registration, so its own ad is legal, and its cache
    /// holds up to four times the flat capacity — and has a repository
    /// exactly when it is a super peer of an initialised hierarchy.
    fn validate<C: Transport<Msg = SuperMsg>>(&self, ctx: &C) -> Vec<Violation> {
        let (bloom, now) = (self.config.bloom, ctx.now_us());
        let nodes = self.nodes.iter().enumerate().filter_map(|(i, st)| {
            let node = PeerId(i as u32);
            let docs = ctx.content().peer_docs(node);
            let truth = || own_filter(bloom, &self.kw_hashes, ctx.model(), docs, &[]);
            let kind = if st.repo.is_some() != (self.initialized && self.is_super(node)) {
                Some("repository does not match the peer's role")
            } else {
                node_violation(bloom, &st.snapshot, st.repo.as_ref(), None, now, truth)
            };
            Some(Violation {
                node: Some(node),
                kind: kind?,
            })
        });
        nodes.collect()
    }
}

// --- checkpoint codec (and, through `SuperMsg`, the wire payload) -----------

codec_enum!(Role { 0 => Super, 1 => Leaf { home } });
codec_enum!(SuperMsg {
    0 => Register { snap },
    1 => Digest { entries, budget },
    2 => Fetch,
    3 => FetchReply { snap },
    4 => QueryAsk { query, requester, terms },
    5 => Confirm { query, requester, terms },
    6 => ConfirmReply { query, results },
    7 => AdsRequest { query, requester, terms },
    8 => AdsReply { query, requester, terms, ads },
});
codec_struct!(SuperStats {
    supers,
    leaves,
    registrations,
    digests_sent,
    fetches,
    leaf_queries_forwarded,
    super_local_hits,
    super_fallbacks,
});

impl CheckpointProtocol for SuperAsap {
    /// Each node's record: its own filter, version, a super peer's cache
    /// as entries into the filter table written before the nodes, and its
    /// registered dependents ascending by source.
    fn encode_state(&self, enc: &mut Encoder) {
        self.roles.put(enc);
        let store = self.store.borrow();
        let table = FilterTable::number_filters(
            &store,
            self.nodes.iter().filter_map(|st| st.repo.as_ref()),
        );
        table.put_table(enc);
        enc.put_len(self.nodes.len());
        for st in &self.nodes {
            st.snapshot.put(enc);
            st.version.put(enc);
            enc.put_bool(st.repo.is_some());
            if let Some(repo) = &st.repo {
                table.put_repo(repo, enc);
            }
            st.registered.put(enc);
        }
        self.union_interests.put(enc);
        self.stats.put(enc);
        self.initialized.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let roles: Vec<Role> = Codec::pull(dec)?;
        let mut table = TableReader::pull_table(dec)?;
        let n = self.nodes.len();
        if roles.len() != n || dec.get_len()? != n {
            return Err(CodecError::Invalid("node count mismatch"));
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(NodeState {
                snapshot: table.pull_node_filter(dec)?,
                version: Codec::pull(dec)?,
                repo: (dec.get_bool()?)
                    .then(|| table.pull_repo(dec, self.super_cache_capacity()))
                    .transpose()?,
                registered: Codec::pull(dec)?,
            });
        }
        let unions: Vec<InterestSet> = Codec::pull(dec)?;
        if unions.len() != n {
            return Err(CodecError::Invalid("node count mismatch"));
        }
        let store = table.into_store()?;
        (self.stats, self.initialized) = Codec::pull(dec)?;
        (self.roles, self.nodes, self.union_interests) = (roles, nodes, unions);
        self.store = store;
        Ok(())
    }
}
