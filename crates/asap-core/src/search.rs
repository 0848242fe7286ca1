//! The ASAP search path (paper Table I / §III-C).
//!
//! 1. **Local lookup**: scan the ads cache for filters containing every
//!    query term; send a content *confirmation* to each matching source
//!    (bounded fan-out). One positive reply completes the search in one hop.
//! 2. **Fallback**: if the lookup found nothing — or every confirmation came
//!    back negative / timed out (source offline, Bloom false positive,
//!    cross-document term split) — request ads from neighbors within `h`
//!    hops, merge the replies, and confirm any new matches.
//!
//! The same ads-request mechanism warms the cache of a (re)joining node.

use crate::ad::{AdSnapshot, AsapMsg};
use crate::protocol::{Asap, TAG_QUERY_BASE};
use crate::retry::Backoff;
use asap_bloom::hashing::KeyHash;
use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_sim::collections::DetHashSet;
use asap_sim::{
    ads_reply_size, ads_request_size, confirm_reply_size, confirm_size, spread, Transport,
};
use asap_workload::{InterestSet, KeywordId, QuerySpec};
use std::rc::Rc;

/// Most confirmations sent per lookup round.
pub const MAX_CONFIRM_FANOUT: usize = 8;
/// How long the requester waits for confirmations before falling back to
/// the ads-request round, µs.
pub const CONFIRM_TIMEOUT_US: u64 = 2_000_000;

/// Search phase of a pending query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for confirmations from the initial local lookup.
    Confirming,
    /// Ads-request round issued; waiting for replies/confirmations.
    Fallback,
}

/// Requester-side state of an active search.
pub(crate) struct PendingSearch {
    pub requester: PeerId,
    pub terms: Rc<[KeywordId]>,
    pub term_hashes: Vec<KeyHash>,
    pub answered: bool,
    pub phase: Phase,
    /// Sources with an unacknowledged confirmation in flight (one entry per
    /// source; a duplicated reply finds its source absent and is suppressed
    /// instead of corrupting the round accounting).
    pub in_flight: Vec<PeerId>,
    /// Sources already confirmed this search (no duplicates).
    pub confirmed: DetHashSet<PeerId>,
    /// Matching candidates not yet confirmed (next batches; the paper
    /// confirms every matching ad, we pace them in fan-out-sized rounds).
    pub backlog: Vec<PeerId>,
    /// Confirm-retransmission budget (inert unless
    /// `config.robustness.confirm_retries > 0`).
    pub backoff: Backoff,
}

fn timeout_tag(query: u32, phase: Phase) -> u64 {
    TAG_QUERY_BASE + u64::from(query) * 2 + u64::from(phase == Phase::Fallback)
}

/// Entry point: a query was issued at its requester.
pub(crate) fn start_query<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    q: &QuerySpec,
) {
    let terms: Rc<[KeywordId]> = q.terms.clone().into();
    let term_hashes: Vec<KeyHash> = q.terms.iter().map(|&k| asap.hash_of(k)).collect();

    let expire = asap.expire_before(ctx.now_us());
    let candidates =
        asap.nodes[q.requester.index()]
            .repo
            .lookup(&term_hashes, ctx.now_us(), expire);

    let mut pending = PendingSearch {
        requester: q.requester,
        terms,
        term_hashes,
        answered: false,
        phase: Phase::Confirming,
        in_flight: Vec::new(),
        confirmed: DetHashSet::default(),
        backlog: Vec::new(),
        backoff: asap.config.robustness.confirm_backoff(),
    };

    if candidates.is_empty() {
        asap.pending.insert(q.id, pending);
        begin_fallback(asap, ctx, q.id);
        return;
    }

    asap.stats.local_lookup_hits += 1;
    let id = q.id;
    let node = q.requester;
    let hits = candidates.len() as u32;
    ctx.trace(|| asap_sim::trace::Event::QueryLocalHits { id, node, hits });
    send_confirms(asap, ctx, &mut pending, q.id, &candidates);
    asap.pending.insert(q.id, pending);
    ctx.set_timer(
        q.requester,
        CONFIRM_TIMEOUT_US,
        timeout_tag(q.id, Phase::Confirming),
    );
}

/// Confirm up to [`MAX_CONFIRM_FANOUT`] fresh candidates; the rest queue on
/// the backlog for the next round. Returns how many confirmations went out.
fn send_confirms<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    pending: &mut PendingSearch,
    query: u32,
    candidates: &[PeerId],
) -> usize {
    let mut sent = 0;
    for &source in candidates {
        if sent >= MAX_CONFIRM_FANOUT {
            if source != pending.requester && !pending.confirmed.contains(&source) {
                pending.backlog.push(source);
            }
            continue;
        }
        if source == pending.requester || !pending.confirmed.insert(source) {
            continue;
        }
        asap.stats.confirms_sent += 1;
        ctx.send(
            pending.requester,
            source,
            MsgClass::Confirm,
            confirm_size(pending.terms.len()),
            AsapMsg::Confirm {
                query,
                requester: pending.requester,
                terms: Rc::clone(&pending.terms),
            },
        );
        pending.in_flight.push(source);
        sent += 1;
    }
    if sent > 0 {
        let node = pending.requester;
        let targets = sent as u32;
        ctx.trace(|| asap_sim::trace::Event::ConfirmSent {
            id: query,
            node,
            targets,
        });
    }
    sent
}

/// Issue the neighbor ads-request round for `node`. Returns requests sent.
pub(crate) fn send_ads_request<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    query: Option<u32>,
    terms: Option<Rc<[KeywordId]>>,
) -> u32 {
    let interests = ctx.model().interests[node.index()];
    let hops = asap.config.ads_request_hops;
    let bytes = ads_request_size(interests.len())
        + terms
            .as_ref()
            .map_or(0, |t| t.len() * asap_sim::KEYWORD_WIRE_BYTES);
    let msg = AsapMsg::AdsRequest {
        requester: node,
        interests,
        hops,
        query,
        terms,
    };
    let send = |ctx: &mut C, t| ctx.send(node, t, MsgClass::AdsRequest, bytes, msg.clone());
    spread::fan_out(ctx, node, |_| true, send)
}

/// Move a pending search into the fallback round.
fn begin_fallback<C: Transport<Msg = AsapMsg>>(asap: &mut Asap, ctx: &mut C, query: u32) {
    let Some(p) = asap.pending.get_mut(&query) else {
        return;
    };
    let requester = p.requester;
    let terms = Rc::clone(&p.terms);
    p.phase = Phase::Fallback;
    asap.stats.fallback_rounds += 1;
    ctx.trace(|| asap_sim::trace::Event::QueryFallback {
        id: query,
        node: requester,
    });
    let sent = send_ads_request(asap, ctx, requester, Some(query), Some(terms));
    if sent == 0 {
        // Isolated node: nothing more to try.
        close_search(asap, ctx, query);
        return;
    }
    ctx.set_timer(
        requester,
        CONFIRM_TIMEOUT_US,
        timeout_tag(query, Phase::Fallback),
    );
}

/// A neighbor asked for interesting ads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_ads_request<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    from: PeerId,
    requester: PeerId,
    interests: InterestSet,
    hops: u8,
    query: Option<u32>,
    terms: Option<Rc<[KeywordId]>>,
) {
    if node != requester {
        let now = ctx.now_us();
        let expire = asap.expire_before(now);
        let hashes: Option<Vec<KeyHash>> = terms
            .as_ref()
            .map(|t| t.iter().map(|&k| asap.hash_of(k)).collect());
        // A query-driven reply only needs to name a confirm-round's worth of
        // candidates (each ≈ a full filter!); join warm-ups ship the larger
        // interest-filtered batch. `max_ads_per_reply = 0` mutes replies
        // entirely (the no-fallback ablation).
        let query_cap = MAX_CONFIRM_FANOUT.min(asap.config.max_ads_per_reply);
        let warmup_cap = asap.config.max_ads_per_reply;
        let repo = &mut asap.nodes[node.index()].repo;
        let ads = match &hashes {
            Some(hashes) => repo.snapshots_matching(hashes, now, expire, query_cap),
            None => repo.ads_for_interests(interests, warmup_cap),
        };
        let ads: Vec<AdSnapshot> = ads.into_iter().filter(|a| a.source != requester).collect();
        if !ads.is_empty() {
            let payload: usize = ads.iter().map(AdSnapshot::encoded_size).sum();
            ctx.send(
                node,
                requester,
                MsgClass::AdsReply,
                ads_reply_size(payload),
                AsapMsg::AdsReply { ads, query },
            );
        }
    }
    // Propagate within the h-hop scope.
    if hops > 1 {
        let bytes = ads_request_size(interests.len());
        let msg = AsapMsg::AdsRequest {
            requester,
            interests,
            hops: hops - 1,
            query,
            terms,
        };
        let send = |ctx: &mut C, t| ctx.send(node, t, MsgClass::AdsRequest, bytes, msg.clone());
        spread::fan_out(ctx, node, |n| n != from && n != requester, send);
    }
}

/// Requester received a batch of cached ads.
pub(crate) fn handle_ads_reply<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    ads: Vec<AdSnapshot>,
    query: Option<u32>,
) {
    let now = ctx.now_us();
    {
        let st = &mut asap.nodes[node.index()];
        for snap in &ads {
            if snap.source != node {
                st.repo.insert_full(snap, now);
            }
        }
    }
    // "After this, the search is repeated by looking up the replied ads for
    // more possible hits."
    let Some(qid) = query else {
        return;
    };
    // Take the search out of the table while we work on it; every path
    // below that keeps it alive puts it back.
    let Some(mut p) = asap.pending.remove(&qid) else {
        return;
    };
    if p.answered || p.requester != node {
        asap.pending.insert(qid, p);
        return;
    }
    let expire = asap.expire_before(now);
    let candidates = asap.nodes[node.index()]
        .repo
        .lookup(&p.term_hashes, now, expire);
    send_confirms(asap, ctx, &mut p, qid, &candidates);
    asap.pending.insert(qid, p);
}

/// An ad's source checks its **actual** content ("node p needs to send the
/// request to node q for content confirmation").
pub(crate) fn handle_confirm<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    requester: PeerId,
    query: u32,
    terms: &Rc<[KeywordId]>,
) {
    let _ = asap;
    let results = ctx
        .content()
        .matching_docs(ctx.model(), node, terms)
        .count() as u32;
    ctx.send(
        node,
        requester,
        MsgClass::ConfirmReply,
        confirm_reply_size(results as usize),
        AsapMsg::ConfirmReply { query, results },
    );
}

/// Requester received a confirmation verdict.
pub(crate) fn handle_confirm_reply<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    from: PeerId,
    query: u32,
    results: u32,
) {
    ctx.trace(|| asap_sim::trace::Event::ConfirmResult {
        id: query,
        node,
        positive: results > 0,
    });
    if results > 0 {
        asap.stats.confirms_positive += 1;
        ctx.report_answer(query);
    } else {
        // Confirmation failure: the advertised content isn't actually there
        // (content churn, a Bloom false positive — or a poisoned spam ad).
        asap.stats.confirms_negative += 1;
    }
    let Some(mut p) = asap.pending.remove(&query) else {
        return; // late reply after the search closed — still counted above
    };
    if p.requester != node {
        asap.pending.insert(query, p);
        return;
    }
    if results > 0 {
        p.answered = true;
    }
    match p.in_flight.iter().position(|&s| s == from) {
        Some(i) => {
            p.in_flight.remove(i);
        }
        None => {
            // A fault-layer duplicate or a retransmit's second answer: this
            // source is already acknowledged, don't unbalance the round.
            ctx.count(RetryStat::DuplicatesSuppressed);
        }
    }
    let round_exhausted = p.in_flight.is_empty() && !p.answered;
    if !round_exhausted || p.backlog.is_empty() {
        // Every local candidate was a false positive or lost its content:
        // fall back without waiting for the timer.
        let fall_back = round_exhausted && p.phase == Phase::Confirming;
        asap.pending.insert(query, p);
        if fall_back {
            begin_fallback(asap, ctx, query);
        }
        return;
    }
    // Confirm the next batch of local candidates before falling back.
    let batch = std::mem::take(&mut p.backlog);
    let sent = send_confirms(asap, ctx, &mut p, query, &batch);
    let done = sent == 0;
    let phase = p.phase;
    asap.pending.insert(query, p);
    if done && phase == Phase::Confirming {
        begin_fallback(asap, ctx, query);
    }
}

/// A query timer fired at the requester.
pub(crate) fn handle_timeout<C: Transport<Msg = AsapMsg>>(
    asap: &mut Asap,
    ctx: &mut C,
    node: PeerId,
    tag: u64,
) {
    debug_assert!(tag >= TAG_QUERY_BASE);
    let rel = tag - TAG_QUERY_BASE;
    let query = (rel / 2) as u32;
    let fallback_phase = rel % 2 == 1;
    let Some(p) = asap.pending.get(&query) else {
        return;
    };
    if p.requester != node {
        return;
    }
    if fallback_phase || p.answered {
        // The round ran its course; the search is over either way (answers,
        // if any, are already in the ledger).
        close_search(asap, ctx, query);
    } else if p.phase == Phase::Confirming {
        // Confirmations went unanswered. With a retry budget, retransmit the
        // confirm to every unacknowledged source before giving up on them
        // (the inert default yields no budget and falls back immediately,
        // preserving the paper's behavior and the fault-free digests).
        let Some(mut p) = asap.pending.remove(&query) else {
            return;
        };
        if !p.in_flight.is_empty() {
            if let Some(delay) = p.backoff.next() {
                for &source in &p.in_flight {
                    asap.stats.confirms_sent += 1;
                    ctx.count(RetryStat::Retries);
                    ctx.send(
                        p.requester,
                        source,
                        MsgClass::Confirm,
                        confirm_size(p.terms.len()),
                        AsapMsg::Confirm {
                            query,
                            requester: p.requester,
                            terms: Rc::clone(&p.terms),
                        },
                    );
                }
                ctx.set_timer(p.requester, delay, timeout_tag(query, Phase::Confirming));
                asap.pending.insert(query, p);
                return;
            }
        }
        asap.pending.insert(query, p);
        begin_fallback(asap, ctx, query);
    }
}

/// Close a search: drop its state and account every confirmation still in
/// flight as lost (its reply never arrived while the search was open —
/// a dead source fault-free, possibly a dropped message under faults).
fn close_search<C: Transport<Msg = AsapMsg>>(asap: &mut Asap, ctx: &mut C, query: u32) {
    if let Some(p) = asap.pending.remove(&query) {
        for _ in &p.in_flight {
            ctx.count(RetryStat::ConfirmationsLost);
        }
    }
}
