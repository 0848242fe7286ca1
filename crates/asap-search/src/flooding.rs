//! Gnutella-style flooding ("The TTL for flooding is set to 6").
//!
//! The requester sends the query to every neighbor; each node forwards a
//! first-seen query to all neighbors but the sender until the TTL expires.
//! Matching nodes return a hit directly to the requester.

use crate::common::{
    absorb_hit, arm_retransmit, reply_if_match, retransmit_due, BaselineMsg, Retransmit,
    RetransmitTable, SeenTracker,
};
use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_sim::{query_size, spread, Protocol, Transport};
use asap_workload::{KeywordId, QuerySpec};
use std::rc::Rc;

/// Hop limit (paper: "The TTL for flooding is set to 6").
pub const FLOOD_TTL: u8 = 6;
/// Duplicate-suppression window in queries: 256 queries ≈ 32 s at λ = 8/s
/// comfortably outlives a TTL-6 flood.
pub const SEEN_WINDOW: usize = 256;

/// Flooding parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodingConfig {
    /// Optional TTL-respecting retransmission of unanswered queries
    /// (`None`, the default, arms no timers — the paper's behavior).
    pub retransmit: Option<Retransmit>,
}

/// The flooding baseline protocol.
#[derive(Debug)]
pub struct Flooding {
    pub(crate) config: FloodingConfig,
    pub(crate) seen: SeenTracker,
    pub(crate) retrans: RetransmitTable,
}

impl Flooding {
    pub fn new(config: FloodingConfig) -> Self {
        Self {
            seen: SeenTracker::new(SEEN_WINDOW),
            retrans: RetransmitTable::default(),
            config,
        }
    }

    fn fan_out<C: Transport<Msg = BaselineMsg>>(
        ctx: &mut C,
        node: PeerId,
        exclude: Option<PeerId>,
        query: u32,
        requester: PeerId,
        terms: &Rc<[KeywordId]>,
        ttl: u8,
    ) {
        let bytes = query_size(terms.len());
        let msg = BaselineMsg::Flood {
            query,
            requester,
            terms: Rc::clone(terms),
            ttl,
        };
        let send = |ctx: &mut C, t| ctx.send(node, t, MsgClass::Query, bytes, msg.clone());
        let fanout = spread::fan_out(ctx, node, |t| Some(t) != exclude, send);
        ctx.trace(|| asap_sim::trace::Event::FloodFanout {
            id: query,
            node,
            ttl: u32::from(ttl),
            fanout,
        });
    }
}

impl Protocol for Flooding {
    type Msg = BaselineMsg;

    fn on_query<C: Transport<Msg = BaselineMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        let terms: Rc<[KeywordId]> = q.terms.clone().into();
        // The requester is marked visited so reflected floods die instantly.
        self.seen.first_visit(q.id, q.requester);
        Self::fan_out(ctx, q.requester, None, q.id, q.requester, &terms, FLOOD_TTL);
        arm_retransmit(&mut self.retrans, ctx, self.config.retransmit, q, terms);
    }

    fn on_message<C: Transport<Msg = BaselineMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: BaselineMsg,
    ) {
        match msg {
            BaselineMsg::Flood {
                query,
                requester,
                terms,
                ttl,
            } => {
                if !self.seen.first_visit(query, to) {
                    ctx.count(RetryStat::DuplicatesSuppressed);
                    return; // duplicate
                }
                reply_if_match(ctx, to, requester, query, &terms);
                if ttl > 1 {
                    Self::fan_out(ctx, to, Some(from), query, requester, &terms, ttl - 1);
                }
            }
            BaselineMsg::Hit { query, .. } => absorb_hit(ctx, query),
            other => unreachable!("flooding got {other:?}"),
        }
    }

    fn on_timer<C: Transport<Msg = BaselineMsg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        // The seen tracker still remembers everyone the first wave reached,
        // so the re-flood only probes the subtrees the lost copies never
        // covered.
        retransmit_due(&mut self.retrans, ctx, node, tag, |ctx, query, terms| {
            Self::fan_out(ctx, node, None, query, node, terms, FLOOD_TTL)
        });
    }

    fn on_leave<C: Transport<Msg = BaselineMsg>>(&mut self, _ctx: &mut C, node: PeerId) {
        // Abandon retransmission of searches the leaving node was running.
        self.retrans.retain(|_, s| s.requester != node);
    }

    /// Flooding's only cross-event state is the duplicate-suppression
    /// tracker, whose live-key count must respect its window.
    fn audit_invariants<C: Transport<Msg = BaselineMsg>>(&self, _ctx: &C) -> Vec<String> {
        let mut violations = Vec::new();
        if self.seen.tracked_queries() > SEEN_WINDOW {
            violations.push(format!(
                "seen tracker holds {} queries, window is {SEEN_WINDOW}",
                self.seen.tracked_queries(),
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::world;
    use asap_overlay::OverlayKind;
    use asap_sim::Simulation;

    #[test]
    fn flooding_finds_most_targets() {
        let (phys, workload, overlay) = world(150, 200, 31);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            31,
        )
        .run();
        // Flooding with TTL 6 over a 150-node degree-5 overlay reaches
        // essentially everyone: the paper reports a high success rate.
        assert!(
            report.ledger.success_rate() > 0.9,
            "success {}",
            report.ledger.success_rate()
        );
    }

    #[test]
    fn flooding_message_count_scales_with_network() {
        let (phys, workload, overlay) = world(150, 50, 32);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            32,
        )
        .run();
        let queries = report.ledger.num_queries() as u64;
        // Every flood touches on the order of the whole overlay.
        assert!(
            report.messages_sent > queries * 100,
            "{} messages for {queries} queries",
            report.messages_sent
        );
    }

    /// Query-class messages per search on a hand-built, churn-free overlay.
    fn query_messages_per_search(adj: Vec<Vec<PeerId>>) -> u64 {
        use asap_topology::{PhysicalNetwork, TransitStubConfig};
        use asap_workload::WorkloadConfig;
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(34));
        let workload = asap_workload::generate(&WorkloadConfig {
            joins: 0,
            leaves: 0,
            ..WorkloadConfig::reduced(adj.len(), 40, 34)
        });
        let report = Simulation::builder(
            &phys,
            &workload,
            asap_overlay::Overlay::from_adjacency(adj).expect("an undirected graph"),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            34,
        )
        .run();
        let sent = report.load.class_message_totals()[MsgClass::Query.index()];
        let searches = report.ledger.num_queries() as u64;
        assert_eq!(
            sent % searches,
            0,
            "{sent} messages over {searches} searches"
        );
        sent / searches
    }

    /// The closed forms Biernacki (PAPERS.md) validates a flooding simulator
    /// against. Exact, not approximate: latencies are shortest-path, so the
    /// origin's copy never arrives after a relayed one, and ties dispatch in
    /// send order — every node forwards exactly once, to all but the sender.
    #[test]
    fn message_count_matches_the_closed_form_on_ring_and_clique() {
        // Two arms of `FLOOD_TTL` hops each, which on n > 2 · TTL peers
        // never meet.
        for n in [13u32, 16, 24] {
            let ring = (0..n)
                .map(|i| vec![PeerId((i + n - 1) % n), PeerId((i + 1) % n)])
                .collect();
            let sent = query_messages_per_search(ring);
            assert_eq!(sent, 2 * u64::from(FLOOD_TTL), "ring of {n}");
        }
        // K_n: n − 1 first-wave sends, then each receiver forwards to the
        // other n − 2, all suppressed as duplicates on arrival.
        for n in [4u32, 6, 9] {
            let clique = (0..n)
                .map(|i| (0..n).filter(|&j| j != i).map(PeerId).collect())
                .collect();
            let sent = query_messages_per_search(clique);
            assert_eq!(sent, u64::from((n - 1) * (n - 1)), "K_{n}");
        }
    }
}
