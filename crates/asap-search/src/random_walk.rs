//! Random walk ("5 walkers are used each running with TTL=1024").
//!
//! Walkers step to a uniformly random neighbor (avoiding an immediate
//! backtrack when possible), checking content at every visited node. Cost is
//! tightly bounded — walkers × TTL messages — which is why the paper finds
//! its load lowest but its success rate poor under 1.28-copy replication.

use crate::common::{
    absorb_hit, arm_retransmit, reply_if_match, retransmit_due, BaselineMsg, Retransmit,
    RetransmitTable,
};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{query_size, spread, Protocol, Transport};
use asap_workload::{KeywordId, QuerySpec};
use std::rc::Rc;

/// Random-walk parameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkConfig {
    /// Parallel walkers per query (paper: 5).
    pub walkers: usize,
    /// Steps per walker (paper: 1024).
    pub ttl: u16,
    /// Optional relaunch of the walker set for unanswered queries
    /// (`None`, the default, arms no timers — the paper's behavior).
    pub retransmit: Option<Retransmit>,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        Self {
            walkers: 5,
            ttl: 1024,
            retransmit: None,
        }
    }
}

/// The random-walk baseline protocol.
#[derive(Debug)]
pub struct RandomWalk {
    pub(crate) config: RandomWalkConfig,
    pub(crate) retrans: RetransmitTable,
}

impl RandomWalk {
    pub fn new(config: RandomWalkConfig) -> Self {
        assert!(config.walkers >= 1, "need at least one walker");
        assert!(config.ttl >= 1, "walkers need a positive TTL");
        Self {
            config,
            retrans: RetransmitTable::default(),
        }
    }

    /// Forward a walker one step: uniform neighbor, avoiding the node we
    /// just came from unless it is the only option.
    fn step<C: Transport<Msg = BaselineMsg>>(
        ctx: &mut C,
        node: PeerId,
        came_from: Option<PeerId>,
        query: u32,
        requester: PeerId,
        terms: &Rc<[KeywordId]>,
        ttl: u16,
    ) {
        let Some(next) = spread::walk_next(ctx, node, came_from) else {
            return; // walker dies at an isolated node
        };
        ctx.trace(|| asap_sim::trace::Event::WalkStep {
            id: query,
            node,
            ttl: u32::from(ttl),
        });
        ctx.send(
            node,
            next,
            MsgClass::Query,
            query_size(terms.len()),
            BaselineMsg::Walk {
                query,
                requester,
                terms: Rc::clone(terms),
                ttl,
            },
        );
    }
}

impl Protocol for RandomWalk {
    type Msg = BaselineMsg;

    fn on_query<C: Transport<Msg = BaselineMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        let terms: Rc<[KeywordId]> = q.terms.clone().into();
        for _ in 0..self.config.walkers {
            Self::step(
                ctx,
                q.requester,
                None,
                q.id,
                q.requester,
                &terms,
                self.config.ttl,
            );
        }
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
            BaselineMsg::Walk {
                query,
                requester,
                terms,
                ttl,
            } => {
                reply_if_match(ctx, to, requester, query, &terms);
                if ttl > 1 {
                    Self::step(ctx, to, Some(from), query, requester, &terms, ttl - 1);
                }
            }
            BaselineMsg::Hit { query, .. } => absorb_hit(ctx, query),
            other => unreachable!("random walk got {other:?}"),
        }
    }

    fn on_timer<C: Transport<Msg = BaselineMsg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        // Relaunch the full walker set with fresh TTLs: walkers are
        // memoryless, so a new cohort explores independently.
        retransmit_due(&mut self.retrans, ctx, node, tag, |ctx, query, terms| {
            for _ in 0..self.config.walkers {
                Self::step(ctx, node, None, query, node, terms, self.config.ttl);
            }
        });
    }

    fn on_leave<C: Transport<Msg = BaselineMsg>>(&mut self, _ctx: &mut C, node: PeerId) {
        // Abandon retransmission of searches the leaving node was running.
        self.retrans.retain(|_, s| s.requester != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::world;
    use asap_overlay::OverlayKind;
    use asap_sim::Simulation;

    fn run(walkers: usize, ttl: u16, seed: u64) -> asap_sim::SimReport<RandomWalk> {
        let (phys, workload, overlay) = world(150, 100, seed);
        Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            RandomWalk::new(RandomWalkConfig {
                walkers,
                ttl,
                retransmit: None,
            }),
            seed,
        )
        .run()
    }

    #[test]
    fn cost_is_bounded_by_walkers_times_ttl() {
        let report = run(5, 64, 41);
        let queries = report.ledger.num_queries() as u64;
        // Query messages ≤ walkers × ttl per query (hits come on top).
        let totals = report.load.class_totals();
        let query_bytes = totals[asap_metrics::MsgClass::Query.index()];
        let max_msgs = queries * 5 * 64;
        // Each query message is ≥ HEADER_BYTES.
        assert!(
            query_bytes <= max_msgs * 60,
            "query bytes {query_bytes} exceed budget"
        );
    }

    #[test]
    fn longer_walks_find_more() {
        let short = run(5, 8, 42);
        let long = run(5, 512, 42);
        assert!(
            long.ledger.success_rate() > short.ledger.success_rate(),
            "long {} vs short {}",
            long.ledger.success_rate(),
            short.ledger.success_rate()
        );
    }

    #[test]
    fn more_walkers_find_more() {
        let one = run(1, 64, 43);
        let five = run(5, 64, 43);
        assert!(
            five.ledger.success_rate() >= one.ledger.success_rate(),
            "five {} vs one {}",
            five.ledger.success_rate(),
            one.ledger.success_rate()
        );
    }

    #[test]
    #[should_panic(expected = "walker")]
    fn zero_walkers_rejected() {
        RandomWalk::new(RandomWalkConfig {
            walkers: 0,
            ttl: 10,
            retransmit: None,
        });
    }
}
