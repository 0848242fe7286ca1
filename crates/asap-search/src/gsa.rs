//! GSA — the budget-bounded "generalized search algorithm".
//!
//! **Substitution note (DESIGN.md §5).** The paper cites Gkantsidis et al.'s
//! hybrid search schemes \[12\] and assigns "a budget of 8,000, which limits
//! the total number of messages during a search process". We implement the
//! family's canonical shape: a probe carries a message budget; while the
//! budget is plentiful the node forwards to up to `branch` random neighbors,
//! dividing the remainder among them (normalized flooding); once a branch's
//! budget drops below the branching factor it degenerates into a random
//! walk. Total query messages per search never exceed the budget.

use crate::common::{absorb_hit, reply_if_match, BaselineMsg};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{query_size, spread, Protocol, Transport};
use asap_workload::{KeywordId, QuerySpec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::rc::Rc;

/// GSA parameters.
#[derive(Debug, Clone, Copy)]
pub struct GsaConfig {
    /// Total message budget per query (paper: 8,000).
    pub budget: u32,
    /// Fan-out while the budget is plentiful.
    pub branch: usize,
}

impl Default for GsaConfig {
    fn default() -> Self {
        Self {
            budget: 8_000,
            branch: 4,
        }
    }
}

/// The GSA baseline protocol.
#[derive(Debug)]
pub struct Gsa {
    config: GsaConfig,
}

impl Gsa {
    pub fn new(config: GsaConfig) -> Self {
        assert!(config.budget >= 1, "GSA needs a positive budget");
        assert!(config.branch >= 1, "GSA needs a positive branching factor");
        Self { config }
    }

    /// Spend `budget` messages from `node`: pick up to `branch` random
    /// neighbors (one, once the budget is walk-sized), sending each probe
    /// with an equal share of what remains after paying for the sends.
    #[allow(clippy::too_many_arguments)]
    fn disperse<C: Transport<Msg = BaselineMsg>>(
        &self,
        ctx: &mut C,
        node: PeerId,
        exclude: Option<PeerId>,
        query: u32,
        requester: PeerId,
        terms: &Rc<[KeywordId]>,
        budget: u32,
    ) {
        let branch = self.config.branch as u32;
        // The full shuffle is this side's arrangement (see `spread`'s docs).
        let shuffle = |rng: &mut SmallRng, nbrs: &mut [PeerId], _fan| nbrs.shuffle(rng);
        let Some(hops) = spread::disperse(ctx, node, exclude, budget, branch, shuffle) else {
            return;
        };
        ctx.trace(|| asap_sim::trace::Event::GsaDisperse {
            id: query,
            node,
            fanout: hops.fan(),
            budget,
        });
        let bytes = query_size(terms.len());
        for (n, b) in hops.shares() {
            ctx.send(
                node,
                n,
                MsgClass::Query,
                bytes,
                BaselineMsg::Gsa {
                    query,
                    requester,
                    terms: Rc::clone(terms),
                    budget: b,
                },
            );
        }
    }
}

impl Protocol for Gsa {
    type Msg = BaselineMsg;

    fn on_query<C: Transport<Msg = BaselineMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        let terms: Rc<[KeywordId]> = q.terms.clone().into();
        // The initial dispersal pays for itself out of the query budget.
        self.disperse(
            ctx,
            q.requester,
            None,
            q.id,
            q.requester,
            &terms,
            self.config.budget,
        );
    }

    fn on_message<C: Transport<Msg = BaselineMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: BaselineMsg,
    ) {
        match msg {
            BaselineMsg::Gsa {
                query,
                requester,
                terms,
                budget,
            } => {
                reply_if_match(ctx, to, requester, query, &terms);
                self.disperse(ctx, to, Some(from), query, requester, &terms, budget);
            }
            BaselineMsg::Hit { query, .. } => absorb_hit(ctx, query),
            other => unreachable!("GSA got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::world;
    use asap_overlay::OverlayKind;
    use asap_sim::Simulation;

    fn run(budget: u32, seed: u64) -> asap_sim::SimReport<Gsa> {
        let (phys, workload, overlay) = world(150, 100, seed);
        Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Gsa::new(GsaConfig { budget, branch: 4 }),
            seed,
        )
        .run()
    }

    #[test]
    fn query_messages_respect_budget() {
        let budget = 500;
        let report = run(budget, 51);
        let queries = report.ledger.num_queries() as u64;
        let query_bytes = report.load.class_totals()[MsgClass::Query.index()];
        // Every query message costs at least the header.
        let max_bytes = queries * budget as u64 * 60;
        assert!(
            query_bytes <= max_bytes,
            "query bytes {query_bytes} exceed budget bound {max_bytes}"
        );
    }

    #[test]
    fn bigger_budget_finds_more() {
        let small = run(40, 52);
        let large = run(4_000, 52);
        assert!(
            large.ledger.success_rate() > small.ledger.success_rate(),
            "large {} vs small {}",
            large.ledger.success_rate(),
            small.ledger.success_rate()
        );
    }

    #[test]
    fn beats_equal_budget_single_walker_latency() {
        // The fan-out explores in parallel, so time-to-first-hit is far
        // shorter than a single sequential walker with the same budget.
        let gsa = run(1_000, 53);
        let (phys, workload, overlay) = world(150, 100, 53);
        let walk = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            crate::random_walk::RandomWalk::new(crate::random_walk::RandomWalkConfig {
                walkers: 1,
                ttl: 1_000,
                retransmit: None,
            }),
            53,
        )
        .run();
        if gsa.ledger.num_succeeded() > 10 && walk.ledger.num_succeeded() > 10 {
            assert!(
                gsa.ledger.avg_response_time_ms() < walk.ledger.avg_response_time_ms(),
                "gsa {} ms vs walk {} ms",
                gsa.ledger.avg_response_time_ms(),
                walk.ledger.avg_response_time_ms()
            );
        }
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_rejected() {
        Gsa::new(GsaConfig {
            budget: 0,
            branch: 4,
        });
    }
}
