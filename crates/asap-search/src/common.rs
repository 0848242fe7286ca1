//! Shared mechanics of the query-based baselines.

use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_sim::checkpoint::{CodecError, Decoder};
use asap_sim::collections::DetHashMap;
use asap_sim::util::Backoff;
use asap_sim::{query_hit_size, Transport};
use asap_workload::{KeywordId, QuerySpec};
use std::rc::Rc;

/// Wire message of all three baselines. Terms are reference-counted: a flood
/// fans one term list out to tens of thousands of messages.
#[derive(Debug, Clone)]
pub enum BaselineMsg {
    /// Flooding probe.
    Flood {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
        ttl: u8,
    },
    /// Random-walk walker.
    Walk {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
        ttl: u16,
    },
    /// GSA probe carrying its remaining message budget.
    Gsa {
        query: u32,
        requester: PeerId,
        terms: Rc<[KeywordId]>,
        budget: u32,
    },
    /// Query hit flowing straight back to the requester.
    Hit { query: u32, results: u32 },
}

/// If `node` shares a matching document, send a hit to the requester.
/// Returns `true` on a match.
pub fn reply_if_match<C: Transport<Msg = BaselineMsg>>(
    ctx: &mut C,
    node: PeerId,
    requester: PeerId,
    query: u32,
    terms: &[KeywordId],
) -> bool {
    if node == requester || !ctx.content().peer_matches(ctx.model(), node, terms) {
        return false;
    }
    let results = ctx
        .content()
        .matching_docs(ctx.model(), node, terms)
        .count()
        .max(1) as u32;
    ctx.send(
        node,
        requester,
        MsgClass::QueryHit,
        query_hit_size(results as usize),
        BaselineMsg::Hit { query, results },
    );
    true
}

/// The requester-side hit handler: record the answer.
pub fn absorb_hit<C: Transport<Msg = BaselineMsg>>(ctx: &mut C, query: u32) {
    ctx.report_answer(query);
}

/// Delay before the first retransmission, µs.
const RETRANSMIT_TIMEOUT_US: u64 = 4_000_000;
/// Retransmissions per query (total probes ≤ 1 + retries).
const RETRANSMIT_RETRIES: u32 = 2;
/// Ceiling for the doubled backoff delays, µs.
const RETRANSMIT_BACKOFF_CAP_US: u64 = 16_000_000;

/// TTL-respecting retransmission policy for the walk/flood baselines: if a
/// query is still unanswered when the timer fires, the requester re-launches
/// the probe wave (with the configured TTL, never more) on a capped
/// exponential backoff. `None` on the protocol config (the default) arms no
/// timer at all, so fault-free replay digests are unchanged; `Some` is what
/// the lossy bench profiles run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retransmit;

impl Retransmit {
    pub fn backoff(self) -> Backoff {
        Backoff::new(
            RETRANSMIT_TIMEOUT_US,
            RETRANSMIT_BACKOFF_CAP_US,
            RETRANSMIT_RETRIES,
        )
    }
}

/// Requester-side state of a query awaiting possible retransmission.
#[derive(Debug)]
pub struct RetransmitState {
    pub requester: PeerId,
    pub terms: Rc<[KeywordId]>,
    pub backoff: Backoff,
}

/// Queries awaiting possible retransmission, by query id (which doubles as
/// the timer tag — the baselines use no other timers).
pub type RetransmitTable = DetHashMap<u32, RetransmitState>;

/// Requester side of `on_query`, after the first wave went out: under a
/// retransmit `policy`, remember the query and arm its first timer.
pub fn arm_retransmit<C: Transport<Msg = BaselineMsg>>(
    table: &mut RetransmitTable,
    ctx: &mut C,
    policy: Option<Retransmit>,
    q: &QuerySpec,
    terms: Rc<[KeywordId]>,
) {
    if let Some(rt) = policy {
        table.insert(
            q.id,
            RetransmitState {
                requester: q.requester,
                terms,
                backoff: rt.backoff(),
            },
        );
        ctx.set_timer(q.requester, RETRANSMIT_TIMEOUT_US, u64::from(q.id));
    }
}

/// The baselines' whole `on_timer`: if the query behind `tag` is still
/// unanswered and has retries left, count one, `relaunch(ctx, query, terms)`
/// the probe wave from `node` and re-arm on the backed-off delay; an
/// answered or exhausted query leaves the table.
pub fn retransmit_due<C: Transport<Msg = BaselineMsg>>(
    table: &mut RetransmitTable,
    ctx: &mut C,
    node: PeerId,
    tag: u64,
    relaunch: impl FnOnce(&mut C, u32, &Rc<[KeywordId]>),
) {
    let query = tag as u32;
    let Some(state) = table.get_mut(&query).filter(|s| s.requester == node) else {
        return;
    };
    if ctx.is_answered(query) {
        table.remove(&query);
        return;
    }
    match state.backoff.next() {
        Some(delay) => {
            ctx.count(RetryStat::Retries);
            relaunch(ctx, query, &state.terms);
            ctx.set_timer(node, delay, tag);
        }
        None => {
            table.remove(&query);
            ctx.count(RetryStat::DeliveriesAbandoned);
        }
    }
}

/// Per-query duplicate suppression with a bounded window of recent queries,
/// so memory stays flat over a 30,000-query trace. Flooding runs it with
/// [`crate::flooding::SEEN_WINDOW`].
#[derive(Debug)]
pub struct SeenTracker {
    inner: asap_sim::util::SeenTracker<u32>,
}

impl SeenTracker {
    pub fn new(window: usize) -> Self {
        Self {
            inner: asap_sim::util::SeenTracker::new(window),
        }
    }

    /// Returns `true` the first time `(query, node)` is seen; later calls
    /// return `false`. Queries older than the window are forgotten.
    pub fn first_visit(&mut self, query: u32, node: PeerId) -> bool {
        self.inner.first_visit(query, node.0)
    }

    pub fn tracked_queries(&self) -> usize {
        self.inner.tracked_keys()
    }

    /// Decode a tracker that must run with `window` (see
    /// [`asap_sim::util::SeenTracker::pull_window`]).
    pub fn pull_window(dec: &mut Decoder<'_>, window: usize) -> Result<Self, CodecError> {
        Ok(Self {
            inner: asap_sim::util::SeenTracker::pull_window(dec, window)?,
        })
    }
}

asap_sim::codec_struct!(SeenTracker { inner });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_visit_dedups() {
        let mut t = SeenTracker::new(8);
        assert!(t.first_visit(1, PeerId(5)));
        assert!(!t.first_visit(1, PeerId(5)));
        assert!(t.first_visit(1, PeerId(6)));
        assert!(t.first_visit(2, PeerId(5)));
    }

    #[test]
    fn window_evicts_old_queries() {
        let mut t = SeenTracker::new(4);
        for q in 0..10 {
            assert!(t.first_visit(q, PeerId(0)));
        }
        assert!(t.tracked_queries() <= 4);
        // Query 0 was evicted, so it looks fresh again.
        assert!(t.first_visit(0, PeerId(0)));
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        SeenTracker::new(0);
    }
}
