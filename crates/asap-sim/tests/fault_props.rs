//! Tier 5 — chaos replay: properties of the fault-injection layer observed
//! through whole audited simulations (see TESTING.md).
//!
//! The load-bearing claims:
//!
//! * fault decisions are a pure function of (plan, seed, send sequence) —
//!   same seed, same decisions, every time;
//! * an **inert** plan reproduces the fault-free digest bit-for-bit (the
//!   fault RNG is a separate stream, so merely attaching the layer changes
//!   nothing);
//! * jittered latencies never break the engine's strictly-increasing
//!   `(time, seq)` dispatch order;
//! * under loss, duplication, and partitions every run stays auditor-clean,
//!   with the layer's own statistics reconciled exactly against the
//!   auditor's independent event mirrors.

use asap_metrics::MsgClass;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::{
    query_hit_size, query_size, AuditConfig, FaultDecision, FaultPlan, FaultState, PartitionWindow,
    Protocol, SimReport, Simulation, Transport,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{QuerySpec, Workload, WorkloadConfig};
use proptest::prelude::*;

const PEERS: usize = 200;
const QUERIES: usize = 300;

/// Oracle-style protocol: ask one live holder directly, report the reply.
/// Small enough that every delivered/dropped message has an obvious cause.
struct Echo;

#[derive(Debug, Clone)]
enum EchoMsg {
    Ask {
        query: u32,
        terms: Vec<asap_workload::KeywordId>,
    },
    Reply {
        query: u32,
    },
}

impl Protocol for Echo {
    type Msg = EchoMsg;

    fn on_query<C: Transport<Msg = EchoMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        let holder = (0..ctx.model().num_peers() as u32)
            .map(PeerId)
            .find(|&h| h != q.requester && ctx.alive(h) && ctx.content().peer_has_doc(h, q.target));
        if let Some(h) = holder {
            ctx.send(
                q.requester,
                h,
                MsgClass::Query,
                query_size(q.terms.len()),
                EchoMsg::Ask {
                    query: q.id,
                    terms: q.terms.clone(),
                },
            );
        }
    }

    fn on_message<C: Transport<Msg = EchoMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: EchoMsg,
    ) {
        match msg {
            EchoMsg::Ask { query, terms } => {
                if ctx.content().peer_matches(to, &terms) {
                    ctx.send(
                        to,
                        from,
                        MsgClass::QueryHit,
                        query_hit_size(1),
                        EchoMsg::Reply { query },
                    );
                }
            }
            EchoMsg::Reply { query } => ctx.report_answer(query),
        }
    }
}

fn world(seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, PEERS, seed).build();
    (phys, workload, overlay)
}

fn run(seed: u64, plan: Option<FaultPlan>) -> SimReport<Echo> {
    let (phys, workload, overlay) = world(seed);
    let sim = Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, Echo, seed)
        .audit(AuditConfig::default());
    match plan {
        Some(p) => sim.faults(p).run(),
        None => sim.run(),
    }
}

fn assert_clean(report: &SimReport<Echo>, what: &str) -> u64 {
    let audit = report.audit.as_ref().expect("audited run");
    assert!(
        audit.is_clean(),
        "{what}: violations {:?} (+{} suppressed)",
        audit.violations,
        audit.suppressed
    );
    audit.digest
}

proptest! {
    /// Same (plan, seed, send sequence) ⇒ identical drop/jitter/duplicate
    /// decisions and identical statistics, for arbitrary plans.
    #[test]
    fn same_seed_same_decisions(
        seed in any::<u64>(),
        loss_ppm in 0u32..=1_000_000,
        jitter_max_us in 0u64..100_000,
        duplicate_ppm in 0u32..=1_000_000,
    ) {
        let plan = FaultPlan {
            loss_ppm,
            jitter_max_us,
            duplicate_ppm,
            partitions: vec![],
        };
        let decide_all = || {
            let mut f = FaultState::new(plan.clone(), seed);
            let decisions: Vec<FaultDecision> = (0..300u64)
                .map(|i| f.decide(i * 7, PeerId((i % 50) as u32), PeerId(((i + 1) % 50) as u32)))
                .collect();
            (decisions, *f.stats())
        };
        prop_assert_eq!(decide_all(), decide_all());
    }

    /// Jitter draws stay within the configured bound for arbitrary plans.
    #[test]
    fn jitter_respects_its_bound(seed in any::<u64>(), jitter_max_us in 1u64..250_000) {
        let mut f = FaultState::new(
            FaultPlan { jitter_max_us, ..FaultPlan::default() },
            seed,
        );
        for i in 0..500u64 {
            match f.decide(i, PeerId(0), PeerId(1)) {
                FaultDecision::Deliver { jitter_us, .. } => prop_assert!(jitter_us <= jitter_max_us),
                FaultDecision::Drop { .. } => prop_assert!(false, "no loss configured"),
            }
        }
    }
}

#[test]
fn inert_plan_reproduces_fault_free_digest() {
    let bare = run(17, None);
    let inert = run(17, Some(FaultPlan::none()));
    assert_eq!(
        assert_clean(&bare, "fault-free"),
        assert_clean(&inert, "inert plan"),
        "attaching an inert fault layer must not change the digest"
    );
    let stats = inert.faults.expect("plan attached ⇒ stats reported");
    assert_eq!(stats.total_dropped(), 0);
    assert_eq!(stats.duplicated, 0);
    assert_eq!(stats.jittered, 0);
    assert!(stats.decisions > 0, "every send was evaluated");
    assert!(bare.faults.is_none());
}

#[test]
fn jitter_never_breaks_dispatch_order() {
    // The auditor checks strictly-increasing (time, seq) at every dispatch;
    // a clean report IS the invariant. Run twice to pin determinism too.
    let plan = FaultPlan {
        jitter_max_us: 80_000,
        ..FaultPlan::default()
    };
    let a = run(19, Some(plan.clone()));
    let b = run(19, Some(plan));
    let da = assert_clean(&a, "jittered run");
    assert_eq!(
        da,
        assert_clean(&b, "jittered replay"),
        "jitter must replay"
    );
    let stats = a.faults.expect("stats");
    assert!(stats.jittered > 0, "jitter actually fired");
    assert_eq!(stats.total_dropped(), 0);
}

#[test]
fn loss_runs_clean_and_changes_the_digest() {
    let plan = FaultPlan {
        loss_ppm: 100_000, // 10 %
        ..FaultPlan::default()
    };
    let lossy = run(23, Some(plan));
    let clean = run(23, None);
    assert_ne!(
        assert_clean(&lossy, "lossy run"),
        assert_clean(&clean, "fault-free run"),
        "dropped messages must be visible in the digest"
    );
    let stats = lossy.faults.expect("stats");
    assert!(stats.dropped > 0, "10% loss over a full trace fires");
    assert_eq!(stats.partitioned, 0);
    // Loss can only hurt: the lossy run answers no more queries.
    assert!(lossy.ledger.num_succeeded() <= clean.ledger.num_succeeded());
}

#[test]
fn duplication_runs_clean_and_is_announced() {
    // A clean audit here exercises the duplicate tripwire end to end: every
    // double delivery observed at dispatch had a matching announced
    // `fault-dup` event (see `SimAuditor::observe`).
    let plan = FaultPlan {
        duplicate_ppm: 200_000, // 20 %
        ..FaultPlan::default()
    };
    let report = run(29, Some(plan));
    assert_clean(&report, "duplicating run");
    let stats = report.faults.expect("stats");
    assert!(
        stats.duplicated > 0,
        "20% duplication over a full trace fires"
    );
    assert_eq!(stats.total_dropped(), 0);
}

#[test]
fn partition_window_severs_crossing_traffic() {
    // Cut half the id space for a window covering the whole trace: any
    // cross-cut send during the run must be dropped and accounted.
    let plan = FaultPlan {
        partitions: vec![PartitionWindow {
            start_us: 0,
            end_us: u64::MAX,
            cut_index: (PEERS / 2) as u32,
        }],
        ..FaultPlan::default()
    };
    let report = run(31, Some(plan));
    assert_clean(&report, "partitioned run");
    let stats = report.faults.expect("stats");
    assert!(
        stats.partitioned > 0,
        "cross-cut traffic exists in any trace"
    );
    assert_eq!(stats.dropped, 0, "no loss coin configured");
}

#[test]
fn chaos_combination_replays_deterministically() {
    let plan = FaultPlan {
        loss_ppm: 100_000,
        jitter_max_us: 50_000,
        duplicate_ppm: 20_000,
        partitions: vec![PartitionWindow {
            start_us: 5_000_000,
            end_us: 10_000_000,
            cut_index: (PEERS / 8) as u32,
        }],
    };
    let a = run(37, Some(plan.clone()));
    let b = run(37, Some(plan));
    assert_eq!(
        assert_clean(&a, "chaos run"),
        assert_clean(&b, "chaos replay"),
        "all four fault mechanisms must replay together"
    );
    assert_eq!(a.faults, b.faults, "statistics replay too");
}
