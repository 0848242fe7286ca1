//! Tier 8 — adversary replay: properties of the adversary layer observed
//! through whole audited simulations (see TESTING.md), mirroring the chaos
//! tier in `fault_props.rs`.
//!
//! The load-bearing claims:
//!
//! * role assignment is a pure function of (plan, peers, run seed) — same
//!   seed, same adversarial peer set, every time, for arbitrary plans;
//! * the adversary RNG stream is independent of the fault stream: toggling
//!   fault injection never changes which peers are adversarial, and an
//!   **inert** adversary plan under faults reproduces the faults-only
//!   digest bit-for-bit;
//! * an inert plan attached to a fault-free run reproduces the honest
//!   digest bit-for-bit (merely attaching the layer changes nothing);
//! * absorption and eclipse capture run auditor-clean, with the layer's own
//!   statistics reconciled exactly against the auditor's mirrors.

use asap_metrics::MsgClass;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::{
    assign_roles, query_hit_size, query_size, AdversaryPlan, AdversaryRole, AuditConfig,
    EclipseTarget, FaultPlan, Protocol, SimReport, Simulation, Transport,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{QuerySpec, Workload, WorkloadConfig};
use proptest::prelude::*;

const PEERS: usize = 200;
const QUERIES: usize = 300;

/// Oracle-style protocol: ask one live holder directly, report the reply.
/// Small enough that every absorbed message has an obvious cause.
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

fn run(seed: u64, faults: Option<FaultPlan>, adversary: Option<AdversaryPlan>) -> SimReport<Echo> {
    let (phys, workload, overlay) = world(seed);
    let mut sim = Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, Echo, seed)
        .audit(AuditConfig::default());
    if let Some(p) = faults {
        sim = sim.faults(p);
    }
    if let Some(p) = adversary {
        sim = sim.adversary(p);
    }
    sim.run()
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

fn free_rider_plan(ppm: u32) -> AdversaryPlan {
    AdversaryPlan {
        free_rider_ppm: ppm,
        ..AdversaryPlan::none()
    }
}

proptest! {
    /// Same (plan, peers, seed) ⇒ the identical adversarial peer set, for
    /// arbitrary valid plans; role bands never overlap (a peer is spammer
    /// XOR free-rider XOR honest).
    #[test]
    fn role_assignment_is_deterministic(
        seed in any::<u64>(),
        spam_ppm in 0u32..=1_000_000,
        free_raw in 0u32..=1_000_000,
    ) {
        let free_rider_ppm = free_raw.min(1_000_000 - spam_ppm);
        let plan = AdversaryPlan { spam_ppm, free_rider_ppm, eclipse: vec![] };
        plan.validate().expect("clamped fractions are valid");
        let roles = assign_roles(&plan, PEERS, seed);
        prop_assert_eq!(&roles, &assign_roles(&plan, PEERS, seed));
        let spam = roles.iter().filter(|r| **r == AdversaryRole::AdSpammer).count();
        let free = roles.iter().filter(|r| **r == AdversaryRole::FreeRider).count();
        prop_assert!(spam + free <= PEERS);
        if spam_ppm == 0 { prop_assert_eq!(spam, 0); }
        if free_rider_ppm == 0 { prop_assert_eq!(free, 0); }
    }

    /// A different seed is allowed to (and for non-trivial fractions will)
    /// pick a different peer set, but the all-honest plan never draws at all.
    #[test]
    fn empty_plan_assigns_nobody(seed in any::<u64>()) {
        let roles = assign_roles(&AdversaryPlan::none(), PEERS, seed);
        prop_assert!(roles.iter().all(|r| *r == AdversaryRole::Honest));
    }
}

#[test]
fn inert_plan_reproduces_honest_digest() {
    let bare = run(17, None, None);
    let inert = run(17, None, Some(AdversaryPlan::none()));
    assert_eq!(
        assert_clean(&bare, "honest run"),
        assert_clean(&inert, "inert adversary plan"),
        "attaching an inert adversary layer must not change the digest"
    );
    let stats = inert.adversary.expect("plan attached ⇒ stats reported");
    assert_eq!(stats.absorbed, 0);
    assert_eq!(stats.spam_peers, 0);
    assert_eq!(stats.free_riders, 0);
    assert_eq!(stats.eclipsed_edges, 0);
    assert!(bare.adversary.is_none());
}

#[test]
fn fault_toggle_never_changes_the_adversarial_peer_set() {
    // The adversary stream is salted independently of the fault stream, so
    // switching fault injection on cannot re-deal the roles. Observed
    // through the engine: the layer's role censuses agree exactly.
    let plan = free_rider_plan(250_000);
    let lossy = FaultPlan {
        loss_ppm: 100_000,
        jitter_max_us: 20_000,
        ..FaultPlan::default()
    };
    let quiet = run(19, None, Some(plan.clone()));
    let noisy = run(19, Some(lossy), Some(plan.clone()));
    let a = quiet.adversary.expect("stats");
    let b = noisy.adversary.expect("stats");
    assert_eq!(
        a.free_riders, b.free_riders,
        "fault toggle re-dealt the roles"
    );
    assert_eq!(a.spam_peers, b.spam_peers);
    assert_clean(&quiet, "adversary-only run");
    assert_clean(&noisy, "adversary+faults run");
    // And the pure assignment agrees with what both runs used.
    let roles = assign_roles(&plan, PEERS, 19);
    let free = roles
        .iter()
        .filter(|r| **r == AdversaryRole::FreeRider)
        .count();
    assert_eq!(a.free_riders as usize, free);
}

#[test]
fn inert_adversary_under_faults_reproduces_faults_only_digest() {
    let lossy = FaultPlan {
        loss_ppm: 100_000,
        ..FaultPlan::default()
    };
    let faults_only = run(23, Some(lossy.clone()), None);
    let with_inert = run(23, Some(lossy), Some(AdversaryPlan::none()));
    assert_eq!(
        assert_clean(&faults_only, "faults-only run"),
        assert_clean(&with_inert, "faults + inert adversary"),
        "an inert adversary layer must not perturb the fault stream"
    );
}

#[test]
fn free_riders_absorb_and_stay_auditor_clean() {
    let rich = run(29, None, Some(free_rider_plan(250_000)));
    let honest = run(29, None, None);
    let da = assert_clean(&rich, "free-rider run");
    assert_ne!(
        da,
        assert_clean(&honest, "honest run"),
        "absorbed queries must be visible in the digest"
    );
    let stats = rich.adversary.expect("stats");
    assert!(stats.free_riders > 0, "25% of 200 peers fires");
    assert!(
        stats.absorbed > 0,
        "free riders hold content too, so they get asked"
    );
    // Absorption can only hurt this oracle protocol: no retries exist.
    assert!(rich.ledger.num_succeeded() <= honest.ledger.num_succeeded());
    // Replay is bit-exact.
    let again = run(29, None, Some(free_rider_plan(250_000)));
    assert_eq!(da, assert_clean(&again, "free-rider replay"));
    assert_eq!(rich.adversary, again.adversary, "statistics replay too");
}

#[test]
fn eclipse_capture_rewires_and_replays() {
    let plan = AdversaryPlan {
        free_rider_ppm: 200_000,
        eclipse: (0..PEERS)
            .step_by(10)
            .map(|v| EclipseTarget {
                victim: PeerId(v as u32),
                captured_links: 4,
            })
            .collect(),
        ..AdversaryPlan::none()
    };
    let a = run(31, None, Some(plan.clone()));
    let b = run(31, None, Some(plan));
    let da = assert_clean(&a, "eclipse run");
    assert_eq!(
        da,
        assert_clean(&b, "eclipse replay"),
        "rewiring must replay"
    );
    let stats = a.adversary.expect("stats");
    assert!(
        stats.eclipsed_edges > 0,
        "colluders exist, so edges were captured"
    );
    assert!(stats.free_riders > 0);
    assert_eq!(a.adversary, b.adversary);
}
