//! Tier 5 — chaos replay: ASAP's retry/backoff machinery under injected
//! loss (see TESTING.md).
//!
//! Every run here is fully audited, so a clean report certifies the
//! double-entry reconciliations: the engine's robustness counters against
//! the auditor's mirror, the fault layer's drop/duplicate statistics
//! against the announced events, and per-class bytes against observed
//! sends. On top of that these tests pin the protocol-level identities —
//! confirms on the wire match `confirms_sent` even across retransmits, and
//! exhausted retry budgets land in the abandoned/lost counters instead of
//! leaking state.

use asap_core::{Asap, AsapConfig};
use asap_metrics::{MsgClass, RetryStat};
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_sim::util::Retransmit;
use asap_sim::{AuditConfig, FaultPlan, SimReport, Simulation};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{Workload, WorkloadConfig};

const PEERS: usize = 200;
const QUERIES: usize = 300;

fn config(retransmit: Option<Retransmit>) -> AsapConfig {
    let mut c = AsapConfig::rw().scaled_to(PEERS);
    c.warmup_stagger_us = 4_000_000;
    c.refresh_interval_us = 8_000_000;
    c.retransmit = retransmit;
    c
}

fn run(seed: u64, retransmit: Option<Retransmit>, loss_ppm: u32) -> SimReport<Asap> {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload: Workload =
        asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, PEERS, seed).build();
    let protocol = Asap::new(config(retransmit), &workload.model);
    let sim = Simulation::builder(
        &phys,
        &workload,
        overlay,
        OverlayKind::Random,
        protocol,
        seed,
    )
    .audit(AuditConfig::default());
    let sim = if loss_ppm > 0 {
        sim.faults(FaultPlan {
            loss_ppm,
            ..FaultPlan::default()
        })
    } else {
        sim
    };
    sim.run()
}

fn assert_clean(report: &SimReport<Asap>, what: &str) {
    let audit = report.audit.as_ref().expect("audited run");
    assert!(
        audit.is_clean(),
        "{what}: violations {:?} (+{} suppressed)",
        audit.violations,
        audit.suppressed
    );
}

#[test]
fn confirms_on_the_wire_reconcile_with_stats_across_retries() {
    // The identity must hold in both regimes: without retries (every confirm
    // sent once) and under loss with retries (each retransmit counted).
    for (seed, retransmit, loss) in [(71, None, 0), (71, Some(Retransmit), 100_000)] {
        let report = run(seed, retransmit, loss);
        assert_clean(&report, "confirm reconciliation run");
        let wire = report.load.class_message_totals()[MsgClass::Confirm.index()];
        assert_eq!(
            wire, report.protocol.stats.confirms_sent,
            "every Confirm message on the wire is one confirms_sent (loss={loss})"
        );
    }
}

#[test]
fn retries_fire_under_loss_and_stay_reconciled() {
    let report = run(73, Some(Retransmit), 100_000);
    // Clean audit ⇒ the engine's RetryCounters matched the auditor's
    // independent mirror of every Ctx::count call, exactly.
    assert_clean(&report, "lossy retry run");
    assert!(
        report.retry.get(RetryStat::Retries) > 0,
        "10% loss over a full trace must trigger retransmits"
    );
    assert!(
        report.faults.expect("plan attached").dropped > 0,
        "loss actually fired"
    );
    // Retries can only add traffic on top of the paper's machinery; the run
    // still resolves most queries (fallback + retransmits recover).
    assert!(
        report.ledger.success_rate() > 0.5,
        "success {} under 10% loss with retries",
        report.ledger.success_rate()
    );
}

#[test]
fn inert_robustness_counts_no_retries_or_abandons() {
    // Without retry budgets the protocol never retransmits and never gives
    // up on a tracked delivery — even under loss. (ConfirmationsLost may
    // legitimately fire: sources die or their replies are dropped.)
    let report = run(79, None, 100_000);
    assert_clean(&report, "inert-robustness lossy run");
    assert_eq!(report.retry.get(RetryStat::Retries), 0);
    assert_eq!(report.retry.get(RetryStat::DeliveriesAbandoned), 0);
}

#[test]
fn exhausted_budgets_land_in_abandoned_and_lost_counters() {
    // Heavy loss exhausts fetch/readvert budgets (abandoned) and eats
    // confirmation replies (lost). Both counters must move, and a clean
    // audit certifies they reconcile exactly with the mirror.
    let report = run(83, Some(Retransmit), 350_000);
    assert_clean(&report, "heavy-loss run");
    assert!(
        report.retry.get(RetryStat::DeliveriesAbandoned) > 0,
        "35% loss must exhaust some retry budget"
    );
    assert!(
        report.retry.get(RetryStat::ConfirmationsLost) > 0,
        "35% loss must strand some confirmations"
    );
    assert!(
        report.retry.get(RetryStat::Retries) > 0,
        "budgets were actually spent before exhausting"
    );
}

#[test]
fn lossy_runs_replay_deterministically_with_retries() {
    let digest = |seed| {
        let report = run(seed, Some(Retransmit), 100_000);
        assert_clean(&report, "replay run");
        (
            report.audit.expect("audited").digest,
            report.retry.counts(),
            report.faults.expect("stats"),
        )
    };
    assert_eq!(digest(89), digest(89), "retry machinery must replay");
}
