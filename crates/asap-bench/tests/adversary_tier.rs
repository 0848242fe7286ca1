//! Adversary tier — robustness scenario packs against their pinned goldens
//! (see TESTING.md §adversary tier).
//!
//! Spot-checks cells of each committed scenario golden (the full 54-cell
//! matrix is verified by `cargo run -p asap-bench --bin golden -- --check`,
//! which CI runs in the `golden` job), pins the zero-cost-when-
//! disabled contract at the bench level, and regression-tests the
//! poisoned-ad → confirm-retry accounting.

use asap_bench::harness::{golden_world, parse_golden, replay_cell, replay_spec, scenario_spec};
use asap_bench::runner::{run_cell_spec, RunSpec};
use asap_bench::{AdversaryProfile, AlgoKind, FaultProfile, ScenarioPack};
use asap_metrics::RetryStat;
use asap_overlay::OverlayKind;

const GOLDEN: &str = include_str!("../golden/replay_tiny.txt");
const GOLDEN_SPAM: &str = include_str!("../golden/replay_tiny_spam10.txt");
const GOLDEN_FREERIDE: &str = include_str!("../golden/replay_tiny_freeride25.txt");
const GOLDEN_FLASH: &str = include_str!("../golden/replay_tiny_flashcrowd.txt");

fn committed(pack: ScenarioPack) -> &'static str {
    match pack {
        ScenarioPack::Spam10 => GOLDEN_SPAM,
        ScenarioPack::FreeRider25 => GOLDEN_FREERIDE,
        ScenarioPack::FlashCrowd => GOLDEN_FLASH,
    }
}

/// Every scenario golden file covers the full matrix, and a baseline + an
/// ASAP cell of each replay to the committed digest, auditor-clean.
#[test]
fn scenario_goldens_spot_check() {
    for pack in ScenarioPack::ALL {
        let golden = parse_golden(committed(pack));
        assert_eq!(
            golden.len(),
            OverlayKind::ALL.len() * AlgoKind::ALL.len(),
            "{} golden file covers the matrix",
            pack.label()
        );
        let world = pack.world();
        for (algo, overlay) in [
            (AlgoKind::RandomWalk, OverlayKind::Random),
            (AlgoKind::AsapRw, OverlayKind::Crawled),
        ] {
            let r = replay_cell(&world, algo, overlay, &scenario_spec(pack));
            assert_eq!(
                r.violations,
                0,
                "auditor violations in {} / {} / {}",
                pack.label(),
                algo.label(),
                overlay.label()
            );
            let (_, _, want) = golden
                .iter()
                .find(|(o, a, _)| *o == overlay.label() && *a == algo.label())
                .unwrap_or_else(|| panic!("cell present in {} golden", pack.label()));
            assert_eq!(
                r.digest,
                *want,
                "scenario digest drift in {} / {} / {} — if intentional, \
                 regenerate with `cargo run -p asap-bench --bin golden`",
                pack.label(),
                algo.label(),
                overlay.label()
            );
        }
    }
}

/// The bench-level zero-cost contract: a spec that names no adversary (the
/// default `AdversaryProfile::None`) replays the committed *honest* golden
/// bit-for-bit, even though the adversary plumbing is compiled in and the
/// spec travels the same code path scenario packs use.
#[test]
fn none_profile_reproduces_the_honest_golden() {
    let world = golden_world();
    let honest = parse_golden(GOLDEN);
    let spec = RunSpec {
        adversary: AdversaryProfile::None,
        ..scenario_spec(ScenarioPack::Spam10)
    };
    assert!(spec.adversary.is_none());
    for (algo, overlay) in [
        (AlgoKind::Flooding, OverlayKind::Random),
        (AlgoKind::AsapRw, OverlayKind::Crawled),
    ] {
        let cell = run_cell_spec(&world, algo, overlay, &spec);
        assert!(
            cell.adversary.is_none(),
            "no layer attached for profile=none"
        );
        let direct = replay_cell(
            &world,
            algo,
            overlay,
            &replay_spec(FaultProfile::None, false),
        );
        assert_eq!(
            direct.digest,
            cell.audit.as_ref().expect("audited").digest,
            "spec plumbing perturbed {} / {}",
            algo.label(),
            overlay.label()
        );
        let (_, _, want) = honest
            .iter()
            .find(|(o, a, _)| *o == overlay.label() && *a == algo.label())
            .expect("cell present in honest golden");
        assert_eq!(direct.digest, *want, "honest golden drift");
    }
}

/// Free-rider packs actually absorb traffic: the layer census matches the
/// profile's own role assignment and absorbed messages accumulate.
#[test]
fn freerider_pack_absorbs_traffic() {
    let pack = ScenarioPack::FreeRider25;
    let world = pack.world();
    let cell = run_cell_spec(
        &world,
        AlgoKind::AsapRw,
        OverlayKind::Crawled,
        &scenario_spec(pack),
    );
    let stats = cell.adversary.expect("adversary layer attached");
    assert!(stats.absorbed > 0, "25% free riders swallow something");
    let roles = pack.adversary().roles(world.scale.peers(), world.seed);
    let free = roles
        .iter()
        .filter(|r| **r == asap_sim::AdversaryRole::FreeRider)
        .count();
    assert_eq!(
        stats.free_riders as usize, free,
        "census matches assignment"
    );
    assert_eq!(stats.spam_peers, 0);
}

/// Regression: a poisoned ad that fails confirmation drives the confirm
/// retry/re-advertisement path without double-counting queries. The retry
/// machinery only arms under a lossy robustness config, so the spam profile
/// composes with the lossy fault profile here — exactly the `--faults lossy
/// --adversary spam10` CLI combination — and is compared against the same
/// lossy run without adversaries.
#[test]
fn poisoned_confirms_retry_without_double_counting() {
    let pack = ScenarioPack::Spam10;
    let spam_world = pack.world();
    let lossy_spec = |adversary: AdversaryProfile| RunSpec {
        audit: Some(asap_sim::AuditConfig::default()),
        faults: FaultProfile::Lossy,
        adversary,
        ..RunSpec::default()
    };
    let spam = run_cell_spec(
        &spam_world,
        AlgoKind::AsapRw,
        OverlayKind::Crawled,
        &lossy_spec(pack.adversary()),
    );
    let honest_world = golden_world();
    let honest = run_cell_spec(
        &honest_world,
        AlgoKind::AsapRw,
        OverlayKind::Crawled,
        &lossy_spec(AdversaryProfile::None),
    );

    // The poisoned filters draw confirmations that come back empty.
    let spam_stats = spam.summary.asap_stats.as_ref().expect("ASAP stats");
    let honest_stats = honest.summary.asap_stats.as_ref().expect("ASAP stats");
    assert!(
        spam_stats.confirms_negative > honest_stats.confirms_negative,
        "spam must inflate empty confirm replies ({} vs {})",
        spam_stats.confirms_negative,
        honest_stats.confirms_negative
    );
    // Failed confirmations feed the retry machinery, not the failure count.
    assert!(
        spam.retry.get(RetryStat::Retries) > 0,
        "confirm retries fire under spam"
    );
    // No double counting: retries register no extra queries (the ledger
    // holds exactly the workload's query count, same as the honest run),
    // a retried-then-answered query is succeeded exactly once (success
    // never exceeds registrations), and the summary's success rate is the
    // ledger partition — if a query were counted both failed and
    // retried-succeeded these would disagree.
    assert_eq!(spam.queries, spam_world.scale.queries());
    assert_eq!(spam.queries, honest.queries);
    assert!(spam.succeeded <= spam.queries);
    let rate_from_counts = spam.succeeded as f64 / spam.queries as f64;
    assert!(
        (spam.summary.success_rate - rate_from_counts).abs() < 1e-12,
        "summary rate {} disagrees with ledger partition {}",
        spam.summary.success_rate,
        rate_from_counts
    );
    assert_eq!(spam.violations(), 0, "auditor-clean under spam");
}

trait Violations {
    fn violations(&self) -> u64;
}

impl Violations for asap_bench::runner::CellReport {
    fn violations(&self) -> u64 {
        let audit = self.audit.as_ref().expect("audited run");
        audit.violations.len() as u64 + audit.suppressed
    }
}
