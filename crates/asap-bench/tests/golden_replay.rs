//! Differential-replay regression suite (see `asap_bench::harness`).
//!
//! `cargo run -p asap-bench --bin golden` regenerates the golden file after
//! an intentional behavior change; this suite then pins the new digests.

use asap_bench::faults::FaultProfile;
use asap_bench::harness::{
    cell_to_record, golden_world, parse_golden, replay_cell, replay_matrix, replay_spec,
    superpeer_cells, ReplayRecord, GOLDEN_LOSSY_PROFILE, GOLDEN_OVERLAYS,
};
use asap_bench::runner::run_cell_net;
use asap_bench::AlgoKind;

const GOLDEN: &str = include_str!("../golden/replay_tiny.txt");
const GOLDEN_LOSSY: &str = include_str!("../golden/replay_tiny_lossy.txt");
const GOLDEN_SUPERPEER: &str = include_str!("../golden/replay_tiny_superpeer.txt");

/// The full matrix replays clean, matches the committed digests, and the
/// world-determined fingerprints agree across algorithms. One test so the
/// 18-cell matrix runs once.
#[test]
fn golden_matrix_replays_clean_stable_and_consistent() {
    let world = golden_world();
    let spec = replay_spec(FaultProfile::None, false);
    let records: Vec<ReplayRecord> = replay_matrix(&world, &spec, 1)
        .iter()
        .map(cell_to_record)
        .collect();

    // (a) Zero auditor violations anywhere.
    for r in &records {
        assert_eq!(
            r.violations,
            0,
            "auditor violations in {} / {}",
            r.algo.label(),
            r.overlay.label()
        );
        assert!(r.queries > 0, "world issues queries");
        assert!(r.succeeded > 0, "every algorithm answers something");
    }

    // (b) Digests match the committed golden values, cell for cell.
    let golden = parse_golden(GOLDEN);
    assert_eq!(golden.len(), records.len(), "golden file covers the matrix");
    for (r, (g_overlay, g_algo, g_digest)) in records.iter().zip(&golden) {
        assert_eq!(r.overlay.label(), g_overlay, "golden row order");
        assert_eq!(r.algo.label(), g_algo, "golden row order");
        assert_eq!(
            r.digest, *g_digest,
            "digest drift in {} / {}: got {:016x}, golden {:016x} — if the \
             behavior change is intentional, regenerate with \
             `cargo run -p asap-bench --bin golden`",
            g_algo, g_overlay, r.digest, g_digest
        );
    }

    // (c) Pairwise identities: everything the protocol cannot influence is
    // identical across algorithms sharing an overlay — the issued-query
    // stream and the churn-driven final liveness map.
    for overlay in GOLDEN_OVERLAYS {
        let cells: Vec<_> = records.iter().filter(|r| r.overlay == overlay).collect();
        assert_eq!(cells.len(), AlgoKind::ALL.len());
        let first = cells[0];
        for c in &cells[1..] {
            assert_eq!(
                c.issue_fingerprint,
                first.issue_fingerprint,
                "{} and {} disagree on issued queries",
                c.algo.label(),
                first.algo.label()
            );
            assert_eq!(
                c.alive_fingerprint,
                first.alive_fingerprint,
                "{} and {} disagree on final liveness",
                c.algo.label(),
                first.algo.label()
            );
            assert_eq!(c.queries, first.queries);
        }
    }

    // Different overlays are genuinely different worlds for the event
    // stream, so digests must differ across the overlay axis too.
    let (a, b) = (&records[0], &records[AlgoKind::ALL.len()]);
    assert_eq!(a.algo, b.algo);
    assert_ne!(a.digest, b.digest, "overlay change must move the digest");
}

/// Running the same cell twice yields the identical record — the engine,
/// RNG, and auditor are fully deterministic within a process.
#[test]
fn replay_is_run_twice_deterministic() {
    let world = golden_world();
    let spec = replay_spec(FaultProfile::None, false);
    for (algo, overlay) in [
        (AlgoKind::Flooding, GOLDEN_OVERLAYS[0]),
        (AlgoKind::AsapRw, GOLDEN_OVERLAYS[1]),
    ] {
        let a = replay_cell(&world, algo, overlay, &spec);
        let b = replay_cell(&world, algo, overlay, &spec);
        assert_eq!(a, b, "second replay of {} diverged", algo.label());
    }
    // A rebuilt world must also reproduce: world construction is seeded.
    let rebuilt = golden_world();
    let a = replay_cell(&world, AlgoKind::Gsa, GOLDEN_OVERLAYS[0], &spec);
    let b = replay_cell(&rebuilt, AlgoKind::Gsa, GOLDEN_OVERLAYS[0], &spec);
    assert_eq!(a, b, "world rebuild diverged");
}

/// Spot-check the lossy golden file: replay a baseline and an ASAP cell
/// under the pinned lossy profile and compare against the committed
/// digests. (The full 18-cell lossy matrix is verified by
/// `cargo run -p asap-bench --bin golden -- --check`, which CI runs in the
/// `golden` job; this keeps the test-tier cost at two cells.)
#[test]
fn lossy_golden_spot_check() {
    let golden = parse_golden(GOLDEN_LOSSY);
    assert_eq!(
        golden.len(),
        GOLDEN_OVERLAYS.len() * AlgoKind::ALL.len(),
        "lossy golden file covers the matrix"
    );
    let world = golden_world();
    let spec = replay_spec(GOLDEN_LOSSY_PROFILE, false);
    for (algo, overlay) in [
        (AlgoKind::Flooding, GOLDEN_OVERLAYS[0]),
        (AlgoKind::AsapRw, GOLDEN_OVERLAYS[2]),
    ] {
        let r = replay_cell(&world, algo, overlay, &spec);
        assert_eq!(r.violations, 0, "auditor violations under loss");
        let (_, _, want) = golden
            .iter()
            .find(|(o, a, _)| *o == overlay.label() && *a == algo.label())
            .expect("cell present in lossy golden");
        assert_eq!(
            r.digest,
            *want,
            "lossy digest drift in {} / {} — if intentional, regenerate with \
             `cargo run -p asap-bench --bin golden`",
            algo.label(),
            overlay.label()
        );
    }
}

/// Super-peer ASAP's three pinned cells replay clean to their committed
/// digests on both carriers, with no frame failing to decode.
#[test]
fn superpeer_golden_replays_on_both_carriers() {
    let golden = parse_golden(GOLDEN_SUPERPEER);
    let cells = superpeer_cells();
    assert_eq!(golden.len(), cells.len(), "one line per overlay");
    let world = golden_world();
    let spec = replay_spec(FaultProfile::None, false);
    for ((algo, overlay), (o, a, want)) in cells.into_iter().zip(golden) {
        assert_eq!((o.as_str(), a.as_str()), (overlay.label(), algo.label()));
        let sim = replay_cell(&world, algo, overlay, &spec);
        let net = cell_to_record(&run_cell_net(&world, algo, overlay, &spec));
        assert_eq!(sim.violations, 0, "auditor violations on {o}");
        assert_eq!(net.wire_errors, 0, "frames failed to decode on {o}");
        assert_eq!(sim.digest, want, "super-peer digest drift on {o}");
        assert_eq!(net, sim, "sim/net divergence on {o}");
    }
}
