//! Tier-1 golden smoke: `cargo test -q` at the root replays four pinned
//! cells of the fault-free golden matrix — the three baselines and ASAP(RW)
//! on the random overlay — and compares each full record line (`digest
//! queries succeeded messages`) with `golden/replay_tiny.txt`, so the
//! tier-1 command goes red when engine or protocol behaviour drifts. The
//! whole 150-digest matrix stays with `golden -- --check`.

use asap_bench::faults::FaultProfile;
use asap_bench::harness::{
    diff_golden, golden_lines, golden_world, replay_cell, replay_spec, ReplayRecord,
    REPLAY_KEY_COLS,
};
use asap_bench::AlgoKind;
use asap_overlay::OverlayKind;

const GOLDEN: &str = include_str!("../crates/asap-bench/golden/replay_tiny.txt");

#[test]
fn pinned_cells_replay_to_their_committed_lines() {
    let world = golden_world();
    let spec = replay_spec(FaultProfile::None, false);
    let records: Vec<ReplayRecord> = [
        AlgoKind::Flooding,
        AlgoKind::RandomWalk,
        AlgoKind::Gsa,
        AlgoKind::AsapRw,
    ]
    .into_iter()
    .map(|algo| replay_cell(&world, algo, OverlayKind::Random, &spec))
    .collect();
    for r in &records {
        assert_eq!(r.violations, 0, "auditor violations in {}", r.algo.label());
    }
    // The 14 committed cells this test skips come back as "vanished" (no
    // computed line); a drift that has a computed line is one of the four
    // replayed here — changed, or missing from the committed file.
    let drifted: Vec<_> = diff_golden(GOLDEN, &golden_lines(&records, ""), REPLAY_KEY_COLS)
        .into_iter()
        .filter(|d| d.computed.is_some())
        .collect();
    assert!(
        drifted.is_empty(),
        "golden drift — if intentional, regenerate with \
         `cargo run -p asap-bench --bin golden`: {drifted:#?}"
    );
}
