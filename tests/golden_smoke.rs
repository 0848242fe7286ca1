//! Tier-1 golden smoke: `cargo test -q` at the root replays four pinned
//! cells of the fault-free golden matrix — the three baselines and ASAP(RW)
//! on the random overlay — and compares each full record line (`digest
//! queries succeeded messages`) with `golden/replay_tiny.txt`, so the
//! tier-1 command goes red when engine or protocol behaviour drifts. Each
//! cell is replayed twice, on the sim's in-memory carrier and on the net
//! carrier (every message through the wire codec), and both must produce
//! the committed line with no frame failing to decode: the sim≡net witness
//! in small. The whole 150-digest matrix, and all 36 net cells, stay with
//! `golden -- --check`.

use asap_bench::faults::FaultProfile;
use asap_bench::harness::{
    cell_to_record, diff_golden, golden_lines, golden_world, replay_cell, replay_spec,
    ReplayRecord, REPLAY_KEY_COLS,
};
use asap_bench::runner::run_cell_net;
use asap_bench::AlgoKind;
use asap_overlay::OverlayKind;

const GOLDEN: &str = include_str!("../crates/asap-bench/golden/replay_tiny.txt");

const ALGOS: [AlgoKind; 4] = [
    AlgoKind::Flooding,
    AlgoKind::RandomWalk,
    AlgoKind::Gsa,
    AlgoKind::AsapRw,
];

#[test]
fn pinned_cells_replay_to_their_committed_lines() {
    let world = golden_world();
    let spec = replay_spec(FaultProfile::None, false);
    let sim = ALGOS.map(|algo| replay_cell(&world, algo, OverlayKind::Random, &spec));
    let net =
        ALGOS.map(|algo| cell_to_record(&run_cell_net(&world, algo, OverlayKind::Random, &spec)));
    for r in sim.iter().chain(&net) {
        assert_eq!(r.violations, 0, "auditor violations in {}", r.algo.label());
        assert_eq!(
            r.wire_errors,
            0,
            "frames failed to decode in {}",
            r.algo.label()
        );
    }
    assert_committed("sim", &sim);
    assert_committed("net", &net);
}

fn assert_committed(carrier: &str, records: &[ReplayRecord]) {
    // The 14 committed cells this test skips come back as "vanished" (no
    // computed line); a drift that has a computed line is one of the four
    // replayed here — changed, or missing from the committed file.
    let drifted: Vec<_> = diff_golden(GOLDEN, &golden_lines(records, ""), REPLAY_KEY_COLS)
        .into_iter()
        .filter(|d| d.computed.is_some())
        .collect();
    assert!(
        drifted.is_empty(),
        "golden drift on the {carrier} carrier — if intentional, regenerate with \
         `cargo run -p asap-bench --bin golden`: {drifted:#?}"
    );
}
