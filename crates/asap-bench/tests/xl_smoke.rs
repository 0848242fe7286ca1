//! XL-scale smoke: the 100,000-peer tier actually runs end to end.
//!
//! Ignored by default — building the 103,872-node streamed topology plus a
//! 100k-peer cell takes ~15 s in release (minutes in debug). CI's bench-smoke
//! job and local deep runs opt in with `cargo test --release -- --ignored`.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;

#[test]
#[ignore = "builds a 103,872-node topology and runs a 100k-peer cell; release-only"]
fn xl_cell_completes_and_answers_a_query() {
    let world = World::build(Scale::Xl, 42);
    assert_eq!(world.scale.peers(), 100_000);
    assert!(
        world.phys.num_nodes() >= 100_000,
        "xl topology must cover every peer ({} phys nodes)",
        world.phys.num_nodes()
    );

    let spec = RunSpec::figures();
    let cell = run_cell_spec(&world, AlgoKind::RandomWalk, OverlayKind::Random, &spec);
    assert!(cell.queries > 0, "xl cell must run queries");
    assert!(
        cell.summary.success_rate > 0.0,
        "a 100k-peer random walk should answer at least one query"
    );
}
