//! XL-scale smoke: the 100,000-peer tier actually runs end to end.
//!
//! Ignored by default — building the 103,872-node streamed topology plus a
//! 100k-peer cell takes ~3 s in release, the three 100k-peer overlays 0.1 s
//! more (minutes in debug). CI's bench-smoke job and local deep runs opt in
//! with `cargo test --release -- --ignored`.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::{OverlayConfig, OverlayKind};

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

/// All three overlay families build at the XL population. No wall-clock
/// assertion: with a per-orphan re-scan in `repair_connectivity` these three
/// builds take about half a minute in release instead of 0.1 s, which is
/// what makes this step a guard on the repair's complexity.
#[test]
#[ignore = "builds three 100k-peer overlays; release-only"]
fn xl_overlays_build_connected_with_pinned_edge_counts() {
    for (kind, edges) in [
        (OverlayKind::Random, 250_667),
        (OverlayKind::PowerLaw, 250_653),
        (OverlayKind::Crawled, 172_207),
    ] {
        let ov = OverlayConfig::new(kind, Scale::Xl.peers(), 42).build();
        assert!(ov.is_connected(), "{kind:?} not connected at xl");
        assert_eq!(ov.num_edges(), edges, "{kind:?} edge count at xl");
    }
}
