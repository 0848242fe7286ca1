//! XL-scale smoke: the 100,000-peer tier actually runs end to end.
//!
//! Ignored by default — building the 103,872-node streamed topology plus a
//! 100k-peer cell takes ~3 s in release, the three 100k-peer overlays 0.1 s
//! more (minutes in debug). CI's bench-smoke job and local deep runs opt in
//! with `cargo test --release -- --ignored`.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_topology::{dijkstra, LatencyCoord, PhysNodeId, PhysicalNetwork, TransitStubConfig};

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

/// The latency coordinates are exact at the xl topology too — 60-node stub
/// domains, 192 transit nodes — checked against Dijkstra from a transit
/// node, a gateway, a stub node deep in its domain and a spread of others,
/// to every one of the 103,872 nodes (same-domain targets included).
#[test]
#[ignore = "runs eight Dijkstra passes over the 103,872-node topology; release-only"]
fn xl_latency_coordinates_match_dijkstra() {
    let net = PhysicalNetwork::generate(&TransitStubConfig::xl(42));
    let g = net.graph();
    let coords: Vec<LatencyCoord> = (0..g.num_nodes() as u32)
        .map(|i| net.coord(PhysNodeId(i)))
        .collect();
    let sd = &g.stub_domains()[g.stub_domains().len() / 2];
    let deep = (sd.members.start..sd.members.end)
        .map(PhysNodeId)
        .max_by_key(|&n| net.latency_us(n, sd.gateway))
        .expect("a non-empty stub domain");
    let mut sources = vec![PhysNodeId(0), sd.gateway, deep];
    sources.extend((1..6).map(|k| PhysNodeId(k * 17_321 % g.num_nodes() as u32)));
    for src in sources {
        let truth = dijkstra::sssp(g, src);
        for (b, &want) in truth.iter().enumerate() {
            let got = net.coord_latency_us(coords[src.index()], coords[b]);
            assert_eq!(got, want, "{src:?} -> {b}");
        }
    }
}
