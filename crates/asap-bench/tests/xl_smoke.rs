//! XL-scale smoke: the 100,000-peer tier actually runs end to end.
//!
//! Ignored by default — building the 103,872-node streamed topology plus a
//! 100k-peer cell takes ~4 s in release on a 2-core x86-64 host (set-up
//! ≈0.8 s of it), the three 100k-peer overlays 0.1 s more (minutes in
//! debug). CI's bench-smoke job and local deep runs opt in
//! with `cargo test --release -- --ignored`.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_sim::{Codec, Encoder, Fnv64};
use asap_topology::{dijkstra, LatencyCoord, PhysNodeId, PhysicalNetwork, TransitStubConfig};
use asap_workload::{ContentState, DocId, Holdings, PeerId, TraceEvent, Workload};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The xl workload at seed 42, generated once for the tests that read it.
fn xl_workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| asap_workload::generate(&Scale::Xl.workload(42)))
}

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
    // The network keeps no adjacency; the generator is deterministic in
    // the config, so this is the graph the network's oracle was built from.
    let cfg = TransitStubConfig::xl(42);
    let net = PhysicalNetwork::generate(&cfg);
    let g = asap_topology::generate(&cfg);
    let coords: Vec<LatencyCoord> = (0..g.num_nodes() as u32)
        .map(|i| net.coord(PhysNodeId(i)))
        .collect();
    let stub_domains = g.hierarchy().stub_domains();
    let sd = &stub_domains[stub_domains.len() / 2];
    let deep = (sd.members.start..sd.members.end)
        .map(PhysNodeId)
        .max_by_key(|&n| net.latency_us(n, sd.gateway))
        .expect("a non-empty stub domain");
    let mut sources = vec![PhysNodeId(0), sd.gateway, deep];
    sources.extend((1..6).map(|k| PhysNodeId(k * 17_321 % g.num_nodes() as u32)));
    for src in sources {
        let truth = dijkstra::sssp(&g, src);
        for (b, &want) in truth.iter().enumerate() {
            let got = net.coord_latency_us(coords[src.index()], coords[b]);
            assert_eq!(got, want, "{src:?} -> {b}");
        }
    }
}

/// `(edges, latencies)` FNVs of one topology, as `tests/world_pin.rs`
/// takes them: the node count and every `(a, b, w)` in `edges()` order,
/// then 100,000 LCG-drawn pair latencies and every pair of stub domain 0.
fn topology_fnvs(cfg: &TransitStubConfig) -> (u64, u64) {
    let g = asap_topology::generate(cfg);
    let mut h = Fnv64::new();
    h.write_u64(g.num_nodes() as u64);
    for (a, b, w) in g.edges() {
        h.write_u64(a.0.into());
        h.write_u64(b.0.into());
        h.write_u64(w.into());
    }
    let edges = h.finish();

    let net = PhysicalNetwork::generate(cfg);
    let n = net.num_nodes() as u64;
    let mut x = cfg.seed;
    let mut draw = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        PhysNodeId(((x >> 33) % n) as u32)
    };
    let mut h = Fnv64::new();
    for _ in 0..100_000 {
        let (a, b) = (draw(), draw());
        h.write_u64(net.latency_us(a, b));
    }
    let first_stub = cfg.transit_domains * cfg.transit_nodes_per_domain;
    let domain0 = first_stub..first_stub + cfg.stub_nodes_per_domain;
    for a in domain0.clone() {
        for b in domain0.clone() {
            h.write_u64(net.latency_us(PhysNodeId(a), PhysNodeId(b)));
        }
    }
    (edges, h.finish())
}

/// The streamed xl topology, pinned before the generator's adjacency went
/// to CSR and the network stopped keeping it.
#[test]
#[ignore = "generates the 103,872-node topology twice; release-only"]
fn xl_topology_is_pinned() {
    let got = topology_fnvs(&TransitStubConfig::xl(42));
    assert_eq!(
        got,
        (0xf170_c369_6220_32be, 0xe251_ad18_f73b_a1a8),
        "xl topology drifted: ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

/// The xl network holds only its hierarchy and the oracle's tables:
/// 1,728 stub domains × 60² × 2 B = 12.4 MB of hop tables, 103,872 kinds
/// × 8 B = 0.8 MB, a 192² × 8 B = 0.3 MB transit table and 1,728 × 16 B of
/// stub records ≈ 13.6 MB, under 16 MB. Keeping the 1.23 M-edge adjacency
/// would add ≈ 20 MB as CSR (16 B per edge), ≈ 52 MB as per-node `Vec`s.
#[test]
#[ignore = "builds the 103,872-node topology; release-only"]
fn xl_network_heap_is_bounded() {
    let bytes = PhysicalNetwork::generate(&TransitStubConfig::xl(42)).heap_bytes();
    assert!(bytes <= 16 << 20, "{bytes} B");
}

/// The xl content state keeps a signature per peer and the lists the
/// trace edited, nothing per initial copy. The lower bound is the
/// signatures: 100,000 × 128 B = 12,800,000 B, all there is before the
/// trace. The upper bound adds, for each peer the trace changes, a 4 B key,
/// a 24 B list header and the list's capacity: copied at its initial
/// length, grown by doubling, so at most max(4, 2 × (initial length +
/// documents added)) ids of 4 B. Measured: 12,800,000 B before the trace
/// and 12,815,404 B after it, against a bound of 12,819,340 B. A list per
/// peer, as before, kept 22,701,032 B: 100,000 × 24 B of headers and 4 B
/// for each of the 1,875,258 initial copies on top of the signatures.
#[test]
#[ignore = "generates the 100k-peer workload; release-only"]
fn xl_content_state_heap_is_bounded() {
    let w = xl_workload();
    let mut state = ContentState::from_model(&w.model);
    let signatures = 100_000 * 128;
    assert_eq!(state.heap_bytes(), signatures, "before the trace");
    let mut added = BTreeMap::new();
    for te in &w.trace.events {
        match te.event {
            TraceEvent::AddDocument { peer, doc } => {
                assert!(state.add(peer, doc));
                *added.entry(peer).or_insert(0) += 1;
            }
            TraceEvent::RemoveDocument { peer, doc } => {
                assert!(state.remove(peer, doc));
                added.entry(peer).or_insert(0);
            }
            _ => {}
        }
    }
    let lists: usize = added
        .iter()
        .map(|(&p, &adds)| 28 + 4 * (2 * (w.model.initial_holdings(p).len() + adds)).max(4))
        .sum();
    let bytes = state.heap_bytes();
    assert!(
        bytes > signatures,
        "{bytes} B: no edited list after the trace"
    );
    assert!(
        bytes <= signatures + lists,
        "{bytes} B after the trace, bound {} B",
        signatures + lists
    );
}

/// The trace generator's holdings keep the initial holders as a CSR
/// transpose, 1,471,683 offsets of 4 B (one per document, plus one) and
/// 1,875,258 peer ids of 4 B (one per initial copy), plus the lists and
/// rows the trace edited: 13,387,764 B before the trace and 13,407,116 B
/// after it, under 16 MiB. A `Vec` per peer with a copy of its documents,
/// a 12 B holder span per document and a 4 B slot per holder, as before,
/// kept ≈ 35 MB.
#[test]
#[ignore = "generates the 100k-peer workload; release-only"]
fn xl_holdings_heap_is_bounded() {
    let w = xl_workload();
    let mut holdings = Holdings::from_model(&w.model);
    assert!(
        holdings.heap_bytes() <= 16 << 20,
        "{} B",
        holdings.heap_bytes()
    );
    for te in &w.trace.events {
        match te.event {
            TraceEvent::AddDocument { peer, doc } => assert!(holdings.add(peer, doc)),
            TraceEvent::RemoveDocument { peer, doc } => assert!(holdings.remove(peer, doc)),
            _ => {}
        }
    }
    assert!(
        holdings.heap_bytes() <= 16 << 20,
        "{} B after the trace",
        holdings.heap_bytes()
    );
}

/// `(catalogue, holdings, trace)` FNVs of the xl workload at seed 42: every
/// document's class, keyword count and keywords then the document count,
/// as `tests/world_pin.rs` folds the catalogue; every peer's initial
/// holdings, count first; and every trace event in its checkpoint encoding.
/// Pinned before keyword ids went to 16 bits, the initial holdings to one
/// flat arena and the class pools out of the model.
#[test]
#[ignore = "generates the 100k-peer workload; release-only"]
fn xl_world_content_is_pinned() {
    let w = xl_workload();
    let model = &w.model;
    let mut h = Fnv64::new();
    for d in 0..model.num_docs() {
        let doc = model.doc(DocId(d as u32));
        h.write_u64(doc.class.0.into());
        h.write_u64(doc.keywords.len() as u64);
        for kw in doc.keywords {
            h.write_u64(kw.0.into());
        }
    }
    h.write_u64(model.num_docs() as u64);
    let catalogue = h.finish();

    let mut h = Fnv64::new();
    for p in 0..model.num_peers() {
        let held = model.initial_holdings(PeerId(p as u32));
        h.write_u64(held.len() as u64);
        for d in held {
            h.write_u64(d.0.into());
        }
    }
    let holdings = h.finish();

    let mut enc = Encoder::new();
    for te in &w.trace.events {
        enc.put_u64(te.time_us);
        te.event.put(&mut enc);
    }
    let mut h = Fnv64::new();
    h.write_bytes(&enc.into_bytes());
    let trace = h.finish();

    assert_eq!(
        (model.num_peers(), model.num_docs(), w.trace.events.len()),
        (100_000, 1_471_682, 21_010)
    );
    assert_eq!(
        (catalogue, holdings, trace),
        (
            0x8afb_b8ff_67c4_4298,
            0xae9b_24c0_d30f_d59b,
            0xf21a_d44a_f9ea_bdcd
        ),
        "xl content drifted: ({catalogue:#018x}, {holdings:#018x}, {trace:#018x})"
    );
}

/// The xl content model keeps only what a run reads, each array exactly
/// its length: 1,471,682 documents × (1 B class + 4 B offset) + 4 B, and
/// 8,094,993 keywords × 2 B, = 23.5 MB of catalogue; 100,001 offsets and
/// 1,875,258 held copies × 4 B = 7.9 MB of initial holdings; 100,000 × 2 B
/// of interests; 28,000 × 24 B of word headers and 364,800 B of word text.
/// That is 32,686,236 B ≈ 31.2 MiB, under 32 MiB. With `u32` keyword ids,
/// a `Vec` per peer for the initial holdings and the class pools kept
/// beside them, the same count read 67.1 MB.
#[test]
#[ignore = "generates the 100k-peer workload; release-only"]
fn xl_content_model_heap_is_bounded() {
    let w = xl_workload();
    let model = &w.model;
    let copies: usize = (0..100_000)
        .map(|p| model.initial_holdings(PeerId(p)).len())
        .sum();
    let keywords: usize = (0..model.num_docs() as u32)
        .map(|d| model.doc(DocId(d)).keywords.len())
        .sum();
    let floor = model.num_docs() * 5 + keywords * 2 + 100_000 * (4 + 2) + copies * 4;
    assert!(
        model.heap_bytes() >= floor,
        "{} B misses the catalogue, the holdings or the interests",
        model.heap_bytes()
    );
    assert!(model.heap_bytes() <= 32 << 20, "{} B", model.heap_bytes());
}
