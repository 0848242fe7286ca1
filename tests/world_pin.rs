//! Tier-1 pin of world construction above the golden matrix's scale.
//!
//! The golden files stop at 1,500 peers, where a random overlay has about
//! ten orphan components to repair and a trace sees a few hundred content
//! changes. This pins the 10,000-peer world — the trace and the adjacency of
//! all three overlays — to FNV-1a constants computed before the
//! connectivity repair went one-pass and the trace generator stopped
//! building per-peer keyword state (it reads `Holdings` alone), so a
//! construction shortcut that changes a single neighbor slot or trace
//! event at scale turns `cargo test -q` red. The simulator's keyword
//! signatures are built after the world, not in it, and cannot move these.
//! The physical topology under it is pinned the same way, by its edge list
//! and by the latencies the network answers.

use asap_p2p::overlay::{OverlayConfig, OverlayKind};
use asap_p2p::sim::{Codec, Encoder, Fnv64};
use asap_p2p::topology::{self, PhysNodeId, PhysicalNetwork, TransitStubConfig};
use asap_p2p::workload::{generate, DocId, TraceEvent, Workload, WorkloadConfig};

const PEERS: usize = 10_000;
const SEED: u64 = 42;

const TRACE_FNV: u64 = 0xbbcc_4a3f_3bff_5971;
const FLASH_TRACE_FNV: u64 = 0xc26e_764a_43e8_cf5b;
const CATALOGUE_FNV: u64 = 0xd934_b044_a3ba_02eb;
const OVERLAY_FNV: [(OverlayKind, usize, u64); 3] = [
    (OverlayKind::Random, 25_070, 0x01b4_90bd_bfa7_41ee),
    (OverlayKind::PowerLaw, 25_048, 0xe752_df36_23c0_f407),
    (OverlayKind::Crawled, 17_199, 0x3506_4e5f_18eb_f2a2),
];

/// The FNV of every event in its checkpoint encoding (a codec format change
/// moves the trace constants together with `ckpt_tiny.txt`), and the
/// number of content changes.
fn trace_fnv(w: &Workload) -> (u64, usize) {
    let mut enc = Encoder::new();
    for te in &w.trace.events {
        enc.put_u64(te.time_us);
        te.event.put(&mut enc);
    }
    let mut h = Fnv64::new();
    h.write_bytes(&enc.into_bytes());
    let changes = w
        .trace
        .events
        .iter()
        .filter(|te| {
            matches!(
                te.event,
                TraceEvent::AddDocument { .. } | TraceEvent::RemoveDocument { .. }
            )
        })
        .count();
    (h.finish(), changes)
}

#[test]
fn trace_at_10k_peers_is_pinned() {
    let w = generate(&WorkloadConfig::reduced(PEERS, 3_000, SEED));
    let (fnv, changes) = trace_fnv(&w);
    assert!(
        changes > 200,
        "only {changes} content changes: the pin is weak"
    );
    assert_eq!(w.trace.validate(&w.model), 3_000);
    assert_eq!(fnv, TRACE_FNV, "trace drifted: {fnv:#018x}");
}

/// The flash-crowd trace at the golden matrix's largest scale, where the
/// scenario goldens (150 peers) do not reach. The constant was computed
/// before the workload's perturbation knobs folded into one switch.
#[test]
fn flash_crowd_trace_is_pinned() {
    let mut cfg = WorkloadConfig::reduced(1_500, 4_000, SEED);
    cfg.flash_crowd = true;
    let w = generate(&cfg);
    let (fnv, changes) = trace_fnv(&w);
    assert_eq!(w.trace.events.len(), 4_718);
    assert_eq!(changes, 434);
    assert_eq!(w.trace.validate(&w.model), 4_000);
    assert_eq!(
        fnv, FLASH_TRACE_FNV,
        "flash-crowd trace drifted: {fnv:#018x}"
    );
}

/// Every document's class, keyword count and keywords, then the document
/// count: pins the catalogue's contents whatever layout stores them.
#[test]
fn catalogue_at_10k_peers_is_pinned() {
    let model = generate(&WorkloadConfig::reduced(PEERS, 3_000, SEED)).model;
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
    assert!(
        model.num_docs() > 100_000,
        "only {} documents",
        model.num_docs()
    );
    assert_eq!(
        h.finish(),
        CATALOGUE_FNV,
        "catalogue drifted: {:#018x}",
        h.finish()
    );
}

#[test]
fn overlays_at_10k_peers_are_pinned() {
    for (kind, edges, pinned) in OVERLAY_FNV {
        let ov = OverlayConfig::new(kind, PEERS, SEED).build();
        assert!(ov.is_connected(), "{kind:?} not connected");
        let mut h = Fnv64::new();
        for nbrs in ov.adjacency() {
            h.write_u64(nbrs.len() as u64);
            for n in nbrs {
                h.write_u64(n.0.into());
            }
        }
        assert_eq!(ov.num_edges(), edges, "{kind:?} edge count drifted");
        assert_eq!(h.finish(), pinned, "{kind:?} drifted: {:#018x}", h.finish());
    }
}

/// `(edges, latencies)` FNVs of one topology: the node count and every
/// `(a, b, w)` of the generated graph in `edges()` order, then the latency
/// of 100,000 LCG-drawn pairs and of every pair inside stub domain 0.
fn topology_fnvs(cfg: &TransitStubConfig) -> (u64, u64) {
    let g = topology::generate(cfg);
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

/// The default-scale and paper topologies, pinned before the generator's
/// adjacency went to CSR and the network stopped keeping it.
#[test]
fn topology_is_pinned() {
    for (cfg, pinned) in [
        (
            TransitStubConfig::medium(SEED),
            (0xf342_d299_8757_98aa, 0x09f0_79b5_a38f_b1d7),
        ),
        (
            TransitStubConfig::paper_default(SEED),
            (0x0d24_c901_2c5e_5437, 0x75f1_58d4_1155_94da),
        ),
    ] {
        let got = topology_fnvs(&cfg);
        assert_eq!(
            got,
            pinned,
            "{} nodes drifted: ({:#018x}, {:#018x})",
            cfg.expected_nodes(),
            got.0,
            got.1
        );
    }
}
