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

use asap_p2p::overlay::{OverlayConfig, OverlayKind};
use asap_p2p::sim::{Codec, Encoder, Fnv64};
use asap_p2p::workload::{generate, DocId, TraceEvent, WorkloadConfig};

const PEERS: usize = 10_000;
const SEED: u64 = 42;

const TRACE_FNV: u64 = 0xbbcc_4a3f_3bff_5971;
const CATALOGUE_FNV: u64 = 0xd934_b044_a3ba_02eb;
const OVERLAY_FNV: [(OverlayKind, usize, u64); 3] = [
    (OverlayKind::Random, 25_070, 0x01b4_90bd_bfa7_41ee),
    (OverlayKind::PowerLaw, 25_048, 0xe752_df36_23c0_f407),
    (OverlayKind::Crawled, 17_199, 0x3506_4e5f_18eb_f2a2),
];

#[test]
fn trace_at_10k_peers_is_pinned() {
    let w = generate(&WorkloadConfig::reduced(PEERS, 3_000, SEED));
    // Every event in its checkpoint encoding (a codec format change moves
    // this constant together with `ckpt_tiny.txt`).
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
    assert!(
        changes > 200,
        "only {changes} content changes: the pin is weak"
    );
    assert_eq!(w.trace.validate(&w.model, &w.initially_alive), 3_000);
    assert_eq!(h.finish(), TRACE_FNV, "trace drifted: {:#018x}", h.finish());
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
