//! End-to-end tests for the hierarchical (super-peer) ASAP deployment.

use asap_core::superpeer::{SuperAsap, SuperPeerConfig};
use asap_core::AsapConfig;
use asap_overlay::{OverlayConfig, OverlayKind, PeerId};
use asap_sim::{SimReport, Simulation};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::WorkloadConfig;

const PEERS: usize = 250;
const QUERIES: usize = 400;

fn run(seed: u64, super_fraction: f64) -> SimReport<SuperAsap> {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    // Power-law overlay: hubs make natural super peers.
    let overlay = OverlayConfig::new(OverlayKind::PowerLaw, PEERS, seed).build();
    let mut asap = AsapConfig::rw().scaled_to(PEERS);
    asap.warmup_stagger_us = 5_000_000;
    let mut config = SuperPeerConfig::new(asap);
    config.super_fraction = super_fraction;
    let protocol = SuperAsap::new(config, &workload.model);
    Simulation::builder(
        &phys,
        &workload,
        overlay,
        OverlayKind::PowerLaw,
        protocol,
        seed,
    )
    .run()
}

#[test]
fn hierarchy_forms_and_answers_queries() {
    let report = run(1, 0.2);
    let stats = &report.protocol.stats;
    assert!(
        stats.supers > 0 && stats.leaves > 0,
        "both roles must exist"
    );
    assert!(
        stats.supers < PEERS / 2,
        "super peers should be a minority ({})",
        stats.supers
    );
    assert!(
        report.ledger.success_rate() > 0.5,
        "success {}",
        report.ledger.success_rate()
    );
}

#[test]
fn leaves_route_queries_through_their_home() {
    let report = run(2, 0.2);
    let stats = &report.protocol.stats;
    assert!(
        stats.leaf_queries_forwarded > 0,
        "leaves must forward queries"
    );
    assert!(
        stats.super_local_hits > 0,
        "super-peer repositories must answer lookups"
    );
}

#[test]
fn supers_are_high_degree_peers() {
    let report = run(3, 0.2);
    let proto = &report.protocol;
    let mut super_degrees = Vec::new();
    let mut leaf_degrees = Vec::new();
    for p in 0..PEERS as u32 {
        let peer = PeerId(p);
        let d = report.overlay.degree(peer);
        if proto.is_super(peer) {
            super_degrees.push(d);
        } else {
            leaf_degrees.push(d);
        }
    }
    let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    assert!(
        avg(&super_degrees) > avg(&leaf_degrees),
        "supers {:.1} vs leaves {:.1}",
        avg(&super_degrees),
        avg(&leaf_degrees)
    );
}

#[test]
fn digests_and_fetches_flow() {
    let report = run(4, 0.2);
    let stats = &report.protocol.stats;
    assert!(stats.registrations > 0);
    assert!(stats.digests_sent > 0);
    assert!(stats.fetches > 0, "interested supers must pull filters");
}

#[test]
fn all_super_mode_degenerates_gracefully() {
    // fraction = 1.0 ⇒ every node is its own home; still functional.
    let report = run(5, 1.0);
    assert_eq!(report.protocol.stats.leaves, 0);
    // Degenerate deployment: tiny single-entry digest walks cover little of
    // an all-super graph, so success leans on the one fallback round.
    assert!(report.ledger.success_rate() > 0.2);
}

#[test]
fn deterministic() {
    let a = run(6, 0.2);
    let b = run(6, 0.2);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.ledger.success_rate(), b.ledger.success_rate());
}
