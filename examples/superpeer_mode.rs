//! Super-peer mode: the hierarchical ASAP deployment the paper sketches in
//! footnote 3 ("only super peers are responsible for ad representation,
//! delivery, caching and processing"), compared head-to-head with flat
//! ASAP(RW) on the same world.
//!
//! ```sh
//! cargo run --release --example superpeer_mode
//! ```

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use asap_p2p::asap::superpeer::SuperAsap;
use asap_p2p::asap::{Asap, AsapConfig};
use asap_p2p::overlay::{OverlayConfig, OverlayKind};
use asap_p2p::sim::Simulation;
use asap_p2p::topology::{PhysicalNetwork, TransitStubConfig};
use asap_p2p::workload::WorkloadConfig;

const PEERS: usize = 400;
const QUERIES: usize = 800;
const SEED: u64 = 17;

fn asap_config() -> AsapConfig {
    let mut c = AsapConfig::rw().scaled_to(PEERS);
    c.warmup_stagger_us = 5_000_000;
    c.refresh_interval_us = 10_000_000;
    c
}

fn main() {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::medium(SEED));
    let workload = asap_p2p::workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, SEED));
    // Power-law overlays have natural hubs for the super-peer role.
    let kind = OverlayKind::PowerLaw;

    // Flat ASAP(RW).
    let overlay = OverlayConfig::new(kind, PEERS, SEED).build();
    let flat = Simulation::builder(
        &phys,
        &workload,
        overlay,
        kind,
        Asap::new(asap_config(), &workload.model),
        SEED,
    )
    .run();

    // Hierarchical deployment over the same world.
    let overlay = OverlayConfig::new(kind, PEERS, SEED).build();
    let hier = Simulation::builder(
        &phys,
        &workload,
        overlay,
        kind,
        SuperAsap::new(asap_config(), &workload.model),
        SEED,
    )
    .run();

    let s = &hier.protocol.stats;
    println!(
        "hierarchy: {} super peers / {} leaves ({} registrations, {} digests, {} fetches)\n",
        s.supers, s.leaves, s.registrations, s.digests_sent, s.fetches
    );
    println!(
        "{:<14} {:>9} {:>12} {:>13} {:>12} {:>9}",
        "deployment", "success", "response-ms", "bytes/search", "load(B/n/s)", "load-σ"
    );
    println!("{}", "-".repeat(74));
    for (name, r) in [
        ("flat ASAP(RW)", (&flat.ledger, &flat.load)),
        ("super-peer", (&hier.ledger, &hier.load)),
    ] {
        let (ledger, load) = r;
        println!(
            "{:<14} {:>8.1}% {:>12.1} {:>13.0} {:>12.1} {:>9.1}",
            name,
            ledger.success_rate() * 100.0,
            ledger.avg_response_time_ms(),
            load.search_cost_bytes() as f64 / ledger.num_queries().max(1) as f64,
            load.mean_load(),
            load.stddev_load()
        );
    }
    println!(
        "\nLeaves spend nothing on ad caching or delivery; the trade is one extra\n\
         hop to the home super peer plus concentrated load on the hubs."
    );
}
