//! Quickstart: build a small P2P world, run ASAP on it, search for content.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the whole stack in ~40 lines of user code: generate a
//! GT-ITM physical network, an eDonkey-like workload, a random overlay, run
//! the ASAP(RW) protocol over the trace and read the results.

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use asap_p2p::asap::{Asap, AsapConfig};
use asap_p2p::metrics::MsgClass;
use asap_p2p::overlay::{OverlayConfig, OverlayKind};
use asap_p2p::sim::Simulation;
use asap_p2p::topology::{PhysicalNetwork, TransitStubConfig};
use asap_p2p::workload::WorkloadConfig;

fn main() {
    let seed = 7;
    let peers = 300;

    // 1. The physical Internet model: transit-stub hierarchy with per-tier
    //    latencies. Every overlay hop is charged its shortest-path latency.
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    println!("physical network: {} nodes", phys.num_nodes());

    // 2. The workload: content model (14 semantic classes, ~1.28 copies per
    //    document) plus a query/churn trace.
    let workload = asap_p2p::workload::generate(&WorkloadConfig::reduced(peers, 600, seed));
    let (mean_copies, singletons) = workload.model.copy_stats();
    println!(
        "workload: {} docs, {:.2} copies/doc, {:.0}% singletons, {} events",
        workload.model.num_docs(),
        mean_copies,
        singletons * 100.0,
        workload.trace.events.len()
    );

    // 3. The logical overlay the peers gossip over.
    let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
    println!("overlay: avg degree {:.2}", overlay.avg_degree());

    // 4. ASAP with random-walk ad delivery, scaled to this population.
    let mut config = AsapConfig::rw().scaled_to(peers);
    config.warmup_stagger_us = 5_000_000; // short trace ⇒ quick warm-up
    config.refresh_interval_us = 8_000_000;
    let protocol = Asap::new(config, &workload.model);

    // 5. Replay the trace.
    let report = Simulation::builder(
        &phys,
        &workload,
        overlay,
        OverlayKind::Random,
        protocol,
        seed,
    )
    .run();

    // 6. Read the results.
    println!("\n== results ==");
    println!("queries:        {}", report.ledger.num_queries());
    println!(
        "success rate:   {:.1}%",
        report.ledger.success_rate() * 100.0
    );
    println!(
        "response time:  {:.1} ms (avg over successes)",
        report.ledger.avg_response_time_ms()
    );
    println!(
        "search cost:    {:.0} bytes/search (confirmations + ads requests)",
        report.load.search_cost_bytes() as f64 / report.ledger.num_queries() as f64
    );
    println!(
        "system load:    {:.1} bytes/node/s (σ = {:.1})",
        report.load.mean_load(),
        report.load.stddev_load()
    );
    let stats = &report.protocol.stats;
    println!(
        "ad deliveries:  {} full, {} patch, {} refresh",
        stats.full_deliveries, stats.patch_deliveries, stats.refresh_deliveries
    );
    println!(
        "local-cache hits: {}/{} queries answered without leaving the node",
        stats.local_lookup_hits,
        report.ledger.num_queries()
    );
    let totals = report.load.class_totals();
    println!(
        "ad traffic:     {} B full / {} B patch / {} B refresh",
        totals[MsgClass::FullAd.index()],
        totals[MsgClass::PatchAd.index()],
        totals[MsgClass::RefreshAd.index()]
    );
}
