//! Algorithm face-off: flooding vs random walk vs GSA vs the three ASAP
//! variants on one overlay, printed as a comparison table.
//!
//! ```sh
//! cargo run --release --example algorithm_faceoff [-- crawled|random|powerlaw]
//! ```
//!
//! This is the paper's §V-C comparison in miniature: flooding wins success
//! but burns bandwidth; random walk is cheap but slow and unreliable; the
//! ASAP variants keep success high at a fraction of the cost.

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use asap_p2p::asap::{Asap, AsapConfig};
use asap_p2p::overlay::{OverlayConfig, OverlayKind};
use asap_p2p::search::{Flooding, FloodingConfig, Gsa, GsaConfig, RandomWalk, RandomWalkConfig};
use asap_p2p::sim::{Protocol, Simulation};
use asap_p2p::topology::{PhysicalNetwork, TransitStubConfig};
use asap_p2p::workload::{Workload, WorkloadConfig};

const PEERS: usize = 400;
const QUERIES: usize = 800;
const SEED: u64 = 11;

struct Row {
    name: &'static str,
    success: f64,
    response_ms: f64,
    cost_bytes: f64,
    mean_load: f64,
    stddev_load: f64,
}

fn run<P: Protocol>(
    phys: &PhysicalNetwork,
    workload: &Workload,
    kind: OverlayKind,
    name: &'static str,
    protocol: P,
) -> Row {
    eprintln!("running {name} ...");
    let overlay = OverlayConfig::new(kind, PEERS, SEED).build();
    let report = Simulation::builder(phys, workload, overlay, kind, protocol, SEED).run();
    Row {
        name,
        success: report.ledger.success_rate(),
        response_ms: report.ledger.avg_response_time_ms(),
        cost_bytes: report.load.search_cost_bytes() as f64
            / report.ledger.num_queries().max(1) as f64,
        mean_load: report.load.mean_load(),
        stddev_load: report.load.stddev_load(),
    }
}

fn asap(config: AsapConfig, workload: &Workload) -> Asap {
    let mut config = config.scaled_to(PEERS);
    config.warmup_stagger_us = 5_000_000;
    config.refresh_interval_us = 10_000_000;
    Asap::new(config, &workload.model)
}

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("random") | None => OverlayKind::Random,
        Some("powerlaw") => OverlayKind::PowerLaw,
        Some("crawled") => OverlayKind::Crawled,
        Some(other) => {
            eprintln!("unknown overlay '{other}' (use random|powerlaw|crawled)");
            std::process::exit(2);
        }
    };
    let phys = PhysicalNetwork::generate(&TransitStubConfig::medium(SEED));
    let workload = asap_p2p::workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, SEED));
    println!(
        "overlay={} peers={PEERS} queries={} (scaled baselines: RW ttl=41, GSA budget=320)\n",
        kind.label(),
        workload.trace.num_queries()
    );

    let rows = vec![
        run(
            &phys,
            &workload,
            kind,
            "flooding",
            Flooding::new(FloodingConfig::default()),
        ),
        run(
            &phys,
            &workload,
            kind,
            "random-walk",
            RandomWalk::new(RandomWalkConfig {
                walkers: 5,
                ttl: 41, // 1,024 × (400 / 10,000)
                retransmit: None,
            }),
        ),
        run(
            &phys,
            &workload,
            kind,
            "GSA",
            Gsa::new(GsaConfig {
                budget: 320, // 8,000 × (400 / 10,000)
                branch: 4,
            }),
        ),
        run(
            &phys,
            &workload,
            kind,
            "ASAP(FLD)",
            asap(AsapConfig::fld(), &workload),
        ),
        run(
            &phys,
            &workload,
            kind,
            "ASAP(RW)",
            asap(AsapConfig::rw(), &workload),
        ),
        run(
            &phys,
            &workload,
            kind,
            "ASAP(GSA)",
            asap(AsapConfig::gsa(), &workload),
        ),
    ];

    println!(
        "{:<12} {:>9} {:>12} {:>14} {:>12} {:>10}",
        "algorithm", "success", "response-ms", "bytes/search", "load(B/n/s)", "load-σ"
    );
    println!("{}", "-".repeat(74));
    for r in rows {
        println!(
            "{:<12} {:>8.1}% {:>12.1} {:>14.0} {:>12.1} {:>10.1}",
            r.name,
            r.success * 100.0,
            r.response_ms,
            r.cost_bytes,
            r.mean_load,
            r.stddev_load
        );
    }
}
