//! Diagnostic harness: runs ASAP(RW) on a small world and prints protocol
//! statistics plus a post-mortem of failed queries (where was the holder's
//! ad?). Used during calibration; kept as a debugging tool.

use asap_core::{Asap, AsapConfig};
use asap_metrics::MsgClass;
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_sim::Simulation;
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{TraceEvent, WorkloadConfig};

fn main() {
    let seed = 1;
    let peers = 300;
    let refresh_s: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(peers, 400, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
    let mut config = AsapConfig::rw().scaled_to(peers);
    config.warmup_stagger_us = 5_000_000;
    config.refresh_interval_us = refresh_s * 1_000_000;
    eprintln!(
        "config: budget_unit={} cache_cap={} refresh={}s",
        config.budget_unit, config.cache_capacity, refresh_s
    );
    let protocol = Asap::new(config, &workload.model);
    let report = Simulation::builder(
        &phys,
        &workload,
        overlay.clone(),
        OverlayKind::Random,
        protocol,
        seed,
    )
    .run();
    let s = &report.protocol.stats;
    eprintln!(
        "queries={} success={:.3} rt={:.1}ms",
        report.ledger.num_queries(),
        report.ledger.success_rate(),
        report.ledger.avg_response_time_ms()
    );
    eprintln!("stats: local_hits={} fallbacks={} confirms={} positive={} repairs={} full_del={} patch_del={} refresh_del={}",
        s.local_lookup_hits, s.fallback_rounds, s.confirms_sent, s.confirms_positive, s.repair_fetches,
        s.full_deliveries, s.patch_deliveries, s.refresh_deliveries);
    let t = report.load.class_totals();
    for c in MsgClass::ALL {
        if t[c.index()] > 0 {
            eprintln!("  {:>14}: {}", c.label(), t[c.index()]);
        }
    }
    eprintln!(
        "per-search cost = {:.0} B",
        report.load.search_cost_bytes() as f64 / report.ledger.num_queries() as f64
    );
    eprintln!(
        "mean load = {:.1} B/node/s, stddev = {:.1}",
        report.load.mean_load(),
        report.load.stddev_load()
    );

    // Post-mortem: for each failed query, where was the holder's ad?
    let mut failed = 0;
    let mut holder_own_ver_newer = 0; // holder changed content during trace
    let mut req_has = 0;
    let mut req_has_stale_or_old = 0;
    let mut nbr_has = 0;
    let mut nowhere = 0;

    // records() returns refs; collect outcomes by id order
    let recs: Vec<(u64, bool)> = report
        .ledger
        .records()
        .map(|r| (r.issue_us, r.first_answer_us.is_some()))
        .collect();
    let mut qi = 0usize;
    for ev in &workload.trace.events {
        if let TraceEvent::Query(q) = &ev.event {
            let ok = recs.get(qi).map(|r| r.1).unwrap_or(false);
            qi += 1;
            if ok {
                continue;
            }
            failed += 1;
            // find holders of the target in the final overlay state
            let holders: Vec<_> = (0..peers as u32)
                .map(asap_overlay::PeerId)
                .filter(|&p| {
                    workload.model.initial_holdings[p.index()]
                        .binary_search(&q.target)
                        .is_ok()
                })
                .collect();
            let asap = &report.protocol;
            let mut any_req = false;
            let mut any_fresh = false;
            let mut any_nbr = false;
            for &h in &holders {
                if asap.own_version(h) > 0 {
                    holder_own_ver_newer += 1;
                }
                if let Some((_v, stale)) = asap.cached_version(q.requester, h) {
                    any_req = true;
                    if !stale {
                        any_fresh = true;
                    }
                }
                for &n in report.overlay.neighbors(q.requester) {
                    if asap.cached_version(n, h).is_some() {
                        any_nbr = true;
                    }
                }
            }
            if any_req && any_fresh {
                req_has += 1;
            } else if any_req {
                req_has_stale_or_old += 1;
            } else if any_nbr {
                nbr_has += 1;
            } else {
                nowhere += 1;
            }
        }
    }
    eprintln!("failed={failed}: req_has_fresh={req_has} req_stale={req_has_stale_or_old} nbr_has={nbr_has} nowhere={nowhere} holder_ver_bumps={holder_own_ver_newer}");
}
