//! What the benchmark measures: the workloads and every metric by name.
//!
//! `/BENCHMARK.json` declares the same names, units, directions and bounds;
//! a unit test holds the two in step.

use crate::json::{obj, Json};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;

/// Which runtime carries the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic sim engine (`asap_sim::Simulation`).
    Sim,
    /// `asap_net::Loopback`: every message crosses the wire codec.
    Net,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub algo: AlgoKind,
    pub overlay: OverlayKind,
    pub scale: Scale,
    pub backend: Backend,
    /// Regenerate the trace with six times the content changes and four
    /// times the churn (`asap_rw.adheavy`).
    pub ad_heavy: bool,
    /// Fresh-process repeats of an `all` run.
    pub repeats: usize,
    /// The traced pass also times a checkpoint round trip of the half-run
    /// cell (`sim.checkpoint_*`).
    pub checkpoint_micro: bool,
    /// The traced pass also runs the cell audited (`sim.audit_tax_ratio`).
    pub audit_micro: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "asap_rw.default",
        why: "ASAP(RW) at default scale on the sim engine: read-dominated ad-cache lookups and Bloom probes",
        algo: AlgoKind::AsapRw,
        overlay: OverlayKind::Random,
        scale: Scale::Default,
        backend: Backend::Sim,
        ad_heavy: false,
        repeats: 5,
        checkpoint_micro: true,
        audit_micro: false,
    },
    Workload {
        name: "flooding.default",
        why: "flooding TTL 6: 18M events with no handler work, so only the engine queue, send, oracle and load recorder; bypasses Bloom and ad cache",
        algo: AlgoKind::Flooding,
        overlay: OverlayKind::PowerLaw,
        scale: Scale::Default,
        backend: Backend::Sim,
        ad_heavy: false,
        repeats: 5,
        checkpoint_micro: false,
        audit_micro: true,
    },
    Workload {
        name: "asap_rw.default.net",
        why: "the asap_rw.default cell through the net loopback: every message is wire-encoded and decoded; outcome must equal the sim's",
        algo: AlgoKind::AsapRw,
        overlay: OverlayKind::Random,
        scale: Scale::Default,
        backend: Backend::Net,
        ad_heavy: false,
        repeats: 3,
        checkpoint_micro: false,
        audit_micro: false,
    },
    Workload {
        name: "asap_rw.adheavy",
        why: "asap_rw.default with 6x content changes and 4x churn: the write side of ad cache and counting Bloom (insert, remove, patch, full ads)",
        algo: AlgoKind::AsapRw,
        overlay: OverlayKind::Random,
        scale: Scale::Default,
        backend: Backend::Sim,
        ad_heavy: true,
        repeats: 5,
        checkpoint_micro: false,
        audit_micro: false,
    },
    Workload {
        name: "rw.xl",
        why: "random walk on 100,000 peers: working set far beyond the caches and set-up dominated (topology, workload, overlay build)",
        algo: AlgoKind::RandomWalk,
        overlay: OverlayKind::Random,
        scale: Scale::Xl,
        backend: Backend::Sim,
        ad_heavy: false,
        repeats: 3,
        checkpoint_micro: false,
        audit_micro: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workload that runs `w`'s cell on the sim engine: what a net
/// workload's outcome must equal.
pub fn sim_twin(w: &Workload) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|t| {
        t.backend == Backend::Sim
            && (t.algo, t.scale, t.overlay, t.ad_heavy) == (w.algo, w.scale, w.overlay, w.ad_heavy)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before it is a
    /// regression, between runs at *different* seeds: what `/BENCHMARK.json`
    /// declares. It sits above the seed-to-seed spread of the worst
    /// workload (a different seed is a different world).
    pub bound: f64,
    /// The same between runs at *one* seed, where only the host's noise
    /// separates two runs of one tree: ISSUE 11's bounds, which `compare`
    /// applies to two result files of equal seed. Unused for a simulated
    /// metric, which must then be identical.
    pub same_seed_bound: f64,
    /// A worsening below this absolute amount is never a regression
    /// (`setup_s` at default scale is a fraction of a second).
    pub floor: f64,
    /// A modelled result: at one seed it repeats exactly, and `compare`
    /// treats any difference between two runs of the same seed as a change
    /// in what is simulated.
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
        floor: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
        floor: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        same_seed_bound: 0.05,
        floor: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "sim_success_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        same_seed_bound: 0.0,
        floor: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "sim_response_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.0,
        floor: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "sim_search_cost_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.0,
        floor: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "sim_load_bytes_per_node_s",
        unit: "B/node/s",
        better: Better::Lower,
        bound: 0.15,
        same_seed_bound: 0.0,
        floor: 0.0,
        simulated: true,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, grouped by the crate it measures. A metric that
/// does not apply to a workload (Bloom on flooding, wire on the sim engine)
/// is reported as 0 there.
pub const PER_LAYER: [PerLayer; 74] = [
    // asap-bloom
    layer("bloom.insert_ns", "ns", Lower),
    layer("bloom.remove_ns", "ns", Lower),
    layer("bloom.query_ns", "ns", Lower),
    layer("bloom.probe_ns", "ns", Lower),
    layer("bloom.plan_build_ns", "ns", Lower),
    layer("bloom.snapshot_ns", "ns", Lower),
    layer("bloom.wire_encode_ns", "ns", Lower),
    layer("bloom.patch_diff_ns", "ns", Lower),
    layer("bloom.patch_apply_ns", "ns", Lower),
    layer("bloom.filter_bytes", "B", Lower),
    layer("bloom.fp_measured_ppm", "ppm", Lower),
    layer("bloom.fp_analytic_ppm", "ppm", Lower),
    // asap-topology
    layer("topology.generate_s", "s", Lower),
    layer("topology.latency_ns", "ns", Lower),
    layer("topology.nodes", "count", Lower),
    // asap-overlay
    layer("overlay.build_s", "s", Lower),
    layer("overlay.clone_s", "s", Lower),
    layer("overlay.edges", "count", Lower),
    // asap-workload
    layer("workload.generate_s", "s", Lower),
    layer("workload.trace_events", "count", Lower),
    // asap-sim
    layer("sim.assemble_s", "s", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.sends", "count", Lower),
    layer("sim.queue_hwm", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.queue_push_ns", "ns", Lower),
    layer("sim.queue_pop_ns", "ns", Lower),
    layer("sim.null_event_ns", "ns", Lower),
    layer("sim.checkpoint_bytes", "B", Lower),
    layer("sim.checkpoint_encode_mbps", "MB/s", Higher),
    layer("sim.checkpoint_decode_mbps", "MB/s", Higher),
    layer("sim.audit_tax_ratio", "ratio", Lower),
    layer("sim.rss_run_delta_mb", "MB", Lower),
    // asap-core
    layer("core.build_s", "s", Lower),
    layer("core.lookup_ns", "ns", Lower),
    layer("core.insert_full_ns", "ns", Lower),
    layer("core.apply_patch_ns", "ns", Lower),
    layer("core.local_hit_ratio", "ratio", Higher),
    layer("core.confirm_waste_ratio", "ratio", Lower),
    layer("core.fallback_rounds", "count", Lower),
    layer("core.full_deliveries", "count", Lower),
    layer("core.patch_deliveries", "count", Lower),
    layer("core.refresh_deliveries", "count", Lower),
    layer("core.cached_ads", "count", Higher),
    layer("core.ad_cache_mb", "MB", Lower),
    // asap-search
    layer("search.msgs_per_query", "count", Lower),
    layer("search.dup_suppressed_ratio", "ratio", Lower),
    layer("search.seen_first_visit_ns", "ns", Lower),
    // asap-metrics
    layer("metrics.load_record_ns", "ns", Lower),
    // asap-trace
    layer("trace.tax_ratio", "ratio", Lower),
    layer("trace.records", "count", Lower),
    layer("trace.record_ns", "ns", Lower),
    // asap-net
    layer("net.run_s", "s", Lower),
    layer("net.frames", "count", Lower),
    layer("net.wire_errors", "count", Lower),
    layer("net.over_sim_ratio", "ratio", Lower),
    layer("net.rss_over_sim_ratio", "ratio", Lower),
    layer("net.ns_per_frame", "ns", Lower),
    layer("net.encode_small_ns", "ns", Lower),
    layer("net.decode_small_ns", "ns", Lower),
    layer("net.encode_ad_ns", "ns", Lower),
    layer("net.decode_ad_ns", "ns", Lower),
    layer("net.frame_small_bytes", "B", Lower),
    layer("net.frame_ad_bytes", "B", Lower),
    // asap-bench
    layer("bench.finish_s", "s", Lower),
    // Shares of sim.run_s (net.run_s on the net workload); they sum to 1.
    layer("attrib.queue_share", "ratio", Lower),
    layer("attrib.oracle_share", "ratio", Lower),
    layer("attrib.load_share", "ratio", Lower),
    layer("attrib.handler_share", "ratio", Lower),
    layer("attrib.wire_share", "ratio", Lower),
    layer("attrib.unexplained_share", "ratio", Lower),
    // The traced child itself: how much of its wall time the spans cover.
    layer("trace.span_coverage", "ratio", Higher),
];

/// How long one `measure` run keeps launching repeats, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The contract an outside driver runs the benchmark by: the content of
/// `/BENCHMARK.json`, which `list --json` prints and a unit test compares
/// with the committed file.
pub fn contract() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "measure",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.label())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_and_repeats_respect_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WORKLOADS.iter().all(|w| w.repeats >= 3));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            contract(),
            "regenerate with `asap-benchmark list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_net_workload_has_a_sim_twin_that_runs_first() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            if w.backend == Backend::Net {
                let twin = sim_twin(w).expect("sim twin");
                let at = WORKLOADS.iter().position(|t| t.name == twin.name).unwrap();
                assert!(at < i, "{} must run before {}", twin.name, w.name);
            }
        }
    }
}
