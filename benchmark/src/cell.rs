//! Build a workload's world and run its cell.
//!
//! Two paths, on purpose:
//!
//! * the **user path** ([`setup_world`], [`run_plain`]) makes the calls
//!   `experiments` makes — `World::build`, `World::overlay`,
//!   `run_cell_spec` — and is what the end-to-end metrics time;
//! * the **unrolled path** ([`setup_pieces`], [`run_unrolled`]) issues the
//!   calls `run_cell_spec` makes one by one, with a span around each call
//!   into a layer. The net backend has no `run_cell_spec`, so its user path
//!   is the unrolled one without a recorder.
//!
//! Both yield an [`Outcome`] whose fingerprint is computed exactly as
//! `asap_bench::runner::finish` computes it, so the paths can be checked
//! against each other.

use crate::json::{obj, Json};
use crate::span::Spans;
use crate::spec::{Backend, Workload};
use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::AlgoKind;
use asap_core::protocol::AsapStats;
use asap_core::Asap;
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters, RetryStat};
use asap_net::Loopback;
use asap_overlay::{Overlay, OverlayConfig, PeerId};
use asap_search::{Flooding, FloodingConfig, RandomWalk, RandomWalkConfig};
use asap_sim::trace::{Recorder, TraceConfig};
use asap_sim::{CheckpointProtocol, EngineProfile, Fnv64, Simulation};
use asap_topology::PhysicalNetwork;
use asap_trace::TraceSink;

/// What one cell produced: the modelled result and the identity of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub searches: u64,
    pub succeeded: u64,
    pub messages_sent: u64,
    pub end_time_us: u64,
    pub outcome_fingerprint: u64,
    pub success_rate: f64,
    pub response_ms: f64,
    pub search_cost_bytes: f64,
    pub load_bytes_per_node_s: f64,
    /// Frames that failed to decode (net backend; always 0 on the sim).
    pub wire_errors: u64,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        obj([
            ("searches", Json::from(self.searches)),
            ("succeeded", Json::from(self.succeeded)),
            ("messages_sent", Json::from(self.messages_sent)),
            ("end_time_us", Json::from(self.end_time_us)),
            // A u64 does not survive a trip through f64: hex string.
            (
                "outcome_fingerprint",
                Json::from(format!("{:016x}", self.outcome_fingerprint)),
            ),
            ("sim_success_rate", Json::from(self.success_rate)),
            ("sim_response_ms", Json::from(self.response_ms)),
            ("sim_search_cost_bytes", Json::from(self.search_cost_bytes)),
            (
                "sim_load_bytes_per_node_s",
                Json::from(self.load_bytes_per_node_s),
            ),
            ("wire_errors", Json::from(self.wire_errors)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let int = |key: &str| v.num(key).map(|x| x as u64);
        Ok(Self {
            searches: int("searches")?,
            succeeded: int("succeeded")?,
            messages_sent: int("messages_sent")?,
            end_time_us: int("end_time_us")?,
            outcome_fingerprint: u64::from_str_radix(v.str("outcome_fingerprint")?, 16)
                .map_err(|e| format!("bad outcome_fingerprint: {e}"))?,
            success_rate: v.num("sim_success_rate")?,
            response_ms: v.num("sim_response_ms")?,
            search_cost_bytes: v.num("sim_search_cost_bytes")?,
            load_bytes_per_node_s: v.num("sim_load_bytes_per_node_s")?,
            wire_errors: int("wire_errors")?,
        })
    }
}

/// The ad-heavy trace: `scale.workload(seed)` with six times the content
/// changes and four times the churn.
fn ad_heavy_workload(w: &Workload, seed: u64) -> asap_workload::Workload {
    let mut cfg = w.scale.workload(seed);
    cfg.content_change_fraction = 0.60;
    cfg.joins *= 4;
    cfg.leaves *= 4;
    asap_workload::generate(&cfg)
}

/// User-path set-up: `World::build` (+ the ad-heavy regeneration) and the
/// first `World::overlay(kind)`, which builds and caches the overlay.
pub fn setup_world(w: &Workload, seed: u64) -> World {
    let mut world = World::build(w.scale, seed);
    if w.ad_heavy {
        world.workload = ad_heavy_workload(w, seed);
    }
    drop(world.overlay(w.overlay));
    world
}

/// The world as the unrolled path built it (`World`'s overlay cache is
/// private, so the pieces are kept side by side).
pub struct Pieces {
    pub phys: PhysicalNetwork,
    pub workload: asap_workload::Workload,
    pub overlay: Overlay,
    pub seed: u64,
}

impl Pieces {
    pub fn parts(&self) -> Parts<'_> {
        Parts {
            phys: &self.phys,
            workload: &self.workload,
            overlay: &self.overlay,
            seed: self.seed,
        }
    }
}

/// What a cell is assembled from, borrowed from a [`Pieces`] or a `World`.
#[derive(Clone, Copy)]
pub struct Parts<'a> {
    pub phys: &'a PhysicalNetwork,
    pub workload: &'a asap_workload::Workload,
    pub overlay: &'a Overlay,
    pub seed: u64,
}

/// Unrolled set-up: the calls [`setup_world`] makes, one span each.
pub fn setup_pieces(w: &Workload, seed: u64, spans: &mut Spans) -> Pieces {
    spans.time("setup", |spans| {
        let phys = spans.time("topology.generate", |_| {
            PhysicalNetwork::generate(&w.scale.topology(seed))
        });
        let mut workload = spans.time("workload.generate", |_| {
            asap_workload::generate(&w.scale.workload(seed))
        });
        if w.ad_heavy {
            workload = spans.time("workload.generate", |_| ad_heavy_workload(w, seed));
        }
        let overlay = spans.time("overlay.build", |_| {
            OverlayConfig::new(w.overlay, w.scale.peers(), seed).build()
        });
        Pieces {
            phys,
            workload,
            overlay,
            seed,
        }
    })
}

/// ASAP-side counters of one run.
#[derive(Debug, Clone)]
pub struct AsapCounts {
    pub stats: AsapStats,
    /// Σ over peers of `Asap::cache_len`.
    pub cached_ads: u64,
}

/// Layer counters of one unrolled run, read from the program's always-on
/// counters after it finishes.
#[derive(Debug, Clone)]
pub struct Counts {
    /// `None` on the net backend, which keeps no engine profile.
    pub profile: Option<EngineProfile>,
    pub dup_suppressed: u64,
    pub class_msgs: [u64; MsgClass::COUNT],
    pub asap: Option<AsapCounts>,
    /// Records the attached `Recorder` saw (0 when none was attached).
    pub trace_records: u64,
}

impl Counts {
    /// Events the engine dispatched: deliveries, timers and trace events.
    pub fn events(&self) -> Option<u64> {
        self.profile
            .map(|p| p.delivers + p.timers_fired + p.trace_events)
    }
}

/// What a finished backend run hands back, whichever backend ran it.
struct Driven<P> {
    load: LoadRecorder,
    ledger: QueryLedger,
    protocol: P,
    messages_sent: u64,
    end_time_us: u64,
    retry: RetryCounters,
    profile: Option<EngineProfile>,
    wire_errors: u64,
    trace: Option<Box<dyn TraceSink>>,
}

fn drive<P: CheckpointProtocol>(
    w: &Workload,
    parts: Parts<'_>,
    make: impl FnOnce() -> P,
    record: bool,
    spans: &mut Spans,
) -> Driven<P> {
    let overlay = spans.time("overlay.clone", |_| parts.overlay.clone());
    let protocol = spans.time("core.build", |_| make());
    let sink = || Box::new(Recorder::new(TraceConfig::default())) as Box<dyn TraceSink>;
    match w.backend {
        Backend::Sim => {
            let sim = spans.time("sim.assemble", |_| {
                let b = Simulation::builder(
                    parts.phys,
                    parts.workload,
                    overlay,
                    w.overlay,
                    protocol,
                    parts.seed,
                );
                if record { b.trace(sink()) } else { b }.build()
            });
            let r = spans.time("sim.run", |_| sim.run());
            Driven {
                load: r.load,
                ledger: r.ledger,
                protocol: r.protocol,
                messages_sent: r.messages_sent,
                end_time_us: r.end_time_us,
                retry: r.retry,
                profile: Some(r.profile),
                wire_errors: 0,
                trace: r.trace,
            }
        }
        Backend::Net => {
            let net = spans.time("sim.assemble", |_| {
                let l = Loopback::new(
                    parts.phys,
                    parts.workload,
                    overlay,
                    w.overlay,
                    protocol,
                    parts.seed,
                );
                if record {
                    l.trace(sink())
                } else {
                    l
                }
            });
            let r = spans.time("net.run", |_| net.run());
            Driven {
                load: r.load,
                ledger: r.ledger,
                protocol: r.protocol,
                messages_sent: r.messages_sent,
                end_time_us: r.end_time_us,
                retry: r.retry,
                profile: None,
                wire_errors: r.wire_errors,
                trace: r.trace,
            }
        }
    }
}

/// Report assembly, as `asap_bench::runner::finish` does it: the figure
/// metrics from the load recorder and ledger, and the per-query outcome
/// fingerprint over `ledger.records_with_ids()`.
fn finish<P>(d: Driven<P>, asap: impl FnOnce(&P) -> Option<AsapCounts>) -> (Outcome, Counts) {
    let searches = d.ledger.num_queries();
    let mut fp = Fnv64::new();
    for (id, rec) in d.ledger.records_with_ids() {
        fp.write_all(&[
            u64::from(id),
            rec.issue_us,
            rec.first_answer_us.map_or(u64::MAX, |t| t),
            rec.answers as u64,
        ]);
    }
    let outcome = Outcome {
        searches: searches as u64,
        succeeded: d.ledger.num_succeeded() as u64,
        messages_sent: d.messages_sent,
        end_time_us: d.end_time_us,
        outcome_fingerprint: fp.finish(),
        success_rate: d.ledger.success_rate(),
        response_ms: d.ledger.avg_response_time_ms(),
        search_cost_bytes: if searches == 0 {
            0.0
        } else {
            d.load.search_cost_bytes() as f64 / searches as f64
        },
        load_bytes_per_node_s: d.load.mean_load(),
        wire_errors: d.wire_errors,
    };
    let trace_records = d
        .trace
        .and_then(|s| s.into_any().downcast::<Recorder>().ok())
        .map_or(0, |r| r.total());
    let counts = Counts {
        profile: d.profile,
        dup_suppressed: d.retry.get(RetryStat::DuplicatesSuppressed),
        class_msgs: d.load.class_message_totals(),
        asap: asap(&d.protocol),
        trace_records,
    };
    (outcome, counts)
}

fn asap_counts(peers: usize) -> impl FnOnce(&Asap) -> Option<AsapCounts> {
    move |p| {
        Some(AsapCounts {
            stats: p.stats.clone(),
            cached_ads: (0..peers as u32)
                .map(|i| p.cache_len(PeerId(i)) as u64)
                .sum(),
        })
    }
}

/// One protocol through the backend and report assembly.
fn run_with<P: CheckpointProtocol>(
    w: &Workload,
    parts: Parts<'_>,
    record: bool,
    spans: &mut Spans,
    make: impl FnOnce() -> P,
    asap: impl FnOnce(&P) -> Option<AsapCounts>,
) -> (Outcome, Counts) {
    let d = drive(w, parts, make, record, spans);
    spans.time("bench.finish", |_| finish(d, asap))
}

/// Run the workload's cell unrolled, one span per call into a layer, all
/// under a `cell` span. `record` attaches an `asap_trace::Recorder`. The
/// three protocols of the five workloads are configured as `run_cell_spec`
/// configures them on a fault-free `RunSpec`.
pub fn run_unrolled(
    w: &Workload,
    parts: Parts<'_>,
    record: bool,
    spans: &mut Spans,
) -> (Outcome, Counts) {
    spans.time("cell", |spans| match w.algo {
        AlgoKind::Flooding => run_with(
            w,
            parts,
            record,
            spans,
            || Flooding::new(FloodingConfig::default()),
            |_| None,
        ),
        AlgoKind::RandomWalk => run_with(
            w,
            parts,
            record,
            spans,
            || {
                RandomWalk::new(RandomWalkConfig {
                    walkers: 5,
                    ttl: w.scale.rw_ttl(),
                    retransmit: None,
                })
            },
            |_| None,
        ),
        AlgoKind::AsapRw => run_with(
            w,
            parts,
            record,
            spans,
            || w.algo.build_asap(w.scale, &parts.workload.model),
            asap_counts(w.scale.peers()),
        ),
        other => unreachable!("no workload runs {other:?}"),
    })
}

/// The user path for one cell. On the sim engine that is `run_cell_spec` on
/// `RunSpec::figures()`; the loopback has no such entry point, so its user
/// path is `Loopback::new(..).run()` as [`run_unrolled`] issues it.
pub fn run_plain(w: &Workload, world: &World) -> Outcome {
    match w.backend {
        Backend::Sim => {
            let cell = run_cell_spec(world, w.algo, w.overlay, &RunSpec::figures());
            Outcome {
                searches: cell.queries as u64,
                succeeded: cell.succeeded as u64,
                messages_sent: cell.summary.messages_sent,
                end_time_us: cell.end_time_us,
                outcome_fingerprint: cell.outcome_fingerprint,
                success_rate: cell.summary.success_rate,
                response_ms: cell.summary.avg_response_ms,
                search_cost_bytes: cell.summary.per_search_cost_bytes,
                load_bytes_per_node_s: cell.summary.mean_load,
                wire_errors: 0,
            }
        }
        Backend::Net => {
            let parts = Parts {
                phys: &world.phys,
                workload: &world.workload,
                overlay: &world.overlay(w.overlay),
                seed: world.seed,
            };
            let mut spans = Spans::new(std::time::Instant::now());
            run_unrolled(w, parts, false, &mut spans).0
        }
    }
}
