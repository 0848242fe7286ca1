//! Build worlds, run one (algorithm, overlay) cell, sweep the matrix.

use crate::adversary::AdversaryProfile;
use crate::algo::AlgoKind;
use crate::faults::FaultProfile;
use crate::scale::Scale;
use asap_core::protocol::AsapStats;
use asap_core::{Asap, AsapConfig, SuperAsap};
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters};
use asap_net::Framed;
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_search::{Flooding, FloodingConfig, Gsa, RandomWalk};
use asap_sim::trace::{Recorder, TraceConfig};
use asap_sim::{
    AdversaryStats, AuditConfig, AuditReport, Carrier, Checkpoint, CheckpointProtocol, CodecError,
    EngineProfile, FaultStats, Fnv64, InMemory, Protocol, SimBuilder, SimReport, Simulation,
};
use asap_topology::PhysicalNetwork;
use asap_workload::{Workload, WorkloadConfig};
use rayon::prelude::*;

/// Everything the figures need from one run.
#[derive(Debug)]
pub struct RunSummary {
    pub algo: AlgoKind,
    pub overlay: OverlayKind,
    pub queries: usize,
    pub success_rate: f64,
    pub avg_response_ms: f64,
    /// Average bytes per search (the paper's Fig. 6 metric).
    pub per_search_cost_bytes: f64,
    /// Mean / stddev of bytes per node per second (Figs. 8–9).
    pub mean_load: f64,
    pub stddev_load: f64,
    /// The full per-second series (Fig. 10).
    pub load_series: Vec<f64>,
    /// Per-class byte totals (Fig. 7).
    pub class_totals: [u64; MsgClass::COUNT],
    /// Per-class per-second series (Fig. 7's time view).
    pub class_series: Vec<(MsgClass, Vec<f64>)>,
    pub messages_sent: u64,
    /// ASAP-only protocol statistics.
    pub asap_stats: Option<AsapStats>,
    /// Run metadata (e.g. clamped scale knobs); empty when the cell ran
    /// exactly on the EXPERIMENTS.md scale table.
    pub notes: Vec<String>,
}

impl RunSummary {
    fn from_parts(
        algo: AlgoKind,
        overlay: OverlayKind,
        load: &LoadRecorder,
        ledger: &QueryLedger,
        messages_sent: u64,
        asap_stats: Option<AsapStats>,
    ) -> Self {
        let queries = ledger.num_queries();
        Self {
            algo,
            overlay,
            queries,
            success_rate: ledger.success_rate(),
            avg_response_ms: ledger.avg_response_time_ms(),
            per_search_cost_bytes: if queries == 0 {
                0.0
            } else {
                load.search_cost_bytes() as f64 / queries as f64
            },
            mean_load: load.mean_load(),
            stddev_load: load.stddev_load(),
            load_series: load.load_series(),
            class_totals: load.class_totals(),
            class_series: MsgClass::ALL
                .iter()
                .map(|&c| (c, load.class_series(c)))
                .collect(),
            messages_sent,
            asap_stats,
            notes: load.notes().to_vec(),
        }
    }
}

/// A prebuilt world shared by several cells (physical network + workload are
/// identical across algorithms; the overlay is built once per kind and
/// cached, so parallel sweep workers share one construction instead of
/// rebuilding it per cell).
pub struct World {
    pub phys: PhysicalNetwork,
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Lazily built overlay per [`OverlayKind`], indexed in `ALL` order.
    /// `OnceLock` keeps `overlay(&self)` shared-reference (sweep workers
    /// hold `&World`) while still building each kind at most once.
    overlays: [std::sync::OnceLock<asap_overlay::Overlay>; 3],
}

impl World {
    pub fn build(scale: Scale, seed: u64) -> Self {
        Self::build_with(scale, seed, |_| {})
    }

    /// [`Self::build`] on an edited workload configuration: `edit` changes
    /// the scale's [`WorkloadConfig`] before the workload is generated, e.g.
    /// the flash-crowd switch or a churn multiplier. Both perturb the
    /// generated trace, so two worlds differing only in such an edit share
    /// a topology but not a trace. An edit that changes nothing reproduces
    /// [`Self::build`] exactly.
    pub fn build_with(scale: Scale, seed: u64, edit: impl FnOnce(&mut WorkloadConfig)) -> Self {
        let phys = PhysicalNetwork::generate(&scale.topology(seed));
        let mut wl = scale.workload(seed);
        edit(&mut wl);
        let workload = asap_workload::generate(&wl);
        Self {
            phys,
            workload,
            scale,
            seed,
            overlays: Default::default(),
        }
    }

    /// The overlay of `kind` for this world; built on first use, cloned from
    /// the cache afterwards. Construction is deterministic in `(kind, peers,
    /// seed)`, so a cached clone is indistinguishable from a rebuild.
    pub fn overlay(&self, kind: OverlayKind) -> asap_overlay::Overlay {
        let slot = OverlayKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every overlay kind is in ALL");
        self.overlays[slot]
            .get_or_init(|| OverlayConfig::new(kind, self.scale.peers(), self.seed).build())
            .clone()
    }
}

/// Per-cell run configuration, shared by the serial and parallel sweep
/// paths: which optional engine layers (auditor, fault profile, trace
/// recorder) a cell runs with, and which ASAP configuration. One `RunSpec`
/// describes every cell of a sweep; the per-cell fault plan is derived from
/// the profile and the world's peer count at run time.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// Attach the engine's invariant auditor.
    pub audit: Option<AuditConfig>,
    /// Fault-injection profile (also selects protocol retry budgets).
    pub faults: FaultProfile,
    /// Attach a ring-buffered trace recorder with this configuration.
    pub trace: Option<TraceConfig>,
    /// Adversary profile (also poisons ASAP's protocol state for spam
    /// peers). The default `None` attaches no adversary layer at all.
    pub adversary: AdversaryProfile,
    /// The ASAP configuration in place of the scale table's
    /// ([`AlgoKind::asap_config`]), e.g. an ablation row
    /// ([`AlgoKind::ablations`]). Its `retransmit` is replaced by the fault
    /// profile's ([`FaultProfile::retransmit`]), as the table's is. Baseline
    /// cells ignore it.
    pub asap: Option<AsapConfig>,
}

impl RunSpec {
    /// The figures path: unaudited, fault-free, untraced.
    pub fn figures() -> Self {
        Self::default()
    }

    /// Enable the invariant auditor.
    pub fn audited(mut self, cfg: AuditConfig) -> Self {
        self.audit = Some(cfg);
        self
    }

    /// Run under a fault profile.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a trace recorder.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Run under an adversary profile.
    pub fn with_adversary(mut self, adversary: AdversaryProfile) -> Self {
        self.adversary = adversary;
        self
    }

    /// Run ASAP cells on this configuration; its `retransmit` is replaced
    /// by the fault profile's.
    pub fn with_asap(mut self, config: AsapConfig) -> Self {
        self.asap = Some(config);
        self
    }
}

/// One cell's full outcome: the figure-facing summary plus the replay
/// fingerprints the differential harness compares across algorithms, and the
/// audit report when the run was audited.
#[derive(Debug)]
pub struct CellReport {
    pub summary: RunSummary,
    /// `Some` iff the cell ran with an auditor attached.
    pub audit: Option<AuditReport>,
    pub end_time_us: u64,
    pub queries: usize,
    pub succeeded: usize,
    /// FNV over `(id, issue_us)` of every registered query. The trace is
    /// part of the world, so every algorithm sharing a world must produce
    /// the identical value.
    pub issue_fingerprint: u64,
    /// FNV over the final liveness map — churn is also world state, so this
    /// too is algorithm-independent.
    pub alive_fingerprint: u64,
    /// FNV over per-query outcomes `(id, issue, first_answer, answers)`;
    /// algorithm-*dependent* by design.
    pub outcome_fingerprint: u64,
    /// Protocol robustness counters (retries, duplicates suppressed, ...).
    pub retry: RetryCounters,
    /// Fault-layer statistics; `Some` iff the cell ran under a fault profile.
    pub faults: Option<FaultStats>,
    /// Adversary-layer statistics; `Some` iff the cell ran under an
    /// adversary profile.
    pub adversary: Option<AdversaryStats>,
    /// The trace recorder; `Some` iff the cell ran with [`RunSpec::trace`].
    pub trace: Option<Recorder>,
    /// Event-loop phase counters and queue high-water marks (always on).
    pub profile: EngineProfile,
    /// `(length, FNV-1a 64)` of the checkpoint bytes a [`run_cell_split`]
    /// run resumed from; `None` for an uninterrupted run.
    pub checkpoint: Option<(usize, u64)>,
    /// Frames the carrier failed to decode (always 0 on the sim's in-memory
    /// carrier; nonzero after [`run_cell_net`] means the codec regressed).
    pub wire_errors: u64,
}

/// Run one cell under a [`RunSpec`]: the single configuration point shared
/// by the serial and parallel sweep paths.
pub fn run_cell_spec(
    world: &World,
    algo: AlgoKind,
    overlay_kind: OverlayKind,
    spec: &RunSpec,
) -> CellReport {
    run_cell(world, algo, overlay_kind, spec, Sim)
}

/// [`run_cell_spec`] on `asap_net`'s wire carrier ([`asap_net::Loopback`]):
/// the same engine, protocol and layers, with every message encoded into a
/// frame at `send` and decoded from it at delivery. A report equal to
/// [`run_cell_spec`]'s with zero [`CellReport::wire_errors`] is the sim≡net
/// witness.
pub fn run_cell_net(
    world: &World,
    algo: AlgoKind,
    overlay_kind: OverlayKind,
    spec: &RunSpec,
) -> CellReport {
    run_cell(world, algo, overlay_kind, spec, Net)
}

/// [`run_cell_spec`], split at `split_us`: run until every event at or
/// before the split has dispatched, checkpoint, round-trip the checkpoint
/// through its serialized bytes, resume onto a **fresh** builder
/// ([`resume_cell`]), and run to completion. The resumed builder
/// re-attaches none of the spec's audit / fault / adversary layers — they
/// ride the checkpoint — so a report equal to the uninterrupted
/// [`run_cell_spec`] proves the full state (layers included) survives
/// serialization bit-identically.
pub fn run_cell_split(
    world: &World,
    algo: AlgoKind,
    overlay_kind: OverlayKind,
    spec: &RunSpec,
    split_us: u64,
) -> CellReport {
    run_cell(world, algo, overlay_kind, spec, Split(split_us))
}

/// What a tool does with one cell's protocol, whatever its type.
/// [`with_protocol`] hands the visitor the cell's protocol factory, so every
/// tool builds a cell's protocol exactly as the cold run does.
pub trait CellVisitor {
    type Out;

    /// `make` builds the cell's protocol under a spec. It is deterministic:
    /// a second call with the same spec yields a protocol that a checkpoint
    /// of the first resumes onto (`decode_state` overwrites its dynamic
    /// state). `stats` reads ASAP's protocol statistics, `None` on the
    /// baselines.
    fn visit<P: CheckpointProtocol>(
        self,
        make: impl Fn(&RunSpec) -> P + Sync,
        stats: fn(&P) -> Option<AsapStats>,
    ) -> Self::Out;
}

/// The one map from an [`AlgoKind`] to the protocol a cell of `world` runs.
/// The spec supplies every protocol's loss recovery, ASAP's configuration
/// override ([`RunSpec::asap`]) and its spam roles.
/// Super-peer ASAP takes the same configuration; it has no spam poisoning.
pub fn with_protocol<V: CellVisitor>(world: &World, algo: AlgoKind, visitor: V) -> V::Out {
    let scale = world.scale;
    let asap_config = |spec: &RunSpec| {
        let config = spec.asap.clone().unwrap_or_else(|| algo.asap_config(scale));
        AsapConfig {
            retransmit: spec.faults.retransmit(),
            ..config
        }
    };
    match algo {
        AlgoKind::Flooding => visitor.visit(
            |spec| {
                Flooding::new(FloodingConfig {
                    retransmit: spec.faults.retransmit(),
                })
            },
            |_| None,
        ),
        AlgoKind::RandomWalk => visitor.visit(
            |spec| RandomWalk::new(scale.random_walk_config(spec.faults.retransmit())),
            |_| None,
        ),
        AlgoKind::Gsa => visitor.visit(|_| Gsa::new(scale.gsa_config()), |_| None),
        AlgoKind::AsapFld | AlgoKind::AsapRw | AlgoKind::AsapGsa => visitor.visit(
            |spec| {
                // Spam poisoning happens at protocol construction, keyed on
                // the same (plan, peers, seed) role assignment the engine
                // derives, so protocol-layer and engine-layer adversaries
                // are one peer set. All-honest roles poison nothing.
                Asap::new_with_adversaries(
                    asap_config(spec),
                    &world.workload.model,
                    &spec.adversary.roles(scale.peers(), world.seed),
                    world.seed,
                )
            },
            |asap| Some(asap.stats.clone()),
        ),
        AlgoKind::SuperAsap => visitor.visit(
            |spec| SuperAsap::new(asap_config(spec), &world.workload.model),
            |_| None,
        ),
    }
}

/// A builder for `world`'s cell on `overlay_kind` and carrier `C`, with the
/// spec's engine layers (auditor, faults, adversary, trace recorder)
/// attached.
pub fn cell_builder<'a, P: Protocol, C: Carrier<P::Msg>>(
    world: &'a World,
    overlay_kind: OverlayKind,
    spec: &RunSpec,
    protocol: P,
) -> SimBuilder<'a, P, C> {
    let peers = world.scale.peers();
    let mut b = SimBuilder::new(
        &world.phys,
        &world.workload,
        world.overlay(overlay_kind),
        overlay_kind,
        protocol,
        world.seed,
    );
    if let Some(cfg) = spec.audit.clone() {
        b = b.audit(cfg);
    }
    if !spec.faults.is_none() {
        b = b.faults(spec.faults.plan(peers));
    }
    if !spec.adversary.is_none() {
        b = b.adversary(spec.adversary.plan(peers));
    }
    if let Some(tc) = spec.trace {
        b = b.trace(Box::new(Recorder::new(tc)));
    }
    b
}

/// Resume `ckpt` onto a fresh builder of `world`'s cell. Only the trace
/// recorder is attached: it lives outside checkpointed state, so it holds
/// post-resume events only. Audit, faults and adversary come from the
/// checkpoint. Fails when the checkpoint was taken in another world (seed,
/// peer count, overlay kind) or does not decode onto `protocol`.
pub fn resume_cell<'a, P: CheckpointProtocol>(
    world: &'a World,
    overlay_kind: OverlayKind,
    protocol: P,
    ckpt: &Checkpoint,
    trace: Option<TraceConfig>,
) -> Result<Simulation<'a, P>, CodecError> {
    let spec = RunSpec {
        trace,
        ..RunSpec::default()
    };
    cell_builder(world, overlay_kind, &spec, protocol).from_checkpoint(ckpt)
}

/// How [`RunCell`] drives its protocol. A type, not a runtime value: each
/// `run_cell_*` entry point instantiates only its own path, so a caller of
/// [`run_cell_spec`] alone compiles neither the wire-carrier path nor the
/// checkpoint round trip for the six protocols.
trait Drive {
    fn drive<P: CheckpointProtocol>(
        self,
        world: &World,
        overlay_kind: OverlayKind,
        spec: &RunSpec,
        make: impl Fn(&RunSpec) -> P,
    ) -> (SimReport<P>, Option<(usize, u64)>);
}

/// Uninterrupted, on the in-memory carrier.
struct Sim;

/// Uninterrupted, on the wire carrier.
struct Net;

/// Checkpointed at this virtual time and resumed.
struct Split(u64);

impl Drive for Sim {
    fn drive<P: CheckpointProtocol>(
        self,
        world: &World,
        overlay_kind: OverlayKind,
        spec: &RunSpec,
        make: impl Fn(&RunSpec) -> P,
    ) -> (SimReport<P>, Option<(usize, u64)>) {
        let b = cell_builder::<P, InMemory>(world, overlay_kind, spec, make(spec));
        (b.run(), None)
    }
}

impl Drive for Net {
    fn drive<P: CheckpointProtocol>(
        self,
        world: &World,
        overlay_kind: OverlayKind,
        spec: &RunSpec,
        make: impl Fn(&RunSpec) -> P,
    ) -> (SimReport<P>, Option<(usize, u64)>) {
        let b = cell_builder::<P, Framed<P>>(world, overlay_kind, spec, make(spec));
        (b.run(), None)
    }
}

impl Drive for Split {
    fn drive<P: CheckpointProtocol>(
        self,
        world: &World,
        overlay_kind: OverlayKind,
        spec: &RunSpec,
        make: impl Fn(&RunSpec) -> P,
    ) -> (SimReport<P>, Option<(usize, u64)>) {
        let b = cell_builder::<P, InMemory>(world, overlay_kind, spec, make(spec));
        let mut sim = b.build();
        sim.run_until(self.0);
        // Round-trip through the serialized form: the resumed half starts
        // from exactly the bytes a checkpoint file would hold.
        let ckpt = Checkpoint::from_bytes(sim.checkpoint().into_bytes())
            .expect("a freshly taken checkpoint always re-parses");
        drop(sim);
        let mut sum = Fnv64::new();
        sum.write_bytes(ckpt.as_bytes());
        let pin = (ckpt.as_bytes().len(), sum.finish());
        let report = resume_cell(world, overlay_kind, make(spec), &ckpt, spec.trace)
            .expect("resume world matches the checkpointed world")
            .run();
        (report, Some(pin))
    }
}

/// The visitor behind the `run_cell_*` entry points.
struct RunCell<'a, D> {
    world: &'a World,
    algo: AlgoKind,
    overlay_kind: OverlayKind,
    spec: &'a RunSpec,
    drive: D,
}

fn run_cell(
    world: &World,
    algo: AlgoKind,
    overlay_kind: OverlayKind,
    spec: &RunSpec,
    drive: impl Drive,
) -> CellReport {
    let cell = RunCell {
        world,
        algo,
        overlay_kind,
        spec,
        drive,
    };
    with_protocol(world, algo, cell)
}

impl<D: Drive> CellVisitor for RunCell<'_, D> {
    type Out = CellReport;

    fn visit<P: CheckpointProtocol>(
        self,
        make: impl Fn(&RunSpec) -> P + Sync,
        stats: fn(&P) -> Option<AsapStats>,
    ) -> CellReport {
        let Self {
            world,
            algo,
            overlay_kind,
            spec,
            drive,
        } = self;
        let (report, checkpoint) = drive.drive(world, overlay_kind, spec, make);
        let asap_stats = stats(&report.protocol);
        finish(
            algo,
            overlay_kind,
            world.scale,
            report,
            checkpoint,
            asap_stats,
        )
    }
}

fn finish<P>(
    algo: AlgoKind,
    overlay: OverlayKind,
    scale: Scale,
    mut report: SimReport<P>,
    checkpoint: Option<(usize, u64)>,
    asap_stats: Option<AsapStats>,
) -> CellReport {
    // Surface clamped scale knobs as run metadata so the summary (and any
    // sweep log printing it) states when this cell ran off the scale table.
    for note in algo.clamp_notes(scale) {
        report.load.note(note);
    }
    let summary = RunSummary::from_parts(
        algo,
        overlay,
        &report.load,
        &report.ledger,
        report.messages_sent,
        asap_stats,
    );
    let mut issue = Fnv64::new();
    let mut outcome = Fnv64::new();
    for (id, rec) in report.ledger.records_with_ids() {
        issue.write_all(&[id as u64, rec.issue_us]);
        outcome.write_all(&[
            id as u64,
            rec.issue_us,
            rec.first_answer_us.map_or(u64::MAX, |t| t),
            rec.answers as u64,
        ]);
    }
    let mut alive = Fnv64::new();
    for (i, &a) in report.alive.iter().enumerate() {
        alive.write_all(&[i as u64, a as u64]);
    }
    let trace = report
        .trace
        .take()
        .and_then(|s| s.into_any().downcast::<Recorder>().ok())
        .map(|b| *b);
    CellReport {
        summary,
        end_time_us: report.end_time_us,
        queries: report.ledger.num_queries(),
        succeeded: report.ledger.num_succeeded(),
        issue_fingerprint: issue.finish(),
        alive_fingerprint: alive.finish(),
        outcome_fingerprint: outcome.finish(),
        retry: report.retry,
        faults: report.faults,
        adversary: report.adversary,
        audit: report.audit,
        trace,
        profile: report.profile,
        checkpoint,
        wire_errors: report.wire_errors,
    }
}

/// Map `f` over `items` on a rayon pool of `workers` threads; `workers <= 1`
/// (or a single item) runs serially on the caller's thread. Results come
/// back in item order whatever the worker count.
pub fn par_map<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers.min(items.len()))
        .build()
        .unwrap_or_else(|e| panic!("building the sweep thread pool failed: {e}"));
    pool.install(|| items.into_par_iter().map(f).collect())
}

/// Sweep matrix cells over a prebuilt world under one [`RunSpec`], fanning
/// across `workers` threads ([`par_map`]); one simulation per cell is the
/// data-race-free-by-structure grain for a DES.
///
/// Parallelism is observationally pure: the world is immutable during the
/// sweep, every simulation derives all randomness from `(scale, seed, algo,
/// overlay)`, and results come back in cell order — so the per-cell digests
/// are bit-identical to a serial sweep, which the golden `--check` harness
/// exercises with parallelism on.
pub fn sweep_cells_spec(
    world: &World,
    cells: &[(AlgoKind, OverlayKind)],
    workers: usize,
    spec: &RunSpec,
) -> Vec<CellReport> {
    let total = cells.len();
    par_map(
        workers,
        cells.iter().copied().enumerate().collect(),
        |(i, (a, o))| {
            let off_table = if a.clamp_notes(world.scale).is_empty() {
                ""
            } else {
                " [off-table: clamped knobs]"
            };
            eprintln!(
                "[run {}/{}] {} / {}{}",
                i + 1,
                total,
                a.label(),
                o.label(),
                off_table
            );
            run_cell_spec(world, a, o, spec)
        },
    )
}

/// The full 6 × 3 matrix, overlay-major (the golden files' line order).
pub fn full_matrix() -> Vec<(AlgoKind, OverlayKind)> {
    let mut cells = Vec::new();
    for o in OverlayKind::ALL {
        for a in AlgoKind::ALL {
            cells.push((a, o));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_is_6_by_3() {
        assert_eq!(full_matrix().len(), 18);
    }

    #[test]
    fn tiny_cell_runs() {
        let world = World::build(Scale::Tiny, 5);
        let spec = RunSpec::figures();
        let s = run_cell_spec(&world, AlgoKind::RandomWalk, OverlayKind::Random, &spec).summary;
        assert!(s.queries > 0);
        assert!(s.messages_sent > 0);
        assert!(s.mean_load > 0.0);
    }

    #[test]
    fn tiny_asap_cell_runs_with_stats() {
        let world = World::build(Scale::Tiny, 6);
        let spec = RunSpec::figures();
        let s = run_cell_spec(&world, AlgoKind::AsapRw, OverlayKind::Crawled, &spec).summary;
        assert!(s.asap_stats.is_some());
        assert!(s.success_rate > 0.0);
    }

    #[test]
    fn split_cell_matches_uninterrupted_run() {
        let world = World::build(Scale::Tiny, 5);
        let spec = RunSpec {
            audit: Some(AuditConfig::default()),
            ..RunSpec::default()
        };
        let cold = run_cell_spec(&world, AlgoKind::Gsa, OverlayKind::Random, &spec);
        let split = run_cell_split(
            &world,
            AlgoKind::Gsa,
            OverlayKind::Random,
            &spec,
            cold.end_time_us / 2,
        );
        assert_eq!(
            cold.audit.as_ref().unwrap().digest,
            split.audit.as_ref().unwrap().digest,
            "checkpoint/resume split must be digest-identical"
        );
        assert_eq!(cold.summary.messages_sent, split.summary.messages_sent);
        assert_eq!(cold.end_time_us, split.end_time_us);
        assert_eq!(cold.succeeded, split.succeeded);
    }

    #[test]
    fn off_table_cells_carry_clamp_notes() {
        let world = World::build(Scale::Tiny, 5);
        let spec = RunSpec::figures();
        let rw = run_cell_spec(&world, AlgoKind::RandomWalk, OverlayKind::Random, &spec).summary;
        assert_eq!(rw.notes.len(), 1);
        assert!(rw.notes[0].contains("random-walk TTL clamped 15 -> 32"));
        let fld = run_cell_spec(&world, AlgoKind::Flooding, OverlayKind::Random, &spec).summary;
        assert!(fld.notes.is_empty(), "flooding never scales its TTL");
    }
}
