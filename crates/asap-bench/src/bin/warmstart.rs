//! `warmstart` — amortize the advertisement ramp-up across sweeps.
//!
//! The paper's steady-state results (Figs. 5–10) are measured after ad
//! convergence, so every sweep re-simulating the warm-up from t=0 pays for
//! the same ramp again and again. This tool splits that cost once:
//!
//! ```text
//! # 1. Run the audited cell to the split point and save the checkpoint:
//! warmstart --checkpoint warm.ckpt --algo asap-rw --overlay crawled --scale tiny
//!
//! # 2. Fan the converged checkpoint out across a continuation sweep:
//! warmstart --checkpoint warm.ckpt --warm-start --algo asap-rw --overlay crawled --scale tiny
//! ```
//!
//! The warm-start sweep resumes one shared checkpoint into several
//! continuation variants (the `experiments ablate` rows that leave the
//! checkpointed structure intact — every row but the cache capacities)
//! under rayon, plus the unmodified `baseline` variant. The baseline
//! continuation must reproduce the cold uninterrupted run's digest
//! **bit-identically** — verified on every `--warm-start` invocation, with
//! the measured ramp-up savings printed next to it. Baseline algorithms
//! (flooding / random-walk / GSA) have no config variants and sweep the
//! baseline continuation only.
//!
//! Checkpoints pin (seed, peer count, overlay kind); `--scale`/`--seed`/
//! `--overlay` must match between the save and warm-start invocations, and
//! a mismatch, like a checkpoint that does not decode onto `--algo`, is an
//! `error:` line and exit 1.

// This binary IS the CLI; its tables go to stdout by design.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use asap_bench::args::{next_value, Axes, CommonArgs};
use asap_bench::runner::{
    cell_builder, par_map, resume_cell, run_cell_spec, with_protocol, CellVisitor, RunSpec, World,
};
use asap_bench::scale::Scale;
use asap_bench::table::{fnum, Table};
use asap_bench::AlgoKind;
use asap_core::protocol::AsapStats;
use asap_overlay::OverlayKind;
use asap_sim::{AuditConfig, Checkpoint, CheckpointProtocol, CodecError, InMemory};

struct Args {
    checkpoint: PathBuf,
    warm_start: bool,
    common: CommonArgs,
    /// Split point as a percentage of the workload trace duration.
    split_pct: u64,
}

/// The shared axes this CLI exposes: the audited cell plus the sweep's
/// worker count. The `CommonArgs` defaults (ASAP(RW) / crawled / tiny /
/// seed 42) are exactly this tool's documented defaults.
fn common_defaults() -> CommonArgs {
    CommonArgs::new(Axes {
        workers: true,
        ..Axes::CELL
    })
}

fn usage() -> String {
    format!(
        "usage: warmstart --checkpoint PATH [--warm-start] {} [--split-pct 1..99]",
        common_defaults().usage()
    )
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        checkpoint: PathBuf::new(),
        warm_start: false,
        common: common_defaults(),
        split_pct: 50,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if parsed.common.accept(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--checkpoint" => parsed.checkpoint = PathBuf::from(next_value(&flag, &mut args)?),
            "--warm-start" => parsed.warm_start = true,
            "--split-pct" => {
                parsed.split_pct = next_value(&flag, &mut args)?
                    .parse()
                    .map_err(|e| format!("bad split: {e}"))?;
                if !(1..=99).contains(&parsed.split_pct) {
                    return Err("--split-pct must be in 1..=99".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if parsed.checkpoint.as_os_str().is_empty() {
        return Err(format!("--checkpoint PATH is required\n{}", usage()));
    }
    Ok(parsed)
}

/// The continuation sweep: the unmodified `baseline` plus, for an ASAP
/// variant, every ablation row ([`AlgoKind::ablations`]) that only steers
/// *future* behavior. A changed cache capacity is left out: the decoder's
/// capacity validation rejects it by design.
fn variants(algo: AlgoKind, scale: Scale) -> Vec<(String, RunSpec)> {
    let mut variants = vec![("baseline".to_string(), spec())];
    if algo.is_asap() {
        let cache = algo.asap_config(scale).cache_capacity;
        let rows = algo.ablations(scale).into_iter();
        let rows = rows.filter(|(_, c)| c.cache_capacity == cache);
        variants.extend(rows.map(|(label, c)| (label, spec().with_asap(c))));
    }
    variants
}

/// Resume every variant from the shared checkpoint and reduce each
/// continuation to a result row, `(label, digest, row, wall_secs)`.
struct WarmSweep<'a> {
    world: &'a World,
    overlay_kind: OverlayKind,
    ckpt: &'a Checkpoint,
    variants: Vec<(String, RunSpec)>,
    workers: usize,
}

impl CellVisitor for WarmSweep<'_> {
    type Out = Result<Vec<(String, u64, Vec<String>, f64)>, CodecError>;

    /// Protocols are **not** `Send` (ASAP's pending searches share `Rc`s), so
    /// each worker builds its own from the variant's spec via `make` — the
    /// same grain the matrix sweeps parallelize at. A checkpoint that does
    /// not fit the cell fails every variant's resume; the first failure in
    /// variant order is the sweep's error.
    fn visit<P: CheckpointProtocol>(
        self,
        make: impl Fn(&RunSpec) -> P + Sync,
        _stats: fn(&P) -> Option<AsapStats>,
    ) -> Self::Out {
        let Self {
            world,
            overlay_kind,
            ckpt,
            variants,
            workers,
        } = self;
        par_map(workers, variants, |(label, spec)| {
            let start = Instant::now();
            let report = resume_cell(world, overlay_kind, make(&spec), ckpt, None)?.run();
            let secs = start.elapsed().as_secs_f64();
            let digest = report
                .audit
                .as_ref()
                .expect("warm-start checkpoints are always audited")
                .digest;
            let row = vec![
                label.clone(),
                fnum(report.ledger.success_rate()),
                fnum(report.ledger.avg_response_time_ms()),
                format!("{}", report.messages_sent),
                format!("{digest:016x}"),
                format!("{secs:.2}s"),
            ];
            Ok((label, digest, row, secs))
        })
        .into_iter()
        .collect()
    }
}

/// The audited spec every warmstart run uses: the auditor's digest is the
/// bit-identity witness, and it rides the checkpoint into every resumed
/// continuation.
fn spec() -> RunSpec {
    RunSpec::figures().audited(AuditConfig::default())
}

fn save(args: &Args, world: &World) -> ExitCode {
    let split_us = world.workload.trace.duration_us() * args.split_pct / 100;
    eprintln!(
        "[warmstart] running {} / {} to {split_us} us ({}% of the trace)...",
        args.common.algo.label(),
        args.common.overlay.label(),
        args.split_pct
    );
    // Audited builder, no faults/adversary: the warm-start workflow covers
    // the paper's perfect-network sweeps. The resume goldens cover layered
    // checkpoints.
    let start = Instant::now();
    let cell = CheckpointCell {
        world,
        overlay_kind: args.common.overlay,
        split_us,
    };
    let ckpt = with_protocol(world, args.common.algo, cell);
    let ramp_secs = start.elapsed().as_secs_f64();
    let bytes = ckpt.into_bytes();
    std::fs::write(&args.checkpoint, &bytes).expect("write checkpoint file");
    println!(
        "wrote {} ({} bytes, ramp to {split_us} us took {ramp_secs:.2}s wall)",
        args.checkpoint.display(),
        bytes.len()
    );
    println!(
        "continue with: warmstart --checkpoint {} --warm-start --algo '{}' --overlay {} --scale {} --seed {}",
        args.checkpoint.display(),
        args.common.algo.label().to_ascii_lowercase(),
        args.common.overlay.label(),
        args.common.scale.label(),
        args.common.seed
    );
    ExitCode::SUCCESS
}

/// Build the audited cell, run it to a split point, and take the checkpoint.
struct CheckpointCell<'a> {
    world: &'a World,
    overlay_kind: OverlayKind,
    split_us: u64,
}

impl CellVisitor for CheckpointCell<'_> {
    type Out = Checkpoint;

    fn visit<P: CheckpointProtocol>(
        self,
        make: impl Fn(&RunSpec) -> P + Sync,
        _stats: fn(&P) -> Option<AsapStats>,
    ) -> Checkpoint {
        let spec = spec();
        let b = cell_builder::<P, InMemory>(self.world, self.overlay_kind, &spec, make(&spec));
        let mut sim = b.build();
        sim.run_until(self.split_us);
        sim.checkpoint()
    }
}

fn warm(args: &Args, world: &World) -> ExitCode {
    let bytes = match std::fs::read(&args.checkpoint) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.checkpoint.display());
            return ExitCode::FAILURE;
        }
    };
    let ckpt = match Checkpoint::from_bytes(bytes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "error: {} is not a valid checkpoint: {e}",
                args.checkpoint.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let pinned = (ckpt.run_seed(), ckpt.num_peers(), ckpt.overlay_kind());
    let asked = (
        args.common.seed,
        args.common.scale.peers(),
        args.common.overlay,
    );
    if pinned != asked {
        eprintln!(
            "error: checkpoint pins seed={} peers={} overlay={}, but this invocation asks for \
             seed={} peers={} overlay={}",
            pinned.0,
            pinned.1,
            pinned.2.label(),
            asked.0,
            asked.1,
            asked.2.label()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[warmstart] fanning {} / {} out from {} (t={} us) across up to {} workers...",
        args.common.algo.label(),
        args.common.overlay.label(),
        args.checkpoint.display(),
        ckpt.now_us(),
        args.common.workers
    );

    let sweep = WarmSweep {
        world,
        overlay_kind: args.common.overlay,
        ckpt: &ckpt,
        variants: variants(args.common.algo, world.scale),
        workers: args.common.workers,
    };
    let results = match with_protocol(world, args.common.algo, sweep) {
        Ok(results) => results,
        Err(e) => {
            eprintln!(
                "error: {} does not resume as {} / {}: {e}",
                args.checkpoint.display(),
                args.common.algo.label(),
                args.common.overlay.label()
            );
            return ExitCode::FAILURE;
        }
    };

    // The acceptance gate: the unmodified continuation must land on the
    // cold uninterrupted run's digest exactly. Run the cold reference last
    // so its wall time doubles as the measured ramp-up savings baseline.
    eprintln!("[warmstart] cold reference run for the bit-identity gate...");
    let cold_start = Instant::now();
    let cold = run_cell_spec(world, args.common.algo, args.common.overlay, &spec());
    let cold_secs = cold_start.elapsed().as_secs_f64();
    let cold_digest = cold.audit.as_ref().expect("audited cold run").digest;

    let mut t = Table::new(&[
        "variant",
        "success",
        "response-ms",
        "messages",
        "digest",
        "wall",
    ]);
    for (_, _, row, _) in &results {
        t.row(row.clone());
    }
    println!(
        "Warm-start sweep: {} / {}, resumed at {} us",
        args.common.algo.label(),
        args.common.overlay.label(),
        ckpt.now_us()
    );
    println!("{}", t.render());

    let (_, baseline_digest, _, baseline_secs) = results
        .iter()
        .find(|(label, ..)| label == "baseline")
        .expect("sweep always contains the baseline variant");
    println!(
        "cold run: {cold_secs:.2}s wall, digest {cold_digest:016x}; \
         warm baseline continuation: {baseline_secs:.2}s wall \
         ({:.0}% of the cold cost)",
        100.0 * baseline_secs / cold_secs.max(1e-9)
    );
    if *baseline_digest == cold_digest {
        println!("baseline continuation digest is bit-identical to the cold run");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: warm-started baseline digest {baseline_digest:016x} \
             differs from cold digest {cold_digest:016x}"
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let world = World::build(args.common.scale, args.common.seed);
    if args.warm_start {
        warm(&args, &world)
    } else {
        save(&args, &world)
    }
}
