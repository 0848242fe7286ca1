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
//! continuation variants (the DESIGN.md ablation knobs that leave the
//! checkpointed structure intact — budget unit, refresh period, ads-request
//! hops) under rayon, plus the unmodified `baseline` variant. The baseline
//! continuation must reproduce the cold uninterrupted run's digest
//! **bit-identically** — verified on every `--warm-start` invocation, with
//! the measured ramp-up savings printed next to it. Baseline algorithms
//! (flooding / random-walk / GSA) have no config variants and sweep the
//! baseline continuation only.
//!
//! Checkpoints pin (seed, peer count, overlay kind); `--scale`/`--seed`
//! must match between the save and warm-start invocations.

// This binary IS the CLI; its tables go to stdout by design.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use asap_bench::args::{next_value, Axes, CommonArgs};
use asap_bench::runner::{par_map, run_cell_spec, RunSpec, World};
use asap_bench::scale::Scale;
use asap_bench::table::{fnum, Table};
use asap_bench::AlgoKind;
use asap_core::{Asap, AsapConfig};
use asap_overlay::OverlayKind;
use asap_search::{Flooding, FloodingConfig, Gsa, RandomWalk};
use asap_sim::{AuditConfig, Checkpoint, CheckpointProtocol, Simulation};

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

/// The continuation sweep for an ASAP variant: the baseline plus the
/// ablation knobs that only steer *future* behavior (shrinking structural
/// capacity, e.g. the ad cache, would be rejected by the decoder's
/// capacity validation — deliberately excluded).
fn asap_variants(algo: AlgoKind, scale: Scale) -> Vec<(String, AsapConfig)> {
    let base = algo.asap_config(scale);
    let mut variants = vec![("baseline".to_string(), base.clone())];
    for factor in [0.5, 2.0] {
        let mut c = base.clone();
        c.budget_unit = ((c.budget_unit as f64 * factor) as u32).max(8);
        variants.push((format!("M0-x{factor}"), c));
    }
    for factor in [0.25, 4.0] {
        let mut c = base.clone();
        c.refresh_interval_us = ((c.refresh_interval_us as f64 * factor) as u64).max(1_000_000);
        variants.push((format!("refresh-x{factor}"), c));
    }
    {
        let mut c = base.clone();
        c.ads_request_hops = 2;
        variants.push(("ads-request-h2".to_string(), c));
    }
    variants
}

/// Resume every variant from the shared checkpoint under rayon and reduce
/// each continuation to a result row, `(label, digest, row, wall_secs)`.
///
/// Protocols are **not** `Send` (ASAP's pending searches share `Rc`s), so
/// each worker builds its own from the variant's `Send` config via `make` —
/// the same grain the matrix sweeps parallelize at.
fn warm_sweep<P: CheckpointProtocol, C: Send>(
    world: &World,
    overlay_kind: OverlayKind,
    ckpt: &Checkpoint,
    variants: Vec<(String, C)>,
    workers: usize,
    make: impl Fn(&C) -> P + Sync,
) -> Vec<(String, u64, Vec<String>, f64)> {
    par_map(workers, variants, |(label, cfg): (String, C)| {
        let start = Instant::now();
        let report = Simulation::builder(
            &world.phys,
            &world.workload,
            world.overlay(overlay_kind),
            overlay_kind,
            make(&cfg),
            world.seed,
        )
        .from_checkpoint(ckpt)
        .unwrap_or_else(|e| panic!("resume of variant '{label}' failed: {e}"))
        .run();
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
        (label, digest, row, secs)
    })
}

/// The audited spec every warmstart run uses: the auditor's digest is the
/// bit-identity witness, and it rides the checkpoint into every resumed
/// continuation.
fn spec() -> RunSpec {
    RunSpec {
        audit: Some(AuditConfig::default()),
        ..RunSpec::default()
    }
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
    let ckpt = checkpoint_cell(args, world, split_us);
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

/// Build the audited cell, run it to `split_us`, and take the checkpoint.
fn checkpoint_cell(args: &Args, world: &World, split_us: u64) -> Checkpoint {
    macro_rules! go {
        ($protocol:expr) => {{
            let mut sim = Simulation::builder(
                &world.phys,
                &world.workload,
                world.overlay(args.common.overlay),
                args.common.overlay,
                $protocol,
                world.seed,
            )
            .audit(AuditConfig::default())
            .build();
            sim.run_until(split_us);
            sim.checkpoint()
        }};
    }
    match args.common.algo {
        AlgoKind::Flooding => go!(Flooding::new(FloodingConfig::default())),
        AlgoKind::RandomWalk => go!(RandomWalk::new(world.scale.random_walk_config(None))),
        AlgoKind::Gsa => go!(Gsa::new(world.scale.gsa_config())),
        AlgoKind::AsapFld | AlgoKind::AsapRw | AlgoKind::AsapGsa => {
            go!(args
                .common
                .algo
                .build_asap(world.scale, &world.workload.model))
        }
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
    if ckpt.run_seed() != args.common.seed || ckpt.num_peers() != args.common.scale.peers() {
        eprintln!(
            "error: checkpoint pins seed={} peers={}, but this invocation asks for seed={} peers={}",
            ckpt.run_seed(),
            ckpt.num_peers(),
            args.common.seed,
            args.common.scale.peers()
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

    let baseline_only = vec![("baseline".to_string(), ())];
    let results = match args.common.algo {
        AlgoKind::Flooding => warm_sweep(
            world,
            args.common.overlay,
            &ckpt,
            baseline_only,
            args.common.workers,
            |_| Flooding::new(FloodingConfig::default()),
        ),
        AlgoKind::RandomWalk => warm_sweep(
            world,
            args.common.overlay,
            &ckpt,
            baseline_only,
            args.common.workers,
            |_| RandomWalk::new(world.scale.random_walk_config(None)),
        ),
        AlgoKind::Gsa => warm_sweep(
            world,
            args.common.overlay,
            &ckpt,
            baseline_only,
            args.common.workers,
            |_| Gsa::new(world.scale.gsa_config()),
        ),
        AlgoKind::AsapFld | AlgoKind::AsapRw | AlgoKind::AsapGsa => warm_sweep(
            world,
            args.common.overlay,
            &ckpt,
            asap_variants(args.common.algo, world.scale),
            args.common.workers,
            |cfg| Asap::new(cfg.clone(), &world.workload.model),
        ),
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
