//! `experiments` — regenerate the ASAP paper's figures.
//!
//! ```text
//! experiments <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|all
//!              |ablate|robustness|churn|superpeer>
//!             [--scale tiny|default|paper|xl] [--seed N] [--workers N]
//!             [--out DIR] [--faults none|lossy|chaos]
//!             [--adversary none|spam<pct>|freeride<pct>|eclipse<pct>]
//!             [--trace PATH] [--trace-query ID]
//! ```
//!
//! Figures 4–6 and 8–10 come from the 6-algorithm × 3-overlay matrix; when
//! several are requested the matrix is computed once. Tables print to
//! stdout and land as TSV under `--out` (default `results/`).
//!
//! `--trace PATH` attaches the deterministic trace recorder to every matrix
//! cell and writes, per cell, a JSONL timeline (`PATH-algo-overlay.jsonl`)
//! and a Chrome-trace view (`PATH-algo-overlay.json`, load via
//! `chrome://tracing` or Perfetto). `--trace-query ID` narrows the JSONL to
//! one query's lifecycle. Tracing never perturbs results: digests are
//! bit-identical either way (golden `--trace` proves it).
//!
//! `--adversary <profile>` runs every requested figure under an adversary
//! profile (ad-spam poisoning, free-riders, eclipse capture; see
//! `asap_bench::adversary`). The `robustness` subcommand sweeps three
//! fractions of each attack type and tabulates the success-rate degradation
//! of ASAP against the random-walk baseline (EXPERIMENTS.md §robustness).
//!
//! Two subcommands test claims the figures do not: `churn` runs the six
//! algorithms on the crawled overlay at ×0, ×1, ×2, ×4 and ×8 the scale's
//! joins and departures (§V: "ASAP works well under node churn"), and
//! `superpeer` runs flat ASAP(RW) against super-peer ASAP on all three
//! overlays (footnote 3). Both write their table under `--out` as well.

// This binary IS the CLI; its tables go to stdout by design.
#![allow(clippy::print_stdout)]

use asap_bench::args::{next_value, Axes, CommonArgs};
use asap_bench::figures;
use asap_bench::runner::{run_cell_spec, sweep_cells_spec, RunSpec, RunSummary, World};
use asap_bench::scale::Scale;
use asap_bench::table::{fnum, Table};
use asap_bench::{AdversaryProfile, AlgoKind};
use asap_metrics::MsgClass;
use asap_overlay::OverlayKind;
use asap_sim::trace::{to_chrome_trace, TraceConfig};
use asap_workload::{TraceEvent, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    common: CommonArgs,
    out: PathBuf,
    trace: Option<PathBuf>,
    trace_query: Option<u32>,
}

fn common_defaults() -> CommonArgs {
    let mut common = CommonArgs::new(Axes::SWEEP);
    common.scale = Scale::Default;
    common
}

/// Every subcommand, in usage order.
const COMMANDS: [&str; 14] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "all",
    "ablate",
    "robustness",
    "churn",
    "superpeer",
];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command '{command}'\n{}", usage()));
    }
    let mut parsed = Args {
        command,
        common: common_defaults(),
        out: PathBuf::from("results"),
        trace: None,
        trace_query: None,
    };
    while let Some(flag) = args.next() {
        if parsed.common.accept(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--out" => parsed.out = PathBuf::from(next_value(&flag, &mut args)?),
            "--trace" => parsed.trace = Some(PathBuf::from(next_value(&flag, &mut args)?)),
            "--trace-query" => {
                parsed.trace_query = Some(
                    next_value(&flag, &mut args)?
                        .parse()
                        .map_err(|e| format!("bad query id: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if parsed.trace_query.is_some() && parsed.trace.is_none() {
        return Err(format!("--trace-query needs --trace PATH\n{}", usage()));
    }
    Ok(parsed)
}

fn usage() -> String {
    format!(
        "usage: experiments <{}> {} [--out DIR] [--trace PATH] [--trace-query ID]",
        COMMANDS.join("|"),
        common_defaults().usage()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# scale={} peers={} queries={} seed={} faults={} adversary={}",
        args.common.scale.label(),
        args.common.scale.peers(),
        args.common.scale.queries(),
        args.common.seed,
        args.common.faults.label(),
        args.common.adversary.label()
    );

    match args.command.as_str() {
        "fig2" | "fig3" => {
            let workload = asap_workload::generate(&args.common.scale.workload(args.common.seed));
            emit_figure(&args, &args.command, Source::Workload(&workload));
        }
        name @ ("all" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10") => {
            let world = World::build(args.common.scale, args.common.seed);
            if name == "all" {
                for fig in ["fig2", "fig3"] {
                    emit_figure(&args, fig, Source::Workload(&world.workload));
                }
            }
            let cells = match name {
                "fig7" => vec![(AlgoKind::AsapRw, OverlayKind::Crawled)],
                "fig10" => AlgoKind::ALL
                    .iter()
                    .map(|&a| (a, OverlayKind::Crawled))
                    .collect(),
                _ => asap_bench::runner::full_matrix(),
            };
            let runs = run_matrix(&args, &world, cells);
            let figures: &[&str] = if name == "all" {
                &MATRIX_FIGURES
            } else {
                &[name]
            };
            for fig in figures {
                emit_figure(&args, fig, Source::Runs(&runs));
            }
        }
        "ablate" => ablations(&args),
        "robustness" => robustness(&args),
        "churn" => churn(&args),
        "superpeer" => superpeer(&args),
        other => unreachable!("parse_args admits no command '{other}'"),
    }
    ExitCode::SUCCESS
}

fn run_matrix(args: &Args, world: &World, cells: Vec<(AlgoKind, OverlayKind)>) -> Vec<RunSummary> {
    let mut spec = args.common.run_spec();
    if args.trace.is_some() {
        spec = spec.with_trace(TraceConfig::default());
    }
    let reports = sweep_cells_spec(world, &cells, args.common.workers, &spec);
    if let Some(stem) = &args.trace {
        export_traces(stem, args.trace_query, &reports);
    }
    reports.into_iter().map(|c| c.summary).collect()
}

/// Write each traced cell's JSONL timeline and Chrome-trace document next to
/// `stem`, suffixed `-algo-overlay`.
fn export_traces(
    stem: &std::path::Path,
    query: Option<u32>,
    reports: &[asap_bench::runner::CellReport],
) {
    if let Some(dir) = stem.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace output dir");
        }
    }
    let base = stem.to_string_lossy();
    for cell in reports {
        let Some(rec) = &cell.trace else { continue };
        let algo = cell
            .summary
            .algo
            .label()
            .to_lowercase()
            .replace('(', "-")
            .replace(')', "");
        let tag = format!("{algo}-{}", cell.summary.overlay.label());
        let jsonl = match query {
            Some(id) => rec.write_jsonl_for_query(id),
            None => rec.write_jsonl(),
        };
        let jsonl_path = format!("{base}-{tag}.jsonl");
        std::fs::write(&jsonl_path, jsonl).expect("write trace jsonl");
        let chrome_path = format!("{base}-{tag}.json");
        std::fs::write(&chrome_path, to_chrome_trace(&rec.records_vec()))
            .expect("write chrome trace");
        eprintln!(
            "[trace] {jsonl_path} ({} events, {} dropped) + {chrome_path}",
            rec.len(),
            rec.dropped()
        );
    }
}

/// The figures drawn from matrix runs, in the order `all` writes them.
const MATRIX_FIGURES: [&str; 7] = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"];

/// What a figure is drawn from.
enum Source<'a> {
    /// The generated workload (Figs. 2–3).
    Workload(&'a Workload),
    /// Matrix cells (Figs. 4–10): Fig. 7 reads the crawled ASAP(RW) cell,
    /// Fig. 10 the crawled ones.
    Runs(&'a [RunSummary]),
}

/// Write figure `name` under `--out` and echo it with its caption: the one
/// place a figure's caption and table are named, for its own command and
/// for `all`.
fn emit_figure(args: &Args, name: &str, source: Source<'_>) {
    let scale = args.common.scale;
    let (caption, table) = match (name, source) {
        ("fig2", Source::Workload(w)) => (
            "Fig 2: semantic-class distribution (nodes sharing content per class)",
            figures::fig2_class_distribution(w),
        ),
        ("fig3", Source::Workload(w)) => (
            "Fig 3: interest distribution (nodes per interest)",
            figures::fig3_interest_distribution(w),
        ),
        ("fig4", Source::Runs(runs)) => (
            "Fig 4: search success rate",
            figures::fig4_success_rate(runs),
        ),
        ("fig5", Source::Runs(runs)) => (
            "Fig 5: average response time (ms)",
            figures::fig5_response_time(runs),
        ),
        ("fig6", Source::Runs(runs)) => (
            "Fig 6: search cost (bytes per search)",
            figures::fig6_search_cost(runs),
        ),
        ("fig7", Source::Runs(runs)) => {
            let asap_rw = runs
                .iter()
                .find(|r| r.algo == AlgoKind::AsapRw && r.overlay == OverlayKind::Crawled)
                .expect("Fig 7 needs the crawled ASAP(RW) cell");
            (
                "Fig 7: ASAP(RW) system-load breakdown (crawled overlay)",
                figures::fig7_breakdown(asap_rw, figures::fig7_skip_seconds(scale)),
            )
        }
        ("fig8", Source::Runs(runs)) => (
            "Fig 8: average system load (bytes/node/s)",
            figures::fig8_mean_load(runs),
        ),
        ("fig9", Source::Runs(runs)) => (
            "Fig 9: system-load standard deviation",
            figures::fig9_load_stddev(runs),
        ),
        ("fig10", Source::Runs(runs)) => (
            "Fig 10: real-time system load, 100 s snapshot (crawled overlay)",
            figures::fig10_load_series(runs, figures::fig10_start_second(scale), 100),
        ),
        (other, _) => unreachable!("no figure '{other}' from this source"),
    };
    figures::emit(&args.out, &format!("{name}.tsv"), caption, &table);
}

/// Robustness sweep: success-rate degradation vs adversary fraction, three
/// fractions per attack type, ASAP(RW) against the random-walk baseline on
/// the crawled overlay (the paper's default presentation). `delta-pp` is
/// percentage points of success rate lost relative to the honest run of the
/// same algorithm; `absorbed` counts messages swallowed by free-riding or
/// colluding peers; `neg-confirms` counts empty confirmation replies (the
/// footprint of poisoned ads; `-` for non-ASAP algorithms).
fn robustness(args: &Args) {
    use asap_bench::runner::CellReport;

    let world = World::build(args.common.scale, args.common.seed);
    let overlay = OverlayKind::Crawled;
    let cells: Vec<(AlgoKind, OverlayKind)> = [AlgoKind::RandomWalk, AlgoKind::AsapRw]
        .iter()
        .map(|&a| (a, overlay))
        .collect();

    let sweep = |profile: AdversaryProfile| -> Vec<CellReport> {
        eprintln!("[robustness] adversary={}", profile.label());
        let spec = asap_bench::runner::RunSpec::figures().with_adversary(profile);
        sweep_cells_spec(&world, &cells, args.common.workers, &spec)
    };

    let mut t = Table::new(&[
        "attack",
        "fraction",
        "algo",
        "success",
        "delta-pp",
        "absorbed",
        "neg-confirms",
    ]);
    let row = |t: &mut Table, attack: &str, pct: u8, cell: &CellReport, honest_rate: f64| {
        let rate = cell.summary.success_rate;
        t.row(vec![
            attack.to_string(),
            format!("{pct}%"),
            cell.summary.algo.label().to_string(),
            fnum(rate),
            format!("{:+.1}", (rate - honest_rate) * 100.0),
            cell.adversary.map_or(0, |a| a.absorbed).to_string(),
            cell.summary
                .asap_stats
                .as_ref()
                .map_or_else(|| "-".to_string(), |s| s.confirms_negative.to_string()),
        ]);
    };

    let honest = sweep(AdversaryProfile::None);
    for cell in &honest {
        row(&mut t, "none", 0, cell, cell.summary.success_rate);
    }
    type Attack = (&'static str, fn(u8) -> AdversaryProfile, [u8; 3]);
    let attacks: [Attack; 3] = [
        ("spam", AdversaryProfile::Spam, [5, 10, 20]),
        ("freeride", AdversaryProfile::FreeRider, [10, 25, 50]),
        ("eclipse", AdversaryProfile::Eclipse, [4, 8, 16]),
    ];
    for (attack, profile, fractions) in attacks {
        for pct in fractions {
            for (cell, base) in sweep(profile(pct)).iter().zip(&honest) {
                row(&mut t, attack, pct, cell, base.summary.success_rate);
            }
        }
    }
    figures::emit(
        &args.out,
        "robustness.tsv",
        "Robustness: success-rate degradation vs adversary fraction (crawled overlay)",
        &t,
    );
}

/// Ablations over the design knobs DESIGN.md calls out
/// ([`AlgoKind::ablations`]). ASAP(RW) on the crawled overlay, matching the
/// paper's default presentation.
fn ablations(args: &Args) {
    let world = World::build(args.common.scale, args.common.seed);
    let algo = AlgoKind::AsapRw;
    let base = algo.asap_config(args.common.scale);
    let rows = std::iter::once(("baseline(RW)".to_string(), base))
        .chain(algo.ablations(args.common.scale));
    let mut t = Table::new(&[
        "variant",
        "success",
        "response-ms",
        "bytes/search",
        "mean-load",
    ]);
    for (name, config) in rows {
        eprintln!("[ablate] {name}");
        let spec = RunSpec::figures().with_asap(config);
        let s = run_cell_spec(&world, algo, OverlayKind::Crawled, &spec).summary;
        t.row(vec![
            name,
            fnum(s.success_rate),
            fnum(s.avg_response_ms),
            fnum(s.per_search_cost_bytes),
            fnum(s.mean_load),
        ]);
    }
    figures::emit(
        &args.out,
        "ablations.tsv",
        "Ablations: ASAP(RW), crawled overlay",
        &t,
    );
}

/// The churn multipliers of `experiments churn`: ×0 is a static network,
/// ×1 the scale's own joins and departures.
const CHURN_MULTIPLIERS: [usize; 5] = [0, 1, 2, 4, 8];

/// Churn sweep: the six algorithms on the crawled overlay of a world whose
/// joins and departures are the scale's times each multiplier, each capped
/// at half the peers. `events` counts the joins and departures the trace
/// holds (a join with nobody offline is dropped); `repair-fetches` counts
/// ASAP's full-ad fetches after a version gap or a refresh miss (`-` for
/// the baselines); `ad-bytes` sums full, patch and refresh ads.
fn churn(args: &Args) {
    let scale = args.common.scale;
    let spec = args.common.run_spec();
    let cells: Vec<(AlgoKind, OverlayKind)> = AlgoKind::ALL
        .iter()
        .map(|&a| (a, OverlayKind::Crawled))
        .collect();
    let mut t = Table::new(&[
        "churn",
        "algo",
        "events",
        "success",
        "response-ms",
        "bytes/search",
        "mean-load",
        "repair-fetches",
        "ad-bytes",
    ]);
    for m in CHURN_MULTIPLIERS {
        eprintln!("[churn] x{m}");
        let world = World::build_with(scale, args.common.seed, |wl| {
            let cap = wl.peers / 2;
            wl.joins = (wl.joins * m).min(cap);
            wl.leaves = (wl.leaves * m).min(cap);
        });
        let events = world
            .workload
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Join(_) | TraceEvent::Leave(_)))
            .count();
        for cell in sweep_cells_spec(&world, &cells, args.common.workers, &spec) {
            let s = cell.summary;
            let ad_bytes: u64 = [MsgClass::FullAd, MsgClass::PatchAd, MsgClass::RefreshAd]
                .iter()
                .map(|c| s.class_totals[c.index()])
                .sum();
            t.row(vec![
                format!("x{m}"),
                s.algo.label().to_string(),
                events.to_string(),
                fnum(s.success_rate),
                fnum(s.avg_response_ms),
                fnum(s.per_search_cost_bytes),
                fnum(s.mean_load),
                s.asap_stats
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |a| a.repair_fetches.to_string()),
                ad_bytes.to_string(),
            ]);
        }
    }
    figures::emit(
        &args.out,
        "churn.tsv",
        "Churn: joins and departures x0..x8 (crawled overlay)",
        &t,
    );
}

/// The super-peer deployment of footnote 3 against flat ASAP(RW), on the
/// same configuration and world, on every overlay.
fn superpeer(args: &Args) {
    let world = World::build(args.common.scale, args.common.seed);
    let cells: Vec<(AlgoKind, OverlayKind)> = OverlayKind::ALL
        .iter()
        .flat_map(|&o| [(AlgoKind::AsapRw, o), (AlgoKind::SuperAsap, o)])
        .collect();
    let mut t = Table::new(&[
        "overlay",
        "algo",
        "success",
        "response-ms",
        "bytes/search",
        "mean-load",
        "load-stddev",
    ]);
    let spec = args.common.run_spec();
    for cell in sweep_cells_spec(&world, &cells, args.common.workers, &spec) {
        let s = cell.summary;
        t.row(vec![
            s.overlay.label().to_string(),
            s.algo.label().to_string(),
            fnum(s.success_rate),
            fnum(s.avg_response_ms),
            fnum(s.per_search_cost_bytes),
            fnum(s.mean_load),
            fnum(s.stddev_load),
        ]);
    }
    figures::emit(
        &args.out,
        "superpeer.tsv",
        "Super-peer ASAP vs flat ASAP(RW)",
        &t,
    );
}
