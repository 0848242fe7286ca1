//! Pinned performance trajectory: a fixed micro + macro suite whose results
//! are committed as `BENCH_pr9.json` at the workspace root.
//!
//! * `cargo run --release -p asap-bench --bin perf -- --scale all` — run
//!   every leg (tiny micros + e2e, default e2e cell + sweeps, the
//!   xl 100k-peer cell) and write `BENCH_pr9.json` (`--out FILE` redirects).
//! * `cargo run --release -p asap-bench --bin perf -- --check BENCH_pr9.json`
//!   — run the requested legs and exit nonzero if any timed metric regressed
//!   more than the tolerance (default 25 %, `--tolerance 0.4` to loosen)
//!   against the committed baseline. Only the keys this invocation measured
//!   are compared, so CI can gate the tiny leg (fast) and the xl leg
//!   (coarse) in separate jobs against one committed baseline.
//!
//! Legs (`--scale`, repeatable; `all` = every leg; default `tiny`):
//!
//! * `tiny` — micro benches (hash-path Bloom query, word-parallel
//!   [`ProbePlan`] query, oracle pair lookup, copy-on-write snapshot), one
//!   end-to-end tiny cell untraced *and* traced (the pair bounds the
//!   observability tax), and the serial-vs-parallel 4-cell sweep. The
//!   engine's event-loop profile counters ride along as exact integers: any
//!   drift in them is a behavior change, not noise.
//! * `default` — the 4-cell sweep serial vs parallel at default scale
//!   (1,500 peers), plus one default ASAP(RW) cell (`e2e_default_heap_ms`;
//!   the key keeps its `BENCH_pr9.json` name so `--check` still gates it).
//! * `xl` — build the streamed 103,872-node topology and run one 100,000
//!   peer random-walk cell (`e2e_xl_ms`).
//!
//! Speedup ratios (`sweep_speedup_*`) are derived values: written for the
//! trajectory record, never regression-gated (they move with core count —
//! `threads` records what this host gave the run).
//!
//! `--gate KEY=TOL` (repeatable) pins a per-key tolerance tighter than the
//! global `--tolerance`; CI uses it to hold the micro benches to 5 %.

#![allow(clippy::print_stdout)]

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use asap_bench::args::next_value;
use asap_bench::runner::{run_cell_spec, sweep_cells_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomParams, CountingBloom, ProbePlan};
use asap_overlay::OverlayKind;
use asap_sim::trace::TraceConfig;
use asap_topology::{PhysNodeId, PhysicalNetwork, TransitStubConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = "asap-bench-perf/v3";
const SEED: u64 = 42;

/// One suite leg; `--scale` selects which run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Tiny,
    Default,
    Xl,
}

impl Leg {
    fn parse(s: &str) -> Option<Vec<Leg>> {
        match s {
            "tiny" => Some(vec![Leg::Tiny]),
            "default" => Some(vec![Leg::Default]),
            "xl" => Some(vec![Leg::Xl]),
            "all" => Some(vec![Leg::Tiny, Leg::Default, Leg::Xl]),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Leg::Tiny => "tiny",
            Leg::Default => "default",
            Leg::Xl => "xl",
        }
    }
}

#[derive(Default)]
struct Results {
    /// Which legs ran, `+`-joined (metadata, not compared).
    scales: String,
    threads: usize,
    /// Regression-gated wall-clock metrics, in suite order.
    timed: Vec<(String, f64)>,
    /// Derived ratios: written, printed, never gated.
    derived: Vec<(String, f64)>,
    /// Exact integers (event-loop counters, populations): pinned verbatim.
    ints: Vec<(String, u64)>,
}

impl Results {
    fn timed(&mut self, key: &str, ms: f64) {
        self.timed.push((key.to_string(), ms));
    }

    fn derived(&mut self, key: &str, v: f64) {
        self.derived.push((key.to_string(), v));
    }

    fn int(&mut self, key: &str, v: u64) {
        self.ints.push((key.to_string(), v));
    }
}

/// Best-of-7 wall clock for `iters` calls of `f`, in ns per call. The min
/// over repeats discards scheduler noise without averaging it in; seven
/// repeats (still well under 10 ms per bench) keep the floor stable even on
/// loaded shared runners, which the 5 % micro gates depend on.
fn time_ns<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let total = start.elapsed().as_nanos() as f64 / f64::from(iters);
        best = best.min(total);
    }
    best
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64() * 1e3)
}

/// The shared micro fixture: a paper-sized filter holding 64 keywords.
fn micro_filter() -> (BloomParams, Vec<String>, asap_bloom::BloomFilter) {
    let params = BloomParams::paper_default();
    let mut cb = CountingBloom::new(params);
    let keys: Vec<String> = (0..64).map(|i| format!("keyword-{i}")).collect();
    for k in &keys {
        cb.insert(k);
    }
    let filter = cb.snapshot();
    (params, keys, filter)
}

fn micro_bloom_query() -> f64 {
    let (_, keys, filter) = micro_filter();
    let probes: Vec<&str> = keys.iter().map(String::as_str).cycle().take(256).collect();
    let mut i = 0;
    time_ns(20_000, || {
        i = (i + 1) % probes.len();
        filter.contains(probes[i])
    })
}

/// The word-parallel path: probe positions prehashed and word-merged into a
/// [`ProbePlan`], as the repository lookup hot path does per query.
fn micro_bloom_probe() -> f64 {
    let (params, keys, filter) = micro_filter();
    let plans: Vec<ProbePlan> = keys
        .iter()
        .map(|k| ProbePlan::new(params, &[KeyHash::of(k)]))
        .collect();
    let mut i = 0;
    time_ns(20_000, || {
        i = (i + 1) % plans.len();
        filter.contains_plan(&plans[i])
    })
}

fn micro_oracle_pair() -> f64 {
    let net = PhysicalNetwork::generate(&TransitStubConfig::reduced(SEED));
    let n = net.num_nodes() as u32;
    let mut rng = SmallRng::seed_from_u64(SEED);
    let pairs: Vec<(PhysNodeId, PhysNodeId)> = (0..256)
        .map(|_| (PhysNodeId(rng.gen_range(0..n)), PhysNodeId(rng.gen_range(0..n))))
        .collect();
    let mut i = 0;
    time_ns(20_000, || {
        i = (i + 1) % pairs.len();
        let (a, b) = pairs[i];
        net.latency_us(a, b)
    })
}

fn micro_snapshot_rc() -> f64 {
    let mut cb = CountingBloom::new(BloomParams::paper_default());
    for i in 0..64 {
        cb.insert(&format!("keyword-{i}"));
    }
    time_ns(100_000, || cb.snapshot_rc())
}

/// The reduced sweep the macro legs time: two algorithms × two overlays,
/// mixing an allocation-heavy baseline with the ASAP hot path.
fn perf_cells() -> [(AlgoKind, OverlayKind); 4] {
    [
        (AlgoKind::Flooding, OverlayKind::Random),
        (AlgoKind::Flooding, OverlayKind::PowerLaw),
        (AlgoKind::AsapRw, OverlayKind::Random),
        (AlgoKind::AsapRw, OverlayKind::PowerLaw),
    ]
}

/// Time the 4-cell sweep serially and across `threads` workers on one world;
/// asserts serial/parallel fingerprint agreement and returns
/// `(serial_ms, parallel_ms)`.
fn sweep_pair(world: &World, threads: usize) -> (f64, f64) {
    let cells = perf_cells();
    let spec = RunSpec::figures();
    let (serial, serial_ms) = timed_ms(|| sweep_cells_spec(world, &cells, 1, &spec));
    let (parallel, parallel_ms) = timed_ms(|| sweep_cells_spec(world, &cells, threads, &spec));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.outcome_fingerprint, p.outcome_fingerprint,
            "parallel sweep diverged from serial — determinism bug"
        );
    }
    (serial_ms, parallel_ms)
}

fn leg_tiny(r: &mut Results, threads: usize) {
    eprintln!("perf[tiny]: micro benches...");
    r.timed("bloom_query_ns", micro_bloom_query());
    r.timed("bloom_probe_ns", micro_bloom_probe());
    r.timed("oracle_pair_ns", micro_oracle_pair());
    r.timed("snapshot_rc_ns", micro_snapshot_rc());

    eprintln!("perf[tiny]: building the world...");
    let world = World::build(Scale::Tiny, SEED);

    eprintln!("perf[tiny]: end-to-end cell...");
    let spec = RunSpec::figures();
    let (cell, e2e_ms) =
        timed_ms(|| run_cell_spec(&world, AlgoKind::AsapRw, OverlayKind::Random, &spec));
    assert!(cell.queries > 0, "perf cell must actually run queries");
    r.timed("e2e_tiny_ms", e2e_ms);

    eprintln!("perf[tiny]: end-to-end cell, traced...");
    let traced_spec = RunSpec::figures().with_trace(TraceConfig::default());
    let (traced, e2e_traced_ms) =
        timed_ms(|| run_cell_spec(&world, AlgoKind::AsapRw, OverlayKind::Random, &traced_spec));
    assert_eq!(
        cell.outcome_fingerprint, traced.outcome_fingerprint,
        "tracing perturbed the e2e cell — determinism bug"
    );
    let trace_records = traced.trace.as_ref().map_or(0, |t| t.total());
    assert!(trace_records > 0, "traced cell must record events");
    r.timed("e2e_tiny_traced_ms", e2e_traced_ms);

    eprintln!("perf[tiny]: serial vs parallel sweep ({threads} workers)...");
    let (serial_ms, parallel_ms) = sweep_pair(&world, threads);
    r.timed("sweep_serial_tiny_ms", serial_ms);
    r.timed("sweep_parallel_tiny_ms", parallel_ms);
    r.derived("sweep_speedup_tiny", serial_ms / parallel_ms);

    // Exact event-loop counters from the untraced e2e cell: drift here is a
    // behavior change, so they are pinned as integers, not tolerated floats.
    r.int("profile_sends", cell.profile.sends);
    r.int("profile_delivers", cell.profile.delivers);
    r.int("profile_timers_set", cell.profile.timers_set);
    r.int("profile_timers_fired", cell.profile.timers_fired);
    r.int("profile_queue_hwm", cell.profile.queue_hwm as u64);
    r.int("trace_records", trace_records);
}

fn leg_default(r: &mut Results, threads: usize) {
    eprintln!("perf[default]: building the world...");
    let world = World::build(Scale::Default, SEED);

    eprintln!("perf[default]: end-to-end cell...");
    let spec = RunSpec::figures();
    let (cell, e2e_ms) =
        timed_ms(|| run_cell_spec(&world, AlgoKind::AsapRw, OverlayKind::Random, &spec));
    assert!(cell.queries > 0, "perf cell must actually run queries");
    r.timed("e2e_default_heap_ms", e2e_ms);

    eprintln!("perf[default]: serial vs parallel sweep ({threads} workers)...");
    let (serial_ms, parallel_ms) = sweep_pair(&world, threads);
    r.timed("sweep_serial_default_ms", serial_ms);
    r.timed("sweep_parallel_default_ms", parallel_ms);
    r.derived("sweep_speedup_default", serial_ms / parallel_ms);
}

fn leg_xl(r: &mut Results) {
    eprintln!("perf[xl]: building the 103,872-node streamed topology...");
    let (world, build_ms) = timed_ms(|| World::build(Scale::Xl, SEED));
    r.timed("xl_world_build_ms", build_ms);

    eprintln!("perf[xl]: 100k-peer random-walk cell...");
    let spec = RunSpec::figures();
    let (cell, e2e_ms) =
        timed_ms(|| run_cell_spec(&world, AlgoKind::RandomWalk, OverlayKind::Random, &spec));
    assert!(cell.queries > 0, "xl cell must actually run queries");
    r.timed("e2e_xl_ms", e2e_ms);
    r.int("xl_peers", Scale::Xl.peers() as u64);
    r.int("xl_queries", cell.queries as u64);
    r.int("xl_queue_hwm", cell.profile.queue_hwm as u64);
}

fn run_suite(legs: &[Leg]) -> Results {
    let mut r = Results {
        scales: legs
            .iter()
            .map(|l| l.label())
            .collect::<Vec<_>>()
            .join("+"),
        threads: rayon::current_num_threads(),
        ..Results::default()
    };
    let threads = r.threads;
    for leg in legs {
        match leg {
            Leg::Tiny => leg_tiny(&mut r, threads),
            Leg::Default => leg_default(&mut r, threads),
            Leg::Xl => leg_xl(&mut r),
        }
    }
    r
}

fn render_json(r: &Results) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"scales\": \"{}\",\n", r.scales));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"threads\": {},\n", r.threads));
    for (key, value) in &r.timed {
        out.push_str(&format!("  \"{key}\": {value:.3},\n"));
    }
    for (key, value) in &r.derived {
        out.push_str(&format!("  \"{key}\": {value:.3},\n"));
    }
    for (i, (key, value)) in r.ints.iter().enumerate() {
        let comma = if i + 1 == r.ints.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Minimal extraction of `"key": <number>` from the baseline JSON (the file
/// is machine-written by this binary; no external JSON crate is available).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Compare this run's **measured** keys against the baseline: a key the
/// current invocation did not run is never judged, so per-leg CI jobs can
/// share one all-legs baseline. A measured key the baseline lacks fails —
/// that means the baseline predates the metric and must be regenerated.
fn check(results: &Results, baseline_path: &str, tolerance: f64, gates: &[(String, f64)]) -> bool {
    let doc = match std::fs::read_to_string(baseline_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perf: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    match json_string(&doc, "schema") {
        Some(s) if s == SCHEMA => {}
        other => {
            eprintln!("perf: baseline schema {other:?}, want {SCHEMA:?}");
            return false;
        }
    }
    for (key, _) in gates {
        if !results.timed.iter().any(|(k, _)| k == key) {
            eprintln!("perf: --gate names a key this invocation did not measure: {key:?}");
            return false;
        }
    }
    let mut ok = true;
    for (key, current) in &results.timed {
        let Some(base) = json_number(&doc, key) else {
            eprintln!("perf: baseline is missing {key} — regenerate it with the same legs");
            ok = false;
            continue;
        };
        let tol = gates
            .iter()
            .find(|(k, _)| k == key)
            .map_or(tolerance, |&(_, t)| t);
        let limit = base * (1.0 + tol);
        let verdict = if *current <= limit { "ok" } else { "REGRESSED" };
        println!(
            "{key:>24}: {current:>12.1} (baseline {base:.1}, limit {limit:.1}, tol {:.0}%) {verdict}",
            tol * 100.0
        );
        if *current > limit {
            ok = false;
        }
    }
    ok
}

fn usage() -> String {
    "usage: perf [--scale tiny|default|xl|all]... [--out FILE] \
     [--check BASELINE [--tolerance F] [--gate KEY=TOL]...]"
        .to_string()
}

/// The parsed CLI. Unlike the harness binaries, `--scale` here selects
/// suite *legs* (which may repeat and include `all`), so perf shares only
/// the flag-value plumbing with `asap_bench::args`, not the axis set.
struct Cli {
    legs: Vec<Leg>,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    gates: Vec<(String, f64)>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        legs: Vec::new(),
        out: None,
        baseline: None,
        tolerance: 0.25,
        gates: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = next_value(&flag, &mut args)?;
                let mut legs = Leg::parse(&v).ok_or(format!("unknown leg '{v}'"))?;
                cli.legs.append(&mut legs);
            }
            "--out" => cli.out = Some(next_value(&flag, &mut args)?),
            "--check" => cli.baseline = Some(next_value(&flag, &mut args)?),
            "--tolerance" => {
                cli.tolerance = next_value(&flag, &mut args)?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?
            }
            "--gate" => {
                let raw = next_value(&flag, &mut args)?;
                let (key, tol) = raw
                    .split_once('=')
                    .and_then(|(k, v)| v.parse().ok().map(|t| (k.to_string(), t)))
                    .ok_or(format!("--gate wants KEY=TOL, got '{raw}'"))?;
                cli.gates.push((key, tol));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cli.legs.is_empty() {
        cli.legs.push(Leg::Tiny);
    }
    cli.legs.dedup();
    Ok(cli)
}

fn main() -> ExitCode {
    let Cli {
        legs,
        out,
        baseline,
        tolerance,
        gates,
    } = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let results = run_suite(&legs);
    println!(
        "perf suite, legs [{}], {} thread(s):",
        results.scales, results.threads
    );
    for (key, value) in &results.timed {
        println!("{key:>24}: {value:12.1}");
    }
    for (key, value) in &results.derived {
        println!("{key:>24}: {value:12.3}");
    }
    for (key, value) in &results.ints {
        println!("{key:>24}: {value:>12}");
    }

    if let Some(path) = baseline {
        println!("checking against {path} (tolerance {:.0}%):", tolerance * 100.0);
        if !check(&results, &path, tolerance, &gates) {
            eprintln!("perf: REGRESSION — some metric exceeded baseline + tolerance");
            return ExitCode::FAILURE;
        }
        println!("perf: within tolerance of the committed baseline");
        if let Some(path) = out {
            std::fs::write(&path, render_json(&results)).expect("write perf JSON");
            eprintln!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }

    let path = out.unwrap_or_else(|| "BENCH_pr9.json".to_string());
    std::fs::write(&path, render_json(&results)).expect("write perf JSON");
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}
