//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! why, and `/BENCHMARK.json` for the contract an outside driver runs it by.
//!
//! ```text
//! asap-benchmark all [--seed N]                     every workload, both passes
//! asap-benchmark run --workload NAME [--seed N] [--traced]
//! asap-benchmark measure --workload NAME --seed N --seconds S --trace 0|1
//! asap-benchmark list [--json]                       --json: the content of /BENCHMARK.json
//! asap-benchmark compare A.json B.json
//! ```

mod cell;
mod child;
mod compare;
mod json;
mod layers;
mod run;
mod span;
mod spec;
mod stats;

use json::{obj, Json};
use run::{Repeats, WorkloadResult};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const SCHEMA: &str = "asap-benchmark/v1";
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  asap-benchmark all [--seed N]
  asap-benchmark run --workload NAME [--seed N] [--traced]
  asap-benchmark measure --workload NAME --seed N --seconds S --trace 0|1
  asap-benchmark list [--json]
  asap-benchmark compare A.json B.json";

/// Parsed `--flag value` pairs and bare `--switch`es. Anything not named in
/// `valued` or `switches` is a hard error.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("--seed").map_or(Ok(DEFAULT_SEED), |s| {
            s.parse().map_err(|e| format!("bad --seed '{s}': {e}"))
        })
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        spec::workload(name).ok_or(format!(
            "unknown workload '{name}' (see `asap-benchmark list`)"
        ))
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(name: &str, value: &Json) -> Result<(), String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, value.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// First line of a command's stdout, or "unknown" (host facts only).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts() -> Json {
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("rustc", Json::from(first_line_of("rustc", &["--version"]))),
        (
            "commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn print_result(r: &WorkloadResult) {
    println!(
        "== {} (seed {}, {} repeats)",
        r.w.name,
        r.seed,
        r.repeats.len()
    );
    for m in END_TO_END.iter().filter(|_| !r.repeats.is_empty()) {
        let s = r.summary(m.name);
        println!(
            "  {:<28} median {:>14.6} {:<9} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}",
            m.name, s.median, m.unit, s.min, s.q1, s.q3, s.max, s.n
        );
    }
    println!(
        "  ops_attempted {} ops_failed {} ops_unanswered {}",
        r.ops_attempted(),
        r.ops_failed(),
        r.ops_unanswered()
    );
    for (m, value) in PER_LAYER.iter().zip(&r.per_layer) {
        println!("  {:<28} {:>21.6} {}", m.name, value, m.unit);
    }
    for c in &r.checks {
        println!(
            "  check {:<28} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

/// The trace file: the traced child's report under its workload and seed.
fn trace_file(r: &WorkloadResult, report: Json) -> Json {
    obj([
        ("schema", Json::from(SCHEMA)),
        ("workload", Json::from(r.w.name)),
        ("seed", Json::from(r.seed)),
        ("trace", report),
    ])
}

fn cmd_all(flags: &Flags) -> Result<bool, String> {
    let seed = flags.seed()?;
    let started = Instant::now();
    let mut results: Vec<WorkloadResult> = Vec::new();
    for w in &WORKLOADS {
        let mut r = run::plain_pass(w, seed, Repeats::Count(w.repeats))?;
        if w.backend == spec::Backend::Net {
            // The sim twin ran earlier in this same `all`.
            let twin = spec::sim_twin(w)
                .and_then(|t| results.iter().find(|r| r.w.name == t.name))
                .ok_or("the net workload's sim twin must run before it")?;
            run::check_sim_equals_net(&mut r, &twin.repeats[0]);
        }
        let report = run::traced_pass(&mut r)?;
        write_file(&format!("trace.{}.json", w.name), &trace_file(&r, report))?;
        print_result(&r);
        results.push(r);
    }
    let ok = results.iter().all(WorkloadResult::ok);
    write_file(
        "result.json",
        &obj([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(seed)),
            ("host", host_facts()),
            ("wall_s", Json::from(started.elapsed().as_secs_f64())),
            (
                "workloads",
                obj(results.iter().map(|r| (r.w.name, r.to_json()))),
            ),
        ]),
    )?;
    println!(
        "{} in {:.0} s",
        if ok {
            "every output check passed"
        } else {
            "OUTPUT CHECKS FAILED"
        },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

/// The sim engine's outcome for a net workload's cell, from one more child.
fn sim_twin_report(w: &Workload, seed: u64) -> Result<child::PlainReport, String> {
    let twin = spec::sim_twin(w).ok_or(format!("{} has no sim twin", w.name))?;
    eprintln!("[{}] sim twin {} (seed {seed})", w.name, twin.name);
    child::spawn_plain(twin, seed)
}

/// One workload, one pass: what `run` and `measure` share.
fn one_pass(
    w: &'static Workload,
    seed: u64,
    traced: bool,
    repeats: Repeats,
) -> Result<WorkloadResult, String> {
    if traced {
        let mut r = WorkloadResult::empty(w, seed);
        let report = run::traced_pass(&mut r)?;
        write_file(&format!("trace.{}.json", w.name), &trace_file(&r, report))?;
        return Ok(r);
    }
    let mut r = run::plain_pass(w, seed, repeats)?;
    if w.backend == spec::Backend::Net {
        let sim = sim_twin_report(w, seed)?;
        run::check_sim_equals_net(&mut r, &sim);
    }
    Ok(r)
}

fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let w = flags.workload()?;
    let r = one_pass(
        w,
        flags.seed()?,
        flags.has("--traced"),
        Repeats::Count(w.repeats),
    )?;
    print_result(&r);
    Ok(r.ok())
}

/// The outside driver's entry point: the last stdout line is one JSON
/// object with `correct`, `attempted`, `failed` and `metrics`.
fn cmd_measure(flags: &Flags) -> Result<bool, String> {
    let w = flags.workload()?;
    let seed = flags.seed()?;
    let seconds: f64 = flags
        .get("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    let traced = match flags.get("--trace").ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let r = one_pass(w, seed, traced, Repeats::Seconds(seconds))?;
    for c in r.checks.iter().filter(|c| !c.ok) {
        eprintln!("check {} FAILED: {}", c.name, c.detail);
    }
    let metric =
        |value: f64, unit: &str| obj([("value", Json::from(value)), ("unit", Json::from(unit))]);
    let metrics = if traced {
        obj(PER_LAYER
            .iter()
            .zip(&r.per_layer)
            .map(|(m, &value)| (m.name, metric(value, m.unit))))
    } else {
        obj(END_TO_END
            .iter()
            .map(|m| (m.name, metric(r.summary(m.name).median, m.unit))))
    };
    println!(
        "{}",
        obj([
            ("correct", Json::from(r.ok())),
            ("attempted", Json::from(r.ops_attempted())),
            ("failed", Json::from(r.ops_failed())),
            ("metrics", metrics),
        ])
        .compact()
    );
    Ok(r.ok())
}

fn cmd_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!("end-to-end metrics (per workload):");
    for m in &END_TO_END {
        let same_seed = if m.simulated {
            "identical".to_string()
        } else {
            format!("{:.0}%", m.same_seed_bound * 100.0)
        };
        println!(
            "  {:<28} {:<9} better: {:<6} bound: {:.0}% across seeds, {same_seed} at one seed",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced pass; 0 where a layer does no work on a workload):");
    for m in &PER_LAYER {
        println!(
            "  {:<28} {:<9} better: {}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
}

fn cmd_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes exactly two result files".to_string());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match v.str("schema") {
            Ok(SCHEMA) => Ok(v),
            other => Err(format!("{path}: schema {other:?}, want {SCHEMA:?}")),
        }
    };
    let pass = compare::compare(&read(a)?, &read(b)?)?;
    println!(
        "{}",
        if pass {
            "B is within every bound of A"
        } else {
            "B REGRESSED against A"
        }
    );
    Ok(pass)
}

fn dispatch(origin: Instant, args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("no command given")?;
    match command.as_str() {
        "all" => cmd_all(&Flags::parse(rest, &["--seed"], &[])?),
        "run" => cmd_run(&Flags::parse(
            rest,
            &["--workload", "--seed"],
            &["--traced"],
        )?),
        "measure" => cmd_measure(&Flags::parse(
            rest,
            &["--workload", "--seed", "--seconds", "--trace"],
            &[],
        )?),
        "list" => {
            if Flags::parse(rest, &[], &["--json"])?.has("--json") {
                print!("{}", spec::contract().pretty());
            } else {
                cmd_list();
            }
            Ok(true)
        }
        "compare" => cmd_compare(rest),
        // Hidden: one repeat, run by the driver in a fresh process.
        "child" => {
            let flags = Flags::parse(rest, &["--workload", "--seed"], &["--traced"])?;
            child::main(
                flags.workload()?,
                flags.seed()?,
                flags.has("--traced"),
                origin,
            );
            Ok(true)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(origin, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("asap-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
