//! One repeat = one fresh child process.
//!
//! The driver re-executes its own binary with the hidden `child` subcommand,
//! so every repeat builds its world from nothing, runs one cold cell, and
//! exits: `peak_rss_mb` is that run's `VmHWM` and no allocator state leaks
//! from one repeat into the next. The child's last stdout line is its report
//! as one JSON object.

use crate::cell::{self, Counts, Outcome};
use crate::json::{obj, Json};
use crate::layers;
use crate::span::{check_nesting, Spans};
use crate::spec::{Backend, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// This process's peak resident set: the `VmHWM` line of
/// `/proc/self/status`, in MB (0 where the file is missing, i.e. off Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one plain (untraced, user-path) repeat measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainReport {
    pub setup_s: f64,
    pub run_wall_s: f64,
    pub peak_rss_mb: f64,
    pub outcome: Outcome,
}

impl PlainReport {
    fn to_json(&self) -> Json {
        obj([
            ("setup_s", Json::from(self.setup_s)),
            ("run_wall_s", Json::from(self.run_wall_s)),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            ("outcome", self.outcome.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            setup_s: v.num("setup_s")?,
            run_wall_s: v.num("run_wall_s")?,
            peak_rss_mb: v.num("peak_rss_mb")?,
            outcome: Outcome::from_json(v.field("outcome")?)?,
        })
    }
}

/// Child side, plain: set up, run the cell once on the user path, report.
fn plain(w: &Workload, seed: u64) -> Json {
    let t0 = Instant::now();
    let world = cell::setup_world(w, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let outcome = cell::run_plain(w, &world);
    let run_wall_s = t1.elapsed().as_secs_f64();
    PlainReport {
        setup_s,
        run_wall_s,
        peak_rss_mb: peak_rss_mb(),
        outcome,
    }
    .to_json()
}

/// Child side, traced: the unrolled path twice over one world — run 0 with
/// spans only, run 1 with the `Recorder` attached — then the micros. On the
/// net workload the same cell first runs on the sim engine (run 2): the
/// loopback keeps no event profile, and the net-over-sim ratios need the
/// sim's time and memory from this same process and world.
fn traced(w: &Workload, seed: u64, origin: Instant) -> Json {
    let mut spans = Spans::new(origin);
    let pieces = cell::setup_pieces(w, seed, &mut spans);
    let rss_after_setup_mb = peak_rss_mb();
    let reference = (w.backend == Backend::Net).then(|| {
        spans.set_run(2);
        let sim = Workload {
            backend: Backend::Sim,
            ..*w
        };
        let run = cell::run_unrolled(&sim, pieces.parts(), false, &mut spans);
        spans.set_run(0);
        (run, peak_rss_mb())
    });
    let (outcome, counts) = cell::run_unrolled(w, pieces.parts(), false, &mut spans);
    let rss_after_cell_mb = peak_rss_mb();
    spans.set_run(1);
    let (recorded_outcome, recorded) = cell::run_unrolled(w, pieces.parts(), true, &mut spans);
    spans.set_run(0);
    let counts = match &reference {
        Some(((_, sim_counts), _)) => Counts {
            profile: sim_counts.profile,
            ..counts
        },
        None => counts,
    };
    let run_s = spans.seconds("sim.run", 0);
    let micros = spans.time("micros", |_| layers::micros(w, &pieces, &counts, run_s));
    let measured = layers::measured(&layers::Traced {
        w,
        pieces: &pieces,
        spans: &spans,
        counts: &counts,
        trace_records: recorded.trace_records,
        micros: &micros,
        wire_errors: outcome.wire_errors,
        rss_after_setup_mb,
        rss_after_reference_mb: reference.as_ref().map(|&(_, mb)| mb),
        rss_after_cell_mb,
        wall_ns: origin.elapsed().as_nanos() as u64,
    });
    let mut report = vec![
        ("outcome", outcome.to_json()),
        ("recorded_outcome", recorded_outcome.to_json()),
    ];
    if let Some(((sim_outcome, _), _)) = &reference {
        report.push(("reference_outcome", sim_outcome.to_json()));
    }
    report.push(("per_layer", layers::to_json(&measured)));
    report.push((
        "span_error",
        check_nesting(spans.all())
            .err()
            .map_or(Json::Null, Json::from),
    ));
    report.push(("spans", spans.to_json()));
    obj(report)
}

/// Entry point of the hidden `child` subcommand.
pub fn main(w: &Workload, seed: u64, is_traced: bool, origin: Instant) {
    let report = if is_traced {
        traced(w, seed, origin)
    } else {
        plain(w, seed)
    };
    println!("{}", report.compact());
}

/// Driver side: run one child to completion and parse its report.
fn spawn(w: &Workload, seed: u64, is_traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()]);
    if is_traced {
        cmd.arg("--traced");
    }
    // `output` waits for the child and collects its stdout; its stderr goes
    // to ours, so a panic message is not lost.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("child for {} failed: {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child for {} printed nothing", w.name))?;
    Json::parse(last).map_err(|e| format!("child report for {}: {e}", w.name))
}

pub fn spawn_plain(w: &Workload, seed: u64) -> Result<PlainReport, String> {
    PlainReport::from_json(&spawn(w, seed, false)?)
}

pub fn spawn_traced(w: &Workload, seed: u64) -> Result<Json, String> {
    spawn(w, seed, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_report_round_trips_with_a_full_width_fingerprint() {
        let r = PlainReport {
            setup_s: 0.251_337,
            run_wall_s: 4.503_217_9,
            peak_rss_mb: 64.3125,
            outcome: Outcome {
                searches: 4000,
                succeeded: 3991,
                messages_sent: 18_300_123,
                end_time_us: 530_000_123,
                outcome_fingerprint: 0xfedc_ba98_7654_3211,
                success_rate: 0.99775,
                response_ms: 181.25,
                search_cost_bytes: 7012.5,
                load_bytes_per_node_s: 93.75,
                wire_errors: 0,
            },
        };
        let back = PlainReport::from_json(&Json::parse(&r.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn peak_rss_reads_proc_status_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
