//! Drive one workload: the plain repeats, the traced pass, the output checks.

use crate::cell::Outcome;
use crate::child::{self, PlainReport};
use crate::json::{obj, Json};
use crate::spec::{Backend, Workload, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::time::Instant;

/// One output check: what was compared and how it came out.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Everything measured on one workload at one seed.
pub struct WorkloadResult {
    pub w: &'static Workload,
    pub seed: u64,
    /// The plain repeats; empty when only the traced pass ran.
    pub repeats: Vec<PlainReport>,
    /// Run 0 of the traced pass, once it has run.
    pub traced: Option<Outcome>,
    /// One value per entry of `PER_LAYER`, in its order, 0 where the metric
    /// does not apply; empty until the traced pass has run.
    pub per_layer: Vec<f64>,
    pub checks: Vec<Check>,
}

/// The value of end-to-end metric `name` in one repeat.
fn sample(r: &PlainReport, name: &str) -> f64 {
    match name {
        "setup_s" => r.setup_s,
        "run_wall_s" => r.run_wall_s,
        "peak_rss_mb" => r.peak_rss_mb,
        "sim_success_rate" => r.outcome.success_rate,
        "sim_response_ms" => r.outcome.response_ms,
        "sim_search_cost_bytes" => r.outcome.search_cost_bytes,
        "sim_load_bytes_per_node_s" => r.outcome.load_bytes_per_node_s,
        other => unreachable!("undeclared end-to-end metric {other}"),
    }
}

impl WorkloadResult {
    /// A result no pass has filled in yet.
    pub fn empty(w: &'static Workload, seed: u64) -> Self {
        WorkloadResult {
            w,
            seed,
            repeats: Vec::new(),
            traced: None,
            per_layer: Vec::new(),
            checks: Vec::new(),
        }
    }

    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Searches issued over all timed runs (of the traced run, when it is
    /// the only one).
    pub fn ops_attempted(&self) -> u64 {
        if self.repeats.is_empty() {
            self.traced.as_ref().map_or(0, |o| o.searches)
        } else {
            self.repeats.iter().map(|r| r.outcome.searches).sum()
        }
    }

    /// Searches the model left unanswered. Not failures of the program:
    /// `sim_success_rate` reports and gates them.
    pub fn ops_unanswered(&self) -> u64 {
        self.repeats
            .iter()
            .map(|r| r.outcome.searches - r.outcome.succeeded)
            .sum()
    }

    /// Every search of a workload that fails an output check counts as
    /// failed: a run whose output is wrong answered nothing.
    pub fn ops_failed(&self) -> u64 {
        if self.ok() {
            0
        } else {
            self.ops_attempted()
        }
    }

    pub fn summary(&self, metric: &str) -> Summary {
        let values: Vec<f64> = self.repeats.iter().map(|r| sample(r, metric)).collect();
        Summary::of(&values)
    }

    /// # Panics
    /// Panics when no plain repeat ran: a result file holds end-to-end
    /// metrics for every workload.
    pub fn to_json(&self) -> Json {
        let first = &self.repeats[0].outcome;
        obj([
            ("seed", Json::from(self.seed)),
            ("repeats", Json::from(self.repeats.len())),
            ("ops_attempted", Json::from(self.ops_attempted())),
            ("ops_failed", Json::from(self.ops_failed())),
            ("ops_unanswered", Json::from(self.ops_unanswered())),
            (
                "outcome_fingerprint",
                Json::from(format!("{:016x}", first.outcome_fingerprint)),
            ),
            ("messages_sent", Json::from(first.messages_sent)),
            ("succeeded", Json::from(first.succeeded)),
            ("searches", Json::from(first.searches)),
            (
                "end_to_end",
                obj(END_TO_END
                    .iter()
                    .map(|m| (m.name, self.summary(m.name).to_json(m.unit)))),
            ),
            (
                "per_layer",
                obj(PER_LAYER.iter().zip(&self.per_layer).map(|(m, &value)| {
                    (
                        m.name,
                        obj([("unit", Json::from(m.unit)), ("value", Json::from(value))]),
                    )
                })),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("name", Json::from(c.name)),
                                ("ok", Json::from(c.ok)),
                                ("detail", Json::from(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// How many plain repeats to make.
#[derive(Debug, Clone, Copy)]
pub enum Repeats {
    /// Exactly this many (`all`, `run`).
    Count(usize),
    /// Keep repeating until this many seconds of repeats have been
    /// measured; at least one (`measure --seconds`).
    Seconds(f64),
}

/// Run the plain repeats, each in a fresh child, and check they agree.
pub fn plain_pass(
    w: &'static Workload,
    seed: u64,
    repeats: Repeats,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut reports = Vec::new();
    loop {
        eprintln!("[{}] repeat {} (seed {seed})", w.name, reports.len() + 1);
        reports.push(child::spawn_plain(w, seed)?);
        let done = match repeats {
            Repeats::Count(n) => reports.len() >= n,
            Repeats::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    let first = &reports[0].outcome;
    let differing = reports.iter().filter(|r| r.outcome != *first).count();
    let mut checks = vec![check(
        "repeats_agree",
        differing == 0,
        format!(
            "{} of {} repeats differ from the first (fingerprint {:016x})",
            differing,
            reports.len(),
            first.outcome_fingerprint
        ),
    )];
    if w.backend == Backend::Net {
        checks.push(check(
            "wire_errors_zero",
            first.wire_errors == 0,
            format!("{} frames failed to decode", first.wire_errors),
        ));
    }
    Ok(WorkloadResult {
        repeats: reports,
        checks,
        ..WorkloadResult::empty(w, seed)
    })
}

/// sim≡net at default scale: the loopback's outcome must equal the sim
/// engine's for the same cell at the same seed.
pub fn check_sim_equals_net(net: &mut WorkloadResult, sim: &PlainReport) {
    let (n, s) = (&net.repeats[0].outcome, &sim.outcome);
    let same = n.outcome_fingerprint == s.outcome_fingerprint
        && n.messages_sent == s.messages_sent
        && n.succeeded == s.succeeded;
    net.checks.push(check(
        "sim_equals_net",
        same,
        format!(
            "net fingerprint {:016x} messages {} succeeded {}; sim fingerprint {:016x} messages {} succeeded {}",
            n.outcome_fingerprint,
            n.messages_sent,
            n.succeeded,
            s.outcome_fingerprint,
            s.messages_sent,
            s.succeeded
        ),
    ));
}

/// Run the traced child, fold its per-layer metrics into `result`, check
/// its outputs, and return its report (the trace file's content).
pub fn traced_pass(result: &mut WorkloadResult) -> Result<Json, String> {
    let w = result.w;
    eprintln!("[{}] traced pass (seed {})", w.name, result.seed);
    let report = child::spawn_traced(w, result.seed)?;
    let emitted = report.entries("per_layer")?;
    let value = |name: &str| {
        emitted
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_f64())
    };
    result.per_layer = PER_LAYER
        .iter()
        .map(|m| value(m.name).unwrap_or(0.0))
        .collect();

    let undeclared: Vec<&str> = emitted
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !PER_LAYER.iter().any(|m| m.name == *n))
        .collect();
    result.checks.push(check(
        "metrics_declared",
        undeclared.is_empty(),
        format!("emitted but not declared: {undeclared:?}"),
    ));

    // The unrolled path must simulate what the user path simulates; the
    // recorder must not change it; the sim reference of a net workload must
    // produce the net's outcome.
    let outcome = Outcome::from_json(report.field("outcome")?)?;
    let mut same_cell = vec![("recorder attached", "recorded_outcome")];
    if w.backend == Backend::Net {
        same_cell.push(("sim reference", "reference_outcome"));
    }
    for (label, key) in same_cell {
        let other = Outcome::from_json(report.field(key)?)?;
        // The sim reference cannot have wire errors; `wire_errors_zero`
        // below holds the net run to the same.
        result.checks.push(check(
            "traced_runs_agree",
            Outcome {
                wire_errors: outcome.wire_errors,
                ..other.clone()
            } == outcome,
            format!(
                "{label}: fingerprint {:016x}, spans only {:016x}",
                other.outcome_fingerprint, outcome.outcome_fingerprint
            ),
        ));
    }
    if let Some(plain) = result.repeats.first() {
        result.checks.push(check(
            "unrolled_equals_user_path",
            outcome == plain.outcome,
            format!(
                "unrolled fingerprint {:016x}, user path {:016x}",
                outcome.outcome_fingerprint, plain.outcome.outcome_fingerprint
            ),
        ));
    }
    if w.backend == Backend::Net {
        result.checks.push(check(
            "wire_errors_zero",
            outcome.wire_errors == 0,
            format!("{} frames failed to decode", outcome.wire_errors),
        ));
    }
    result.traced = Some(outcome);

    let span_error = match report.field("span_error")? {
        Json::Null => None,
        other => Some(other.compact()),
    };
    result.checks.push(check(
        "spans_nest",
        span_error.is_none(),
        span_error.unwrap_or("every child span lies inside its parent".to_string()),
    ));
    let coverage = value("trace.span_coverage").unwrap_or(0.0);
    result.checks.push(check(
        "spans_cover_wall_time",
        coverage >= 0.99,
        format!(
            "top-level spans cover {:.4} of the child's wall time",
            coverage
        ),
    ));
    if w.algo.is_asap() {
        let (measured, analytic) = (
            value("bloom.fp_measured_ppm").unwrap_or(0.0),
            value("bloom.fp_analytic_ppm").unwrap_or(0.0),
        );
        result.checks.push(check(
            "bloom_false_positive_rate",
            analytic > 0.0 && (measured / analytic - 1.0).abs() <= 0.20,
            format!("measured {measured:.0} ppm, analytic {analytic:.0} ppm"),
        ));
    }
    if w.checkpoint_micro {
        result.checks.push(check(
            "checkpoint_resumes",
            value("sim.checkpoint_decode_mbps").is_some(),
            "the half-run checkpoint round-trips through bytes and resumes".to_string(),
        ));
    }
    Ok(report)
}
