//! `bisect` — locate the first divergent event between two run configs.
//!
//! When two configurations of the same cell (say `faults=none` vs
//! `faults=lossy`, or two adversary mixes) end on different audit digests,
//! this tool answers *where the histories first split*:
//!
//! ```text
//! bisect --algo asap-rw --overlay crawled --scale tiny --seed 11 \
//!        --a faults=none --b faults=lossy --out results/bisect.json
//! ```
//!
//! Both sides run cold once (audited) to fix their end digests. The search
//! then walks virtual time with per-side checkpoints at the last agreed
//! point `lo`: each probe resumes both sides from their `lo` checkpoints
//! with a trace recorder attached and replays to the window's end. If the
//! recorder ring overflowed (`dropped > 0`) the window is *binary-searched*
//! — halved until every probe captures its window losslessly — advancing
//! `lo` (and re-checkpointing) over every half that compares clean. The
//! first differing [`asap_trace::Record`] of a clean window that starts at
//! an agreed point is the first observable divergence of the whole run; it
//! lands in the JSON report verbatim (the record's own JSONL form), next to
//! the window, the common prefix length, and the probe count.
//!
//! The CI `golden` job runs this on failure and uploads the report as an
//! artifact, so a digest drift comes with its first divergent event
//! attached.

// This binary IS the CLI; its summary goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use asap_bench::adversary::AdversaryProfile;
use asap_bench::args::{next_value, Axes, CommonArgs};
use asap_bench::faults::FaultProfile;
use asap_bench::runner::{
    cell_builder, resume_cell, run_cell_spec, with_protocol, CellVisitor, RunSpec, World,
};
use asap_core::protocol::AsapStats;
use asap_overlay::OverlayKind;
use asap_sim::trace::{Record, Recorder, TraceConfig};
use asap_sim::{AuditConfig, Checkpoint, CheckpointProtocol, InMemory};

/// Parse one side of the comparison,
/// `faults=<none|lossy|chaos>,adversary=<none|spamN|freerideN|eclipseN>`
/// (either key may be omitted; an empty spec is the honest run), into the
/// audited [`RunSpec`] of that side. The sides differ only in layers, so
/// they share a world (same scale, seed, trace, overlay).
fn parse_side(s: &str) -> Result<RunSpec, String> {
    let mut side = RunSpec::figures().audited(AuditConfig::default());
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or(format!("expected key=value, got '{part}'"))?;
        match key {
            "faults" => {
                side.faults =
                    FaultProfile::parse(value).ok_or(format!("unknown fault profile '{value}'"))?
            }
            "adversary" => {
                side.adversary = AdversaryProfile::parse(value)
                    .ok_or(format!("unknown adversary profile '{value}'"))?
            }
            other => return Err(format!("unknown side key '{other}'")),
        }
    }
    Ok(side)
}

struct Args {
    common: CommonArgs,
    a: RunSpec,
    b: RunSpec,
    out: PathBuf,
    capacity: usize,
}

/// The shared axes: which audited cell to bisect. Defaults match
/// `CommonArgs` except the seed, which stays on the golden matrix's seed
/// so a CI digest drift reproduces without extra flags.
fn common_defaults() -> CommonArgs {
    let mut common = CommonArgs::new(Axes::CELL);
    common.seed = 11;
    common
}

fn usage() -> String {
    format!(
        "usage: bisect --a 'faults=F,adversary=A' --b 'faults=F,adversary=A' {} \
         [--trace-capacity N] [--out PATH]",
        common_defaults().usage()
    )
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        common: common_defaults(),
        a: parse_side("")?,
        b: parse_side("")?,
        out: PathBuf::from("results/bisect.json"),
        capacity: 1 << 16,
    };
    let mut saw_b = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if parsed.common.accept(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--a" => parsed.a = parse_side(&next_value(&flag, &mut args)?)?,
            "--b" => {
                parsed.b = parse_side(&next_value(&flag, &mut args)?)?;
                saw_b = true;
            }
            "--out" => parsed.out = PathBuf::from(next_value(&flag, &mut args)?),
            "--trace-capacity" => {
                parsed.capacity = next_value(&flag, &mut args)?
                    .parse()
                    .map_err(|e| format!("bad capacity: {e}"))?;
                if parsed.capacity == 0 {
                    return Err("--trace-capacity must be positive".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if !saw_b {
        return Err(format!(
            "--b SPEC is required (and usually --a too)\n{}",
            usage()
        ));
    }
    Ok(parsed)
}

/// The first observable divergence, localized to one probe window.
struct Divergence {
    window_lo_us: u64,
    window_hi_us: u64,
    /// True when the window could not be narrowed enough for a lossless
    /// recorder capture (the ring overflowed even at a 1 µs window), so the
    /// reported event is the first difference of the *retained* records.
    truncated: bool,
    /// Records at the window start that still compared equal.
    common_prefix: usize,
    /// Virtual time of the last equal record in the window, if any.
    last_equal_us: Option<u64>,
    /// Virtual time of the first divergent event.
    time_us: u64,
    /// The sides' first differing records (JSONL); `None` when that side's
    /// history simply ended (its queue drained first).
    a_event: Option<String>,
    b_event: Option<String>,
}

/// Compare two probe record streams; `None` means fully equal.
fn first_diff(a: &[Record], b: &[Record], lo: u64, hi: u64, truncated: bool) -> Option<Divergence> {
    let common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    if common == a.len() && common == b.len() {
        return None;
    }
    let time_us = match (a.get(common), b.get(common)) {
        (Some(x), Some(y)) => x.now_us.min(y.now_us),
        (Some(x), None) => x.now_us,
        (None, Some(y)) => y.now_us,
        (None, None) => unreachable!("lengths differ past the common prefix"),
    };
    Some(Divergence {
        window_lo_us: lo,
        window_hi_us: hi,
        truncated,
        common_prefix: common,
        last_equal_us: common.checked_sub(1).map(|i| a[i].now_us),
        time_us,
        a_event: a.get(common).map(Record::to_jsonl),
        b_event: b.get(common).map(Record::to_jsonl),
    })
}

/// One probe: resume a side from its `lo` checkpoint with a fresh recorder,
/// replay to `t_us`, and hand back the window's records plus the state at
/// `t_us` (so a clean window can become the next `lo`).
struct Probe {
    recs: Vec<Record>,
    dropped: u64,
    ckpt: Checkpoint,
}

fn probe_side<P: CheckpointProtocol>(
    world: &World,
    overlay: OverlayKind,
    lo: &Checkpoint,
    t_us: u64,
    capacity: usize,
    protocol: P,
) -> Probe {
    let mut sim = resume_cell(world, overlay, protocol, lo, Some(TraceConfig { capacity }))
        .expect("probe world matches the checkpointed world");
    sim.run_until(t_us);
    let rec = sim
        .trace_sink()
        .and_then(|s| s.as_any().downcast_ref::<Recorder>())
        .expect("probe always attaches a recorder");
    Probe {
        recs: rec.records_vec(),
        dropped: rec.dropped(),
        ckpt: sim.checkpoint(),
    }
}

/// Search `(0, hi_us]` for the first divergent event between the two sides
/// of one cell; [`with_protocol`] supplies the cell's protocol factory.
struct Search<'a> {
    world: &'a World,
    overlay: OverlayKind,
    a: &'a RunSpec,
    b: &'a RunSpec,
    hi_us: u64,
    capacity: usize,
}

impl CellVisitor for Search<'_> {
    /// The first divergence, if any, and the probe count.
    type Out = (Option<Divergence>, u64);

    fn visit<P: CheckpointProtocol>(
        self,
        make: impl Fn(&RunSpec) -> P + Sync,
        _stats: fn(&P) -> Option<AsapStats>,
    ) -> Self::Out {
        let Self {
            world,
            overlay,
            a,
            b,
            hi_us,
            capacity,
        } = self;
        // The t=0 checkpoints: layers attached, nothing dispatched yet — the
        // first probe window therefore covers the very first event.
        let start = |side: &RunSpec| {
            cell_builder::<P, InMemory>(world, overlay, side, make(side))
                .build()
                .checkpoint()
        };
        let mut ckpt_a = start(a);
        let mut ckpt_b = start(b);

        let mut probes = 0u64;
        let mut lo = 0u64;
        let mut hi = hi_us;
        // Right window boundaries still owed once the current window compares
        // clean (pushed when an overflowing window is halved).
        let mut pending: Vec<u64> = Vec::new();
        loop {
            probes += 1;
            let pa = probe_side(world, overlay, &ckpt_a, hi, capacity, make(a));
            let pb = probe_side(world, overlay, &ckpt_b, hi, capacity, make(b));
            let overflowed = pa.dropped > 0 || pb.dropped > 0;
            if overflowed {
                let mid = lo + (hi - lo) / 2;
                if mid > lo {
                    // Narrow: retry the left half of this window first.
                    pending.push(hi);
                    hi = mid;
                    continue;
                }
                // A 1 µs window still overflows the ring: report best-effort
                // from the retained tails rather than looping forever.
                eprintln!(
                    "warning: recorder ring ({capacity}) overflowed within [{lo}, {hi}] us; \
                     the reported event is the first difference of the retained records"
                );
                return (first_diff(&pa.recs, &pb.recs, lo, hi, true), probes);
            }
            if let Some(d) = first_diff(&pa.recs, &pb.recs, lo, hi, false) {
                return (Some(d), probes);
            }
            // Window clean and equal: advance lo onto it and resume the next
            // pending window from the probes' own end-of-window checkpoints.
            let Some(next_hi) = pending.pop() else {
                return (None, probes);
            };
            ckpt_a = pa.ckpt;
            ckpt_b = pb.ckpt;
            lo = hi;
            hi = next_hi;
        }
    }
}

fn push_kv_str(out: &mut String, key: &str, v: &str) {
    let _ = write!(out, "\"{key}\":\"{v}\",");
}

/// Render the report. Divergent events embed as raw JSON objects — the
/// recorder's JSONL lines are already valid JSON.
fn render_report(
    args: &Args,
    sides: [(&RunSpec, u64, u64, u64); 2],
    identical: bool,
    probes: u64,
    divergence: Option<&Divergence>,
) -> String {
    let mut out = String::from("{");
    push_kv_str(&mut out, "algo", args.common.algo.label());
    push_kv_str(&mut out, "overlay", args.common.overlay.label());
    push_kv_str(&mut out, "scale", args.common.scale.label());
    let _ = write!(out, "\"seed\":{},", args.common.seed);
    let _ = write!(out, "\"trace_capacity\":{},", args.capacity);
    for (name, (side, digest, end_time_us, messages)) in ["side_a", "side_b"].into_iter().zip(sides)
    {
        let _ = write!(out, "\"{name}\":{{");
        push_kv_str(&mut out, "faults", side.faults.label());
        push_kv_str(&mut out, "adversary", &side.adversary.label());
        let _ = write!(
            out,
            "\"digest\":\"{digest:016x}\",\"end_time_us\":{end_time_us},\"messages\":{messages}}},"
        );
    }
    let _ = write!(out, "\"identical\":{identical},\"probes\":{probes},");
    out.push_str("\"first_divergence\":");
    match divergence {
        None => out.push_str("null"),
        Some(d) => {
            let _ = write!(
                out,
                "{{\"window_lo_us\":{},\"window_hi_us\":{},\"truncated\":{},\
                 \"common_prefix_in_window\":{},\"last_equal_us\":{},\"time_us\":{},",
                d.window_lo_us,
                d.window_hi_us,
                d.truncated,
                d.common_prefix,
                d.last_equal_us
                    .map_or("null".to_string(), |t| t.to_string()),
                d.time_us
            );
            let _ = write!(
                out,
                "\"side_a_event\":{},\"side_b_event\":{}}}",
                d.a_event.as_deref().unwrap_or("null"),
                d.b_event.as_deref().unwrap_or("null")
            );
        }
    }
    out.push_str("}\n");
    out
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

    eprintln!(
        "[bisect] cold runs: {} / {} seed {} — A(faults={}, adversary={}) vs B(faults={}, adversary={})",
        args.common.algo.label(),
        args.common.overlay.label(),
        args.common.seed,
        args.a.faults.label(),
        args.a.adversary.label(),
        args.b.faults.label(),
        args.b.adversary.label()
    );
    let cold_a = run_cell_spec(&world, args.common.algo, args.common.overlay, &args.a);
    let cold_b = run_cell_spec(&world, args.common.algo, args.common.overlay, &args.b);
    let digest_a = cold_a.audit.as_ref().expect("audited side").digest;
    let digest_b = cold_b.audit.as_ref().expect("audited side").digest;
    let identical = digest_a == digest_b;

    let (divergence, probes) = if identical {
        eprintln!("[bisect] digests agree ({digest_a:016x}); nothing to bisect");
        (None, 0)
    } else {
        let hi_us = cold_a.end_time_us.max(cold_b.end_time_us);
        eprintln!(
            "[bisect] digests differ ({digest_a:016x} vs {digest_b:016x}); \
             searching (0, {hi_us}] us..."
        );
        let search = Search {
            world: &world,
            overlay: args.common.overlay,
            a: &args.a,
            b: &args.b,
            hi_us,
            capacity: args.capacity,
        };
        with_protocol(&world, args.common.algo, search)
    };

    let report = render_report(
        &args,
        [
            (
                &args.a,
                digest_a,
                cold_a.end_time_us,
                cold_a.summary.messages_sent,
            ),
            (
                &args.b,
                digest_b,
                cold_b.end_time_us,
                cold_b.summary.messages_sent,
            ),
        ],
        identical,
        probes,
        divergence.as_ref(),
    );
    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
    }
    std::fs::write(&args.out, &report).expect("write bisect report");

    match (&divergence, identical) {
        (_, true) => {
            println!("identical: both sides end on digest {digest_a:016x}");
        }
        (Some(d), _) => {
            println!(
                "first divergent event at {} us (after {} equal records in \
                 window [{}, {}] us, {} probes{}):",
                d.time_us,
                d.common_prefix,
                d.window_lo_us,
                d.window_hi_us,
                probes,
                if d.truncated {
                    ", TRUNCATED window"
                } else {
                    ""
                }
            );
            println!(
                "  side A: {}",
                d.a_event.as_deref().unwrap_or("(history ended)")
            );
            println!(
                "  side B: {}",
                d.b_event.as_deref().unwrap_or("(history ended)")
            );
        }
        (None, false) => {
            println!(
                "no observable divergence in {} probes — digests differ \
                 ({digest_a:016x} vs {digest_b:016x}) but every traced event \
                 matched; the difference is in untraced layer state \
                 (e.g. fault/adversary bookkeeping folded into the digest)",
                probes
            );
        }
    }
    println!("report: {}", args.out.display());
    ExitCode::SUCCESS
}
