//! Regenerate or verify the committed replay-digest golden files.
//!
//! Eight files are pinned: `golden/replay_tiny.txt` (the fault-free matrix —
//! the paper's perfect network), `golden/replay_tiny_lossy.txt` (the same
//! matrix under the `lossy` fault profile with protocol retries enabled),
//! `golden/replay_tiny_superpeer.txt` (super-peer ASAP, fault-free, on the
//! three overlays), one `golden/replay_tiny_<scenario>.txt` per robustness
//! scenario pack (ad spam, adversarial free-riders, flash crowd — see
//! `asap_bench::scenario`), and `golden/resume_tiny.txt` (tier 9: every
//! honest cell plus one lossy and one spam10 cell checkpointed and resumed
//! at three split points; `--check` additionally demands each resumed digest
//! equal its uninterrupted run's digest bit-for-bit) and
//! `golden/ckpt_tiny.txt` (the length and FNV-1a 64 of each of those cells'
//! serialized s2 checkpoint: the bytes of the current
//! [`asap_sim::checkpoint::VERSION`], not only what a resumed run computes
//! from them).
//!
//! The fault-free and lossy matrices and the super-peer cells are replayed
//! a second time on `asap_net`'s wire carrier ([`run_cell_net`]), where
//! every message is encoded into a frame at `send` and decoded at delivery.
//! Each of those 39 net records must equal its sim record (audit digest
//! included) with zero frames that failed to decode: the net carrier
//! reproduces the pinned sim record, which is the sim≡net witness. A
//! divergence fails the run in either mode, as does an auditor violation in
//! any cell.
//!
//! * `cargo run -p asap-bench --bin golden` — replay every matrix and
//!   rewrite the files. Run after an *intentional* behavior change and
//!   commit the diff.
//! * `cargo run -p asap-bench --bin golden -- --check` — replay and compare
//!   against the committed files without writing; exits nonzero on drift.
//!   This is the one pin check.
//! * `--trace` (composes with `--check`) — additionally replay the
//!   fault-free matrix with the trace recorder attached and assert the
//!   digests are bit-identical to the untraced run: observation must never
//!   perturb the simulation. CI runs `--check --trace`.

use std::process::ExitCode;

use asap_bench::faults::FaultProfile;
use asap_bench::harness::{
    cell_to_record, ckpt_golden_lines, diff_golden, golden_lines, golden_world, replay_matrix,
    replay_spec, resume_golden_lines, resume_matrix_records, scenario_spec, superpeer_cells,
    ReplayRecord, ResumeRecord, CKPT_KEY_COLS, GOLDEN_LOSSY_PROFILE, REPLAY_KEY_COLS,
    RESUME_KEY_COLS,
};
use asap_bench::runner::{full_matrix, par_map, run_cell_net, sweep_cells_spec, RunSpec, World};
use asap_bench::scenario::ScenarioPack;
use asap_bench::AlgoKind;
use asap_overlay::OverlayKind;

/// Print one line per record; returns false (after printing an error line
/// for each) if any record has auditor violations or wire errors.
fn report_records(label: &str, records: &[ReplayRecord]) -> bool {
    let mut ok = true;
    for r in records {
        eprintln!(
            "  {} / {}: digest {:016x}, {}/{} queries answered",
            r.overlay.label(),
            r.algo.label(),
            r.digest,
            r.succeeded,
            r.queries
        );
        if r.violations != 0 || r.wire_errors != 0 {
            eprintln!(
                "error: {} / {} ({label}): {} auditor violation(s), {} wire error(s) — fix before pinning",
                r.overlay.label(),
                r.algo.label(),
                r.violations,
                r.wire_errors
            );
            ok = false;
        }
    }
    ok
}

type Cells = [(AlgoKind, OverlayKind)];

/// Replay one golden file's cells (`tag` names them: `faults=…` /
/// `scenario=…` / `deployment=…`); returns the records and whether every
/// cell came out clean.
fn replay(world: &World, cells: &Cells, spec: &RunSpec, tag: &str) -> (Vec<ReplayRecord>, bool) {
    // Fan across every core: `--check` passing from here *is* the proof that
    // the parallel sweep reproduces the pinned digests bit-for-bit.
    let workers = rayon::current_num_threads();
    eprintln!(
        "replaying {} audited golden cells ({tag}, workers={workers})...",
        cells.len()
    );
    let records: Vec<ReplayRecord> = sweep_cells_spec(world, cells, workers, spec)
        .iter()
        .map(cell_to_record)
        .collect();
    let clean = report_records(tag, &records);
    (records, clean)
}

/// Replay the cells again on the net carrier and demand every record equal
/// its sim record, wire errors zero. Returns true on pass.
fn net_pass(world: &World, cells: &Cells, spec: &RunSpec, tag: &str, sim: &[ReplayRecord]) -> bool {
    let workers = rayon::current_num_threads();
    eprintln!(
        "replaying the same {} cells on the net carrier ({tag}, workers={workers})...",
        cells.len()
    );
    let net = par_map(workers, cells.to_vec(), |(algo, overlay)| {
        cell_to_record(&run_cell_net(world, algo, overlay, spec))
    });
    let mut ok = report_records(&format!("{tag}, net"), &net);
    for (n, s) in net.iter().zip(sim) {
        if n != s {
            eprintln!(
                "error: sim/net divergence in {} / {} ({tag}): net digest {:016x}, {} messages, \
                 {} wire error(s) vs sim {:016x}, {} messages",
                n.overlay.label(),
                n.algo.label(),
                n.digest,
                n.messages_sent,
                n.wire_errors,
                s.digest,
                s.messages_sent
            );
            ok = false;
        }
    }
    if ok {
        eprintln!(
            "all {} net records equal their sim records ({tag})",
            net.len()
        );
    }
    ok
}

/// Write or check one golden file; returns true on success. In check mode
/// every drifted cell is reported (per-cell digest diff via
/// [`diff_golden`]), never just the first, before the file is declared
/// failed — and the caller keeps checking the remaining files either way.
fn pin(path: &str, fresh: &str, check: bool, key_cols: usize) -> bool {
    if !check {
        std::fs::write(path, fresh).expect("write golden file");
        eprintln!("wrote {path}");
        return true;
    }
    let committed = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read committed golden file {path}: {e}");
            return false;
        }
    };
    let drifts = diff_golden(&committed, fresh, key_cols);
    if drifts.is_empty() {
        eprintln!("golden file matches ({path})");
        return true;
    }
    eprintln!("golden drift: {} cell(s) differ from {path}", drifts.len());
    for d in &drifts {
        eprintln!("  cell [{}]", d.key);
        match &d.committed {
            Some(line) => eprintln!("    committed: {line}"),
            None => eprintln!("    committed: (absent — new cell in the replay)"),
        }
        match &d.computed {
            Some(line) => eprintln!("    computed:  {line}"),
            None => eprintln!("    computed:  (absent — cell vanished from the replay)"),
        }
    }
    eprintln!("if the change is intentional, regenerate: cargo run -p asap-bench --bin golden");
    false
}

/// Replay the resume-equivalence matrix (tier 9): every honest golden cell
/// plus one lossy and one spam10 cell, each checkpointed and resumed at the
/// three quarter points. Besides pinning the digests, every resumed digest
/// must equal its cell's uninterrupted digest — the bit-identical-resume
/// acceptance gate. Returns the records and whether that gate held.
fn replay_resume(world: &World) -> (Vec<ResumeRecord>, bool) {
    let workers = rayon::current_num_threads();
    eprintln!(
        "replaying the resume matrix (20 audited cells x 3 split points, workers={workers})..."
    );
    let records = resume_matrix_records(world, workers);
    let mut ok = true;
    for r in &records {
        if r.digest != r.cold_digest {
            eprintln!(
                "error: resume divergence in {} / {} ({}) at s{} ({} us): \
                 resumed {:016x} vs uninterrupted {:016x}",
                r.cell.overlay.label(),
                r.cell.algo.label(),
                r.cell.variant.label(),
                r.split_index,
                r.split_us,
                r.digest,
                r.cold_digest
            );
            ok = false;
        }
    }
    if ok {
        eprintln!(
            "all {} resumed digests are bit-identical to their uninterrupted runs",
            records.len()
        );
    }
    (records, ok)
}

/// Replay the fault-free matrix with the recorder attached and demand the
/// traced digests match the untraced records exactly. Returns true on pass.
fn trace_pass(world: &World, untraced: &[ReplayRecord]) -> bool {
    let workers = rayon::current_num_threads();
    eprintln!("replaying the fault-free matrix traced (workers={workers})...");
    let traced = replay_matrix(world, &replay_spec(FaultProfile::None, true), workers);
    let mut ok = true;
    for (cell, want) in traced.iter().zip(untraced) {
        let rec = &cell_to_record(cell);
        let recorder = cell
            .trace
            .as_ref()
            .expect("traced replay keeps its recorder");
        if rec != want {
            eprintln!(
                "error: tracing perturbed {} / {}: digest {:016x} vs untraced {:016x}",
                rec.algo.label(),
                rec.overlay.label(),
                rec.digest,
                want.digest
            );
            ok = false;
        }
        if recorder.total() == 0 {
            eprintln!(
                "error: {} / {} recorded no events",
                rec.algo.label(),
                rec.overlay.label()
            );
            ok = false;
        }
    }
    if ok {
        eprintln!("traced digests are bit-identical to the untraced matrix");
    }
    ok
}

fn main() -> ExitCode {
    // The golden matrix is pinned at the tiny scale and seed by
    // construction, so this CLI shares none of the `asap_bench::args` axes.
    let mut check = false;
    let mut trace = false;
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--check" => check = true,
            "--trace" => trace = true,
            other => {
                eprintln!("error: unknown flag {other}\nusage: golden [--check] [--trace]");
                return ExitCode::from(2);
            }
        }
    }
    let world = golden_world();
    let matrix = full_matrix();
    let mut ok = true;
    for (faults, path) in [
        (
            FaultProfile::None,
            concat!(env!("CARGO_MANIFEST_DIR"), "/golden/replay_tiny.txt"),
        ),
        (
            GOLDEN_LOSSY_PROFILE,
            concat!(env!("CARGO_MANIFEST_DIR"), "/golden/replay_tiny_lossy.txt"),
        ),
    ] {
        let tag = format!("faults={}", faults.label());
        let spec = replay_spec(faults, false);
        let (records, clean) = replay(&world, &matrix, &spec, &tag);
        // The fault-free file's header carries no tag.
        let fresh = golden_lines(&records, if faults.is_none() { "" } else { &tag });
        // A matrix with violations is never written, only diffed.
        ok &= pin(path, &fresh, check || !clean, REPLAY_KEY_COLS) && clean;
        ok &= net_pass(&world, &matrix, &spec, &tag, &records);
        if trace && faults.is_none() {
            ok &= trace_pass(&world, &records);
        }
    }
    {
        let tag = "deployment=superpeer";
        let cells = superpeer_cells();
        let spec = replay_spec(FaultProfile::None, false);
        let (records, clean) = replay(&world, &cells, &spec, tag);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/golden/replay_tiny_superpeer.txt"
        );
        let fresh = golden_lines(&records, tag);
        ok &= pin(path, &fresh, check || !clean, REPLAY_KEY_COLS) && clean;
        ok &= net_pass(&world, &cells, &spec, tag, &records);
    }
    for pack in ScenarioPack::ALL {
        let tag = format!("scenario={}", pack.label());
        let (records, clean) = replay(&pack.world(), &matrix, &scenario_spec(pack), &tag);
        let fresh = golden_lines(&records, &tag);
        let path = format!(
            "{}/golden/{}",
            env!("CARGO_MANIFEST_DIR"),
            pack.golden_file()
        );
        ok &= pin(&path, &fresh, check || !clean, REPLAY_KEY_COLS) && clean;
    }
    {
        let (records, resume_ok) = replay_resume(&world);
        ok &= resume_ok;
        let fresh = resume_golden_lines(&records);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/resume_tiny.txt");
        ok &= pin(path, &fresh, check, RESUME_KEY_COLS);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/ckpt_tiny.txt");
        ok &= pin(path, &ckpt_golden_lines(&records), check, CKPT_KEY_COLS);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
