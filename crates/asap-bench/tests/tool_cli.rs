//! The `warmstart`, `bisect` and `experiments` binaries end to end at
//! `--scale tiny` (see TESTING.md): a warm-start resume is bit-identical to
//! the cold run, a checkpoint that does not fit the cell is an `error:`
//! line and exit 1, `bisect` finds the forks EXPERIMENTS.md quotes, and
//! `experiments churn` / `superpeer` write the same table whatever the
//! worker count.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch path under the system temp dir, unique per process and name
/// (tests run on parallel threads, so each names its own files).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asap-tool-cli-{}-{name}", std::process::id()))
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

const WARMSTART: &str = env!("CARGO_BIN_EXE_warmstart");
const BISECT: &str = env!("CARGO_BIN_EXE_bisect");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

/// Save an audited ASAP(RW) checkpoint of the crawled-overlay tiny cell.
fn save_checkpoint(name: &str) -> String {
    let path = scratch(name).to_string_lossy().into_owned();
    let out = run(WARMSTART, &["--checkpoint", &path, "--scale", "tiny"]);
    assert!(out.status.success(), "save: {}", text(&out.stderr));
    path
}

#[test]
fn warm_start_resume_is_bit_identical_to_the_cold_run() {
    let ckpt = save_checkpoint("warm.ckpt");
    let out = run(
        WARMSTART,
        &["--checkpoint", &ckpt, "--warm-start", "--scale", "tiny"],
    );
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "warm start: {}", text(&out.stderr));
    assert!(
        stdout.contains("baseline continuation digest is bit-identical to the cold run"),
        "{stdout}"
    );
    assert!(stdout.contains("no-fallback-ads"), "{stdout}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn mismatched_resume_is_an_error_not_a_panic() {
    let ckpt = save_checkpoint("mismatch.ckpt");
    for flags in [["--overlay", "random"], ["--algo", "flooding"]] {
        let mut args = vec!["--checkpoint", &ckpt, "--warm-start", "--scale", "tiny"];
        args.extend(flags);
        let out = run(WARMSTART, &args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{flags:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// Run `bisect` on the ASAP(RW) random-overlay tiny cell, `--a ''` against
/// `--b side`, and return the JSON report.
fn bisect(side: &str, name: &str) -> String {
    let report = scratch(name);
    let out = run(
        BISECT,
        &[
            "--algo",
            "asap-rw",
            "--overlay",
            "random",
            "--scale",
            "tiny",
            "--a",
            "",
            "--b",
            side,
            "--out",
            &report.to_string_lossy(),
        ],
    );
    assert!(out.status.success(), "bisect {side}: {}", text(&out.stderr));
    let json = std::fs::read_to_string(&report).expect("read bisect report");
    let _ = std::fs::remove_file(&report);
    json
}

#[test]
fn bisect_of_equal_sides_reports_identical() {
    let json = bisect("", "same.json");
    assert!(json.contains("\"identical\":true"), "{json}");
    assert!(json.contains("\"first_divergence\":null"), "{json}");
}

/// Assert that `bisect --b side` forks from the honest run at `time_us`.
fn assert_fork(side: &str, time_us: u64) {
    let json = bisect(side, &format!("fork-{time_us}.json"));
    assert!(json.contains("\"identical\":false"), "{side}: {json}");
    let fork = json
        .split("\"first_divergence\":")
        .nth(1)
        .expect("report has a first_divergence");
    assert!(
        fork.contains(&format!("\"time_us\":{time_us},")),
        "{side}: expected the fork at {time_us} us, got {fork}"
    );
}

#[test]
fn bisect_finds_the_lossy_fork() {
    assert_fork("faults=lossy", 564);
}

#[test]
fn bisect_finds_the_spam10_fork() {
    assert_fork("adversary=spam10", 23_775);
}

/// Run `experiments <command> --scale tiny` on one and on two workers and
/// return the TSV both wrote, after checking that they are byte-identical.
fn tiny_table(command: &str, tsv: &str) -> String {
    let tables = ["1", "2"].map(|workers| {
        let dir = scratch(&format!("{command}-w{workers}"));
        let out = run(
            EXPERIMENTS,
            &[
                command,
                "--scale",
                "tiny",
                "--workers",
                workers,
                "--out",
                &dir.to_string_lossy(),
            ],
        );
        assert!(out.status.success(), "{command}: {}", text(&out.stderr));
        let table = std::fs::read_to_string(dir.join(tsv)).expect("read the written table");
        let _ = std::fs::remove_dir_all(&dir);
        table
    });
    assert_eq!(
        tables[0], tables[1],
        "{command}: --workers 1 vs --workers 2"
    );
    tables[0].clone()
}

#[test]
fn experiments_churn_writes_thirty_rows() {
    let table = tiny_table("churn", "churn.tsv");
    let mut lines = table.lines();
    assert_eq!(
        lines.next(),
        Some(
            "churn\talgo\tevents\tsuccess\tresponse-ms\tbytes/search\tmean-load\t\
             repair-fetches\tad-bytes"
        )
    );
    assert_eq!(lines.count(), 30, "5 churn multipliers x 6 algorithms");
}

#[test]
fn experiments_superpeer_writes_six_rows() {
    let table = tiny_table("superpeer", "superpeer.tsv");
    let mut lines = table.lines();
    assert_eq!(
        lines.next(),
        Some("overlay\talgo\tsuccess\tresponse-ms\tbytes/search\tmean-load\tload-stddev")
    );
    assert_eq!(lines.count(), 6, "3 overlays x (flat, super-peer)");
}

#[test]
fn unknown_experiment_prints_nothing_on_stdout() {
    let out = run(EXPERIMENTS, &["fig11", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "stdout: {}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("unknown command 'fig11'"), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
}
