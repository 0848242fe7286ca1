//! Repo automation tasks (the cargo-xtask pattern; see `.cargo/config.toml`
//! for the `cargo xtask` alias).
//!
//! `cargo xtask sanitize [--strict] [--only tsan|miri]`
//!
//! Runs the two dynamic race/UB detectors the determinism story leans on:
//!
//! * **ThreadSanitizer** over the rayon experiment sweep
//!   (`asap-bench --test sweep_determinism`): the sweep is the only
//!   intentionally-parallel code in the workspace, and TSan proves the
//!   per-run `Simulation` states really are disjoint (no accidental
//!   sharing through caches or globals that the pinned digests would
//!   launder into "deterministic but wrong").
//! * **Miri** over `asap-bloom`, `asap-overlay`, and `asap-metrics`: the
//!   bit-twiddling (bloom filters, FNV mixing) and index juggling
//!   (overlay graphs, percentile ledgers) where UB would silently skew
//!   results rather than crash. A second Miri pass runs only the two
//!   exactness tests of the world-construction kernels in `asap-topology`
//!   and `asap-workload` (the word-parallel stub-domain BFS against the
//!   queue BFS, the Zipf guide-table search against the binary search),
//!   filtered by name so the rest of those crates' suites, which build
//!   whole topologies, stays out of the nightly job.
//!
//! Both need nightly components (`rust-src` for `-Zbuild-std`, `miri`).
//! When a component is missing the step is SKIPPED with a note and the
//! task still exits 0, so the target stays runnable on machines without
//! network access to install components; `--strict` (used by the nightly
//! CI job) turns a skip into a failure instead.

#![allow(clippy::print_stdout)]

use std::process::{Command, ExitCode};

const MIRI_CRATES: &[&str] = &["asap-bloom", "asap-overlay", "asap-metrics"];

/// `(crate, unit test)` pairs run under Miri on their own, by exact name.
const MIRI_EXACTNESS_TESTS: &[(&str, &str)] = &[
    (
        "asap-topology",
        "latency::tests::word_parallel_tables_match_queue_bfs_on_random_domains",
    ),
    (
        "asap-workload",
        "zipf::tests::rank_of_matches_binary_search_at_every_edge",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut strict = false;
    let mut only: Option<String> = None;
    let mut task: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--only" => match iter.next() {
                Some(v) if v == "tsan" || v == "miri" => only = Some(v.clone()),
                _ => return usage("--only takes `tsan` or `miri`"),
            },
            "sanitize" if task.is_none() => task = Some(a.clone()),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    match task.as_deref() {
        Some("sanitize") => sanitize(strict, only.as_deref()),
        _ => usage("expected a task: `cargo xtask sanitize [--strict] [--only tsan|miri]`"),
    }
}

fn usage(msg: &str) -> ExitCode {
    println!("xtask: {msg}");
    ExitCode::from(2)
}

fn sanitize(strict: bool, only: Option<&str>) -> ExitCode {
    let Some(nightly) = nightly_host() else {
        return skip_all(
            strict,
            "no nightly toolchain installed (rustup toolchain install nightly)",
        );
    };
    let components = installed_components();
    let mut failed = false;
    let mut skipped: Vec<&str> = Vec::new();

    if only.is_none_or(|o| o == "tsan") {
        if components.iter().any(|c| c.starts_with("rust-src")) {
            println!("xtask sanitize: ThreadSanitizer over the rayon sweep ({nightly})");
            let ok = run(Command::new("cargo")
                .args([
                    "+nightly",
                    "test",
                    "-p",
                    "asap-bench",
                    "--test",
                    "sweep_determinism",
                    "-Zbuild-std",
                    "--target",
                    &nightly,
                ])
                .env("RUSTFLAGS", "-Zsanitizer=thread")
                .env("TSAN_OPTIONS", "halt_on_error=1"));
            failed |= !ok;
        } else {
            skipped.push("tsan (missing nightly `rust-src` component for -Zbuild-std)");
        }
    }

    if only.is_none_or(|o| o == "miri") {
        if components.iter().any(|c| c.starts_with("miri")) {
            let mut cmd = Command::new("cargo");
            cmd.args(["+nightly", "miri", "test"]);
            for krate in MIRI_CRATES {
                cmd.args(["-p", krate]);
            }
            println!("xtask sanitize: Miri over {}", MIRI_CRATES.join(", "));
            failed |= !run(cmd.env("MIRIFLAGS", "-Zmiri-strict-provenance"));

            let mut cmd = Command::new("cargo");
            cmd.args(["+nightly", "miri", "test", "--lib"]);
            for (krate, _) in MIRI_EXACTNESS_TESTS {
                cmd.args(["-p", krate]);
            }
            cmd.args(["--", "--exact"]);
            cmd.args(MIRI_EXACTNESS_TESTS.iter().map(|(_, test)| test));
            println!("xtask sanitize: Miri over the world-construction exactness tests");
            failed |= !run(cmd.env("MIRIFLAGS", "-Zmiri-strict-provenance"));
        } else {
            skipped.push("miri (missing nightly `miri` component)");
        }
    }

    for s in &skipped {
        println!("xtask sanitize: SKIPPED {s}");
    }
    if failed || (strict && !skipped.is_empty()) {
        if !failed {
            println!("xtask sanitize: --strict: skipped steps are failures");
        }
        ExitCode::FAILURE
    } else {
        println!("xtask sanitize: done");
        ExitCode::SUCCESS
    }
}

fn skip_all(strict: bool, why: &str) -> ExitCode {
    println!("xtask sanitize: SKIPPED everything: {why}");
    if strict {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Host triple of the nightly toolchain (needed as an explicit `--target`
/// so `-Zsanitizer=thread` only applies to locally-built code), or `None`
/// when nightly is not installed at all.
fn nightly_host() -> Option<String> {
    let out = Command::new("rustc")
        .args(["+nightly", "-vV"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
}

fn installed_components() -> Vec<String> {
    Command::new("rustup")
        .args(["component", "list", "--toolchain", "nightly", "--installed"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn run(cmd: &mut Command) -> bool {
    // Echo the command so CI logs show exactly what ran.
    println!("xtask sanitize: $ {cmd:?}");
    match cmd.status() {
        Ok(s) => s.success(),
        Err(e) => {
            println!("xtask sanitize: failed to launch: {e}");
            false
        }
    }
}
