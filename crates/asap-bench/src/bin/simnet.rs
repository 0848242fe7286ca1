//! Regenerate or verify the committed sim≡net equivalence golden file.
//!
//! One file is pinned: `golden/simnet_tiny.txt` — the tiny golden world
//! replayed through the sim engine on both its in-memory carrier and the
//! `asap-net` framed carrier for one algorithm per message-codec family,
//! fault-free and under the lossy profile, with each side's backend-tagged
//! lifecycle digest recorded. Beyond golden drift, the run
//! itself fails if any sim/net pair diverges or any wire frame fails to
//! decode: the pinned file is only ever a witness of equivalence.
//!
//! * `cargo run -p asap-bench --bin simnet` — replay and rewrite the file.
//! * `cargo run -p asap-bench --bin simnet -- --check` — replay and compare
//!   against the committed file; exits nonzero on drift or sim≠net. CI's
//!   `golden` job runs this next to `golden --check`.

#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use asap_bench::harness::diff_golden;
use asap_bench::simnet::{simnet_lines, simnet_records, SIMNET_KEY_COLS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args.iter().find(|a| *a != "--check") {
        eprintln!("error: unknown flag {bad}\nusage: simnet [--check]");
        return ExitCode::from(2);
    }

    eprintln!(
        "replaying the sim/net equivalence matrix (4 algorithms x fault-free+lossy, overlay=random)..."
    );
    let records = simnet_records();
    let mut ok = true;
    for r in &records {
        eprintln!(
            "  {}: {} vs {} ({} messages, {} answered)",
            r.label(),
            r.sim.report(),
            r.net.report(),
            r.messages,
            r.succeeded
        );
        if !r.equivalent() {
            eprintln!(
                "error: sim/net divergence in {} (wire_errors={})",
                r.label(),
                r.wire_errors
            );
            ok = false;
        }
    }
    if !ok {
        // Never pin a divergent matrix — the file exists to witness sim≡net.
        return ExitCode::from(1);
    }

    let fresh = simnet_lines(&records);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/simnet_tiny.txt");
    if !check {
        std::fs::write(path, &fresh).expect("write golden file");
        eprintln!("wrote {path}");
        return ExitCode::SUCCESS;
    }
    let committed = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read committed golden file {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let drifts = diff_golden(&committed, &fresh, SIMNET_KEY_COLS);
    if drifts.is_empty() {
        eprintln!("golden file matches ({path})");
        return ExitCode::SUCCESS;
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
    eprintln!("if the change is intentional, regenerate: cargo run -p asap-bench --bin simnet");
    ExitCode::from(1)
}
