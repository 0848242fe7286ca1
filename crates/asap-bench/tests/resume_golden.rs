//! Tier 9 — resume-equivalence spot checks (see TESTING.md).
//!
//! The full 20-cell × 3-split resume matrix is verified by
//! `cargo run -p asap-bench --bin golden -- --check` (CI's `golden` job);
//! this suite keeps the `cargo test -q` cost at two cells × one split each,
//! pinned against the committed `golden/resume_tiny.txt` (what the
//! resumed run computes) and `golden/ckpt_tiny.txt` (the checkpoint bytes it
//! resumed from: the `asap_sim::checkpoint::VERSION` format itself).

use asap_bench::harness::{golden_world, ResumeCell, ResumeVariant, RESUME_SPLITS};
use asap_bench::runner::{run_cell_spec, run_cell_split, World};
use asap_bench::AlgoKind;
use asap_overlay::OverlayKind;

const RESUME_GOLDEN: &str = include_str!("../golden/resume_tiny.txt");
const CKPT_GOLDEN: &str = include_str!("../golden/ckpt_tiny.txt");

/// Parse the resume fixture: `overlay algo variant sK split_us digest`.
fn parse_resume(text: &str) -> Vec<(String, String, String, u64, u64, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut p = l.split_whitespace();
            let overlay = p.next().expect("overlay").to_string();
            let algo = p.next().expect("algo").to_string();
            let variant = p.next().expect("variant").to_string();
            let split: u64 = p
                .next()
                .expect("split index")
                .strip_prefix('s')
                .expect("sK split column")
                .parse()
                .expect("split index number");
            let split_us: u64 = p
                .next()
                .expect("split_us")
                .parse()
                .expect("split_us number");
            let digest = u64::from_str_radix(p.next().expect("digest"), 16).expect("hex digest");
            (overlay, algo, variant, split, split_us, digest)
        })
        .collect()
}

/// Run one cell cold and resumed at the midpoint split (s2), and compare
/// both against each other and against the committed fixture line.
fn spot_check(world: &World, cell: ResumeCell) {
    let golden = parse_resume(RESUME_GOLDEN);
    let spec = cell.variant.spec();
    let cold = run_cell_spec(world, cell.algo, cell.overlay, &spec);
    let cold_digest = cold.audit.as_ref().expect("audited cell").digest;
    let split_us = cold.end_time_us * 2 / (RESUME_SPLITS + 1);
    let resumed = run_cell_split(world, cell.algo, cell.overlay, &spec, split_us);
    let digest = resumed.audit.as_ref().expect("audited resume").digest;
    assert_eq!(
        digest,
        cold_digest,
        "resume divergence in {} / {} ({})",
        cell.overlay.label(),
        cell.algo.label(),
        cell.variant.label()
    );
    let (.., want_split_us, want_digest) = golden
        .iter()
        .find(|(o, a, v, s, ..)| {
            o == cell.overlay.label()
                && a == cell.algo.label()
                && v == cell.variant.label()
                && *s == 2
        })
        .expect("cell present in resume golden");
    assert_eq!(split_us, *want_split_us, "pinned split point moved");
    assert_eq!(
        digest, *want_digest,
        "resume digest drift vs golden/resume_tiny.txt — if the behavior \
         change is intentional, regenerate with \
         `cargo run -p asap-bench --bin golden`"
    );
    // The bytes, not only what resuming from them computes.
    let (len, fnv) = resumed
        .checkpoint
        .expect("split runs resume from a checkpoint");
    let pinned = format!(
        "{} {} {} {len} {fnv:016x}",
        cell.overlay.label(),
        cell.algo.label(),
        cell.variant.label()
    );
    assert!(
        CKPT_GOLDEN.lines().any(|l| l == pinned),
        "checkpoint bytes drifted from golden/ckpt_tiny.txt: computed `{pinned}` — \
         bytes written under one `asap_sim::checkpoint::VERSION` must never be \
         reinterpreted (DESIGN.md §6d)"
    );
}

#[test]
fn resume_golden_covers_full_matrix() {
    let golden = parse_resume(RESUME_GOLDEN);
    assert_eq!(golden.len(), 20 * RESUME_SPLITS as usize);
    assert_eq!(golden.iter().filter(|r| r.2 == "honest").count(), 54);
    assert_eq!(golden.iter().filter(|r| r.2 == "lossy").count(), 3);
    assert_eq!(golden.iter().filter(|r| r.2 == "spam10").count(), 3);
    // One checkpoint-bytes line per cell.
    let pinned = CKPT_GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty());
    assert_eq!(pinned.count(), 20);
}

#[test]
fn honest_cell_resumes_bit_identically() {
    spot_check(
        &golden_world(),
        ResumeCell {
            algo: AlgoKind::Gsa,
            overlay: OverlayKind::Random,
            variant: ResumeVariant::Honest,
        },
    );
}

#[test]
fn lossy_cell_resumes_bit_identically() {
    // The fault layer (RNG stream mid-draw-sequence, partition bookkeeping,
    // statistics) rides the checkpoint: the resumed half re-attaches nothing.
    spot_check(
        &golden_world(),
        ResumeCell {
            algo: AlgoKind::AsapRw,
            overlay: OverlayKind::Crawled,
            variant: ResumeVariant::Lossy,
        },
    );
}
