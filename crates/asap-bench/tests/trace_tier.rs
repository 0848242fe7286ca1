//! Trace tier: observation must change nothing, and what it records must be
//! deterministic and well-formed.
//!
//! * attaching the recorder leaves every replay digest bit-identical;
//! * replaying the same seed twice yields byte-identical JSONL;
//! * the `SimBuilder` path is deterministic: identical builds replay to
//!   identical audit digests (the invariant the deleted deprecated
//!   constructor chain used to be checked against);
//! * exported JSONL and Chrome-trace documents obey their schemas.

use asap_bench::faults::FaultProfile;
use asap_bench::harness::{cell_to_record, replay_spec};
use asap_bench::runner::{run_cell_spec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;
use asap_search::{Flooding, FloodingConfig};
use asap_sim::trace::to_chrome_trace;
use asap_sim::{AuditConfig, Simulation};

const SEED: u64 = 11;

fn tiny_world() -> World {
    World::build(Scale::Tiny, SEED)
}

/// The cells this tier replays: one allocation-heavy baseline, one walker
/// baseline, one full ASAP stack — enough to cover every event family
/// without replaying the whole matrix.
const CELLS: [(AlgoKind, OverlayKind); 3] = [
    (AlgoKind::Flooding, OverlayKind::Random),
    (AlgoKind::RandomWalk, OverlayKind::PowerLaw),
    (AlgoKind::AsapRw, OverlayKind::Crawled),
];

#[test]
fn tracing_leaves_replay_digests_bit_identical() {
    let world = tiny_world();
    for (algo, overlay) in CELLS {
        let plain = run_cell_spec(
            &world,
            algo,
            overlay,
            &replay_spec(FaultProfile::None, false),
        );
        let traced = run_cell_spec(
            &world,
            algo,
            overlay,
            &replay_spec(FaultProfile::None, true),
        );
        assert_eq!(
            cell_to_record(&plain),
            cell_to_record(&traced),
            "tracing perturbed {} / {}",
            algo.label(),
            overlay.label()
        );
        let rec = traced
            .trace
            .as_ref()
            .expect("traced cell keeps its recorder");
        assert!(rec.total() > 0, "recorder captured nothing");
        assert_eq!(
            rec.total(),
            traced.profile.trace_records,
            "profile counter disagrees with the recorder"
        );
        assert!(plain.trace.is_none(), "untraced cell grew a recorder");
        assert_eq!(plain.profile.trace_records, 0);
    }
}

#[test]
fn same_seed_replays_to_byte_identical_jsonl() {
    let world = tiny_world();
    let spec = replay_spec(FaultProfile::Lossy, true);
    let run = || {
        let cell = run_cell_spec(&world, AlgoKind::AsapRw, OverlayKind::Random, &spec);
        cell.trace
            .expect("traced cell keeps its recorder")
            .write_jsonl()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same seed must replay to byte-identical JSONL"
    );
}

#[test]
fn builder_replays_to_identical_audit_digests() {
    // The deprecated `Simulation::new(..).with_*()` chain is gone; the
    // parity property it anchored — same inputs, same audited run — now
    // holds builder-vs-builder.
    let world = tiny_world();
    let build = || {
        Simulation::builder(
            &world.phys,
            &world.workload,
            world.overlay(OverlayKind::Random),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            SEED,
        )
        .audit(AuditConfig::default())
        .run()
    };
    let first = build();
    let second = build();
    let digest = |r: &asap_sim::SimReport<Flooding>| r.audit.as_ref().expect("audited run").digest;
    assert_eq!(digest(&first), digest(&second), "builder replay diverged");
    assert_eq!(first.messages_sent, second.messages_sent);
    assert_eq!(first.end_time_us, second.end_time_us);
}

#[test]
fn jsonl_lines_obey_the_schema() {
    let world = tiny_world();
    let cell = run_cell_spec(
        &world,
        AlgoKind::Flooding,
        OverlayKind::Random,
        &replay_spec(FaultProfile::None, true),
    );
    let rec = cell.trace.expect("traced cell keeps its recorder");
    let jsonl = rec.write_jsonl();
    let mut lines = 0;
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"t\":"),
            "line must open with the timestamp key: {line}"
        );
        assert!(
            line.contains("\"ev\":\""),
            "line must name its event: {line}"
        );
        assert!(line.ends_with('}'), "line must be one JSON object: {line}");
        lines += 1;
    }
    assert_eq!(
        lines as usize,
        rec.len() + 1,
        "one line per record plus the stats trailer"
    );
    assert!(
        jsonl
            .lines()
            .last()
            .unwrap_or_default()
            .contains("\"ev\":\"stats\""),
        "the trailer aggregates the run"
    );

    // The per-query drill-down only keeps that query's lifecycle.
    let focused = rec.write_jsonl_for_query(0);
    for line in focused.lines() {
        assert!(
            line.contains("\"id\":0")
                || line.contains("\"query\":")
                || line.contains("\"ev\":\"stats\""),
            "drill-down leaked an unrelated line: {line}"
        );
    }
}

#[test]
fn chrome_trace_is_well_formed() {
    let world = tiny_world();
    let cell = run_cell_spec(
        &world,
        AlgoKind::RandomWalk,
        OverlayKind::Random,
        &replay_spec(FaultProfile::None, true),
    );
    let rec = cell.trace.expect("traced cell keeps its recorder");
    let doc = to_chrome_trace(&rec.records_vec());
    assert!(doc.starts_with('['), "chrome trace is a JSON array");
    assert!(doc.trim_end().ends_with(']'));
    assert!(doc.contains("\"ph\":\"i\""), "instant events present");
    assert!(doc.contains("\"ph\":\"X\""), "query spans present");
    // Balanced braces/brackets is a cheap structural sanity check that does
    // not need a JSON parser (none is vendored).
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON object braces");
}
