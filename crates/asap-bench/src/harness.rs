//! Deterministic differential-replay harness.
//!
//! Runs the full algorithm set on a small fixed-seed world, with the
//! engine's invariant auditor attached, and folds each cell into a single
//! stable digest (see [`asap_sim::audit`]). Three properties hang off it:
//!
//! 1. **Determinism** — running a cell twice yields a byte-identical digest.
//! 2. **Golden stability** — digests match the committed golden file, so
//!    any change to engine scheduling, RNG consumption, message sizing, or
//!    protocol logic shows up as a diff in review rather than as silent
//!    drift in the figures.
//! 3. **Differential identities** — algorithms sharing a world must agree
//!    on everything the protocol cannot influence: the set of issued
//!    queries and the final liveness map.
//!
//! Regenerate the golden file after an *intentional* behavior change with
//! `cargo run -p asap-bench --bin golden` and commit the diff (see
//! TESTING.md).

use crate::algo::AlgoKind;
use crate::faults::FaultProfile;
use crate::runner::{
    full_matrix, par_map, run_cell_spec, run_cell_split, sweep_cells_spec, CellReport, RunSpec,
    World,
};
use crate::scale::Scale;
use crate::scenario::ScenarioPack;
use asap_overlay::OverlayKind;
use asap_sim::trace::TraceConfig;
use asap_sim::AuditConfig;

/// The pinned replay world: tiny scale so the whole matrix replays in
/// seconds, covering all three overlay families.
pub const GOLDEN_SCALE: Scale = Scale::Tiny;
pub const GOLDEN_SEED: u64 = 11;
pub const GOLDEN_OVERLAYS: [OverlayKind; 3] = OverlayKind::ALL;
/// The lossy profile pinned by the second golden file
/// (`golden/replay_tiny_lossy.txt`).
pub const GOLDEN_LOSSY_PROFILE: FaultProfile = FaultProfile::Lossy;

/// One replayed cell, reduced to what the golden file pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRecord {
    pub algo: AlgoKind,
    pub overlay: OverlayKind,
    /// The auditor's event-stream + final-metrics digest.
    pub digest: u64,
    pub queries: usize,
    pub succeeded: usize,
    pub messages_sent: u64,
    pub issue_fingerprint: u64,
    pub alive_fingerprint: u64,
    /// Invariant violations (formatted + suppressed). Must be 0.
    pub violations: u64,
    /// Frames the carrier failed to decode. Must be 0.
    pub wire_errors: u64,
}

/// The cells of `golden/replay_tiny_superpeer.txt`: super-peer ASAP, which
/// no figure matrix runs, on every overlay of the replay world.
pub fn superpeer_cells() -> Vec<(AlgoKind, OverlayKind)> {
    GOLDEN_OVERLAYS
        .iter()
        .map(|&o| (AlgoKind::SuperAsap, o))
        .collect()
}

/// Build the replay world. Separate from [`replay_cell`] so callers amortize
/// world construction across the matrix.
pub fn golden_world() -> World {
    World::build(GOLDEN_SCALE, GOLDEN_SEED)
}

/// Run one cell of the replay matrix under an audited [`RunSpec`]
/// ([`replay_spec`], [`scenario_spec`]) and reduce it to its pinned record.
pub fn replay_cell(
    world: &World,
    algo: AlgoKind,
    overlay: OverlayKind,
    spec: &RunSpec,
) -> ReplayRecord {
    cell_to_record(&run_cell_spec(world, algo, overlay, spec))
}

/// The [`RunSpec`] every replay path uses: always audited, optionally
/// traced. Tracing must never perturb a digest, which the golden `--trace`
/// mode proves by replaying the matrix both ways.
pub fn replay_spec(faults: FaultProfile, traced: bool) -> RunSpec {
    RunSpec {
        audit: Some(AuditConfig::default()),
        faults,
        trace: traced.then(TraceConfig::default),
        ..RunSpec::default()
    }
}

/// The audited [`RunSpec`] of a scenario pack's replay: fault-free, with the
/// pack's adversary profile attached (the pack's workload axis lives in the
/// world, see [`ScenarioPack::world`]).
pub fn scenario_spec(pack: ScenarioPack) -> RunSpec {
    RunSpec {
        audit: Some(AuditConfig::default()),
        adversary: pack.adversary(),
        ..RunSpec::default()
    }
}

/// Reduce an audited [`CellReport`] to the fields the golden file pins.
pub fn cell_to_record(cell: &CellReport) -> ReplayRecord {
    let audit = cell
        .audit
        .as_ref()
        .expect("replay cells always run audited");
    ReplayRecord {
        algo: cell.summary.algo,
        overlay: cell.summary.overlay,
        digest: audit.digest,
        queries: cell.queries,
        succeeded: cell.succeeded,
        messages_sent: cell.summary.messages_sent,
        issue_fingerprint: cell.issue_fingerprint,
        alive_fingerprint: cell.alive_fingerprint,
        violations: audit.violations.len() as u64 + audit.suppressed,
        wire_errors: cell.wire_errors,
    }
}

/// The whole replay matrix — every algorithm × every overlay — under an
/// audited [`RunSpec`], fanned across `workers` rayon workers. Reports come
/// back in golden-file order regardless of the worker count; the golden
/// `--check` runs this with parallelism on to prove the parallel sweep
/// reproduces the pinned digests bit-for-bit. Map [`cell_to_record`] over
/// the result for the pinned fields; a traced spec leaves each cell's
/// [`Recorder`](asap_sim::trace::Recorder) in [`CellReport::trace`].
pub fn replay_matrix(world: &World, spec: &RunSpec, workers: usize) -> Vec<CellReport> {
    sweep_cells_spec(world, &full_matrix(), workers, spec)
}

/// Serialize records in the golden-file format: one
/// `overlay algo digest queries succeeded messages` line per cell, digests
/// in fixed-width hex so diffs align. `tag` names the matrix in the header
/// (`faults=lossy`, `scenario=spam10`; empty for the fault-free file) so
/// the golden files can't be confused for one another.
pub fn golden_lines(records: &[ReplayRecord], tag: &str) -> String {
    let sep = if tag.is_empty() { "" } else { " " };
    let mut out = format!(
        "# replay digests: scale=tiny seed={GOLDEN_SEED}{sep}{tag}\n# overlay algo digest queries succeeded messages\n"
    );
    for r in records {
        out.push_str(&format!(
            "{} {} {:016x} {} {} {}\n",
            r.overlay.label(),
            r.algo.label(),
            r.digest,
            r.queries,
            r.succeeded,
            r.messages_sent
        ));
    }
    out
}

// --- resume-equivalence tier (tier 9) -------------------------------------

/// Which optional-layer axis a resume-tier cell runs under. The cold half of
/// every resume cell attaches the variant's layers on the builder; the
/// resumed half attaches **nothing** — audit, faults, and adversary state
/// all ride the checkpoint (see [`run_cell_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeVariant {
    /// The paper's perfect network (the fault-free replay spec).
    Honest,
    /// The pinned lossy fault profile, retries enabled.
    Lossy,
    /// The 10 %-ad-spam adversary of the `spam10` scenario pack.
    Spam10,
}

impl ResumeVariant {
    pub fn label(self) -> &'static str {
        match self {
            Self::Honest => "honest",
            Self::Lossy => "lossy",
            Self::Spam10 => "spam10",
        }
    }

    /// The audited [`RunSpec`] of this variant's cold run.
    pub fn spec(self) -> RunSpec {
        match self {
            Self::Honest => replay_spec(FaultProfile::None, false),
            Self::Lossy => replay_spec(GOLDEN_LOSSY_PROFILE, false),
            Self::Spam10 => scenario_spec(ScenarioPack::Spam10),
        }
    }
}

/// Resume split points per cell: the quarter points 1/4, 2/4, 3/4 of the
/// cold run's end time, so every cell is cut mid-warm-up, mid-steady-state,
/// and into the settling tail.
pub const RESUME_SPLITS: u64 = 3;

/// One cell of the resume-equivalence matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeCell {
    pub algo: AlgoKind,
    pub overlay: OverlayKind,
    pub variant: ResumeVariant,
}

/// The resume-tier matrix: every honest golden cell, plus one lossy and one
/// spam10 cell so checkpointed fault and adversary layers stay covered. All
/// twenty cells share [`golden_world`] — the spam10 pack's workload axis is
/// inert, which `scenario::tests` pins.
pub fn resume_matrix_cells() -> Vec<ResumeCell> {
    let mut cells: Vec<ResumeCell> = full_matrix()
        .into_iter()
        .map(|(algo, overlay)| ResumeCell {
            algo,
            overlay,
            variant: ResumeVariant::Honest,
        })
        .collect();
    cells.push(ResumeCell {
        algo: AlgoKind::AsapRw,
        overlay: OverlayKind::Crawled,
        variant: ResumeVariant::Lossy,
    });
    cells.push(ResumeCell {
        algo: AlgoKind::AsapGsa,
        overlay: OverlayKind::Crawled,
        variant: ResumeVariant::Spam10,
    });
    cells
}

/// One checkpoint/resume replay of one cell at one split point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeRecord {
    pub cell: ResumeCell,
    /// 1-based quarter index of the split (1..=[`RESUME_SPLITS`]).
    pub split_index: u64,
    /// The split's virtual time: `cold_end_us * split_index / 4`.
    pub split_us: u64,
    /// Digest of the split run (cold half → checkpoint → resumed half).
    pub digest: u64,
    /// Digest of the same cell run uninterrupted. Bit-identical resume means
    /// `digest == cold_digest` for every record; the golden `--check` mode
    /// and the tier-9 spot check both verify it.
    pub cold_digest: u64,
    /// `(length, FNV-1a 64)` of the serialized checkpoint the run resumed
    /// from — what `golden/ckpt_tiny.txt` pins at s2.
    pub checkpoint: (usize, u64),
}

/// Replay one resume cell: one uninterrupted audited run for the reference
/// digest and end time, then one split run per quarter point.
pub fn replay_resume_cell(world: &World, cell: ResumeCell) -> Vec<ResumeRecord> {
    let spec = cell.variant.spec();
    let cold = run_cell_spec(world, cell.algo, cell.overlay, &spec);
    let cold_digest = cell_to_record(&cold).digest;
    (1..=RESUME_SPLITS)
        .map(|k| {
            let split_us = cold.end_time_us * k / (RESUME_SPLITS + 1);
            let resumed = run_cell_split(world, cell.algo, cell.overlay, &spec, split_us);
            ResumeRecord {
                cell,
                split_index: k,
                split_us,
                digest: cell_to_record(&resumed).digest,
                cold_digest,
                checkpoint: resumed
                    .checkpoint
                    .expect("split runs resume from a checkpoint"),
            }
        })
        .collect()
}

/// The whole resume matrix, fanned across `workers` rayon workers at cell
/// grain (each cell's four runs stay serial on one worker). Records come
/// back in cell-then-split order regardless of the worker count.
pub fn resume_matrix_records(world: &World, workers: usize) -> Vec<ResumeRecord> {
    par_map(workers, resume_matrix_cells(), |c| {
        replay_resume_cell(world, c)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Serialize resume records in the tier-9 golden-file format. The line key
/// is the first [`RESUME_KEY_COLS`] columns (`overlay algo variant sK`);
/// `split_us` is data, not key — it moves with any end-time change.
pub fn resume_golden_lines(records: &[ResumeRecord]) -> String {
    let mut out = format!(
        "# resume digests: scale=tiny seed={GOLDEN_SEED} splits=quarter points of the cold end time\n\
         # overlay algo variant split split_us digest\n"
    );
    for r in records {
        out.push_str(&format!(
            "{} {} {} s{} {} {:016x}\n",
            r.cell.overlay.label(),
            r.cell.algo.label(),
            r.cell.variant.label(),
            r.split_index,
            r.split_us,
            r.digest
        ));
    }
    out
}

/// Key width of a resume golden line (`overlay algo variant sK`).
pub const RESUME_KEY_COLS: usize = 4;

/// The split point whose checkpoint *bytes* `golden/ckpt_tiny.txt` pins.
pub const CKPT_PIN_SPLIT: u64 = 2;

/// Serialize the checkpoint-format fixture: one `overlay algo variant len
/// fnv64` line per resume cell at split [`CKPT_PIN_SPLIT`]. The resume file
/// pins what a resumed run computes; this one pins the bytes of the current
/// [`asap_sim::checkpoint::VERSION`] themselves, so a codec change that
/// reinterprets the format fails here even if it round-trips with itself.
pub fn ckpt_golden_lines(records: &[ResumeRecord]) -> String {
    let mut out = format!(
        "# checkpoint bytes: scale=tiny seed={GOLDEN_SEED} split=s{CKPT_PIN_SPLIT} (format VERSION {})\n\
         # overlay algo variant len fnv64\n",
        asap_sim::checkpoint::VERSION
    );
    for r in records.iter().filter(|r| r.split_index == CKPT_PIN_SPLIT) {
        out.push_str(&format!(
            "{} {} {} {} {:016x}\n",
            r.cell.overlay.label(),
            r.cell.algo.label(),
            r.cell.variant.label(),
            r.checkpoint.0,
            r.checkpoint.1
        ));
    }
    out
}

/// Key width of a checkpoint-bytes golden line (`overlay algo variant`).
pub const CKPT_KEY_COLS: usize = 3;

/// Key width of a replay golden line (`overlay algo`).
pub const REPLAY_KEY_COLS: usize = 2;

// --- golden-file diffing ---------------------------------------------------

/// One drifted cell of a golden-file comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDrift {
    /// The leading key columns identifying the cell (e.g. `crawled ASAP(RW)`).
    pub key: String,
    /// The committed line; `None` when the cell only exists in the replay.
    pub committed: Option<String>,
    /// The recomputed line; `None` when the cell vanished from the replay.
    pub computed: Option<String>,
}

/// Compare a committed golden file against freshly computed lines, pairing
/// record lines by their first `key_cols` whitespace columns. Returns
/// **every** drifted cell — never just the first — so one `--check` run
/// names the full blast radius of a behavior change. Comments and blank
/// lines are ignored on both sides.
pub fn diff_golden(committed: &str, fresh: &str, key_cols: usize) -> Vec<GoldenDrift> {
    fn index(text: &str, key_cols: usize) -> Vec<(String, String)> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let key: Vec<&str> = l.split_whitespace().take(key_cols).collect();
                (key.join(" "), l.to_string())
            })
            .collect()
    }
    let want = index(committed, key_cols);
    let got = index(fresh, key_cols);
    let mut drifts = Vec::new();
    for (key, line) in &want {
        match got.iter().find(|(k, _)| k == key) {
            Some((_, g)) if g == line => {}
            Some((_, g)) => drifts.push(GoldenDrift {
                key: key.clone(),
                committed: Some(line.clone()),
                computed: Some(g.clone()),
            }),
            None => drifts.push(GoldenDrift {
                key: key.clone(),
                committed: Some(line.clone()),
                computed: None,
            }),
        }
    }
    for (key, line) in &got {
        if !want.iter().any(|(k, _)| k == key) {
            drifts.push(GoldenDrift {
                key: key.clone(),
                committed: None,
                computed: Some(line.clone()),
            });
        }
    }
    drifts
}

/// Parse a golden file back into `(overlay, algo, digest)` triples,
/// skipping comments and blank lines.
pub fn parse_golden(text: &str) -> Vec<(String, String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let overlay = parts.next().expect("overlay column").to_string();
            let algo = parts.next().expect("algo column").to_string();
            let digest =
                u64::from_str_radix(parts.next().expect("digest column"), 16).expect("hex digest");
            (overlay, algo, digest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lines_roundtrip_through_parse() {
        let records = vec![ReplayRecord {
            algo: AlgoKind::Flooding,
            overlay: OverlayKind::Random,
            digest: 0xdead_beef_0123_4567,
            queries: 300,
            succeeded: 280,
            messages_sent: 12345,
            issue_fingerprint: 1,
            alive_fingerprint: 2,
            violations: 0,
            wire_errors: 0,
        }];
        let parsed = parse_golden(&golden_lines(&records, ""));
        assert_eq!(
            parsed,
            vec![(
                "random".to_string(),
                "flooding".to_string(),
                0xdead_beef_0123_4567
            )]
        );
    }

    #[test]
    fn resume_matrix_covers_honest_lossy_and_spam() {
        let cells = resume_matrix_cells();
        assert_eq!(cells.len(), 20);
        assert_eq!(
            cells
                .iter()
                .filter(|c| c.variant == ResumeVariant::Honest)
                .count(),
            18
        );
        assert!(cells
            .iter()
            .any(|c| c.variant == ResumeVariant::Lossy && c.algo.is_asap()));
        assert!(cells
            .iter()
            .any(|c| c.variant == ResumeVariant::Spam10 && c.algo.is_asap()));
        // All twenty share golden_world(): spam10 leaves the trace steady.
        assert!(!ScenarioPack::Spam10.flash_crowd());
    }

    /// Regression for the `golden --check` first-mismatch exit: a
    /// deliberately stale fixture with several kinds of drift must surface
    /// *every* drifted cell in one diff, not just the first.
    #[test]
    fn diff_golden_reports_every_stale_cell() {
        let committed = "\
# replay digests: scale=tiny seed=11
# overlay algo digest queries succeeded messages
random flooding 000000000000aaaa 300 280 12345
random GSA 000000000000bbbb 300 250 9999
random random-walk 000000000000cccc 300 240 8888
random ASAP(RW) 000000000000dddd 300 290 7777
";
        let fresh = "\
# replay digests: scale=tiny seed=11
# overlay algo digest queries succeeded messages
random flooding 000000000000aaaa 300 280 12345
random GSA 111111111111bbbb 300 251 9999
random random-walk 222222222222cccc 300 240 8811
random ASAP(FLD) 000000000000eeee 300 260 6666
";
        let drifts = diff_golden(committed, fresh, REPLAY_KEY_COLS);
        // GSA + random-walk drifted, ASAP(RW) vanished, ASAP(FLD) appeared —
        // all four reported, the matching flooding cell not.
        assert_eq!(drifts.len(), 4, "drifts: {drifts:#?}");
        let by_key = |k: &str| drifts.iter().find(|d| d.key == k).expect(k);
        let gsa = by_key("random GSA");
        assert!(gsa
            .committed
            .as_deref()
            .unwrap()
            .contains("000000000000bbbb"));
        assert!(gsa
            .computed
            .as_deref()
            .unwrap()
            .contains("111111111111bbbb"));
        assert!(by_key("random random-walk").computed.is_some());
        assert!(
            by_key("random ASAP(RW)").computed.is_none(),
            "vanished cell"
        );
        assert!(by_key("random ASAP(FLD)").committed.is_none(), "new cell");
        assert!(!drifts.iter().any(|d| d.key == "random flooding"));
    }

    #[test]
    fn diff_golden_is_empty_for_identical_files() {
        let text = "# header\nrandom flooding 0000000000000001 1 1 1\n";
        assert!(diff_golden(text, text, REPLAY_KEY_COLS).is_empty());
    }

    #[test]
    fn diff_golden_keys_resume_lines_on_variant_and_split() {
        // split_us is data: an end-time shift must read as digest drift on
        // the same key, not as a removed + added cell.
        let committed = "crawled ASAP(RW) lossy s2 9000000 000000000000aaaa\n";
        let fresh = "crawled ASAP(RW) lossy s2 9100000 000000000000aaab\n";
        let drifts = diff_golden(committed, fresh, RESUME_KEY_COLS);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].key, "crawled ASAP(RW) lossy s2");
        assert!(drifts[0].committed.is_some() && drifts[0].computed.is_some());
    }
}
