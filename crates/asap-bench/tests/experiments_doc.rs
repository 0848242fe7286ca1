//! EXPERIMENTS.md ↔ code cross-checks: the scale-knob table in the doc is
//! load-bearing (readers size runs off it, and clamp notes cite it), so this
//! test parses the markdown and fails if any cell drifts from
//! `Scale::knobs()`. The Fig. 4 table cites `results/fig4.tsv` and is diffed
//! against it the same way.

use asap_bench::Scale;

/// One parsed table cell: the proportional (pre-clamp) value and the value
/// in effect. Plain cells have both equal; `raw→bound (clamped)` cells
/// differ.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Cell {
    raw: u64,
    value: u64,
    clamped: bool,
}

fn parse_number(s: &str) -> u64 {
    let digits: String = s.chars().filter(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number in table cell {s:?}"))
}

fn parse_cell(s: &str) -> Cell {
    let s = s.trim();
    let clamped = s.contains("(clamped)");
    match s.split_once('→') {
        Some((raw, rest)) => {
            assert!(clamped, "arrow cells must be marked (clamped): {s:?}");
            Cell {
                raw: parse_number(raw),
                value: parse_number(rest),
                clamped,
            }
        }
        None => {
            assert!(!clamped, "clamped cells must show raw→bound: {s:?}");
            let v = parse_number(s);
            Cell {
                raw: v,
                value: v,
                clamped,
            }
        }
    }
}

/// Extract `[paper, default, tiny, xl]` cells from the row whose first
/// column is `knob`.
fn table_row(doc: &str, knob: &str) -> [Cell; 4] {
    let row = doc
        .lines()
        .find(|l| {
            let mut cols = l.split('|').map(str::trim);
            cols.next() == Some("") && cols.next() == Some(knob)
        })
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no scale-table row for {knob:?}"));
    let cols: Vec<&str> = row.split('|').map(str::trim).collect();
    assert_eq!(
        cols.len(),
        7,
        "row shape |{knob}|paper|default|tiny|xl|: {row:?}"
    );
    [
        parse_cell(cols[2]),
        parse_cell(cols[3]),
        parse_cell(cols[4]),
        parse_cell(cols[5]),
    ]
}

fn read_from_root(path: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path))
        .unwrap_or_else(|e| panic!("{path} readable from the workspace root: {e}"))
}

#[test]
fn experiments_table_matches_scale_knobs() {
    let doc = read_from_root("EXPERIMENTS.md");

    type Derive = fn(Scale) -> (u64, u64);
    let scales = [Scale::Paper, Scale::Default, Scale::Tiny, Scale::Xl];
    let checks: [(&str, Derive); 4] = [
        ("random-walk TTL", |s| {
            let k = s.knobs();
            (u64::from(k.rw_ttl_raw), u64::from(k.rw_ttl))
        }),
        ("GSA budget", |s| {
            let k = s.knobs();
            (u64::from(k.gsa_budget_raw), u64::from(k.gsa_budget))
        }),
        ("ASAP budget unit M₀", |s| {
            let k = s.knobs();
            (u64::from(k.budget_unit_raw), u64::from(k.budget_unit))
        }),
        ("ASAP cache capacity", |s| {
            let k = s.knobs();
            (k.cache_capacity_raw as u64, k.cache_capacity as u64)
        }),
    ];
    for (knob, derive) in checks {
        let cells = table_row(&doc, knob);
        for (scale, cell) in scales.iter().zip(cells) {
            let (raw, value) = derive(*scale);
            assert_eq!(
                cell,
                Cell {
                    raw,
                    value,
                    clamped: raw != value
                },
                "{knob} at {} disagrees between EXPERIMENTS.md and Scale::knobs()",
                scale.label()
            );
        }
    }
}

/// The clamp annotations in the table are exactly the knobs that emit run
/// notes: every `(clamped)` cell has a note naming its floor or cap, every
/// plain cell has none.
#[test]
fn clamp_annotations_match_run_notes() {
    let doc = read_from_root("EXPERIMENTS.md");
    for (i, scale) in [Scale::Paper, Scale::Default, Scale::Tiny, Scale::Xl]
        .iter()
        .enumerate()
    {
        let clamped_knobs: Vec<&str> = [
            "random-walk TTL",
            "GSA budget",
            "ASAP budget unit M₀",
            "ASAP cache capacity",
        ]
        .into_iter()
        .filter(|knob| table_row(&doc, knob)[i].clamped)
        .collect();
        let notes = scale.knobs().clamp_notes();
        assert_eq!(
            notes.len(),
            clamped_knobs.len(),
            "{}: table marks {clamped_knobs:?} clamped but notes are {notes:?}",
            scale.label()
        );
    }
}

/// The Fig. 4 table is a copy of `results/fig4.tsv`; a smoke run that
/// overwrote the TSV at another scale once left the two disagreeing.
#[test]
fn fig4_table_matches_results_tsv() {
    let doc = read_from_root("EXPERIMENTS.md");
    let section = doc
        .split("\n### ")
        .find(|s| s.starts_with("Fig. 4"))
        .expect("EXPERIMENTS.md has a '### Fig. 4' section");
    let table: Vec<Vec<&str>> = section
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|-"))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let tsv = read_from_root("results/fig4.tsv");
    let rows: Vec<Vec<&str>> = tsv.lines().map(|l| l.split('\t').collect()).collect();
    assert_eq!(rows.len(), 7, "header + six algorithms in results/fig4.tsv");
    assert_eq!(
        table, rows,
        "EXPERIMENTS.md Fig. 4 table vs results/fig4.tsv"
    );
}
