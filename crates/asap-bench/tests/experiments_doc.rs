//! EXPERIMENTS.md ↔ code cross-checks: the scale-knob table in the doc is
//! load-bearing (readers size runs off it, and clamp notes cite it), so this
//! test parses the markdown and fails if any cell drifts from
//! `Scale::knobs()`. The Fig. 4, churn and super-peer tables cite their
//! `results/*.tsv` and are diffed against them the same way, and every
//! number the churn and super-peer sections quote is a cell of their TSV.

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

/// The section of `doc` whose heading (any level) starts with `heading`,
/// up to the next heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    doc.split("\n#")
        .map(|s| s.trim_start_matches('#').trim_start())
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {heading:?} section"))
}

/// The cells of every markdown table row in `section`, rule rows skipped.
fn table_rows(section: &str) -> Vec<Vec<&str>> {
    section
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|-"))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

/// Assert that the table in the `heading` section is a copy of the TSV at
/// `path` with `rows` data rows, and return the section.
fn assert_table_is_tsv<'a>(doc: &'a str, heading: &str, path: &str, rows: usize) -> &'a str {
    let section = section(doc, heading);
    let tsv = read_from_root(path);
    let want: Vec<Vec<&str>> = tsv.lines().map(|l| l.split('\t').collect()).collect();
    assert_eq!(want.len(), rows + 1, "header + {rows} rows in {path}");
    assert_eq!(
        table_rows(section),
        want,
        "EXPERIMENTS.md {heading} vs {path}"
    );
    section
}

/// Every number in the prose of `section` (its table aside) is one of the
/// table's cells, a multiplier `×n` whose label `xn` is a cell, or one of
/// `structural` (a seed, a footnote). A number that appears in none of
/// them was not read off the committed table.
fn assert_prose_quotes_cells(section: &str, structural: &[&str]) {
    let cells: Vec<&str> = table_rows(section).into_iter().flatten().collect();
    for line in section.lines().filter(|l| !l.starts_with('|')) {
        let mut rest = line;
        while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
            let after_word = rest[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            let tail = &rest[start..];
            let len = tail
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(tail.len());
            let number = tail[..len].trim_end_matches('.');
            rest = &tail[len..];
            if after_word {
                continue;
            }
            let label = format!("x{number}");
            assert!(
                cells.contains(&number)
                    || cells.contains(&label.as_str())
                    || structural.contains(&number),
                "EXPERIMENTS.md quotes {number} in {line:?}, which is no cell of its table"
            );
        }
    }
}

#[test]
fn churn_section_matches_results_tsv() {
    let doc = read_from_root("EXPERIMENTS.md");
    let section = assert_table_is_tsv(&doc, "Churn", "results/churn.tsv", 30);
    assert_prose_quotes_cells(section, &["42"]);
}

#[test]
fn superpeer_section_matches_results_tsv() {
    let doc = read_from_root("EXPERIMENTS.md");
    let section = assert_table_is_tsv(
        &doc,
        "Beyond the paper: the super-peer deployment",
        "results/superpeer.tsv",
        6,
    );
    assert_prose_quotes_cells(section, &["3", "42"]);
}

/// The Fig. 4 table is a copy of `results/fig4.tsv`; a smoke run that
/// overwrote the TSV at another scale once left the two disagreeing.
#[test]
fn fig4_table_matches_results_tsv() {
    let doc = read_from_root("EXPERIMENTS.md");
    assert_table_is_tsv(&doc, "Fig. 4", "results/fig4.tsv", 6);
}
