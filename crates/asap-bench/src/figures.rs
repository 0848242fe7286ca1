//! Figure generators: each produces the text table / series behind one
//! figure of the paper and writes a TSV alongside.

use crate::algo::AlgoKind;
use crate::runner::RunSummary;
use crate::scale::Scale;
use crate::table::{fnum, Table};
use asap_metrics::MsgClass;
use asap_overlay::OverlayKind;
use asap_workload::Workload;
use std::path::Path;

/// Figs. 2–3: the workload's class/interest distributions.
pub fn fig2_class_distribution(workload: &Workload) -> Table {
    let counts = workload.model.class_node_counts();
    let mut t = Table::new(&["class", "nodes-with-content"]);
    for (c, n) in counts.iter().enumerate() {
        t.row(vec![format!("class-{c:02}"), n.to_string()]);
    }
    t
}

pub fn fig3_interest_distribution(workload: &Workload) -> Table {
    let counts = workload.model.interest_node_counts();
    let mut t = Table::new(&["class", "nodes-with-interest"]);
    for (c, n) in counts.iter().enumerate() {
        t.row(vec![format!("class-{c:02}"), n.to_string()]);
    }
    t
}

fn matrix_table(
    runs: &[RunSummary],
    metric_name: &str,
    metric: impl Fn(&RunSummary) -> f64,
) -> Table {
    let mut t = Table::new(&["algorithm", "random", "powerlaw", "crawled"]);
    for algo in AlgoKind::ALL {
        let mut cells = vec![algo.label().to_string()];
        for overlay in OverlayKind::ALL {
            let cell = runs
                .iter()
                .find(|r| r.algo == algo && r.overlay == overlay)
                .map(|r| fnum(metric(r)))
                .unwrap_or_else(|| "-".into());
            cells.push(cell);
        }
        t.row(cells);
    }
    let _ = metric_name;
    t
}

/// Fig. 4: search success rate per algorithm per overlay.
pub fn fig4_success_rate(runs: &[RunSummary]) -> Table {
    matrix_table(runs, "success-rate", |r| r.success_rate)
}

/// Fig. 5: average response time (ms) of successful searches.
pub fn fig5_response_time(runs: &[RunSummary]) -> Table {
    matrix_table(runs, "response-ms", |r| r.avg_response_ms)
}

/// Fig. 6: average bandwidth per search (bytes).
pub fn fig6_search_cost(runs: &[RunSummary]) -> Table {
    matrix_table(runs, "bytes-per-search", |r| r.per_search_cost_bytes)
}

/// Fig. 7: ASAP(RW) system-load breakdown by message class (crawled
/// overlay). The paper's 91 %-patch+refresh / 8.5 %-full split describes the
/// *warmed-up* system ("after the system warms up, patch or refresh ads
/// dominate"), so the first `skip_seconds` of the run — the initial full-ad
/// wave — are excluded.
pub fn fig7_breakdown(run: &RunSummary, skip_seconds: usize) -> Table {
    assert_eq!(
        run.algo,
        AlgoKind::AsapRw,
        "Fig. 7 is the ASAP(RW) breakdown"
    );
    let post = |class: MsgClass| -> f64 {
        run.class_series
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, series)| series.iter().skip(skip_seconds).sum())
            .unwrap_or(0.0)
    };
    let total: f64 = MsgClass::ALL.iter().map(|&c| post(c)).sum();
    let ad_classes = [MsgClass::FullAd, MsgClass::PatchAd, MsgClass::RefreshAd];
    let ad_total: f64 = ad_classes.iter().map(|&c| post(c)).sum();
    let mut t = Table::new(&[
        "message-class",
        "load(B/node, post-warmup)",
        "share-of-total",
        "share-of-ad-load",
    ]);
    for class in MsgClass::ALL {
        let bytes = post(class);
        let is_ad = ad_classes.contains(&class);
        if bytes == 0.0 && !is_ad {
            continue;
        }
        t.row(vec![
            class.label().into(),
            fnum(bytes),
            fnum(bytes / total.max(1e-9)),
            if is_ad {
                fnum(bytes / ad_total.max(1e-9))
            } else {
                "-".into()
            },
        ]);
    }
    t
}

/// Seconds to skip before the Fig. 7 breakdown window: the warm-up stagger
/// plus one refresh period, scaled like the protocol's own time constants.
pub fn fig7_skip_seconds(scale: Scale) -> usize {
    let trace_secs = scale.queries() as f64 / 8.0;
    (trace_secs * 0.2) as usize
}

/// Fig. 8: average system load (bytes/node/s).
pub fn fig8_mean_load(runs: &[RunSummary]) -> Table {
    matrix_table(runs, "mean-load", |r| r.mean_load)
}

/// Fig. 9: system-load standard deviation.
pub fn fig9_load_stddev(runs: &[RunSummary]) -> Table {
    matrix_table(runs, "load-stddev", |r| r.stddev_load)
}

/// Fig. 10: per-second load series (bytes/node/s) over a `window`-second
/// snapshot starting at `start_s`, one column per algorithm (crawled
/// overlay).
pub fn fig10_load_series(runs: &[RunSummary], start_s: usize, window: usize) -> Table {
    let algos: Vec<&RunSummary> = AlgoKind::ALL
        .iter()
        .filter_map(|&a| {
            runs.iter()
                .find(|r| r.algo == a && r.overlay == OverlayKind::Crawled)
        })
        .collect();
    let mut header: Vec<String> = vec!["second".into()];
    header.extend(algos.iter().map(|r| r.algo.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for s in start_s..start_s + window {
        let mut row = vec![s.to_string()];
        for r in &algos {
            row.push(fnum(r.load_series.get(s).copied().unwrap_or(0.0)));
        }
        t.row(row);
    }
    t
}

/// Pick the Fig. 10 snapshot start: past the ASAP warm-up, mid-trace.
pub fn fig10_start_second(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 10,
        Scale::Default => 120,
        Scale::Paper | Scale::Xl => 600,
    }
}

/// Write a table to `results/` and echo it to stdout with a caption.
pub fn emit(dir: &Path, name: &str, caption: &str, table: &Table) {
    println!("== {caption} ==");
    println!("{}", table.render());
    if let Err(e) = table.write_tsv(dir, name) {
        eprintln!("warning: could not write {name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_cell_spec, RunSpec, World};

    fn mini_runs() -> Vec<RunSummary> {
        let world = World::build(Scale::Tiny, 9);
        let spec = RunSpec::figures();
        [AlgoKind::RandomWalk, AlgoKind::AsapRw]
            .map(|algo| run_cell_spec(&world, algo, OverlayKind::Crawled, &spec).summary)
            .into()
    }

    #[test]
    fn workload_figures_have_14_rows() {
        let workload = asap_workload::generate(&Scale::Tiny.workload(9));
        assert_eq!(fig2_class_distribution(&workload).num_rows(), 14);
        assert_eq!(fig3_interest_distribution(&workload).num_rows(), 14);
    }

    #[test]
    fn matrix_tables_cover_all_algorithms() {
        let runs = mini_runs();
        for t in [
            fig4_success_rate(&runs),
            fig5_response_time(&runs),
            fig6_search_cost(&runs),
            fig8_mean_load(&runs),
            fig9_load_stddev(&runs),
        ] {
            assert_eq!(t.num_rows(), 6, "one row per algorithm");
        }
    }

    #[test]
    fn fig7_and_fig10_render() {
        let runs = mini_runs();
        let asap = runs.iter().find(|r| r.algo == AlgoKind::AsapRw).unwrap();
        let breakdown = fig7_breakdown(asap, 2);
        assert!(breakdown.num_rows() >= 3);
        let series = fig10_load_series(&runs, 0, 5);
        assert_eq!(series.num_rows(), 5);
    }

    #[test]
    #[should_panic(expected = "ASAP(RW)")]
    fn fig7_rejects_non_asap_runs() {
        let runs = mini_runs();
        let walk = runs
            .iter()
            .find(|r| r.algo == AlgoKind::RandomWalk)
            .unwrap();
        fig7_breakdown(walk, 0);
    }
}
