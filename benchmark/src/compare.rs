//! `compare A.json B.json`: apply each end-to-end metric's bound to two
//! result files, one row per workload × metric.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// Every run of B reads better than every run of A.
    Better,
    /// A modelled result or count, equal in both files.
    Identical,
    /// The runs' own quartile spread exceeds the bound: the comparison
    /// cannot tell a change of that size from noise.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A modelled result or count differs between two runs of one seed: the
    /// change altered what is simulated.
    Changed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Identical => "identical",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Changed => "CHANGED",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// Judge one metric between two sets of runs against `bound`.
pub fn judge(m: &EndToEnd, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let every_b_better = match m.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let noisy = |s: &Summary| s.spread() > bound && (s.q3 - s.q1) > m.floor;
    if noisy(a) || noisy(b) {
        return if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse = worse_by(m.better, a.median, b.median);
    if worse > bound && (b.median - a.median).abs() > m.floor {
        Verdict::Regressed
    } else if every_b_better {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn identical(same: bool) -> Verdict {
    if same {
        Verdict::Identical
    } else {
        Verdict::Changed
    }
}

/// Compare two result files; prints one row per workload × metric and
/// returns whether B passes (no regression, no change in what is simulated,
/// no higher failed share).
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let same_seed = a.num("seed")? == b.num("seed")?;
    if !same_seed {
        println!("seeds differ: the across-seed bounds apply, and modelled results are not held to identity");
    }
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut pass = true;
    for (name, wa) in a.entries("workloads")? {
        let wb = b
            .field("workloads")?
            .get(name)
            .ok_or_else(|| format!("workload {name} is missing from B"))?;
        for m in &END_TO_END {
            let sa = Summary::from_json(wa.field("end_to_end")?.field(m.name)?)?;
            let sb = Summary::from_json(wb.field("end_to_end")?.field(m.name)?)?;
            let bound = if same_seed {
                m.same_seed_bound
            } else {
                m.bound
            };
            let verdict = if m.simulated && same_seed {
                identical(
                    sa.values
                        .iter()
                        .chain(&sb.values)
                        .all(|v| *v == sa.values[0]),
                )
            } else {
                judge(m, bound, &sa, &sb)
            };
            pass &= !verdict.fails();
            println!(
                "{:<22} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                name,
                m.name,
                sa.median,
                sb.median,
                worse_by(m.better, sa.median, sb.median) * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        if same_seed {
            for key in [
                "outcome_fingerprint",
                "messages_sent",
                "succeeded",
                "searches",
            ] {
                let verdict = identical(wa.field(key)? == wb.field(key)?);
                pass &= !verdict.fails();
                println!("{name:<22} {key:<26} {:>57}  {}", "", verdict.label());
            }
        }
        let share = |w: &Json| -> Result<f64, String> {
            Ok(w.num("ops_failed")? / w.num("ops_attempted")?.max(1.0))
        };
        let (fa, fb) = (share(wa)?, share(wb)?);
        let failed_more = fb > fa;
        pass &= !failed_more;
        println!(
            "{name:<22} {:<26} {fa:>14.6} {fb:>14.6} {:>18}  {}",
            "failed share",
            "",
            if failed_more { "HIGHER" } else { "ok" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// Judged as `compare` judges two result files of one seed.
    fn judge_same_seed(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
        judge(m, m.same_seed_bound, a, b)
    }

    #[test]
    fn within_bound_is_ok_and_beyond_it_regressed() {
        let m = metric("run_wall_s");
        let a = Summary::of(&[4.0, 4.02, 4.04]);
        assert_eq!(
            judge_same_seed(m, &a, &Summary::of(&[4.2, 4.22, 4.24])),
            Verdict::Ok
        );
        assert_eq!(
            judge_same_seed(m, &a, &Summary::of(&[4.6, 4.62, 4.64])),
            Verdict::Regressed
        );
        assert_eq!(
            judge_same_seed(m, &a, &Summary::of(&[3.0, 3.02, 3.04])),
            Verdict::Better
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let m = metric("run_wall_s");
        let noisy = Summary::of(&[4.0, 5.0, 6.0]);
        assert_eq!(
            judge_same_seed(m, &noisy, &Summary::of(&[4.5, 5.5, 6.5])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_same_seed(m, &noisy, &Summary::of(&[3.0, 3.2, 3.4])),
            Verdict::Better
        );
    }

    #[test]
    fn setup_floor_absorbs_millisecond_noise() {
        let m = metric("setup_s");
        // 50 % worse, but only 10 ms: below the 0.05 s floor.
        let a = Summary::of(&[0.020, 0.021, 0.029]);
        let b = Summary::of(&[0.030, 0.031, 0.033]);
        assert_eq!(judge_same_seed(m, &a, &b), Verdict::Ok);
        // The same share at xl scale is seconds.
        let a = Summary::of(&[6.60, 6.62, 6.64]);
        let b = Summary::of(&[9.90, 9.92, 9.94]);
        assert_eq!(judge_same_seed(m, &a, &b), Verdict::Regressed);
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        // Across seeds a modelled result is judged by its bound (25 %).
        let m = metric("sim_success_rate");
        let a = Summary::of(&[0.90, 0.90, 0.90]);
        assert_eq!(
            judge(m, m.bound, &a, &Summary::of(&[0.60, 0.60, 0.60])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(m, m.bound, &a, &Summary::of(&[0.85, 0.85, 0.85])),
            Verdict::Ok
        );
        assert_eq!(
            judge(m, m.bound, &a, &Summary::of(&[0.95, 0.95, 0.95])),
            Verdict::Better
        );
    }
}
