//! Spans recorded by the benchmark around each call into a layer.
//!
//! The program under test is not instrumented: a span is opened and closed
//! in the benchmark's own code, kept in memory, and written out when the
//! traced child exits. A layer's self time is its span minus the part of it
//! its child spans cover.

use crate::json::{obj, Json};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level one.
    pub parent: Option<usize>,
    /// Which run of the traced child the span belongs to.
    pub run_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Spans {
    /// Span times count from `origin`, which the child takes at process start.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    /// Spans opened from now on belong to run `run_id`.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens become children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name` in run `run_id`.
    pub fn seconds(&self, name: &str, run_id: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run_id == run_id)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Nanoseconds covered by top-level spans: what the trace accounts for
    /// of the child's wall time.
    pub fn covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj([
                        ("id", Json::from(i)),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("run_id", Json::from(u64::from(s.run_id))),
                        ("self_ns", Json::from(self_time_ns(&self.spans, i))),
                    ])
                })
                .collect(),
        )
    }
}

fn children_ns(spans: &[Span], id: usize) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum()
}

/// Span `id`'s duration minus what its direct children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    spans[id]
        .duration_ns()
        .saturating_sub(children_ns(spans, id))
}

/// Output check: every child lies inside its parent, and the children of one
/// parent never add up to more than the parent (they run one after another).
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} ({}) names a missing parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
        if children_ns(spans, i) > s.duration_ns() {
            return Err(format!("children of span {i} ({}) exceed it", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("sim.assemble", 5, 25, Some(0)),
            span("sim.run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_time_ns(&spans, 2), 60 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
        assert!(check_nesting(&spans).is_ok());
    }

    #[test]
    fn nesting_violations_are_caught() {
        let escapes = vec![span("p", 10, 20, None), span("c", 15, 25, Some(0))];
        assert!(check_nesting(&escapes).unwrap_err().contains("leaves"));
        let overfull = vec![
            span("p", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 2, 10, Some(0)),
        ];
        assert!(check_nesting(&overfull).unwrap_err().contains("exceed"));
        let orphan = vec![span("c", 0, 1, Some(7))];
        assert!(check_nesting(&orphan).unwrap_err().contains("missing"));
    }

    #[test]
    fn recorder_nests_and_sums_by_name_and_run() {
        let mut spans = Spans::new(Instant::now());
        spans.time("setup", |s| {
            s.time("workload.generate", |_| ());
            s.time("workload.generate", |_| ());
        });
        spans.set_run(1);
        spans.time("cell", |s| s.time("sim.run", |_| ()));
        let all = spans.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[4].parent, Some(3));
        assert_eq!((all[0].run_id, all[3].run_id), (0, 1));
        assert!(check_nesting(all).is_ok());
        assert_eq!(
            spans.covered_ns(),
            all[0].duration_ns() + all[3].duration_ns()
        );
        assert_eq!(spans.seconds("sim.run", 0), 0.0);
        let both = (all[1].duration_ns() + all[2].duration_ns()) as f64 * 1e-9;
        assert!((spans.seconds("workload.generate", 0) - both).abs() < 1e-12);
    }
}
