//! Ring-buffered trace recorder.

use crate::event::{Event, Record};
use crate::sink::TraceSink;
use crate::stats::TraceStats;
use std::any::Any;
use std::collections::VecDeque;

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of raw [`Record`]s retained. When the ring is full the
    /// oldest record is evicted (and counted in [`Recorder::dropped`]);
    /// [`TraceStats`] aggregation still sees every event.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 1 << 16 }
    }
}

/// The standard [`TraceSink`]: a bounded ring of raw records plus always-on
/// statistics. Plain owned data, so finished runs can ship it across threads
/// (the bench sweep collects one per cell under rayon).
#[derive(Debug, Clone)]
pub struct Recorder {
    config: TraceConfig,
    ring: VecDeque<Record>,
    total: u64,
    dropped: u64,
    stats: TraceStats,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl Recorder {
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            ring: VecDeque::with_capacity(config.capacity.min(1 << 16)),
            total: 0,
            dropped: 0,
            stats: TraceStats::new(),
        }
    }

    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Records still held in the ring, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.ring.iter()
    }

    /// Records still held, as a contiguous slice (clones into a Vec).
    pub fn records_vec(&self) -> Vec<Record> {
        self.ring.iter().copied().collect()
    }

    /// Total events observed, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted from the ring to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Render the retained records as JSONL: one fixed-key-order object per
    /// line plus a final `"ev":"stats"` trailer summarising the whole run
    /// (including evicted events). Byte-identical across replays of the same
    /// seed.
    pub fn write_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.ring {
            out.push_str(&rec.to_jsonl());
            out.push('\n');
        }
        out.push_str(&self.stats.summary_jsonl());
        out.push('\n');
        out
    }

    /// Like [`Recorder::write_jsonl`] but keeping only records whose event
    /// belongs to query `id` (plus the stats trailer). Used by the bench
    /// `--trace-query` drill-down.
    pub fn write_jsonl_for_query(&self, id: u32) -> String {
        let mut out = String::new();
        for rec in &self.ring {
            if rec.event.query_id() == Some(id) {
                out.push_str(&rec.to_jsonl());
                out.push('\n');
            }
        }
        out.push_str(&self.stats.summary_jsonl());
        out.push('\n');
        out
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, now_us: u64, ev: &Event) {
        self.total += 1;
        self.stats.observe(now_us, ev);
        if self.config.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.config.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Record { now_us, event: *ev });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_overlay::PeerId;

    fn join(p: u32) -> Event {
        Event::Join { peer: PeerId(p) }
    }

    #[test]
    fn ring_evicts_oldest_but_stats_see_everything() {
        let mut r = Recorder::new(TraceConfig { capacity: 2 });
        r.record(1, &join(1));
        r.record(2, &join(2));
        r.record(3, &join(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.total(), 3);
        assert_eq!(r.dropped(), 1);
        let kept: Vec<u64> = r.records().map(|rec| rec.now_us).collect();
        assert_eq!(kept, vec![2, 3]);
        assert_eq!(r.stats().counts().get("join"), Some(&3));
    }

    #[test]
    fn zero_capacity_keeps_stats_only() {
        let mut r = Recorder::new(TraceConfig { capacity: 0 });
        r.record(1, &join(1));
        assert!(r.is_empty());
        assert_eq!(r.total(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.stats().total_events(), 1);
    }

    #[test]
    fn jsonl_has_one_line_per_record_plus_stats_trailer() {
        let mut r = Recorder::default();
        r.record(5, &join(7));
        let out = r.write_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"t\":5,\"ev\":\"join\",\"peer\":7}");
        assert!(lines[1].contains("\"ev\":\"stats\""));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn query_filter_keeps_only_matching_records() {
        let mut r = Recorder::default();
        r.record(
            1,
            &Event::QueryIssued {
                id: 9,
                requester: PeerId(0),
            },
        );
        r.record(2, &join(1));
        r.record(3, &Event::QueryAnswered { id: 9 });
        r.record(4, &Event::QueryAnswered { id: 10 });
        let out = r.write_jsonl_for_query(9);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ev\":\"query-issued\""));
        assert!(lines[1].contains("\"ev\":\"query-answered\""));
        assert!(lines[2].contains("\"ev\":\"stats\""));
    }

    #[test]
    fn recorder_round_trips_through_the_sink_trait_object() {
        let mut sink: Box<dyn TraceSink> = Box::new(Recorder::default());
        sink.record(1, &join(1));
        let back = sink.into_any().downcast::<Recorder>().ok();
        assert_eq!(back.map(|r| r.total()), Some(1));
    }
}
