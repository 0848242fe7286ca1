//! System-load accounting: bytes per message class per second, normalized by
//! the number of live peers.

/// Message classes distinguished by the load breakdown (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Baseline query (flooding / walker / GSA probe).
    Query,
    /// Baseline query hit returned to the requester.
    QueryHit,
    /// ASAP full ad (complete Bloom filter).
    FullAd,
    /// ASAP patch ad (changed filter bits).
    PatchAd,
    /// ASAP refresh ad (no content payload).
    RefreshAd,
    /// ASAP ads request to neighbors.
    AdsRequest,
    /// ASAP ads reply (cached ads with overlapping topics).
    AdsReply,
    /// ASAP content confirmation to an ad's source.
    Confirm,
    /// ASAP confirmation reply.
    ConfirmReply,
}

impl MsgClass {
    pub const COUNT: usize = 9;

    pub const ALL: [MsgClass; Self::COUNT] = [
        Self::Query,
        Self::QueryHit,
        Self::FullAd,
        Self::PatchAd,
        Self::RefreshAd,
        Self::AdsRequest,
        Self::AdsReply,
        Self::Confirm,
        Self::ConfirmReply,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Self::Query => 0,
            Self::QueryHit => 1,
            Self::FullAd => 2,
            Self::PatchAd => 3,
            Self::RefreshAd => 4,
            Self::AdsRequest => 5,
            Self::AdsReply => 6,
            Self::Confirm => 7,
            Self::ConfirmReply => 8,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Self::Query => "query",
            Self::QueryHit => "query-hit",
            Self::FullAd => "full-ad",
            Self::PatchAd => "patch-ad",
            Self::RefreshAd => "refresh-ad",
            Self::AdsRequest => "ads-request",
            Self::AdsReply => "ads-reply",
            Self::Confirm => "confirm",
            Self::ConfirmReply => "confirm-reply",
        }
    }

    /// Does this class count toward the per-search cost (Fig. 6)?
    /// Baselines: query messages only. ASAP: confirmation and ads-request
    /// traffic (ad *delivery* is system load, not search cost).
    pub fn is_search_cost(self) -> bool {
        matches!(
            self,
            Self::Query | Self::AdsRequest | Self::AdsReply | Self::Confirm | Self::ConfirmReply
        )
    }
}

/// Per-second byte counters by class, plus the live-peer timeline.
#[derive(Debug, Default)]
pub struct LoadRecorder {
    /// `buckets[second][class] = bytes`.
    buckets: Vec<[u64; MsgClass::COUNT]>,
    /// Total messages recorded per class (reconciliation view: every
    /// `record` call increments exactly one slot).
    msg_totals: [u64; MsgClass::COUNT],
    /// Step function: `(time_us, live_count)`, appended on every change.
    alive_steps: Vec<(u64, usize)>,
    /// Free-form run metadata (e.g. clamped scale knobs). Not part of any
    /// digested series — purely for sweep logs and run reports.
    notes: Vec<String>,
}

impl LoadRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sent message of `bytes` at `time_us`.
    pub fn record(&mut self, time_us: u64, class: MsgClass, bytes: usize) {
        let second = (time_us / 1_000_000) as usize;
        if second >= self.buckets.len() {
            self.buckets.resize(second + 1, [0; MsgClass::COUNT]);
        }
        self.buckets[second][class.index()] += bytes as u64;
        self.msg_totals[class.index()] += 1;
    }

    /// Record a change in the number of live peers.
    pub fn set_alive(&mut self, time_us: u64, count: usize) {
        self.alive_steps.push((time_us, count));
    }

    /// Number of whole seconds covered.
    pub fn seconds(&self) -> usize {
        self.buckets.len()
    }

    /// Total bytes per class over the whole run.
    pub fn class_totals(&self) -> [u64; MsgClass::COUNT] {
        let mut totals = [0u64; MsgClass::COUNT];
        for bucket in &self.buckets {
            for (t, b) in totals.iter_mut().zip(bucket) {
                *t += b;
            }
        }
        totals
    }

    pub fn total_bytes(&self) -> u64 {
        self.class_totals().iter().sum()
    }

    /// Total messages recorded per class. Every `record` call increments
    /// exactly one slot, so these reconcile exactly with per-message
    /// accounting kept elsewhere (e.g. the simulation auditor).
    pub fn class_message_totals(&self) -> [u64; MsgClass::COUNT] {
        self.msg_totals
    }

    /// Total number of `record` calls across all classes.
    pub fn messages_recorded(&self) -> u64 {
        self.msg_totals.iter().sum()
    }

    /// The raw live-peer step timeline `(time_us, count)`, in append order.
    pub fn alive_steps(&self) -> &[(u64, usize)] {
        &self.alive_steps
    }

    /// The raw per-second byte buckets, `buckets[second][class]`
    /// (checkpointing).
    pub fn buckets(&self) -> &[[u64; MsgClass::COUNT]] {
        &self.buckets
    }

    /// The first step that breaks the alive timeline's invariant at clock
    /// `now_us`, with what is wrong with it. Steps are appended as the clock
    /// moves, so their times never decrease and none lies after the clock;
    /// the per-second weighting in `alive_during` relies on the first half,
    /// and a later step would break it once the clock caught up.
    pub fn alive_timeline_violation(&self, now_us: u64) -> Option<(&'static str, (u64, usize))> {
        let mut last_us = 0;
        for &step in &self.alive_steps {
            if step.0 < last_us {
                return Some(("alive timeline goes backwards", step));
            }
            if step.0 > now_us {
                return Some(("alive step after the clock", step));
            }
            last_us = step.0;
        }
        None
    }

    /// Rebuild a recorder from raw checkpointed state: byte buckets, message
    /// totals, alive timeline, and notes, all restored verbatim.
    pub fn from_parts(
        buckets: Vec<[u64; MsgClass::COUNT]>,
        msg_totals: [u64; MsgClass::COUNT],
        alive_steps: Vec<(u64, usize)>,
        notes: Vec<String>,
    ) -> Self {
        Self {
            buckets,
            msg_totals,
            alive_steps,
            notes,
        }
    }

    /// Attach a free-form metadata note to the run (e.g. "GSA budget
    /// clamped ..."). Notes never feed a metric or digest.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Run metadata notes, in the order they were attached.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Bytes attributed to per-search cost classes (Fig. 6 numerator).
    pub fn search_cost_bytes(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| c.is_search_cost())
            .map(|c| self.class_totals()[c.index()])
            .sum()
    }

    /// Average live-peer count within `[second, second+1)`, from the step
    /// timeline (falls back to the last-known count).
    fn alive_during(&self, second: usize) -> f64 {
        if self.alive_steps.is_empty() {
            return 0.0;
        }
        let (lo, hi) = (second as u64 * 1_000_000, (second as u64 + 1) * 1_000_000);
        // Count in effect at the start of the window.
        let mut current = self.alive_steps[0].1;
        for &(t, c) in &self.alive_steps {
            if t <= lo {
                current = c;
            } else {
                break;
            }
        }
        // Time-weighted average over the window.
        let mut acc = 0.0;
        let mut cursor = lo;
        for &(t, c) in &self.alive_steps {
            if t <= lo {
                continue;
            }
            if t >= hi {
                break;
            }
            acc += (t - cursor) as f64 * current as f64;
            current = c;
            cursor = t;
        }
        acc += (hi - cursor) as f64 * current as f64;
        acc / 1_000_000.0
    }

    /// Bytes **per node** per second — the paper's system-load series
    /// (Fig. 10). Seconds with no live peers yield 0.
    pub fn load_series(&self) -> Vec<f64> {
        (0..self.buckets.len())
            .map(|s| {
                let alive = self.alive_during(s);
                if alive <= 0.0 {
                    0.0
                } else {
                    let bytes: u64 = self.buckets[s].iter().sum();
                    bytes as f64 / alive
                }
            })
            .collect()
    }

    /// Per-class load series for one class (breakdown plots).
    pub fn class_series(&self, class: MsgClass) -> Vec<f64> {
        (0..self.buckets.len())
            .map(|s| {
                let alive = self.alive_during(s);
                if alive <= 0.0 {
                    0.0
                } else {
                    self.buckets[s][class.index()] as f64 / alive
                }
            })
            .collect()
    }

    /// Mean of the load series (Fig. 8).
    pub fn mean_load(&self) -> f64 {
        crate::summary::mean(&self.load_series())
    }

    /// Standard deviation of the load series (Fig. 9).
    pub fn stddev_load(&self) -> f64 {
        crate::summary::stddev(&self.load_series())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_a_bijection() {
        let mut seen = [false; MsgClass::COUNT];
        for c in MsgClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn record_lands_in_right_bucket() {
        let mut r = LoadRecorder::new();
        r.record(500_000, MsgClass::Query, 100);
        r.record(1_500_000, MsgClass::Query, 60);
        r.record(1_600_000, MsgClass::FullAd, 40);
        assert_eq!(r.seconds(), 2);
        let totals = r.class_totals();
        assert_eq!(totals[MsgClass::Query.index()], 160);
        assert_eq!(totals[MsgClass::FullAd.index()], 40);
        assert_eq!(r.total_bytes(), 200);
    }

    #[test]
    fn load_series_normalizes_by_alive() {
        let mut r = LoadRecorder::new();
        r.set_alive(0, 10);
        r.record(200_000, MsgClass::Query, 1_000);
        assert_eq!(r.load_series(), vec![100.0]);
    }

    #[test]
    fn alive_step_change_mid_second_is_time_weighted() {
        let mut r = LoadRecorder::new();
        r.set_alive(0, 10);
        r.set_alive(500_000, 20); // halfway through second 0
        r.record(100_000, MsgClass::Query, 1_500);
        // Average alive = 15 ⇒ load = 100.
        assert_eq!(r.load_series(), vec![100.0]);
    }

    #[test]
    fn empty_recorder_is_benign() {
        let r = LoadRecorder::new();
        assert_eq!(r.seconds(), 0);
        assert_eq!(r.total_bytes(), 0);
        assert!(r.load_series().is_empty());
        assert_eq!(r.mean_load(), 0.0);
    }

    #[test]
    fn search_cost_classes_follow_paper() {
        assert!(MsgClass::Query.is_search_cost());
        assert!(MsgClass::Confirm.is_search_cost());
        assert!(MsgClass::AdsRequest.is_search_cost());
        assert!(
            !MsgClass::FullAd.is_search_cost(),
            "ad delivery is load, not cost"
        );
        assert!(!MsgClass::PatchAd.is_search_cost());
        assert!(!MsgClass::RefreshAd.is_search_cost());
        // Hits flow back in both designs but the paper's baseline cost counts
        // query messages only.
        assert!(!MsgClass::QueryHit.is_search_cost());
    }

    #[test]
    fn message_totals_reconcile_with_record_calls() {
        let mut r = LoadRecorder::new();
        r.record(0, MsgClass::Query, 10);
        r.record(2_000_000, MsgClass::Query, 20);
        r.record(0, MsgClass::FullAd, 1_000);
        let msgs = r.class_message_totals();
        assert_eq!(msgs[MsgClass::Query.index()], 2);
        assert_eq!(msgs[MsgClass::FullAd.index()], 1);
        assert_eq!(r.messages_recorded(), 3);
        // Bytes and message counts stay in step per class.
        assert_eq!(r.class_totals()[MsgClass::Query.index()], 30);
    }

    #[test]
    fn alive_steps_are_exposed_in_append_order() {
        let mut r = LoadRecorder::new();
        r.set_alive(0, 10);
        r.set_alive(500_000, 9);
        assert_eq!(r.alive_steps(), &[(0, 10), (500_000, 9)]);
    }

    #[test]
    fn notes_accumulate_in_order_without_touching_metrics() {
        let mut r = LoadRecorder::new();
        r.note("GSA budget clamped 90 -> 100 (floor 100)");
        r.note(String::from("second note"));
        assert_eq!(r.notes().len(), 2);
        assert!(r.notes()[0].contains("clamped"));
        assert_eq!(r.total_bytes(), 0);
        assert!(r.load_series().is_empty());
    }

    #[test]
    fn search_cost_bytes_filters_classes() {
        let mut r = LoadRecorder::new();
        r.record(0, MsgClass::Query, 10);
        r.record(0, MsgClass::FullAd, 1_000);
        r.record(0, MsgClass::Confirm, 5);
        assert_eq!(r.search_cost_bytes(), 15);
    }
}
