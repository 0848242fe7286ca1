//! Per-query outcome ledger: success rate and response time (Figs. 4–5).

/// Outcome record for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryRecord {
    pub issue_us: u64,
    /// Time the first confirmed result reached the requester.
    pub first_answer_us: Option<u64>,
    /// Total confirmed results.
    pub answers: u32,
    registered: bool,
}

/// Issue/answer bookkeeping for every query in a run.
#[derive(Debug, Default)]
pub struct QueryLedger {
    records: Vec<QueryRecord>,
}

impl QueryLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register query `id` issued at `issue_us`. Ids may arrive in any order
    /// but must not repeat.
    pub fn register(&mut self, id: u32, issue_us: u64) {
        let idx = id as usize;
        if idx >= self.records.len() {
            self.records.resize(idx + 1, QueryRecord::default());
        }
        assert!(!self.records[idx].registered, "query {id} registered twice");
        self.records[idx] = QueryRecord {
            issue_us,
            first_answer_us: None,
            answers: 0,
            registered: true,
        };
    }

    /// Record a confirmed result for query `id` at `time_us`.
    pub fn answer(&mut self, id: u32, time_us: u64) {
        let rec = &mut self.records[id as usize];
        assert!(rec.registered, "answer for unregistered query {id}");
        debug_assert!(time_us >= rec.issue_us, "answer precedes issue");
        rec.answers += 1;
        if rec.first_answer_us.is_none() {
            rec.first_answer_us = Some(time_us);
        }
    }

    /// True iff query `id` has been registered, answered or not.
    pub fn is_registered(&self, id: u32) -> bool {
        self.records.get(id as usize).is_some_and(|r| r.registered)
    }

    /// True iff query `id` is registered and already has an answer — the
    /// protocol-side signal that a retransmission is no longer needed.
    pub fn is_answered(&self, id: u32) -> bool {
        self.records
            .get(id as usize)
            .is_some_and(|r| r.registered && r.first_answer_us.is_some())
    }

    pub fn num_queries(&self) -> usize {
        self.records.iter().filter(|r| r.registered).count()
    }

    pub fn num_succeeded(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.registered && r.first_answer_us.is_some())
            .count()
    }

    /// "Percentage of search requests that obtain at least one result."
    pub fn success_rate(&self) -> f64 {
        let n = self.num_queries();
        if n == 0 {
            return 0.0;
        }
        self.num_succeeded() as f64 / n as f64
    }

    /// "The response time is averaged among all successful search requests."
    /// Milliseconds.
    pub fn avg_response_time_ms(&self) -> f64 {
        let times: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.registered)
            .filter_map(|r| r.first_answer_us.map(|a| (a - r.issue_us) as f64 / 1_000.0))
            .collect();
        crate::summary::mean(&times)
    }

    /// Registered queries that never received an answer.
    pub fn num_unanswered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.registered && r.first_answer_us.is_none())
            .count()
    }

    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.records.iter().filter(|r| r.registered)
    }

    /// The raw record-vector length, unregistered tail slots included
    /// (checkpointing: `register` sizes the vector by the highest id seen,
    /// so the raw length is observable state).
    pub fn raw_len(&self) -> usize {
        self.records.len()
    }

    /// Rebuild a ledger from checkpointed state: the raw vector length and
    /// the registered `(id, issue_us, first_answer_us, answers)` entries.
    /// Slots not listed stay unregistered, exactly as `register` left them.
    pub fn from_parts(
        raw_len: usize,
        entries: impl IntoIterator<Item = (u32, u64, Option<u64>, u32)>,
    ) -> Self {
        let mut records = vec![QueryRecord::default(); raw_len];
        for (id, issue_us, first_answer_us, answers) in entries {
            records[id as usize] = QueryRecord {
                issue_us,
                first_answer_us,
                answers,
                registered: true,
            };
        }
        Self { records }
    }

    /// Registered records keyed by query id, in ascending id order.
    pub fn records_with_ids(&self) -> impl Iterator<Item = (u32, &QueryRecord)> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.registered)
            .map(|(i, r)| (i as u32, r))
    }

    /// Structural consistency check over every registered record:
    ///
    /// * no query is issued after `end_time_us`;
    /// * a success implies a recorded response time not before the issue and
    ///   not after `end_time_us`;
    /// * the answer count and the first-answer time agree (one implies the
    ///   other);
    /// * issued = resolved + unanswered.
    ///
    /// Returns the list of violated clauses (empty when consistent).
    pub fn check_consistency(&self, end_time_us: u64) -> Vec<String> {
        let mut violations = Vec::new();
        for (id, rec) in self.records_with_ids() {
            if rec.issue_us > end_time_us {
                violations.push(format!(
                    "query {id}: issued at {} after end {end_time_us}",
                    rec.issue_us
                ));
            }
            match rec.first_answer_us {
                Some(t) => {
                    if t < rec.issue_us {
                        violations.push(format!(
                            "query {id}: answered at {t} before issue {}",
                            rec.issue_us
                        ));
                    }
                    if t > end_time_us {
                        violations.push(format!(
                            "query {id}: answered at {t} after end {end_time_us}"
                        ));
                    }
                    if rec.answers == 0 {
                        violations.push(format!(
                            "query {id}: first answer set but answer count is 0"
                        ));
                    }
                }
                None => {
                    if rec.answers != 0 {
                        violations.push(format!(
                            "query {id}: {} answers but no first-answer time",
                            rec.answers
                        ));
                    }
                }
            }
        }
        if self.num_queries() != self.num_succeeded() + self.num_unanswered() {
            violations.push(format!(
                "ledger split broken: {} issued != {} succeeded + {} unanswered",
                self.num_queries(),
                self.num_succeeded(),
                self.num_unanswered()
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_and_response_time() {
        let mut l = QueryLedger::new();
        l.register(0, 1_000_000);
        l.register(1, 2_000_000);
        l.register(2, 3_000_000);
        l.answer(0, 1_100_000); // 100 ms
        l.answer(0, 1_900_000); // second answer doesn't change first
        l.answer(2, 3_300_000); // 300 ms
        assert_eq!(l.num_queries(), 3);
        assert_eq!(l.num_succeeded(), 2);
        assert!((l.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((l.avg_response_time_ms() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn answers_counted() {
        let mut l = QueryLedger::new();
        l.register(0, 0);
        l.answer(0, 10);
        l.answer(0, 20);
        let rec = l.records().next().unwrap();
        assert_eq!(rec.answers, 2);
        assert_eq!(rec.first_answer_us, Some(10));
    }

    #[test]
    fn out_of_order_registration() {
        let mut l = QueryLedger::new();
        l.register(5, 50);
        l.register(2, 20);
        assert_eq!(l.num_queries(), 2);
    }

    #[test]
    fn empty_ledger() {
        let l = QueryLedger::new();
        assert_eq!(l.success_rate(), 0.0);
        assert_eq!(l.avg_response_time_ms(), 0.0);
    }

    #[test]
    fn unanswered_completes_the_split() {
        let mut l = QueryLedger::new();
        l.register(0, 0);
        l.register(1, 0);
        l.register(2, 0);
        l.answer(1, 5);
        assert_eq!(l.num_unanswered(), 2);
        assert_eq!(l.num_queries(), l.num_succeeded() + l.num_unanswered());
    }

    #[test]
    fn records_with_ids_skips_unregistered_slots() {
        let mut l = QueryLedger::new();
        l.register(3, 30);
        l.register(1, 10);
        let ids: Vec<u32> = l.records_with_ids().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn consistency_check_passes_on_sane_ledger() {
        let mut l = QueryLedger::new();
        l.register(0, 100);
        l.register(1, 200);
        l.answer(0, 150);
        assert!(l.check_consistency(1_000).is_empty());
    }

    #[test]
    fn consistency_check_flags_answer_after_end() {
        let mut l = QueryLedger::new();
        l.register(0, 100);
        l.answer(0, 5_000);
        let v = l.check_consistency(1_000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("after end"));
    }

    #[test]
    fn consistency_check_flags_issue_after_end() {
        let mut l = QueryLedger::new();
        l.register(0, 2_000);
        let v = l.check_consistency(1_000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("issued at 2000 after end"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_rejected() {
        let mut l = QueryLedger::new();
        l.register(1, 0);
        l.register(1, 0);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn answer_requires_registration() {
        let mut l = QueryLedger::new();
        l.register(0, 0);
        l.answer(0, 1); // fine
        let mut l2 = QueryLedger::new();
        l2.register(3, 0);
        l2.answer(1, 1); // unregistered slot
    }
}
