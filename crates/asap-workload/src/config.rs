//! Workload generation parameters (paper §IV-B): the sizes of one
//! homogeneous trace, plus the one perturbation any run turns on, the
//! flash-crowd arrival spike.

use crate::content::CLASSES;
use crate::ids::KeywordId;

/// Parameters of the synthetic eDonkey-like workload. The parameters every
/// scale shares are constants beside their readers: the class, sharing and
/// keyword shape in [`crate::content`], the arrival rate and query length
/// in [`crate::trace`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of P2P peers (paper: 10,000).
    pub peers: usize,
    /// Number of search requests (paper: 30,000).
    pub queries: usize,
    /// Fraction of requests followed by a content change (paper: 10 %).
    pub content_change_fraction: f64,
    /// Node join events inserted into the trace (paper: 1,000). Every peer
    /// starts online; a join revives one an earlier departure took offline.
    pub joins: usize,
    /// Node departure events (paper: 1,000).
    pub leaves: usize,
    /// Distinct keywords in each class's vocabulary.
    pub vocab_per_class: usize,
    /// Flash crowd: the middle fifth of the query sequence arrives six
    /// times faster (λ = 8/s becomes a 48/s burst). Off in the paper's
    /// homogeneous workload.
    pub flash_crowd: bool,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's instance.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            peers: 10_000,
            queries: 30_000,
            content_change_fraction: 0.10,
            joins: 1_000,
            leaves: 1_000,
            vocab_per_class: 2_000,
            flash_crowd: false,
            seed,
        }
    }

    /// Structurally identical instance scaled down to `peers`/`queries`
    /// (churn and vocabulary scale proportionally).
    pub fn reduced(peers: usize, queries: usize, seed: u64) -> Self {
        let scale = peers as f64 / 10_000.0;
        let base = Self::paper_default(seed);
        Self {
            peers,
            queries,
            joins: ((1_000.0 * scale) as usize).max(2),
            leaves: ((1_000.0 * scale) as usize).max(2),
            vocab_per_class: ((2_000.0 * scale) as usize).clamp(50, 2_000),
            ..base
        }
    }

    pub fn validate(&self) {
        assert!(self.peers >= 4, "need at least 4 peers");
        assert!(self.queries >= 1, "need at least one query");
        assert!(
            self.joins < self.peers,
            "joiners are drawn from the peer population"
        );
        assert!(
            (0.0..=1.0).contains(&self.content_change_fraction),
            "content_change_fraction must be in [0, 1]"
        );
        assert!(
            CLASSES * self.vocab_per_class <= KeywordId::SPACE,
            "{CLASSES} classes × {} words overflow the 16-bit keyword space",
            self.vocab_per_class
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        WorkloadConfig::paper_default(1).validate();
    }

    #[test]
    fn reduced_scales_churn() {
        let c = WorkloadConfig::reduced(1_000, 3_000, 1);
        c.validate();
        assert_eq!(c.joins, 100);
        assert_eq!(c.leaves, 100);
        assert_eq!(c.vocab_per_class, 200);
    }

    #[test]
    fn reduced_clamps_tiny_scales() {
        let c = WorkloadConfig::reduced(20, 50, 1);
        c.validate();
        assert!(c.joins >= 2);
        assert!(c.vocab_per_class >= 50);
    }

    #[test]
    #[should_panic(expected = "joiners")]
    fn joins_bounded_by_peers() {
        let mut c = WorkloadConfig::reduced(100, 100, 1);
        c.joins = 100;
        c.validate();
    }

    /// 14 × 4,681 = 65,534 keyword ids fit in 16 bits; 14 × 4,682 =
    /// 65,548 do not.
    #[test]
    fn largest_vocabulary_that_fits_sixteen_bits_validates() {
        let mut c = WorkloadConfig::paper_default(1);
        c.vocab_per_class = 4_681;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "14 classes × 4682 words overflow the 16-bit keyword space")]
    fn vocabulary_past_sixteen_bits_rejected() {
        let mut c = WorkloadConfig::paper_default(1);
        c.vocab_per_class = 4_682;
        c.validate();
    }
}
