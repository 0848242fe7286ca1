//! Workload generation parameters (paper §IV-B).

use crate::content::CLASSES;
use crate::ids::KeywordId;

/// Heterogeneous-workload knobs layered over the paper's homogeneous trace.
///
/// The paper evaluates one steady-state workload; real deployments are
/// spikier. Each knob perturbs one axis of the generator — and each is
/// **inert at its default**, taking the exact code path (and RNG draw
/// sequence) of the unperturbed generator, so every pinned golden digest
/// survives this struct's existence bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityPack {
    /// Flash crowd: query inter-arrival gaps inside the spike window are
    /// divided by this factor (a `6.0` turns λ = 8/s into a 48/s burst).
    /// `1.0` = off.
    pub flash_boost: f64,
    /// Center of the spike window, as a fraction of the query sequence.
    pub flash_center: f64,
    /// Width of the spike window, as a fraction of the query sequence.
    pub flash_width: f64,
    /// Interest drift: probability a query's class is rotated away from the
    /// requester's static interest profile by an amount that grows with
    /// trace progress (late queries probe classes nobody advertised for
    /// early). `0.0` = off.
    pub drift_strength: f64,
    /// Content hotspot: probability a query re-targets its class's hottest
    /// document instead of a uniform draw, concentrating demand. `0.0` = off.
    pub hotspot_prob: f64,
    /// Heavy-tailed session lengths: probability a departure evicts the most
    /// recently rejoined peer instead of a uniform one, yielding many short
    /// sessions and a few long ones. `0.0` = off.
    pub session_tail: f64,
}

impl Default for HeterogeneityPack {
    fn default() -> Self {
        Self::inert()
    }
}

impl HeterogeneityPack {
    /// The paper's homogeneous workload: every knob off.
    pub fn inert() -> Self {
        Self {
            flash_boost: 1.0,
            flash_center: 0.5,
            flash_width: 0.0,
            drift_strength: 0.0,
            hotspot_prob: 0.0,
            session_tail: 0.0,
        }
    }

    /// A mid-trace query spike: the middle fifth of the query sequence
    /// arrives six times faster.
    pub fn flash_crowd() -> Self {
        Self {
            flash_boost: 6.0,
            flash_center: 0.5,
            flash_width: 0.2,
            ..Self::inert()
        }
    }

    /// Every axis on at once — the stress workload for robustness sweeps.
    pub fn stress() -> Self {
        Self {
            flash_boost: 6.0,
            flash_center: 0.5,
            flash_width: 0.2,
            drift_strength: 0.35,
            hotspot_prob: 0.40,
            session_tail: 0.70,
        }
    }

    pub fn is_inert(&self) -> bool {
        self.flash_boost == 1.0
            && self.drift_strength == 0.0
            && self.hotspot_prob == 0.0
            && self.session_tail == 0.0
    }

    /// Is query `i` of `total` inside the flash-crowd window?
    pub(crate) fn in_flash_window(&self, i: usize, total: usize) -> bool {
        let f = (i as f64 + 0.5) / total.max(1) as f64;
        (f - self.flash_center).abs() <= self.flash_width / 2.0
    }

    pub fn validate(&self) {
        assert!(
            self.flash_boost >= 1.0,
            "flash_boost < 1 would thin the crowd"
        );
        assert!(
            (0.0..=1.0).contains(&self.flash_center)
                && (0.0..=1.0).contains(&self.flash_width)
                && (0.0..=1.0).contains(&self.drift_strength)
                && (0.0..=1.0).contains(&self.hotspot_prob)
                && (0.0..=1.0).contains(&self.session_tail),
            "pack fractions must be in [0, 1]"
        );
    }
}

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
    /// Node join events inserted into the trace (paper: 1,000). Joining
    /// peers start the simulation offline.
    pub joins: usize,
    /// Node departure events (paper: 1,000).
    pub leaves: usize,
    /// Distinct keywords in each class's vocabulary.
    pub vocab_per_class: usize,
    /// Heterogeneity knobs (inert by default; see [`HeterogeneityPack`]).
    pub pack: HeterogeneityPack,
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
            pack: HeterogeneityPack::inert(),
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
        self.pack.validate();
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

    #[test]
    fn default_pack_is_inert_and_presets_validate() {
        assert!(HeterogeneityPack::default().is_inert());
        assert!(WorkloadConfig::paper_default(1).pack.is_inert());
        for pack in [
            HeterogeneityPack::inert(),
            HeterogeneityPack::flash_crowd(),
            HeterogeneityPack::stress(),
        ] {
            pack.validate();
        }
        assert!(!HeterogeneityPack::flash_crowd().is_inert());
        assert!(!HeterogeneityPack::stress().is_inert());
    }

    #[test]
    fn flash_window_covers_the_configured_slice() {
        let p = HeterogeneityPack::flash_crowd();
        let total = 1_000;
        let inside = (0..total).filter(|&i| p.in_flash_window(i, total)).count();
        assert!(
            (inside as f64 / total as f64 - p.flash_width).abs() < 0.01,
            "window covered {inside}/{total}"
        );
        assert!(p.in_flash_window(total / 2, total));
        assert!(!p.in_flash_window(0, total));
        assert!(!p.in_flash_window(total - 1, total));
    }

    #[test]
    #[should_panic(expected = "flash_boost")]
    fn thinning_flash_boost_rejected() {
        let mut c = WorkloadConfig::paper_default(1);
        c.pack.flash_boost = 0.5;
        c.validate();
    }
}
