//! ASAP protocol parameters.

use crate::retry::RobustnessConfig;
use asap_bloom::BloomParams;

/// How ads are forwarded through the overlay (paper §IV-A: "By adopting
/// different ad forwarding algorithms … we develop and examine three ASAP
/// schemes: ASAP(FLD), ASAP(RW) and ASAP(GSA)"). Each scheme's fan-out is
/// the paper's constant in [`crate::delivery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryKind {
    /// Flood ads with a hop limit of [`AD_FLOOD_TTL`](crate::delivery::AD_FLOOD_TTL).
    Flooding,
    /// Random-walk delivery by [`AD_WALKERS`](crate::delivery::AD_WALKERS)
    /// walkers; the total budget is split evenly among them.
    RandomWalk,
    /// GSA-style budgeted dispersal, fanning out to
    /// [`AD_BRANCH`](crate::delivery::AD_BRANCH) neighbors.
    Gsa,
}

impl DeliveryKind {
    pub fn label(self) -> &'static str {
        match self {
            Self::Flooding => "FLD",
            Self::RandomWalk => "RW",
            Self::Gsa => "GSA",
        }
    }
}

/// Full parameter set for an ASAP deployment.
#[derive(Debug, Clone)]
pub struct AsapConfig {
    /// Ad forwarding scheme.
    pub delivery: DeliveryKind,
    /// Budget unit `M₀` for RW/GSA deliveries: one delivery may spend
    /// `topics × M₀` messages (paper: 3,000). Ignored by flooding.
    pub budget_unit: u32,
    /// Bloom-filter geometry shared by every node.
    pub bloom: BloomParams,
    /// Ad-cache capacity (entries) per node.
    pub cache_capacity: usize,
    /// Period of refresh-ad deliveries, µs.
    pub refresh_interval_us: u64,
    /// Hop distance `h` of the ads-request fallback (paper: "we limit the
    /// ads request scope by setting the distance h to a small value, e.g.,
    /// 1 by default").
    pub ads_request_hops: u8,
    /// Most cached ads shipped in one ads reply.
    pub max_ads_per_reply: usize,
    /// Window over which initial ad deliveries are staggered at start-up, µs.
    pub warmup_stagger_us: u64,
    /// Retry/backoff budgets for lossy networks. The default is inert —
    /// no retries, no extra timers — so the paper's behavior (and the
    /// fault-free golden digests) is unchanged unless explicitly enabled.
    pub robustness: RobustnessConfig,
}

impl AsapConfig {
    /// The paper's configuration for a given delivery scheme at full scale.
    pub fn paper_default(delivery: DeliveryKind) -> Self {
        Self {
            delivery,
            budget_unit: 3_000,
            bloom: BloomParams::paper_default(),
            cache_capacity: 4_096,
            refresh_interval_us: 300_000_000, // 5 min
            ads_request_hops: 1,
            max_ads_per_reply: 64,
            warmup_stagger_us: 60_000_000,
            robustness: RobustnessConfig::default(),
        }
    }

    /// Enable the given retry/backoff budgets (builder-style).
    pub fn with_robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = robustness;
        self
    }

    /// The paper's three variants with their published knobs.
    pub fn fld() -> Self {
        Self::paper_default(DeliveryKind::Flooding)
    }

    pub fn rw() -> Self {
        Self::paper_default(DeliveryKind::RandomWalk)
    }

    pub fn gsa() -> Self {
        Self::paper_default(DeliveryKind::Gsa)
    }

    /// Scale population-proportional knobs for a reduced experiment of
    /// `peers` peers (the paper's values assume 10,000): the delivery budget
    /// unit and cache capacity shrink proportionally, time constants stay.
    /// The proportional value is rounded (not truncated) before the floor,
    /// matching the scale table in EXPERIMENTS.md.
    pub fn scaled_to(mut self, peers: usize) -> Self {
        let ratio = peers as f64 / 10_000.0;
        if ratio < 1.0 {
            self.budget_unit = ((self.budget_unit as f64 * ratio).round() as u32).max(16);
            self.cache_capacity = ((self.cache_capacity as f64 * ratio).round() as usize).max(64);
        }
        self
    }

    pub fn validate(&self) {
        assert!(self.budget_unit >= 1, "budget unit must be positive");
        assert!(self.cache_capacity >= 1, "cache capacity must be positive");
        assert!(
            self.refresh_interval_us > 0,
            "refresh interval must be positive"
        );
        self.robustness.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variants_validate() {
        AsapConfig::fld().validate();
        AsapConfig::rw().validate();
        AsapConfig::gsa().validate();
    }

    #[test]
    fn labels() {
        assert_eq!(AsapConfig::fld().delivery.label(), "FLD");
        assert_eq!(AsapConfig::rw().delivery.label(), "RW");
        assert_eq!(AsapConfig::gsa().delivery.label(), "GSA");
    }

    #[test]
    fn scaling_shrinks_budget_proportionally() {
        let c = AsapConfig::rw().scaled_to(1_000);
        assert_eq!(c.budget_unit, 300);
        assert!(c.cache_capacity >= 64);
        // Scaling up never inflates beyond the paper's values.
        let up = AsapConfig::rw().scaled_to(50_000);
        assert_eq!(up.budget_unit, 3_000);
    }

    #[test]
    fn scaling_clamps_tiny_networks() {
        let c = AsapConfig::rw().scaled_to(10);
        c.validate();
        assert!(c.budget_unit >= 16);
        assert!(c.cache_capacity >= 64);
    }
}
