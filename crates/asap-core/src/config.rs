//! ASAP protocol parameters.

use crate::retry::RobustnessConfig;
use asap_bloom::BloomParams;

/// How ads are forwarded through the overlay (paper §IV-A: "By adopting
/// different ad forwarding algorithms … we develop and examine three ASAP
/// schemes: ASAP(FLD), ASAP(RW) and ASAP(GSA)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryKind {
    /// Flood ads with a hop limit ("Ad flooding in ASAP(FLD) also sets TTL
    /// equal to 6").
    Flooding { ttl: u8 },
    /// Random-walk delivery ("5 walkers are used in ASAP(RW)"); the total
    /// budget is split evenly among the walkers.
    RandomWalk { walkers: u32 },
    /// GSA-style budgeted dispersal.
    Gsa { branch: u32 },
}

impl DeliveryKind {
    pub fn label(self) -> &'static str {
        match self {
            Self::Flooding { .. } => "FLD",
            Self::RandomWalk { .. } => "RW",
            Self::Gsa { .. } => "GSA",
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
    /// Cached ads older than this many refresh periods (without any update)
    /// are treated as dead and skipped by lookups.
    pub expiry_periods: u32,
    /// Hop distance `h` of the ads-request fallback (paper: "we limit the
    /// ads request scope by setting the distance h to a small value, e.g.,
    /// 1 by default").
    pub ads_request_hops: u8,
    /// Most cached ads shipped in one ads reply.
    pub max_ads_per_reply: usize,
    /// Most confirmations sent per lookup round.
    pub max_confirm_fanout: usize,
    /// How long the requester waits for confirmations before falling back
    /// to the ads-request round, µs.
    pub confirm_timeout_us: u64,
    /// Window over which initial ad deliveries are staggered at start-up, µs.
    pub warmup_stagger_us: u64,
    /// Duplicate-suppression window for flooded ads (deliveries).
    pub seen_window: usize,
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
            expiry_periods: 8,
            ads_request_hops: 1,
            max_ads_per_reply: 64,
            max_confirm_fanout: 8,
            confirm_timeout_us: 2_000_000,
            warmup_stagger_us: 60_000_000,
            seen_window: 1_024,
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
        Self::paper_default(DeliveryKind::Flooding { ttl: 6 })
    }

    pub fn rw() -> Self {
        Self::paper_default(DeliveryKind::RandomWalk { walkers: 5 })
    }

    pub fn gsa() -> Self {
        Self::paper_default(DeliveryKind::Gsa { branch: 4 })
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
        assert!(self.expiry_periods >= 1, "expiry periods must be positive");
        assert!(
            self.max_confirm_fanout >= 1,
            "confirm fanout must be positive"
        );
        self.robustness.validate();
        match self.delivery {
            DeliveryKind::Flooding { ttl } => assert!(ttl >= 1, "flooding TTL must be positive"),
            DeliveryKind::RandomWalk { walkers } => {
                assert!(walkers >= 1, "need at least one walker")
            }
            DeliveryKind::Gsa { branch } => assert!(branch >= 1, "branch must be positive"),
        }
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

    #[test]
    #[should_panic(expected = "TTL")]
    fn zero_ttl_rejected() {
        let mut c = AsapConfig::fld();
        c.delivery = DeliveryKind::Flooding { ttl: 0 };
        c.validate();
    }
}
