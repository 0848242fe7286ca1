//! Named fault profiles: one `--faults <profile>` axis that configures the
//! engine's fault-injection layer (`asap_sim::fault`) *and* the protocols'
//! loss-recovery switch (`Option<Retransmit>`) in one place, so every cell
//! of a lossy sweep runs with both the adversity and the countermeasures
//! enabled.

use asap_sim::util::Retransmit;
use asap_sim::{FaultPlan, PartitionWindow};

/// A named fault scenario for bench runs and the chaos test tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No faults, no retries: the paper's perfect network (the default;
    /// replays the exact fault-free golden digests).
    #[default]
    None,
    /// 10 % uniform message loss, with protocol retries enabled.
    Lossy,
    /// Loss + latency jitter + duplication + a timed partition window.
    Chaos,
}

impl FaultProfile {
    pub const ALL: [FaultProfile; 3] = [Self::None, Self::Lossy, Self::Chaos];

    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(Self::None),
            "lossy" => Some(Self::Lossy),
            "chaos" => Some(Self::Chaos),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Lossy => "lossy",
            Self::Chaos => "chaos",
        }
    }

    pub fn is_none(self) -> bool {
        self == Self::None
    }

    /// The engine-side fault plan. `peers` sizes the chaos partition cut.
    pub fn plan(self, peers: usize) -> FaultPlan {
        match self {
            Self::None => FaultPlan::none(),
            Self::Lossy => FaultPlan {
                loss_ppm: 100_000, // 10 %
                ..FaultPlan::none()
            },
            Self::Chaos => FaultPlan {
                loss_ppm: 100_000,     // 10 %
                jitter_max_us: 50_000, // up to 50 ms extra latency
                duplicate_ppm: 20_000, // 2 %
                // An eighth of the population is cut off for five seconds
                // early in the trace (after the warm-up wave has begun).
                partitions: vec![PartitionWindow {
                    start_us: 10_000_000,
                    end_us: 15_000_000,
                    cut_index: (peers / 8).max(1) as u32,
                }],
            },
        }
    }

    /// Loss recovery matching the profile, for ASAP and the walk/flood
    /// baselines alike (`None` when fault-free, so the paper's behavior —
    /// and the golden digests — are unchanged).
    pub fn retransmit(self) -> Option<Retransmit> {
        match self {
            Self::None => None,
            Self::Lossy | Self::Chaos => Some(Retransmit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.label()), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
    }

    #[test]
    fn none_profile_is_fully_inert() {
        let p = FaultProfile::None;
        assert!(p.plan(150).is_inert());
        assert!(p.retransmit().is_none());
    }

    #[test]
    fn lossy_and_chaos_validate_and_enable_retries() {
        for p in [FaultProfile::Lossy, FaultProfile::Chaos] {
            p.plan(150).validate().expect("plan must be valid");
            assert!(p.retransmit().is_some());
        }
        assert!(
            !FaultProfile::Chaos.plan(150).partitions.is_empty(),
            "chaos includes a partition window"
        );
    }
}
