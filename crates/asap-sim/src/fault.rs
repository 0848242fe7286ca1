//! Deterministic fault injection: per-link loss, latency jitter,
//! duplication, and timed partition windows.
//!
//! A [`FaultPlan`] attached via [`SimBuilder::faults`](crate::SimBuilder::faults)
//! intercepts every [`Transport::send`](crate::Transport::send) *after* the bytes are
//! charged (the sender consumed the bandwidth whether or not the network
//! delivers) and decides the message's fate:
//!
//! 1. **partition** — if a [`PartitionWindow`] is active and the edge
//!    crosses the cut, the message is dropped (no RNG draw);
//! 2. **loss** — dropped with probability `loss_ppm` / 1 000 000;
//! 3. **jitter** — delivery is delayed by a uniform extra latency in
//!    `[0, jitter_max_us]`;
//! 4. **duplication** — with probability `duplicate_ppm` / 1 000 000 a
//!    second copy is scheduled with its own jitter draw.
//!
//! Determinism rules (DESIGN.md):
//!
//! * All fault randomness comes from a **dedicated RNG stream**, seeded from
//!   the run seed xor a fault-layer salt. Enabling faults therefore never
//!   perturbs protocol or workload RNG consumption — an *inert* plan
//!   (`loss_ppm = 0`, `jitter_max_us = 0`, `duplicate_ppm = 0`, no
//!   partitions) reproduces a fault-free run's golden digest bit-for-bit.
//! * A rate of zero draws **nothing** from the stream, so decision
//!   sequences are a pure function of (plan, seed, send sequence).
//! * Probabilities are integer parts-per-million and jitter is integer µs:
//!   this module sits inside lint rule R3's no-float scope.
//!
//! The auditor reconciles [`FaultStats`] exactly against its own mirrors of
//! the `fault-drop`/`fault-dup` events, and flags any duplicate delivery
//! that was never announced (see [`SimAuditor::observe`](crate::audit::SimAuditor::observe)).

use asap_overlay::PeerId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Salt xor-ed into the run seed for the dedicated fault RNG stream; must
/// differ from every other per-run stream derivation in the engine.
const FAULT_STREAM_SALT: u64 = 0xFA17_0B5E_55ED_C0DE;

const PPM_SCALE: u32 = 1_000_000;

/// A timed network partition: while `start_us <= now < end_us`, messages
/// crossing the cut `{id < cut_index} | {id >= cut_index}` are dropped in
/// both directions. Intra-side traffic is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    pub start_us: u64,
    pub end_us: u64,
    pub cut_index: u32,
}

impl PartitionWindow {
    /// Does a message sent now between `from` and `to` cross this cut?
    #[inline]
    pub fn severs(&self, now_us: u64, from: PeerId, to: PeerId) -> bool {
        now_us >= self.start_us
            && now_us < self.end_us
            && (from.0 < self.cut_index) != (to.0 < self.cut_index)
    }
}

/// A declarative fault schedule. The zero value ([`FaultPlan::default`]) is
/// *inert*: attaching it changes nothing observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-message loss probability, parts per million (0..=1_000_000).
    pub loss_ppm: u32,
    /// Extra uniform delivery delay in `[0, jitter_max_us]` µs.
    pub jitter_max_us: u64,
    /// Per-message duplication probability, parts per million.
    pub duplicate_ppm: u32,
    /// Timed partition windows, checked in order; the first active severing
    /// window drops the message.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// An inert plan: no loss, no jitter, no duplication, no partitions.
    pub fn none() -> Self {
        Self::default()
    }

    /// True iff attaching this plan cannot change any observable behavior.
    pub fn is_inert(&self) -> bool {
        self.loss_ppm == 0
            && self.jitter_max_us == 0
            && self.duplicate_ppm == 0
            && self.partitions.is_empty()
    }

    /// Structural validity: probabilities within [0, 1e6] ppm and partition
    /// windows non-inverted.
    pub fn validate(&self) -> Result<(), String> {
        if self.loss_ppm > PPM_SCALE {
            return Err(format!("loss_ppm {} > 1_000_000", self.loss_ppm));
        }
        if self.duplicate_ppm > PPM_SCALE {
            return Err(format!("duplicate_ppm {} > 1_000_000", self.duplicate_ppm));
        }
        for w in &self.partitions {
            if w.start_us >= w.end_us {
                return Err(format!(
                    "partition window [{}, {}) is empty or inverted",
                    w.start_us, w.end_us
                ));
            }
        }
        Ok(())
    }
}

/// Counters kept by the fault layer itself; the auditor reconciles them
/// exactly against its own mirrors of the announced events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the random-loss coin.
    pub dropped: u64,
    /// Messages dropped by an active partition window.
    pub partitioned: u64,
    /// Messages that got a second scheduled copy.
    pub duplicated: u64,
    /// Deliveries whose jitter draw came out non-zero.
    pub jittered: u64,
    /// Total sends evaluated by the fault layer.
    pub decisions: u64,
}

impl FaultStats {
    /// Drops of either kind.
    pub fn total_dropped(&self) -> u64 {
        self.dropped + self.partitioned
    }
}

/// The fate of one send, as decided by [`FaultState::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Schedule delivery `jitter_us` late; if `duplicate_jitter_us` is set,
    /// schedule a second copy with that (independent) extra delay.
    Deliver {
        jitter_us: u64,
        duplicate_jitter_us: Option<u64>,
    },
    /// Drop the message. `partition` distinguishes a partition cut from the
    /// random-loss coin (the two reconcile against separate counters).
    Drop { partition: bool },
}

impl FaultDecision {
    /// The decision an un-faulted engine implicitly makes for every send.
    pub const CLEAN: Self = Self::Deliver {
        jitter_us: 0,
        duplicate_jitter_us: None,
    };
}

/// Live fault-layer state: the plan, the dedicated RNG stream, and the
/// running statistics.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
    stats: FaultStats,
}

impl FaultState {
    /// Derive the dedicated fault stream from the run seed. Two runs with
    /// the same seed and plan make identical decisions for identical send
    /// sequences.
    pub fn new(plan: FaultPlan, run_seed: u64) -> Self {
        debug_assert!(plan.validate().is_ok(), "invalid fault plan");
        Self {
            plan,
            rng: SmallRng::seed_from_u64(run_seed ^ FAULT_STREAM_SALT),
            stats: FaultStats::default(),
        }
    }

    /// Raw xoshiro state of the dedicated fault stream (checkpointing).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a fault layer mid-run from checkpointed state: the plan, the
    /// dedicated stream's raw RNG state, and the statistics accumulated so
    /// far. Continues the decision stream exactly where the snapshot left
    /// off.
    pub fn from_parts(plan: FaultPlan, rng_state: [u64; 4], stats: FaultStats) -> Self {
        debug_assert!(plan.validate().is_ok(), "invalid fault plan");
        Self {
            plan,
            rng: SmallRng::from_state(rng_state),
            stats,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    pub fn into_stats(self) -> FaultStats {
        self.stats
    }

    /// Decide the fate of a message sent now from `from` to `to`.
    ///
    /// Draw order is fixed — partition (no draw), loss coin, jitter,
    /// duplicate coin, duplicate jitter — and a disabled knob draws
    /// nothing, so the stream stays aligned across plan variations that
    /// share the enabled knobs.
    pub fn decide(&mut self, now_us: u64, from: PeerId, to: PeerId) -> FaultDecision {
        self.stats.decisions += 1;
        if self
            .plan
            .partitions
            .iter()
            .any(|w| w.severs(now_us, from, to))
        {
            self.stats.partitioned += 1;
            return FaultDecision::Drop { partition: true };
        }
        if self.plan.loss_ppm > 0 && self.rng.gen_range(0..PPM_SCALE) < self.plan.loss_ppm {
            self.stats.dropped += 1;
            return FaultDecision::Drop { partition: false };
        }
        let jitter_us = self.draw_jitter();
        if jitter_us > 0 {
            self.stats.jittered += 1;
        }
        let duplicate_jitter_us = if self.plan.duplicate_ppm > 0
            && self.rng.gen_range(0..PPM_SCALE) < self.plan.duplicate_ppm
        {
            self.stats.duplicated += 1;
            Some(self.draw_jitter())
        } else {
            None
        };
        FaultDecision::Deliver {
            jitter_us,
            duplicate_jitter_us,
        }
    }

    #[inline]
    fn draw_jitter(&mut self) -> u64 {
        if self.plan.jitter_max_us > 0 {
            self.rng.gen_range(0..=self.plan.jitter_max_us)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan {
            loss_ppm: 100_000,
            jitter_max_us: 50_000,
            duplicate_ppm: 50_000,
            partitions: vec![PartitionWindow {
                start_us: 1_000,
                end_us: 2_000,
                cut_index: 5,
            }],
        }
    }

    #[test]
    fn inert_plan_is_inert_and_never_draws() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
        let mut f = FaultState::new(plan, 7);
        for i in 0..1_000u64 {
            let d = f.decide(i, PeerId(0), PeerId(1));
            assert_eq!(d, FaultDecision::CLEAN);
        }
        assert_eq!(f.stats().total_dropped(), 0);
        assert_eq!(f.stats().duplicated, 0);
        assert_eq!(f.stats().jittered, 0);
        assert_eq!(f.stats().decisions, 1_000);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let mut f = FaultState::new(lossy_plan(), 42);
            (0..2_000u64)
                .map(|i| {
                    f.decide(
                        i * 10,
                        PeerId((i % 20) as u32),
                        PeerId(((i + 1) % 20) as u32),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut f = FaultState::new(lossy_plan(), seed);
            (0..500u64)
                .map(|i| f.decide(i * 10, PeerId(0), PeerId(1)))
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2), "fault stream must depend on the run seed");
    }

    #[test]
    fn partition_severs_only_crossing_edges_during_window() {
        let w = PartitionWindow {
            start_us: 100,
            end_us: 200,
            cut_index: 3,
        };
        assert!(w.severs(100, PeerId(0), PeerId(5)));
        assert!(w.severs(199, PeerId(5), PeerId(0)), "cut is symmetric");
        assert!(!w.severs(200, PeerId(0), PeerId(5)), "end is exclusive");
        assert!(!w.severs(99, PeerId(0), PeerId(5)), "start is inclusive");
        assert!(!w.severs(150, PeerId(0), PeerId(2)), "same side (low)");
        assert!(!w.severs(150, PeerId(4), PeerId(9)), "same side (high)");
    }

    #[test]
    fn partition_drop_consumes_no_randomness() {
        // Two states, same seed: one decides a partitioned send first, the
        // other skips it. Their streams must stay aligned afterwards.
        let plan = lossy_plan();
        let mut a = FaultState::new(plan.clone(), 9);
        let mut b = FaultState::new(plan, 9);
        assert_eq!(
            a.decide(1_500, PeerId(0), PeerId(9)),
            FaultDecision::Drop { partition: true }
        );
        for i in 0..200u64 {
            assert_eq!(
                a.decide(5_000 + i, PeerId(0), PeerId(1)),
                b.decide(5_000 + i, PeerId(0), PeerId(1))
            );
        }
    }

    #[test]
    fn loss_rate_roughly_matches_ppm() {
        let mut f = FaultState::new(
            FaultPlan {
                loss_ppm: 100_000, // 10%
                ..FaultPlan::default()
            },
            3,
        );
        let n = 20_000u64;
        for i in 0..n {
            f.decide(i, PeerId(0), PeerId(1));
        }
        let dropped = f.stats().dropped;
        // 10% ± 2% absolute at n = 20k is > 9 sigma.
        assert!(
            (n / 10).abs_diff(dropped) < n / 50,
            "dropped {dropped} of {n}"
        );
        assert_eq!(f.stats().partitioned, 0);
    }

    #[test]
    fn jitter_stays_in_bounds_and_duplicates_carry_their_own_jitter() {
        let mut f = FaultState::new(
            FaultPlan {
                jitter_max_us: 1_000,
                duplicate_ppm: 500_000,
                ..FaultPlan::default()
            },
            11,
        );
        let mut dups = 0u64;
        for i in 0..5_000u64 {
            match f.decide(i, PeerId(0), PeerId(1)) {
                FaultDecision::Deliver {
                    jitter_us,
                    duplicate_jitter_us,
                } => {
                    assert!(jitter_us <= 1_000);
                    if let Some(dj) = duplicate_jitter_us {
                        assert!(dj <= 1_000);
                        dups += 1;
                    }
                }
                FaultDecision::Drop { .. } => panic!("no loss configured"),
            }
        }
        assert_eq!(dups, f.stats().duplicated);
        assert!(dups > 1_000, "~50% duplication expected, got {dups}");
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan {
            loss_ppm: 1_000_001,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            duplicate_ppm: 2_000_000,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            partitions: vec![PartitionWindow {
                start_us: 10,
                end_us: 10,
                cut_index: 1
            }],
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
    }
}
