//! Deterministic adversary model: ad-spam / Bloom-poisoning peers,
//! query-absorbing free riders, and eclipse-style neighbor capture.
//!
//! An [`AdversaryPlan`] attached via
//! [`SimBuilder::adversary`](crate::SimBuilder::adversary) assigns a
//! per-peer [`AdversaryRole`] once at attach time and then intercepts every
//! [`Transport::send`](crate::Transport::send) *after* the bytes are charged (the sender
//! consumed the bandwidth whether or not the recipient cooperates):
//!
//! 1. **ad spam** — spam peers advertise content they do not hold; the
//!    protocol layer poisons their Bloom snapshots (see
//!    `Asap::new_with_adversaries` in asap-core), so their ads attract
//!    confirmations that fail against ground truth. The engine itself treats
//!    spam peers as honest message handlers.
//! 2. **free riding** — request-class messages (`Query`, `AdsRequest`,
//!    `Confirm`) addressed to a free rider are absorbed: charged, counted,
//!    announced to the auditor, and never queued for delivery. Replies to
//!    the free rider's *own* requests still flow — free riders consume
//!    service, they just never provide it.
//! 3. **eclipse** — at attach time the victim's neighbor table is rewired
//!    toward colluding (adversarial) peers, up to `captured_links` edges per
//!    victim, preserving every overlay invariant (symmetry, no self-loops,
//!    dead peers keep degree 0).
//!
//! Determinism rules (DESIGN.md), identical to the fault layer:
//!
//! * All adversary randomness comes from a **dedicated RNG stream**, seeded
//!   from the run seed xor an adversary-layer salt. Role assignment is a
//!   pure function of (plan, peer count, run seed) — enabling faults never
//!   changes which peers are adversarial, and vice versa.
//! * An *inert* plan (both role fractions zero, no eclipse targets) draws
//!   **nothing** and absorbs nothing, so attaching it reproduces an
//!   adversary-free run's golden digest bit-for-bit.
//! * The absorb decision itself draws no randomness at all: it is a pure
//!   function of (target role, message class).
//! * Role fractions are integer parts-per-million: this module sits inside
//!   lint rule R3's no-float scope.
//!
//! The auditor reconciles [`AdversaryStats`] exactly against its own mirror
//! of the `adversary-absorb` events (see
//! [`SimAuditor::observe`](crate::audit::SimAuditor::observe)).

use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Salt xor-ed into the run seed for the dedicated adversary RNG stream;
/// must differ from every other per-run stream derivation (the
/// `[streams.*]` registry in `lint.toml` lists them all; rule R6 keeps
/// each salt inside its owner file).
const ADVERSARY_STREAM_SALT: u64 = 0xBAD5_EED5_0DD0_5A17;

const PPM_SCALE: u32 = 1_000_000;

/// An eclipse-capture target: rewire up to `captured_links` of the victim's
/// overlay edges toward colluding (adversarial) peers at attach time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EclipseTarget {
    /// The peer whose neighbor table is captured.
    pub victim: PeerId,
    /// Maximum number of the victim's edges to rewire toward colluders.
    pub captured_links: u32,
}

/// A declarative adversary schedule. The zero value
/// ([`AdversaryPlan::default`]) is *inert*: attaching it changes nothing
/// observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdversaryPlan {
    /// Fraction of peers assigned the ad-spam role, parts per million.
    pub spam_ppm: u32,
    /// Fraction of peers assigned the free-rider role, parts per million.
    pub free_rider_ppm: u32,
    /// Eclipse-capture targets, applied once at attach time.
    pub eclipse: Vec<EclipseTarget>,
}

impl AdversaryPlan {
    /// An inert plan: no adversarial roles, no eclipse targets.
    pub fn none() -> Self {
        Self::default()
    }

    /// True iff attaching this plan cannot change any observable behavior.
    pub fn is_inert(&self) -> bool {
        self.spam_ppm == 0 && self.free_rider_ppm == 0 && self.eclipse.is_empty()
    }

    /// Structural validity: role fractions within [0, 1e6] ppm combined, and
    /// eclipse targets capturing at least one link each.
    pub fn validate(&self) -> Result<(), String> {
        let total = self.spam_ppm as u64 + self.free_rider_ppm as u64;
        if total > PPM_SCALE as u64 {
            return Err(format!("role fractions sum to {total} ppm > 1_000_000"));
        }
        for t in &self.eclipse {
            if t.captured_links == 0 {
                return Err(format!("eclipse target {:?} captures zero links", t.victim));
            }
        }
        Ok(())
    }
}

/// The role a peer plays for the whole run, decided once at attach time on
/// the dedicated adversary stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdversaryRole {
    /// Follows the protocol faithfully.
    #[default]
    Honest,
    /// Advertises content it does not hold (poisoned Bloom snapshot).
    AdSpammer,
    /// Absorbs request-class messages, never forwards or answers.
    FreeRider,
}

impl AdversaryRole {
    /// Adversarial peers collude: eclipse capture rewires victims toward
    /// every non-honest peer.
    #[inline]
    pub fn is_adversarial(self) -> bool {
        !matches!(self, Self::Honest)
    }
}

/// Counters kept by the adversary layer itself; the auditor reconciles
/// `absorbed` exactly against its own mirror of the announced events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Sends absorbed by a free-riding target (never queued for delivery).
    pub absorbed: u64,
    /// Peers assigned the ad-spam role.
    pub spam_peers: u64,
    /// Peers assigned the free-rider role.
    pub free_riders: u64,
    /// Overlay edges rewired toward colluders at attach time.
    pub eclipsed_edges: u64,
}

/// Assign every peer a role. Pure function of (plan, peer count, run seed):
/// one draw per peer when any fraction is enabled, zero draws otherwise.
///
/// The spam band `[0, spam_ppm)` comes first, so changing
/// `free_rider_ppm` never changes *which* peers are spammers — fractions
/// can be swept independently.
pub fn assign_roles(plan: &AdversaryPlan, num_peers: usize, run_seed: u64) -> Vec<AdversaryRole> {
    let mut roles = vec![AdversaryRole::Honest; num_peers];
    if plan.spam_ppm == 0 && plan.free_rider_ppm == 0 {
        return roles;
    }
    let mut rng = SmallRng::seed_from_u64(run_seed ^ ADVERSARY_STREAM_SALT);
    for role in roles.iter_mut() {
        let draw = rng.gen_range(0..PPM_SCALE);
        if draw < plan.spam_ppm {
            *role = AdversaryRole::AdSpammer;
        } else if draw < plan.spam_ppm + plan.free_rider_ppm {
            *role = AdversaryRole::FreeRider;
        }
    }
    roles
}

/// Does a message of `class` addressed to a peer of `role` get absorbed?
/// Pure — draws no randomness, so enabling the adversary layer never
/// perturbs any RNG stream mid-run.
#[inline]
pub fn absorbs(role: AdversaryRole, class: MsgClass) -> bool {
    role == AdversaryRole::FreeRider
        && matches!(
            class,
            MsgClass::Query | MsgClass::AdsRequest | MsgClass::Confirm
        )
}

/// Live adversary-layer state: the plan, the per-peer role table, and the
/// running statistics. Holds no RNG — all randomness is consumed at
/// construction.
#[derive(Debug)]
pub struct AdversaryState {
    plan: AdversaryPlan,
    roles: Vec<AdversaryRole>,
    stats: AdversaryStats,
}

impl AdversaryState {
    /// Assign roles on the dedicated stream and freeze them for the run.
    pub fn new(plan: AdversaryPlan, num_peers: usize, run_seed: u64) -> Self {
        debug_assert!(plan.validate().is_ok(), "invalid adversary plan");
        let roles = assign_roles(&plan, num_peers, run_seed);
        let stats = AdversaryStats {
            spam_peers: roles
                .iter()
                .filter(|r| **r == AdversaryRole::AdSpammer)
                .count() as u64,
            free_riders: roles
                .iter()
                .filter(|r| **r == AdversaryRole::FreeRider)
                .count() as u64,
            ..AdversaryStats::default()
        };
        Self { plan, roles, stats }
    }

    /// Rebuild an adversary layer mid-run from checkpointed state. Roles are
    /// *recomputed* rather than serialized: [`assign_roles`] is a pure
    /// function of `(plan, num_peers, run_seed)`, all of which the checkpoint
    /// carries, so the table comes back bit-identical. Eclipse rewiring is
    /// **not** reapplied — the checkpointed overlay adjacency already has it.
    pub fn from_parts(
        plan: AdversaryPlan,
        num_peers: usize,
        run_seed: u64,
        stats: AdversaryStats,
    ) -> Self {
        debug_assert!(plan.validate().is_ok(), "invalid adversary plan");
        let roles = assign_roles(&plan, num_peers, run_seed);
        Self { plan, roles, stats }
    }

    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    pub fn stats(&self) -> &AdversaryStats {
        &self.stats
    }

    pub fn into_stats(self) -> AdversaryStats {
        self.stats
    }

    /// The frozen role of `peer` (Honest for out-of-range ids).
    #[inline]
    pub fn role(&self, peer: PeerId) -> AdversaryRole {
        self.roles
            .get(peer.0 as usize)
            .copied()
            .unwrap_or(AdversaryRole::Honest)
    }

    /// Colluding peers in id order (used for eclipse rewiring).
    pub fn colluders(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_adversarial())
            .map(|(i, _)| PeerId(i as u32))
    }

    /// Decide whether a send to `to` of `class` is absorbed, updating stats.
    #[inline]
    pub fn absorb(&mut self, to: PeerId, class: MsgClass) -> bool {
        if absorbs(self.role(to), class) {
            self.stats.absorbed += 1;
            true
        } else {
            false
        }
    }

    /// Record `n` overlay edges rewired toward colluders at attach time.
    pub fn note_eclipsed(&mut self, n: u64) {
        self.stats.eclipsed_edges += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_plan() -> AdversaryPlan {
        AdversaryPlan {
            spam_ppm: 100_000,
            free_rider_ppm: 250_000,
            eclipse: vec![EclipseTarget {
                victim: PeerId(0),
                captured_links: 4,
            }],
        }
    }

    #[test]
    fn inert_plan_is_inert_and_never_absorbs() {
        let plan = AdversaryPlan::none();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
        let mut a = AdversaryState::new(plan, 500, 7);
        for i in 0..500u32 {
            assert_eq!(a.role(PeerId(i)), AdversaryRole::Honest);
            assert!(!a.absorb(PeerId(i), MsgClass::Query));
        }
        assert_eq!(*a.stats(), AdversaryStats::default());
    }

    #[test]
    fn same_seed_same_roles() {
        let plan = mixed_plan();
        assert_eq!(
            assign_roles(&plan, 2_000, 42),
            assign_roles(&plan, 2_000, 42)
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = mixed_plan();
        assert_ne!(
            assign_roles(&plan, 2_000, 1),
            assign_roles(&plan, 2_000, 2),
            "role assignment must depend on the run seed"
        );
    }

    #[test]
    fn role_fractions_roughly_match_ppm() {
        let a = AdversaryState::new(mixed_plan(), 20_000, 3);
        let s = a.stats();
        // 10% spam, 25% free riders, ±2% absolute at n = 20k is > 9 sigma.
        assert!(
            (20_000u64 / 10).abs_diff(s.spam_peers) < 400,
            "spam {} of 20k",
            s.spam_peers
        );
        assert!(
            (20_000u64 / 4).abs_diff(s.free_riders) < 400,
            "free riders {} of 20k",
            s.free_riders
        );
    }

    #[test]
    fn spam_band_is_stable_under_free_rider_sweep() {
        // Sweeping the free-rider fraction must never change which peers
        // are spammers: the spam band comes first in the single draw.
        let spam_set = |free_ppm| {
            let plan = AdversaryPlan {
                spam_ppm: 100_000,
                free_rider_ppm: free_ppm,
                eclipse: Vec::new(),
            };
            assign_roles(&plan, 3_000, 9)
                .into_iter()
                .enumerate()
                .filter(|(_, r)| *r == AdversaryRole::AdSpammer)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(spam_set(0), spam_set(400_000));
    }

    #[test]
    fn absorb_matrix_covers_request_classes_only() {
        for class in MsgClass::ALL {
            let request = matches!(
                class,
                MsgClass::Query | MsgClass::AdsRequest | MsgClass::Confirm
            );
            assert_eq!(absorbs(AdversaryRole::FreeRider, class), request);
            assert!(!absorbs(AdversaryRole::Honest, class));
            assert!(!absorbs(AdversaryRole::AdSpammer, class));
        }
    }

    #[test]
    fn absorb_updates_stats_exactly() {
        let plan = AdversaryPlan {
            free_rider_ppm: PPM_SCALE,
            ..AdversaryPlan::default()
        };
        let mut a = AdversaryState::new(plan, 10, 5);
        assert!(a.absorb(PeerId(3), MsgClass::Query));
        assert!(a.absorb(PeerId(4), MsgClass::Confirm));
        assert!(!a.absorb(PeerId(4), MsgClass::ConfirmReply));
        assert_eq!(a.stats().absorbed, 2);
        assert_eq!(a.stats().free_riders, 10);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(AdversaryPlan {
            spam_ppm: 600_000,
            free_rider_ppm: 600_000,
            ..AdversaryPlan::default()
        }
        .validate()
        .is_err());
        assert!(AdversaryPlan {
            eclipse: vec![EclipseTarget {
                victim: PeerId(1),
                captured_links: 0
            }],
            ..AdversaryPlan::default()
        }
        .validate()
        .is_err());
    }
}
