//! Protocol-robustness knobs: retry budgets and backoff pacing for an
//! unreliable network (see `asap_sim::fault`).
//!
//! All knobs default to **zero/inert**: with the default config ASAP sends
//! no extra message and — crucially — arms no extra timer, so a fault-free
//! run's replay digest is bit-for-bit identical to the pre-robustness
//! protocol (timer dispatches are digested even when they no-op). The lossy
//! bench profiles enable retries via [`RobustnessConfig::lossy`].
//!
//! The actual backoff state machine is [`asap_sim::util::Backoff`], shared
//! with the baseline protocols in `asap-search`.

use crate::search::CONFIRM_TIMEOUT_US;
pub use asap_sim::util::Backoff;

/// First retransmit delay for fetches and re-advertisements, µs.
pub const BACKOFF_BASE_US: u64 = 1_000_000;

/// Retry budgets and backoff pacing for ASAP's three robustness paths:
/// content-confirmation retry, repair-fetch retransmit, and ad
/// re-advertisement on unacknowledged delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessConfig {
    /// Extra confirmation rounds after the first confirm timeout expires
    /// (0 = fall back immediately, the paper's behavior).
    pub confirm_retries: u32,
    /// Retransmissions of an unanswered direct full-ad fetch.
    pub fetch_retries: u32,
    /// Re-announcements of an initial/join ad wave that attracted no
    /// full-ad fetch (the delivery went unacknowledged).
    pub readvert_retries: u32,
    /// Ceiling for the doubled backoff delays, µs.
    pub backoff_cap_us: u64,
}

impl Default for RobustnessConfig {
    /// Inert: no retries, no extra timers, no behavioral change.
    fn default() -> Self {
        Self {
            confirm_retries: 0,
            fetch_retries: 0,
            readvert_retries: 0,
            backoff_cap_us: 16_000_000,
        }
    }
}

impl RobustnessConfig {
    /// The preset used by the lossy bench profiles: a handful of retries
    /// paced well under the simulation's 30 s post-trace grace window.
    pub fn lossy() -> Self {
        Self {
            confirm_retries: 2,
            fetch_retries: 3,
            readvert_retries: 2,
            backoff_cap_us: 8_000_000,
        }
    }

    /// True iff any retry path is active.
    pub fn enabled(&self) -> bool {
        self.confirm_retries > 0 || self.fetch_retries > 0 || self.readvert_retries > 0
    }

    /// Backoff for repair-fetch retransmits.
    pub fn fetch_backoff(&self) -> Backoff {
        Backoff::new(BACKOFF_BASE_US, self.backoff_cap_us, self.fetch_retries)
    }

    /// Backoff for ad re-advertisements.
    pub fn readvert_backoff(&self) -> Backoff {
        Backoff::new(BACKOFF_BASE_US, self.backoff_cap_us, self.readvert_retries)
    }

    /// Backoff for confirmation retries: the first retry waits twice the
    /// confirm timeout, then doubles up to the cap.
    pub fn confirm_backoff(&self) -> Backoff {
        Backoff::new(
            CONFIRM_TIMEOUT_US.saturating_mul(2),
            self.backoff_cap_us.max(CONFIRM_TIMEOUT_US),
            self.confirm_retries,
        )
    }

    pub fn validate(&self) {
        assert!(
            self.backoff_cap_us >= BACKOFF_BASE_US,
            "backoff cap below base"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let r = RobustnessConfig::default();
        r.validate();
        assert!(!r.enabled());
        assert!(r.fetch_backoff().exhausted());
        assert!(r.readvert_backoff().exhausted());
        assert!(r.confirm_backoff().exhausted());
    }

    #[test]
    fn lossy_preset_enables_all_paths() {
        let r = RobustnessConfig::lossy();
        r.validate();
        assert!(r.enabled());
        let mut b = r.confirm_backoff();
        assert_eq!(b.next(), Some(4_000_000), "first retry at 2x the timeout");
        assert_eq!(b.next(), Some(8_000_000));
        assert_eq!(b.next(), None);
    }

    #[test]
    #[should_panic(expected = "cap below base")]
    fn inverted_backoff_rejected() {
        RobustnessConfig {
            backoff_cap_us: BACKOFF_BASE_US - 1,
            ..RobustnessConfig::default()
        }
        .validate();
    }
}
