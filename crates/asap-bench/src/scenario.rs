//! Pinned robustness scenario packs: named (adversary profile, flash-crowd
//! switch) pairs, each with its own committed golden matrix.
//!
//! The honest goldens (`replay_tiny.txt`, `replay_tiny_lossy.txt`) pin the
//! paper's perfect-network and lossy behavior; a scenario pack pins behavior
//! under attack or under a flash crowd. `cargo run -p asap-bench
//! --bin golden` regenerates every pack's file next to the honest ones, and
//! `golden --check` verifies them all.

use crate::adversary::AdversaryProfile;
use crate::harness::{GOLDEN_SCALE, GOLDEN_SEED};
use crate::runner::World;

/// One named robustness scenario with a committed golden matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioPack {
    /// 10 % of peers advertise poisoned Bloom filters.
    Spam10,
    /// 25 % of peers absorb queries without forwarding or answering —
    /// the paper's free-rider fraction, but actively adversarial.
    FreeRider25,
    /// Honest peers under a heterogeneous workload: a 6× mid-trace query
    /// spike (flash crowd), no adversaries.
    FlashCrowd,
}

impl ScenarioPack {
    pub const ALL: [ScenarioPack; 3] = [Self::Spam10, Self::FreeRider25, Self::FlashCrowd];

    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "spam10" => Some(Self::Spam10),
            "freeride25" | "freerider25" => Some(Self::FreeRider25),
            "flashcrowd" | "flash-crowd" => Some(Self::FlashCrowd),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Self::Spam10 => "spam10",
            Self::FreeRider25 => "freeride25",
            Self::FlashCrowd => "flashcrowd",
        }
    }

    /// The adversary axis of this scenario.
    pub fn adversary(self) -> AdversaryProfile {
        match self {
            Self::Spam10 => AdversaryProfile::Spam(10),
            Self::FreeRider25 => AdversaryProfile::FreeRider(25),
            Self::FlashCrowd => AdversaryProfile::None,
        }
    }

    /// The workload axis of this scenario: does it spike the arrivals?
    pub fn flash_crowd(self) -> bool {
        self == Self::FlashCrowd
    }

    /// The committed golden file for this scenario, relative to the crate's
    /// `golden/` directory.
    pub fn golden_file(self) -> &'static str {
        match self {
            Self::Spam10 => "replay_tiny_spam10.txt",
            Self::FreeRider25 => "replay_tiny_freeride25.txt",
            Self::FlashCrowd => "replay_tiny_flashcrowd.txt",
        }
    }

    /// Build this scenario's replay world (the golden scale and seed; the
    /// flash crowd perturbs the trace, so it gets its own world).
    pub fn world(self) -> World {
        World::build_with(GOLDEN_SCALE, GOLDEN_SEED, |wl| {
            wl.flash_crowd = self.flash_crowd()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in ScenarioPack::ALL {
            assert_eq!(ScenarioPack::parse(p.label()), Some(p));
        }
        assert_eq!(ScenarioPack::parse("bogus"), None);
    }

    #[test]
    fn every_pack_perturbs_exactly_what_it_names() {
        assert!(!ScenarioPack::Spam10.adversary().is_none());
        assert!(!ScenarioPack::Spam10.flash_crowd());
        assert!(!ScenarioPack::FreeRider25.adversary().is_none());
        assert!(!ScenarioPack::FreeRider25.flash_crowd());
        assert!(ScenarioPack::FlashCrowd.adversary().is_none());
        assert!(ScenarioPack::FlashCrowd.flash_crowd());
    }

    #[test]
    fn golden_files_are_distinct() {
        let mut files: Vec<&str> = ScenarioPack::ALL.iter().map(|p| p.golden_file()).collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), ScenarioPack::ALL.len());
    }
}
