//! Logical P2P overlay topologies (paper §IV-A).
//!
//! Three overlays are evaluated: **random** (average degree 5), **power-law**
//! (same average, exponent α = −0.74), and **crawled** (derived from a
//! Limewire crawl, average degree 3.35 — reconstructed here as a heavy-tailed
//! generated graph, see [`crawled`]). 10,000 P2P peers are mapped onto random
//! physical nodes of the transit-stub network; the overlay decides who is a
//! neighbor, the physical network decides what a hop costs.
//!
//! The overlay is mutable: churn detaches a departing peer's edges and
//! re-attaches joining peers with a topology-appropriate rule (uniform for
//! random, degree-preferential for the heavy-tailed families).

pub mod codec;
pub mod collections;
pub mod crawled;
pub mod degree;
pub mod graph;
pub mod powerlaw;
pub mod random;

pub use graph::{Overlay, PeerId};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which overlay family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlayKind {
    /// Uniform random wiring, average degree 5.
    Random,
    /// Power-law degree distribution (α = −0.74), average degree 5.
    PowerLaw,
    /// Crawled-Limewire-like heavy-tailed graph, average degree 3.35.
    Crawled,
}

impl OverlayKind {
    /// All three families, in the paper's presentation order.
    pub const ALL: [OverlayKind; 3] = [Self::Random, Self::PowerLaw, Self::Crawled];

    /// The paper's average degree for this family.
    pub fn avg_degree(self) -> f64 {
        match self {
            Self::Random | Self::PowerLaw => 5.0,
            Self::Crawled => 3.35,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::PowerLaw => "powerlaw",
            Self::Crawled => "crawled",
        }
    }
}

/// Overlay generation parameters.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    pub kind: OverlayKind,
    pub nodes: usize,
    pub seed: u64,
}

impl OverlayConfig {
    pub fn new(kind: OverlayKind, nodes: usize, seed: u64) -> Self {
        Self { kind, nodes, seed }
    }

    /// Generate the overlay graph.
    pub fn build(&self) -> Overlay {
        assert!(self.nodes >= 2, "an overlay needs at least two peers");
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x0E17_AA10_C0DE);
        match self.kind {
            OverlayKind::Random => random::generate(self.nodes, self.kind.avg_degree(), &mut rng),
            OverlayKind::PowerLaw => {
                powerlaw::generate(self.nodes, self.kind.avg_degree(), -0.74, &mut rng)
            }
            OverlayKind::Crawled => crawled::generate(self.nodes, &mut rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_connected_overlays() {
        for kind in OverlayKind::ALL {
            let ov = OverlayConfig::new(kind, 500, 9).build();
            assert_eq!(ov.num_peers(), 500);
            assert!(ov.is_connected(), "{kind:?} must be connected");
        }
    }

    #[test]
    fn average_degrees_close_to_paper() {
        for kind in OverlayKind::ALL {
            let ov = OverlayConfig::new(kind, 2_000, 3).build();
            let avg = ov.avg_degree();
            let target = kind.avg_degree();
            assert!(
                (avg - target).abs() / target < 0.25,
                "{kind:?}: avg degree {avg}, target {target}"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = OverlayConfig::new(OverlayKind::PowerLaw, 300, 4).build();
        let b = OverlayConfig::new(OverlayKind::PowerLaw, 300, 4).build();
        for p in 0..300 {
            assert_eq!(a.neighbors(PeerId(p)), b.neighbors(PeerId(p)));
        }
    }
}
