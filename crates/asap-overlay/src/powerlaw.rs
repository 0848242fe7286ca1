//! Power-law overlay via the configuration model (paper: "node degrees …
//! follow a powerlaw distribution with α = −0.74", average degree 5).
//!
//! Degrees are drawn from a truncated discrete power law whose cutoff is
//! fitted so the mean lands on the target; stubs are then paired uniformly at
//! random, discarding self-loops and multi-edges (which loses a few stubs —
//! acceptable, the average is re-checked in tests), and the result is
//! repaired to connectivity.

use crate::degree::{degree_sequence, TruncatedPowerLaw};
use crate::graph::{Overlay, PeerId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

pub fn generate(n: usize, avg_degree: f64, alpha: f64, rng: &mut SmallRng) -> Overlay {
    let mut g = wire(n, avg_degree, alpha, rng);
    g.repair_connectivity(rng);
    g
}

/// Degree draw and stub pairing alone, before the connectivity repair.
pub(crate) fn wire(n: usize, avg_degree: f64, alpha: f64, rng: &mut SmallRng) -> Overlay {
    let cutoff = TruncatedPowerLaw::fit_cutoff(alpha, avg_degree, n);
    let dist = TruncatedPowerLaw::new(alpha, cutoff);
    let degs = degree_sequence(&dist, n, avg_degree, rng);
    pair_stubs(n, &degs, rng)
}

/// Configuration-model pairing of a degree sequence (not yet repaired).
pub(crate) fn pair_stubs(n: usize, degs: &[usize], rng: &mut SmallRng) -> Overlay {
    let mut stubs: Vec<PeerId> = Vec::with_capacity(degs.iter().sum());
    for (i, &d) in degs.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(PeerId(i as u32), d));
    }
    stubs.shuffle(rng);
    let mut g = Overlay::with_peers(n);
    for pair in stubs.chunks_exact(2) {
        // add_edge drops self-loops and duplicates.
        g.add_edge(pair[0], pair[1]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn average_degree_near_target() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generate(2_000, 5.0, -0.74, &mut rng);
        let avg = g.avg_degree();
        assert!((avg - 5.0).abs() < 0.8, "avg {avg}");
    }

    #[test]
    fn connected() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(generate(800, 5.0, -0.74, &mut rng).is_connected());
    }

    #[test]
    fn has_heavier_tail_than_random() {
        fn degree_variance(g: &Overlay) -> f64 {
            let n = g.num_peers() as f64;
            let mean = g.avg_degree();
            (0..g.num_peers())
                .map(|i| {
                    let d = g.degree(crate::PeerId(i as u32)) as f64;
                    (d - mean) * (d - mean)
                })
                .sum::<f64>()
                / n
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let pl = generate(2_000, 5.0, -0.74, &mut rng);
        let rnd = crate::random::generate(2_000, 5.0, &mut rng);
        let (vp, vr) = (degree_variance(&pl), degree_variance(&rnd));
        // A binomial random graph has variance ≈ mean (~5); the truncated
        // power law at the same mean spreads far wider.
        assert!(
            vp > vr * 2.0,
            "powerlaw degree variance {vp} should dwarf random's {vr}"
        );
    }

    #[test]
    fn pairing_respects_degree_sequence_approximately() {
        let mut rng = SmallRng::seed_from_u64(4);
        let degs = vec![3usize; 100];
        let g = pair_stubs(100, &degs, &mut rng);
        // Self-loop/duplicate discards lose a few edges; expect ≥ 90%.
        assert!(g.num_edges() >= 135, "{} edges", g.num_edges());
        assert!(g.num_edges() <= 150 + 5, "{} edges", g.num_edges());
    }
}
