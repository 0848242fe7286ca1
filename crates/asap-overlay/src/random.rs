//! Uniform random overlay: `G(n, M)` with `M = ⌈n · avg/2⌉` edges, repaired
//! to connectivity (paper: "connections are randomly created with an average
//! node degree of 5").

use crate::graph::{Overlay, PeerId};
use rand::rngs::SmallRng;
use rand::Rng;

pub fn generate(n: usize, avg_degree: f64, rng: &mut SmallRng) -> Overlay {
    let mut g = wire(n, avg_degree, rng);
    g.repair_connectivity(rng);
    g
}

/// The `G(n, M)` wiring alone, before the connectivity repair.
pub(crate) fn wire(n: usize, avg_degree: f64, rng: &mut SmallRng) -> Overlay {
    let mut g = Overlay::with_peers(n);
    let target_edges = ((n as f64 * avg_degree) / 2.0).round() as usize;
    let mut added = 0;
    let mut attempts = 0;
    let max_attempts = target_edges * 20 + 100;
    while added < target_edges && attempts < max_attempts {
        attempts += 1;
        let a = PeerId(rng.gen_range(0..n as u32));
        let b = PeerId(rng.gen_range(0..n as u32));
        if g.add_edge(a, b) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hits_average_degree() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generate(1_000, 5.0, &mut rng);
        assert!((g.avg_degree() - 5.0).abs() < 0.2, "{}", g.avg_degree());
    }

    #[test]
    fn connected() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(generate(500, 5.0, &mut rng).is_connected());
    }

    #[test]
    fn degree_distribution_is_concentrated() {
        // A random graph's degrees hug the mean — no heavy tail.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generate(2_000, 5.0, &mut rng);
        let max = g.degree_histogram().len() - 1;
        assert!(
            max < 25,
            "random overlay should have no big hubs, max {max}"
        );
    }

    #[test]
    fn tiny_network() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generate(2, 1.0, &mut rng);
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 1);
    }
}
