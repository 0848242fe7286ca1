//! Crawled-Limewire-like overlay.
//!
//! **Substitution note (see DESIGN.md §5).** The paper's third overlay is
//! "derived from a crawled Limewire network topology with an average node
//! degree 3.35"; the crawl itself is not available. Gnutella/Limewire crawls
//! of that era consistently show a heavy-tailed degree distribution with an
//! exponential cutoff and a large fraction of low-degree leaves. We
//! reconstruct that shape: degrees from a truncated power law (α ≈ −1.7,
//! steeper than the paper's synthetic power-law overlay, hence many leaves)
//! nudged to mean 3.35, paired with the configuration model, repaired to
//! connectivity. The two published properties — average degree 3.35 and
//! heavy tail — are reproduced exactly/structurally.

use crate::graph::Overlay;
use crate::powerlaw;
use rand::rngs::SmallRng;

/// Degree exponent chosen to mimic measured Gnutella crawls (leaf-heavy).
pub(crate) const CRAWL_ALPHA: f64 = -1.7;
/// The paper's measured average degree for the crawled topology.
pub const CRAWL_AVG_DEGREE: f64 = 3.35;

pub fn generate(n: usize, rng: &mut SmallRng) -> Overlay {
    powerlaw::generate(n, CRAWL_AVG_DEGREE, CRAWL_ALPHA, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn average_degree_is_3_35ish() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generate(2_000, &mut rng);
        let avg = g.avg_degree();
        assert!((avg - CRAWL_AVG_DEGREE).abs() < 0.5, "avg {avg}");
    }

    #[test]
    fn connected() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(generate(700, &mut rng).is_connected());
    }

    #[test]
    fn leaf_heavy() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generate(2_000, &mut rng);
        let hist = g.degree_histogram();
        let low: usize = hist.iter().take(3).sum(); // degree ≤ 2
        assert!(
            low * 3 > g.num_peers(),
            "expected ≥ 1/3 of peers at degree ≤ 2, got {low}/{}",
            g.num_peers()
        );
    }

    #[test]
    fn has_hubs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generate(2_000, &mut rng);
        let max = g.degree_histogram().len() - 1;
        assert!(
            max >= 12,
            "crawled overlay should have hubs, max degree {max}"
        );
    }
}
