//! Degree-sequence sampling for the heavy-tailed overlay families.

use rand::rngs::SmallRng;
use rand::Rng;

/// A discrete truncated power-law `P(d) ∝ d^alpha` for `d ∈ [1, d_max]`,
/// sampled by inverse CDF over the precomputed mass table.
#[derive(Debug, Clone)]
pub struct TruncatedPowerLaw {
    cdf: Vec<f64>,
}

impl TruncatedPowerLaw {
    /// Build the distribution. `alpha` is the (negative) exponent, e.g. the
    /// paper's −0.74.
    pub fn new(alpha: f64, d_max: usize) -> Self {
        assert!(d_max >= 1);
        let mut cdf = Vec::with_capacity(d_max);
        let mut acc = 0.0;
        for d in 1..=d_max {
            acc += (d as f64).powf(alpha);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Self { cdf }
    }

    /// Expected value of the distribution.
    pub fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (i, &c) in self.cdf.iter().enumerate() {
            mean += (i + 1) as f64 * (c - prev);
            prev = c;
        }
        mean
    }

    /// Draw one degree.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        // First index whose cdf ≥ u.
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Find the cutoff `d_max` whose truncated mean is closest to
    /// `target_mean` (binary search over the cutoff; the mean grows
    /// monotonically with it for `alpha > -2`).
    pub fn fit_cutoff(alpha: f64, target_mean: f64, n: usize) -> usize {
        let hard_cap = n.saturating_sub(1).max(2);
        let (mut lo, mut hi) = (1usize, hard_cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if Self::new(alpha, mid).mean() < target_mean {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.max(2)
    }
}

/// Sample a degree sequence with the exact target *sum* `n · avg` (rounded to
/// the nearest even number, as required for a graphical pairing): draws from
/// the distribution, then nudges entries up/down to hit the sum.
pub fn degree_sequence(
    dist: &TruncatedPowerLaw,
    n: usize,
    avg: f64,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut target = (n as f64 * avg).round() as usize;
    if target % 2 == 1 {
        target += 1;
    }
    let mut degs: Vec<usize> = (0..n).map(|_| dist.sample(rng)).collect();
    let mut sum: usize = degs.iter().sum();
    // Nudge random entries toward the target sum; ±1 steps keep the shape.
    while sum != target {
        let i = rng.gen_range(0..n);
        if sum < target {
            degs[i] += 1;
            sum += 1;
        } else if degs[i] > 1 {
            degs[i] -= 1;
            sum -= 1;
        }
    }
    degs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_normalized_and_monotone() {
        let d = TruncatedPowerLaw::new(-0.74, 50);
        assert!((d.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        for w in d.cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn mean_matches_samples() {
        let d = TruncatedPowerLaw::new(-0.74, 30);
        let mut rng = SmallRng::seed_from_u64(1);
        let trials = 40_000;
        let sum: usize = (0..trials).map(|_| d.sample(&mut rng)).sum();
        let empirical = sum as f64 / trials as f64;
        assert!(
            (empirical - d.mean()).abs() < 0.15,
            "empirical {empirical}, analytic {}",
            d.mean()
        );
    }

    #[test]
    fn fit_cutoff_hits_target_mean() {
        let cutoff = TruncatedPowerLaw::fit_cutoff(-0.74, 5.0, 10_000);
        let mean = TruncatedPowerLaw::new(-0.74, cutoff).mean();
        assert!(
            (mean - 5.0).abs() < 0.5,
            "cutoff {cutoff} gives mean {mean}"
        );
    }

    #[test]
    fn samples_in_range() {
        let d = TruncatedPowerLaw::new(-1.5, 10);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let s = d.sample(&mut rng);
            assert!((1..=10).contains(&s));
        }
    }

    #[test]
    fn degree_sequence_sum_is_even_and_on_target() {
        let d = TruncatedPowerLaw::new(-0.74, 20);
        let mut rng = SmallRng::seed_from_u64(3);
        let degs = degree_sequence(&d, 501, 5.0, &mut rng);
        let sum: usize = degs.iter().sum();
        assert_eq!(sum % 2, 0);
        assert!((sum as f64 - 501.0 * 5.0).abs() <= 1.0);
        assert!(degs.iter().all(|&d| d >= 1));
    }

    #[test]
    fn heavier_tail_with_shallower_alpha() {
        // α = −0.74 puts much more mass on high degrees than α = −2.5.
        let shallow = TruncatedPowerLaw::new(-0.74, 100);
        let steep = TruncatedPowerLaw::new(-2.5, 100);
        assert!(shallow.mean() > steep.mean() * 3.0);
    }
}
