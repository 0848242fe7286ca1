//! Small sampling helpers (Zipf and geometric) built on `rand`'s primitives.

use rand::rngs::SmallRng;
use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank) ∝ 1/(rank+1)^s`, sampled by inverse CDF (binary search).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Self { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// Geometric sample with the given mean (support `0, 1, 2, …`), via
/// inversion. `mean = (1-p)/p`.
pub fn geometric(mean: f64, rng: &mut SmallRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (mean + 1.0);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (u.ln() / (1.0 - p).ln()).floor() as usize
}

/// Exponential inter-arrival gap in microseconds for a rate of `rate_hz`
/// events per second.
pub fn exp_gap_us(rate_hz: f64, rng: &mut SmallRng) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let secs = -u.ln() / rate_hz;
    (secs * 1e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_normalized() {
        let z = Zipf::new(14, 0.95);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        let total: f64 = (0..14).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_zero_most_likely() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[80]);
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(5, 2.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn geometric_mean_close() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 30_000;
        let sum: usize = (0..n).map(|_| geometric(4.0, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn geometric_degenerate_mean() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(geometric(0.0, &mut rng), 0);
    }

    #[test]
    fn exp_gap_mean_close_to_inverse_rate() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 30_000u64;
        let sum: u64 = (0..n).map(|_| exp_gap_us(8.0, &mut rng)).sum();
        let mean_us = sum as f64 / n as f64;
        // 1/8 s = 125,000 µs
        assert!((mean_us - 125_000.0).abs() < 5_000.0, "mean {mean_us}");
    }
}
