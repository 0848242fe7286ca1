//! Small sampling helpers (Zipf and geometric) built on `rand`'s primitives.

use rand::rngs::SmallRng;
use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank) ∝ 1/(rank+1)^s`, sampled by inverse CDF through a guide table.
///
/// A draw `u` maps to the first rank whose CDF is ≥ `u`. On a strictly
/// increasing CDF (the tests assert it for every shape the workload builds)
/// that is the one rank a binary search over the CDF returns, so the guide
/// table changes the cost of a draw, not its outcome. On a CDF with ties
/// (a tail mass below the accumulator's ulp) it returns the first tied
/// rank, where `binary_search_by` was free to return any of them.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `K = 4·2^⌈log₂ n⌉` bucket starts: `guide[b]` is the first rank whose
    /// CDF is ≥ `b/K` (at most `n - 1`). `K` is a power of two, so `b/K`
    /// and `u·K` are exact in `f64`.
    guide: Vec<u32>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n` is 0 or does not fit the `u32` guide entries.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "Zipf ranks must fit u32");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let buckets = 4 * n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for b in 0..buckets {
            let edge = b as f64 / buckets as f64;
            while rank + 1 < n && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Self { cdf, guide }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank in `0..n` from one `f64` of `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF is ≥ `u` (the last rank if none is), for a
    /// uniform `u` in `[0, 1)`. Every rank below `guide[⌊u·K⌋]` has a CDF
    /// below `⌊u·K⌋/K ≤ u`, so the forward scan starts at or before the
    /// answer; with `K ≥ 4n` buckets it is short.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let buckets = self.guide.len();
        let bucket = ((u * buckets as f64) as usize).min(buckets - 1);
        let mut rank = self.guide[bucket] as usize;
        while rank + 1 < self.cdf.len() && self.cdf[rank] < u {
            rank += 1;
        }
        rank
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
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The binary search over the CDF that the guide table replaced.
    fn reference_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1),
        }
    }

    fn assert_strictly_increasing(z: &Zipf) {
        assert!(
            z.cdf.windows(2).all(|w| w[0] < w[1]),
            "CDF of n = {} has ties",
            z.len()
        );
    }

    /// Every point where the answer can change: each CDF value and bucket
    /// edge with its two `f64` neighbours, plus both ends of `[0, 1)`.
    fn edge_probes(z: &Zipf) -> Vec<f64> {
        let around = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        let buckets = z.guide.len();
        let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        probes.extend(z.cdf.iter().flat_map(|&c| around(c)));
        probes.extend((1..buckets).flat_map(|b| around(b as f64 / buckets as f64)));
        probes
    }

    /// The guide-table search returns the binary search's rank at every
    /// edge of every shape the workload builds: the class popularity
    /// (14, 0.95), the per-class keyword ranks at each scale's vocabulary
    /// (2,000 / 300 / 200 / 50, exponent 1), and two small shapes.
    #[test]
    fn rank_of_matches_binary_search_at_every_edge() {
        let shapes = [
            (14, 0.95),
            (2_000, 1.0),
            (300, 1.0),
            (200, 1.0),
            (50, 1.0),
            (1, 1.0),
            (5, 2.0),
        ];
        for (n, s) in shapes {
            let z = Zipf::new(n, s);
            assert_strictly_increasing(&z);
            assert_eq!(z.guide.len(), 4 * n.next_power_of_two());
            for u in edge_probes(&z) {
                assert_eq!(
                    z.rank_of(u),
                    reference_rank(&z.cdf, u),
                    "n = {n}, s = {s}, u = {u:e}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random shapes (each CDF strictly increasing) and random draws:
        /// same rank as the binary search.
        #[test]
        fn rank_of_matches_binary_search_on_random_shapes(
            n in 1usize..=4_096,
            s_milli in 500u32..=2_000,
            draws in prop::collection::vec(any::<u64>(), 64..65),
        ) {
            let z = Zipf::new(n, f64::from(s_milli) / 1_000.0);
            assert_strictly_increasing(&z);
            for bits in draws {
                // The same mapping `rng.gen::<f64>()` applies.
                let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
                prop_assert_eq!(z.rank_of(u), reference_rank(&z.cdf, u), "n = {}, u = {:e}", n, u);
            }
        }
    }

    #[test]
    fn sample_draws_one_f64_per_rank() {
        let z = Zipf::new(2_000, 1.0);
        let mut a = SmallRng::seed_from_u64(6);
        let mut b = a.clone();
        for _ in 0..1_000 {
            let u: f64 = b.gen();
            assert_eq!(z.sample(&mut a), reference_rank(&z.cdf, u));
        }
    }

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
