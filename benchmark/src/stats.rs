//! Order statistics over a handful of repeats.
//!
//! Every timing is reported as median, min, max, quartiles and `n`. With
//! fewer than eleven samples no percentile beyond the quartiles is claimed.

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// The samples in the order they were measured.
    pub values: Vec<f64>,
}

impl Summary {
    /// # Panics
    /// Panics on an empty sample: a metric with no measurement is a bug.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            n,
            median,
            min: sorted[0],
            max: sorted[n - 1],
            q1: quartile(&sorted, 1),
            q3: quartile(&sorted, 3),
            values: values.to_vec(),
        }
    }

    /// Interquartile range as a share of the median: the run-to-run spread
    /// a bound is compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        obj([
            ("unit", Json::from(unit)),
            ("median", Json::from(self.median)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("n", Json::from(self.n)),
            ("values", Json::from(self.values.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let values: Vec<f64> = v
            .arr("values")?
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric sample".to_string()))
            .collect::<Result<_, _>>()?;
        if values.is_empty() {
            return Err("metric has no samples".to_string());
        }
        Ok(Self::of(&values))
    }
}

/// Quartile `i` (1 or 3) of sorted data, by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so spreads computed
/// here agree with an outside checker's.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let s = Summary::of(&[10.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.q3), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn extremes_and_order_are_kept() {
        let s = Summary::of(&[5.0, 9.0, 1.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 3));
        assert_eq!(s.values, vec![5.0, 9.0, 1.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 20.0, 30.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let s = Summary::of(&[4.5, 4.25, 4.75, 4.4, 4.6]);
        let back = Summary::from_json(&Json::parse(&s.to_json("s").compact()).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
