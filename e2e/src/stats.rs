//! Order statistics for small samples.

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 2, 4)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method: position `i·(len+1)/4`, linear
/// interpolation, extrapolating at the ends of very small samples).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    (quantile(&s, 1, 4), quantile(&s, 3, 4))
}

/// Quartile distance as a share of the median — the run-to-run spread
/// every bound in this benchmark is read against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn quantile(s: &[f64], i: usize, n: usize) -> f64 {
    let len = s.len();
    if len == 1 {
        return s[0];
    }
    // 1-based position i·(len+1)/n between order statistics j and j+1.
    let j = (i * (len + 1) / n).clamp(1, len - 1);
    let delta = (i * (len + 1)) as f64 - (j * n) as f64;
    (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
