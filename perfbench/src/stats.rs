//! Order statistics over a run's samples.

/// Median of `xs` (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `q` over `(value, weight)` samples: each
/// value counts `weight` times. 0 when the weights sum to 0.
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut v: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|s| s.1).sum();
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0;
    for (value, weight) in v {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_percentile_counts_each_value_by_its_weight() {
        let s = [(3.0, 1), (1.0, 98), (2.0, 1)];
        assert_eq!(weighted_percentile(&s, 0.5), 1.0);
        assert_eq!(weighted_percentile(&s, 0.99), 2.0);
        assert_eq!(weighted_percentile(&s, 1.0), 3.0);
        assert_eq!(weighted_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
