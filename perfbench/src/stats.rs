//! Order statistics over raw samples.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`, and how many
/// samples lie beyond it. Sorts in place.
pub fn percentile(samples: &mut [u64], q: f64) -> (u64, usize) {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    (samples[rank - 1], samples.len() - rank)
}

/// Median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_the_tail_count() {
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut s, 0.99), (990, 10));
        assert_eq!(percentile(&mut s, 0.5), (500, 500));
        let mut v = vec![3.0, 1.0, 2.0, 10.0];
        assert!((median(&mut v) - 2.5).abs() < 1e-12);
    }
}
