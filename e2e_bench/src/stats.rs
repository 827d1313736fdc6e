//! Order statistics of timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between closest ranks (the "inclusive" method, as in Python's
/// `statistics.quantiles(..., method="inclusive")`).  `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let fraction = position - lower as f64;
    Some(sorted[lower] + (sorted[upper] - sorted[lower]) * fraction)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest percentile with at least ten samples beyond it, as a
/// fraction (`None` below eleven samples).
pub fn tail_quantile(count: usize) -> Option<f64> {
    (count > 10).then(|| ((count - 10) as f64 / count as f64 * 100.0).floor() / 100.0)
}

/// A one-line summary of a timing series for the diagnostics log: sample
/// count, median, interquartile range as a share of the median, and the
/// tail percentile when there are enough samples for it.
pub fn summary(values: &[f64]) -> String {
    let (Some(mid), Some(q1), Some(q3)) = (
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75),
    ) else {
        return "n=0".to_string();
    };
    let spread = if mid > 0.0 { (q3 - q1) / mid } else { 0.0 };
    let mut text = format!("n={} median={mid:.6} iqr/median={spread:.4}", values.len());
    if let Some(q) = tail_quantile(values.len()) {
        let tail = quantile(values, q).expect("non-empty");
        text.push_str(&format!(" p{:.0}={tail:.6}", q * 100.0));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&values, 0.0), Some(10.0));
        assert_eq!(quantile(&values, 1.0), Some(50.0));
        assert_eq!(quantile(&values, 0.25), Some(20.0));
        assert_eq!(quantile(&values, 0.9), Some(46.0));
        // Out-of-range requests clamp instead of indexing out of bounds.
        assert_eq!(quantile(&values, 1.5), Some(50.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(61), Some(0.83));
        assert!(summary(&[1.0; 30]).contains("p66="));
        assert_eq!(summary(&[]), "n=0");
    }
}
