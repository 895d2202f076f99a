//! Summary statistics shared by the scorer and the reports.

/// Nearest-rank percentile (`p` in `[0, 1]`), the rule Fig. 11 uses;
/// 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&ns| ns as f64 * 1e-6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
