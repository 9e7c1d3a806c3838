//! Order statistics of a sample: the median a metric reports, and the
//! quartiles the A/A mode needs to state a spread.

/// Median of `values` (mean of the two middle elements for an even count).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method (positions `(n + 1) / 4`
/// and `3 (n + 1) / 4`, linearly interpolated and clamped to the sample) —
/// the method of Python's `statistics.quantiles(values, n=4)`, so a spread
/// computed here matches one computed there. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        // 1-based position quarter·(n+1)/4, split into whole and remainder.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 - (4 * j) as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_of_unsorted_input() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the exclusive
        // method extrapolates past a two-element sample.
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
