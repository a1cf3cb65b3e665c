//! Order statistics used by every reported timing.

/// Minimum number of samples that must lie strictly beyond a reported
/// tail percentile (choosing-metrics §1): a p90 needs at least 100
/// samples, a p99 at least 1000.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`): the element at index
/// `round((n - 1) * q)` of the sorted sample. `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[((sorted.len() - 1) as f64 * q).round() as usize])
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// A tail percentile that is only reported when at least
/// [`MIN_BEYOND`] samples lie beyond it (see [`beyond`]). Below that the
/// "percentile" is just one of the few largest samples and moves from
/// run to run.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile(xs, q)
}

/// Samples lying strictly beyond the nearest-rank `q` quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - ((n - 1) as f64 * q).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_1_to_100() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(51.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 100: p90 sits at index 89 (value 90), with exactly the ten
        // samples 91..=100 beyond it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_quantile(&xs, 0.9), Some(90.0));
        // n = 95 puts p90 at index round(94 * 0.9) = 85, leaving only
        // nine beyond: not reportable.
        assert_eq!(beyond(95, 0.9), 9);
        assert_eq!(tail_quantile(&xs[..95], 0.9), None);
        // A p99 needs a thousand samples.
        assert_eq!(tail_quantile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(&many, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }
}
