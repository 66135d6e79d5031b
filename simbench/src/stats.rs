//! Order statistics over host-time samples.

/// Samples that must lie strictly above a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `samples`, for `0 < q <= 1`: the
/// smallest sample with at least a share `q` of all samples at or below
/// it, or `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s.get(rank.clamp(1, s.len().max(1)) - 1).copied()
}

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(percentile, value)`: the sample ranked
/// eleventh from the top, at percentile `100 · (n − 10) / n`. `None`
/// for fewer than 11 samples, where no value has ten above it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    Some((100.0 * (n - TAIL_BEYOND) as f64 / n as f64, s[rank]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&[], 0.9), None);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(18.0));
        assert_eq!(quantile(&v, 0.1), Some(2.0));
        assert_eq!(quantile(&v, 1.0), Some(20.0));
        assert_eq!(quantile(&v, 0.01), Some(1.0));
        // Below ten samples the 90th percentile is the largest.
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.9), Some(5.0));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        for n in 0..=10 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail(&v), None, "{n} samples");
        }
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let (p, x) = tail(&v).expect("11 samples have a tail");
        assert_eq!(x, 0.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // Shuffled 1..=200: the tail is 190 (ten values above it), at
        // the 95th percentile.
        let v: Vec<f64> = (1..=200).map(|i| f64::from((i * 37) % 200 + 1)).collect();
        let (p, x) = tail(&v).expect("200 samples");
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_BEYOND);
        assert!((p - 95.0).abs() < 1e-12);
    }
}
