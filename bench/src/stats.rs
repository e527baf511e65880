//! Order statistics the benchmark reports. Every function takes the
//! samples unsorted and leaves them untouched.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count). Panics on
/// an empty slice: every caller has at least one window or sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending samples: the smallest one with at
/// least `p` of the samples at or below it (`p` in `0.0..=1.0`).
pub fn rank<T: Copy + Into<f64>>(ascending: &[T], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = ((p * ascending.len() as f64).ceil() as usize).clamp(1, ascending.len());
    ascending[rank - 1].into()
}

/// [`rank`] of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    rank(&sorted(samples), p)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(samples, n=4)` gives them (the exclusive
/// method), so `agree` computes the spread the acceptance driver computes.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Coefficient of variation (population standard deviation over mean);
/// 0 for no samples.
pub fn cv(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.99), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0, 3.0], 0.95), 7.0);
        assert_eq!(rank(&[1.5f32, 2.5, 4.0], 0.5), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn cv_of_known_spread() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(cv(&[]), 0.0);
        // mean 3, population sd 1 -> 1/3
        assert!((cv(&[2.0, 4.0, 2.0, 4.0]) - 1.0 / 3.0).abs() < 1e-12);
    }
}
