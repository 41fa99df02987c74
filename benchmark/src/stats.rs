//! Medians, quartiles, percentiles and the censored-median rule.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "median of no samples");
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver uses that
/// function, so spreads computed here match its). One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Percentile of whole-number samples given as a histogram
/// (`hist[k]` = samples equal to `k`), by the grouped-data rule: value
/// `k` stands for the class `k - 0.5 .. k + 0.5` and the percentile is
/// interpolated inside the class it falls in. Latencies in rounds are
/// whole numbers, so a plain percentile jumps by a whole round when one
/// sample moves; this one moves with the share of samples in the class.
pub fn grouped_percentile(hist: &[u64], p: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    assert!(total > 0, "percentile of an empty histogram");
    let target = p * total as f64;
    let mut below = 0u64;
    for (k, &count) in hist.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            let inside = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
            return k as f64 - 0.5 + inside;
        }
        below += count;
    }
    hist.len() as f64 - 0.5
}

/// The censored-median rule: an instance that never settled inside the
/// observation window counts as the window length, and the median is
/// taken over all instances. So the median is exact while more than
/// half the instances settle, and reads about `window` (a lower bound)
/// otherwise. Settle times are whole rounds, so the median is the
/// grouped one: with a few instances that tie, it moves by the share of
/// instances in the class instead of jumping a whole round.
pub fn censored_median(settled_at: &[Option<u64>], window: u64) -> f64 {
    let mut hist = vec![0u64; window as usize + 1];
    for s in settled_at {
        hist[s.unwrap_or(window).min(window) as usize] += 1;
    }
    grouped_percentile(&hist, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn grouped_percentile_interpolates_inside_the_class() {
        // 10 samples of 3: the median sits in the middle of class 3.
        let mut hist = vec![0, 0, 0, 10];
        assert_eq!(grouped_percentile(&hist, 0.5), 3.0);
        // 4 of 2, 6 of 3: the 5th sample is 1/6 into class 3.
        hist[2] = 4;
        hist[3] = 6;
        assert!((grouped_percentile(&hist, 0.5) - (2.5 + 1.0 / 6.0)).abs() < 1e-12);
        // One sample moving from 3 to 4 moves the p99 by a fraction, not a round.
        let a = grouped_percentile(&[0, 0, 0, 990, 10], 0.99);
        let b = grouped_percentile(&[0, 0, 0, 989, 11], 0.99);
        assert!(a < b && b - a < 0.2, "{a} {b}");
    }

    #[test]
    fn censored_median_counts_the_unsettled_as_the_window() {
        assert_eq!(censored_median(&[Some(10), Some(30), Some(20)], 100), 20.0);
        assert_eq!(censored_median(&[Some(6)], 100), 6.0);
        // Most unsettled: the median is in the window's class, a lower bound.
        assert_eq!(censored_median(&[Some(10), None, None], 100), 99.75);
        // One unsettled instance out of three does not move the median.
        assert_eq!(censored_median(&[Some(10), Some(30), None], 100), 30.0);
        // A settle beyond the window cannot be observed; it is clipped.
        assert_eq!(censored_median(&[Some(500)], 100), 100.0);
        // Ties move the median by shares of a round, not by whole rounds.
        assert_eq!(
            censored_median(&[Some(6), Some(6), Some(7), Some(6), Some(5)], 100),
            6.0
        );
        assert_eq!(
            censored_median(&[Some(6), Some(7), Some(7), Some(6), Some(5)], 100),
            6.25
        );
    }
}
