//! Order statistics: the tail-percentile rule for reported latencies and
//! the quartiles the steadiness command summarizes runs with.

/// A reported tail percentile must leave at least this many samples
/// strictly beyond it; with fewer, the "percentile" is one or two
/// outliers and does not repeat from run to run.
pub const MIN_TAIL: usize = 10;

/// The tail percentile reported, as a quantile.
pub const TAIL_Q: f64 = 0.95;

/// Samples a window needs before its p95 obeys [`MIN_TAIL`].
pub const TAIL_SAMPLES: usize = 20 * MIN_TAIL;

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (rounded down). Unlike the median it
/// moves smoothly when the values fall in two clusters whose sizes vary
/// from run to run (a shared host switching between a fast and a slow
/// state), and unlike the mean it ignores a stray outlier.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "interquartile mean of no values");
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), refused unless
/// at least [`MIN_TAIL`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; at least {MIN_TAIL} are required",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// First quartile, median and third quartile with the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match that definition.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => panic!("quartiles of no values"),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(TAIL_SAMPLES), TAIL_Q), Ok(190.0));
        assert!(tail_percentile(&ramp(TAIL_SAMPLES - 1), TAIL_Q).is_err());
        assert!(tail_percentile(&ramp(999), 0.99).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
        for n in [TAIL_SAMPLES, 201, 1234, 77_777] {
            let s = ramp(n);
            let p = tail_percentile(&s, TAIL_Q).unwrap();
            let beyond = s.iter().filter(|&&x| x > p).count();
            assert!(beyond >= MIN_TAIL, "n={n}: {beyond} beyond p95");
        }
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iq_mean(&[5.0]), 5.0);
        assert_eq!(iq_mean(&[1.0, 3.0]), 2.0);
        // 8 values: drop 2 at each end.
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iq_mean(&ramp(10)), 5.5);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 3.0, 4.5));
        // Python extrapolates for tiny samples:
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        let s = relative_spread(&ramp(10));
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
