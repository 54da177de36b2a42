//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for an empty slice, so an unexercised layer reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it
/// (`p_hi = 1 − 10/n`). Below twenty samples that percentile is under the
/// median — there is no tail to report — and the median is returned.
pub fn p_hi(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 20 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[n - 11]
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the benchmark
/// contract's spread is defined with.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // Ten samples (31..=40) lie beyond the reported value.
        assert_eq!(p_hi(&v), 30.0);
        assert_eq!(p_hi(&v[..15]), 8.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
