//! Order statistics over a handful of timing samples.

/// The median (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method the benchmark contract names), so
/// a spread computed here matches the one the driver computes. `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the contract bounds. `0.0` when undefined (fewer than two values or
/// a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` →
    /// `[2.75, 5.5, 8.25]`; `quantiles([10, 20], n=4)` → `[7.5, 15.0, 22.5]`;
    /// `quantiles([1, 2, 4, 8, 16], n=4)` → `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
