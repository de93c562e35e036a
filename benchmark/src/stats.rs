//! Order statistics over the benchmark's own samples.

/// Sorts a copy of `samples` ascending (NaN-free input).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0.0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; 0.0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0.0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of every operation's per-pass timings (operations without a
/// sample are left out).
pub fn medians(per_operation: &[Vec<f64>]) -> Vec<f64> {
    per_operation
        .iter()
        .filter(|passes| !passes.is_empty())
        .map(|passes| median(passes))
        .collect()
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// capped at p99: returns `(value, percentile)`. With 1100+ samples this is
/// p99; with fewer it is the order statistic that leaves exactly ten larger
/// samples; with ten or fewer samples no tail exists and the maximum is
/// returned as percentile 1.0 so the caller can see the rule did not apply.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 1.0);
    }
    // Index of the p99 order statistic (nearest rank), pulled down until
    // ten samples lie strictly beyond it.
    let p99 = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = p99.min(n - 1 - TAIL_BEYOND);
    (v[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 50 samples 1..=50: ten beyond → the 40th order statistic.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert!((pct - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tail_is_p99_once_enough_samples_exist() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 1980.0);
        assert!((pct - 0.99).abs() < 1e-12);
        // Exactly at the threshold: 1000 samples leave exactly ten beyond p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 990.0);
        // Just below it the ten-beyond rule binds instead of p99.
        let v: Vec<f64> = (1..=900).map(f64::from).collect();
        assert_eq!(tail(&v).0, 890.0);
    }

    #[test]
    fn tail_without_enough_samples_is_the_maximum() {
        let (value, pct) = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((value, pct), (9.0, 1.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }
}
