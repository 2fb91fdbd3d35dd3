//! Order statistics over raw samples (no bucketing).

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// Number of samples strictly above the `q`-quantile: a tail percentile
/// is only reported when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(&mut samples.to_vec(), q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn beyond_counts_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.99), 10);
    }
}
