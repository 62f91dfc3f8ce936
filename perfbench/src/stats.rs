//! Sample summaries with the benchmark's percentile rule.

/// A p90 is reported only from at least this many samples, so that ten
/// samples lie beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

/// The `q`-quantile of `samples` by linear interpolation between the
/// closest ranks (`q` in `[0, 1]`); `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median; `None` for an empty sample.
pub fn p50(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The 90th percentile; `None` below [`MIN_P90_SAMPLES`] samples.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_P90_SAMPLES {
        return None;
    }
    quantile(samples, 0.9)
}

/// Equal time windows a measured phase is cut into for its guarded
/// latencies and rate. Each of them is the median over the windows, so a
/// burst of load from outside that covers fewer than half the windows
/// does not move it.
pub const WINDOWS: usize = 10;

/// Cuts `[0, span]` into `windows` equal slices, groups the values of
/// `samples` (`(time, value)` pairs) by the slice their time falls in, and
/// returns the median over slices of `summary(slice values)`. Samples
/// outside `[0, span]` and slices whose summary is `None` are left out;
/// `None` when every slice is.
pub fn windowed(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    summary: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let mut slices = vec![Vec::new(); windows.max(1)];
    let last = slices.len() - 1;
    for &(t, value) in samples {
        if (0.0..=span).contains(&t) {
            let k = ((t / span) * slices.len() as f64) as usize;
            slices[k.min(last)].push(value);
        }
    }
    let summaries: Vec<f64> = slices.iter().filter_map(|s| summary(s)).collect();
    p50(&summaries)
}

/// The arithmetic mean; `0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_p90_from_fewer_than_a_hundred_samples() {
        let few: Vec<f64> = (0..MIN_P90_SAMPLES - 1).map(|i| i as f64).collect();
        assert_eq!(p90(&few), None);
        assert!(p50(&few).is_some());
        let enough: Vec<f64> = (0..MIN_P90_SAMPLES).map(|i| i as f64).collect();
        let value = p90(&enough).expect("a hundred samples give a p90");
        assert!((value - 89.1).abs() < 1e-9, "p90 of 0..100 was {value}");
    }

    #[test]
    fn median_interpolates_and_ignores_order() {
        assert_eq!(p50(&[]), None);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_median_ignores_a_burst_in_a_minority_of_windows() {
        // Ten samples per time unit over [0, 10], each 10, slowed to 100
        // in the last three windows.
        let samples: Vec<(f64, f64)> = (0..=100)
            .map(|i| {
                let t = i as f64 / 10.0;
                (t, if t >= 7.0 { 100.0 } else { 10.0 })
            })
            .collect();
        let pooled: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        assert_eq!(quantile(&pooled, 0.9), Some(100.0));
        assert_eq!(
            windowed(&samples, 10.0, 10, |s| quantile(s, 0.9)),
            Some(10.0)
        );
        // The sample at the end of the span lands in the last window, and
        // a rate summary sees every sample.
        let counts = windowed(&samples, 10.0, 10, |s| Some(s.len() as f64));
        assert_eq!(counts, Some(10.0));
        let all = windowed(&samples, 10.0, 1, |s| Some(s.len() as f64));
        assert_eq!(all, Some(101.0));
        assert_eq!(windowed(&[], 10.0, 10, |s| quantile(s, 0.5)), None);
    }
}
