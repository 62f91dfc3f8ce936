//! Small statistical helpers shared by the evaluation and benchmarking code
//! (means, sample variances, standard errors).

/// Sample mean; `0.0` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample variance (divides by `n - 1`); `0.0` for fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Standard error of the mean, the ± value the paper reports next to every
/// accuracy (`std dev / sqrt(n)`).
pub fn standard_error(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(sample_variance(&[1.0]), 0.0);
        assert_eq!(standard_error(&[1.0]), 0.0);
    }

    #[test]
    fn standard_error_shrinks_with_samples() {
        let small = [1.0, 2.0, 3.0, 4.0];
        let large: Vec<f64> = small.iter().cycle().take(64).copied().collect();
        assert!(standard_error(&large) < standard_error(&small));
    }
}
