//! Small helpers for `Vec<f64>`-based vectors.
//!
//! The clustering, depth-based representation and evaluation code all operate
//! on plain `&[f64]` slices; these free functions provide the handful of
//! operations they need (norms, distances, normalisation, dot products)
//! without introducing a dedicated vector type.

/// Dot product of two equal-length slices.
///
/// Panics if the lengths differ (callers always control both operands).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length slices.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// Normalises the slice to unit L2 norm in place. Leaves the all-zero vector
/// untouched.
pub fn normalize_l2(a: &mut [f64]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

/// Normalises the slice to unit L1 mass (a probability distribution) in
/// place. Leaves the all-zero vector untouched.
pub fn normalize_l1(a: &mut [f64]) {
    let s: f64 = a.iter().map(|x| x.abs()).sum();
    if s > 0.0 {
        for x in a.iter_mut() {
            *x /= s;
        }
    }
}

/// Index of the maximum entry (first one on ties); `None` for empty input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in a.iter().enumerate() {
        if x > a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Shannon entropy (natural log) of a non-negative vector that is treated as
/// an unnormalised distribution. Zero entries contribute zero.
pub fn shannon_entropy(p: &[f64]) -> f64 {
    let total: f64 = p.iter().filter(|&&x| x > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &x in p {
        if x > 0.0 {
            let q = x / total;
            h -= q * q.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let mut v = vec![3.0, 4.0];
        normalize_l2(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        let mut p = vec![2.0, 2.0, 4.0];
        normalize_l1(&mut p);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize_l2(&mut z);
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn arg_extrema() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        // First index wins on ties.
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn entropy_properties() {
        // Uniform distribution over 4 outcomes has entropy ln(4).
        let h = shannon_entropy(&[1.0, 1.0, 1.0, 1.0]);
        assert!((h - 4.0_f64.ln()).abs() < 1e-12);
        // Deterministic distribution has zero entropy.
        assert_eq!(shannon_entropy(&[1.0, 0.0, 0.0]), 0.0);
        // Empty / all-zero input is defined as zero.
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[0.0, 0.0]), 0.0);
        // Entropy is invariant to scaling the unnormalised counts.
        let a = shannon_entropy(&[1.0, 2.0, 3.0]);
        let b = shannon_entropy(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
