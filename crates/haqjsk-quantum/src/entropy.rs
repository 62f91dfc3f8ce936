//! Von Neumann entropy of quantum states (Eq. 6–7 of the paper).

use crate::density::DensityMatrix;
use haqjsk_linalg::LinalgError;

/// Von Neumann entropy `H_N(ρ) = -tr(ρ log ρ) = -Σ_j λ_j ln λ_j` of a
/// density matrix, computed from its spectrum. Zero eigenvalues contribute
/// zero (the `x ln x → 0` limit).
///
/// The value is memoised in the state beside its spectrum
/// ([`DensityMatrix::memoised_spectrum`]): only the first call pays the
/// eigensolve, later calls (and calls on clones) return the same bits
/// without allocating, and calls made while another thread solves wait
/// for its result. An eigensolver failure is returned as an error, and
/// memoised the same way.
pub fn von_neumann_entropy(rho: &DensityMatrix) -> Result<f64, LinalgError> {
    Ok(rho.memo()?.entropy)
}

/// Entropy of a list of eigenvalues interpreted as a probability
/// distribution; negative values (numerical noise) are clamped to zero.
pub fn entropy_of_spectrum(spectrum: &[f64]) -> f64 {
    let mut h = 0.0;
    for &l in spectrum {
        if l > 1e-15 {
            h -= l * l.ln();
        }
    }
    h
}

/// Tsallis q-entropy of a probability spectrum:
/// `S_q(p) = (1 - Σ_i p_i^q) / (q - 1)`, recovering the von Neumann /
/// Shannon entropy as `q → 1`. Like [`entropy_of_spectrum`], exact-zero
/// eigenvalues contribute nothing, so the value is invariant under the
/// zero-padding the pairwise kernels apply.
pub fn tsallis_entropy_of_spectrum(spectrum: &[f64], q: f64) -> f64 {
    if (q - 1.0).abs() < 1e-9 {
        return spectrum
            .iter()
            .filter(|&&p| p > 1e-15)
            .map(|&p| -p * p.ln())
            .sum();
    }
    let sum_q: f64 = spectrum
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p.powf(q))
        .sum();
    (1.0 - sum_q) / (q - 1.0)
}

/// Maximum attainable von Neumann entropy for an `n`-dimensional state
/// (`ln n`, achieved by the maximally mixed state).
pub fn max_entropy(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        (n as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_linalg::Matrix;

    #[test]
    fn pure_state_has_zero_entropy() {
        let rho = DensityMatrix::pure_state(&[1.0, 2.0, 2.0]).unwrap();
        assert!(von_neumann_entropy(&rho).unwrap().abs() < 1e-9);
    }

    #[test]
    fn maximally_mixed_state_has_max_entropy() {
        for n in [2usize, 3, 5, 8] {
            let rho = DensityMatrix::maximally_mixed(n);
            let h = von_neumann_entropy(&rho).unwrap();
            assert!((h - max_entropy(n)).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn entropy_is_between_zero_and_log_n() {
        let m = Matrix::from_rows(&[
            vec![0.5, 0.2, 0.0],
            vec![0.2, 0.3, 0.1],
            vec![0.0, 0.1, 0.2],
        ])
        .unwrap();
        let rho = DensityMatrix::from_unnormalized(&m).unwrap();
        let h = von_neumann_entropy(&rho).unwrap();
        assert!(h >= 0.0);
        assert!(h <= max_entropy(3) + 1e-12);
    }

    #[test]
    fn entropy_of_two_level_mixture() {
        // diag(p, 1-p) has entropy -p ln p - (1-p) ln (1-p).
        let p = 0.3;
        let m = Matrix::from_diag(&[p, 1.0 - p]);
        let rho = DensityMatrix::new(m).unwrap();
        let expected = -p * p.ln() - (1.0 - p) * (1.0 - p).ln();
        assert!((von_neumann_entropy(&rho).unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn spectrum_entropy_clamps_noise() {
        let h = entropy_of_spectrum(&[1.0, -1e-18, 0.0]);
        assert_eq!(h, 0.0);
        assert_eq!(max_entropy(0), 0.0);
    }
}
