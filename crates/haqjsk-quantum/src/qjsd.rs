//! Quantum Jensen–Shannon divergence (Eq. 8 of the paper).
//!
//! For two density matrices `ρ` and `σ` of equal dimension the QJSD is
//!
//! ```text
//! D_QJS(ρ, σ) = H_N((ρ + σ)/2) - H_N(ρ)/2 - H_N(σ)/2
//! ```
//!
//! It is symmetric, non-negative and bounded by `ln 2`. When the states live
//! in spaces of different dimension (graphs of different sizes), the smaller
//! one is zero-padded first, following the paper's prescription for the
//! unaligned QJSK kernel.

use crate::density::DensityMatrix;
use crate::entropy::von_neumann_entropy;
use haqjsk_linalg::LinalgError;

/// Upper bound of the QJSD between any two states (`ln 2`).
pub const QJSD_MAX: f64 = std::f64::consts::LN_2;

/// QJSD between two density matrices of equal dimension. The endpoint
/// entropies come from the states' memos ([`von_neumann_entropy`]), so
/// repeated calls against one state pay one new eigensolve each: the
/// mixture's. Zero-padding leaves a state's entropy unchanged (its zero
/// eigenvalues contribute nothing), which is why the kernels can read the
/// memo of an unpadded state for its padded version.
pub fn qjsd(rho: &DensityMatrix, sigma: &DensityMatrix) -> Result<f64, LinalgError> {
    let mixture = rho.mix(sigma)?;
    Ok(qjsd_from_entropies(
        von_neumann_entropy(&mixture)?,
        von_neumann_entropy(rho)?,
        von_neumann_entropy(sigma)?,
    ))
}

/// The QJSD expression once all three entropies are known:
/// `H_N((ρ+σ)/2) - H_N(ρ)/2 - H_N(σ)/2`, clamped to `[0, ln 2]` to absorb
/// eigenvalue noise. [`qjsd`] and every batched kernel path (the
/// [`crate::batch_mixture_entropies`] consumers) reduce through this one
/// function so their values stay bit-identical.
pub fn qjsd_from_entropies(h_mixture: f64, h_rho: f64, h_sigma: f64) -> f64 {
    let d = h_mixture - 0.5 * h_rho - 0.5 * h_sigma;
    // Clamp the tiny negative values that eigenvalue noise can produce.
    d.clamp(0.0, QJSD_MAX)
}

/// QJSD between two density matrices of possibly different dimensions: the
/// smaller state is zero-padded to the dimension of the larger one before the
/// divergence is evaluated (the unaligned composite-state construction of
/// Sec. II-D).
pub fn qjsd_padded(rho: &DensityMatrix, sigma: &DensityMatrix) -> Result<f64, LinalgError> {
    let n = rho.dim().max(sigma.dim());
    let rho_p = rho.zero_pad(n)?;
    let sigma_p = sigma.zero_pad(n)?;
    qjsd(&rho_p, &sigma_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_linalg::Matrix;

    #[test]
    fn qjsd_of_identical_states_is_zero() {
        let rho = DensityMatrix::maximally_mixed(4);
        assert!(qjsd(&rho, &rho).unwrap().abs() < 1e-9);
        let pure = DensityMatrix::pure_state(&[1.0, 1.0, 0.0]).unwrap();
        assert!(qjsd(&pure, &pure).unwrap().abs() < 1e-9);
    }

    #[test]
    fn qjsd_of_orthogonal_pure_states_is_ln2() {
        let a = DensityMatrix::pure_state(&[1.0, 0.0]).unwrap();
        let b = DensityMatrix::pure_state(&[0.0, 1.0]).unwrap();
        let d = qjsd(&a, &b).unwrap();
        assert!((d - QJSD_MAX).abs() < 1e-9);
    }

    #[test]
    fn qjsd_is_symmetric_and_bounded() {
        let a = DensityMatrix::from_unnormalized(
            &Matrix::from_rows(&[vec![0.7, 0.1], vec![0.1, 0.3]]).unwrap(),
        )
        .unwrap();
        let b = DensityMatrix::from_unnormalized(
            &Matrix::from_rows(&[vec![0.2, 0.05], vec![0.05, 0.8]]).unwrap(),
        )
        .unwrap();
        let dab = qjsd(&a, &b).unwrap();
        let dba = qjsd(&b, &a).unwrap();
        assert!((dab - dba).abs() < 1e-12);
        assert!(dab >= 0.0);
        assert!(dab <= QJSD_MAX + 1e-12);
        assert!(dab > 0.0);
    }

    #[test]
    fn qjsd_dimension_mismatch_is_error_but_padded_works() {
        let a = DensityMatrix::maximally_mixed(2);
        let b = DensityMatrix::maximally_mixed(3);
        assert!(qjsd(&a, &b).is_err());
        let d = qjsd_padded(&a, &b).unwrap();
        assert!(d > 0.0);
        assert!(d <= QJSD_MAX + 1e-12);
        // Same-dimension inputs go through padding unchanged.
        let c = DensityMatrix::maximally_mixed(2);
        assert!((qjsd_padded(&a, &c).unwrap() - qjsd(&a, &c).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn qjsd_increases_with_state_separation() {
        // Mixing a pure state towards the maximally mixed state decreases the
        // divergence from the mixed state.
        let mixed = DensityMatrix::maximally_mixed(2);
        let pure = DensityMatrix::pure_state(&[1.0, 0.0]).unwrap();
        let halfway = pure.mix(&mixed).unwrap();
        let d_pure = qjsd(&pure, &mixed).unwrap();
        let d_half = qjsd(&halfway, &mixed).unwrap();
        assert!(d_half < d_pure);
    }
}
