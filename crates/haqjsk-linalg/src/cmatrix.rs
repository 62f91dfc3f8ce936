//! Dense complex matrices for the finite-time CTQW evolution.
//!
//! [`CMatrix`] mirrors the real [`Matrix`] API for the small
//! set of operations the quantum-walk simulation needs: construction from a
//! real matrix, multiplication, conjugate transpose, outer products of state
//! vectors and extraction of the real part (the time-averaged density matrix
//! of a CTQW is real symmetric even though the instantaneous states are
//! complex).

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;
use std::ops::{Add, Index, IndexMut};

/// A dense row-major matrix of complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows x cols` complex matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` complex identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Lifts a real matrix into the complex domain.
    pub fn from_real(m: &Matrix) -> Self {
        let data = m.data().iter().map(|&x| Complex::real(x)).collect();
        CMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data,
        }
    }

    /// Builds the diagonal matrix `diag(e^{-i λ_k t})` used in the CTQW
    /// evolution operator `Φᵀ e^{-iΛt} Φ`.
    pub fn evolution_diagonal(eigenvalues: &[f64], t: f64) -> Self {
        let n = eigenvalues.len();
        let mut m = CMatrix::zeros(n, n);
        for (k, &lambda) in eigenvalues.iter().enumerate() {
            m[(k, k)] = Complex::cis(-lambda * t);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Matrix product.
    pub fn matmul(&self, other: &CMatrix) -> Result<CMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "complex matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = CMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..other.cols {
                    let prod = a * other.data[k * other.cols + j];
                    out.data[i * other.cols + j] += prod;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[Complex]) -> Result<Vec<Complex>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "complex matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let out = (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .zip(v)
                    .fold(Complex::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect();
        Ok(out)
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn conj_transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Elementwise real part as a real matrix.
    pub fn real_part(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|z| z.re).collect(),
        )
        .expect("shape is consistent by construction")
    }

    /// Elementwise imaginary part as a real matrix.
    pub fn imag_part(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|z| z.im).collect(),
        )
        .expect("shape is consistent by construction")
    }

    /// Maximum modulus of any entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, z| acc.max(z.abs()))
    }

    /// Trace of a square complex matrix.
    pub fn trace(&self) -> Complex {
        let n = self.rows.min(self.cols);
        let mut t = Complex::ZERO;
        for i in 0..n {
            t += self[(i, i)];
        }
        t
    }

    /// Scales all entries by a complex factor.
    pub fn scale(&self, s: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Whether the matrix is unitary within `tol` (i.e. `U U† ≈ I`).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = match self.matmul(&self.conj_transpose()) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let id = CMatrix::identity(self.rows);
        prod.data
            .iter()
            .zip(id.data.iter())
            .all(|(a, b)| (*a - *b).abs() <= tol)
    }
}

/// Outer product `|ψ⟩⟨ψ|` of a complex state vector with itself, the building
/// block of density matrices.
pub fn outer_product(psi: &[Complex]) -> CMatrix {
    let n = psi.len();
    let mut out = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] = psi[i] * psi[j].conj();
        }
    }
    out
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &Complex {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut Complex {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "complex addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_real_and_parts() {
        let r = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let c = CMatrix::from_real(&r);
        assert_eq!(c.real_part(), r);
        assert_eq!(c.imag_part().max_abs(), 0.0);
        assert_eq!(c[(1, 0)], Complex::real(3.0));
    }

    #[test]
    fn identity_is_unitary() {
        assert!(CMatrix::identity(4).is_unitary(1e-12));
    }

    #[test]
    fn evolution_diagonal_is_unitary() {
        let u = CMatrix::evolution_diagonal(&[0.0, 1.0, 2.5, 4.0], 1.7);
        assert!(u.is_unitary(1e-12));
        // At t = 0 the evolution operator is the identity.
        let u0 = CMatrix::evolution_diagonal(&[0.0, 1.0, 2.5, 4.0], 0.0);
        assert!((&u0.real_part() - &Matrix::identity(4)).max_abs() < 1e-12);
    }

    #[test]
    fn matmul_matches_real_matmul_for_real_input() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.0]]).unwrap();
        let cc = CMatrix::from_real(&a)
            .matmul(&CMatrix::from_real(&b))
            .unwrap();
        let rr = a.matmul(&b).unwrap();
        assert!((&cc.real_part() - &rr).max_abs() < 1e-12);
        assert_eq!(cc.imag_part().max_abs(), 0.0);
    }

    #[test]
    fn conj_transpose_involution() {
        let mut m = CMatrix::zeros(2, 3);
        m[(0, 1)] = Complex::new(1.0, 2.0);
        m[(1, 2)] = Complex::new(-0.5, 0.25);
        let back = m.conj_transpose().conj_transpose();
        assert_eq!(back, m);
        assert_eq!(m.conj_transpose()[(1, 0)], Complex::new(1.0, -2.0));
    }

    #[test]
    fn outer_product_is_hermitian_with_unit_trace_for_unit_state() {
        let inv_sqrt2 = 1.0 / 2.0_f64.sqrt();
        let psi = vec![Complex::new(inv_sqrt2, 0.0), Complex::new(0.0, inv_sqrt2)];
        let rho = outer_product(&psi);
        // Hermitian: rho == rho†
        assert_eq!(rho.conj_transpose(), rho);
        // Unit trace for a normalised state.
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.trace().im.abs() < 1e-12);
    }

    #[test]
    fn matvec_and_scale() {
        let m = CMatrix::identity(2).scale(Complex::I);
        let v = vec![Complex::real(1.0), Complex::real(2.0)];
        let out = m.matvec(&v).unwrap();
        assert!(out[0].approx_eq(Complex::new(0.0, 1.0), 1e-12));
        assert!(out[1].approx_eq(Complex::new(0.0, 2.0), 1e-12));
        assert!(m.matvec(&[Complex::ONE]).is_err());
    }

    #[test]
    fn addition_and_trace() {
        let a = CMatrix::identity(3);
        let b = &a + &a;
        assert!((b.trace().re - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(!a.is_unitary(1e-12));
    }
}
