//! Dense, row-major, `f64` matrices.
//!
//! [`Matrix`] is the workhorse type of the whole workspace: adjacency
//! matrices, Laplacians, CTQW density matrices, aligned structures and
//! Gram matrices are all stored in this representation. The type favours
//! clarity and predictable performance over generality: it is always dense,
//! always `f64`, and all shape errors are reported through
//! [`LinalgError`] rather than panics (except for indexing,
//! which follows the standard library convention of panicking on
//! out-of-bounds access).

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "data length {} does not match shape {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
        }
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a square diagonal matrix with `diag` on its main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns an element, or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets an element. Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] = value;
    }

    /// Returns row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Cache-blocked i-k-j microkernel: fixed-size row blocks of `self`/the
    /// output are paired with row blocks of `other`, so a block of `other`
    /// rows stays in cache while several output rows accumulate against it.
    /// Each output element still accumulates its `k` terms in ascending
    /// order, so the result is bit-identical to the unblocked i-k-j loop —
    /// blocking changes the traversal, not the arithmetic.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        const BLOCK: usize = 16;
        let mut out = Matrix::zeros(self.rows, other.cols);
        for ib in (0..self.rows).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(self.rows);
            for kb in (0..self.cols).step_by(BLOCK) {
                let k_end = (kb + BLOCK).min(self.cols);
                for i in ib..i_end {
                    for k in kb..k_end {
                        let a = self.data[i * self.cols + k];
                        if a == 0.0 {
                            continue;
                        }
                        let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                        let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                        for (c, &o) in crow.iter_mut().zip(orow.iter()) {
                            *c += a * o;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let out = (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect();
        Ok(out)
    }

    /// Computes `A^T * A` (always square, symmetric positive semidefinite).
    pub fn gram(&self) -> Matrix {
        let t = self.transpose();
        t.matmul(self).expect("A^T A is always conformable")
    }

    /// Scales all elements by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|x| x * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Trace (sum of the diagonal) of a square matrix.
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).sum()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Maximum absolute difference from the transpose, i.e. how far the
    /// matrix is from being symmetric.
    pub fn asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.asymmetry() <= tol
    }

    /// Returns `(self + self^T) / 2`, forcing exact symmetry.
    pub fn symmetrize(&self) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut out = self.clone();
        for i in 0..self.rows {
            for j in 0..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Extracts the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Returns a new matrix padded with zero rows/columns to `rows x cols`.
    ///
    /// Used by the unaligned QJSK kernel, which expands the density matrix of
    /// the smaller graph with zeros so the composite state can be formed.
    pub fn zero_pad(&self, rows: usize, cols: usize) -> Result<Matrix> {
        if rows < self.rows || cols < self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot pad {}x{} down to {}x{}",
                self.rows, self.cols, rows, cols
            )));
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Extracts the `rows x cols` submatrix with top-left corner `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Result<Matrix> {
        if r0 + rows > self.rows || c0 + cols > self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "submatrix ({r0}+{rows}, {c0}+{cols}) exceeds {}x{}",
                self.rows, self.cols
            )));
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                out[(i, j)] = self[(r0 + i, c0 + j)];
            }
        }
        Ok(out)
    }

    /// Permutes rows and columns of a square matrix by the same permutation:
    /// `result[i][j] = self[perm[i]][perm[j]]`.
    ///
    /// This is exactly the `Q A Q^T` relabelling used in the paper's
    /// permutation-invariance discussion.
    pub fn permute_symmetric(&self, perm: &[usize]) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if perm.len() != self.rows {
            return Err(LinalgError::InvalidArgument(format!(
                "permutation length {} does not match matrix size {}",
                perm.len(),
                self.rows
            )));
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(LinalgError::InvalidArgument(
                    "not a valid permutation".to_string(),
                ));
            }
            seen[p] = true;
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self[(perm[i], perm[j])];
            }
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix += shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix -= shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_ragged_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t[(0, 1)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn trace_sum_norms() {
        let m = sample();
        assert_eq!(m.trace(), 5.0);
        assert_eq!(m.sum(), 10.0);
        assert!((m.frobenius_norm() - (30.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let a = sample();
        assert!(!a.is_symmetric(1e-12));
        let sym = a.symmetrize().unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert_eq!(sym[(0, 1)], 2.5);
    }

    #[test]
    fn zero_pad_and_submatrix() {
        let a = sample();
        let p = a.zero_pad(3, 3).unwrap();
        assert_eq!(p.shape(), (3, 3));
        assert_eq!(p[(2, 2)], 0.0);
        assert_eq!(p[(1, 1)], 4.0);
        let s = p.submatrix(0, 0, 2, 2).unwrap();
        assert_eq!(s, a);
        assert!(a.zero_pad(1, 1).is_err());
        assert!(a.submatrix(1, 1, 2, 2).is_err());
    }

    #[test]
    fn permute_symmetric_relabels() {
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        let p = a.permute_symmetric(&[2, 1, 0]).unwrap();
        // The path graph 0-1-2 relabelled by reversal is the same matrix.
        assert_eq!(p, a);
        assert!(a.permute_symmetric(&[0, 0, 1]).is_err());
        assert!(a.permute_symmetric(&[0, 1]).is_err());
    }

    #[test]
    fn arithmetic_operators() {
        let a = sample();
        let b = &a + &a;
        assert_eq!(b[(1, 1)], 8.0);
        let c = &b - &a;
        assert_eq!(c, a);
        let d = &a * 2.0;
        assert_eq!(d, b);
        let mut e = a.clone();
        e += &a;
        assert_eq!(e, b);
        e -= &a;
        assert_eq!(e, a);
        let n = -&a;
        assert_eq!(n[(0, 0)], -1.0);
    }

    #[test]
    fn gram_is_symmetric_psd_shaped() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let g = a.gram();
        assert_eq!(g.shape(), (3, 3));
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn row_col_accessors() {
        let a = sample();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.diagonal(), vec![1.0, 4.0]);
        assert_eq!(a.get(5, 5), None);
        assert_eq!(a.get(0, 1), Some(2.0));
    }

    #[test]
    fn map_and_from_fn() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        assert_eq!(m[(1, 1)], 2.0);
        let sq = m.map(|x| x * x);
        assert_eq!(sq[(1, 1)], 4.0);
    }

    #[test]
    fn display_does_not_panic() {
        let text = format!("{}", sample());
        assert!(text.contains("2x2"));
    }
}
