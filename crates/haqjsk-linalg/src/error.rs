//! Error type shared by the linear-algebra routines.

use std::fmt;

/// Errors produced by the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes, e.g. multiplying a `3x4` matrix
    /// by a `3x4` matrix.
    ShapeMismatch {
        /// Human readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// The operation requires a square matrix but a rectangular one was given.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// An iterative algorithm (eigen iteration, k-means, SMO, ...) failed to
    /// converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Iteration budget that was exhausted.
        iterations: usize,
    },
    /// A matrix expected to be symmetric was not, beyond tolerance.
    NotSymmetric {
        /// Maximum absolute asymmetry that was observed.
        max_asymmetry: f64,
    },
    /// An argument was outside its valid domain (empty input, negative
    /// dimension, ...).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "expected a square matrix, got {rows}x{cols}")
            }
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(
                    f,
                    "matrix is not symmetric (max asymmetry {max_asymmetry:e})"
                )
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = LinalgError::ShapeMismatch {
            op: "matmul",
            left: (2, 3),
            right: (2, 3),
        };
        let text = err.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("2x3"));
    }

    #[test]
    fn display_not_square() {
        let err = LinalgError::NotSquare { rows: 3, cols: 5 };
        assert!(err.to_string().contains("3x5"));
    }

    #[test]
    fn display_no_convergence() {
        let err = LinalgError::NoConvergence {
            algorithm: "ql",
            iterations: 30,
        };
        assert!(err.to_string().contains("ql"));
        assert!(err.to_string().contains("30"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&LinalgError::NotSquare { rows: 1, cols: 2 });
    }
}
