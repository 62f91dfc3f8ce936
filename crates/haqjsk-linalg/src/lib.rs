//! # haqjsk-linalg
//!
//! Dense linear-algebra substrate for the HAQJSK reproduction.
//!
//! The HAQJSK kernels (and every baseline quantum kernel they are compared
//! against) are built on a small number of numerical primitives:
//!
//! * dense real matrices and vectors ([`Matrix`], [`vector`]),
//! * the symmetric eigendecomposition used to evolve continuous-time quantum
//!   walks and to compute von Neumann entropies ([`eigen`]),
//! * the Hungarian (Kuhn–Munkres) assignment algorithm used by the Umeyama
//!   spectral matching step of the aligned QJSK baseline ([`assignment`]),
//! * small statistical helpers shared by the clustering and evaluation code
//!   ([`stats`]).
//!
//! Everything is implemented from scratch on top of `std` so that the
//! workspace has no dependency on external numerics crates. All matrices that
//! appear in the paper (adjacency matrices, Laplacians, CTQW density matrices,
//! Gram matrices) are real and symmetric, for which the classic Householder
//! tridiagonalisation followed by the implicit-shift QL iteration is exact and
//! robust.

pub mod assignment;
pub mod batch;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod simd;
pub mod stats;
pub mod vector;

pub use assignment::hungarian;
pub use batch::{
    batch_solve_stats, batch_symmetric_eigenvalues, register_batch_metrics, BatchEigenWorkspace,
    BatchSolveStats, MAX_BATCH_LANES,
};
pub use eigen::{symmetric_eigen, symmetric_eigenvalues, EigenWorkspace, SymmetricEigen};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use simd::{
    active_simd_label, active_simd_path, available_simd_paths, max_batch_lanes,
    resolve_simd_env_value, set_simd_path, SimdChoice, SimdPath, SIMD_ENV_VAR,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
