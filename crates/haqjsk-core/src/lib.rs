//! # haqjsk-core
//!
//! The Hierarchical-Aligned Quantum Jensen–Shannon Kernels (HAQJSK) — the
//! primary contribution of the paper, built on the substrates of the sibling
//! crates.
//!
//! The pipeline (Sec. III of the paper) is:
//!
//! 1. **Depth-based vertex representations** (`R^k(v)`, [`db_representation`]):
//!    each vertex is described, for every layer `k = 1..K`, by the entropy
//!    of the degree distribution inside its `k`-hop ball, counted from one
//!    BFS per vertex.
//! 2. **Hierarchical prototypes** ([`kmeans`], [`hierarchy`]): κ-means over
//!    the vertex representations of *all* graphs gives the 1-level prototype
//!    set `P^{1,k}`; running κ-means again on the `h-1`-level prototypes gives
//!    the `h`-level prototypes (Eq. 16, Fig. 2).
//! 3. **Correspondences** (`C^{h,k}_p`, [`correspondence`]): each vertex of
//!    each graph is aligned to its nearest `h`-level prototype (Eq. 15/17).
//!    The 0/1 matrix `C^{h,k}_p` is kept as its assignment vector (one
//!    prototype index per vertex). Because every graph is aligned to the
//!    *same* prototypes, the correspondence is transitive across the
//!    dataset.
//! 4. **Hierarchical transitive aligned structures** ([`aligned`]): the
//!    aligned adjacency matrices `Ā^h_p` and aligned CTQW density matrices
//!    `ρ̄^h_p` (Eq. 18–25), fixed-size regardless of the original graph size.
//! 5. **The kernels** ([`model`]): HAQJSK(A) evolves a fresh CTQW on the
//!    aligned adjacency matrices and sums `exp(-D_QJS)` over levels (Eq.
//!    26–28); HAQJSK(D) applies the QJSD directly to the aligned density
//!    matrices (Eq. 29–31).
//!
//! The fitted [`HaqjskModel`] exposes `transform` for out-of-sample graphs
//! and Gram-matrix computation for datasets, and implements the
//! [`GraphKernel`](haqjsk_kernels::GraphKernel) trait so it can be swapped
//! into the same evaluation harness as every baseline kernel.

pub mod aligned;
pub mod config;
pub mod correspondence;
pub mod db_representation;
pub mod hierarchy;
pub mod kmeans;
pub mod model;
pub mod persistence;

pub use config::{HaqjskConfig, HaqjskVariant, MAX_HIERARCHY_LEVELS};
pub use hierarchy::PrototypeHierarchy;
pub use model::{AlignedGraph, HaqjskModel};
pub use persistence::{
    load_model_file, model_artifact_id, model_from_string, model_to_string, persisted_model_text,
    save_model_file, tmp_sibling, PersistenceError,
};
