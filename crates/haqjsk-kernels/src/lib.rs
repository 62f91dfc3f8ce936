//! # haqjsk-kernels
//!
//! Baseline graph kernels and kernel-matrix utilities for the HAQJSK
//! reproduction.
//!
//! The paper compares the proposed HAQJSK kernels against a spectrum of
//! classical and quantum graph kernels (Table III / Table IV). This crate
//! implements those comparison methods from scratch:
//!
//! * the unaligned and Umeyama-aligned **Quantum Jensen–Shannon kernels**
//!   (QJSK, Eq. 9–11) ([`qjsk`]),
//! * the **Weisfeiler–Lehman subtree kernel** (WLSK) ([`wl`]),
//! * the **shortest-path kernel** (SPGK) ([`shortest_path`]),
//! * the **graphlet-count kernel** (GCGK) ([`graphlet`]),
//! * a fixed-length **random-walk kernel** ([`random_walk`]),
//! * a simplified **Jensen–Tsallis q-difference kernel** (JTQK) ([`jtqk`]),
//! * the **depth-based aligned kernel** in the spirit of the ASK/DBAK family
//!   ([`depth_based`]),
//!
//! together with the [`GraphKernel`] trait, the engine-backed Gram-matrix
//! builder ([`kernel`], routed through `haqjsk-engine`'s tile scheduler),
//! the process-global CTQW density cache ([`features`]), and the
//! [`KernelMatrix`] type with normalisation / centring / positive
//! semidefiniteness checks ([`matrix`]). The static property tables of the
//! paper (Table I and Table III) live in [`properties`].

pub mod depth_based;
pub mod embedding;
pub mod features;
pub mod graphlet;
pub mod jtqk;
pub mod kernel;
pub mod matrix;
pub mod properties;
pub mod qjsk;
pub mod random_walk;
pub mod shortest_path;
pub mod wl;

pub use depth_based::DepthBasedAlignedKernel;
pub use embedding::{kernel_distance_matrix, kernel_pca, KernelPca};
pub use features::{
    cached_alignment_basis, cached_ctqw_densities, cached_ctqw_density, cached_graph_spectrals,
    cached_wl_histogram, clear_density_cache, density_cache_shard_stats, density_cache_stats,
    register_cache_metrics, set_density_cache_budget, AlignmentBasis, GraphSpectrals, WlHistogram,
};
pub use graphlet::GraphletKernel;
pub use jtqk::JensenTsallisKernel;
pub use kernel::GraphKernel;
pub use matrix::KernelMatrix;
pub use qjsk::{QjskAligned, QjskUnaligned};
pub use random_walk::RandomWalkKernel;
pub use shortest_path::ShortestPathKernel;
pub use wl::{WeisfeilerLehmanKernel, WlFeatureVec};
