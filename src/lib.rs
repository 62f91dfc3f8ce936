//! # haqjsk
//!
//! Hierarchical-Aligned Quantum Jensen–Shannon Kernels for graph
//! classification — a from-scratch Rust reproduction of Bai, Cui, Wang, Li
//! and Hancock's HAQJSK paper.
//!
//! This umbrella crate re-exports the public API of the workspace crates so
//! downstream users depend on a single crate:
//!
//! * [`linalg`] — dense matrices, symmetric eigendecomposition, Hungarian
//!   assignment, complex arithmetic,
//! * [`graph`] — graphs, shortest paths, depth-based complexity traces,
//!   generators,
//! * [`quantum`] — continuous-time quantum walks, density matrices, von
//!   Neumann entropy and the quantum Jensen–Shannon divergence,
//! * [`engine`] — the parallel Gram-computation engine: the shared worker
//!   pool (`HAQJSK_THREADS` controls its size), one Gram tile scheduler that
//!   runs inline (`serial`), on the pool (`local`, the default) or through
//!   the distributed hook (`dist:…`) — `HAQJSK_BACKEND` selects the
//!   default; the old `tiled`/`batched` spellings are errors — the LRU
//!   feature cache with an optional byte budget
//!   (`HAQJSK_CACHE_BUDGET`), incremental Gram
//!   extension, and the JSON-lines TCP serving substrate,
//! * [`dist`] — distributed tile execution: a coordinator that fans one
//!   Gram matrix's tiles out over `haqjsk-worker` processes
//!   (`HAQJSK_BACKEND=dist:addr,addr`), with content-hash-deduplicated
//!   dataset shipping, straggler re-dispatch and byte-identical local
//!   fallback,
//! * [`kernels`] — the baseline graph kernels (QJSK, WLSK, SPGK, GCGK,
//!   random walk, JTQK, depth-based aligned) and kernel-matrix utilities,
//! * [`core`] — the HAQJSK kernels themselves,
//! * [`ml`] — kernel C-SVMs, cross-validation, and the GCN / WL-MLP
//!   comparison models,
//! * [`datasets`] — synthetic stand-ins for the paper's twelve benchmark
//!   datasets.
//!
//! ## The engine and the serving protocol
//!
//! All Gram computation routes through [`engine::Engine::global`]: per-graph
//! features (CTQW density matrices, hierarchical aligned structures) are
//! extracted once per distinct graph — memoised in an
//! [`engine::FeatureCache`] keyed by a structural graph hash — and the
//! `n(n+1)/2` pairwise kernel evaluations are scheduled as cache-friendly
//! tiles over a persistent worker pool. Streaming workloads append
//! out-of-sample rows/columns to an existing Gram matrix through
//! `HaqjskModel::extend_gram_over_transforms` instead of recomputing it.
//!
//! The `haqjsk-serve` binary exposes fit / transform / kernel-row / append /
//! predict / save / load / stats over a `TcpListener` speaking JSON-lines
//! (one request object per line, one response line back; see the binary's
//! module docs for the command table). Models persist through
//! [`core::model_to_string`] / [`core::model_from_string`], so a model can
//! be fitted offline, saved, and loaded into a serving process.
//!
//! ## Quickstart
//!
//! ```
//! use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
//! use haqjsk::graph::generators::{cycle_graph, star_graph};
//!
//! let graphs = vec![cycle_graph(8), star_graph(8), cycle_graph(9), star_graph(9)];
//! let model = HaqjskModel::fit(
//!     &graphs,
//!     HaqjskConfig::small(),
//!     HaqjskVariant::AlignedAdjacency,
//! )
//! .expect("non-empty dataset");
//! let gram = model.gram_matrix(&graphs).expect("valid graphs");
//! assert_eq!(gram.len(), 4);
//! // Structurally similar graphs are more similar than dissimilar ones.
//! assert!(gram.get(0, 2) > gram.get(0, 1));
//! ```

/// Dense linear algebra substrate (re-export of `haqjsk-linalg`).
pub use haqjsk_linalg as linalg;

/// Graph substrate (re-export of `haqjsk-graph`).
pub use haqjsk_graph as graph;

/// Quantum-walk machinery (re-export of `haqjsk-quantum`).
pub use haqjsk_quantum as quantum;

/// The parallel Gram-computation engine (re-export of `haqjsk-engine`).
pub use haqjsk_engine as engine;

/// Distributed tile execution — the coordinator/worker RPC backend that
/// spans one Gram matrix across processes and machines (re-export of
/// `haqjsk-dist`). Select with `HAQJSK_BACKEND=dist:host:port,...` plus
/// [`dist::install_from_env`], or drive it programmatically through
/// [`dist::Coordinator`]. See `docs/distributed.md`.
pub use haqjsk_dist as dist;

/// Baseline graph kernels and kernel-matrix utilities (re-export of
/// `haqjsk-kernels`).
pub use haqjsk_kernels as kernels;

/// Observability substrate — the process-wide metrics registry (counters,
/// gauges, log-linear latency histograms), span tracer, and Prometheus
/// text exposition (re-export of `haqjsk-obs`). See `docs/observability.md`.
pub use haqjsk_obs as obs;

/// The HAQJSK kernels (re-export of `haqjsk-core`).
pub use haqjsk_core as core;

/// SVMs, cross-validation and neural comparison models (re-export of
/// `haqjsk-ml`).
pub use haqjsk_ml as ml;

/// Synthetic benchmark datasets (re-export of `haqjsk-datasets`).
pub use haqjsk_datasets as datasets;

pub mod serving;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
    pub use crate::datasets::{generate_by_name, GeneratedDataset};
    pub use crate::engine::{BackendKind, CacheConfig, Engine, FeatureCache};
    pub use crate::graph::Graph;
    pub use crate::kernels::{GraphKernel, KernelMatrix};
    pub use crate::ml::{cross_validate_kernel, CrossValidationConfig};
    pub use crate::quantum::{ctqw_density_infinite, qjsd, von_neumann_entropy, DensityMatrix};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let dataset = generate_by_name("MUTAG", 16, 1, 1).expect("known dataset");
        assert!(!dataset.is_empty());
        let model = HaqjskModel::fit(
            &dataset.graphs,
            HaqjskConfig {
                hierarchy_levels: 2,
                num_prototypes: 8,
                layer_cap: 3,
                ..HaqjskConfig::small()
            },
            HaqjskVariant::AlignedDensity,
        )
        .expect("fit succeeds");
        let gram = model.gram_matrix(&dataset.graphs).expect("gram succeeds");
        assert_eq!(gram.len(), dataset.len());
        assert!(gram.is_positive_semidefinite(1e-6).unwrap());
    }
}
