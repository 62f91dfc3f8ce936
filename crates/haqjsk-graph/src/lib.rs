//! # haqjsk-graph
//!
//! Graph substrate for the HAQJSK reproduction.
//!
//! The paper works with un-attributed graphs (optionally carrying discrete
//! vertex labels, which the baseline Weisfeiler–Lehman and shortest-path
//! kernels can exploit). This crate provides:
//!
//! * the [`Graph`] type with adjacency / degree / Laplacian matrix views,
//! * breadth-first and all-pairs shortest paths ([`shortest_paths`]),
//! * depth-based complexity traces ([`subgraph`]): per vertex, the entropy
//!   of the degree distribution inside its `1..K`-hop balls, read from one
//!   BFS per vertex — the ingredient of the depth-based vertex
//!   representations,
//! * random graph generators used to synthesise the benchmark datasets
//!   ([`generators`]),
//! * structural analysis helpers (degree statistics, connectivity,
//!   diameter) ([`analysis`]),
//! * a simple text serialisation format ([`io`]).

pub mod analysis;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod isomorphism;
pub mod shortest_paths;
pub mod subgraph;

pub use error::GraphError;
pub use graph::Graph;
pub use isomorphism::{are_isomorphic, find_isomorphism};
pub use shortest_paths::{all_pairs_shortest_paths, bfs_distances, INFINITE_DISTANCE};

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
