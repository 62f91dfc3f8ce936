//! # haqjsk-datasets
//!
//! Synthetic stand-ins for the twelve benchmark datasets of the paper's
//! Table II.
//!
//! The original corpora (TU-Dortmund bioinformatics / social-network datasets
//! and the GatorBait / BAR31 / BSPHERE31 / GEOD31 computer-vision shape
//! datasets) are not redistributable inside this repository, so each one is
//! replaced by a seeded generator that matches its **statistics** (number of
//! graphs, number of classes, mean/max vertex counts, mean edge counts and
//! domain) while giving each class a distinct **structural signature** (block
//! structure, density, hub counts, motif composition). The kernels under
//! study consume only un-attributed adjacency structure, so class-dependent
//! generative parameters provide the same kind of discriminative signal the
//! real datasets do.
//!
//! * [`spec`] — the Table II statistics, encoded as data,
//! * [`synth`] — the per-domain class-conditional graph generators,
//! * [`registry`] — name-based lookup plus scaled-down variants for quick
//!   experiments.

pub mod registry;
pub mod spec;
pub mod synth;

pub use registry::{all_dataset_names, generate_by_name, GeneratedDataset};
pub use spec::{DatasetDomain, DatasetSpec, TABLE2_SPECS};
pub use synth::generate_dataset;
