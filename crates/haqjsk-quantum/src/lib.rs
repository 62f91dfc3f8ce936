//! # haqjsk-quantum
//!
//! Continuous-time quantum walk (CTQW) machinery for the HAQJSK
//! reproduction.
//!
//! The paper's kernels are all built from the same quantum-information
//! ingredients (Sec. II of the paper):
//!
//! * the CTQW evolved on a graph with the Laplacian as Hamiltonian, whose
//!   **time-averaged mixed density matrix** `ρ_G^∞` has the closed form of
//!   Eq. (5) ([`ctqw`]),
//! * the **von Neumann entropy** `H_N(ρ) = -tr(ρ log ρ)` of Eq. (6)–(7)
//!   ([`entropy`]),
//! * the **quantum Jensen–Shannon divergence** between two density matrices,
//!   Eq. (8) ([`qjsd`](mod@qjsd)),
//! * the density-matrix wrapper type with its validity checks ([`density`]),
//! * the classical continuous-time random walk used as a discrimination
//!   baseline in the paper's remarks ([`ctrw`]).

pub mod batch;
pub mod ctqw;
pub mod ctrw;
pub mod density;
pub mod entropy;
pub mod qjsd;

pub use batch::{batch_mixture_entropies, MixtureEntropy};
pub use ctqw::{ctqw_density_finite_time, ctqw_density_infinite, ctqw_state_at};
pub use density::DensityMatrix;
pub use entropy::{entropy_of_spectrum, tsallis_entropy_of_spectrum, von_neumann_entropy};
pub use qjsd::{qjsd, qjsd_from_entropies, qjsd_padded, qjsd_with_entropies};
