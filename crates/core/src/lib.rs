//! # QuFEM — quantum readout calibration using the finite element method
//!
//! Rust implementation of the ASPLOS 2024 paper *"QuFEM: Fast and Accurate
//! Quantum Readout Calibration Using the Finite Element Method"* (Tan et
//! al.). Readout calibration undoes the measurement noise of a quantum
//! device: given the noisy distribution a device reported, it reconstructs
//! the distribution the circuit actually produced.
//!
//! The classical approach inverts one `2^n × 2^n` noise matrix — exact but
//! exponentially expensive. QuFEM borrows the finite element method's
//! divide-and-conquer: qubits are partitioned into small groups along the
//! strongest interactions, each iteration inverts the tensor product of the
//! per-group noise matrices, and successive iterations re-partition to cover
//! the interactions the previous grouping missed (mesh adaption). A sparse
//! tensor-product engine prunes negligible intermediate values, keeping the
//! whole pipeline polynomial in the number of qubits.
//!
//! ## Pipeline
//!
//! 1. **Benchmark generation** ([`benchgen`]) — adaptively executes
//!    preparation circuits until every pairwise interaction is measured to
//!    accuracy `α` (paper §4.1).
//! 2. **Interaction quantification** ([`InteractionTable`]) — Eq. 8/9.
//! 3. **Partitioning** ([`partition`]) — locality-maximizing groups, Eq. 9.
//! 4. **Dynamic matrix generation** ([`group_noise_matrix`]) — Eq. 10/11,
//!    conditioned on the actually-measured qubits.
//! 5. **Sparse tensor-product calibration** ([`engine`]) — Eq. 7 with
//!    β-pruning (§4.2).
//!
//! The [`QuFem`] type ties these together as the paper's Algorithm 1
//! (characterization flow) and Algorithm 2 (calibration flow).
//!
//! ## Example
//!
//! ```no_run
//! use qufem_core::{QuFem, QuFemConfig};
//! use qufem_device::presets;
//! use qufem_types::QubitSet;
//!
//! let device = presets::quafu_18(0);
//! let qufem = QuFem::characterize(&device, QuFemConfig::default())?;
//! # let noisy = qufem_types::ProbDist::point_mass(qufem_types::BitString::zeros(18));
//! let calibrated = qufem.calibrate(&noisy, &QubitSet::full(18))?;
//! # Ok::<(), qufem_types::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod benchgen;
mod config;
pub mod digest;
pub mod engine;
mod flows;
mod interaction;
pub mod mitigate;
mod noisematrix;
pub mod parallel;
pub mod partition;
mod persist;
mod snapshot;
mod version;

pub use arena::ExecArena;
pub use config::{QuFemConfig, QuFemConfigBuilder};
pub use digest::{digest_bytes, digest_hex, digest_prob_dist, digest_str, Digest64};
pub use engine::{configured_threads, EngineStats, IterationPlan};
pub use flows::{
    build_group_matrices, build_group_matrices_with, IterationParams, PreparedCalibration, QuFem,
};
pub use interaction::{HotInteraction, InteractionTable};
pub use mitigate::{MethodOptions, MethodRegistry, Mitigator, PreparedMitigator};
pub use noisematrix::{group_noise_matrix, group_noise_matrix_with, GroupMatrix, MatrixTable};
pub use partition::Grouping;
pub use persist::{IterationData, QuFemData, RecordData};
pub use snapshot::{BenchmarkRecord, BenchmarkSnapshot, IdealCondition};
pub use version::{SnapshotLineage, VersionedSnapshot, DEFAULT_DEVICE_ID};
