//! Core data types for the QuFEM readout-calibration library.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`BitString`] — a bit-packed, fixed-width string of classical bits
//!   (one per qubit), usable as a hash-map key on devices with hundreds of
//!   qubits.
//! * [`ProbDist`] — a sparse probability distribution over bit strings,
//!   the object that readout produces and calibration transforms.
//! * [`SupportIndex`] — an indexed sparse vector (interned keys + dense
//!   amplitude array), the calibration engine's working representation
//!   and the storage layout behind every [`ProbDist`].
//! * [`QubitSet`] — an ordered set of qubit indices (measured qubits,
//!   qubit groups, …).
//! * [`Error`] — the common error type.
//!
//! # Example
//!
//! ```
//! use qufem_types::{BitString, ProbDist};
//!
//! // A 3-qubit GHZ-like distribution: ½|000⟩ + ½|111⟩.
//! let mut p = ProbDist::new(3);
//! p.add(BitString::from_binary_str("000").unwrap(), 0.5);
//! p.add(BitString::from_binary_str("111").unwrap(), 0.5);
//! assert_eq!(p.support_len(), 2);
//! assert!((p.total_mass() - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitstring;
mod distribution;
mod error;
mod qubit_set;
mod support_index;

pub use bitstring::BitString;
pub use distribution::ProbDist;
pub use error::Error;
pub use qubit_set::QubitSet;
pub use support_index::SupportIndex;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;
