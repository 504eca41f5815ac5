//! 6T SRAM cell and array analysis under process variation.
//!
//! This crate implements the statistical SRAM methodology of the paper's
//! §II (following its refs \[3\] and \[4\]):
//!
//! - [`cell`] — the 6T cell: sizing, per-transistor threshold deviations
//!   (inter-die shift + RDF) and operating conditions.
//! - [`analysis`] — the four parametric-failure metrics (read, write,
//!   access and hold margins): configuration, results, and the closed-form
//!   steps from a DC solution to a margin.
//! - [`evaluator`] — the circuit-solved metrics on compiled `pvtm-circuit`
//!   templates, plus butterfly static noise margin and a transient
//!   access-time cross-check.
//! - [`failure`] — failure-probability estimation per mechanism: a fast
//!   linearized (sensitivity) estimator and an importance-sampled
//!   Monte-Carlo cross-check.
//! - [`leakage`] — standby cell leakage decomposition vs. body bias and
//!   source bias; lognormal cell-population statistics.
//! - `array` — array organization, column-redundancy memory-failure model
//!   (paper Eq. (1) machinery) and CLT array-leakage statistics (Eq. (2)).
//!
//! # Example
//!
//! ```
//! use pvtm_device::Technology;
//! use pvtm_sram::{AnalysisConfig, CellEvaluator, Conditions, SramCell};
//!
//! let tech = Technology::predictive_70nm();
//! let mut ev = CellEvaluator::new(AnalysisConfig::default(), &SramCell::nominal(&tech));
//! let m = ev.margins(&Conditions::active(&tech))?;
//! // A nominal cell has healthy margins on every mechanism.
//! assert!(m.read > 0.0 && m.write > 0.0 && m.access > 0.0 && m.hold > 0.0);
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

pub mod analysis;
pub mod array;
pub mod cell;
pub mod evaluator;
pub mod failure;
pub mod leakage;

pub use analysis::{AnalysisConfig, Margins};
pub use array::{ArrayOrganization, ArrayYield, RedundancyModel};
pub use cell::{CellSizing, Conditions, SramCell, Xtor};
pub use evaluator::CellEvaluator;
pub use failure::{FailureAnalyzer, FailureProbs};
pub use leakage::CellLeakageModel;
