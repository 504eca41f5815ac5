//! Process-variation tolerant memories in sub-90 nm technologies.
//!
//! This crate implements the two post-silicon tuning techniques of the
//! SOCC 2006 paper on top of the workspace's device / circuit / SRAM /
//! BIST substrates:
//!
//! 1. **Self-repairing SRAM** ([`self_repair`]): an on-line leakage
//!    monitor senses the array current, comparators bin the die into
//!    low-Vt / nominal / high-Vt regions ([`monitor`]), and a body-bias
//!    generator ([`body_bias`]) applies RBB or FBB — simultaneously
//!    improving parametric yield (paper Eq. (1), Fig. 2c) and compressing
//!    the inter-die leakage spread (Figs. 5b–c).
//! 2. **Self-adaptive source biasing** ([`adaptive`], [`source_bias`]): a
//!    BIST engine raises the standby source bias one DAC code at a time
//!    until hold failures exhaust the column redundancy, maximizing
//!    standby-power savings per die while bounding hold-yield loss
//!    (Figs. 6–10).
//!
//! The [`experiments`] module regenerates every figure of the paper's
//! evaluation; the `pvtm-bench` crate drives it from `cargo bench`.
//!
//! # Example
//!
//! ```no_run
//! use pvtm::self_repair::{Policy, SelfRepairConfig, SelfRepairingMemory};
//! use pvtm::interp::linspace;
//!
//! let memory = SelfRepairingMemory::new(SelfRepairConfig::default_70nm(64, 8));
//! let grid = memory.grid(&linspace(-0.3, 0.3, 13));
//! let failure = memory.failure_response(&grid)?;
//! let baseline = failure.parametric_yield(0.15, Policy::Zbb);
//! let repaired = failure.parametric_yield(0.15, Policy::SelfRepair);
//! assert!(repaired >= baseline);
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

pub mod adaptive;
pub mod body_bias;
pub mod experiments;
pub mod interp;
pub mod monitor;
pub mod self_repair;
pub mod source_bias;

pub use adaptive::{
    AsbConfig, AsbEngine, AsbOutcome, ColumnThresholds, DieEvaluation, StandbyLeakageGrid,
};
pub use body_bias::BodyBiasGenerator;
pub use monitor::{LeakageBinner, LeakageMonitor, VtRegion};
pub use self_repair::{CornerResponse, Policy, SelfRepairConfig, SelfRepairingMemory};
pub use source_bias::{HoldModelGrid, MaxVsbOutcome, SourceBiasAnalyzer};
