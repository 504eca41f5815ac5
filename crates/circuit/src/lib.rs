//! A small modified-nodal-analysis circuit simulator.
//!
//! The paper's evaluation rests on HSPICE DC and transient simulations of a
//! 6T SRAM cell. This crate is the substitute: enough of a SPICE to compute
//! everything those analyses need —
//!
//! - **DC operating points** of nonlinear MOSFET circuits via damped
//!   Newton–Raphson (read-disturb voltages, inverter trip points, write
//!   margins, hold states): warm from the last solution, else up one cold
//!   ladder of six Gmin-continuation and source-ramp rungs, the last three
//!   of them rescue rungs for near-fold states,
//! - **DC sweeps** with warm starts (butterfly curves, VTCs),
//! - **transient analysis** via backward Euler (bit-line discharge for
//!   access-time extraction).
//!
//! Every DC solve runs through [`CircuitTemplate`]: a netlist
//! compiled once, patched through typed slots and re-solved from its last
//! solution. [`Netlist::solve_dc`] and a transient run's initial operating
//! point are one cold template solve each, so every solve is armed for
//! fault injection once and reported to telemetry (a `dc.solve` span and
//! its solver counters). A caller sets only where the ladder starts
//! ([`DcOptions`]: the starting Gmin and the node guesses); Newton's
//! limits are the solver's own.
//!
//! Circuits here are small (an SRAM cell plus periphery is under twenty
//! nodes), so the solver uses dense LU factorization and per-element
//! numeric derivatives — simple, robust, and fast at this scale.
//!
//! # Example
//!
//! ```
//! use pvtm_circuit::Netlist;
//!
//! // A resistive divider: 1 V across two equal resistors.
//! let mut ckt = Netlist::new();
//! let top = ckt.node("top");
//! let mid = ckt.node("mid");
//! ckt.vsource("V1", top, Netlist::GROUND, 1.0);
//! ckt.resistor("R1", top, mid, 1e3);
//! ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
//! let sol = ckt.solve_dc()?;
//! assert!((sol.voltage(mid) - 0.5).abs() < 1e-6);
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

pub mod dc;
pub mod linalg;
pub mod netlist;
pub mod parser;
pub mod template;
pub mod transient;

pub use dc::{DcOptions, DcSolution};
pub use netlist::{check_quarantine, CircuitError, Element, Netlist, NodeId};
pub use parser::{parse_netlist, ParseError};
pub use pvtm_telemetry::SolverStats;
pub use template::{CircuitTemplate, MosfetSlot, VsourceSlot};
pub use transient::{TransientOptions, TransientResult};

/// Fault arming is process-global (the `STATE` atomic); tests that force a
/// depth serialize on this lock so a concurrent test can't disable it
/// mid-solve.
#[cfg(test)]
pub(crate) static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
