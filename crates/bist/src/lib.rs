//! Built-in self-test (BIST) substrate.
//!
//! The paper's self-adaptive source-bias scheme (its Fig. 7) is built
//! around a BIST engine: a March-test generator that exercises the array, a
//! register bank tracking faulty columns, a counter comparing the faulty
//! count against the redundancy budget, and a DAC generating the source
//! bias from a digital code. This crate provides those blocks as reusable,
//! fully testable components:
//!
//! - [`memory`] — a behavioural memory array with injectable faults
//!   (stuck-at, transition, inversion coupling, and *retention* faults that
//!   fire only above a per-cell source-bias level — the physical fault
//!   class the calibration loop hunts),
//! - [`march`] — a March-test DSL with the classic algorithms (MATS+,
//!   March C−, March A, March SS),
//! - [`bist`] — the controller: runs a test, latches per-column fault
//!   flags, counts faulty columns,
//! - [`dac`] — an n-bit DAC model with optional nonlinearity.
//!
//! # Example
//!
//! ```
//! use pvtm_bist::memory::{Fault, FaultKind, MemoryModel};
//! use pvtm_bist::march::MarchTest;
//! use pvtm_bist::bist::BistController;
//!
//! let mut mem = MemoryModel::new(8, 8);
//! mem.inject(Fault { row: 3, col: 5, kind: FaultKind::StuckAt(false) });
//! let report = BistController::new()
//!     .run(&MarchTest::march_c_minus(), &mut mem)
//!     .expect("march ran on this memory, so every failure column is in range");
//! assert_eq!(report.faulty_columns(), 1);
//! assert!(report.column_flag(5));
//! ```

pub mod bist;
pub mod dac;
pub mod march;
pub mod memory;

pub use bist::{BistController, BistError, BistReport};
pub use dac::Dac;
pub use march::{MarchElement, MarchTest, Op, Order};
pub use memory::{Fault, FaultKind, MemoryModel};
