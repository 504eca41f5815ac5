//! Compact MOSFET models for sub-90 nm predictive technologies.
//!
//! The SOCC 2006 paper evaluates everything with HSPICE on the Berkeley
//! Predictive Technology Model (BPTM) 70 nm device cards. This crate is the
//! substitute substrate: an EKV-style compact model that is smooth from weak
//! to strong inversion (Newton-friendly), with
//!
//! - threshold voltage including **body effect** (the knob exploited by the
//!   paper's adaptive body bias) and DIBL,
//! - explicit **leakage components** — subthreshold, gate, junction
//!   band-to-band tunnelling, and the forward body diode — whose opposing
//!   body-bias sensitivities reproduce the paper's Fig. 5a,
//! - **random dopant fluctuation** statistics via the Pelgrom law, plus
//!   inter-die threshold shifts (the paper's `Vt_inter`),
//! - temperature dependence of the thermal voltage, threshold and mobility.
//!
//! # Example
//!
//! ```
//! use pvtm_device::{Technology, Mosfet, Bias};
//!
//! let tech = Technology::predictive_70nm();
//! let n = Mosfet::nmos(&tech, 200e-9, tech.lmin());
//! // Saturation current at full gate drive.
//! let on = n.ids(Bias::new(1.0, 1.0, 0.0, 0.0), tech.temp_k());
//! // Subthreshold leakage with the gate off.
//! let off = n.ids(Bias::new(0.0, 1.0, 0.0, 0.0), tech.temp_k());
//! assert!(on > 1e4 * off);
//! ```

pub mod leakage;
pub mod mosfet;
pub mod params;
pub mod tech;
pub mod variation;

pub use leakage::LeakageComponents;
pub use mosfet::{Bias, Mosfet, MosfetAt};
pub use params::{Polarity, TransistorParams};
pub use tech::Technology;
pub use variation::VariationModel;

/// Boltzmann constant over elementary charge, in V/K.
pub const K_B_OVER_Q: f64 = 8.617_333_262e-5;

/// Thermal voltage `kT/q` at the given temperature in kelvin.
///
/// # Example
///
/// ```
/// let vt = pvtm_device::thermal_voltage(300.0);
/// assert!((vt - 0.02585).abs() < 1e-4);
/// ```
pub fn thermal_voltage(temp_k: f64) -> f64 {
    K_B_OVER_Q * temp_k
}
