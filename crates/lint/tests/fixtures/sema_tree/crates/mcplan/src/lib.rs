//! Non-policy helper crate reached from the policy API: only the sinks
//! that API reaches are flagged here, with their call chain.

pub mod knobs;
pub mod reduce;
pub mod rng;
pub mod streams;
pub mod telemetry_names;

/// Seeded violation: panics on empty input, and `pvtm_sram` exposes it.
pub fn robust_mean(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}
