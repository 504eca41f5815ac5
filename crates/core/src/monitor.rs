//! On-line leakage monitor, comparators, and inter-die Vt binning.
//!
//! The paper's §III.D insight: a single cell's leakage distributions at
//! different inter-die corners overlap (RDF dominates), but the leakage of
//! a *large array* — the sum over all cells — separates cleanly by the
//! central limit theorem. The monitor therefore senses the whole array's
//! leakage, converts it to a voltage, and two comparators bin the die into
//! region A (low Vt / leaky), B (nominal) or C (high Vt), which drives the
//! body-bias generator.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::Serialize;

/// Inter-die Vt region of a die (paper Fig. 2c's regions A/B/C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum VtRegion {
    /// Region A: low-Vt, leaky dies — candidates for reverse body bias.
    LowVt,
    /// Region B: nominal dies — zero body bias.
    Nominal,
    /// Region C: high-Vt, slow dies — candidates for forward body bias.
    HighVt,
}

impl std::fmt::Display for VtRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtRegion::LowVt => write!(f, "low-Vt (A)"),
            VtRegion::Nominal => write!(f, "nominal (B)"),
            VtRegion::HighVt => write!(f, "high-Vt (C)"),
        }
    }
}

/// The on-line leakage monitor: a transresistance stage converting the
/// array's standby current into a voltage, with optional input-referred
/// offset noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageMonitor {
    /// Transresistance gain \[V/A\].
    gain: f64,
    /// Output clamp (supply) \[V\].
    vdd: f64,
    /// Gaussian output-referred offset sigma \[V\] (0 = ideal).
    offset_sigma: f64,
}

impl LeakageMonitor {
    /// Creates a monitor whose full-scale output (`vdd`) corresponds to
    /// `full_scale_current`.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive and finite.
    pub fn new(full_scale_current: f64, vdd: f64) -> Self {
        assert!(
            full_scale_current > 0.0 && full_scale_current.is_finite(),
            "invalid full-scale current"
        );
        assert!(vdd > 0.0 && vdd.is_finite(), "invalid vdd");
        Self {
            gain: vdd / full_scale_current,
            vdd,
            offset_sigma: 0.0,
        }
    }

    /// Adds Gaussian output-referred offset noise.
    ///
    /// # Panics
    ///
    /// Panics if the sigma is negative.
    pub fn with_offset_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "invalid offset sigma");
        self.offset_sigma = sigma;
        self
    }

    /// Transresistance gain \[V/A\].
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Ideal (noiseless) output voltage for an array leakage current.
    pub fn output_ideal(&self, i_leak: f64) -> f64 {
        (self.gain * i_leak.max(0.0)).clamp(0.0, self.vdd)
    }

    /// Output voltage including one sample of the offset noise.
    pub fn output(&self, i_leak: f64, rng: &mut impl Rng) -> f64 {
        let noise: f64 = StandardNormal.sample(rng);
        (self.output_ideal(i_leak) + self.offset_sigma * noise).clamp(0.0, self.vdd)
    }
}

/// Two-comparator binning stage: compares the monitor output against
/// `vref_high > vref_low` and assigns the Vt region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageBinner {
    monitor: LeakageMonitor,
    vref_high: f64,
    vref_low: f64,
}

impl LeakageBinner {
    /// Creates a binner with explicit reference voltages.
    ///
    /// # Panics
    ///
    /// Panics unless `vref_low < vref_high`.
    pub fn new(monitor: LeakageMonitor, vref_low: f64, vref_high: f64) -> Self {
        assert!(
            vref_low < vref_high,
            "references must be ordered: {vref_low} < {vref_high}"
        );
        Self {
            monitor,
            vref_high,
            vref_low,
        }
    }

    /// Creates a binner whose references correspond to two leakage-current
    /// thresholds (the array leakage expected at the region boundaries).
    ///
    /// # Panics
    ///
    /// Panics unless `i_low < i_high`.
    pub fn from_current_thresholds(monitor: LeakageMonitor, i_low: f64, i_high: f64) -> Self {
        assert!(i_low < i_high, "thresholds must be ordered");
        Self::new(
            monitor,
            monitor.output_ideal(i_low),
            monitor.output_ideal(i_high),
        )
    }

    /// The monitor in use.
    pub fn monitor(&self) -> &LeakageMonitor {
        &self.monitor
    }

    /// Classifies a die by its array leakage (ideal monitor).
    pub fn classify_ideal(&self, i_leak: f64) -> VtRegion {
        self.classify_vout(self.monitor.output_ideal(i_leak))
    }

    /// Classifies a die with monitor noise applied.
    pub fn classify(&self, i_leak: f64, rng: &mut impl Rng) -> VtRegion {
        self.classify_vout(self.monitor.output(i_leak, rng))
    }

    fn classify_vout(&self, vout: f64) -> VtRegion {
        if vout > self.vref_high {
            // Leakier than the high threshold: low-Vt die.
            VtRegion::LowVt
        } else if vout < self.vref_low {
            VtRegion::HighVt
        } else {
            VtRegion::Nominal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binner() -> LeakageBinner {
        // Full scale 1 mA at 1 V; thresholds at 0.2 / 0.6 mA.
        let mon = LeakageMonitor::new(1e-3, 1.0);
        LeakageBinner::from_current_thresholds(mon, 0.2e-3, 0.6e-3)
    }

    #[test]
    fn monitor_output_is_linear_then_clamped() {
        let mon = LeakageMonitor::new(1e-3, 1.0);
        assert!((mon.output_ideal(0.5e-3) - 0.5).abs() < 1e-12);
        assert_eq!(mon.output_ideal(2e-3), 1.0);
        assert_eq!(mon.output_ideal(-1e-3), 0.0);
    }

    #[test]
    fn binning_regions() {
        let b = binner();
        assert_eq!(b.classify_ideal(0.8e-3), VtRegion::LowVt);
        assert_eq!(b.classify_ideal(0.4e-3), VtRegion::Nominal);
        assert_eq!(b.classify_ideal(0.05e-3), VtRegion::HighVt);
    }

    #[test]
    fn boundary_currents_fall_in_region_b() {
        // At exactly the thresholds the comparators output "not above" /
        // "not below", keeping the die in region B (no bias applied).
        let b = binner();
        assert_eq!(b.classify_ideal(0.2e-3), VtRegion::Nominal);
        assert_eq!(b.classify_ideal(0.6e-3), VtRegion::Nominal);
    }

    #[test]
    fn offset_noise_can_misbin_near_boundaries() {
        let mon = LeakageMonitor::new(1e-3, 1.0).with_offset_sigma(0.05);
        let b = LeakageBinner::from_current_thresholds(mon, 0.2e-3, 0.6e-3);
        let mut rng = pvtm_stats::rng::substream(77, 0);
        // Just above the high threshold: noise flips some decisions.
        let near: Vec<VtRegion> = (0..200).map(|_| b.classify(0.62e-3, &mut rng)).collect();
        assert!(
            near.iter().any(|&r| r != near[0]),
            "noise must create boundary ambiguity"
        );
        // Far from boundaries the decision is stable.
        let far: Vec<VtRegion> = (0..200).map(|_| b.classify(0.95e-3, &mut rng)).collect();
        assert!(far.iter().all(|&r| r == far[0]));
    }

    #[test]
    fn region_display() {
        assert_eq!(VtRegion::LowVt.to_string(), "low-Vt (A)");
        assert_eq!(VtRegion::Nominal.to_string(), "nominal (B)");
        assert_eq!(VtRegion::HighVt.to_string(), "high-Vt (C)");
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn rejects_unordered_references() {
        let mon = LeakageMonitor::new(1e-3, 1.0);
        let _ = LeakageBinner::new(mon, 0.8, 0.2);
    }
}
