//! Body-bias generation policy.

use crate::monitor::VtRegion;

/// The discrete body-bias generator of the self-repairing memory: one
/// reverse level for region A, zero for region B, one forward level for
/// region C. Levels are bounded by the leakage penalties of Fig. 5a
/// (junction BTBT under deep RBB, body-diode current under deep FBB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyBiasGenerator {
    /// Reverse body-bias level applied to low-Vt dies \[V\] (negative).
    rbb: f64,
    /// Forward body-bias level applied to high-Vt dies \[V\] (positive).
    fbb: f64,
}

impl Default for BodyBiasGenerator {
    /// ±0.45 V: inside the bounds where junction tunnelling (RBB side) and
    /// the body diode (FBB side) stay below the subthreshold savings.
    fn default() -> Self {
        Self::new(-0.45, 0.45)
    }
}

impl BodyBiasGenerator {
    /// Creates a generator with explicit levels.
    ///
    /// # Panics
    ///
    /// Panics unless `rbb <= 0 <= fbb` and both are within ±1 V.
    pub fn new(rbb: f64, fbb: f64) -> Self {
        assert!(
            (-1.0..=0.0).contains(&rbb) && (0.0..=1.0).contains(&fbb),
            "bias levels out of range: rbb={rbb}, fbb={fbb}"
        );
        Self { rbb, fbb }
    }

    /// Reverse level \[V\].
    pub fn rbb(&self) -> f64 {
        self.rbb
    }

    /// Forward level \[V\].
    pub fn fbb(&self) -> f64 {
        self.fbb
    }

    /// The bias applied to a die in the given region.
    pub fn bias_for(&self, region: VtRegion) -> f64 {
        match region {
            VtRegion::LowVt => self.rbb,
            VtRegion::Nominal => 0.0,
            VtRegion::HighVt => self.fbb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_to_bias_mapping() {
        let g = BodyBiasGenerator::default();
        assert!(g.bias_for(VtRegion::LowVt) < 0.0);
        assert_eq!(g.bias_for(VtRegion::Nominal), 0.0);
        assert!(g.bias_for(VtRegion::HighVt) > 0.0);
    }

    #[test]
    fn custom_levels() {
        let g = BodyBiasGenerator::new(-0.3, 0.2);
        assert_eq!(g.rbb(), -0.3);
        assert_eq!(g.fbb(), 0.2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_positive_rbb() {
        let _ = BodyBiasGenerator::new(0.1, 0.4);
    }
}
