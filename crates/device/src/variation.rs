//! Process-variation model: inter-die threshold shifts plus intra-die
//! random dopant fluctuation (RDF).
//!
//! This is the variation decomposition the paper works with throughout:
//! a die-global `Vt_inter ~ N(0, σ_inter²)` shared by every transistor on
//! the die, and an independent per-transistor `ΔVt_rdf ~ N(0, σ_rdf²)` with
//! `σ_rdf` from the Pelgrom law (bigger devices match better).

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::mosfet::Mosfet;

/// Statistical variation model for a technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Standard deviation of the inter-die Vt shift \[V\].
    sigma_inter: f64,
}

impl VariationModel {
    /// Creates a model with the given inter-die sigma \[V\].
    ///
    /// # Panics
    ///
    /// Panics if `sigma_inter` is negative or non-finite.
    pub fn new(sigma_inter: f64) -> Self {
        assert!(
            sigma_inter.is_finite() && sigma_inter >= 0.0,
            "invalid sigma_inter {sigma_inter}"
        );
        Self { sigma_inter }
    }

    /// Inter-die sigma \[V\].
    pub fn sigma_inter(&self) -> f64 {
        self.sigma_inter
    }

    /// Samples the inter-die Vt shift of one die.
    pub fn sample_die(&self, rng: &mut impl Rng) -> f64 {
        let g: f64 = StandardNormal.sample(rng);
        self.sigma_inter * g
    }

    /// Samples the RDF deviation of one device (Pelgrom sigma).
    pub fn sample_device(&self, device: &Mosfet, rng: &mut impl Rng) -> f64 {
        let g: f64 = StandardNormal.sample(rng);
        device.sigma_vt() * g
    }

    /// Total per-device sigma when inter- and intra-die contributions are
    /// lumped (used by closed-form spread estimates).
    pub fn sigma_total(&self, device: &Mosfet) -> f64 {
        let s_rdf = device.sigma_vt();
        (self.sigma_inter * self.sigma_inter + s_rdf * s_rdf).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Technology;
    use pvtm_stats::Summary;

    #[test]
    fn sample_die_statistics() {
        let vm = VariationModel::new(0.05);
        let mut rng = pvtm_stats::rng::substream(31, 0);
        let s: Summary = (0..50_000).map(|_| vm.sample_die(&mut rng)).collect();
        assert!(s.mean().abs() < 1e-3);
        assert!((s.std_dev() - 0.05).abs() < 1e-3);
    }

    #[test]
    fn sample_device_uses_pelgrom_sigma() {
        let t = Technology::predictive_70nm();
        let dev = Mosfet::nmos(&t, 100e-9, t.lmin());
        let vm = VariationModel::new(0.0);
        let mut rng = pvtm_stats::rng::substream(32, 0);
        let s: Summary = (0..50_000)
            .map(|_| vm.sample_device(&dev, &mut rng))
            .collect();
        let expected = dev.sigma_vt();
        assert!((s.std_dev() - expected).abs() < 0.02 * expected);
        // Minimum-geometry RDF sigma should land in the paper's regime.
        assert!(expected > 0.04 && expected < 0.10, "sigma = {expected}");
    }

    #[test]
    fn sigma_total_combines_in_quadrature() {
        let t = Technology::predictive_70nm();
        let dev = Mosfet::nmos(&t, 100e-9, t.lmin());
        let vm = VariationModel::new(0.04);
        let s = vm.sigma_total(&dev);
        let expected = (0.04f64.powi(2) + dev.sigma_vt().powi(2)).sqrt();
        assert!((s - expected).abs() < 1e-15);
    }

    #[test]
    fn zero_sigma_inter_is_deterministic_for_dies() {
        let vm = VariationModel::new(0.0);
        let mut rng = pvtm_stats::rng::substream(33, 0);
        for _ in 0..10 {
            assert_eq!(vm.sample_die(&mut rng), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid sigma_inter")]
    fn rejects_negative_sigma() {
        let _ = VariationModel::new(-0.01);
    }
}
