//! Predictive technology cards.
//!
//! The numbers below are *predictive-model-like*, chosen to land in the same
//! regime as the BPTM cards the paper used (70 nm, VDD = 1.0 V, cell
//! transistor off-currents of a few nA, RDF sigma of ~25–35 mV for
//! minimum-geometry devices). Absolute currents are not calibrated against
//! the authors' testbed — the reproduction targets the *shapes* of the
//! paper's figures, which depend on the mechanisms, not the decimal points.

use crate::params::{Polarity, TransistorParams};

/// A process technology: supply, geometry floor, reference temperature and
/// one parameter card per device flavour.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    name: String,
    node_nm: f64,
    vdd: f64,
    lmin: f64,
    temp_k: f64,
    nmos: TransistorParams,
    pmos: TransistorParams,
}

impl Technology {
    /// Predictive 70 nm card — the node used throughout the paper.
    ///
    /// # Example
    ///
    /// ```
    /// let t = pvtm_device::Technology::predictive_70nm();
    /// assert_eq!(t.vdd(), 1.0);
    /// assert_eq!(t.node_nm(), 70.0);
    /// ```
    pub fn predictive_70nm() -> Self {
        Self {
            name: "predictive-70nm".to_string(),
            node_nm: 70.0,
            vdd: 1.0,
            lmin: 70e-9,
            temp_k: 300.0,
            nmos: TransistorParams {
                vt0: 0.20,
                gamma: 0.30,
                phi_s: 0.88,
                n_sub: 1.40,
                mu_cox: 350e-6,
                lambda: 0.10,
                dibl: 0.045,
                vt_tc: 0.7e-3,
                mu_exp: 1.5,
                jg0: 1.6e5,
                sg: 0.13,
                jbtbt: 3.0e-3,
                cbtbt: 4.0,
                jdiode: 4.0e-11,
                avt: 6.0e-9,
            },
            pmos: TransistorParams {
                vt0: 0.22,
                gamma: 0.28,
                phi_s: 0.88,
                n_sub: 1.42,
                mu_cox: 150e-6,
                lambda: 0.12,
                dibl: 0.040,
                vt_tc: 0.7e-3,
                mu_exp: 1.5,
                jg0: 0.5e5,
                sg: 0.13,
                jbtbt: 2.0e-3,
                cbtbt: 4.0,
                jdiode: 4.0e-11,
                avt: 6.0e-9,
            },
        }
    }

    /// Predictive 90 nm card — slightly higher Vt, lower leakage; included
    /// for node-scaling studies.
    pub fn predictive_90nm() -> Self {
        let mut t = Self::predictive_70nm();
        t.name = "predictive-90nm".to_string();
        t.node_nm = 90.0;
        t.vdd = 1.2;
        t.lmin = 90e-9;
        t.nmos.vt0 = 0.26;
        t.pmos.vt0 = 0.28;
        t.nmos.dibl = 0.030;
        t.pmos.dibl = 0.028;
        t.nmos.jg0 = 4.0e4;
        t.pmos.jg0 = 1.3e4;
        t.nmos.jbtbt = 8.0e-4;
        t.pmos.jbtbt = 5.0e-4;
        t.nmos.avt = 5.0e-9;
        t.pmos.avt = 5.0e-9;
        t
    }

    /// Predictive 45 nm card — lower Vt, thinner oxide, much higher gate and
    /// BTBT leakage, larger RDF. Included for "technology scaling makes this
    /// worse" studies (the paper's motivation section).
    pub fn predictive_45nm() -> Self {
        let mut t = Self::predictive_70nm();
        t.name = "predictive-45nm".to_string();
        t.node_nm = 45.0;
        t.vdd = 0.9;
        t.lmin = 45e-9;
        t.nmos.vt0 = 0.17;
        t.pmos.vt0 = 0.19;
        t.nmos.dibl = 0.070;
        t.pmos.dibl = 0.065;
        t.nmos.jg0 = 6.0e5;
        t.pmos.jg0 = 2.0e5;
        t.nmos.jbtbt = 6.0e-3;
        t.pmos.jbtbt = 4.0e-3;
        t.nmos.avt = 7.0e-9;
        t.pmos.avt = 7.0e-9;
        t
    }

    /// Technology name, e.g. `predictive-70nm`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature size in nanometres.
    pub fn node_nm(&self) -> f64 {
        self.node_nm
    }

    /// Nominal supply voltage \[V\].
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Minimum channel length \[m\].
    pub fn lmin(&self) -> f64 {
        self.lmin
    }

    /// Reference temperature \[K\] (27 °C, as in the paper's Fig. 3).
    pub fn temp_k(&self) -> f64 {
        self.temp_k
    }

    /// NMOS parameter card.
    pub fn nmos(&self) -> &TransistorParams {
        &self.nmos
    }

    /// PMOS parameter card.
    pub fn pmos(&self) -> &TransistorParams {
        &self.pmos
    }

    /// Parameter card for the requested polarity.
    pub fn params(&self, polarity: Polarity) -> &TransistorParams {
        match polarity {
            Polarity::Nmos => &self.nmos,
            Polarity::Pmos => &self.pmos,
        }
    }

    /// Returns a copy with a different operating temperature.
    pub fn with_temperature(mut self, temp_k: f64) -> Self {
        assert!(
            temp_k > 0.0 && temp_k.is_finite(),
            "invalid temperature {temp_k} K"
        );
        self.temp_k = temp_k;
        self
    }

    /// Returns a copy with a different supply voltage (used for standby
    /// supply-scaling studies).
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        assert!(vdd > 0.0 && vdd.is_finite(), "invalid vdd {vdd} V");
        self.vdd = vdd;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cards_validate() {
        for t in [
            Technology::predictive_70nm(),
            Technology::predictive_90nm(),
            Technology::predictive_45nm(),
        ] {
            t.nmos()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            t.pmos()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            assert!(t.lmin() > 0.0);
            assert!(t.vdd() > 0.0);
        }
    }

    #[test]
    fn scaling_trends_hold() {
        let t90 = Technology::predictive_90nm();
        let t70 = Technology::predictive_70nm();
        let t45 = Technology::predictive_45nm();
        // Vt falls and gate leakage rises as the node shrinks.
        assert!(t90.nmos().vt0 > t70.nmos().vt0);
        assert!(t70.nmos().vt0 > t45.nmos().vt0);
        assert!(t90.nmos().jg0 < t70.nmos().jg0);
        assert!(t70.nmos().jg0 < t45.nmos().jg0);
    }

    #[test]
    fn with_temperature_and_vdd() {
        let t = Technology::predictive_70nm()
            .with_temperature(358.0)
            .with_vdd(0.9);
        assert_eq!(t.temp_k(), 358.0);
        assert_eq!(t.vdd(), 0.9);
    }

    #[test]
    #[should_panic(expected = "invalid temperature")]
    fn rejects_negative_temperature() {
        let _ = Technology::predictive_70nm().with_temperature(-1.0);
    }

    #[test]
    fn params_selector_matches_fields() {
        let t = Technology::predictive_70nm();
        assert_eq!(t.params(Polarity::Nmos), t.nmos());
        assert_eq!(t.params(Polarity::Pmos), t.pmos());
    }
}
