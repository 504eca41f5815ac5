//! Transistor parameter cards.

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::Nmos => write!(f, "nmos"),
            Polarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Compact-model parameters for one device flavour.
///
/// All voltages are expressed in the device's *own* polarity convention
/// (i.e. for PMOS these are the magnitudes after reflecting the terminal
/// voltages), so one equation set serves both flavours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransistorParams {
    /// Zero-bias threshold voltage magnitude \[V\].
    pub vt0: f64,
    /// Body-effect coefficient γ \[√V\].
    pub gamma: f64,
    /// Surface potential 2φF \[V\] used by the body-effect formula.
    pub phi_s: f64,
    /// Subthreshold slope factor n (S = n·vT·ln 10).
    pub n_sub: f64,
    /// Process transconductance µ·Cox \[A/V²\] at the reference temperature.
    pub mu_cox: f64,
    /// Channel-length modulation λ \[1/V\].
    pub lambda: f64,
    /// DIBL coefficient η \[V/V\]: Vt reduction per volt of Vds.
    pub dibl: f64,
    /// Threshold temperature coefficient \[V/K\] (Vt drops as T rises).
    pub vt_tc: f64,
    /// Mobility temperature exponent (µ ∝ (T/T₀)^−mu_exp).
    pub mu_exp: f64,
    /// Gate tunnelling current density at full oxide drive \[A/m²\].
    pub jg0: f64,
    /// Gate-leakage voltage sensitivity \[V\] (exponential slope).
    pub sg: f64,
    /// Junction band-to-band tunnelling current per width at 1 V reverse
    /// bias \[A/m\].
    pub jbtbt: f64,
    /// BTBT reverse-bias exponential sensitivity \[1/V\].
    pub cbtbt: f64,
    /// Body-diode saturation current per width \[A/m\].
    pub jdiode: f64,
    /// Pelgrom matching coefficient A_vt \[V·m\]; σ(ΔVt) = A_vt / √(W·L).
    pub avt: f64,
}

impl TransistorParams {
    /// Validates physical sanity of the card.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(&str, bool); 8] = [
            ("vt0 in (0, 1.5)", self.vt0 > 0.0 && self.vt0 < 1.5),
            ("gamma >= 0", self.gamma >= 0.0),
            ("phi_s > 0", self.phi_s > 0.0),
            ("n_sub >= 1", self.n_sub >= 1.0),
            ("mu_cox > 0", self.mu_cox > 0.0),
            ("lambda >= 0", self.lambda >= 0.0),
            ("dibl >= 0", self.dibl >= 0.0),
            ("avt > 0", self.avt > 0.0),
        ];
        for (name, ok) in checks {
            if !ok {
                return Err(format!("transistor parameter constraint violated: {name}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card() -> TransistorParams {
        *crate::Technology::predictive_70nm().nmos()
    }

    #[test]
    fn builtin_card_validates() {
        card().validate().expect("built-in card must be valid");
    }

    #[test]
    fn validation_catches_bad_vt0() {
        let mut p = card();
        p.vt0 = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_n_sub() {
        let mut p = card();
        p.n_sub = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn polarity_display() {
        assert_eq!(Polarity::Nmos.to_string(), "nmos");
        assert_eq!(Polarity::Pmos.to_string(), "pmos");
    }
}
