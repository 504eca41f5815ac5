//! Digital-to-analog converter model for the source-bias generator.
//!
//! The paper's Fig. 7 generates the source bias by converting a digital
//! counter value to an analog voltage. The model here is an n-bit string
//! DAC with optional integral nonlinearity, so the calibration experiments
//! can sweep the resolution (the DAC ablation of DESIGN.md).

/// An n-bit DAC mapping codes `0..2^bits − 1` onto `[0, vref]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dac {
    bits: u8,
    vref: f64,
    /// Peak integral nonlinearity as a fraction of `vref` (sinusoidal
    /// profile; 0 = ideal).
    inl_frac: f64,
}

impl Dac {
    /// Creates an ideal DAC.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16` and `vref > 0`.
    pub fn new(bits: u8, vref: f64) -> Self {
        assert!((1..=16).contains(&bits), "unsupported DAC width {bits}");
        assert!(vref > 0.0 && vref.is_finite(), "invalid vref {vref}");
        Self {
            bits,
            vref,
            inl_frac: 0.0,
        }
    }

    /// Adds a sinusoidal integral-nonlinearity profile with the given peak
    /// (fraction of `vref`).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is negative or ≥ 0.5.
    pub fn with_inl(mut self, inl_frac: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&inl_frac),
            "INL fraction out of range: {inl_frac}"
        );
        self.inl_frac = inl_frac;
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale reference \[V\].
    pub fn vref(&self) -> f64 {
        self.vref
    }

    /// Number of codes.
    pub fn codes(&self) -> u32 {
        1u32 << self.bits
    }

    /// Ideal step size (1 LSB) \[V\].
    pub fn lsb(&self) -> f64 {
        self.vref / (self.codes() - 1) as f64
    }

    /// Output voltage for a code.
    ///
    /// # Panics
    ///
    /// Panics if the code exceeds the DAC range.
    pub fn voltage(&self, code: u32) -> f64 {
        assert!(code < self.codes(), "code {code} out of range");
        let frac = code as f64 / (self.codes() - 1) as f64;
        let ideal = frac * self.vref;
        let inl = self.inl_frac * self.vref * (std::f64::consts::PI * frac).sin();
        (ideal + inl).clamp(0.0, self.vref)
    }

    /// Largest code whose output does not exceed `volts` (the quantization
    /// the calibration loop lives with).
    pub fn quantize_down(&self, volts: f64) -> u32 {
        let mut best = 0;
        for code in 0..self.codes() {
            if self.voltage(code) <= volts {
                best = code;
            // pvtm-lint: allow(no-float-eq) inl_frac is a configured constant; exact zero selects the ideal-DAC fast path
            } else if self.inl_frac == 0.0 {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_dac_endpoints_and_lsb() {
        let d = Dac::new(5, 0.8);
        assert_eq!(d.voltage(0), 0.0);
        assert!((d.voltage(31) - 0.8).abs() < 1e-12);
        assert!((d.lsb() - 0.8 / 31.0).abs() < 1e-12);
        assert_eq!(d.codes(), 32);
    }

    #[test]
    fn ideal_dac_is_monotone_and_uniform() {
        let d = Dac::new(6, 1.0);
        let mut prev = -1.0;
        for code in 0..d.codes() {
            let v = d.voltage(code);
            assert!(v > prev);
            prev = v;
        }
        let step = d.voltage(10) - d.voltage(9);
        assert!((step - d.lsb()).abs() < 1e-12);
    }

    #[test]
    fn inl_bends_midscale_but_keeps_endpoints() {
        let d = Dac::new(6, 1.0).with_inl(0.02);
        assert_eq!(d.voltage(0), 0.0);
        assert!((d.voltage(63) - 1.0).abs() < 1e-9);
        let mid = d.voltage(32);
        let ideal_mid = 32.0 / 63.0;
        assert!(
            (mid - ideal_mid) > 0.01,
            "midscale must bend up: {mid} vs {ideal_mid}"
        );
    }

    #[test]
    fn quantize_down_never_overshoots() {
        let d = Dac::new(5, 0.8);
        for i in 0..40 {
            let target = i as f64 * 0.02;
            let code = d.quantize_down(target);
            assert!(d.voltage(code) <= target + 1e-12);
            if code + 1 < d.codes() {
                assert!(d.voltage(code + 1) > target);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_code_overflow() {
        let d = Dac::new(3, 1.0);
        let _ = d.voltage(8);
    }
}
