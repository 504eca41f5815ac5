//! The 6T SRAM cell: sizing, deviations and operating conditions.
//!
//! Node/transistor convention (paper Fig. 1): the left inverter `PL`/`NL`
//! drives node `VL` and is driven by `VR`; the right inverter `PR`/`NR`
//! drives `VR` from `VL`. Access transistors `AXL` (`BL`↔`VL`) and `AXR`
//! (`BR`↔`VR`) are gated by the word line. All analyses assume the cell
//! stores a **1 at `VL`** (so `VR` holds the 0 and is the read-disturbed
//! node); use [`SramCell::mirrored`] for the opposite orientation.

use pvtm_device::{Mosfet, Technology};

/// The six transistors of the cell, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Xtor {
    /// Left pull-down NMOS (gate at `VR`, drain at `VL`).
    Nl,
    /// Right pull-down NMOS (gate at `VL`, drain at `VR`).
    Nr,
    /// Left pull-up PMOS (gate at `VR`, drain at `VL`).
    Pl,
    /// Right pull-up PMOS (gate at `VL`, drain at `VR`).
    Pr,
    /// Left access NMOS (`BL` ↔ `VL`, gate at `WL`).
    Axl,
    /// Right access NMOS (`BR` ↔ `VR`, gate at `WL`).
    Axr,
}

impl Xtor {
    /// All six transistors in canonical order.
    pub const ALL: [Xtor; 6] = [Xtor::Nl, Xtor::Nr, Xtor::Pl, Xtor::Pr, Xtor::Axl, Xtor::Axr];

    /// Index of this transistor in the canonical order.
    pub fn index(self) -> usize {
        match self {
            Xtor::Nl => 0,
            Xtor::Nr => 1,
            Xtor::Pl => 2,
            Xtor::Pr => 3,
            Xtor::Axl => 4,
            Xtor::Axr => 5,
        }
    }

    /// True for the NMOS devices (pull-downs and access transistors).
    pub fn is_nmos(self) -> bool {
        !matches!(self, Xtor::Pl | Xtor::Pr)
    }
}

/// Transistor widths and lengths of the cell \[m\].
///
/// The default sizing follows the usual 6T ratios: pull-down strongest
/// (cell β ≈ 1.4 for read stability), access in between, pull-up weakest
/// (for writability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSizing {
    /// Pull-down NMOS width.
    pub wpd: f64,
    /// Pull-up PMOS width.
    pub wpu: f64,
    /// Access NMOS width.
    pub wax: f64,
    /// Pull-down channel length.
    pub lpd: f64,
    /// Pull-up channel length.
    pub lpu: f64,
    /// Access channel length.
    pub lax: f64,
}

impl CellSizing {
    /// Default sizing for a technology (minimum lengths, conventional
    /// width ratios).
    pub fn default_for(tech: &Technology) -> Self {
        let l = tech.lmin();
        Self {
            wpd: 200e-9,
            wpu: 100e-9,
            wax: 140e-9,
            lpd: l,
            lpu: l,
            lax: l,
        }
    }

    /// Cell β ratio (pull-down strength / access strength).
    pub fn beta(&self) -> f64 {
        (self.wpd / self.lpd) / (self.wax / self.lax)
    }

    /// Validates that every dimension is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending dimension.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("wpd", self.wpd),
            ("wpu", self.wpu),
            ("wax", self.wax),
            ("lpd", self.lpd),
            ("lpu", self.lpu),
            ("lax", self.lax),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("cell dimension {name} must be positive, got {v}"));
            }
        }
        Ok(())
    }
}

/// Operating conditions for a cell analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditions {
    /// Cell supply \[V\].
    pub vdd: f64,
    /// NMOS body voltage \[V\]: negative = reverse body bias, positive =
    /// forward body bias (the paper applies body bias to NMOS only).
    pub body_bias: f64,
    /// Source-line voltage \[V\] (raised in standby by the self-adaptive
    /// source-bias scheme; 0 in active mode).
    pub vsb: f64,
    /// Temperature \[K\].
    pub temp_k: f64,
}

impl Conditions {
    /// Active-mode conditions at the technology's nominal corner.
    pub fn active(tech: &Technology) -> Self {
        Self {
            vdd: tech.vdd(),
            body_bias: 0.0,
            vsb: 0.0,
            temp_k: tech.temp_k(),
        }
    }

    /// Standby conditions with a raised source bias.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= vsb < vdd`.
    pub fn standby(tech: &Technology, vsb: f64) -> Self {
        assert!(
            (0.0..tech.vdd()).contains(&vsb),
            "source bias {vsb} outside [0, vdd)"
        );
        Self {
            vdd: tech.vdd(),
            body_bias: 0.0,
            vsb,
            temp_k: tech.temp_k(),
        }
    }

    /// Returns a copy with the given NMOS body bias.
    pub fn with_body_bias(mut self, vbb: f64) -> Self {
        assert!(vbb.is_finite(), "non-finite body bias");
        self.body_bias = vbb;
        self
    }

    /// Returns a copy at a different temperature.
    pub fn with_temperature(mut self, temp_k: f64) -> Self {
        assert!(temp_k > 0.0 && temp_k.is_finite(), "invalid temperature");
        self.temp_k = temp_k;
        self
    }
}

/// A 6T SRAM cell instance: technology, sizing, and per-transistor
/// threshold deviations.
#[derive(Debug, Clone, PartialEq)]
pub struct SramCell {
    tech: Technology,
    sizing: CellSizing,
    /// Per-transistor ΔVt in canonical [`Xtor`] order \[V\]
    /// (inter-die shift + RDF sample, summed).
    dvt: [f64; 6],
}

impl SramCell {
    /// A nominal cell (no deviations) with default sizing.
    pub fn nominal(tech: &Technology) -> Self {
        Self::with_sizing(tech, CellSizing::default_for(tech))
    }

    /// A nominal cell with explicit sizing.
    ///
    /// # Panics
    ///
    /// Panics if the sizing fails validation.
    pub fn with_sizing(tech: &Technology, sizing: CellSizing) -> Self {
        sizing.validate().expect("invalid cell sizing");
        Self {
            tech: tech.clone(),
            sizing,
            dvt: [0.0; 6],
        }
    }

    /// The technology card.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The cell sizing.
    pub fn sizing(&self) -> &CellSizing {
        &self.sizing
    }

    /// Per-transistor deviations in canonical order.
    pub fn deviations(&self) -> &[f64; 6] {
        &self.dvt
    }

    /// Sets the six per-transistor deviations at once.
    pub fn set_deviations(&mut self, dvt: [f64; 6]) {
        assert!(dvt.iter().all(|v| v.is_finite()), "non-finite deviation");
        self.dvt = dvt;
    }

    /// Returns a copy with an inter-die shift added to the **NMOS**
    /// transistors (pull-downs and access devices).
    ///
    /// The die corner is modelled as an NMOS-Vt corner: every mechanism
    /// the paper attributes to the inter-die shift — read disturb, access
    /// drive, `NL` retention leakage, and the leakage signature sensed by
    /// the monitor — lives in the NMOS devices, and the compensating knob
    /// (adaptive body bias) is applied to NMOS only. Tying the PMOS to the
    /// same shift would cancel the hold/read tails the paper observes
    /// (a stronger `PL` masks `NL` leakage exactly when it matters).
    pub fn with_inter_die_shift(mut self, shift: f64) -> Self {
        assert!(shift.is_finite(), "non-finite shift");
        for x in Xtor::ALL {
            if x.is_nmos() {
                self.dvt[x.index()] += shift;
            }
        }
        self
    }

    /// Returns the left/right mirrored cell (deviations swapped), i.e. the
    /// same physical cell storing the opposite value.
    pub fn mirrored(&self) -> Self {
        let d = &self.dvt;
        let mut out = self.clone();
        out.dvt = [d[1], d[0], d[3], d[2], d[5], d[4]];
        out
    }

    /// RDF sigma of one transistor (Pelgrom law at its geometry).
    pub fn sigma_vt(&self, which: Xtor) -> f64 {
        self.device(which).sigma_vt()
    }

    /// Builds the device instance for one transistor, deviations applied.
    pub fn device(&self, which: Xtor) -> Mosfet {
        let s = &self.sizing;
        let base = match which {
            Xtor::Nl | Xtor::Nr => Mosfet::nmos(&self.tech, s.wpd, s.lpd),
            Xtor::Pl | Xtor::Pr => Mosfet::pmos(&self.tech, s.wpu, s.lpu),
            Xtor::Axl | Xtor::Axr => Mosfet::nmos(&self.tech, s.wax, s.lax),
        };
        base.with_delta_vt(self.dvt[which.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::predictive_70nm()
    }

    #[test]
    fn canonical_order_round_trips() {
        for (i, x) in Xtor::ALL.iter().enumerate() {
            assert_eq!(x.index(), i);
        }
    }

    #[test]
    fn nmos_classification() {
        assert!(Xtor::Nl.is_nmos());
        assert!(Xtor::Axr.is_nmos());
        assert!(!Xtor::Pl.is_nmos());
        assert!(!Xtor::Pr.is_nmos());
    }

    #[test]
    fn default_sizing_ratios() {
        let s = CellSizing::default_for(&tech());
        assert!(s.beta() > 1.0, "pull-down must beat access");
        assert!(s.wpu < s.wax, "pull-up must be weakest");
        s.validate().unwrap();
    }

    #[test]
    fn sizing_validation_catches_zero() {
        let mut s = CellSizing::default_for(&tech());
        s.wpd = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn inter_die_shift_moves_nmos_only() {
        let cell = SramCell::nominal(&tech()).with_inter_die_shift(0.05);
        for x in Xtor::ALL {
            let expected = if x.is_nmos() { 0.05 } else { 0.0 };
            assert_eq!(cell.deviations()[x.index()], expected, "{x:?}");
        }
    }

    #[test]
    fn mirrored_swaps_pairs() {
        let mut cell = SramCell::nominal(&tech());
        cell.set_deviations([1.0, 2.0, 3.0, 4.0, 5.0, 6.0].map(|x| x * 1e-3));
        let m = cell.mirrored();
        assert_eq!(m.deviations(), &[2e-3, 1e-3, 4e-3, 3e-3, 6e-3, 5e-3]);
        // Mirroring twice is the identity.
        assert_eq!(m.mirrored().deviations(), cell.deviations());
    }

    #[test]
    fn device_carries_deviation() {
        let mut cell = SramCell::nominal(&tech());
        cell.set_deviations([0.01, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(cell.device(Xtor::Nl).delta_vt(), 0.01);
        assert_eq!(cell.device(Xtor::Nr).delta_vt(), 0.0);
    }

    #[test]
    fn conditions_constructors() {
        let t = tech();
        let a = Conditions::active(&t);
        assert_eq!(a.vsb, 0.0);
        assert_eq!(a.vdd, t.vdd());
        let s = Conditions::standby(&t, 0.2).with_body_bias(-0.3);
        assert_eq!(s.vsb, 0.2);
        assert_eq!(s.body_bias, -0.3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn standby_rejects_vsb_at_vdd() {
        let t = tech();
        let _ = Conditions::standby(&t, t.vdd());
    }

    #[test]
    fn access_devices_use_access_width() {
        let cell = SramCell::nominal(&tech());
        assert_eq!(cell.device(Xtor::Axl).w(), cell.sizing().wax);
        assert_eq!(cell.device(Xtor::Nl).w(), cell.sizing().wpd);
        assert_eq!(cell.device(Xtor::Pl).w(), cell.sizing().wpu);
    }
}
