//! Static leakage components of an off-state device.
//!
//! Following the paper's §III.F (and its ref \[7\]), the total leakage of a
//! cell in bulk silicon splits into **subthreshold**, **gate** and
//! **junction band-to-band tunnelling** components, plus the **forward body
//! diode** that turns on under aggressive forward body bias. Their opposing
//! body-bias sensitivities bound the usable FBB/RBB range (paper Fig. 5a):
//!
//! - reverse body bias *suppresses* subthreshold leakage but *amplifies*
//!   junction BTBT,
//! - forward body bias does the opposite and eventually forward-biases the
//!   body diode,
//! - gate leakage barely cares.

use crate::mosfet::Mosfet;
use crate::thermal_voltage;

/// Leakage current decomposition \[A\]. All components are non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakageComponents {
    /// Subthreshold (weak-inversion channel) leakage.
    pub subthreshold: f64,
    /// Gate oxide tunnelling leakage.
    pub gate: f64,
    /// Reverse-junction band-to-band tunnelling leakage.
    pub junction: f64,
    /// Forward body-diode current (significant only under strong FBB).
    pub diode: f64,
}

impl LeakageComponents {
    /// Total leakage \[A\].
    pub fn total(&self) -> f64 {
        self.subthreshold + self.gate + self.junction + self.diode
    }

    /// Component-wise sum.
    pub fn add(&self, other: &LeakageComponents) -> LeakageComponents {
        LeakageComponents {
            subthreshold: self.subthreshold + other.subthreshold,
            gate: self.gate + other.gate,
            junction: self.junction + other.junction,
            diode: self.diode + other.diode,
        }
    }

    /// Component-wise scale (e.g. per-cell → per-array).
    pub fn scale(&self, k: f64) -> LeakageComponents {
        LeakageComponents {
            subthreshold: self.subthreshold * k,
            gate: self.gate * k,
            junction: self.junction * k,
            diode: self.diode * k,
        }
    }
}

impl std::iter::Sum for LeakageComponents {
    fn sum<I: Iterator<Item = LeakageComponents>>(iter: I) -> Self {
        iter.fold(LeakageComponents::default(), |acc, x| acc.add(&x))
    }
}

impl Mosfet {
    /// Gate tunnelling current for the given oxide drive `vox` \[V\]
    /// (gate-to-channel voltage magnitude, positive = gate attracting
    /// carriers). Exponential in the drive, normalized to the card's
    /// density `jg0` at 1 V.
    pub fn gate_leak(&self, vox: f64) -> f64 {
        if vox <= 0.0 {
            return 0.0;
        }
        let p = self.params();
        p.jg0 * self.w() * self.l() * ((vox - 1.0) / p.sg).exp()
    }

    /// Junction band-to-band tunnelling current for reverse bias `v_rev`
    /// \[V\] across the drain/source-to-body junction. Grows exponentially
    /// with the reverse bias, so RBB makes it worse.
    pub fn junction_btbt(&self, v_rev: f64) -> f64 {
        if v_rev <= 0.0 {
            return 0.0;
        }
        let p = self.params();
        p.jbtbt * self.w() * v_rev * (p.cbtbt * (v_rev - 1.0)).exp()
    }

    /// Forward body-diode current for forward bias `v_fwd` \[V\] on the
    /// body-to-source/drain junction.
    pub fn body_diode(&self, v_fwd: f64, temp_k: f64) -> f64 {
        if v_fwd <= 0.0 {
            return 0.0;
        }
        let vt = thermal_voltage(temp_k);
        self.params().jdiode * self.w() * ((v_fwd / vt).exp() - 1.0)
    }

    /// Full leakage decomposition of this device when *off*, with `vds`
    /// across the channel and body bias `vbb` applied relative to the
    /// source (positive = forward body bias in the device's own polarity).
    ///
    /// The gate is assumed at the source potential (off) and the drain at
    /// `vds`; the gate component uses the drain-to-gate overlap drive.
    ///
    /// # Example
    ///
    /// ```
    /// use pvtm_device::{Technology, Mosfet};
    /// let t = Technology::predictive_70nm();
    /// let n = Mosfet::nmos(&t, 200e-9, t.lmin());
    /// let zbb = n.off_leakage(1.0, 0.0, 300.0);
    /// let rbb = n.off_leakage(1.0, -0.4, 300.0);
    /// assert!(rbb.subthreshold < zbb.subthreshold); // RBB cuts channel leak
    /// assert!(rbb.junction > zbb.junction);         // ... but BTBT grows
    /// ```
    pub fn off_leakage(&self, vds: f64, vbb: f64, temp_k: f64) -> LeakageComponents {
        assert!(vds >= 0.0, "off_leakage expects vds >= 0, got {vds}");
        let subthreshold = self.subthreshold_leak(vds, vbb, temp_k).max(0.0);
        // Off device: the only meaningful oxide drive is drain-to-gate
        // overlap (EDT: edge direct tunnelling), weaker than full drive.
        let gate = 0.3 * self.gate_leak(vds);
        // Drain junction reverse bias grows with RBB (vbb < 0).
        let junction = self.junction_btbt(vds - vbb);
        // Source junction forward-biases under FBB (vbb > 0).
        let diode = self.body_diode(vbb, temp_k);
        LeakageComponents {
            subthreshold,
            gate,
            junction,
            diode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Technology;

    fn nmos() -> Mosfet {
        let t = Technology::predictive_70nm();
        Mosfet::nmos(&t, 200e-9, t.lmin())
    }

    #[test]
    fn total_is_sum_of_components() {
        let l = LeakageComponents {
            subthreshold: 1.0,
            gate: 2.0,
            junction: 3.0,
            diode: 4.0,
        };
        assert_eq!(l.total(), 10.0);
        assert_eq!(l.scale(0.5).total(), 5.0);
        assert_eq!(l.add(&l).total(), 20.0);
    }

    #[test]
    fn sum_iterator() {
        let parts = vec![
            LeakageComponents {
                subthreshold: 1.0,
                ..Default::default()
            },
            LeakageComponents {
                gate: 2.0,
                ..Default::default()
            },
        ];
        let total: LeakageComponents = parts.into_iter().sum();
        assert_eq!(total.subthreshold, 1.0);
        assert_eq!(total.gate, 2.0);
    }

    #[test]
    fn gate_leak_zero_for_nonpositive_drive() {
        let n = nmos();
        assert_eq!(n.gate_leak(0.0), 0.0);
        assert_eq!(n.gate_leak(-0.5), 0.0);
        assert!(n.gate_leak(1.0) > 0.0);
    }

    #[test]
    fn gate_leak_is_exponential_in_drive() {
        let n = nmos();
        let r = n.gate_leak(1.0) / n.gate_leak(0.8);
        let expected = (0.2 / n.params().sg).exp();
        assert!((r / expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn btbt_grows_with_reverse_bias() {
        let n = nmos();
        assert_eq!(n.junction_btbt(0.0), 0.0);
        assert!(n.junction_btbt(1.4) > n.junction_btbt(1.0));
        assert!(n.junction_btbt(1.0) > n.junction_btbt(0.6));
    }

    #[test]
    fn diode_negligible_until_strong_fbb() {
        let n = nmos();
        let weak = n.body_diode(0.2, 300.0);
        let strong = n.body_diode(0.6, 300.0);
        assert!(strong > 1e6 * weak.max(1e-30));
        assert_eq!(n.body_diode(-0.3, 300.0), 0.0);
    }

    #[test]
    fn off_leakage_body_bias_tradeoff() {
        // The Fig. 5a mechanism: total leakage has an interior minimum
        // because RBB trades subthreshold for junction BTBT.
        let n = nmos();
        let totals: Vec<f64> = (-8..=8)
            .map(|i| n.off_leakage(1.0, i as f64 * 0.075, 300.0).total())
            .collect();
        let min_idx = totals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < totals.len() - 1,
            "leakage minimum must be interior, found at index {min_idx}: {totals:?}"
        );
    }

    #[test]
    fn off_leakage_components_in_sane_ratio() {
        // At ZBB the subthreshold component should dominate but not by
        // orders of magnitude (gate and junction are significant in
        // sub-90nm nodes — that is the premise of the paper's Fig. 5a).
        let n = nmos();
        let l = n.off_leakage(1.0, 0.0, 300.0);
        assert!(l.subthreshold > l.gate);
        assert!(l.subthreshold > l.junction);
        assert!(l.gate > l.subthreshold / 100.0);
        assert!(l.junction > l.subthreshold / 100.0);
        assert!(l.diode < l.subthreshold / 100.0);
    }
}
