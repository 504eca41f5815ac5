//! EKV-style MOSFET I-V model.
//!
//! The model is a single smooth equation covering weak inversion
//! (subthreshold leakage) through strong inversion (read/write drive),
//! which is exactly what a Newton-based DC solver wants. Body effect enters
//! through the threshold voltage, making the device respond to the paper's
//! adaptive body bias; DIBL and channel-length modulation give realistic
//! output characteristics.

use crate::params::{Polarity, TransistorParams};
use crate::tech::Technology;
use crate::thermal_voltage;

/// Absolute terminal voltages of a MOSFET (gate, drain, source, body),
/// all referenced to circuit ground.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bias {
    /// Gate voltage \[V\].
    pub vg: f64,
    /// Drain voltage \[V\].
    pub vd: f64,
    /// Source voltage \[V\].
    pub vs: f64,
    /// Body (bulk) voltage \[V\].
    pub vb: f64,
}

impl Bias {
    /// Creates a bias point from `(vg, vd, vs, vb)`.
    pub fn new(vg: f64, vd: f64, vs: f64, vb: f64) -> Self {
        Self { vg, vd, vs, vb }
    }

    /// Reflects all terminals about ground — maps a PMOS bias into the
    /// NMOS-equivalent space.
    fn reflected(self) -> Self {
        Self {
            vg: -self.vg,
            vd: -self.vd,
            vs: -self.vs,
            vb: -self.vb,
        }
    }
}

/// Numerically safe `ln(1 + e^x)`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// A MOSFET instance: parameter card, geometry and a per-device threshold
/// deviation (inter-die shift + RDF sample).
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    polarity: Polarity,
    params: TransistorParams,
    w: f64,
    l: f64,
    delta_vt: f64,
}

impl Mosfet {
    /// Creates an NMOS of the given width and length \[m\].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive or below the technology's
    /// minimum length.
    pub fn nmos(tech: &Technology, w: f64, l: f64) -> Self {
        Self::new(Polarity::Nmos, *tech.nmos(), w, l, tech.lmin())
    }

    /// Creates a PMOS of the given width and length \[m\].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive or below the technology's
    /// minimum length.
    pub fn pmos(tech: &Technology, w: f64, l: f64) -> Self {
        Self::new(Polarity::Pmos, *tech.pmos(), w, l, tech.lmin())
    }

    fn new(polarity: Polarity, params: TransistorParams, w: f64, l: f64, lmin: f64) -> Self {
        assert!(w > 0.0 && w.is_finite(), "invalid width {w}");
        assert!(
            l >= lmin && l.is_finite(),
            "channel length {l} below technology minimum {lmin}"
        );
        params.validate().expect("invalid parameter card");
        Self {
            polarity,
            params,
            w,
            l,
            delta_vt: 0.0,
        }
    }

    /// Returns a copy with an additional threshold-voltage deviation
    /// (positive = higher |Vt|). This is where inter-die shifts and RDF
    /// samples are injected.
    pub fn with_delta_vt(mut self, delta_vt: f64) -> Self {
        assert!(delta_vt.is_finite(), "non-finite delta_vt");
        self.delta_vt = delta_vt;
        self
    }

    /// Channel polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Channel width \[m\].
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Channel length \[m\].
    pub fn l(&self) -> f64 {
        self.l
    }

    /// Current threshold deviation \[V\].
    pub fn delta_vt(&self) -> f64 {
        self.delta_vt
    }

    /// Parameter card in use.
    pub fn params(&self) -> &TransistorParams {
        &self.params
    }

    /// RDF-induced threshold standard deviation from the Pelgrom law,
    /// `σ = A_vt / √(W·L)`.
    ///
    /// # Example
    ///
    /// ```
    /// use pvtm_device::{Technology, Mosfet};
    /// let t = Technology::predictive_70nm();
    /// let small = Mosfet::nmos(&t, 100e-9, t.lmin());
    /// let big = Mosfet::nmos(&t, 400e-9, t.lmin());
    /// // Bigger devices match better.
    /// assert!(big.sigma_vt() < small.sigma_vt());
    /// ```
    pub fn sigma_vt(&self) -> f64 {
        self.params.avt / (self.w * self.l).sqrt()
    }

    /// The model constants of this device at `temp_k`, for evaluating it
    /// at many bias points: the DC assembler evaluates each MOSFET five
    /// times per Newton iteration at one temperature.
    ///
    /// `self.at(t).ids(b)` is bitwise equal to `self.ids(b, t)`; both run
    /// the same expressions in the same order.
    #[inline]
    pub fn at(&self, temp_k: f64) -> MosfetAt {
        let p = &self.params;
        let vt_therm = thermal_voltage(temp_k);
        let n = p.n_sub;
        let mu_cox = p.mu_cox * (temp_k / 300.0).powf(-p.mu_exp);
        MosfetAt {
            polarity: self.polarity,
            vt0: p.vt0,
            vt_base: p.vt0 + self.delta_vt,
            phi_s: p.phi_s,
            sqrt_phi_s: p.phi_s.sqrt(),
            gamma: p.gamma,
            dibl: p.dibl,
            tshift: p.vt_tc * (temp_k - 300.0),
            n,
            two_n_vt: 2.0 * n * vt_therm,
            ispec: 2.0 * n * mu_cox * vt_therm * vt_therm * (self.w / self.l),
            lambda: p.lambda,
        }
    }

    /// Threshold voltage at a bias point (own-polarity magnitude),
    /// exposing the body-bias dependence used by the self-repair analyses.
    pub fn vt(&self, bias: Bias, temp_k: f64) -> f64 {
        self.at(temp_k).vt(bias)
    }

    /// Drain current \[A\], positive *into* the drain terminal.
    ///
    /// Smooth in every terminal voltage; symmetric under drain/source
    /// exchange (the current flips sign), which the DC solver relies on.
    ///
    /// # Example
    ///
    /// ```
    /// use pvtm_device::{Technology, Mosfet, Bias};
    /// let t = Technology::predictive_70nm();
    /// let n = Mosfet::nmos(&t, 140e-9, t.lmin());
    /// let fwd = n.ids(Bias::new(1.0, 0.6, 0.0, 0.0), 300.0);
    /// let rev = n.ids(Bias::new(1.0, 0.0, 0.6, 0.0), 300.0);
    /// assert!(fwd > 0.0 && rev < 0.0);
    /// ```
    pub fn ids(&self, bias: Bias, temp_k: f64) -> f64 {
        self.at(temp_k).ids(bias)
    }

    /// Subthreshold (off-state channel) leakage for the device biased off
    /// with `vds` across it, body at `vbs` relative to the source \[A\].
    ///
    /// For NMOS this is `ids(vg=vs, vd=vs+vds, vs, vb=vs+vbs)`; positive
    /// `vbs` is forward body bias (leakage up), negative is reverse
    /// (leakage down) — the core mechanism of the paper's Fig. 5a.
    pub fn subthreshold_leak(&self, vds: f64, vbs: f64, temp_k: f64) -> f64 {
        assert!(vds >= 0.0, "subthreshold_leak expects vds >= 0, got {vds}");
        match self.polarity {
            Polarity::Nmos => self.ids(Bias::new(0.0, vds, 0.0, vbs), temp_k),
            Polarity::Pmos => -self.ids(Bias::new(0.0, -vds, 0.0, -vbs), temp_k),
        }
    }
}

/// A [`Mosfet`]'s model constants at one temperature ([`Mosfet::at`]):
/// the mobility power law, `√φs`, `kT/q`, the specific current and the
/// threshold's temperature shift, evaluated once for many bias points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetAt {
    polarity: Polarity,
    /// The card's `vt0` \[V\].
    vt0: f64,
    /// `vt0 + ΔVt` \[V\].
    vt_base: f64,
    phi_s: f64,
    sqrt_phi_s: f64,
    gamma: f64,
    dibl: f64,
    /// `vt_tc · (T − 300 K)` \[V\].
    tshift: f64,
    n: f64,
    /// `2·n·kT/q` \[V\].
    two_n_vt: f64,
    /// `2·n·µCox(T)·(kT/q)²·W/L` \[A\].
    ispec: f64,
    lambda: f64,
}

impl MosfetAt {
    /// The constants of the same device with threshold deviation
    /// `delta_vt` in place of its own, for evaluating many RDF samples of
    /// one device: `dev.at(t).with_delta_vt(d).ids(b)` is bitwise equal to
    /// `dev.with_delta_vt(d).ids(b, t)`, since only `vt0 + ΔVt` depends on
    /// the deviation and it is formed by the same addition.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `delta_vt`, as [`Mosfet::with_delta_vt`]
    /// does.
    #[inline]
    pub fn with_delta_vt(mut self, delta_vt: f64) -> Self {
        assert!(delta_vt.is_finite(), "non-finite delta_vt");
        self.vt_base = self.vt0 + delta_vt;
        self
    }

    /// Effective threshold voltage (own-polarity magnitude convention) for
    /// an NMOS-space bias with `vd >= vs`.
    #[inline]
    fn vt_eff(&self, vd: f64, vs: f64, vb: f64) -> f64 {
        // Body effect: reverse body bias (vs > vb) raises Vt.
        let arg = (self.phi_s + (vs - vb)).max(0.01);
        let body = self.gamma * (arg.sqrt() - self.sqrt_phi_s);
        let dibl = self.dibl * (vd - vs);
        self.vt_base + body - dibl - self.tshift
    }

    /// [`Mosfet::vt`] at this temperature.
    pub fn vt(&self, bias: Bias) -> f64 {
        let b = match self.polarity {
            Polarity::Nmos => bias,
            Polarity::Pmos => bias.reflected(),
        };
        let (vd, vs) = if b.vd >= b.vs {
            (b.vd, b.vs)
        } else {
            (b.vs, b.vd)
        };
        self.vt_eff(vd, vs, b.vb)
    }

    /// [`Mosfet::ids`] at this temperature.
    #[inline]
    pub fn ids(&self, bias: Bias) -> f64 {
        match self.polarity {
            Polarity::Nmos => self.ids_nspace(bias),
            Polarity::Pmos => -self.ids_nspace(bias.reflected()),
        }
    }

    /// NMOS-space current with automatic drain/source ordering.
    #[inline]
    fn ids_nspace(&self, b: Bias) -> f64 {
        if b.vd >= b.vs {
            self.ids_ordered(b.vg, b.vd, b.vs, b.vb)
        } else {
            -self.ids_ordered(b.vg, b.vs, b.vd, b.vb)
        }
    }

    /// Core EKV evaluation with `vd >= vs` guaranteed (source-referenced
    /// interpolation between weak and strong inversion).
    #[inline]
    fn ids_ordered(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> f64 {
        let vt = self.vt_eff(vd, vs, vb);
        let n = self.n;
        let vgs = vg - vs;
        let vds = vd - vs;
        // Forward/reverse inversion charges: weak inversion asymptotes to
        // exp((vgs - vt)/(n·vT))·(1 - exp(-vds/vT)), strong inversion to the
        // square law with slope factor n.
        let i_f = softplus((vgs - vt) / self.two_n_vt).powi(2);
        let i_r = softplus((vgs - vt - n * vds) / self.two_n_vt).powi(2);
        self.ispec * (i_f - i_r) * (1.0 + self.lambda * vds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tech() -> Technology {
        Technology::predictive_70nm()
    }

    fn nmos() -> Mosfet {
        let t = tech();
        Mosfet::nmos(&t, 200e-9, t.lmin())
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let n = nmos();
        for vg in [0.0, 0.3, 0.6, 1.0] {
            let i = n.ids(Bias::new(vg, 0.4, 0.4, 0.0), 300.0);
            assert!(i.abs() < 1e-18, "vg={vg}: i={i}");
        }
    }

    #[test]
    fn current_monotone_in_vgs() {
        let n = nmos();
        let mut prev = -1.0;
        for i in 0..=20 {
            let vg = i as f64 * 0.05;
            let id = n.ids(Bias::new(vg, 1.0, 0.0, 0.0), 300.0);
            assert!(id > prev, "non-monotone at vg={vg}");
            prev = id;
        }
    }

    #[test]
    fn current_monotone_in_vds() {
        let n = nmos();
        let mut prev = -1.0;
        for i in 0..=20 {
            let vd = i as f64 * 0.05;
            let id = n.ids(Bias::new(1.0, vd, 0.0, 0.0), 300.0);
            assert!(id >= prev, "non-monotone at vd={vd}");
            prev = id;
        }
    }

    #[test]
    fn drain_source_exchange_flips_sign() {
        let n = nmos();
        for (vd, vs) in [(0.8, 0.1), (0.5, 0.0), (1.0, 0.9)] {
            let fwd = n.ids(Bias::new(0.7, vd, vs, 0.0), 300.0);
            let rev = n.ids(Bias::new(0.7, vs, vd, 0.0), 300.0);
            assert!(
                (fwd + rev).abs() < 1e-12 * fwd.abs().max(1e-15),
                "asymmetry at vd={vd} vs={vs}"
            );
        }
    }

    #[test]
    fn on_off_ratio_is_large() {
        let n = nmos();
        let on = n.ids(Bias::new(1.0, 1.0, 0.0, 0.0), 300.0);
        let off = n.ids(Bias::new(0.0, 1.0, 0.0, 0.0), 300.0);
        assert!(on / off > 1e4, "Ion/Ioff = {}", on / off);
        // Off current should be in the nA ballpark for this card.
        assert!(off > 1e-10 && off < 1e-7, "off = {off}");
    }

    #[test]
    fn subthreshold_slope_near_spec() {
        // S = n·vT·ln10 ≈ 83 mV/dec for n = 1.4, measured deep in weak
        // inversion (a raised-Vt copy keeps the probe points far below Vt
        // where the EKV interpolation is purely exponential).
        let n = nmos().with_delta_vt(0.2);
        let i1 = n.ids(Bias::new(0.05, 1.0, 0.0, 0.0), 300.0);
        let i2 = n.ids(Bias::new(0.10, 1.0, 0.0, 0.0), 300.0);
        let slope = 0.05 / (i2 / i1).log10();
        assert!(
            (slope - 0.083).abs() < 0.005,
            "subthreshold slope {slope} V/dec"
        );
    }

    #[test]
    fn reverse_body_bias_raises_vt_and_cuts_leakage() {
        let n = nmos();
        let vt0 = n.vt(Bias::new(0.0, 0.0, 0.0, 0.0), 300.0);
        let vt_rbb = n.vt(Bias::new(0.0, 0.0, 0.0, -0.4), 300.0);
        let vt_fbb = n.vt(Bias::new(0.0, 0.0, 0.0, 0.4), 300.0);
        assert!(vt_rbb > vt0, "RBB must raise Vt");
        assert!(vt_fbb < vt0, "FBB must lower Vt");

        let leak0 = n.subthreshold_leak(1.0, 0.0, 300.0);
        let leak_rbb = n.subthreshold_leak(1.0, -0.4, 300.0);
        let leak_fbb = n.subthreshold_leak(1.0, 0.4, 300.0);
        assert!(leak_rbb < leak0 && leak0 < leak_fbb);
        // RBB of 0.4 V should cut subthreshold leakage several-fold.
        assert!(leak0 / leak_rbb > 3.0);
    }

    #[test]
    fn delta_vt_shifts_current() {
        let n = nmos();
        let hi = n.clone().with_delta_vt(0.05);
        let lo = n.clone().with_delta_vt(-0.05);
        let b = Bias::new(0.0, 1.0, 0.0, 0.0);
        assert!(hi.ids(b, 300.0) < n.ids(b, 300.0));
        assert!(lo.ids(b, 300.0) > n.ids(b, 300.0));
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let t = tech();
        let p = Mosfet::pmos(&t, 200e-9, t.lmin());
        // PMOS on: gate at 0, source at vdd, drain at 0.
        let on = p.ids(Bias::new(0.0, 0.0, 1.0, 1.0), 300.0);
        // Current flows out of the drain terminal: negative by convention.
        assert!(on < 0.0, "PMOS on-current sign: {on}");
        // PMOS off: gate at vdd.
        let off = p.ids(Bias::new(1.0, 0.0, 1.0, 1.0), 300.0);
        assert!(off.abs() < on.abs() / 1e4);
    }

    #[test]
    fn temperature_raises_leakage_and_lowers_drive() {
        let n = nmos();
        let leak_cold = n.ids(Bias::new(0.0, 1.0, 0.0, 0.0), 300.0);
        let leak_hot = n.ids(Bias::new(0.0, 1.0, 0.0, 0.0), 380.0);
        assert!(
            leak_hot > 5.0 * leak_cold,
            "leakage must grow strongly with T"
        );
        let on_cold = n.ids(Bias::new(1.0, 1.0, 0.0, 0.0), 300.0);
        let on_hot = n.ids(Bias::new(1.0, 1.0, 0.0, 0.0), 380.0);
        assert!(
            on_hot < on_cold,
            "mobility degradation must win at full drive"
        );
    }

    #[test]
    fn width_scales_current_linearly() {
        let t = tech();
        let n1 = Mosfet::nmos(&t, 100e-9, t.lmin());
        let n2 = Mosfet::nmos(&t, 200e-9, t.lmin());
        let b = Bias::new(1.0, 1.0, 0.0, 0.0);
        let r = n2.ids(b, 300.0) / n1.ids(b, 300.0);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "below technology minimum")]
    fn rejects_short_channel() {
        let t = tech();
        let _ = Mosfet::nmos(&t, 100e-9, 50e-9);
    }

    #[test]
    fn softplus_limits() {
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) < 1e-40);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    /// The per-call EKV formula as it stood before [`Mosfet::at`], kept
    /// verbatim as the oracle for [`MosfetAt`].
    mod reference {
        use super::super::*;

        fn vt_eff(m: &Mosfet, vd: f64, vs: f64, vb: f64, temp_k: f64) -> f64 {
            let p = &m.params;
            // Body effect: reverse body bias (vs > vb) raises Vt.
            let arg = (p.phi_s + (vs - vb)).max(0.01);
            let body = p.gamma * (arg.sqrt() - p.phi_s.sqrt());
            let dibl = p.dibl * (vd - vs);
            let tshift = p.vt_tc * (temp_k - 300.0);
            p.vt0 + m.delta_vt + body - dibl - tshift
        }

        pub fn vt(m: &Mosfet, bias: Bias, temp_k: f64) -> f64 {
            let b = match m.polarity {
                Polarity::Nmos => bias,
                Polarity::Pmos => bias.reflected(),
            };
            let (vd, vs) = if b.vd >= b.vs {
                (b.vd, b.vs)
            } else {
                (b.vs, b.vd)
            };
            vt_eff(m, vd, vs, b.vb, temp_k)
        }

        pub fn ids(m: &Mosfet, bias: Bias, temp_k: f64) -> f64 {
            match m.polarity {
                Polarity::Nmos => ids_nspace(m, bias, temp_k),
                Polarity::Pmos => -ids_nspace(m, bias.reflected(), temp_k),
            }
        }

        fn ids_nspace(m: &Mosfet, b: Bias, temp_k: f64) -> f64 {
            if b.vd >= b.vs {
                ids_ordered(m, b.vg, b.vd, b.vs, b.vb, temp_k)
            } else {
                -ids_ordered(m, b.vg, b.vs, b.vd, b.vb, temp_k)
            }
        }

        fn ids_ordered(m: &Mosfet, vg: f64, vd: f64, vs: f64, vb: f64, temp_k: f64) -> f64 {
            let p = &m.params;
            let vt_therm = thermal_voltage(temp_k);
            let vt = vt_eff(m, vd, vs, vb, temp_k);
            let n = p.n_sub;
            let vgs = vg - vs;
            let vds = vd - vs;
            let mu_cox = p.mu_cox * (temp_k / 300.0).powf(-p.mu_exp);
            let ispec = 2.0 * n * mu_cox * vt_therm * vt_therm * (m.w / m.l);
            let i_f = softplus((vgs - vt) / (2.0 * n * vt_therm)).powi(2);
            let i_r = softplus((vgs - vt - n * vds) / (2.0 * n * vt_therm)).powi(2);
            ispec * (i_f - i_r) * (1.0 + p.lambda * vds)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn at_matches_the_per_call_formula_bitwise(
            pmos in any::<bool>(),
            w_nm in 70.0f64..400.0,
            dvt in -0.2f64..0.2,
            vg in -1.5f64..1.5,
            vd in -1.5f64..1.5,
            vs in -1.5f64..1.5,
            vb in -1.5f64..1.5,
            temp in 250.0f64..=400.0,
        ) {
            let t = tech();
            let dev = if pmos {
                Mosfet::pmos(&t, w_nm * 1e-9, t.lmin())
            } else {
                Mosfet::nmos(&t, w_nm * 1e-9, t.lmin())
            }
            .with_delta_vt(dvt);
            let at = dev.at(temp);
            // Both terminal orders, so `vd < vs` is covered for every draw.
            for b in [Bias::new(vg, vd, vs, vb), Bias::new(vg, vs, vd, vb)] {
                let want = reference::ids(&dev, b, temp).to_bits();
                prop_assert_eq!(at.ids(b).to_bits(), want);
                prop_assert_eq!(dev.ids(b, temp).to_bits(), want);
                let want_vt = reference::vt(&dev, b, temp).to_bits();
                prop_assert_eq!(at.vt(b).to_bits(), want_vt);
                prop_assert_eq!(dev.vt(b, temp).to_bits(), want_vt);
            }
        }

        #[test]
        fn repatched_delta_vt_matches_a_fresh_device_bitwise(
            pmos in any::<bool>(),
            w_nm in 70.0f64..400.0,
            own in -0.2f64..0.2,
            dvt in -0.4f64..0.4,
            vg in -1.5f64..1.5,
            vd in -1.5f64..1.5,
            vs in -1.5f64..1.5,
            vb in -1.5f64..1.5,
            temp in 250.0f64..=400.0,
        ) {
            let t = tech();
            let dev = if pmos {
                Mosfet::pmos(&t, w_nm * 1e-9, t.lmin())
            } else {
                Mosfet::nmos(&t, w_nm * 1e-9, t.lmin())
            };
            // The re-patch replaces the device's own deviation.
            let at = dev.clone().with_delta_vt(own).at(temp).with_delta_vt(dvt);
            let fresh = dev.with_delta_vt(dvt);
            for b in [Bias::new(vg, vd, vs, vb), Bias::new(vg, vs, vd, vb)] {
                prop_assert_eq!(at.ids(b).to_bits(), fresh.ids(b, temp).to_bits());
                prop_assert_eq!(at.vt(b).to_bits(), fresh.vt(b, temp).to_bits());
            }
        }
    }
}
