//! Standby leakage of a 6T cell and its population statistics.
//!
//! The cell is evaluated in the paper's standby state: word line low, bit
//! lines precharged to VDD, the stored 1 at `VL`, the source line at
//! `vsb`, and the NMOS body at `body_bias`. Node voltages are taken at
//! their asymptotic values (`VL = VDD`, `VR = vsb`) — the error of that
//! approximation is second-order in leakage ratios and it makes sampling a
//! million-cell array practical.
//!
//! Per the paper's §III.F, the leakage of a cell under RDF is approximately
//! lognormal (subthreshold leakage is exponential in the Gaussian ΔVt), and
//! the array total is Gaussian by the central limit theorem (Eq. (2)).
//!
//! Cells are sampled through [`CornerLeakage`], which evaluates once per
//! corner everything a cell's RDF draw cannot change, so a cell costs its
//! six normals and the three subthreshold currents.

use rand::Rng;
use rand_distr::StandardNormal;

use crate::cell::{CellSizing, Conditions, SramCell, Xtor};
use pvtm_device::{thermal_voltage, Bias, LeakageComponents, MosfetAt, Technology};
use pvtm_stats::Summary;

/// Standby-leakage evaluator for a cell design.
#[derive(Debug, Clone)]
pub struct CellLeakageModel {
    tech: Technology,
    sizing: CellSizing,
}

/// Population mean and standard deviation of per-cell leakage \[A\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageStats {
    /// Mean cell leakage.
    pub mean: f64,
    /// Standard deviation across cells (intra-die RDF only).
    pub std_dev: f64,
}

/// The standby bias points of the three devices whose channel leaks, and
/// the subthreshold expression that both [`CellLeakageModel::standby`] and
/// [`CornerLeakage`] evaluate on them.
#[derive(Debug, Clone, Copy)]
struct ChannelLeak {
    nl: Bias,
    pr: Bias,
    axr: Bias,
}

impl ChannelLeak {
    fn new(cond: &Conditions) -> Self {
        let (vl, vr, vbl, vwl) = standby_nodes(cond);
        Self {
            // NL: gate at VR=vsb, drain at VL=vdd, source at vsb, body at vbb.
            nl: Bias::new(vr, vl, cond.vsb, cond.body_bias),
            // PR: gate at VL=vdd (off), source at vdd, drain at VR=vsb.
            pr: Bias::new(vl, vr, cond.vdd, cond.vdd),
            // AXR: gate at WL=0, drain at BR=vdd, source at VR=vsb.
            axr: Bias::new(vwl, vbl, vr, cond.body_bias),
        }
    }

    /// Subthreshold leakage of a cell whose NL, PR and AXR have these
    /// constants. AXL has both ends at vdd, and NR and PL are on with zero
    /// Vds, so none of them carries channel leakage.
    #[inline]
    fn total(&self, nl: &MosfetAt, pr: &MosfetAt, axr: &MosfetAt) -> f64 {
        let sub_nl = nl.ids(self.nl).max(0.0);
        let sub_pr = (-pr.ids(self.pr)).max(0.0);
        let sub_axr = axr.ids(self.axr).max(0.0);
        sub_nl + sub_pr + sub_axr
    }
}

/// Asymptotic standby node voltages `(VL, VR, BL = BR, WL)`: the stored 1,
/// the stored 0 riding on the source line, the precharged bit lines and the
/// low word line.
fn standby_nodes(cond: &Conditions) -> (f64, f64, f64, f64) {
    (cond.vdd, cond.vsb, cond.vdd, 0.0)
}

impl CellLeakageModel {
    /// Creates a model for the given technology and sizing.
    pub fn new(tech: &Technology, sizing: CellSizing) -> Self {
        sizing.validate().expect("invalid cell sizing");
        Self {
            tech: tech.clone(),
            sizing,
        }
    }

    /// Standby leakage decomposition of one cell sample.
    ///
    /// `cond.body_bias` applies to the NMOS devices only (as in the paper);
    /// `cond.vsb` is the raised source-line voltage.
    pub fn standby(&self, cell: &SramCell, cond: &Conditions) -> LeakageComponents {
        let vdd = cond.vdd;
        let vsb = cond.vsb;
        let vbb = cond.body_bias;
        let t = cond.temp_k;
        let (vl, vr, vbl, vwl) = standby_nodes(cond);

        let nl = cell.device(Xtor::Nl);
        let nr = cell.device(Xtor::Nr);
        let pl = cell.device(Xtor::Pl);
        let pr = cell.device(Xtor::Pr);
        let axl = cell.device(Xtor::Axl);
        let axr = cell.device(Xtor::Axr);

        // --- Subthreshold (channel) components of the off devices.
        let subthreshold = ChannelLeak::new(cond).total(&nl.at(t), &pr.at(t), &axr.at(t));

        // --- Gate tunnelling.
        // On devices with full oxide drive: NR (gate vdd, channel at vsb)
        // and PL (source vdd, gate at vsb).
        let gate_on = nr.gate_leak(vdd - vsb) + pl.gate_leak(vdd - vsb);
        // Off devices: edge tunnelling at the drain overlap (30 % weight,
        // consistent with `Mosfet::off_leakage`).
        let gate_off = 0.3 * (nl.gate_leak(vdd - vr) + axr.gate_leak(vbl - vwl));
        let gate = gate_on + gate_off;

        // --- Junction band-to-band tunnelling at reverse-biased drains.
        // NMOS junctions see (node − body); PMOS see (body − node).
        let junction = nl.junction_btbt(vl - vbb)
            + nr.junction_btbt(vr - vbb)
            + axl.junction_btbt(vbl - vbb)
            + axr.junction_btbt(vbl - vbb)
            + pr.junction_btbt(vdd - vr)
            + pl.junction_btbt(vdd - vl);

        // --- Forward body diodes of the NMOS devices under FBB.
        let diode = nl.body_diode(vbb - vsb, t)
            + nr.body_diode(vbb - vsb, t)
            + axl.body_diode(vbb - vsb, t)
            + axr.body_diode(vbb - vsb, t);

        LeakageComponents {
            subthreshold,
            gate,
            junction,
            diode,
        }
    }

    /// Analytic lognormal sigma of the dominant (subthreshold) leakage of a
    /// single pull-down transistor: `σ_ln = σ_Vt / (n·vT)`.
    pub fn sigma_ln(&self, cond: &Conditions) -> f64 {
        let dev = SramCell::with_sizing(&self.tech, self.sizing).device(Xtor::Nl);
        dev.sigma_vt() / (dev.params().n_sub * thermal_voltage(cond.temp_k))
    }

    /// The leakage of cells at inter-die shift `vt_inter` and `cond`, for
    /// sampling many of them. Builds (and so validates) the nominal cell
    /// once, and keeps what no RDF draw changes: the six Pelgrom σ, the
    /// temperature constants of NL, PR and AXR, their bias points, and the
    /// gate, junction and diode components, which do not depend on ΔVt.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `vt_inter`.
    pub fn at_corner(&self, vt_inter: f64, cond: &Conditions) -> CornerLeakage {
        assert!(vt_inter.is_finite(), "non-finite shift");
        let cell = SramCell::with_sizing(&self.tech, self.sizing);
        let t = cond.temp_k;
        CornerLeakage {
            sigma: Xtor::ALL.map(|x| cell.sigma_vt(x)),
            vt_inter,
            channel: ChannelLeak::new(cond),
            nl: cell.device(Xtor::Nl).at(t),
            pr: cell.device(Xtor::Pr).at(t),
            axr: cell.device(Xtor::Axr).at(t),
            fixed: LeakageComponents {
                subthreshold: 0.0,
                ..self.standby(&cell, cond)
            },
        }
    }

    /// Population statistics of per-cell leakage at a corner, by sampling
    /// `n` cells.
    pub fn population_stats(
        &self,
        vt_inter: f64,
        cond: &Conditions,
        n: usize,
        rng: &mut impl Rng,
    ) -> LeakageStats {
        self.at_corner(vt_inter, cond).population_stats(n, rng)
    }
}

/// Cells sampled per block of normals.
const BLOCK: usize = 64;

/// Standby leakage of the cells of one corner and condition
/// ([`CellLeakageModel::at_corner`]).
///
/// A cell draws six standard normals from the generator, one per device in
/// canonical [`Xtor`] order, and its deviations are `σ_i·z_i`, plus the
/// corner shift on the NMOS devices: the draws and the arithmetic of
/// sampling an [`SramCell`] with `VariationModel::sample_device` and
/// `with_inter_die_shift`, so every sample is bitwise that cell's
/// `standby(..).total()`. Each batch adds its cell count to the
/// `leak.cells` counter.
#[derive(Debug, Clone)]
pub struct CornerLeakage {
    /// Pelgrom σ of the six devices, canonical order \[V\].
    sigma: [f64; 6],
    vt_inter: f64,
    channel: ChannelLeak,
    nl: MosfetAt,
    pr: MosfetAt,
    axr: MosfetAt,
    /// The gate, junction and diode components, subthreshold 0.
    fixed: LeakageComponents,
}

impl CornerLeakage {
    /// Total standby leakage of the cell whose normals are `z` \[A\].
    #[inline]
    fn cell(&self, z: &[f64; 6]) -> f64 {
        let dvt: [f64; 6] = std::array::from_fn(|i| self.sigma[i] * z[i]);
        assert!(dvt.iter().all(|v| v.is_finite()), "non-finite deviation");
        let at = |base: &MosfetAt, x: Xtor| {
            let d = dvt[x.index()];
            base.with_delta_vt(if x.is_nmos() { d + self.vt_inter } else { d })
        };
        let subthreshold = self.channel.total(
            &at(&self.nl, Xtor::Nl),
            &at(&self.pr, Xtor::Pr),
            &at(&self.axr, Xtor::Axr),
        );
        LeakageComponents {
            subthreshold,
            ..self.fixed
        }
        .total()
    }

    /// Samples `out.len()` cells (at most [`BLOCK`]) into `out`.
    fn sample_block(&self, out: &mut [f64], rng: &mut impl Rng) {
        let mut normals = [0.0; 6 * BLOCK];
        let z = &mut normals[..6 * out.len()];
        StandardNormal.fill(rng, z);
        for (x, z) in out.iter_mut().zip(z.as_chunks::<6>().0) {
            *x = self.cell(z);
        }
    }

    /// Fills `out` with the standby leakage of `out.len()` sampled cells
    /// \[A\], in draw order.
    pub fn fill(&self, out: &mut [f64], rng: &mut impl Rng) {
        for block in out.chunks_mut(BLOCK) {
            self.sample_block(block, rng);
        }
        pvtm_telemetry::counter_add("leak.cells", out.len() as u64);
    }

    /// Population statistics of `n` sampled cells.
    pub fn population_stats(&self, n: usize, rng: &mut impl Rng) -> LeakageStats {
        let mut s = Summary::new();
        let mut buf = [0.0; BLOCK];
        for start in (0..n).step_by(BLOCK) {
            let block = &mut buf[..BLOCK.min(n - start)];
            self.sample_block(block, rng);
            s.extend(block.iter().copied());
        }
        pvtm_telemetry::counter_add("leak.cells", n as u64);
        LeakageStats {
            mean: s.mean(),
            std_dev: s.std_dev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (Technology, CellLeakageModel) {
        let tech = Technology::predictive_70nm();
        let m = CellLeakageModel::new(&tech, CellSizing::default_for(&tech));
        (tech, m)
    }

    #[test]
    fn nominal_cell_leakage_in_nanoamp_regime() {
        let (tech, m) = model();
        let cell = SramCell::nominal(&tech);
        let l = m.standby(&cell, &Conditions::active(&tech)).total();
        assert!(
            l > 1e-9 && l < 100e-9,
            "cell leakage should be nA-scale, got {l:.3e}"
        );
    }

    #[test]
    fn low_vt_cells_leak_more() {
        let (tech, m) = model();
        let cond = Conditions::active(&tech);
        let low = m.standby(&SramCell::nominal(&tech).with_inter_die_shift(-0.1), &cond);
        let nom = m.standby(&SramCell::nominal(&tech), &cond);
        let high = m.standby(&SramCell::nominal(&tech).with_inter_die_shift(0.1), &cond);
        assert!(low.total() > 3.0 * nom.total());
        assert!(high.total() < nom.total() / 3.0);
    }

    #[test]
    fn rbb_cuts_subthreshold_but_grows_junction() {
        let (tech, m) = model();
        let cell = SramCell::nominal(&tech);
        let zbb = m.standby(&cell, &Conditions::active(&tech));
        let rbb = m.standby(&cell, &Conditions::active(&tech).with_body_bias(-0.4));
        assert!(rbb.subthreshold < zbb.subthreshold);
        assert!(rbb.junction > zbb.junction);
    }

    #[test]
    fn fbb_grows_subthreshold() {
        let (tech, m) = model();
        let cell = SramCell::nominal(&tech);
        let zbb = m.standby(&cell, &Conditions::active(&tech));
        let fbb = m.standby(&cell, &Conditions::active(&tech).with_body_bias(0.4));
        assert!(fbb.subthreshold > zbb.subthreshold);
        assert!(fbb.junction < zbb.junction);
    }

    #[test]
    fn source_bias_cuts_total_leakage_strongly() {
        let (tech, m) = model();
        let cell = SramCell::nominal(&tech);
        let l0 = m.standby(&cell, &Conditions::standby(&tech, 0.0)).total();
        let l3 = m.standby(&cell, &Conditions::standby(&tech, 0.3)).total();
        assert!(
            l3 < 0.5 * l0,
            "VSB = 0.3 V must cut leakage substantially: {l3:.3e} vs {l0:.3e}"
        );
    }

    #[test]
    fn population_is_skewed_like_a_lognormal() {
        let (tech, m) = model();
        let cond = Conditions::active(&tech);
        let mut rng = pvtm_stats::rng::substream(41, 0);
        let mut samples = vec![0.0; 4000];
        m.at_corner(0.0, &cond).fill(&mut samples, &mut rng);
        let s = Summary::from_slice(&samples);
        // Positive skew: mean above median.
        let median = pvtm_stats::histogram::quantile(&samples, 0.5);
        assert!(
            s.mean() > median,
            "mean {:.3e} vs median {median:.3e}",
            s.mean()
        );
        // Coefficient of variation should be substantial (RDF-driven).
        assert!(s.std_dev() / s.mean() > 0.1);
    }

    #[test]
    fn sigma_ln_is_order_one() {
        let (tech, m) = model();
        let s = m.sigma_ln(&Conditions::active(&tech));
        assert!(s > 0.4 && s < 1.5, "sigma_ln = {s}");
    }

    #[test]
    fn population_stats_match_direct_summary() {
        let (tech, m) = model();
        let cond = Conditions::active(&tech);
        let mut rng = pvtm_stats::rng::substream(42, 0);
        let stats = m.population_stats(0.0, &cond, 2000, &mut rng);
        assert!(stats.mean > 0.0 && stats.std_dev > 0.0);
        assert!(stats.std_dev < stats.mean * 2.0);
    }

    /// One cell sampled the way the kernel replaces: a fresh cell, one
    /// `VariationModel::sample_device` draw per device, the inter-die
    /// shift, and the whole `standby` decomposition.
    fn oracle_cell(
        m: &CellLeakageModel,
        vt_inter: f64,
        cond: &Conditions,
        rng: &mut impl Rng,
    ) -> f64 {
        let mut cell = SramCell::with_sizing(&m.tech, m.sizing);
        let vm = pvtm_device::VariationModel::new(0.0);
        let dvt: [f64; 6] =
            std::array::from_fn(|i| vm.sample_device(&cell.device(Xtor::ALL[i]), rng));
        cell.set_deviations(dvt);
        let cell = cell.with_inter_die_shift(vt_inter);
        m.standby(&cell, cond).total()
    }

    /// Corners × VSB × body bias × temperature: RBB, ZBB, and FBB strong
    /// enough to turn the body diodes on.
    fn oracle_points(tech: &Technology) -> Vec<(f64, Conditions)> {
        let mut points = Vec::new();
        for vt_inter in [-0.3, -0.15, -0.05, 0.0, 0.05, 0.15, 0.3] {
            for vsb in [0.0, 0.3, 0.74] {
                for vbb in [-0.4, 0.0, 0.4] {
                    for temp in [300.0, 375.0] {
                        let cond = Conditions::standby(tech, vsb)
                            .with_body_bias(vbb)
                            .with_temperature(temp);
                        points.push((vt_inter, cond));
                    }
                }
            }
        }
        points
    }

    #[test]
    fn kernel_matches_the_per_cell_oracle_bitwise() {
        let (tech, m) = model();
        let diode_on = Conditions::standby(&tech, 0.0).with_body_bias(0.4);
        assert!(m.at_corner(0.0, &diode_on).fixed.diode > 0.0);
        // 150 cells cross two block boundaries.
        let n = 150;
        for (i, (vt_inter, cond)) in oracle_points(&tech).into_iter().enumerate() {
            for seed in [1u64, 7, 4242] {
                let mut by_oracle = pvtm_stats::rng::substream(seed, i as u64);
                let mut by_kernel = by_oracle.clone();
                let want: Vec<u64> = (0..n)
                    .map(|_| oracle_cell(&m, vt_inter, &cond, &mut by_oracle).to_bits())
                    .collect();
                let mut got = vec![f64::NAN; n];
                m.at_corner(vt_inter, &cond).fill(&mut got, &mut by_kernel);
                let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "corner {vt_inter}, {cond:?}, seed {seed}");
                assert_eq!(by_kernel, by_oracle, "corner {vt_inter}, seed {seed}");
            }
        }
    }

    #[test]
    fn population_stats_match_the_oracle_summary_bitwise() {
        let (tech, m) = model();
        for (i, (vt_inter, cond)) in oracle_points(&tech).into_iter().enumerate() {
            // A partial last block, an exact one, and a single cell.
            for (seed, n) in [(3u64, 200usize), (11, 128), (29, 1)] {
                let mut by_oracle = pvtm_stats::rng::substream(seed, i as u64);
                let mut by_kernel = by_oracle.clone();
                let want: Summary = (0..n)
                    .map(|_| oracle_cell(&m, vt_inter, &cond, &mut by_oracle))
                    .collect();
                let got = m.population_stats(vt_inter, &cond, n, &mut by_kernel);
                assert_eq!(got.mean.to_bits(), want.mean().to_bits());
                assert_eq!(got.std_dev.to_bits(), want.std_dev().to_bits());
                assert_eq!(by_kernel, by_oracle, "corner {vt_inter}, seed {seed}");
            }
        }
    }
}
