//! Compiled-template cell evaluator: the allocation-free Monte-Carlo hot
//! path.
//!
//! [`CellAnalysis`] builds a fresh netlist
//! for every DC question it asks — ~80 netlists (and as many solver scratch
//! allocations) per full [`Margins`] evaluation once the trip-point
//! bisections are counted. That is fine for one-off analyses and is kept as
//! the reference implementation, but it dominates the runtime of the
//! importance-sampled failure estimator, which evaluates tens of thousands
//! of perturbed cells on the *same four topologies*.
//!
//! [`CellEvaluator`] compiles those topologies once into
//! [`CircuitTemplate`]s — the read divider, the write level, the full 6T
//! hold state, and the loaded inverter used by every trip-point bisection —
//! and re-solves them per sample by patching typed parameter slots. Solves
//! are warm-started from the previous solution (adjacent Monte-Carlo
//! samples and adjacent bisection points are a few millivolts apart), with
//! cold Gmin continuation only as the fallback.
//!
//! The numbers are the `CellAnalysis` numbers: with warm starts disabled
//! the evaluator replays the identical netlists, guesses and solver
//! strategy, bit for bit. Warm starts change only the Newton iteration
//! path, so voltage-domain metrics agree to solver tolerance (≲10 µV).
//! The one delicate quantity — the exponentially small hold droop, whose
//! logarithm amplifies any within-tolerance drift to percent level — is
//! excluded from warm starting: the bistable hold state always solves
//! cold, so the droop is bit-identical to the reference regardless of
//! warm-start mode (see the proptest suite in
//! `tests/warm_cold_agreement.rs`).
//!
//! # Example
//!
//! ```
//! use pvtm_device::Technology;
//! use pvtm_sram::analysis::{AnalysisConfig, CellAnalysis};
//! use pvtm_sram::evaluator::CellEvaluator;
//! use pvtm_sram::{Conditions, SramCell};
//!
//! let tech = Technology::predictive_70nm();
//! let analysis = CellAnalysis::new(&tech, AnalysisConfig::default());
//! let cell = SramCell::nominal(&tech);
//! let mut ev = CellEvaluator::new(&analysis, &cell);
//! let cond = Conditions::active(&tech);
//! let reference = analysis.margins(&cell, &cond)?;
//! let fast = ev.margins(&cond)?;
//! assert!((fast.read - reference.read).abs() < 1e-6);
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

use pvtm_circuit::{
    CircuitError, CircuitTemplate, DcOptions, MosfetSlot, Netlist, NodeId, SolverStats, VsourceSlot,
};

use crate::analysis::{CellAnalysis, HoldMetrics, Margins, Side};
use crate::cell::{Conditions, SramCell, Xtor};

/// The compiled read divider: `AXR` against `NR` with the word line high.
struct ReadTpl {
    tpl: CircuitTemplate,
    n_vr: NodeId,
    vbr: VsourceSlot,
    vvl: VsourceSlot,
    vwl: VsourceSlot,
    vsl: VsourceSlot,
    vbn: VsourceSlot,
    axr: MosfetSlot,
    nr: MosfetSlot,
}

/// The compiled write level: `AXL` (bit line low) against `PL`.
struct WriteTpl {
    tpl: CircuitTemplate,
    n_vl: NodeId,
    n_vdd: NodeId,
    vdd: VsourceSlot,
    vvr: VsourceSlot,
    vbl: VsourceSlot,
    vwl: VsourceSlot,
    vsl: VsourceSlot,
    vbn: VsourceSlot,
    pl: MosfetSlot,
    nl: MosfetSlot,
    axl: MosfetSlot,
}

/// The compiled full 6T cell in standby (word line low).
struct HoldTpl {
    tpl: CircuitTemplate,
    n_vl: NodeId,
    n_vr: NodeId,
    n_vdd: NodeId,
    n_bl: NodeId,
    n_br: NodeId,
    n_sl: NodeId,
    vdd: VsourceSlot,
    vbl: VsourceSlot,
    vbr: VsourceSlot,
    vwl: VsourceSlot,
    vsl: VsourceSlot,
    vbn: VsourceSlot,
    devices: [MosfetSlot; 6],
}

/// The compiled loaded inverter used by every trip-point bisection. One
/// template serves both sides: the three devices are patched per side.
struct InvTpl {
    tpl: CircuitTemplate,
    n_out: NodeId,
    n_vdd: NodeId,
    vdd: VsourceSlot,
    vin: VsourceSlot,
    vbit: VsourceSlot,
    vwl: VsourceSlot,
    vsl: VsourceSlot,
    vbn: VsourceSlot,
    pu: MosfetSlot,
    pd: MosfetSlot,
    ax: MosfetSlot,
}

/// Reusable evaluator of the four failure metrics over one cell topology.
///
/// Holds the four compiled templates plus a scratch cell whose
/// per-transistor deviations are patched per sample via
/// [`Self::set_deviations`]. See the [module documentation](self).
pub struct CellEvaluator {
    analysis: CellAnalysis,
    cell: SramCell,
    read: ReadTpl,
    write: WriteTpl,
    hold: HoldTpl,
    inv: InvTpl,
}

impl CellEvaluator {
    /// Compiles the four analysis topologies for `base`'s technology and
    /// sizing. The base deviations are the starting point of
    /// [`Self::set_deviations`].
    pub fn new(analysis: &CellAnalysis, base: &SramCell) -> Self {
        Self {
            analysis: analysis.clone(),
            cell: base.clone(),
            read: Self::compile_read(base),
            write: Self::compile_write(base),
            hold: Self::compile_hold(base),
            inv: Self::compile_inverter(base),
        }
    }

    /// Slot lookup for a vsource that the netlist built in the same
    /// function is guaranteed to declare.
    fn vslot(tpl: &CircuitTemplate, name: &str) -> VsourceSlot {
        tpl.vsource_slot(name)
            .expect("netlist constructed above declares every named vsource")
    }

    /// Slot lookup for a mosfet that the netlist built in the same
    /// function is guaranteed to declare.
    fn mslot(tpl: &CircuitTemplate, name: &str) -> MosfetSlot {
        tpl.mosfet_slot(name)
            .expect("netlist constructed above declares every named mosfet")
    }

    fn compile_read(cell: &SramCell) -> ReadTpl {
        let mut ckt = Netlist::new();
        let br = ckt.node("br");
        let vr = ckt.node("vr");
        let vl = ckt.node("vl");
        let wl = ckt.node("wl");
        let sl = ckt.node("sl");
        let bn = ckt.node("bn");
        ckt.vsource("VBR", br, Netlist::GROUND, 0.0);
        ckt.vsource("VVL", vl, Netlist::GROUND, 0.0);
        ckt.vsource("VWL", wl, Netlist::GROUND, 0.0);
        ckt.vsource("VSL", sl, Netlist::GROUND, 0.0);
        ckt.vsource("VBN", bn, Netlist::GROUND, 0.0);
        ckt.mosfet("AXR", br, wl, vr, bn, cell.device(Xtor::Axr));
        ckt.mosfet("NR", vr, vl, sl, bn, cell.device(Xtor::Nr));
        let opts = DcOptions::default().guess(vr, 0.15);
        let tpl = CircuitTemplate::compile(ckt, opts).expect("read divider compiles");
        ReadTpl {
            n_vr: vr,
            vbr: Self::vslot(&tpl, "VBR"),
            vvl: Self::vslot(&tpl, "VVL"),
            vwl: Self::vslot(&tpl, "VWL"),
            vsl: Self::vslot(&tpl, "VSL"),
            vbn: Self::vslot(&tpl, "VBN"),
            axr: Self::mslot(&tpl, "AXR"),
            nr: Self::mslot(&tpl, "NR"),
            tpl,
        }
    }

    fn compile_write(cell: &SramCell) -> WriteTpl {
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let vl = ckt.node("vl");
        let vr = ckt.node("vr");
        let bl = ckt.node("bl");
        let wl = ckt.node("wl");
        let sl = ckt.node("sl");
        let bn = ckt.node("bn");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 0.0);
        ckt.vsource("VVR", vr, Netlist::GROUND, 0.0);
        ckt.vsource("VBL", bl, Netlist::GROUND, 0.0);
        ckt.vsource("VWL", wl, Netlist::GROUND, 0.0);
        ckt.vsource("VSL", sl, Netlist::GROUND, 0.0);
        ckt.vsource("VBN", bn, Netlist::GROUND, 0.0);
        ckt.mosfet("PL", vl, vr, vdd, vdd, cell.device(Xtor::Pl));
        ckt.mosfet("NL", vl, vr, sl, bn, cell.device(Xtor::Nl));
        ckt.mosfet("AXL", vl, wl, bl, bn, cell.device(Xtor::Axl));
        let opts = DcOptions::default().guess(vl, 0.1).guess(vdd, 0.0);
        let tpl = CircuitTemplate::compile(ckt, opts).expect("write level compiles");
        WriteTpl {
            n_vl: vl,
            n_vdd: vdd,
            vdd: Self::vslot(&tpl, "VDD"),
            vvr: Self::vslot(&tpl, "VVR"),
            vbl: Self::vslot(&tpl, "VBL"),
            vwl: Self::vslot(&tpl, "VWL"),
            vsl: Self::vslot(&tpl, "VSL"),
            vbn: Self::vslot(&tpl, "VBN"),
            pl: Self::mslot(&tpl, "PL"),
            nl: Self::mslot(&tpl, "NL"),
            axl: Self::mslot(&tpl, "AXL"),
            tpl,
        }
    }

    fn compile_hold(cell: &SramCell) -> HoldTpl {
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let vl = ckt.node("vl");
        let vr = ckt.node("vr");
        let bl = ckt.node("bl");
        let br = ckt.node("br");
        let wl = ckt.node("wl");
        let sl = ckt.node("sl");
        let bn = ckt.node("bn");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 0.0);
        ckt.vsource("VBL", bl, Netlist::GROUND, 0.0);
        ckt.vsource("VBR", br, Netlist::GROUND, 0.0);
        ckt.vsource("VWL", wl, Netlist::GROUND, 0.0);
        ckt.vsource("VSL", sl, Netlist::GROUND, 0.0);
        ckt.vsource("VBN", bn, Netlist::GROUND, 0.0);
        ckt.mosfet("PL", vl, vr, vdd, vdd, cell.device(Xtor::Pl));
        ckt.mosfet("NL", vl, vr, sl, bn, cell.device(Xtor::Nl));
        ckt.mosfet("PR", vr, vl, vdd, vdd, cell.device(Xtor::Pr));
        ckt.mosfet("NR", vr, vl, sl, bn, cell.device(Xtor::Nr));
        ckt.mosfet("AXL", bl, wl, vl, bn, cell.device(Xtor::Axl));
        ckt.mosfet("AXR", br, wl, vr, bn, cell.device(Xtor::Axr));
        let opts = DcOptions {
            // Mirrors `CellAnalysis::hold_state`: start from the stored
            // state, with a gentler starting Gmin to stay in its basin.
            gmin_start: 1e-6,
            initial: vec![
                (vl, 0.0),
                (vr, 0.0),
                (vdd, 0.0),
                (bl, 0.0),
                (br, 0.0),
                (sl, 0.0),
            ],
            ..DcOptions::default()
        };
        let tpl = CircuitTemplate::compile(ckt, opts).expect("hold cell compiles");
        HoldTpl {
            n_vl: vl,
            n_vr: vr,
            n_vdd: vdd,
            n_bl: bl,
            n_br: br,
            n_sl: sl,
            vdd: Self::vslot(&tpl, "VDD"),
            vbl: Self::vslot(&tpl, "VBL"),
            vbr: Self::vslot(&tpl, "VBR"),
            vwl: Self::vslot(&tpl, "VWL"),
            vsl: Self::vslot(&tpl, "VSL"),
            vbn: Self::vslot(&tpl, "VBN"),
            devices: [
                Self::mslot(&tpl, "PL"),
                Self::mslot(&tpl, "NL"),
                Self::mslot(&tpl, "PR"),
                Self::mslot(&tpl, "NR"),
                Self::mslot(&tpl, "AXL"),
                Self::mslot(&tpl, "AXR"),
            ],
            tpl,
        }
    }

    fn compile_inverter(cell: &SramCell) -> InvTpl {
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        let bit = ckt.node("bit");
        let wl = ckt.node("wl");
        let sl = ckt.node("sl");
        let bn = ckt.node("bn");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 0.0);
        ckt.vsource("VIN", input, Netlist::GROUND, 0.0);
        ckt.vsource("VBIT", bit, Netlist::GROUND, 0.0);
        ckt.vsource("VWL", wl, Netlist::GROUND, 0.0);
        ckt.vsource("VSL", sl, Netlist::GROUND, 0.0);
        ckt.vsource("VBN", bn, Netlist::GROUND, 0.0);
        ckt.mosfet("PU", out, input, vdd, vdd, cell.device(Xtor::Pl));
        ckt.mosfet("PD", out, input, sl, bn, cell.device(Xtor::Nl));
        ckt.mosfet("AX", bit, wl, out, bn, cell.device(Xtor::Axl));
        let opts = DcOptions::default().guess(out, 0.0).guess(vdd, 0.0);
        let tpl = CircuitTemplate::compile(ckt, opts)
            .expect("inverter netlist always compiles by construction");
        InvTpl {
            n_out: out,
            n_vdd: vdd,
            vdd: Self::vslot(&tpl, "VDD"),
            vin: Self::vslot(&tpl, "VIN"),
            vbit: Self::vslot(&tpl, "VBIT"),
            vwl: Self::vslot(&tpl, "VWL"),
            vsl: Self::vslot(&tpl, "VSL"),
            vbn: Self::vslot(&tpl, "VBN"),
            pu: Self::mslot(&tpl, "PU"),
            pd: Self::mslot(&tpl, "PD"),
            ax: Self::mslot(&tpl, "AX"),
            tpl,
        }
    }

    /// The scratch cell at its current deviations.
    pub fn cell(&self) -> &SramCell {
        &self.cell
    }

    /// The metric analyzer whose configuration this evaluator replays.
    pub fn analysis(&self) -> &CellAnalysis {
        &self.analysis
    }

    /// Patches the per-transistor threshold deviations for the next
    /// evaluations (canonical [`Xtor`] order).
    pub fn set_deviations(&mut self, dvt: [f64; 6]) {
        self.cell.set_deviations(dvt);
    }

    /// Retargets the evaluator to a different base cell — e.g. the next
    /// candidate sizing in an optimizer sweep. Cheap: the templates
    /// re-patch every device from the scratch cell on each solve, so only
    /// the cell is replaced; warm seeds survive (Newton falls back to a
    /// cold start if the new cell's operating points moved too far).
    ///
    /// The cell must target the same technology/analysis setup this
    /// evaluator was compiled with.
    pub fn set_cell(&mut self, cell: &SramCell) {
        self.cell = cell.clone();
    }

    /// Enables or disables warm starting on all four templates. Disabled,
    /// every solve replays the reference `CellAnalysis` strategy
    /// bit-identically.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.read.tpl.set_warm_start(enabled);
        self.write.tpl.set_warm_start(enabled);
        self.hold.tpl.set_warm_start(enabled);
        self.inv.tpl.set_warm_start(enabled);
    }

    /// Drops the warm seeds on all four templates; the next solve of each
    /// runs cold.
    ///
    /// Parallel sweeps call this at work-item boundaries so the solver
    /// work spent on an item is a function of the item alone, not of which
    /// items the same worker happened to process before it — that
    /// schedule-independence is what makes the telemetry work counters
    /// (and the margins themselves, at the Newton-tolerance level)
    /// byte-reproducible across runs, which the perf-budget CI gate
    /// relies on. Warm reuse *within* an item is untouched and carries
    /// the hot-path speedup.
    pub fn invalidate_warm(&mut self) {
        self.read.tpl.invalidate_warm();
        self.write.tpl.invalidate_warm();
        self.hold.tpl.invalidate_warm();
        self.inv.tpl.invalidate_warm();
    }

    /// Solver statistics merged across the four templates.
    pub fn stats(&self) -> SolverStats {
        let mut s = SolverStats::default();
        s.merge(self.read.tpl.stats());
        s.merge(self.write.tpl.stats());
        s.merge(self.hold.tpl.stats());
        s.merge(self.inv.tpl.stats());
        s
    }

    /// Resets the solver statistics on all four templates.
    pub fn reset_stats(&mut self) {
        self.read.tpl.reset_stats();
        self.write.tpl.reset_stats();
        self.hold.tpl.reset_stats();
        self.inv.tpl.reset_stats();
    }

    /// Read divider solution `(V_READ, I_read)`.
    fn read_solution(&mut self, cond: &Conditions) -> Result<(f64, f64), CircuitError> {
        let t = &mut self.read;
        t.tpl.set_temperature(cond.temp_k);
        t.tpl.set_vsource(t.vbr, cond.vdd)?;
        t.tpl.set_vsource(t.vvl, cond.vdd)?;
        t.tpl.set_vsource(t.vwl, cond.vdd)?;
        t.tpl.set_vsource(t.vsl, cond.vsb)?;
        t.tpl.set_vsource(t.vbn, cond.body_bias)?;
        t.tpl.set_device(t.axr, self.cell.device(Xtor::Axr))?;
        t.tpl.set_device(t.nr, self.cell.device(Xtor::Nr))?;
        t.tpl.solve()?;
        Ok((t.tpl.voltage(t.n_vr), t.tpl.branch_current(t.vbr)))
    }

    /// Write level: the voltage `AXL` pulls the 1 node down to.
    fn write_level(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let t = &mut self.write;
        t.tpl.set_temperature(cond.temp_k);
        t.tpl.set_vsource(t.vdd, cond.vdd)?;
        t.tpl.set_vsource(t.vvr, 0.0)?;
        t.tpl.set_vsource(t.vbl, 0.0)?;
        t.tpl.set_vsource(t.vwl, cond.vdd)?;
        t.tpl.set_vsource(t.vsl, cond.vsb)?;
        t.tpl.set_vsource(t.vbn, cond.body_bias)?;
        t.tpl.set_device(t.pl, self.cell.device(Xtor::Pl))?;
        t.tpl.set_device(t.nl, self.cell.device(Xtor::Nl))?;
        t.tpl.set_device(t.axl, self.cell.device(Xtor::Axl))?;
        t.tpl.options_mut().set_guess(t.n_vdd, cond.vdd);
        t.tpl.solve()?;
        Ok(t.tpl.voltage(t.n_vl))
    }

    /// Standby state `(VL, VR)` of the full cell.
    ///
    /// This solve always runs cold, for two reasons. The 6T hold circuit is
    /// bistable, so a warm seed inherited from a collapsed or flipped
    /// previous sample could converge into the wrong basin. And the droop
    /// `VDD − VL` read off this solution is exponentially small: any point
    /// inside the Newton tolerance ball is "converged", but warm and cold
    /// iterations stop at different points in that ball, which `ln(droop)`
    /// amplifies to percent-level drift — enough to distort the hold
    /// sensitivities behind the Fig. 6 source-bias ceilings. A cold solve
    /// replays the reference `CellAnalysis::hold_state` strategy exactly,
    /// so the droop is bit-identical; it costs one Gmin continuation out of
    /// the ~20 solves of a full margin evaluation.
    fn hold_state(&mut self, cond: &Conditions) -> Result<(f64, f64), CircuitError> {
        let t = &mut self.hold;
        t.tpl.invalidate_warm();
        t.tpl.set_temperature(cond.temp_k);
        t.tpl.set_vsource(t.vdd, cond.vdd)?;
        t.tpl.set_vsource(t.vbl, cond.vdd)?;
        t.tpl.set_vsource(t.vbr, cond.vdd)?;
        t.tpl.set_vsource(t.vwl, 0.0)?;
        t.tpl.set_vsource(t.vsl, cond.vsb)?;
        t.tpl.set_vsource(t.vbn, cond.body_bias)?;
        for (slot, x) in
            t.devices
                .iter()
                .zip([Xtor::Pl, Xtor::Nl, Xtor::Pr, Xtor::Nr, Xtor::Axl, Xtor::Axr])
        {
            t.tpl.set_device(*slot, self.cell.device(x))?;
        }
        let opts = t.tpl.options_mut();
        opts.set_guess(t.n_vl, cond.vdd);
        opts.set_guess(t.n_vr, cond.vsb);
        opts.set_guess(t.n_vdd, cond.vdd);
        opts.set_guess(t.n_bl, cond.vdd);
        opts.set_guess(t.n_br, cond.vdd);
        opts.set_guess(t.n_sl, cond.vsb);
        t.tpl.solve()?;
        Ok((t.tpl.voltage(t.n_vl), t.tpl.voltage(t.n_vr)))
    }

    /// Loaded-inverter output for a forced input (see
    /// `CellAnalysis::inverter_output`).
    fn inverter_output(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        vin: f64,
    ) -> Result<f64, CircuitError> {
        let (pu, pd, ax) = match side {
            Side::Left => (Xtor::Pl, Xtor::Nl, Xtor::Axl),
            Side::Right => (Xtor::Pr, Xtor::Nr, Xtor::Axr),
        };
        let t = &mut self.inv;
        t.tpl.set_temperature(cond.temp_k);
        t.tpl.set_vsource(t.vdd, cond.vdd)?;
        t.tpl.set_vsource(t.vin, vin)?;
        t.tpl.set_vsource(t.vbit, cond.vdd)?;
        t.tpl
            .set_vsource(t.vwl, if wordline_high { cond.vdd } else { 0.0 })?;
        t.tpl.set_vsource(t.vsl, cond.vsb)?;
        t.tpl.set_vsource(t.vbn, cond.body_bias)?;
        t.tpl.set_device(t.pu, self.cell.device(pu))?;
        t.tpl.set_device(t.pd, self.cell.device(pd))?;
        t.tpl.set_device(t.ax, self.cell.device(ax))?;
        let guess = if vin > cond.vdd * 0.5 {
            cond.vsb
        } else {
            cond.vdd
        };
        let opts = t.tpl.options_mut();
        opts.set_guess(t.n_out, guess);
        opts.set_guess(t.n_vdd, cond.vdd);
        t.tpl.solve()?;
        Ok(t.tpl.voltage(t.n_out))
    }

    /// Trip-point bisection, identical to `CellAnalysis::inverter_trip`.
    fn inverter_trip(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        level: f64,
    ) -> Result<f64, CircuitError> {
        let mut lo = 0.0f64;
        let mut hi = cond.vdd;
        let out_lo = self.inverter_output(cond, side, wordline_high, lo)?;
        let out_hi = self.inverter_output(cond, side, wordline_high, hi)?;
        if out_lo <= level {
            return Ok(lo);
        }
        if out_hi >= level {
            return Ok(hi);
        }
        for _ in 0..self.analysis.config().bisection_iters {
            let mid = 0.5 * (lo + hi);
            let out = self.inverter_output(cond, side, wordline_high, mid)?;
            if out > level {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Read trip point `V_TRIPRD` (see `CellAnalysis::v_trip_rd`).
    fn v_trip_rd(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vdd * self.analysis.config().trip_level_frac;
        self.inverter_trip(cond, Side::Left, true, level)
    }

    /// Write trip point `V_TRIPWR` (see `CellAnalysis::v_trip_wr`).
    fn v_trip_wr(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vdd * self.analysis.config().trip_level_frac;
        self.inverter_trip(cond, Side::Right, true, level)
    }

    /// Retention trip point `V_TRIPHD` (see `CellAnalysis::v_trip_hold`).
    fn v_trip_hold(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vsb + (cond.vdd - cond.vsb) * self.analysis.config().trip_level_frac;
        self.inverter_trip(cond, Side::Right, false, level)
    }

    /// Hold droop and allowed droop (see `CellAnalysis::hold_metrics`).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures (a non-convergent hold state itself is
    /// mapped to full retention collapse, as in the reference).
    pub fn hold_metrics(&mut self, cond: &Conditions) -> Result<HoldMetrics, CircuitError> {
        let _span = pvtm_telemetry::span("eval.hold");
        let droop = match self.hold_state(cond) {
            Ok((vl, _)) => (cond.vdd - vl).max(1e-9),
            Err(CircuitError::NoConvergence { .. }) => {
                // The solve has already been through the full rescue
                // ladder by the time this arm is reached; mapping the
                // exhausted ladder to a full-droop retention collapse is
                // the reference behavior, but it must never happen
                // silently — the floor masks the solve failure and biases
                // the hold tail, so every occurrence is counted.
                pvtm_telemetry::counter_add("eval.hold_droop_floor", 1);
                cond.vdd - cond.vsb
            }
            Err(e) => return Err(e),
        };
        let trip = self.v_trip_hold(cond)?;
        Ok(HoldMetrics {
            droop,
            allowed: (cond.vdd - trip).max(1e-9),
        })
    }

    /// All four margins at the current deviations, matching
    /// [`CellAnalysis::margins`]: read/write/access in active mode (`vsb`
    /// forced to 0), hold under the conditions as given.
    ///
    /// The read divider is solved once and serves both the read and the
    /// access margin (the reference solves it twice with identical inputs).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn margins(&mut self, cond: &Conditions) -> Result<Margins, CircuitError> {
        let _span = pvtm_telemetry::span("eval.margins");
        let active = Conditions { vsb: 0.0, ..*cond };
        let trip_rd = self.v_trip_rd(&active)?;
        let (v_read, i_read) = self.read_solution(&active)?;
        let trip_wr = self.v_trip_wr(&active)?;
        let t_write = self
            .analysis
            .write_time_from_trip(&self.cell, &active, trip_wr);
        let hold = self.hold_metrics(cond)?;
        Ok(Margins {
            read: trip_rd - v_read,
            write: self.analysis.write_margin_from_time(t_write),
            access: self.analysis.access_margin_from_current(i_read),
            hold: (hold.allowed / hold.droop).ln(),
        })
    }

    /// The five raw metrics used by the linearized failure model:
    /// `[read, write, access, ln(droop), allowed]`.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn metrics(&mut self, cond: &Conditions) -> Result<[f64; 5], CircuitError> {
        let _span = pvtm_telemetry::span("eval.metrics");
        let active = Conditions { vsb: 0.0, ..*cond };
        let trip_rd = self.v_trip_rd(&active)?;
        let (v_read, i_read) = self.read_solution(&active)?;
        let trip_wr = self.v_trip_wr(&active)?;
        let t_write = self
            .analysis
            .write_time_from_trip(&self.cell, &active, trip_wr);
        let hold = self.hold_metrics(cond)?;
        Ok([
            trip_rd - v_read,
            self.analysis.write_margin_from_time(t_write),
            self.analysis.access_margin_from_current(i_read),
            hold.droop.ln(),
            hold.allowed,
        ])
    }

    /// Static write margin `V_TRIPWR − V_WRITE`, matching
    /// [`CellAnalysis::static_write_margin`].
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn static_write_margin(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let _span = pvtm_telemetry::span("eval.swm");
        Ok(self.v_trip_wr(cond)? - self.write_level(cond)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use pvtm_device::Technology;

    fn setup() -> (Technology, CellAnalysis, SramCell) {
        let tech = Technology::predictive_70nm();
        let analysis = CellAnalysis::new(&tech, AnalysisConfig::default());
        let cell = SramCell::nominal(&tech);
        (tech, analysis, cell)
    }

    #[test]
    fn cold_evaluator_is_bit_identical_to_reference() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::standby(&tech, 0.3);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        ev.set_warm_start(false);
        let fast = ev.margins(&cond).unwrap();
        let reference = analysis.margins(&cell, &cond).unwrap();
        assert_eq!(fast.read, reference.read);
        assert_eq!(fast.write, reference.write);
        assert_eq!(fast.access, reference.access);
        assert_eq!(fast.hold, reference.hold);
        assert_eq!(ev.stats().warm_attempts, 0);
    }

    #[test]
    fn warm_evaluator_matches_reference_within_tolerance() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::standby(&tech, 0.2);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        // Two rounds with different deviations to exercise warm reuse.
        for dvt in [
            [0.0; 6],
            [0.02, -0.01, 0.015, -0.02, 0.01, -0.015],
            [-0.02, 0.02, -0.01, 0.01, -0.02, 0.02],
        ] {
            ev.set_deviations(dvt);
            let fast = ev.margins(&cond).unwrap();
            let mut shifted = cell.clone();
            shifted.set_deviations(dvt);
            let reference = analysis.margins(&shifted, &cond).unwrap();
            // Voltage-domain margins agree to solver tolerance; the hold
            // margin is the log of an exponentially small droop, where the
            // same voltage tolerance is amplified to a few percent.
            let tol = [1e-5, 1e-5, 1e-5, 0.05];
            for ((a, b), t) in fast.as_array().iter().zip(reference.as_array()).zip(tol) {
                assert!((a - b).abs() < t, "warm {a} vs reference {b} (tol {t})");
            }
        }
    }

    #[test]
    fn warm_hit_rate_is_high_over_perturbed_samples() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::active(&tech);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        for k in 0..8 {
            let s = 0.01 * k as f64;
            ev.set_deviations([s, -s, s, -s, s, -s]);
            ev.margins(&cond).unwrap();
        }
        let stats = ev.stats();
        assert!(
            stats.warm_hit_rate() > 0.9,
            "hit rate {:.3} ({} / {} warm attempts, {} cold)",
            stats.warm_hit_rate(),
            stats.warm_hits,
            stats.warm_attempts,
            stats.cold_solves,
        );
    }

    #[test]
    fn metrics_agree_with_margins() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::standby(&tech, 0.25);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        let m = ev.margins(&cond).unwrap();
        ev.set_warm_start(false);
        let raw = ev.metrics(&cond).unwrap();
        assert!((raw[0] - m.read).abs() < 1e-6);
        assert!((raw[1] - m.write).abs() < 1e-6);
        assert!((raw[2] - m.access).abs() < 1e-6);
        // hold = ln(allowed) − ln(droop).
        assert!((raw[4].ln() - raw[3] - m.hold).abs() < 1e-5);
    }

    #[test]
    fn static_write_margin_matches_reference() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::active(&tech);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        ev.set_warm_start(false);
        let fast = ev.static_write_margin(&cond).unwrap();
        let reference = analysis.static_write_margin(&cell, &cond).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn hold_metrics_match_reference() {
        let (tech, analysis, cell) = setup();
        let cond = Conditions::standby(&tech, 0.4);
        let mut ev = CellEvaluator::new(&analysis, &cell);
        ev.set_warm_start(false);
        let fast = ev.hold_metrics(&cond).unwrap();
        let reference = analysis.hold_metrics(&cell, &cond).unwrap();
        assert_eq!(fast.droop, reference.droop);
        assert_eq!(fast.allowed, reference.allowed);
    }
}
