//! The circuit-solved cell metrics, on compiled templates.
//!
//! [`CellEvaluator`] compiles the metrics' four DC topologies once into
//! [`CircuitTemplate`]s — the read divider, the write level, the full 6T
//! hold state, and the loaded inverter behind every trip point and
//! butterfly curve — and re-solves them by patching typed parameter
//! slots, so a margin evaluation builds no netlist.
//!
//! A trip point is defined by a 24-step bisection of the inverter's input,
//! but is found with three solves: one bordered solve for the crossing,
//! then two ordinary solves that confirm the bisection cell it lies in
//! (see `inverter_trip`). The bisection itself runs only when that check
//! fails, and it is the check's test oracle. A margin evaluation makes
//! about eleven solves. The Monte-Carlo estimator asks only for the verdict
//! (`any_failure`), which stops at the first failing mechanism: a cell that
//! fails access costs one solve, and the hold state is solved only for
//! cells that pass access, read and write.
//!
//! Solves are warm-started from the previous solution, with cold Gmin
//! continuation only as the fallback. With warm starts disabled
//! ([`CellEvaluator::set_warm_start`]) every solve runs cold from the same
//! guesses, so each number depends on the question alone. Warm starts move
//! voltage-domain metrics by no more than the solver tolerance (≲10 µV);
//! the bistable hold state, whose exponentially small droop would turn
//! that drift into percent-level `ln(droop)` noise, always solves cold.
//! `tests/warm_cold_agreement.rs` checks both modes and pins the cold
//! numbers bit for bit.
//!
//! # Example
//!
//! ```
//! use pvtm_device::Technology;
//! use pvtm_sram::{AnalysisConfig, CellEvaluator, Conditions, SramCell};
//!
//! let tech = Technology::predictive_70nm();
//! let mut ev = CellEvaluator::new(AnalysisConfig::default(), &SramCell::nominal(&tech));
//! let cond = Conditions::standby(&tech, 0.3);
//! let warm = ev.margins(&cond)?;
//! ev.set_warm_start(false);
//! let cold = ev.margins(&cond)?;
//! assert!((warm.read - cold.read).abs() < 1e-5);
//! assert!(!cold.any_failure());
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

use pvtm_circuit::{
    transient, CircuitError, CircuitTemplate, DcOptions, MosfetSlot, Netlist, NodeId, SolverStats,
    TransientOptions, VsourceSlot,
};

use crate::analysis::{
    AnalysisConfig, HoldMetrics, Margins, BISECTION_ITERS, CBL, DV_SENSE, TRIP_LEVEL_FRAC,
};
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

/// The compiled loaded inverter behind every trip point. One template
/// serves both sides: the three devices are patched per side.
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
    config: AnalysisConfig,
    cell: SramCell,
    read: ReadTpl,
    write: WriteTpl,
    hold: HoldTpl,
    inv: InvTpl,
}

impl CellEvaluator {
    /// Compiles the four metric topologies for `base`'s technology and
    /// sizing. The base deviations are the starting point of
    /// [`Self::set_deviations`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `t_max`.
    pub fn new(config: AnalysisConfig, base: &SramCell) -> Self {
        config.check();
        Self {
            config,
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
            // Start from the stored state (guesses patched per solve), with
            // a gentler starting Gmin to stay in its basin.
            gmin_start: 1e-6,
            initial: vec![
                (vl, 0.0),
                (vr, 0.0),
                (vdd, 0.0),
                (bl, 0.0),
                (br, 0.0),
                (sl, 0.0),
            ],
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

    /// The metric configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Patches the per-transistor threshold deviations for the next
    /// evaluations (canonical [`Xtor`] order).
    pub fn set_deviations(&mut self, dvt: [f64; 6]) {
        self.cell.set_deviations(dvt);
    }

    /// Enables or disables warm starting on all four templates. Disabled,
    /// every solve runs cold from the template's guesses, so each result
    /// depends only on the question asked.
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

    /// Solves the read divider — `AXR` (from `BR` = vdd) against `NR`
    /// (gate held at vdd by the 1 node), word line high — and returns
    /// `(V_READ, I_read)`: the read-disturb voltage at the node storing 0
    /// and the bit-line discharge current.
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

    /// Write level `V_WRITE`: the voltage the 1 node (`VL`) is pulled to
    /// through `AXL` (bit line at 0) against `PL`, with the far node held
    /// at 0.
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

    /// Standby state `(VL, VR)` of the full cell: storing 1 at `VL`, word
    /// line low, source line at `cond.vsb`.
    ///
    /// This solve always runs cold, for two reasons. The 6T hold circuit is
    /// bistable, so a warm seed inherited from a collapsed or flipped
    /// previous sample could converge into the wrong basin. And the droop
    /// `VDD − VL` read off this solution is exponentially small: any point
    /// inside the Newton tolerance ball is "converged", but warm and cold
    /// iterations stop at different points in that ball, which `ln(droop)`
    /// amplifies to percent-level drift — enough to distort the hold
    /// sensitivities behind the Fig. 6 source-bias ceilings. A cold solve
    /// starts from the stored-state guess every time, so the droop depends
    /// on the cell alone. Its Gmin continuation is one of the ~11 solves of
    /// a full margin evaluation, and a fifth of its Newton iterations at
    /// the nominal corner. A verdict solves it last, and only for a cell
    /// that passes access, read and write.
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

    /// Patches the loaded inverter for one side and condition with the
    /// input at `vin`, and points the cold-start guess at the branch of
    /// the VTC that input selects. `wordline_high` turns the access
    /// pull-up from the precharged bit line on (read/write condition) or
    /// leaves it off (hold condition).
    fn patch_inverter(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        vin: f64,
    ) -> Result<(), CircuitError> {
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
        Ok(())
    }

    /// Output voltage of one cross-coupled inverter for a forced input,
    /// including the access transistor load (see [`Self::patch_inverter`]).
    fn inverter_output(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        vin: f64,
    ) -> Result<f64, CircuitError> {
        self.patch_inverter(cond, side, wordline_high, vin)?;
        self.inv.tpl.solve()?;
        Ok(self.inv.tpl.voltage(self.inv.n_out))
    }

    /// Finds the input level at which the inverter output crosses `level`
    /// (the output falls as the input rises): the answer of
    /// [`Self::bisect_trip`], mostly without its `BISECTION_ITERS + 2`
    /// solves.
    ///
    /// One bordered solve ([`CircuitTemplate::solve_trip`]) puts the
    /// crossing at `x̂`. Replaying the bisection with each comparison
    /// answered by `mid < x̂` names the bisection cell that holds `x̂`, and
    /// two ordinary solves at its ends confirm it: `out(lo) > level >
    /// out(hi)`. When one end fails, the neighbouring cell on that side is
    /// tried with one more solve. The checks are the very evaluations the
    /// bisection makes at its last bracket, so on a cold evaluator a
    /// confirmed cell is the bisection's cell, bit for bit, as long as the
    /// solved VTC is monotone. Anything else (no root, a failed check on
    /// both cells) counts an `eval.trip_fallback` and runs the bisection.
    fn inverter_trip(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        level: f64,
    ) -> Result<f64, CircuitError> {
        match self.solved_trip(cond, side, wordline_high, level)? {
            Some(trip) => Ok(trip),
            None => {
                pvtm_telemetry::counter_add("eval.trip_fallback", 1);
                self.bisect_trip(cond, side, wordline_high, level)
            }
        }
    }

    /// The bordered solve and the check of [`Self::inverter_trip`]:
    /// `None` when the bordered solve fails or no cell passes the check.
    ///
    /// # Errors
    ///
    /// Propagates failures of the checking solves, as the bisection
    /// propagates failures of the same solves.
    fn solved_trip(
        &mut self,
        cond: &Conditions,
        side: Side,
        wordline_high: bool,
        level: f64,
    ) -> Result<Option<f64>, CircuitError> {
        let cells = Cells { vdd: cond.vdd };
        // A cold start begins where the bisection does, at its first midpoint.
        let guess = 0.5 * cond.vdd;
        self.patch_inverter(cond, side, wordline_high, guess)?;
        let t = &mut self.inv;
        let Ok(root) = t.tpl.solve_trip(t.vin, t.n_out, level, guess) else {
            return Ok(None);
        };
        let mut k = cells.index_of(root);
        let (mut lo, mut hi) = cells.bounds(k);
        let mut out_lo = self.inverter_output(cond, side, wordline_high, lo)?;
        let mut out_hi = self.inverter_output(cond, side, wordline_high, hi)?;
        if out_lo > level && out_hi > level && k + 1 < cells.count() {
            // The crossing lies above `hi`: move one cell up.
            k += 1;
            (lo, hi) = cells.bounds(k);
            out_lo = out_hi;
            out_hi = self.inverter_output(cond, side, wordline_high, hi)?;
        } else if out_lo < level && out_hi < level && k > 0 {
            // The crossing lies below `lo`: move one cell down.
            k -= 1;
            (lo, hi) = cells.bounds(k);
            out_hi = out_lo;
            out_lo = self.inverter_output(cond, side, wordline_high, lo)?;
        }
        Ok((out_lo > level && out_hi < level).then_some(0.5 * (lo + hi)))
    }

    /// The trip point by bisection on `[0, vdd]`: two solves at the ends,
    /// then one per iteration. [`Self::inverter_trip`] falls back to it,
    /// and it is the test oracle of that method.
    fn bisect_trip(
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
        // Degenerate inverters (extreme deviations): clamp to the bounds.
        if out_lo <= level {
            return Ok(lo);
        }
        if out_hi >= level {
            return Ok(hi);
        }
        for _ in 0..BISECTION_ITERS {
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

    /// Read trip point `V_TRIPRD`: input level at which the left inverter
    /// (`PL`/`NL`, loaded by `AXL` pulling up from `BL` = vdd) output falls
    /// through the trip level.
    fn v_trip_rd(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vdd * TRIP_LEVEL_FRAC;
        self.inverter_trip(cond, Side::Left, true, level)
    }

    /// Write trip point `V_TRIPWR`: trip of the right inverter (`PR`/`NR`,
    /// loaded by `AXR` pulling up from `BR` = vdd).
    fn v_trip_wr(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vdd * TRIP_LEVEL_FRAC;
        self.inverter_trip(cond, Side::Right, true, level)
    }

    /// Data-retention trip point `V_TRIPHD` of the right inverter in
    /// standby: input level below which it releases the stored 0.
    fn v_trip_hold(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let level = cond.vsb + (cond.vdd - cond.vsb) * TRIP_LEVEL_FRAC;
        self.inverter_trip(cond, Side::Right, false, level)
    }

    /// The two ingredients of the hold margin: the actual 1-node droop and
    /// the allowed droop (distance from VDD down to the retention trip
    /// point), both floored at 1 nV to keep logs finite. The droop is
    /// exponential in `ΔVt(NL)` while the allowed droop shrinks at high-Vt
    /// corners, so hold failures grow at both inter-die tails (Fig. 2a).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures; a hold state that does not converge
    /// (a cell at the fold where it loses bistability) is reported as full
    /// retention collapse, a droop of the whole rail.
    pub fn hold_metrics(&mut self, cond: &Conditions) -> Result<HoldMetrics, CircuitError> {
        let _span = pvtm_telemetry::span("eval.hold");
        let droop = match self.hold_state(cond) {
            Ok((vl, _)) => (cond.vdd - vl).max(1e-9),
            Err(CircuitError::NoConvergence { .. }) => {
                // The solve has already been through the full rescue
                // ladder by the time this arm is reached; mapping the
                // exhausted ladder to a full-droop retention collapse is
                // the physical reading, but it must never happen
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

    /// Read, write and access margins in active mode (`vsb` forced to 0),
    /// and the hold metrics under the conditions as given. The read divider
    /// is solved once and serves both the read and the access margin.
    fn evaluate(&mut self, cond: &Conditions) -> Result<([f64; 3], HoldMetrics), CircuitError> {
        let active = Conditions { vsb: 0.0, ..*cond };
        let trip_rd = self.v_trip_rd(&active)?;
        let (v_read, i_read) = self.read_solution(&active)?;
        let t_write = self.write_time(&active)?;
        let hold = self.hold_metrics(cond)?;
        let margins = [
            trip_rd - v_read,
            self.config.write_margin(t_write),
            self.config.access_margin(i_read),
        ];
        Ok((margins, hold))
    }

    /// All four margins at the current deviations: read/write/access in
    /// active mode (`vsb` forced to 0), hold under the conditions as given
    /// (standby source bias applies).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn margins(&mut self, cond: &Conditions) -> Result<Margins, CircuitError> {
        let _span = pvtm_telemetry::span("eval.margins");
        let ([read, write, access], hold) = self.evaluate(cond)?;
        Ok(Margins {
            read,
            write,
            access,
            hold: (hold.allowed / hold.droop).ln(),
        })
    }

    /// Whether any mechanism fails at the current deviations: the verdict
    /// of `margins(cond)?.any_failure()`, without the margins a failing
    /// cell does not need.
    ///
    /// The steps of [`Self::margins`] run cheapest first — the read divider
    /// (access), the read trip (read), the write trip (write), then the
    /// cold hold state and the hold trip (hold) — and each margin is
    /// compared with zero as [`Margins::any_failure`] compares it, so the
    /// first failing mechanism decides the verdict and no later step runs.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures of the steps that ran: a solve after
    /// the first failing mechanism never runs, so it cannot fail.
    pub(crate) fn any_failure(&mut self, cond: &Conditions) -> Result<bool, CircuitError> {
        let _span = pvtm_telemetry::span("eval.verdict");
        let active = Conditions { vsb: 0.0, ..*cond };
        let (v_read, i_read) = self.read_solution(&active)?;
        if self.config.access_margin(i_read) < 0.0 || self.v_trip_rd(&active)? - v_read < 0.0 {
            return Ok(true);
        }
        let t_write = self.write_time(&active)?;
        if self.config.write_margin(t_write) < 0.0 {
            return Ok(true);
        }
        let hold = self.hold_metrics(cond)?;
        Ok((hold.allowed / hold.droop).ln() < 0.0)
    }

    /// The five raw metrics used by the linearized failure model:
    /// `[read, write, access, ln(droop), allowed]`.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn metrics(&mut self, cond: &Conditions) -> Result<[f64; 5], CircuitError> {
        let _span = pvtm_telemetry::span("eval.metrics");
        let ([read, write, access], hold) = self.evaluate(cond)?;
        Ok([read, write, access, hold.droop.ln(), hold.allowed])
    }

    /// Static write margin `V_TRIPWR − V_WRITE` \[V\]: positive when the
    /// access transistor can statically pull the 1 node below the opposite
    /// trip point. A necessary condition for writability, but blind to the
    /// word-line timing that the write margin of [`Self::margins`] scores.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn static_write_margin(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let _span = pvtm_telemetry::span("eval.swm");
        Ok(self.v_trip_wr(cond)? - self.write_level(cond)?)
    }

    /// Write (flip) time \[s\] under `cond`: the pull-down of the 1 node to
    /// the write trip point `V_TRIPWR` (see [`AnalysisConfig::write_time`]).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn write_time(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let trip = self.v_trip_wr(cond)?;
        Ok(self.config.write_time(&self.cell, cond, trip))
    }

    /// Access (bit-line discharge) time \[s\] under `cond`:
    /// `C_BL · ΔV_sense / I_read` (see [`AnalysisConfig::access_time`]).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn access_time(&mut self, cond: &Conditions) -> Result<f64, CircuitError> {
        let (_, i_read) = self.read_solution(cond)?;
        Ok(self.config.access_time(i_read))
    }

    /// Butterfly static noise margin \[V\] via Seevinck's rotated-coordinate
    /// construction, in read mode (`wordline_high = true`) or hold mode:
    /// both inverters' transfer curves on a 61-point input grid.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn butterfly_snm(
        &mut self,
        cond: &Conditions,
        wordline_high: bool,
    ) -> Result<f64, CircuitError> {
        const POINTS: usize = 61;
        let vmax = cond.vdd;
        let xs: Vec<f64> = (0..POINTS)
            .map(|i| i as f64 * vmax / (POINTS - 1) as f64)
            .collect();
        let mut vtc_l = Vec::with_capacity(POINTS);
        let mut vtc_r = Vec::with_capacity(POINTS);
        for &x in &xs {
            vtc_l.push(self.inverter_output(cond, Side::Left, wordline_high, x)?);
            vtc_r.push(self.inverter_output(cond, Side::Right, wordline_high, x)?);
        }
        // Seevinck construction: slide 45° lines y = x + c across the
        // butterfly. For each offset, intersect the line with the left VTC
        // (y = f1(x), monotone decreasing ⇒ unique root of f1(x) − x − c)
        // and with the mirrored right VTC (x = f2(y) ⇒ unique root of
        // y − f2(y) − c). The inscribed-square side at that offset is the
        // horizontal separation of the two intersection points; each lobe's
        // SNM is the maximum over its offsets, and the cell SNM is the
        // smaller lobe. A negative value means that lobe has collapsed —
        // the cell is no longer bistable under this condition.
        let root = |g: &dyn Fn(usize) -> f64| -> Option<f64> {
            // Finds the zero crossing of g over grid indices, interpolated
            // to a fractional x position on `xs`.
            for i in 1..POINTS {
                let (a, b) = (g(i - 1), g(i));
                // pvtm-lint: allow(no-float-eq) an exactly zero bracket endpoint is itself the root
                if a == 0.0 {
                    return Some(xs[i - 1]);
                }
                if a * b < 0.0 {
                    let frac = a / (a - b);
                    return Some(xs[i - 1] + frac * (xs[i] - xs[i - 1]));
                }
            }
            None
        };
        let mut lobe_upper = f64::NEG_INFINITY; // offsets c > 0
        let mut lobe_lower = f64::NEG_INFINITY; // offsets c < 0
        const OFFSETS: usize = 81;
        for k in 0..OFFSETS {
            let c = -vmax + 2.0 * vmax * k as f64 / (OFFSETS - 1) as f64;
            // Intersection with the left VTC: f1(x) = x + c.
            let xa = root(&|i| vtc_l[i] - xs[i] - c);
            // Intersection with the mirrored right VTC: y = f2(y) + c,
            // parameterized by y on the same grid; x-coordinate = y − c.
            let yb = root(&|i| xs[i] - vtc_r[i] - c);
            if let (Some(xa), Some(yb)) = (xa, yb) {
                let xb = yb - c;
                if c > 0.0 {
                    lobe_upper = lobe_upper.max(xa - xb);
                } else if c < 0.0 {
                    lobe_lower = lobe_lower.max(xb - xa);
                }
            }
        }
        Ok(lobe_upper.min(lobe_lower))
    }

    /// Access time \[s\] measured by a full transient simulation of the
    /// cell with explicit bit-line capacitors: the time for `BR` to
    /// discharge by the sense differential. A cross-check of
    /// [`Self::access_time`]; it builds its own netlist, since no template
    /// carries the capacitors.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; returns `NoConvergence` if the bit line
    /// never develops the differential within `8 × T_MAX`.
    pub fn access_time_transient(&self, cond: &Conditions) -> Result<f64, CircuitError> {
        let cell = &self.cell;
        let mut ckt = Netlist::new();
        ckt.set_temperature(cond.temp_k);
        let vdd = ckt.node("vdd");
        let vl = ckt.node("vl");
        let vr = ckt.node("vr");
        let bl = ckt.node("bl");
        let br = ckt.node("br");
        let wl = ckt.node("wl");
        let sl = ckt.node("sl");
        let bn = ckt.node("bn");
        ckt.vsource("VDD", vdd, Netlist::GROUND, cond.vdd);
        ckt.vsource("VWL", wl, Netlist::GROUND, cond.vdd);
        ckt.vsource("VSL", sl, Netlist::GROUND, cond.vsb);
        ckt.vsource("VBN", bn, Netlist::GROUND, cond.body_bias);
        ckt.capacitor("CBL", bl, Netlist::GROUND, CBL);
        ckt.capacitor("CBR", br, Netlist::GROUND, CBL);
        ckt.mosfet("PL", vl, vr, vdd, vdd, cell.device(Xtor::Pl));
        ckt.mosfet("NL", vl, vr, sl, bn, cell.device(Xtor::Nl));
        ckt.mosfet("PR", vr, vl, vdd, vdd, cell.device(Xtor::Pr));
        ckt.mosfet("NR", vr, vl, sl, bn, cell.device(Xtor::Nr));
        ckt.mosfet("AXL", bl, wl, vl, bn, cell.device(Xtor::Axl));
        ckt.mosfet("AXR", br, wl, vr, bn, cell.device(Xtor::Axr));

        // Initial state: bit lines precharged, cell storing 1 at VL, word
        // line already high (time zero is the WL edge).
        let sys_nodes = ckt.num_nodes() - 1; // free nodes
        let mut state = vec![0.0; sys_nodes + 4]; // + 4 vsource branches
        for (node, v) in [
            (vdd, cond.vdd),
            (vl, cond.vdd),
            (vr, 0.0),
            (bl, cond.vdd),
            (br, cond.vdd),
            (wl, cond.vdd),
            (sl, cond.vsb),
            (bn, cond.body_bias),
        ] {
            state[node.index() - 1] = v;
        }

        let t_stop = self.config.t_max * 8.0;
        let opts = TransientOptions::new(t_stop / 400.0, t_stop).with_initial_state(state);
        let res = transient::solve(&ckt, &opts)?;
        res.crossing_time(br, cond.vdd - DV_SENSE, true)
            .ok_or(CircuitError::NoConvergence {
                residual: f64::NAN,
                iterations: 400,
            })
    }
}

/// The final cells of a bisection on `[0, vdd]`, indexed by the bisection's
/// decisions: bit `j` of an index (most significant first) is 1 when step
/// `j` moved the lower end up. Bounds are replayed with the bisection's
/// own midpoint arithmetic, so they are the floats it would reach.
#[derive(Debug, Clone, Copy)]
struct Cells {
    vdd: f64,
}

impl Cells {
    /// Number of cells, `2^BISECTION_ITERS`.
    fn count(self) -> u64 {
        1 << BISECTION_ITERS
    }

    /// The cell the bisection would end in if each of its comparisons
    /// were answered by `mid < root`.
    fn index_of(self, root: f64) -> u64 {
        let (mut lo, mut hi, mut k) = (0.0f64, self.vdd, 0u64);
        for _ in 0..BISECTION_ITERS {
            let mid = 0.5 * (lo + hi);
            k <<= 1;
            if mid < root {
                lo = mid;
                k |= 1;
            } else {
                hi = mid;
            }
        }
        k
    }

    /// The bracket `(lo, hi)` of cell `k`.
    fn bounds(self, k: u64) -> (f64, f64) {
        let (mut lo, mut hi) = (0.0f64, self.vdd);
        for bit in (0..BISECTION_ITERS).rev() {
            let mid = 0.5 * (lo + hi);
            if (k >> bit) & 1 == 1 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, hi)
    }
}

/// Which inverter of the cross-coupled pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The `PL`/`NL` inverter (output at `VL`, access device `AXL`).
    Left,
    /// The `PR`/`NR` inverter (output at `VR`, access device `AXR`).
    Right,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSizing;
    use proptest::prelude::*;
    use pvtm_device::Technology;
    use rand_distr::{Distribution, StandardNormal};

    fn setup() -> (Technology, CellEvaluator) {
        let tech = Technology::predictive_70nm();
        let ev = CellEvaluator::new(AnalysisConfig::default(), &SramCell::nominal(&tech));
        (tech, ev)
    }

    /// The arguments of the read, write and hold trips under `cond`, as
    /// `v_trip_rd`, `v_trip_wr` and `v_trip_hold` pass them.
    fn trip_kinds(cond: &Conditions) -> [(Side, bool, f64); 3] {
        [
            (Side::Left, true, cond.vdd * TRIP_LEVEL_FRAC),
            (Side::Right, true, cond.vdd * TRIP_LEVEL_FRAC),
            (
                Side::Right,
                false,
                cond.vsb + (cond.vdd - cond.vsb) * TRIP_LEVEL_FRAC,
            ),
        ]
    }

    /// Deviations `σᵢ·zᵢ` for standardized `z`.
    fn deviations(ev: &CellEvaluator, z: [f64; 6]) -> [f64; 6] {
        std::array::from_fn(|i| ev.cell.sigma_vt(Xtor::ALL[i]) * z[i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On a cold evaluator every solve depends on its question alone,
        /// so a confirmed cell must be the bisection's answer bit for bit.
        #[test]
        fn certified_trips_equal_the_cold_bisection(
            z in prop::collection::vec(-6.0f64..6.0, 6),
            vsb in 0.0f64..0.74,
            bb in -0.4f64..0.4,
        ) {
            let (tech, mut ev) = setup();
            ev.set_warm_start(false);
            ev.set_deviations(deviations(&ev, std::array::from_fn(|i| z[i])));
            let cond = Conditions::standby(&tech, vsb).with_body_bias(bb);
            for (side, wl, level) in trip_kinds(&cond) {
                let oracle = ev.bisect_trip(&cond, side, wl, level).unwrap();
                if let Some(trip) = ev.solved_trip(&cond, side, wl, level).unwrap() {
                    prop_assert!(
                        trip.to_bits() == oracle.to_bits(),
                        "{side:?} wl={wl}: certified {trip} vs bisection {oracle}"
                    );
                }
            }
        }

        /// On a cold evaluator the verdict is `margins`' verdict. An error
        /// of the verdict is an error of `margins`; an error of `margins`
        /// leaves the verdict only a failure found before the failing step.
        #[test]
        fn verdict_equals_the_margins_verdict(
            z in prop::collection::vec(-6.0f64..6.0, 6),
            vsb in 0.0f64..0.74,
            bb in -0.4f64..0.4,
        ) {
            let (tech, mut ev) = setup();
            ev.set_warm_start(false);
            ev.set_deviations(deviations(&ev, std::array::from_fn(|i| z[i])));
            let cond = Conditions::standby(&tech, vsb).with_body_bias(bb);
            let verdict = ev.any_failure(&cond);
            match (verdict, ev.margins(&cond)) {
                (Ok(v), Ok(m)) => prop_assert!(v == m.any_failure(), "verdict {v}, margins {m:?}"),
                (Err(e), Ok(m)) => prop_assert!(false, "verdict failed ({e}), margins {m:?}"),
                (Ok(v), Err(e)) => prop_assert!(v, "verdict passed, margins failed ({e})"),
                (Err(_), Err(_)) => {}
            }
        }
    }

    /// One verdict from a cold start and the solver statistics it left.
    fn verdict_stats(ev: &mut CellEvaluator, cond: &Conditions) -> (bool, SolverStats) {
        ev.invalidate_warm();
        ev.reset_stats();
        let verdict = ev.any_failure(cond).unwrap();
        (verdict, ev.stats())
    }

    #[test]
    fn a_cell_failing_access_costs_one_solve() {
        let (tech, mut ev) = setup();
        let cond = Conditions::standby(&tech, 0.5);
        // A slow read path: NR and AXR 300 mV above nominal.
        ev.set_deviations([0.0, 0.3, 0.0, 0.0, 0.0, 0.3]);
        let m = ev.margins(&cond).unwrap();
        assert!(m.access < 0.0, "premise: access fails, {m:?}");
        let (verdict, stats) = verdict_stats(&mut ev, &cond);
        assert!(verdict);
        assert_eq!(stats.solves, 1, "{stats:?}");
    }

    #[test]
    fn a_cell_failing_read_makes_no_write_or_hold_solve() {
        let (tech, mut ev) = setup();
        let cond = Conditions::standby(&tech, 0.5);
        // A low read trip (strong NL) against a high disturb (strong AXR,
        // weak NR).
        ev.set_deviations([-0.3, 0.1, 0.0, 0.0, 0.0, -0.3]);
        let m = ev.margins(&cond).unwrap();
        assert!(
            m.access >= 0.0 && m.read < 0.0,
            "premise: read fails first, {m:?}"
        );
        let (verdict, stats) = verdict_stats(&mut ev, &cond);
        assert!(verdict);
        assert_eq!(*ev.write.tpl.stats(), SolverStats::default());
        assert_eq!(*ev.hold.tpl.stats(), SolverStats::default());
        // The inverter ran the read trip and nothing else.
        let active = Conditions { vsb: 0.0, ..cond };
        ev.invalidate_warm();
        ev.reset_stats();
        ev.v_trip_rd(&active).unwrap();
        assert_eq!(stats.solves, 1 + ev.inv.tpl.stats().solves, "{stats:?}");
    }

    /// Over samples at three corners, the hold state is solved exactly
    /// for the cells whose access, read and write margins all pass.
    #[test]
    fn the_hold_template_solves_only_when_the_active_mechanisms_pass() {
        let (tech, mut ev) = setup();
        let (_, mut oracle) = setup();
        oracle.set_warm_start(false);
        let cond = Conditions::standby(&tech, 0.5);
        let (mut solved, mut skipped) = (0u32, 0u32);
        for (i, vt_inter) in [-0.15, 0.0, 0.15].into_iter().enumerate() {
            let mut rng = pvtm_stats::rng::substream(19, i as u64);
            for _ in 0..40 {
                let z: [f64; 6] = std::array::from_fn(|_| 1.5 * StandardNormal.sample(&mut rng));
                let mut dvt = deviations(&ev, z);
                for (d, x) in dvt.iter_mut().zip(Xtor::ALL) {
                    if x.is_nmos() {
                        *d += vt_inter;
                    }
                }
                ev.set_deviations(dvt);
                oracle.set_deviations(dvt);
                let m = oracle.margins(&cond).unwrap();
                verdict_stats(&mut ev, &cond);
                let hold_ran = ev.hold.tpl.stats().newton_iterations > 0;
                let active_pass = m.access >= 0.0 && m.read >= 0.0 && m.write >= 0.0;
                assert_eq!(hold_ran, active_pass, "{m:?}");
                if hold_ran {
                    solved += 1;
                } else {
                    skipped += 1;
                }
            }
        }
        eprintln!("hold solved for {solved} cells, skipped for {skipped}");
        assert!(
            solved > 0 && skipped > 0,
            "{solved} solved, {skipped} skipped"
        );
    }

    /// On a warm evaluator walked over Monte-Carlo samples the check
    /// solves start from the bordered root, so a trip may land a cell or
    /// two off the cold bisection (the warm bisection strays several
    /// cells); read and write trips must stay within two cells, and at
    /// most 1 % of them may fall back.
    #[test]
    fn warm_trips_stay_within_two_cells_of_the_cold_bisection() {
        let (tech, mut warm) = setup();
        let (_, mut cold) = setup();
        cold.set_warm_start(false);
        let cell = tech.vdd() / (1u64 << BISECTION_ITERS) as f64;
        let (mut worst, mut trips, mut fallbacks) = (0.0f64, 0u32, 0u32);
        for (i, (vt_inter, bb)) in [(0.0, 0.0), (-0.08, 0.3), (0.08, -0.3)]
            .into_iter()
            .enumerate()
        {
            let cond = Conditions::active(&tech).with_body_bias(bb);
            let mut rng = pvtm_stats::rng::substream(7, i as u64);
            for _ in 0..150 {
                let z: [f64; 6] = std::array::from_fn(|_| StandardNormal.sample(&mut rng));
                let mut dvt = deviations(&warm, z);
                for (d, x) in dvt.iter_mut().zip(Xtor::ALL) {
                    if x.is_nmos() {
                        *d += vt_inter;
                    }
                }
                warm.set_deviations(dvt);
                cold.set_deviations(dvt);
                for (side, wl, level) in &trip_kinds(&cond)[..2] {
                    let oracle = cold.bisect_trip(&cond, *side, *wl, *level).unwrap();
                    let trip = match warm.solved_trip(&cond, *side, *wl, *level).unwrap() {
                        Some(t) => t,
                        None => {
                            fallbacks += 1;
                            warm.bisect_trip(&cond, *side, *wl, *level).unwrap()
                        }
                    };
                    trips += 1;
                    worst = worst.max((trip - oracle).abs() / cell);
                }
            }
        }
        eprintln!(
            "warm read/write trips: worst {worst} cells from the cold bisection, \
             {fallbacks} of {trips} fell back"
        );
        assert!(worst <= 2.0, "worst {worst} cells");
        assert!(fallbacks * 100 <= trips, "{fallbacks} of {trips} fell back");
    }

    #[test]
    fn nominal_margins_are_healthy() {
        let (tech, mut ev) = setup();
        let m = ev.margins(&Conditions::active(&tech)).unwrap();
        assert!(m.read > 0.05, "read margin {:.3}", m.read);
        assert!(m.write > 0.05, "write margin {:.3}", m.write);
        assert!(m.access > 0.1, "access margin {:.3}", m.access);
        assert!(m.hold > 0.1, "hold margin {:.3}", m.hold);
        assert!(!m.any_failure());
    }

    #[test]
    fn v_read_is_a_small_positive_disturb() {
        let (tech, mut ev) = setup();
        let (v, _) = ev.read_solution(&Conditions::active(&tech)).unwrap();
        assert!(v > 0.01 && v < 0.4, "V_READ = {v:.3}");
    }

    #[test]
    fn weaker_pulldown_raises_v_read() {
        let (tech, mut ev) = setup();
        let cond = Conditions::active(&tech);
        let (base, _) = ev.read_solution(&cond).unwrap();
        // Raise NR's Vt: the pull-down fights the disturb less well.
        ev.set_deviations([0.0, 0.06, 0.0, 0.0, 0.0, 0.0]);
        let (worse, _) = ev.read_solution(&cond).unwrap();
        assert!(worse > base, "{worse} vs {base}");
    }

    #[test]
    fn rbb_improves_read_margin() {
        let (tech, mut ev) = setup();
        let zbb = ev.margins(&Conditions::active(&tech)).unwrap().read;
        let rbb = ev
            .margins(&Conditions::active(&tech).with_body_bias(-0.4))
            .unwrap()
            .read;
        assert!(rbb > zbb, "RBB must improve read stability: {rbb} vs {zbb}");
    }

    #[test]
    fn rbb_degrades_write_and_access() {
        let (tech, mut ev) = setup();
        let cond0 = Conditions::active(&tech);
        let m0 = ev.margins(&cond0).unwrap();
        let m1 = ev.margins(&cond0.with_body_bias(-0.4)).unwrap();
        assert!(
            m1.write < m0.write,
            "RBB must hurt writability: {} vs {}",
            m1.write,
            m0.write
        );
        assert!(
            m1.access < m0.access,
            "RBB must slow the read: {} vs {}",
            m1.access,
            m0.access
        );
    }

    #[test]
    fn fbb_improves_write_and_access() {
        let (tech, mut ev) = setup();
        let cond0 = Conditions::active(&tech);
        let m0 = ev.margins(&cond0).unwrap();
        let m1 = ev.margins(&cond0.with_body_bias(0.4)).unwrap();
        assert!(m1.write > m0.write);
        assert!(m1.access > m0.access);
    }

    #[test]
    fn deep_source_bias_erodes_hold_margin() {
        // At small VSB the margin can even improve (DIBL cuts NL leakage
        // faster than PL weakens); past the knee the weakening PL and the
        // collapsing retention window must dominate.
        let (tech, mut ev) = setup();
        let mut hold_margin = |vsb: f64| {
            let h = ev.hold_metrics(&Conditions::standby(&tech, vsb)).unwrap();
            (h.allowed / h.droop).ln()
        };
        let m_mid = hold_margin(0.30);
        let m_deep = hold_margin(0.65);
        assert!(
            m_deep < m_mid,
            "deep VSB must erode hold margin: {m_deep} vs {m_mid}"
        );
        assert!(m_mid > 0.0);
    }

    #[test]
    fn hold_state_retains_data_at_nominal() {
        let (tech, mut ev) = setup();
        let (vl, vr) = ev.hold_state(&Conditions::standby(&tech, 0.2)).unwrap();
        assert!(vl > 0.9, "the 1 node must stay high: {vl}");
        assert!(vr < 0.3, "the 0 node must stay near the source line: {vr}");
    }

    #[test]
    fn access_estimate_matches_transient_within_factor_two() {
        let (tech, mut ev) = setup();
        let cond = Conditions::active(&tech);
        let est = ev.access_time(&cond).unwrap();
        let tran = ev.access_time_transient(&cond).unwrap();
        let ratio = tran / est;
        assert!(
            (0.5..2.0).contains(&ratio),
            "estimate {est:.3e} vs transient {tran:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn hold_snm_exceeds_read_snm() {
        // Classic result: read condition always degrades the butterfly.
        let (tech, mut ev) = setup();
        let cond = Conditions::active(&tech);
        let hold = ev.butterfly_snm(&cond, false).unwrap();
        let read = ev.butterfly_snm(&cond, true).unwrap();
        assert!(hold > read, "hold SNM {hold:.3} vs read SNM {read:.3}");
        assert!(read > 0.0, "nominal cell must be read-stable");
    }

    #[test]
    fn bigger_pulldown_improves_read_snm() {
        let (tech, mut small) = setup();
        let cond = Conditions::active(&tech);
        let mut sizing = CellSizing::default_for(&tech);
        sizing.wpd *= 1.6;
        let mut big = CellEvaluator::new(
            AnalysisConfig::default(),
            &SramCell::with_sizing(&tech, sizing),
        );
        let snm_big = big.butterfly_snm(&cond, true).unwrap();
        let snm_small = small.butterfly_snm(&cond, true).unwrap();
        assert!(
            snm_big > snm_small,
            "β-ratio must improve read SNM: {snm_big:.4} vs {snm_small:.4}"
        );
    }

    #[test]
    fn snm_is_physically_sized() {
        let (tech, mut ev) = setup();
        let snm = ev.butterfly_snm(&Conditions::active(&tech), false).unwrap();
        // Hold SNM of a healthy 6T cell sits well inside (0, vdd/2).
        assert!(snm > 0.05 && snm < 0.5, "hold SNM = {snm:.4}");
    }

    #[test]
    fn static_write_margin_is_positive_at_nominal() {
        let (tech, mut ev) = setup();
        let m = ev.static_write_margin(&Conditions::active(&tech)).unwrap();
        assert!(m > 0.1, "static write margin {m:.3}");
    }

    #[test]
    fn write_time_is_picoseconds_at_nominal() {
        let (tech, mut ev) = setup();
        let t = ev.write_time(&Conditions::active(&tech)).unwrap();
        assert!(
            t > 1e-12 && t < 1e-9,
            "write time should be ps-scale, got {t:.3e}"
        );
    }

    #[test]
    fn warm_evaluator_matches_cold_within_tolerance() {
        let (tech, mut warm) = setup();
        let (_, mut cold) = setup();
        cold.set_warm_start(false);
        let cond = Conditions::standby(&tech, 0.2);
        // Three rounds with different deviations to exercise warm reuse.
        for dvt in [
            [0.0; 6],
            [0.02, -0.01, 0.015, -0.02, 0.01, -0.015],
            [-0.02, 0.02, -0.01, 0.01, -0.02, 0.02],
        ] {
            warm.set_deviations(dvt);
            cold.set_deviations(dvt);
            let fast = warm.margins(&cond).unwrap();
            let reference = cold.margins(&cond).unwrap();
            // Voltage-domain margins agree to solver tolerance; the hold
            // margin is the log of an exponentially small droop, where the
            // same voltage tolerance is amplified to a few percent.
            let tol = [1e-5, 1e-5, 1e-5, 0.05];
            for ((a, b), t) in fast.as_array().iter().zip(reference.as_array()).zip(tol) {
                assert!((a - b).abs() < t, "warm {a} vs cold {b} (tol {t})");
            }
        }
        assert_eq!(cold.stats().warm_attempts, 0);
    }

    #[test]
    fn warm_hit_rate_is_high_over_perturbed_samples() {
        let (tech, mut ev) = setup();
        let cond = Conditions::active(&tech);
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
        let (tech, mut ev) = setup();
        let cond = Conditions::standby(&tech, 0.25);
        let m = ev.margins(&cond).unwrap();
        ev.set_warm_start(false);
        let raw = ev.metrics(&cond).unwrap();
        assert!((raw[0] - m.read).abs() < 1e-6);
        assert!((raw[1] - m.write).abs() < 1e-6);
        assert!((raw[2] - m.access).abs() < 1e-6);
        // hold = ln(allowed) − ln(droop).
        assert!((raw[4].ln() - raw[3] - m.hold).abs() < 1e-5);
    }
}
