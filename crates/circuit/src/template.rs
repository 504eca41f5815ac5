//! Compiled circuit templates: build a topology once, patch parameters and
//! re-solve without strings, netlist clones, or heap allocation.
//!
//! Monte-Carlo analyses solve the *same* circuit thousands of times with
//! slightly different parameters (per-transistor ΔVt, source values,
//! temperature). Rebuilding the netlist per sample — interning node names,
//! pushing elements, allocating Newton scratch — dominates the runtime of
//! small circuits. A [`CircuitTemplate`] is the compiled form of one
//! topology:
//!
//! - node ids and the MNA layout (free nodes, then one branch row per
//!   voltage source in element order) are resolved at compile time;
//! - parameters are patched through typed slots ([`VsourceSlot`],
//!   [`MosfetSlot`]) — plain indices, no name lookups;
//! - the Newton scratch buffers live in the template and are reused across
//!   solves;
//! - each solve is seeded from the previous solution (warm start) and only
//!   falls back to the cold ladder of Gmin continuations and source ramps
//!   on non-convergence, with hit rates tracked in [`SolverStats`];
//! - [`CircuitTemplate::solve_trip`] inverts the circuit instead: it solves
//!   for the source value that puts a node at a given level, in one
//!   bordered Newton solve (an inverter's trip point without a bisection).
//!
//! # Example
//!
//! ```
//! use pvtm_circuit::{CircuitTemplate, DcOptions, Netlist};
//!
//! let mut ckt = Netlist::new();
//! let top = ckt.node("top");
//! let mid = ckt.node("mid");
//! ckt.vsource("V1", top, Netlist::GROUND, 2.0);
//! ckt.resistor("R1", top, mid, 1e3);
//! ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
//!
//! let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default())?;
//! let v1 = tpl.vsource_slot("V1").unwrap();
//! for vin in [2.0, 1.5, 1.0] {
//!     tpl.set_vsource(v1, vin)?;
//!     tpl.solve()?;
//!     assert!((tpl.voltage(mid) - vin / 2.0).abs() < 1e-8);
//! }
//! assert!(tpl.stats().warm_hits >= 1);
//! # Ok::<(), pvtm_circuit::CircuitError>(())
//! ```

use std::sync::Arc;

use crate::dc::{self, Border, DcOptions, DcSolution, DcWorkspace, Limits, Pins, System};
use crate::netlist::{CircuitError, Element, Netlist, NodeId};
use crate::SolverStats;
use pvtm_device::Mosfet;

/// Typed handle to a voltage source inside a [`CircuitTemplate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VsourceSlot {
    /// Element index in the netlist.
    elem: usize,
    /// Row of this source's branch current in the solver state.
    row: usize,
}

/// Typed handle to a MOSFET inside a [`CircuitTemplate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MosfetSlot {
    /// Element index in the netlist.
    elem: usize,
}

/// The Newton limits of [`CircuitTemplate::solve_trip`]'s bordered
/// system: full steps to 1e-4 of the KCL tolerance. At the tolerance
/// itself a root would be off by `tol / g_m` (~1 µV on an SRAM inverter,
/// some sixteen cells of a 24-step bisection); 1e-4 of it leaves the root
/// well inside one cell.
const TRIP: Limits = Limits {
    tol: dc::CURRENT_TOL * 1e-4,
    ..dc::NORMAL
};

/// A compiled circuit: fixed topology, patchable parameters, reusable
/// solver state. See the [module documentation](self) for the rationale.
#[derive(Debug, Clone)]
pub struct CircuitTemplate {
    netlist: Netlist,
    /// The nodes of the frozen topology that sources pin.
    pins: Pins,
    opts: DcOptions,
    num_free_nodes: usize,
    branch_names: Arc<[String]>,
    ws: DcWorkspace,
    /// Solver state of the last successful solve (also the warm seed).
    state: Vec<f64>,
    /// Whether `state` holds a converged solution usable as a warm seed.
    have_warm: bool,
    /// Whether warm starting is enabled at all (on by default).
    warm_start: bool,
}

impl CircuitTemplate {
    /// Compiles a netlist into a template. The netlist's topology (nodes
    /// and element kinds) is frozen; values remain patchable through slots.
    ///
    /// # Errors
    ///
    /// [`CircuitError::EmptyCircuit`] if the netlist has no unknowns.
    pub fn compile(netlist: Netlist, opts: DcOptions) -> Result<Self, CircuitError> {
        let pins = Pins::of(&netlist);
        let sys = System::new(&netlist, &pins);
        if sys.num_unknowns == 0 {
            return Err(CircuitError::EmptyCircuit);
        }
        let num_free_nodes = sys.num_free_nodes;
        let branch_names = sys.branch_names();
        let state = vec![0.0; sys.num_unknowns];
        Ok(Self {
            netlist,
            pins,
            opts,
            num_free_nodes,
            branch_names,
            ws: DcWorkspace::default(),
            state,
            have_warm: false,
            warm_start: true,
        })
    }

    /// Looks up a node of the compiled topology by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.netlist.find_node(name)
    }

    /// Resolves a voltage source by instance name to its typed slot.
    pub fn vsource_slot(&self, name: &str) -> Option<VsourceSlot> {
        let mut row = self.num_free_nodes;
        for (i, (n, e)) in self.netlist.elements().iter().enumerate() {
            if let Element::Vsource { .. } = e {
                if n == name {
                    return Some(VsourceSlot { elem: i, row });
                }
                row += 1;
            }
        }
        None
    }

    /// Resolves a MOSFET by instance name to its typed slot.
    pub fn mosfet_slot(&self, name: &str) -> Option<MosfetSlot> {
        self.netlist
            .elements()
            .iter()
            .position(|(n, e)| matches!(e, Element::Mosfet { .. }) && n == name)
            .map(|elem| MosfetSlot { elem })
    }

    /// Patches a voltage source's value \[V\]. No-op on the topology; the
    /// next [`Self::solve`] picks it up.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SlotMismatch`] when the slot was minted by a
    /// template of a different shape.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value (caller contract: sampled voltages are
    /// clamped finite upstream).
    pub fn set_vsource(&mut self, slot: VsourceSlot, volts: f64) -> Result<(), CircuitError> {
        assert!(volts.is_finite(), "invalid source voltage {volts}");
        match self.netlist.element_mut(slot.elem) {
            Element::Vsource { volts: v, .. } => {
                *v = volts;
                Ok(())
            }
            _ => Err(CircuitError::SlotMismatch {
                expected: "vsource",
                elem: slot.elem,
            }),
        }
    }

    /// Replaces a MOSFET's device instance (geometry, card, ΔVt) wholesale.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SlotMismatch`] when the slot was minted by a
    /// template of a different shape.
    pub fn set_device(&mut self, slot: MosfetSlot, device: Mosfet) -> Result<(), CircuitError> {
        match self.netlist.element_mut(slot.elem) {
            Element::Mosfet { device: d, .. } => {
                *d = device;
                Ok(())
            }
            _ => Err(CircuitError::SlotMismatch {
                expected: "mosfet",
                elem: slot.elem,
            }),
        }
    }

    /// Sets the simulation temperature \[K\].
    pub fn set_temperature(&mut self, temp_k: f64) {
        self.netlist.set_temperature(temp_k);
    }

    /// Mutable access to the solver options — e.g. to update the initial
    /// guesses ([`DcOptions::set_guess`]) used by cold starts.
    pub fn options_mut(&mut self) -> &mut DcOptions {
        &mut self.opts
    }

    /// Enables or disables warm starting (enabled by default). With warm
    /// starts off every solve runs the full cold strategy from the initial
    /// guesses, so its result depends on the current parameters alone: with
    /// default options it is bit-identical to [`Netlist::solve_dc`] on the
    /// same netlist.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_start = enabled;
    }

    /// Drops the warm seed; the next solve runs cold. Useful after patching
    /// parameters far from the previous solve's neighbourhood.
    pub fn invalidate_warm(&mut self) {
        self.have_warm = false;
    }

    /// Solves the DC operating point with the current parameter values.
    ///
    /// Seeds Newton from the previous solution when available; falls back
    /// to the cold ladder on non-convergence: Gmin continuation, a damped
    /// retry and a source ramp, then the three rescue rungs (decade Gmin
    /// steps, a wide damped ramp, deep damping). Results are read back
    /// through [`Self::voltage`] / [`Self::branch_current`] without
    /// allocating.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoConvergence`] / [`CircuitError::SingularMatrix`]
    /// when every rung fails; the warm seed is dropped so the next solve
    /// starts cold.
    pub fn solve(&mut self) -> Result<(), CircuitError> {
        self.logical_solve(|t| t.warm_or_cold(None))
    }

    /// Runs one logical solve under a `dc.solve` span: arms fault
    /// injection for it once and reports the solver work it did to
    /// telemetry. Every DC solve of the crate enters here.
    fn logical_solve<T>(
        &mut self,
        solve: impl FnOnce(&mut Self) -> Result<T, CircuitError>,
    ) -> Result<T, CircuitError> {
        let _span = pvtm_telemetry::span("dc.solve");
        pvtm_telemetry::fault::next_solve();
        let before = self.ws.stats;
        let result = solve(self);
        if pvtm_telemetry::is_enabled() {
            pvtm_telemetry::record_solver(&self.ws.stats.delta_since(&before));
        }
        result
    }

    /// The solve behind [`Self::solve`] and [`Self::solve_trip`]: Newton
    /// from the last solution when there is one, else the cold ladder on
    /// the plain circuit followed, for a bordered system, by Newton on it.
    /// Success keeps the state as the next warm seed; failure drops it.
    fn warm_or_cold(&mut self, border: Option<Border>) -> Result<(), CircuitError> {
        if self.warm_start && self.have_warm {
            self.ws.stats.warm_attempts += 1;
            if !pvtm_telemetry::fault::trip() && self.newton(border).is_ok() {
                self.ws.stats.warm_hits += 1;
                self.ws.stats.solves += 1;
                return Ok(());
            }
        }
        let plain = System::new(&self.netlist, &self.pins);
        let cold = dc::cold_solve(&plain, &mut self.state, &self.opts, &mut self.ws);
        let result = match border {
            Some(_) => cold.and_then(|()| self.newton(border).map(drop)),
            None => cold,
        };
        self.have_warm = result.is_ok();
        self.ws.stats.solves += u64::from(self.have_warm);
        result
    }

    /// Newton at the final Gmin from the current state, on the plain
    /// circuit or with `border` in place.
    fn newton(&mut self, border: Option<Border>) -> Result<f64, CircuitError> {
        let sys = System::new(&self.netlist, &self.pins);
        let (sys, limits) = match border {
            Some(b) => (sys.bordered(b), &TRIP),
            None => (sys, &dc::NORMAL),
        };
        sys.newton(
            &mut self.state,
            dc::GMIN_FINAL,
            1.0,
            None,
            limits,
            &mut self.ws,
        )
    }

    /// Solves for the value of source `input` at which node `out` sits at
    /// `level` \[V\], patches the source to it and returns it.
    ///
    /// This is one bordered Newton solve: `input`'s constraint row is
    /// replaced by `v(out) − level = 0`, so the voltage across the source
    /// becomes an unknown while the matrix keeps its size. It warm-starts
    /// from the last solution like [`Self::solve`]. Cold, it first solves
    /// the ordinary circuit with the source at `guess` (the full cold
    /// ladder; Gmin continuation of the bordered system itself can fail)
    /// and runs the bordered Newton from there. It converges to 1e-4 of
    /// the KCL tolerance, so the root is resolved far below what an
    /// ordinary solve's tolerance would allow. Stats, telemetry and fault
    /// injection count it as one logical solve.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SlotMismatch`] for a slot of another template;
    /// [`CircuitError::SingularMatrix`] when `out` is ground (no level
    /// can pin it), not a node of this template, or independent of the
    /// input; otherwise those of [`Self::solve`]. When the cold start
    /// fails, the source holds `guess` and the warm seed is dropped.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `guess`, like [`Self::set_vsource`].
    pub fn solve_trip(
        &mut self,
        input: VsourceSlot,
        out: NodeId,
        level: f64,
        guess: f64,
    ) -> Result<f64, CircuitError> {
        self.logical_solve(|t| t.solve_trip_inner(input, out, level, guess))
    }

    fn solve_trip_inner(
        &mut self,
        input: VsourceSlot,
        out: NodeId,
        level: f64,
        guess: f64,
    ) -> Result<f64, CircuitError> {
        let (pos, neg) = match self.netlist.elements().get(input.elem) {
            Some((_, Element::Vsource { pos, neg, .. })) => (*pos, *neg),
            _ => {
                return Err(CircuitError::SlotMismatch {
                    expected: "vsource",
                    elem: input.elem,
                })
            }
        };
        if out.is_ground() || out.index() > self.num_free_nodes {
            return Err(CircuitError::SingularMatrix { column: input.row });
        }
        // The bordered system does not read the input's value, so the
        // guess can be in place before the warm attempt.
        self.set_vsource(input, guess)?;
        self.warm_or_cold(Some(Border {
            row: input.row,
            out: out.index() - 1,
            level,
        }))?;
        Ok(self.patch_root(input, pos, neg))
    }

    /// Patches source `input` (between `pos` and `neg`) to the voltage
    /// across it in the last solution, a bordered one, and returns it.
    fn patch_root(&mut self, input: VsourceSlot, pos: NodeId, neg: NodeId) -> f64 {
        let root = self.voltage(pos) - self.voltage(neg);
        if let Element::Vsource { volts, .. } = self.netlist.element_mut(input.elem) {
            *volts = root;
        }
        root
    }

    /// Voltage of a node at the last solution \[V\]. Ground reads 0.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.state[node.index() - 1]
        }
    }

    /// Branch current of a voltage source at the last solution \[A\],
    /// positive when the source delivers current out of its positive
    /// terminal.
    pub fn branch_current(&self, slot: VsourceSlot) -> f64 {
        self.state[slot.row]
    }

    /// The last solution's raw state (node voltages then branch currents).
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Packages the last solution as an owned [`DcSolution`] (branch names
    /// are shared, not recloned).
    pub fn solution(&self) -> DcSolution {
        DcSolution::new(
            self.state.clone(),
            self.num_free_nodes,
            Arc::clone(&self.branch_names),
        )
    }

    /// Solver statistics accumulated since compile (or the last reset).
    pub fn stats(&self) -> &SolverStats {
        &self.ws.stats
    }

    /// Resets the solver statistics.
    pub fn reset_stats(&mut self) {
        self.ws.stats = SolverStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_device::Technology;

    fn divider() -> Netlist {
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, 2.0);
        ckt.resistor("R1", top, mid, 1e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
        ckt
    }

    fn inverter() -> Netlist {
        inverter_at(300.0, 0.0)
    }

    /// The inverter at `temp_k`, with `dvt` on its NMOS.
    fn inverter_at(temp_k: f64, dvt: f64) -> Netlist {
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
        ckt.set_temperature(temp_k);
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        ckt.vsource("VIN", input, Netlist::GROUND, 0.0);
        ckt.mosfet(
            "MP",
            out,
            input,
            vdd,
            vdd,
            Mosfet::pmos(&tech, 200e-9, tech.lmin()),
        );
        ckt.mosfet(
            "MN",
            out,
            input,
            Netlist::GROUND,
            Netlist::GROUND,
            Mosfet::nmos(&tech, 140e-9, tech.lmin()).with_delta_vt(dvt),
        );
        ckt
    }

    #[test]
    fn template_matches_plain_solve() {
        // With warm starts off the reference's second solve is cold again;
        // a warm-starting template's first solve is cold too, and both
        // equal `solve_dc`.
        let mut plain = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        plain.set_warm_start(false);
        plain.solve().unwrap();
        plain.solve().unwrap();
        let mut tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        tpl.solve().unwrap();
        assert_eq!(tpl.state(), plain.state());
        assert_eq!(tpl.solution(), divider().solve_dc().unwrap());
        let v1 = tpl.vsource_slot("V1").unwrap();
        assert_eq!(tpl.branch_current(v1), plain.branch_current(v1));
    }

    #[test]
    fn a_patched_template_solves_as_a_fresh_compile() {
        // Solve, patch the temperature or a device, drop the warm seed and
        // solve again: that solve must be, state and counters bit for bit,
        // the first solve of a fresh compile of the patched netlist. MOSFET
        // constants kept past the Newton run that loaded them would solve
        // at the old values.
        let tech = Technology::predictive_70nm();
        let vin = 0.45;
        for patch_device in [false, true] {
            let (temp_k, dvt) = if patch_device {
                (300.0, 0.05)
            } else {
                (350.0, 0.0)
            };
            let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
            let input = tpl.vsource_slot("VIN").unwrap();
            tpl.set_vsource(input, vin).unwrap();
            tpl.solve().unwrap();
            if patch_device {
                let mn = tpl.mosfet_slot("MN").unwrap();
                let nmos = Mosfet::nmos(&tech, 140e-9, tech.lmin()).with_delta_vt(dvt);
                tpl.set_device(mn, nmos).unwrap();
            } else {
                tpl.set_temperature(temp_k);
            }
            tpl.invalidate_warm();
            let before = *tpl.stats();
            tpl.solve().unwrap();

            let ckt = inverter_at(temp_k, dvt);
            let mut fresh = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
            fresh.set_vsource(input, vin).unwrap();
            fresh.solve().unwrap();
            let bits = |t: &CircuitTemplate| -> Vec<u64> {
                t.state().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&tpl), bits(&fresh), "{temp_k} K, dvt {dvt}");
            assert_eq!(tpl.stats().delta_since(&before), *fresh.stats());
        }
    }

    #[test]
    fn patched_vsource_changes_solution() {
        let mut tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        let mid = tpl.node("mid").unwrap();
        let v1 = tpl.vsource_slot("V1").unwrap();
        tpl.solve().unwrap();
        assert!((tpl.voltage(mid) - 1.0).abs() < 1e-8);
        tpl.set_vsource(v1, 1.0).unwrap();
        tpl.solve().unwrap();
        assert!((tpl.voltage(mid) - 0.5).abs() < 1e-8);
        // The second solve must have been a warm hit.
        assert_eq!(tpl.stats().warm_attempts, 1);
        assert_eq!(tpl.stats().warm_hits, 1);
        assert_eq!(tpl.stats().solves, 2);
    }

    #[test]
    fn warm_sweep_tracks_cold_solutions() {
        let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
        // Reference: the same sweep solved cold at every point.
        let mut cold = tpl.clone();
        cold.set_warm_start(false);
        let out = tpl.node("out").unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        for i in 0..=20 {
            let v = i as f64 * 0.05;
            for t in [&mut tpl, &mut cold] {
                t.set_vsource(vin, v).unwrap();
                t.solve().unwrap();
            }
            assert!(
                (tpl.voltage(out) - cold.voltage(out)).abs() < 1e-6,
                "vin={v}: warm {} vs cold {}",
                tpl.voltage(out),
                cold.voltage(out)
            );
        }
        assert!(tpl.stats().warm_hit_rate() > 0.9);
        assert_eq!(cold.stats().warm_attempts, 0);
    }

    #[test]
    fn disabled_warm_start_counts_cold() {
        let mut tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        tpl.set_warm_start(false);
        tpl.solve().unwrap();
        tpl.solve().unwrap();
        assert_eq!(tpl.stats().warm_attempts, 0);
        assert_eq!(tpl.stats().cold_solves, 2);
    }

    #[test]
    fn solution_exports_branch_names() {
        let mut tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        tpl.solve().unwrap();
        let sol = tpl.solution();
        assert!(sol.branch_current("V1").is_some());
        assert_eq!(sol.voltage(tpl.node("mid").unwrap()), {
            let mid = tpl.node("mid").unwrap();
            tpl.voltage(mid)
        });
    }

    #[test]
    fn solve_trip_puts_the_output_at_the_level() {
        let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
        let (input, out) = (tpl.node("in").unwrap(), tpl.node("out").unwrap());
        let vin = tpl.vsource_slot("VIN").unwrap();
        for level in [0.2, 0.5, 0.8] {
            for warm in [false, true] {
                if !warm {
                    tpl.invalidate_warm();
                }
                let root = tpl.solve_trip(vin, out, level, 0.5).unwrap();
                assert!((0.0..1.0).contains(&root), "level {level}: root {root}");
                // The source now holds the root: a plain solve there reads
                // the root at the input and the level at the output.
                tpl.solve().unwrap();
                assert!((tpl.voltage(input) - root).abs() < 1e-12);
                let v = tpl.voltage(out);
                assert!((v - level).abs() < 1e-9, "level {level}, warm {warm}: {v}");
                // Cold, a plain solve stops anywhere within `current_tol`,
                // which resolves the output only to `current_tol / g_out`:
                // the reason the bordered solve converges further.
                tpl.invalidate_warm();
                tpl.solve().unwrap();
                let v = tpl.voltage(out);
                assert!((v - level).abs() < 1e-6, "level {level}, cold: {v}");
            }
        }
        assert!(tpl.stats().warm_hits > 0);
    }

    #[test]
    fn solve_trip_is_one_logical_solve_under_fault_injection() {
        let _l = crate::FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
        let out = tpl.node("out").unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        let clean = tpl.solve_trip(vin, out, 0.5, 0.5).unwrap();
        let mut injected = |depth: u32| {
            let _g = pvtm_telemetry::fault::force_depth(depth);
            let before = *tpl.stats();
            let result = tpl.solve_trip(vin, out, 0.5, 0.5);
            (result, tpl.stats().delta_since(&before))
        };
        // Depth 1 fails the warm attempt only; one arming means the cold
        // ladder's first strategy then runs for real.
        let (root, d) = injected(1);
        assert!((root.unwrap() - clean).abs() < 1e-9);
        assert_eq!((d.solves, d.warm_attempts, d.warm_hits), (1, 1, 0));
        assert_eq!(
            (d.cold_solves, d.damped_retries, d.rescue_attempts),
            (1, 0, 0)
        );
        // Depth 7 also fails the three cold strategies and the three
        // rescue rungs: the solve reports its failure and drops the seed.
        let (err, d) = injected(7);
        assert!(err.is_err());
        assert_eq!((d.solves, d.warm_attempts, d.cold_solves), (0, 1, 1));
        assert_eq!(
            (d.rescue_attempts, d.rescue_rungs, d.rescue_hits),
            (1, 3, 0)
        );
        let (root, d) = injected(0);
        assert!((root.unwrap() - clean).abs() < 1e-9);
        assert_eq!((d.solves, d.warm_attempts, d.cold_solves), (1, 0, 1));
    }

    #[test]
    fn solve_trip_rejects_a_ground_output() {
        let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        let err = tpl.solve_trip(vin, Netlist::GROUND, 0.5, 0.5).unwrap_err();
        assert!(matches!(err, CircuitError::SingularMatrix { .. }));
    }

    #[test]
    fn empty_netlist_rejected() {
        let err = CircuitTemplate::compile(Netlist::new(), DcOptions::default()).unwrap_err();
        assert_eq!(err, CircuitError::EmptyCircuit);
    }

    #[test]
    fn unknown_slots_are_none() {
        let tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        assert!(tpl.vsource_slot("nope").is_none());
        assert!(tpl.mosfet_slot("R1").is_none());
        assert!(tpl.vsource_slot("R1").is_none());
    }
}
