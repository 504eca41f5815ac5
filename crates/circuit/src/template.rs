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
//! - the Newton scratch buffers live in an embedded [`DcWorkspace`] and are
//!   reused across solves;
//! - each solve is seeded from the previous solution (warm start) and only
//!   falls back to Gmin continuation / source stepping on non-convergence,
//!   with hit rates tracked in [`SolverStats`].
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

use crate::dc::{self, DcOptions, DcSolution, DcWorkspace, SolverStats, System};
use crate::netlist::{CircuitError, Element, Netlist, NodeId};
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

/// A compiled circuit: fixed topology, patchable parameters, reusable
/// solver state. See the [module documentation](self) for the rationale.
#[derive(Debug, Clone)]
pub struct CircuitTemplate {
    netlist: Netlist,
    opts: DcOptions,
    num_free_nodes: usize,
    num_unknowns: usize,
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
        let sys = System::new(&netlist);
        if sys.num_unknowns == 0 {
            return Err(CircuitError::EmptyCircuit);
        }
        let num_free_nodes = sys.num_free_nodes;
        let num_unknowns = sys.num_unknowns;
        let branch_names = sys.branch_names();
        let state = vec![0.0; num_unknowns];
        Ok(Self {
            netlist,
            opts,
            num_free_nodes,
            num_unknowns,
            branch_names,
            ws: DcWorkspace::new(),
            state,
            have_warm: false,
            warm_start: true,
        })
    }

    /// The compiled netlist (read-only; parameters are patched via slots).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
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

    /// Current value of a voltage source \[V\].
    ///
    /// # Errors
    ///
    /// [`CircuitError::SlotMismatch`] when the slot was minted by a
    /// template of a different shape.
    pub fn vsource_value(&self, slot: VsourceSlot) -> Result<f64, CircuitError> {
        match &self.netlist.elements()[slot.elem].1 {
            Element::Vsource { volts, .. } => Ok(*volts),
            _ => Err(CircuitError::SlotMismatch {
                expected: "vsource",
                elem: slot.elem,
            }),
        }
    }

    /// Patches a MOSFET's threshold deviation \[V\] in place.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SlotMismatch`] when the slot was minted by a
    /// template of a different shape.
    pub fn set_delta_vt(&mut self, slot: MosfetSlot, delta_vt: f64) -> Result<(), CircuitError> {
        match self.netlist.element_mut(slot.elem) {
            Element::Mosfet { device, .. } => {
                device.set_delta_vt(delta_vt);
                Ok(())
            }
            _ => Err(CircuitError::SlotMismatch {
                expected: "mosfet",
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
    /// starts off every solve runs the full cold strategy — bit-identical
    /// to [`dc::solve`] on an equivalent netlist.
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
    /// to the full cold strategy (Gmin continuation → damped retry → source
    /// ramp) on non-convergence. Results are read back through
    /// [`Self::voltage`] / [`Self::branch_current`] without allocating.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoConvergence`] / [`CircuitError::SingularMatrix`]
    /// when every strategy fails; the warm seed is dropped so the next
    /// solve starts cold.
    pub fn solve(&mut self) -> Result<(), CircuitError> {
        let _span = pvtm_telemetry::span("dc.solve");
        let before = self.ws.stats;
        let result = self.solve_inner();
        if pvtm_telemetry::is_enabled() {
            pvtm_telemetry::record_solver(&self.ws.stats.delta_since(&before));
        }
        result
    }

    fn solve_inner(&mut self) -> Result<(), CircuitError> {
        let sys = System::new(&self.netlist);
        debug_assert_eq!(sys.num_unknowns, self.num_unknowns);
        pvtm_telemetry::fault::next_solve();
        if self.warm_start && self.have_warm {
            self.ws.stats.warm_attempts += 1;
            if !pvtm_telemetry::fault::trip()
                && sys
                    .newton(
                        &mut self.state,
                        self.opts.gmin_final,
                        1.0,
                        None,
                        &self.opts,
                        &mut self.ws,
                    )
                    .is_ok()
            {
                self.ws.stats.warm_hits += 1;
                self.ws.stats.solves += 1;
                return Ok(());
            }
        }
        dc::init_state(&mut self.state, &self.opts);
        match dc::cold_solve(&sys, &mut self.state, &self.opts, &mut self.ws) {
            Ok(()) => {
                self.ws.stats.solves += 1;
                self.have_warm = true;
                Ok(())
            }
            Err(e) => {
                self.have_warm = false;
                Err(e)
            }
        }
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
        self.ws.reset_stats();
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
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
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
            Mosfet::nmos(&tech, 140e-9, tech.lmin()),
        );
        ckt
    }

    #[test]
    fn template_matches_plain_solve() {
        let ckt = divider();
        let plain = ckt.solve_dc().unwrap();
        let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
        let mid = tpl.node("mid").unwrap();
        tpl.solve().unwrap();
        assert_eq!(tpl.voltage(mid), plain.voltage(mid));
        let v1 = tpl.vsource_slot("V1").unwrap();
        assert_eq!(tpl.branch_current(v1), plain.branch_current("V1").unwrap());
    }

    #[test]
    fn patched_vsource_changes_solution() {
        let mut tpl = CircuitTemplate::compile(divider(), DcOptions::default()).unwrap();
        let mid = tpl.node("mid").unwrap();
        let v1 = tpl.vsource_slot("V1").unwrap();
        tpl.solve().unwrap();
        assert!((tpl.voltage(mid) - 1.0).abs() < 1e-8);
        tpl.set_vsource(v1, 1.0).unwrap();
        assert_eq!(tpl.vsource_value(v1).unwrap(), 1.0);
        tpl.solve().unwrap();
        assert!((tpl.voltage(mid) - 0.5).abs() < 1e-8);
        // The second solve must have been a warm hit.
        assert_eq!(tpl.stats().warm_attempts, 1);
        assert_eq!(tpl.stats().warm_hits, 1);
        assert_eq!(tpl.stats().solves, 2);
    }

    #[test]
    fn warm_sweep_tracks_cold_solutions() {
        let opts = DcOptions::default();
        let mut tpl = CircuitTemplate::compile(inverter(), opts.clone()).unwrap();
        let out = tpl.node("out").unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        for i in 0..=20 {
            let v = i as f64 * 0.05;
            tpl.set_vsource(vin, v).unwrap();
            tpl.solve().unwrap();
            // Reference: fresh cold solve of an equivalent netlist.
            let mut cold = inverter();
            cold.set_vsource("VIN", v).unwrap();
            let sol = dc::solve(&cold, &opts).unwrap();
            assert!(
                (tpl.voltage(out) - sol.voltage(out)).abs() < 1e-6,
                "vin={v}: warm {} vs cold {}",
                tpl.voltage(out),
                sol.voltage(out)
            );
        }
        assert!(tpl.stats().warm_hit_rate() > 0.9);
    }

    #[test]
    fn delta_vt_patch_shifts_trip() {
        let mut tpl = CircuitTemplate::compile(inverter(), DcOptions::default()).unwrap();
        let out = tpl.node("out").unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        let mn = tpl.mosfet_slot("MN").unwrap();
        tpl.set_vsource(vin, 0.45).unwrap();
        tpl.solve().unwrap();
        let base = tpl.voltage(out);
        // A stronger (lower-Vt) NMOS pulls the output lower at the same vin.
        tpl.set_delta_vt(mn, -0.05).unwrap();
        tpl.solve().unwrap();
        assert!(tpl.voltage(out) < base, "{} !< {base}", tpl.voltage(out));
        tpl.set_delta_vt(mn, 0.0).unwrap();
        tpl.solve().unwrap();
        assert!((tpl.voltage(out) - base).abs() < 1e-6);
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
