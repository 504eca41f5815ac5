//! DC operating-point solver: damped Newton–Raphson on a ladder of Gmin
//! continuations and source ramps.
//!
//! This module holds the solver's parts: the options a caller sets, the
//! MNA assembler, the Newton loop and the cold ladder, one table of six
//! rungs (`LADDER`) walked by one loop (`cold_solve`). Every DC solve
//! runs them through [`crate::template::CircuitTemplate`]: it owns the
//! scratch buffers and the warm start, arms fault injection once per
//! solve and reports every solve to telemetry. [`Netlist::solve_dc`] is
//! one cold template solve.

use std::sync::Arc;

use crate::linalg::Matrix;
use crate::netlist::{CircuitError, Element, Netlist, NodeId};
use pvtm_device::{Bias, MosfetAt};
use pvtm_telemetry::fault;
use pvtm_telemetry::json::Value;
use pvtm_telemetry::SolverStats;

/// What a caller sets for the cold ladder: where its Gmin continuations
/// start and from which node voltages. Newton's limits, the KCL tolerance
/// (1e-10 A) and the final Gmin (1e-12 S) are the solver's own.
#[derive(Debug, Clone)]
pub struct DcOptions {
    /// Starting Gmin of every continuation \[S\].
    pub gmin_start: f64,
    /// Initial node-voltage guesses; unspecified nodes start at 0 V.
    pub initial: Vec<(NodeId, f64)>,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            gmin_start: 1e-3,
            initial: Vec::new(),
        }
    }
}

impl DcOptions {
    /// Adds an initial guess for one node.
    pub fn guess(mut self, node: NodeId, volts: f64) -> Self {
        self.initial.push((node, volts));
        self
    }

    /// Overwrites the guess for `node` in place (adds it if absent) —
    /// the allocation-free counterpart of [`DcOptions::guess`] for
    /// templates that update guesses every solve.
    pub fn set_guess(&mut self, node: NodeId, volts: f64) {
        for (n, v) in &mut self.initial {
            if *n == node {
                *v = volts;
                return;
            }
        }
        self.initial.push((node, volts));
    }
}

/// KCL residual tolerance of every solve \[A\]; the voltage-source rows
/// \[V\] are held to it too.
pub(crate) const CURRENT_TOL: f64 = 1e-10;

/// The Gmin a continuation ends at and warm and transient Newton run at
/// \[S\]; it keeps floating nodes pinned.
pub(crate) const GMIN_FINAL: f64 = 1e-12;

/// How far one Newton run may go.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Largest node-voltage update applied per iteration \[V\] (damping).
    pub(crate) max_step: f64,
    /// Iterations before the run reports `NoConvergence`.
    pub(crate) max_iterations: usize,
    /// Residual norm the run converges to.
    pub(crate) tol: f64,
}

/// Full Newton steps: warm starts, transient steps and the first rung.
pub(crate) const NORMAL: Limits = Limits {
    max_step: 0.3,
    max_iterations: 120,
    tol: CURRENT_TOL,
};

/// Small steps ride out fold regions where full Newton oscillates (e.g.
/// a cell losing bistability).
const DAMPED: Limits = Limits {
    max_step: 0.05,
    max_iterations: 400,
    ..NORMAL
};

/// Slow, but monotone enough to creep along a fold.
const DEEP: Limits = Limits {
    max_step: 0.01,
    max_iterations: 1_000,
    ..NORMAL
};

/// Reusable scratch buffers for Newton iterations.
///
/// Holding one of these across solves removes every per-solve heap
/// allocation from the Newton loop: the Jacobian, residual, update and
/// line-search backup vectors are sized once and reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct DcWorkspace {
    jac: Matrix,
    res: Vec<f64>,
    rhs: Vec<f64>,
    x_old: Vec<f64>,
    /// Each MOSFET of the system Newton runs on, in netlist order.
    mos: Vec<MosfetEval>,
    /// Counters accumulated by every solve run through this workspace.
    pub(crate) stats: SolverStats,
}

impl DcWorkspace {
    /// Resizes the scratch buffers for a system of `n` unknowns.
    fn ensure(&mut self, n: usize) {
        if self.jac.n() != n {
            self.jac = Matrix::zeros(n);
            self.res = vec![0.0; n];
            self.rhs = vec![0.0; n];
            self.x_old = vec![0.0; n];
        }
    }
}

/// One MOSFET within a Newton run: its model constants at the netlist's
/// temperature, filled at the start of the run ([`System::load_mosfets`]),
/// since the devices and the temperature cannot change within it, and its
/// drain current at the state of the last residual pass, where the
/// Jacobian pass differences from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosfetEval {
    at: MosfetAt,
    id: f64,
}

/// A converged DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    pub(crate) state: Vec<f64>,
    pub(crate) num_free_nodes: usize,
    branch_names: Arc<[String]>,
}

impl DcSolution {
    pub(crate) fn new(state: Vec<f64>, num_free_nodes: usize, branch_names: Arc<[String]>) -> Self {
        Self {
            state,
            num_free_nodes,
            branch_names,
        }
    }

    /// Voltage of a node \[V\]. Ground reads 0.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.state[node.index() - 1]
        }
    }

    /// Branch current of a named voltage source \[A\], positive when the
    /// source delivers current out of its positive terminal.
    pub fn branch_current(&self, source_name: &str) -> Option<f64> {
        self.branch_names
            .iter()
            .position(|n| n == source_name)
            .map(|i| self.state[self.num_free_nodes + i])
    }

    /// Full solver state (node voltages then branch currents), usable as a
    /// transient initial condition
    /// ([`TransientOptions::with_initial_state`](crate::TransientOptions::with_initial_state)).
    pub fn state(&self) -> &[f64] {
        &self.state
    }
}

/// Shared equation assembler for DC and transient analyses.
///
/// Construction is allocation-free: voltage-source branch rows are laid out
/// sequentially after the free nodes, so only a count is needed.
///
/// Assembly runs in two passes over the elements: [`Self::residual`] at
/// every point Newton evaluates, and [`Self::jacobian`] only at the points
/// it factorizes, so a line-search trial that Newton rejects costs no
/// Jacobian. A [bordered](Self::bordered) system overwrites one branch
/// row after each pass; an unbordered one assembles as if the border did
/// not exist.
pub(crate) struct System<'a> {
    netlist: &'a Netlist,
    pins: &'a Pins,
    pub(crate) num_free_nodes: usize,
    pub(crate) num_unknowns: usize,
    num_mosfets: usize,
    border: Option<Border>,
}

/// The free nodes a grounded voltage source holds, from the topology:
/// for each free node, the branch row of the source whose constraint
/// pins it, where [`System::jacobian`] may leave out the node's MOSFET
/// entries. Built once per topology (a template's compile, a transient
/// run), so a solve allocates nothing for it.
///
/// The skip is exact only while the constraint row is the pivot of the
/// node's column, so no other entry of that column may reach the unit
/// pivot. The entries left in it are the Gmin diagonal (at most 1e-3 S,
/// the default start of a cold ladder and the largest any caller sets)
/// and MOSFET conductances (below 1e-2 S for the devices of this
/// workspace). A resistor's or companion capacitor's conductance has no
/// such bound, and a second source on the node puts a second ±1 in the
/// column, so a node with any of those stamps is not pinned.
#[derive(Debug, Clone)]
pub(crate) struct Pins {
    rows: Vec<Option<usize>>,
}

impl Pins {
    pub(crate) fn of(netlist: &Netlist) -> Self {
        let num_free_nodes = netlist.num_nodes() - 1;
        let mut rows = vec![None; num_free_nodes];
        // Voltage-source, resistor and capacitor stamps on each free node.
        let mut stamps = vec![0u32; num_free_nodes];
        let mut row = num_free_nodes;
        for (_, el) in netlist.elements() {
            let (a, b) = match *el {
                Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => (a, b),
                Element::Vsource { pos, neg, .. } => {
                    // A source to ground puts a lone ±1 in its other
                    // terminal's column.
                    if pos.is_ground() != neg.is_ground() {
                        let held = if pos.is_ground() { neg } else { pos };
                        rows[held.index() - 1] = Some(row);
                    }
                    row += 1;
                    (pos, neg)
                }
                Element::Isource { .. } | Element::Mosfet { .. } => continue,
            };
            for n in [a, b] {
                if !n.is_ground() {
                    stamps[n.index() - 1] += 1;
                }
            }
        }
        // A node is pinned when its grounded source is its only such stamp.
        for (r, k) in rows.iter_mut().zip(stamps) {
            if k != 1 {
                *r = None;
            }
        }
        Self { rows }
    }
}

/// The row a bordered system swaps in: one voltage source's branch row
/// holds `x[out] − level = 0` instead of the source's constraint, so the
/// source's value (the voltage across it) is solved for rather than given.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Border {
    /// The voltage source's branch row.
    pub(crate) row: usize,
    /// State index of the node the row pins.
    pub(crate) out: usize,
    /// The voltage the row pins that node to \[V\].
    pub(crate) level: f64,
}

/// Backward-Euler companion data for transient steps.
pub(crate) struct Companion<'a> {
    /// Time step \[s\].
    pub dt: f64,
    /// Solver state at the previous time point.
    pub prev: &'a [f64],
}

impl<'a> System<'a> {
    /// The system of `netlist`, whose pinned nodes `pins` holds
    /// ([`Pins::of`] the same netlist).
    pub(crate) fn new(netlist: &'a Netlist, pins: &'a Pins) -> Self {
        let num_free_nodes = netlist.num_nodes() - 1;
        let (mut num_vsources, mut num_mosfets) = (0, 0);
        for (_, e) in netlist.elements() {
            match e {
                Element::Vsource { .. } => num_vsources += 1,
                Element::Mosfet { .. } => num_mosfets += 1,
                _ => {}
            }
        }
        debug_assert_eq!(pins.rows.len(), num_free_nodes);
        Self {
            netlist,
            pins,
            num_free_nodes,
            num_unknowns: num_free_nodes + num_vsources,
            num_mosfets,
            border: None,
        }
    }

    /// The same system with `border` in place of its source's constraint
    /// row. The matrix keeps its size: the source's branch current stays
    /// an unknown, and its value is read back as the voltage across it.
    pub(crate) fn bordered(self, border: Border) -> Self {
        debug_assert!(border.row >= self.num_free_nodes && border.row < self.num_unknowns);
        debug_assert!(border.out < self.num_free_nodes);
        Self {
            border: Some(border),
            ..self
        }
    }

    pub(crate) fn branch_names(&self) -> Arc<[String]> {
        self.netlist
            .elements()
            .iter()
            .filter(|(_, e)| matches!(e, Element::Vsource { .. }))
            .map(|(n, _)| n.clone())
            .collect()
    }

    #[inline]
    fn v(&self, x: &[f64], node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            x[node.index() - 1]
        }
    }

    /// Adds `current` flowing *into* `node` to the residual.
    #[inline]
    fn kcl(res: &mut [f64], node: NodeId, current: f64) {
        if !node.is_ground() {
            res[node.index() - 1] += current;
        }
    }

    #[inline]
    fn jac_add(jac: &mut Matrix, row_node: NodeId, col: usize, v: f64) {
        if !row_node.is_ground() {
            jac.add(row_node.index() - 1, col, v);
        }
    }

    /// Fills `mos` with the model constants of each MOSFET (netlist order)
    /// at the netlist's temperature, for the passes of one Newton run.
    pub(crate) fn load_mosfets(&self, mos: &mut Vec<MosfetEval>) {
        let temp = self.netlist.temperature();
        mos.clear();
        mos.extend(self.netlist.elements().iter().filter_map(|(_, e)| match e {
            Element::Mosfet { device, .. } => Some(MosfetEval {
                at: device.at(temp),
                id: 0.0,
            }),
            _ => None,
        }));
    }

    /// Assembles the residual `f(x)` at state `x` from the MOSFET constants
    /// in `mos` ([`Self::load_mosfets`]), keeping each MOSFET's drain
    /// current there for a [`Self::jacobian`] pass at the same `x`.
    ///
    /// `gmin` adds a conductance from every free node to ground.
    /// `vsource_scale` multiplies every voltage-source value (the
    /// source-stepping knob; 1.0 for a normal solve). When `companion` is
    /// provided, capacitors are stamped with their backward-Euler companion
    /// model; otherwise they are open circuits.
    pub(crate) fn residual(
        &self,
        x: &[f64],
        gmin: f64,
        vsource_scale: f64,
        companion: Option<&Companion<'_>>,
        res: &mut [f64],
        mos: &mut [MosfetEval],
    ) {
        debug_assert_eq!(x.len(), self.num_unknowns);
        debug_assert_eq!(mos.len(), self.num_mosfets);
        res.fill(0.0);

        // Gmin to ground on every free node.
        for i in 0..self.num_free_nodes {
            res[i] += -gmin * x[i];
        }

        let mut vsrc_idx = 0usize;
        let mut mos_idx = 0usize;
        for (_, el) in self.netlist.elements() {
            match el {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i_ab = (self.v(x, *a) - self.v(x, *b)) * g;
                    Self::kcl(res, *a, -i_ab);
                    Self::kcl(res, *b, i_ab);
                }
                Element::Capacitor { a, b, farads } => {
                    if let Some(c) = companion {
                        // i = C/dt · (v_ab - v_ab_prev), flowing a → b.
                        let g = farads / c.dt;
                        let vab = self.v(x, *a) - self.v(x, *b);
                        let vab_prev = self.v(c.prev, *a) - self.v(c.prev, *b);
                        let i_ab = g * (vab - vab_prev);
                        Self::kcl(res, *a, -i_ab);
                        Self::kcl(res, *b, i_ab);
                    }
                }
                Element::Vsource { pos, neg, volts } => {
                    // Branch rows are laid out sequentially after the free
                    // nodes, in element order.
                    let row = self.num_free_nodes + vsrc_idx;
                    let i_branch = x[row];
                    vsrc_idx += 1;
                    // The source delivers i_branch into `pos`.
                    Self::kcl(res, *pos, i_branch);
                    Self::kcl(res, *neg, -i_branch);
                    // Constraint: v(pos) - v(neg) - scale·V = 0.
                    res[row] = self.v(x, *pos) - self.v(x, *neg) - volts * vsource_scale;
                }
                Element::Isource { from, to, amps } => {
                    Self::kcl(res, *from, -amps);
                    Self::kcl(res, *to, *amps);
                }
                Element::Mosfet { d, g, s, b, .. } => {
                    let bias =
                        Bias::new(self.v(x, *g), self.v(x, *d), self.v(x, *s), self.v(x, *b));
                    let m = &mut mos[mos_idx];
                    let id = m.at.ids(bias);
                    m.id = id;
                    mos_idx += 1;
                    // The channel draws `id` out of the drain node and
                    // returns it at the source node.
                    Self::kcl(res, *d, -id);
                    Self::kcl(res, *s, id);
                }
            }
        }
        if let Some(b) = self.border {
            res[b.row] = x[b.out] - b.level;
        }
    }

    /// Assembles the Jacobian `df/dx` at the state `x` of the last
    /// [`Self::residual`] pass, whose residual is `res` and whose drain
    /// currents in `mos` anchor the MOSFETs' forward differences.
    /// Companion capacitors need only `dt`.
    ///
    /// Entries accumulate in a fixed order, the Gmin diagonal first and
    /// then the elements in netlist order, so every entry is the same sum
    /// of the same terms at every call.
    ///
    /// A MOSFET terminal on a node whose column [`Self::skips`] gets no
    /// forward difference: the node is pinned by a source ([`Pins`]) whose
    /// constraint holds exactly at `x`, so its column keeps only the Gmin
    /// diagonal and the constraint's ±1. That ±1 is the column's pivot, the
    /// only nonzero of its row, and its right-hand side is ∓0, so the LU
    /// eliminates the column by subtracting `factor · ∓0` from the other
    /// rows' right-hand sides, and the left-out entries could change no
    /// step but in the sign of a zero. Where the constraint does not hold
    /// (a source just patched, a ramp step) the column is complete.
    pub(crate) fn jacobian(
        &self,
        x: &[f64],
        res: &[f64],
        gmin: f64,
        companion: Option<&Companion<'_>>,
        mos: &[MosfetEval],
        jac: &mut Matrix,
    ) {
        debug_assert_eq!(x.len(), self.num_unknowns);
        debug_assert_eq!(mos.len(), self.num_mosfets);
        jac.clear();

        for i in 0..self.num_free_nodes {
            jac.add(i, i, -gmin);
        }

        let mut vsrc_idx = 0usize;
        let mut mos_idx = 0usize;
        for (_, el) in self.netlist.elements() {
            match el {
                Element::Resistor { a, b, ohms } => {
                    self.stamp_conductance(jac, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads } => {
                    if let Some(c) = companion {
                        self.stamp_conductance(jac, *a, *b, farads / c.dt);
                    }
                }
                Element::Vsource { pos, neg, .. } => {
                    let row = self.num_free_nodes + vsrc_idx;
                    vsrc_idx += 1;
                    Self::jac_add(jac, *pos, row, 1.0);
                    Self::jac_add(jac, *neg, row, -1.0);
                    if !pos.is_ground() {
                        jac.add(row, pos.index() - 1, 1.0);
                    }
                    if !neg.is_ground() {
                        jac.add(row, neg.index() - 1, -1.0);
                    }
                }
                Element::Isource { .. } => {}
                Element::Mosfet { d, g, s, b, .. } => {
                    let MosfetEval { at, id } = mos[mos_idx];
                    let bias =
                        Bias::new(self.v(x, *g), self.v(x, *d), self.v(x, *s), self.v(x, *b));
                    mos_idx += 1;

                    // Numeric partial derivatives wrt each terminal.
                    const DV: f64 = 1e-6;
                    let terminals = [(*g, 0), (*d, 1), (*s, 2), (*b, 3)];
                    for (node, which) in terminals {
                        if node.is_ground() {
                            continue;
                        }
                        let col = node.index() - 1;
                        if self.skips(res, col) {
                            continue;
                        }
                        let mut pb = bias;
                        match which {
                            0 => pb.vg += DV,
                            1 => pb.vd += DV,
                            2 => pb.vs += DV,
                            _ => pb.vb += DV,
                        }
                        let did = (at.ids(pb) - id) / DV;
                        Self::jac_add(jac, *d, col, -did);
                        Self::jac_add(jac, *s, col, did);
                    }
                }
            }
        }
        if let Some(b) = self.border {
            for col in 0..self.num_unknowns {
                jac.set(b.row, col, 0.0);
            }
            jac.set(b.row, b.out, 1.0);
        }
    }

    /// Whether [`Self::jacobian`] leaves the MOSFET entries out of column
    /// `col` at a state whose residual is `res`: a source pins the node
    /// ([`Pins`]), its row is not the border (which no longer holds the
    /// node), and its constraint holds exactly.
    fn skips(&self, res: &[f64], col: usize) -> bool {
        self.pins.rows[col].is_some_and(|row| {
            // pvtm-lint: allow(no-float-eq) only an exactly met constraint gives the pivot row a zero right-hand side
            res[row] == 0.0 && self.border.is_none_or(|b| b.row != row)
        })
    }

    /// Stamps a linear conductance between `a` and `b` into the Jacobian
    /// (contribution of current flowing a → b to the KCL rows).
    fn stamp_conductance(&self, jac: &mut Matrix, a: NodeId, b: NodeId, g: f64) {
        if !a.is_ground() {
            let ia = a.index() - 1;
            jac.add(ia, ia, -g);
            if !b.is_ground() {
                jac.add(ia, b.index() - 1, g);
            }
        }
        if !b.is_ground() {
            let ib = b.index() - 1;
            jac.add(ib, ib, -g);
            if !a.is_ground() {
                jac.add(ib, a.index() - 1, g);
            }
        }
    }

    /// Infinity norm of the residual over all rows (the convergence
    /// metric): the KCL rows \[A\] and the voltage-source constraint rows
    /// \[V\] alike, both held to the same tolerance. The constraint rows are
    /// linear, so every undamped Newton step satisfies them to rounding.
    pub(crate) fn kcl_norm(&self, res: &[f64]) -> f64 {
        res.iter().fold(0.0f64, |m, r| m.max(r.abs()))
    }

    /// Runs damped Newton at a fixed Gmin from the given state within
    /// `limits`, using the workspace's scratch buffers. The MOSFET
    /// constants are loaded once, at the start of the run.
    ///
    /// Each iteration factorizes [`Self::jacobian`] at the current state,
    /// which leaves out the MOSFET entries of the columns whose pinning
    /// constraint holds there. Those entries could change a component of
    /// the step only in the sign of a zero, and `x + 0.0` and `x + (−0.0)`
    /// have the same bits for every `x` but −0.0, which no update creates
    /// (a sum is −0.0 only when both terms are). So from a state without
    /// −0.0 every iterate is the one the complete Jacobian gives, bit for
    /// bit.
    ///
    /// Returns the residual norm achieved; the state is updated in place.
    pub(crate) fn newton(
        &self,
        x: &mut [f64],
        gmin: f64,
        vsource_scale: f64,
        companion: Option<&Companion<'_>>,
        limits: &Limits,
        ws: &mut DcWorkspace,
    ) -> Result<f64, CircuitError> {
        let n = self.num_unknowns;
        ws.ensure(n);
        self.load_mosfets(&mut ws.mos);
        let DcWorkspace {
            jac,
            res,
            rhs,
            x_old,
            mos,
            stats,
        } = ws;

        self.residual(x, gmin, vsource_scale, companion, res, mos);
        let mut norm = self.kcl_norm(res);
        debug_assert!(
            norm.is_finite(),
            "non-finite initial residual norm {norm}: a device stamp produced NaN/Inf"
        );

        for iter in 0..limits.max_iterations {
            if norm < limits.tol {
                return Ok(norm);
            }
            stats.newton_iterations += 1;
            stats.lu_factorizations += 1;
            // Solve J Δx = -f, with J taken where `res` was: at `x`.
            self.jacobian(x, res, gmin, companion, mos, jac);
            for i in 0..n {
                rhs[i] = -res[i];
            }
            jac.solve_in_place(rhs)
                .map_err(|e| CircuitError::SingularMatrix { column: e.column })?;
            debug_assert!(
                rhs.iter().all(|dv| dv.is_finite()),
                "non-finite Newton update at iteration {iter}: the Jacobian solve returned \
                 NaN/Inf instead of converging to garbage silently"
            );

            // Damp node-voltage updates.
            let mut scale = 1.0f64;
            for dv in rhs.iter().take(self.num_free_nodes) {
                if dv.abs() * scale > limits.max_step {
                    scale = limits.max_step / dv.abs();
                }
            }

            // Line search: halve the step until the residual improves (or
            // accept the last halving).
            let mut step = scale;
            let mut accepted = false;
            x_old.copy_from_slice(x);
            for _ in 0..8 {
                for i in 0..n {
                    x[i] = x_old[i] + step * rhs[i];
                }
                // Keep node voltages in a physical window.
                for xi in x.iter_mut().take(self.num_free_nodes) {
                    *xi = xi.clamp(-10.0, 10.0);
                }
                self.residual(x, gmin, vsource_scale, companion, res, mos);
                let new_norm = self.kcl_norm(res);
                if new_norm < norm || new_norm < limits.tol {
                    norm = new_norm;
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                // Accept the smallest step anyway; Newton often recovers.
                norm = self.kcl_norm(res);
            }
            let _ = iter;
        }
        if norm < limits.tol {
            Ok(norm)
        } else {
            Err(CircuitError::NoConvergence {
                residual: norm,
                iterations: limits.max_iterations,
            })
        }
    }
}

/// One rung of the cold ladder: a Gmin continuation from
/// [`DcOptions::gmin_start`] down to [`GMIN_FINAL`], each step `gmin_factor`
/// times the last, run at each source scale `k / ramp` for `k = 1..=ramp`
/// (a ramp of one is the plain circuit) under the Newton limits `newton`.
struct Rung {
    gmin_factor: f64,
    ramp: u32,
    newton: Limits,
    /// Counts the rung's entry.
    enter: fn(&mut SolverStats),
}

/// The cold ladder, rung by rung in the depth order fault injection
/// counts. The first three rungs (Gmin continuation, the damped retry, the
/// source ramp 25 % → 100 %) converge everything the figures normally ask
/// for. Monte-Carlo tails sample cells near the edge of bistability, where
/// the retention point is a near-fold of the DC equations and all three
/// can fail. The last three, the rescue rungs, are tried before such a
/// sample is declared unsolvable (and quarantined by the estimators):
/// decade Gmin steps halve the jump each Newton stage absorbs, a wide ramp
/// starts at 12.5 % of the sources where almost any circuit is solvable,
/// and deep damping creeps along a fold.
#[rustfmt::skip]
const LADDER: [Rung; 6] = [
    Rung { gmin_factor: 1e-2, ramp: 1, newton: NORMAL, enter: |s| s.cold_solves += 1 },
    Rung { gmin_factor: 1e-2, ramp: 1, newton: DAMPED, enter: |s| s.damped_retries += 1 },
    Rung { gmin_factor: 1e-2, ramp: 4, newton: DAMPED, enter: |s| s.source_ramps += 1 },
    Rung { gmin_factor: 1e-1, ramp: 1, newton: NORMAL, enter: |s| {
        s.rescue_attempts += 1;
        s.rescue_rungs += 1;
    } },
    Rung { gmin_factor: 1e-2, ramp: 8, newton: DAMPED, enter: |s| s.rescue_rungs += 1 },
    Rung { gmin_factor: 1e-1, ramp: 1, newton: DEEP, enter: |s| s.rescue_rungs += 1 },
];

/// Index of the first rescue rung in [`LADDER`].
const RESCUE: usize = 3;

impl Rung {
    fn run(
        &self,
        sys: &System<'_>,
        x: &mut [f64],
        gmin_start: f64,
        ws: &mut DcWorkspace,
    ) -> Result<(), CircuitError> {
        for k in 1..=self.ramp {
            if self.ramp > 1 {
                ws.stats.ramp_steps += 1;
            }
            let scale = f64::from(k) / f64::from(self.ramp);
            let mut gmin = gmin_start;
            loop {
                ws.stats.gmin_steps += 1;
                sys.newton(x, gmin, scale, None, &self.newton, ws)?;
                if gmin <= GMIN_FINAL {
                    break;
                }
                gmin = (gmin * self.gmin_factor).max(GMIN_FINAL);
            }
        }
        Ok(())
    }
}

/// Climbs the cold ladder until a rung converges. Each rung starts from
/// the options' guesses and is one fault-injection entry: when
/// [`fault::trip`] fires the rung fails without running. A solve that
/// reaches the rescue rungs counts a hit if one converges and journals a
/// `solver.rescue` event.
///
/// # Errors
///
/// The last rung's [`CircuitError`] when every rung fails: the sample is
/// then unsolvable and the caller should quarantine it.
pub(crate) fn cold_solve(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    let mut result = Ok(());
    let mut rungs = 0;
    for rung in &LADDER {
        (rung.enter)(&mut ws.stats);
        rungs += 1;
        init_state(x, opts);
        result = if fault::trip() {
            // The infinite residual marks the failure as injected.
            Err(CircuitError::NoConvergence {
                residual: f64::INFINITY,
                iterations: 0,
            })
        } else {
            rung.run(sys, x, opts.gmin_start, ws)
        };
        if result.is_ok() {
            break;
        }
    }
    if rungs > RESCUE {
        let hit = result.is_ok();
        ws.stats.rescue_hits += u64::from(hit);
        journal_rescue((rungs - RESCUE) as u64, hit);
    }
    result
}

/// Journals one climb through the rescue rungs. The armed
/// fault/quarantine stream is the sample's replay key; outside an
/// estimator (no stream armed) a sentinel keeps the event keyed
/// deterministically.
fn journal_rescue(rungs: u64, hit: bool) {
    let stream = fault::current_stream();
    pvtm_telemetry::events::emit(
        "solver.rescue",
        stream.unwrap_or(u64::MAX),
        rungs,
        vec![
            (
                "stream",
                stream.map_or(Value::Null, |s| Value::Num(s as f64)),
            ),
            ("rungs", Value::Num(rungs as f64)),
            ("hit", Value::Bool(hit)),
        ],
    );
}

/// Per-element currents at a converged operating point \[A\] — the
/// operating-point report of a classic SPICE `.op` card.
///
/// Element names are borrowed from the netlist (nothing is cloned).
///
/// Conventions: resistors report the current flowing `a → b`; voltage
/// sources report their branch current (positive = delivering out of the
/// positive terminal); current sources report their programmed value;
/// MOSFETs report the drain current; capacitors carry no DC current.
pub fn operating_point<'a>(netlist: &'a Netlist, sol: &DcSolution) -> Vec<(&'a str, f64)> {
    let v = |n: NodeId| sol.voltage(n);
    netlist
        .elements()
        .iter()
        .map(|(name, el)| {
            let i = match el {
                Element::Resistor { a, b, ohms } => (v(*a) - v(*b)) / ohms,
                Element::Capacitor { .. } => 0.0,
                Element::Vsource { .. } => sol.branch_current(name).unwrap_or(0.0),
                Element::Isource { amps, .. } => *amps,
                Element::Mosfet { d, g, s, b, device } => {
                    device.ids(Bias::new(v(*g), v(*d), v(*s), v(*b)), netlist.temperature())
                }
            };
            (name.as_str(), i)
        })
        .collect()
}

/// Zeroes the state and applies the initial guesses from the options.
fn init_state(x: &mut [f64], opts: &DcOptions) {
    x.fill(0.0);
    for &(node, v) in &opts.initial {
        if !node.is_ground() {
            x[node.index() - 1] = v;
        }
    }
}

#[cfg(test)]
#[path = "tests/kernel_oracle.rs"]
mod kernel_oracle;

#[cfg(test)]
#[path = "tests/ladder_oracle.rs"]
mod ladder_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::CircuitTemplate;
    use pvtm_device::{Mosfet, Technology};

    /// 2 V across 3 kΩ over 1 kΩ.
    fn divider(volts: f64) -> Netlist {
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, volts);
        ckt.resistor("R1", top, mid, 3e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
        ckt
    }

    /// A CMOS inverter driven by `VIN`; returns the netlist and its output.
    fn inverter(vin: f64) -> (Netlist, NodeId) {
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        ckt.vsource("VIN", input, Netlist::GROUND, vin);
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
        (ckt, out)
    }

    /// The inverter at 0 V in, compiled with default options.
    pub(super) fn inverter_template() -> (CircuitTemplate, NodeId) {
        let (ckt, out) = inverter(0.0);
        let tpl = CircuitTemplate::compile(ckt, DcOptions::default()).expect("non-empty");
        (tpl, out)
    }

    /// A resistor-loaded NMOS pull-down.
    fn loaded_nmos() -> (Netlist, NodeId) {
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        ckt.resistor("RL", vdd, out, 50e3);
        ckt.mosfet(
            "MN",
            out,
            vdd,
            Netlist::GROUND,
            Netlist::GROUND,
            Mosfet::nmos(&tech, 200e-9, tech.lmin()),
        );
        (ckt, out)
    }

    #[test]
    fn resistive_divider() {
        let ckt = divider(2.0);
        let (top, mid) = (ckt.find_node("top").unwrap(), ckt.find_node("mid").unwrap());
        let sol = ckt.solve_dc().unwrap();
        assert!((sol.voltage(mid) - 0.5).abs() < 1e-8);
        assert!((sol.voltage(top) - 2.0).abs() < 1e-12);
        // Source delivers 0.5 mA.
        let i = sol.branch_current("V1").unwrap();
        assert!((i - 0.5e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Netlist::new();
        let a = ckt.node("a");
        ckt.isource("I1", Netlist::GROUND, a, 1e-3);
        ckt.resistor("R1", a, Netlist::GROUND, 2e3);
        let sol = ckt.solve_dc().unwrap();
        assert!((sol.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn stacked_voltage_sources() {
        let mut ckt = Netlist::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Netlist::GROUND, 1.0);
        ckt.vsource("V2", b, a, 0.5);
        ckt.resistor("R", b, Netlist::GROUND, 1e3);
        let sol = ckt.solve_dc().unwrap();
        assert!((sol.voltage(b) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_vtc_endpoints() {
        // Input low → output high.
        let (ckt, out) = inverter(0.0);
        let sol = ckt.solve_dc().unwrap();
        assert!(sol.voltage(out) > 0.95, "out = {}", sol.voltage(out));
        // Input high → output low.
        let (ckt, out) = inverter(1.0);
        let sol = ckt.solve_dc().unwrap();
        assert!(sol.voltage(out) < 0.05, "out = {}", sol.voltage(out));
    }

    #[test]
    fn inverter_vtc_is_monotone_under_sweep() {
        let (ckt, out) = inverter(0.0);
        let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
        let vin = tpl.vsource_slot("VIN").unwrap();
        let vout: Vec<f64> = (0..=20)
            .map(|i| {
                tpl.set_vsource(vin, i as f64 * 0.05).unwrap();
                tpl.solve().unwrap();
                tpl.voltage(out)
            })
            .collect();
        for w in vout.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall monotonically: {vout:?}");
        }
        assert!(vout[0] > 0.95 && vout[20] < 0.05);
    }

    #[test]
    fn kcl_residual_property_at_solution() {
        // At any converged solution, the assembled residual must be tiny.
        let (ckt, _) = loaded_nmos();
        let sol = ckt.solve_dc().unwrap();
        let pins = Pins::of(&ckt);
        let sys = System::new(&ckt, &pins);
        let mut res = vec![0.0; sys.num_unknowns];
        let mut mos = Vec::new();
        sys.load_mosfets(&mut mos);
        sys.residual(sol.state(), GMIN_FINAL, 1.0, None, &mut res, &mut mos);
        assert!(sys.kcl_norm(&res) < 1e-9);
    }

    #[test]
    fn pins_hold_only_nodes_a_lone_grounded_source_holds() {
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
        let [a, b, c, d, e, g] = ["a", "b", "c", "d", "e", "g"].map(|n| ckt.node(n));
        let gnd = Netlist::GROUND;
        ckt.vsource("VA", a, gnd, 1.0);
        ckt.vsource("VB", gnd, b, 0.5);
        ckt.vsource("VC", c, gnd, 1.0);
        ckt.resistor("RC", c, e, 1e3);
        ckt.vsource("VD", d, gnd, 1.0);
        ckt.vsource("VE", e, d, 0.2);
        ckt.vsource("VG", g, gnd, 0.3);
        ckt.capacitor("CG", g, gnd, 1e-15);
        ckt.isource("IA", gnd, a, 1e-6);
        let nmos = Mosfet::nmos(&tech, 140e-9, tech.lmin());
        ckt.mosfet("M", a, b, c, d, nmos);
        // VA and VB pin their nodes (rows 6 and 7 follow the six nodes); a
        // resistor, a capacitor or a second source unpins a node.
        assert_eq!(
            Pins::of(&ckt).rows,
            [Some(6), Some(7), None, None, None, None]
        );
    }

    #[test]
    fn empty_circuit_is_an_error() {
        let ckt = Netlist::new();
        assert_eq!(ckt.solve_dc().unwrap_err(), CircuitError::EmptyCircuit);
    }

    #[test]
    fn floating_node_pinned_by_gmin() {
        // A node connected only through a capacitor is floating in DC;
        // Gmin must keep the matrix solvable and park it at 0.
        let mut ckt = Netlist::new();
        let a = ckt.node("a");
        let f = ckt.node("float");
        ckt.vsource("V1", a, Netlist::GROUND, 1.0);
        ckt.capacitor("C1", a, f, 1e-15);
        let sol = ckt.solve_dc().unwrap();
        assert!(sol.voltage(f).abs() < 1e-6);
    }

    #[test]
    fn operating_point_satisfies_kcl_per_element() {
        let ckt = divider(2.0);
        let sol = ckt.solve_dc().unwrap();
        let op = operating_point(&ckt, &sol);
        let get = |n: &str| op.iter().find(|(name, _)| *name == n).unwrap().1;
        // Series chain: all three elements carry 0.5 mA.
        assert!((get("V1") - 0.5e-3).abs() < 1e-8);
        assert!((get("R1") - 0.5e-3).abs() < 1e-8);
        assert!((get("R2") - 0.5e-3).abs() < 1e-8);
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let ckt = divider(1.0);
        let mid = ckt.find_node("mid").unwrap();
        let cold = ckt.solve_dc().unwrap();
        let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
        tpl.solve().unwrap();
        tpl.solve().unwrap();
        assert_eq!(tpl.stats().warm_hits, 1);
        assert!((tpl.voltage(mid) - cold.voltage(mid)).abs() < 1e-12);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One template solving cold twice through its workspace must agree
        // with independent fresh solves, and the stats must add up.
        let (ckt, out) = loaded_nmos();
        let fresh = ckt.solve_dc().unwrap();
        let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
        tpl.set_warm_start(false);
        for _ in 0..2 {
            tpl.solve().unwrap();
            assert_eq!(tpl.voltage(out), fresh.voltage(out));
        }
        assert_eq!(tpl.stats().solves, 2);
        assert_eq!(tpl.stats().cold_solves, 2);
        assert!(tpl.stats().newton_iterations > 0);
    }

    #[test]
    fn source_ramp_scaling_matches_explicit_netlist() {
        // Assembling with vsource_scale = α must equal assembling a netlist
        // whose sources were explicitly scaled by α.
        let ckt = divider(2.0);
        let scaled = divider(2.0 * 0.25);

        let (pins, pins_scaled) = (Pins::of(&ckt), Pins::of(&scaled));
        let sys = System::new(&ckt, &pins);
        let sys_scaled = System::new(&scaled, &pins_scaled);
        let x = vec![0.3, 0.1, 0.0];
        let n = sys.num_unknowns;
        let (mut ja, mut jb) = (Matrix::zeros(n), Matrix::zeros(n));
        let (mut ra, mut rb) = (vec![0.0; n], vec![0.0; n]);
        sys.residual(&x, 1e-12, 0.25, None, &mut ra, &mut []);
        sys_scaled.residual(&x, 1e-12, 1.0, None, &mut rb, &mut []);
        sys.jacobian(&x, &ra, 1e-12, None, &[], &mut ja);
        sys_scaled.jacobian(&x, &rb, 1e-12, None, &[], &mut jb);
        assert_eq!(ra, rb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn stats_track_warm_starts() {
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        ckt.vsource("V1", top, Netlist::GROUND, 1.0);
        ckt.resistor("R1", top, Netlist::GROUND, 1e3);
        let mut tpl = CircuitTemplate::compile(ckt, DcOptions::default()).unwrap();
        tpl.solve().unwrap();
        tpl.solve().unwrap();
        let stats = *tpl.stats();
        assert_eq!(stats.warm_attempts, 1);
        assert_eq!(stats.warm_hits, 1);
        assert!((stats.warm_hit_rate() - 1.0).abs() < 1e-15);
        let mut total = SolverStats::default();
        total.merge(&stats);
        assert_eq!(total, stats);
    }

    #[test]
    fn injected_standard_ladder_failure_is_rescued() {
        let _l = crate::FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depth 3 kills the three standard cold strategies (a template's
        // first solve has no warm slot); the first rescue rung then runs
        // for real and must converge this ordinary circuit.
        let _g = pvtm_telemetry::fault::force_depth(3);
        let (mut tpl, out) = inverter_template();
        tpl.solve().expect("rescue rung 1 converges the inverter");
        assert!(tpl.voltage(out) > 0.95, "out = {}", tpl.voltage(out));
        assert_eq!(tpl.stats().rescue_attempts, 1);
        assert_eq!(tpl.stats().rescue_hits, 1);
        assert_eq!(tpl.stats().rescue_rungs, 1);
    }

    #[test]
    fn injection_past_the_last_rung_fails_the_solve() {
        let _l = crate::FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depth 6 exhausts the 3 standard cold strategies + 3 rescue
        // rungs; depth 7 leaves one unused kill on top.
        let _g = pvtm_telemetry::fault::force_depth(7);
        let (mut tpl, _) = inverter_template();
        assert!(tpl.solve().is_err(), "all strategies injected to fail");
        assert_eq!(tpl.stats().rescue_attempts, 1);
        assert_eq!(tpl.stats().rescue_hits, 0);
        assert_eq!(tpl.stats().rescue_rungs, 3);
    }

    #[test]
    fn every_rescue_depth_between_ladders_converges() {
        let _l = crate::FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depths 3..=5 land on rescue rungs 1..=3 for a cold solve;
        // every rung must converge the inverter on its own.
        for depth in 3..=5u32 {
            let _g = pvtm_telemetry::fault::force_depth(depth);
            let (mut tpl, out) = inverter_template();
            tpl.solve().unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            assert!(tpl.voltage(out) > 0.95);
            assert_eq!(tpl.stats().rescue_hits, 1, "depth {depth}");
            assert_eq!(
                tpl.stats().rescue_rungs,
                u64::from(depth) - 2,
                "depth {depth}"
            );
        }
    }

    #[test]
    fn rescue_is_never_entered_on_healthy_solves() {
        let (mut tpl, _) = inverter_template();
        tpl.solve().expect("healthy solve");
        assert_eq!(tpl.stats().rescue_attempts, 0);
        assert_eq!(tpl.stats().rescue_rungs, 0);
    }
}
