//! DC operating-point solver: damped Newton–Raphson with Gmin continuation
//! and source-stepping fallback.
//!
//! The solver comes in two flavours. The plain [`solve`]/[`solve_from`]
//! entry points allocate their scratch buffers per call — fine for one-off
//! solves. Hot paths (Monte-Carlo loops, sweeps) should hold a
//! [`DcWorkspace`] and call [`solve_with`]/[`solve_from_with`], which reuse
//! the Jacobian, residual and state buffers across solves and accumulate
//! [`SolverStats`]. See also [`crate::template::CircuitTemplate`], which
//! additionally keeps the netlist itself alive across solves and
//! warm-starts Newton from the previous solution.

use std::sync::Arc;

use crate::linalg::Matrix;
use crate::netlist::{CircuitError, Element, Netlist, NodeId};
use pvtm_device::Bias;

/// Options controlling the Newton iteration.
#[derive(Debug, Clone)]
pub struct DcOptions {
    /// Maximum Newton iterations per continuation stage.
    pub max_iterations: usize,
    /// KCL residual tolerance \[A\].
    pub current_tol: f64,
    /// Largest node-voltage update applied per iteration \[V\] (damping).
    pub max_step: f64,
    /// Starting Gmin for the continuation \[S\].
    pub gmin_start: f64,
    /// Final (residual) Gmin left in place \[S\]; keeps floating nodes pinned.
    pub gmin_final: f64,
    /// Initial node-voltage guesses; unspecified nodes start at 0 V.
    pub initial: Vec<(NodeId, f64)>,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            max_iterations: 120,
            current_tol: 1e-10,
            max_step: 0.3,
            gmin_start: 1e-3,
            gmin_final: 1e-12,
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

/// Counters accumulated by a [`DcWorkspace`] across solves.
///
/// `warm_hits / warm_attempts` is the warm-start hit rate; `fallbacks`
/// counts solves that needed the damped retry or the source ramp on top of
/// plain Gmin continuation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Completed solves (converged operating points).
    pub solves: u64,
    /// Total Newton iterations, across all continuation stages and solves.
    pub newton_iterations: u64,
    /// Warm-start Newton attempts (seeded from a previous solution).
    pub warm_attempts: u64,
    /// Warm-start attempts that converged without a cold restart.
    pub warm_hits: u64,
    /// Cold solves (Gmin continuation from the initial guess).
    pub cold_solves: u64,
    /// Cold solves that needed the heavily damped retry.
    pub damped_retries: u64,
    /// Cold solves that fell through to the source-stepping ramp.
    pub source_ramps: u64,
    /// LU factorizations (one per Newton linear solve).
    pub lu_factorizations: u64,
    /// Gmin-continuation stages run (each is one Newton solve at a fixed
    /// Gmin).
    pub gmin_steps: u64,
    /// Source-ramp steps run (each is a full Gmin continuation at one
    /// source scale).
    pub ramp_steps: u64,
    /// Solves that exhausted the standard cold ladder and entered the
    /// rescue ladder (the crate's `rescue` module).
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that ultimately converged.
    pub rescue_hits: u64,
    /// Individual rescue rungs run (≤ 3 per attempt).
    pub rescue_rungs: u64,
}

impl SolverStats {
    /// Warm-start hit rate in `[0, 1]`; 1.0 when no warm start was tried.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            1.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    /// Merges another set of counters into this one (for per-thread stats).
    pub fn merge(&mut self, other: &SolverStats) {
        self.solves += other.solves;
        self.newton_iterations += other.newton_iterations;
        self.warm_attempts += other.warm_attempts;
        self.warm_hits += other.warm_hits;
        self.cold_solves += other.cold_solves;
        self.damped_retries += other.damped_retries;
        self.source_ramps += other.source_ramps;
        self.lu_factorizations += other.lu_factorizations;
        self.gmin_steps += other.gmin_steps;
        self.ramp_steps += other.ramp_steps;
        self.rescue_attempts += other.rescue_attempts;
        self.rescue_hits += other.rescue_hits;
        self.rescue_rungs += other.rescue_rungs;
    }

    /// The increments accumulated between a `before` snapshot and `self`,
    /// as a telemetry delta (the per-solve record of
    /// [`CircuitTemplate::solve`](crate::template::CircuitTemplate::solve)).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `before` is an earlier snapshot of the same
    /// counters (every field monotonically non-decreasing).
    pub fn delta_since(&self, before: &SolverStats) -> pvtm_telemetry::SolverDelta {
        debug_assert!(self.solves >= before.solves, "stats went backwards");
        pvtm_telemetry::SolverDelta {
            solves: self.solves - before.solves,
            newton_iterations: self.newton_iterations - before.newton_iterations,
            lu_factorizations: self.lu_factorizations - before.lu_factorizations,
            warm_attempts: self.warm_attempts - before.warm_attempts,
            warm_hits: self.warm_hits - before.warm_hits,
            cold_solves: self.cold_solves - before.cold_solves,
            damped_retries: self.damped_retries - before.damped_retries,
            source_ramps: self.source_ramps - before.source_ramps,
            gmin_steps: self.gmin_steps - before.gmin_steps,
            ramp_steps: self.ramp_steps - before.ramp_steps,
            rescue_attempts: self.rescue_attempts - before.rescue_attempts,
            rescue_hits: self.rescue_hits - before.rescue_hits,
            rescue_rungs: self.rescue_rungs - before.rescue_rungs,
        }
    }
}

/// Reusable scratch buffers for Newton iterations.
///
/// Holding one of these across solves removes every per-solve heap
/// allocation from the Newton loop: the Jacobian, residual, update and
/// line-search backup vectors are sized once and reused. Not thread-safe —
/// use one workspace per thread.
#[derive(Debug, Clone, Default)]
pub struct DcWorkspace {
    jac: Matrix,
    res: Vec<f64>,
    rhs: Vec<f64>,
    x_old: Vec<f64>,
    /// Drain current of each MOSFET (netlist order) at the state of the
    /// last residual pass, where the Jacobian pass differences from.
    ids: Vec<f64>,
    /// Counters accumulated by every solve run through this workspace.
    pub stats: SolverStats,
}

impl DcWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes the scratch buffers for a system of `n` unknowns and
    /// `num_mosfets` transistors.
    fn ensure(&mut self, n: usize, num_mosfets: usize) {
        if self.jac.n() != n {
            self.jac = Matrix::zeros(n);
            self.res = vec![0.0; n];
            self.rhs = vec![0.0; n];
            self.x_old = vec![0.0; n];
        }
        self.ids.resize(num_mosfets, 0.0);
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
    }
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
    /// warm start for [`solve_from`] or a transient initial condition.
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
/// Jacobian.
pub(crate) struct System<'a> {
    netlist: &'a Netlist,
    pub(crate) num_free_nodes: usize,
    pub(crate) num_unknowns: usize,
    num_mosfets: usize,
}

/// Backward-Euler companion data for transient steps.
pub(crate) struct Companion<'a> {
    /// Time step \[s\].
    pub dt: f64,
    /// Solver state at the previous time point.
    pub prev: &'a [f64],
}

impl<'a> System<'a> {
    pub(crate) fn new(netlist: &'a Netlist) -> Self {
        let num_free_nodes = netlist.num_nodes() - 1;
        let (mut num_vsources, mut num_mosfets) = (0, 0);
        for (_, e) in netlist.elements() {
            match e {
                Element::Vsource { .. } => num_vsources += 1,
                Element::Mosfet { .. } => num_mosfets += 1,
                _ => {}
            }
        }
        Self {
            netlist,
            num_free_nodes,
            num_unknowns: num_free_nodes + num_vsources,
            num_mosfets,
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

    /// Assembles the residual `f(x)` at state `x`, keeping each MOSFET's
    /// drain current in `ids` (netlist order) for a [`Self::jacobian`] pass
    /// at the same `x`.
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
        ids: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), self.num_unknowns);
        debug_assert_eq!(ids.len(), self.num_mosfets);
        res.fill(0.0);
        let temp = self.netlist.temperature();

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
                Element::Mosfet { d, g, s, b, device } => {
                    let bias =
                        Bias::new(self.v(x, *g), self.v(x, *d), self.v(x, *s), self.v(x, *b));
                    let id = device.at(temp).ids(bias);
                    ids[mos_idx] = id;
                    mos_idx += 1;
                    // The channel draws `id` out of the drain node and
                    // returns it at the source node.
                    Self::kcl(res, *d, -id);
                    Self::kcl(res, *s, id);
                }
            }
        }
    }

    /// Assembles the Jacobian `df/dx` at the state `x` of the last
    /// [`Self::residual`] pass, whose drain currents `ids` anchor the
    /// MOSFETs' forward differences. Companion capacitors need only `dt`.
    ///
    /// Entries accumulate in a fixed order, the Gmin diagonal first and
    /// then the elements in netlist order, so every entry is the same sum
    /// of the same terms at every call.
    pub(crate) fn jacobian(
        &self,
        x: &[f64],
        gmin: f64,
        companion: Option<&Companion<'_>>,
        ids: &[f64],
        jac: &mut Matrix,
    ) {
        debug_assert_eq!(x.len(), self.num_unknowns);
        debug_assert_eq!(ids.len(), self.num_mosfets);
        jac.clear();
        let temp = self.netlist.temperature();

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
                Element::Mosfet { d, g, s, b, device } => {
                    let at = device.at(temp);
                    let bias =
                        Bias::new(self.v(x, *g), self.v(x, *d), self.v(x, *s), self.v(x, *b));
                    let id = ids[mos_idx];
                    mos_idx += 1;

                    // Numeric partial derivatives wrt each terminal.
                    const DV: f64 = 1e-6;
                    let terminals = [(*g, 0), (*d, 1), (*s, 2), (*b, 3)];
                    for (node, which) in terminals {
                        if node.is_ground() {
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
                        let col = node.index() - 1;
                        Self::jac_add(jac, *d, col, -did);
                        Self::jac_add(jac, *s, col, did);
                    }
                }
            }
        }
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
    /// \[V\] alike, both held to `current_tol`. The constraint rows are
    /// linear, so every undamped Newton step satisfies them to rounding.
    pub(crate) fn kcl_norm(&self, res: &[f64]) -> f64 {
        res.iter().fold(0.0f64, |m, r| m.max(r.abs()))
    }

    /// Runs damped Newton at a fixed Gmin from the given state, using the
    /// workspace's scratch buffers.
    ///
    /// Returns the residual norm achieved; the state is updated in place.
    pub(crate) fn newton(
        &self,
        x: &mut [f64],
        gmin: f64,
        vsource_scale: f64,
        companion: Option<&Companion<'_>>,
        opts: &DcOptions,
        ws: &mut DcWorkspace,
    ) -> Result<f64, CircuitError> {
        let n = self.num_unknowns;
        ws.ensure(n, self.num_mosfets);
        let DcWorkspace {
            jac,
            res,
            rhs,
            x_old,
            ids,
            stats,
        } = ws;

        self.residual(x, gmin, vsource_scale, companion, res, ids);
        let mut norm = self.kcl_norm(res);
        debug_assert!(
            norm.is_finite(),
            "non-finite initial residual norm {norm}: a device stamp produced NaN/Inf"
        );

        for iter in 0..opts.max_iterations {
            if norm < opts.current_tol {
                return Ok(norm);
            }
            stats.newton_iterations += 1;
            stats.lu_factorizations += 1;
            // Solve J Δx = -f, with J taken where `res` was: at `x`.
            self.jacobian(x, gmin, companion, ids, jac);
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
                if dv.abs() * scale > opts.max_step {
                    scale = opts.max_step / dv.abs();
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
                self.residual(x, gmin, vsource_scale, companion, res, ids);
                let new_norm = self.kcl_norm(res);
                if new_norm < norm || new_norm < opts.current_tol {
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
        if norm < opts.current_tol {
            Ok(norm)
        } else {
            Err(CircuitError::NoConvergence {
                residual: norm,
                iterations: opts.max_iterations,
            })
        }
    }
}

/// Solves the DC operating point of a netlist.
///
/// Strategy: Gmin continuation from `gmin_start` down to `gmin_final`
/// (factor-100 steps), warm-starting each stage. If that fails, a source
/// ramp (25 % → 100 % of every voltage source) is attempted on top.
///
/// Allocates a fresh [`DcWorkspace`] per call; hot loops should hold one
/// and use [`solve_with`] instead.
///
/// # Errors
///
/// [`CircuitError::EmptyCircuit`] for a netlist with no unknowns;
/// [`CircuitError::NoConvergence`] / [`CircuitError::SingularMatrix`] when
/// both strategies fail.
pub fn solve(netlist: &Netlist, opts: &DcOptions) -> Result<DcSolution, CircuitError> {
    solve_with(netlist, opts, &mut DcWorkspace::new())
}

/// [`solve`] with caller-provided scratch buffers (no per-solve
/// allocations beyond the returned solution).
///
/// # Errors
///
/// Same failure modes as [`solve`].
pub fn solve_with(
    netlist: &Netlist,
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<DcSolution, CircuitError> {
    pvtm_telemetry::fault::next_solve();
    solve_with_unarmed(netlist, opts, ws)
}

/// [`solve_with`] without marking a new logical solve for fault injection
/// — the warm-start fallback path re-enters here so one logical solve is
/// armed exactly once.
fn solve_with_unarmed(
    netlist: &Netlist,
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<DcSolution, CircuitError> {
    let sys = System::new(netlist);
    if sys.num_unknowns == 0 {
        return Err(CircuitError::EmptyCircuit);
    }
    let mut x = vec![0.0; sys.num_unknowns];
    init_state(&mut x, opts);
    cold_solve(&sys, &mut x, opts, ws)?;
    ws.stats.solves += 1;
    Ok(DcSolution::new(x, sys.num_free_nodes, sys.branch_names()))
}

/// The failure an injected strategy reports in place of running (the
/// infinite residual marks it as synthetic in error messages).
pub(crate) fn injected_failure() -> CircuitError {
    CircuitError::NoConvergence {
        residual: f64::INFINITY,
        iterations: 0,
    }
}

/// The full cold-start strategy on a pre-initialized state: Gmin
/// continuation, then a heavily damped retry, then a source ramp, and —
/// only once all three have failed — the [`crate::rescue`] ladder.
pub(crate) fn cold_solve(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    use pvtm_telemetry::fault;
    ws.stats.cold_solves += 1;
    if !fault::trip() && gmin_continuation(sys, x, opts, 1.0, ws).is_ok() {
        return Ok(());
    }
    // Heavily damped retry: small steps ride out fold regions where
    // full Newton oscillates (e.g. a cell losing bistability).
    ws.stats.damped_retries += 1;
    let damped = DcOptions {
        max_step: 0.05,
        max_iterations: 400,
        ..opts.clone()
    };
    init_state(x, opts);
    if !fault::trip() && gmin_continuation(sys, x, &damped, 1.0, ws).is_ok() {
        return Ok(());
    }
    // Source-stepping fallback.
    ws.stats.source_ramps += 1;
    init_state(x, opts);
    if !fault::trip() && source_ramp(sys, x, &damped, ws).is_ok() {
        return Ok(());
    }
    // Everything the standard ladder has failed: escalate to the rescue
    // ladder before declaring the sample unsolvable.
    crate::rescue::rescue(sys, x, opts, ws)
}

/// Solves starting from a previous solution's state (warm start).
///
/// # Errors
///
/// Same failure modes as [`solve`].
///
/// # Panics
///
/// Panics if `state` has the wrong length for this netlist.
pub fn solve_from(
    netlist: &Netlist,
    opts: &DcOptions,
    state: &[f64],
) -> Result<DcSolution, CircuitError> {
    solve_from_with(netlist, opts, state, &mut DcWorkspace::new())
}

/// [`solve_from`] with caller-provided scratch buffers.
///
/// # Errors
///
/// Same failure modes as [`solve`].
///
/// # Panics
///
/// Panics if `state` has the wrong length for this netlist.
pub fn solve_from_with(
    netlist: &Netlist,
    opts: &DcOptions,
    state: &[f64],
    ws: &mut DcWorkspace,
) -> Result<DcSolution, CircuitError> {
    let sys = System::new(netlist);
    assert_eq!(state.len(), sys.num_unknowns, "warm-start state length");
    pvtm_telemetry::fault::next_solve();
    let mut x = state.to_vec();
    ws.stats.warm_attempts += 1;
    let warm = if pvtm_telemetry::fault::trip() {
        Err(injected_failure())
    } else {
        sys.newton(&mut x, opts.gmin_final, 1.0, None, opts, ws)
            .map(|_| ())
    };
    match warm {
        Ok(()) => {
            ws.stats.warm_hits += 1;
            ws.stats.solves += 1;
            Ok(DcSolution::new(x, sys.num_free_nodes, sys.branch_names()))
        }
        // Warm start failed: fall back to the full strategy.
        Err(_) => solve_with_unarmed(netlist, opts, ws),
    }
}

/// Sweeps a named voltage source over `values`, warm-starting each point.
///
/// # Errors
///
/// Fails on the first value whose operating point cannot be found, or if
/// the source name is unknown.
pub fn sweep_vsource(
    netlist: &mut Netlist,
    source: &str,
    values: &[f64],
    opts: &DcOptions,
) -> Result<Vec<DcSolution>, CircuitError> {
    let mut ws = DcWorkspace::new();
    let mut out: Vec<DcSolution> = Vec::with_capacity(values.len());
    for &v in values {
        netlist.set_vsource(source, v)?;
        let sol = match out.last() {
            Some(prev) => solve_from_with(netlist, opts, prev.state(), &mut ws)?,
            None => solve_with(netlist, opts, &mut ws)?,
        };
        out.push(sol);
    }
    Ok(out)
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
pub(crate) fn init_state(x: &mut [f64], opts: &DcOptions) {
    x.fill(0.0);
    for &(node, v) in &opts.initial {
        if !node.is_ground() {
            x[node.index() - 1] = v;
        }
    }
}

pub(crate) fn gmin_continuation(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    vsource_scale: f64,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    let mut gmin = opts.gmin_start;
    loop {
        ws.stats.gmin_steps += 1;
        sys.newton(x, gmin, vsource_scale, None, opts, ws)?;
        if gmin <= opts.gmin_final {
            return Ok(());
        }
        gmin = (gmin * 1e-2).max(opts.gmin_final);
    }
}

/// Source stepping via the assembler's `vsource_scale` knob: every source
/// is ramped 25 % → 100 % without cloning or editing the netlist.
fn source_ramp(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    for &alpha in &[0.25, 0.5, 0.75, 1.0] {
        ws.stats.ramp_steps += 1;
        gmin_continuation(sys, x, opts, alpha, ws)?;
    }
    Ok(())
}

#[cfg(test)]
#[path = "tests/kernel_oracle.rs"]
mod kernel_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_device::{Mosfet, Technology};

    #[test]
    fn resistive_divider() {
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, 2.0);
        ckt.resistor("R1", top, mid, 3e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
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
        // Input low → output high.
        let sol = ckt.solve_dc().unwrap();
        assert!(sol.voltage(out) > 0.95, "out = {}", sol.voltage(out));
        // Input high → output low.
        ckt.set_vsource("VIN", 1.0).unwrap();
        let sol = ckt.solve_dc().unwrap();
        assert!(sol.voltage(out) < 0.05, "out = {}", sol.voltage(out));
    }

    #[test]
    fn inverter_vtc_is_monotone_under_sweep() {
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
        let vin: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).collect();
        let sols = sweep_vsource(&mut ckt, "VIN", &vin, &DcOptions::default()).unwrap();
        let vout: Vec<f64> = sols.iter().map(|s| s.voltage(out)).collect();
        for w in vout.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall monotonically: {vout:?}");
        }
        assert!(vout[0] > 0.95 && vout[20] < 0.05);
    }

    #[test]
    fn kcl_residual_property_at_solution() {
        // At any converged solution, the assembled residual must be tiny.
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
        let opts = DcOptions::default();
        let sol = solve(&ckt, &opts).unwrap();
        let sys = System::new(&ckt);
        let mut res = vec![0.0; sys.num_unknowns];
        let mut ids = vec![0.0; sys.num_mosfets];
        sys.residual(sol.state(), opts.gmin_final, 1.0, None, &mut res, &mut ids);
        assert!(sys.kcl_norm(&res) < 1e-9);
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
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, 2.0);
        ckt.resistor("R1", top, mid, 3e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
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
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, 1.0);
        ckt.resistor("R1", top, mid, 1e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
        let opts = DcOptions::default();
        let cold = solve(&ckt, &opts).unwrap();
        let warm = solve_from(&ckt, &opts, cold.state()).unwrap();
        assert!((warm.voltage(mid) - cold.voltage(mid)).abs() < 1e-12);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // The same circuit solved through one workspace twice must agree
        // with independent fresh solves, and the stats must add up.
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
        let opts = DcOptions::default();
        let fresh = solve(&ckt, &opts).unwrap();
        let mut ws = DcWorkspace::new();
        let a = solve_with(&ckt, &opts, &mut ws).unwrap();
        let b = solve_with(&ckt, &opts, &mut ws).unwrap();
        assert_eq!(a.voltage(out), fresh.voltage(out));
        assert_eq!(b.voltage(out), fresh.voltage(out));
        assert_eq!(ws.stats.solves, 2);
        assert_eq!(ws.stats.cold_solves, 2);
        assert!(ws.stats.newton_iterations > 0);
    }

    #[test]
    fn source_ramp_scaling_matches_explicit_netlist() {
        // Assembling with vsource_scale = α must equal assembling a netlist
        // whose sources were explicitly scaled by α.
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.vsource("V1", top, Netlist::GROUND, 2.0);
        ckt.resistor("R1", top, mid, 3e3);
        ckt.resistor("R2", mid, Netlist::GROUND, 1e3);
        let mut scaled = ckt.clone();
        scaled.set_vsource("V1", 2.0 * 0.25).unwrap();

        let sys = System::new(&ckt);
        let sys_scaled = System::new(&scaled);
        let x = vec![0.3, 0.1, 0.0];
        let n = sys.num_unknowns;
        let (mut ja, mut jb) = (Matrix::zeros(n), Matrix::zeros(n));
        let (mut ra, mut rb) = (vec![0.0; n], vec![0.0; n]);
        sys.residual(&x, 1e-12, 0.25, None, &mut ra, &mut []);
        sys_scaled.residual(&x, 1e-12, 1.0, None, &mut rb, &mut []);
        sys.jacobian(&x, 1e-12, None, &[], &mut ja);
        sys_scaled.jacobian(&x, 1e-12, None, &[], &mut jb);
        assert_eq!(ra, rb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn stats_track_warm_starts() {
        let mut ckt = Netlist::new();
        let top = ckt.node("top");
        ckt.vsource("V1", top, Netlist::GROUND, 1.0);
        ckt.resistor("R1", top, Netlist::GROUND, 1e3);
        let opts = DcOptions::default();
        let mut ws = DcWorkspace::new();
        let cold = solve_with(&ckt, &opts, &mut ws).unwrap();
        let _warm = solve_from_with(&ckt, &opts, cold.state(), &mut ws).unwrap();
        assert_eq!(ws.stats.warm_attempts, 1);
        assert_eq!(ws.stats.warm_hits, 1);
        assert!((ws.stats.warm_hit_rate() - 1.0).abs() < 1e-15);
        let mut total = SolverStats::default();
        total.merge(&ws.stats);
        assert_eq!(total, ws.stats);
    }
}
