//! Bitwise oracle for the Newton kernel.
//!
//! The kernel assembles the residual at every point Newton evaluates and
//! the Jacobian only where it factorizes, evaluates each MOSFET's model
//! constants once per Newton run, leaves out the MOSFET entries of the
//! columns of source-pinned nodes whose constraint holds, and skips the
//! zeros of each pivot row in its LU. The combined residual-and-Jacobian
//! assembler, the dense LU and the Newton loop that drove them before are
//! kept here verbatim, and so is the Jacobian pass that differenced every
//! MOSFET terminal. The proptests require the kernel to reproduce them on
//! hand-built copies of the four cell circuits `pvtm-sram` solves (read
//! divider, write level, 6T hold cell, loaded inverter), on the loaded
//! inverter with its input's row bordered as `solve_trip` borders it, and
//! on one circuit holding every other element kind, from random states
//! and from states where every source constraint holds exactly.

use super::{Border, Companion, DcWorkspace, Limits, Pins, SolverStats, System, NORMAL};
use crate::linalg::{Matrix, SingularMatrix};
use crate::netlist::{CircuitError, Element, Netlist};
use proptest::prelude::*;
use pvtm_device::{Bias, Mosfet, Technology};

impl System<'_> {
    /// The combined assembler: residual `f(x)` and Jacobian `df/dx` in one
    /// pass, with five `Mosfet::ids` calls per transistor, and a border's
    /// row in place of its source's constraint as [`System`] places it.
    fn assemble_reference(
        &self,
        x: &[f64],
        gmin: f64,
        vsource_scale: f64,
        companion: Option<&Companion<'_>>,
        jac: &mut Matrix,
        res: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), self.num_unknowns);
        jac.clear();
        res.fill(0.0);
        let temp = self.netlist.temperature();

        // Gmin to ground on every free node.
        for i in 0..self.num_free_nodes {
            res[i] += -gmin * x[i];
            jac.add(i, i, -gmin);
        }

        let mut vsrc_idx = 0usize;
        for (_, el) in self.netlist.elements() {
            match el {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i_ab = (self.v(x, *a) - self.v(x, *b)) * g;
                    Self::kcl(res, *a, -i_ab);
                    Self::kcl(res, *b, i_ab);
                    self.stamp_conductance(jac, *a, *b, g);
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
                        self.stamp_conductance(jac, *a, *b, g);
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
                    Self::jac_add(jac, *pos, row, 1.0);
                    Self::jac_add(jac, *neg, row, -1.0);
                    // Constraint: v(pos) - v(neg) - scale·V = 0.
                    res[row] = self.v(x, *pos) - self.v(x, *neg) - volts * vsource_scale;
                    if !pos.is_ground() {
                        jac.add(row, pos.index() - 1, 1.0);
                    }
                    if !neg.is_ground() {
                        jac.add(row, neg.index() - 1, -1.0);
                    }
                }
                Element::Isource { from, to, amps } => {
                    Self::kcl(res, *from, -amps);
                    Self::kcl(res, *to, *amps);
                }
                Element::Mosfet { d, g, s, b, device } => {
                    let bias =
                        Bias::new(self.v(x, *g), self.v(x, *d), self.v(x, *s), self.v(x, *b));
                    let id = device.ids(bias, temp);
                    // The channel draws `id` out of the drain node and
                    // returns it at the source node.
                    Self::kcl(res, *d, -id);
                    Self::kcl(res, *s, id);

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
                        let did = (device.ids(pb, temp) - id) / DV;
                        let col = node.index() - 1;
                        Self::jac_add(jac, *d, col, -did);
                        Self::jac_add(jac, *s, col, did);
                    }
                }
            }
        }
        if let Some(b) = self.border {
            res[b.row] = x[b.out] - b.level;
            for col in 0..self.num_unknowns {
                jac.set(b.row, col, 0.0);
            }
            jac.set(b.row, b.out, 1.0);
        }
    }

    /// The Jacobian pass that takes a forward difference at every MOSFET
    /// terminal off ground, pinned node or not.
    fn jacobian_full(
        &self,
        x: &[f64],
        gmin: f64,
        companion: Option<&Companion<'_>>,
        mos: &[super::MosfetEval],
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
                    let super::MosfetEval { at, id } = mos[mos_idx];
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
        if let Some(b) = self.border {
            for col in 0..self.num_unknowns {
                jac.set(b.row, col, 0.0);
            }
            jac.set(b.row, b.out, 1.0);
        }
    }

    /// Damped Newton over the combined assembler and the dense LU: the
    /// Jacobian is assembled at every line-search trial and discarded at
    /// each rejected one.
    #[allow(clippy::needless_range_loop)]
    fn newton_reference(
        &self,
        x: &mut [f64],
        gmin: f64,
        vsource_scale: f64,
        companion: Option<&Companion<'_>>,
        limits: &Limits,
        stats: &mut SolverStats,
    ) -> Result<f64, CircuitError> {
        let n = self.num_unknowns;
        let mut jac = Matrix::zeros(n);
        let mut res = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut x_old = vec![0.0; n];

        self.assemble_reference(x, gmin, vsource_scale, companion, &mut jac, &mut res);
        let mut norm = self.kcl_norm(&res);

        for _ in 0..limits.max_iterations {
            if norm < limits.tol {
                return Ok(norm);
            }
            stats.newton_iterations += 1;
            stats.lu_factorizations += 1;
            // Solve J Δx = -f.
            for i in 0..n {
                rhs[i] = -res[i];
            }
            solve_dense(&mut jac, &mut rhs)
                .map_err(|e| CircuitError::SingularMatrix { column: e.column })?;

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
                self.assemble_reference(x, gmin, vsource_scale, companion, &mut jac, &mut res);
                let new_norm = self.kcl_norm(&res);
                if new_norm < norm || new_norm < limits.tol {
                    norm = new_norm;
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                // Accept the smallest step anyway; Newton often recovers.
                norm = self.kcl_norm(&res);
            }
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

/// Dense LU with partial pivoting: every entry right of the pivot column
/// is updated, zero or not.
#[allow(clippy::needless_range_loop)]
fn solve_dense(m: &mut Matrix, b: &mut [f64]) -> Result<(), SingularMatrix> {
    let n = m.n();
    assert_eq!(b.len(), n, "rhs length mismatch");
    // Decompose with partial pivoting, applying row swaps to b as we go.
    for k in 0..n {
        // Pivot search.
        let mut p = k;
        let mut max = m.get(k, k).abs();
        for i in (k + 1)..n {
            let v = m.get(i, k).abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < 1e-300 {
            return Err(SingularMatrix { column: k });
        }
        if p != k {
            for j in 0..n {
                let a = m.get(k, j);
                let c = m.get(p, j);
                m.set(k, j, c);
                m.set(p, j, a);
            }
            b.swap(k, p);
        }
        let pivot = m.get(k, k);
        for i in (k + 1)..n {
            let factor = m.get(i, k) / pivot;
            if factor == 0.0 {
                continue;
            }
            m.set(i, k, 0.0);
            for j in (k + 1)..n {
                let v = m.get(i, j) - factor * m.get(k, j);
                m.set(i, j, v);
            }
            b[i] -= factor * b[k];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= m.get(i, j) * b[j];
        }
        b[i] = sum / m.get(i, i);
    }
    Ok(())
}

/// Bias and temperature shared by the test circuits.
#[derive(Debug, Clone, Copy)]
struct Cond {
    vdd: f64,
    vsb: f64,
    vbb: f64,
    vin: f64,
    wl_high: bool,
    temp_k: f64,
    /// Where the bordered inverter pins its output, as a fraction of `vdd`.
    level: f64,
}

/// The circuits under test, by index into [`circuit`] and [`system`].
const CIRCUITS: [&str; 6] = [
    "read divider",
    "write level",
    "hold cell",
    "loaded inverter",
    "bordered inverter",
    "mixed elements",
];

/// Index of the bordered inverter in [`CIRCUITS`].
const BORDERED: usize = 4;

/// Index of the mixed-element circuit, the one run with capacitor
/// companions.
const MIXED: usize = 5;

/// PL, NL, PR, NR, AXL, AXR of the default-sized 6T cell, with the given
/// threshold deviations.
fn cell_devices(dvt: &[f64]) -> [Mosfet; 6] {
    let t = Technology::predictive_70nm();
    let l = t.lmin();
    [
        Mosfet::pmos(&t, 100e-9, l).with_delta_vt(dvt[0]),
        Mosfet::nmos(&t, 200e-9, l).with_delta_vt(dvt[1]),
        Mosfet::pmos(&t, 100e-9, l).with_delta_vt(dvt[2]),
        Mosfet::nmos(&t, 200e-9, l).with_delta_vt(dvt[3]),
        Mosfet::nmos(&t, 140e-9, l).with_delta_vt(dvt[4]),
        Mosfet::nmos(&t, 140e-9, l).with_delta_vt(dvt[5]),
    ]
}

/// Builds the netlist of circuit `which` of [`CIRCUITS`]. The four cell
/// circuits copy the topologies (nodes, source order, element order) of
/// the `pvtm-sram` evaluator's templates; the bordered inverter is the
/// loaded inverter's netlist.
fn circuit(which: usize, c: &Cond, dvt: &[f64]) -> Netlist {
    let [pl, nl, pr, nr, axl, axr] = cell_devices(dvt);
    let gnd = Netlist::GROUND;
    let wl_v = if c.wl_high { c.vdd } else { 0.0 };
    let mut ckt = Netlist::new();
    ckt.set_temperature(c.temp_k);
    match which {
        0 => {
            let br = ckt.node("br");
            let vr = ckt.node("vr");
            let vl = ckt.node("vl");
            let wl = ckt.node("wl");
            let sl = ckt.node("sl");
            let bn = ckt.node("bn");
            ckt.vsource("VBR", br, gnd, c.vdd);
            ckt.vsource("VVL", vl, gnd, c.vdd);
            ckt.vsource("VWL", wl, gnd, wl_v);
            ckt.vsource("VSL", sl, gnd, c.vsb);
            ckt.vsource("VBN", bn, gnd, c.vbb);
            ckt.mosfet("AXR", br, wl, vr, bn, axr);
            ckt.mosfet("NR", vr, vl, sl, bn, nr);
        }
        1 => {
            let vdd = ckt.node("vdd");
            let vl = ckt.node("vl");
            let vr = ckt.node("vr");
            let bl = ckt.node("bl");
            let wl = ckt.node("wl");
            let sl = ckt.node("sl");
            let bn = ckt.node("bn");
            ckt.vsource("VDD", vdd, gnd, c.vdd);
            ckt.vsource("VVR", vr, gnd, 0.0);
            ckt.vsource("VBL", bl, gnd, 0.0);
            ckt.vsource("VWL", wl, gnd, wl_v);
            ckt.vsource("VSL", sl, gnd, c.vsb);
            ckt.vsource("VBN", bn, gnd, c.vbb);
            ckt.mosfet("PL", vl, vr, vdd, vdd, pl);
            ckt.mosfet("NL", vl, vr, sl, bn, nl);
            ckt.mosfet("AXL", vl, wl, bl, bn, axl);
        }
        2 => {
            let vdd = ckt.node("vdd");
            let vl = ckt.node("vl");
            let vr = ckt.node("vr");
            let bl = ckt.node("bl");
            let br = ckt.node("br");
            let wl = ckt.node("wl");
            let sl = ckt.node("sl");
            let bn = ckt.node("bn");
            ckt.vsource("VDD", vdd, gnd, c.vdd);
            ckt.vsource("VBL", bl, gnd, c.vdd);
            ckt.vsource("VBR", br, gnd, c.vdd);
            ckt.vsource("VWL", wl, gnd, wl_v);
            ckt.vsource("VSL", sl, gnd, c.vsb);
            ckt.vsource("VBN", bn, gnd, c.vbb);
            ckt.mosfet("PL", vl, vr, vdd, vdd, pl);
            ckt.mosfet("NL", vl, vr, sl, bn, nl);
            ckt.mosfet("PR", vr, vl, vdd, vdd, pr);
            ckt.mosfet("NR", vr, vl, sl, bn, nr);
            ckt.mosfet("AXL", bl, wl, vl, bn, axl);
            ckt.mosfet("AXR", br, wl, vr, bn, axr);
        }
        3 | BORDERED => {
            let vdd = ckt.node("vdd");
            let input = ckt.node("in");
            let out = ckt.node("out");
            let bit = ckt.node("bit");
            let wl = ckt.node("wl");
            let sl = ckt.node("sl");
            let bn = ckt.node("bn");
            ckt.vsource("VDD", vdd, gnd, c.vdd);
            ckt.vsource("VIN", input, gnd, c.vin);
            ckt.vsource("VBIT", bit, gnd, c.vdd);
            ckt.vsource("VWL", wl, gnd, wl_v);
            ckt.vsource("VSL", sl, gnd, c.vsb);
            ckt.vsource("VBN", bn, gnd, c.vbb);
            ckt.mosfet("PU", out, input, vdd, vdd, pl);
            ckt.mosfet("PD", out, input, sl, bn, nl);
            ckt.mosfet("AX", bit, wl, out, bn, axl);
        }
        _ => {
            // Resistors, a capacitor, a current source, a source stacked
            // on another and a grounded-source MOSFET.
            let vdd = ckt.node("vdd");
            let top = ckt.node("top");
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.vsource("VDD", vdd, gnd, c.vdd);
            ckt.vsource("VUP", top, vdd, c.vsb);
            ckt.resistor("RL", top, a, 20e3);
            ckt.capacitor("C", a, b, 1e-15);
            ckt.isource("I", gnd, b, 1e-6);
            ckt.resistor("RB", b, gnd, 50e3);
            ckt.mosfet("MN", a, b, gnd, gnd, nl);
        }
    }
    ckt
}

/// The system of circuit `which`: the bordered inverter replaces `VIN`'s
/// constraint row by `v(out) = level · vdd`, as `solve_trip` does.
fn system<'a>(which: usize, ckt: &'a Netlist, pins: &'a Pins, c: &Cond) -> System<'a> {
    let sys = System::new(ckt, pins);
    if which != BORDERED {
        return sys;
    }
    let out = ckt.find_node("out").expect("the inverter has an output");
    let row = sys.num_free_nodes + 1;
    sys.bordered(Border {
        row,
        out: out.index() - 1,
        level: c.level * c.vdd,
    })
}

/// A state of the right length for `sys`: node voltages from `xs`, branch
/// currents scaled to the µA–100 µA range a cell draws. With `pinned`,
/// every node a grounded source holds sits exactly at the source's value
/// at `scale`, and a border's output at its level, so every constraint
/// row holds exactly: random voltages almost never do, and only where one
/// holds does the Jacobian leave a column's MOSFET entries out.
fn state(sys: &System<'_>, xs: &[f64], pinned: bool, scale: f64) -> Vec<f64> {
    let mut x: Vec<f64> = (0..sys.num_unknowns)
        .map(|i| {
            let v = xs[i % xs.len()];
            if i < sys.num_free_nodes {
                v
            } else {
                v * 1e-4
            }
        })
        .collect();
    if pinned {
        for (_, el) in sys.netlist.elements() {
            if let Element::Vsource { pos, neg, volts } = el {
                if neg.is_ground() && !pos.is_ground() {
                    x[pos.index() - 1] = volts * scale;
                }
            }
        }
        if let Some(b) = sys.border {
            x[b.out] = b.level;
        }
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    let n = m.n();
    (0..n * n).map(|k| m.get(k / n, k % n).to_bits()).collect()
}

const SCALES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn passes_and_lu_match_the_combined_reference_bitwise(
        xs in prop::collection::vec(-0.3f64..1.3, 16),
        dvt in prop::collection::vec(-0.15f64..0.15, 6),
        gmin_exp in -12.0f64..=-3.0,
        scale in 0usize..4,
        vdd in 0.6f64..1.2,
        vsb in 0.0f64..0.5,
        vbb in -0.4f64..0.3,
        vin in 0.0f64..1.2,
        wl_high in any::<bool>(),
        temp_k in 250.0f64..=400.0,
        level in 0.05f64..0.95,
        pinned in any::<bool>(),
    ) {
        let cond = Cond { vdd, vsb, vbb, vin, wl_high, temp_k, level };
        let gmin = 10f64.powf(gmin_exp);
        let scale = SCALES[scale];
        for (which, name) in CIRCUITS.iter().enumerate() {
            let ckt = circuit(which, &cond, &dvt);
            let pins = Pins::of(&ckt);
            let sys = system(which, &ckt, &pins, &cond);
            let n = sys.num_unknowns;
            let x = state(&sys, &xs, pinned, scale);
            let prev: Vec<f64> = x.iter().rev().copied().collect();
            let companion = Companion { dt: 1e-10, prev: &prev };
            let companion = (which == MIXED).then_some(&companion);

            let (mut jac_ref, mut res_ref) = (Matrix::zeros(n), vec![0.0; n]);
            sys.assemble_reference(&x, gmin, scale, companion, &mut jac_ref, &mut res_ref);
            let (mut jac, mut res) = (Matrix::zeros(n), vec![0.0; n]);
            let mut mos = Vec::new();
            sys.load_mosfets(&mut mos);
            sys.residual(&x, gmin, scale, companion, &mut res, &mut mos);
            prop_assert!(bits(&res) == bits(&res_ref), "{name}: residual differs");
            let mut jac_full = Matrix::zeros(n);
            sys.jacobian_full(&x, gmin, companion, &mos, &mut jac_full);
            prop_assert!(
                matrix_bits(&jac_full) == matrix_bits(&jac_ref),
                "{name}: full-column Jacobian differs"
            );

            // Every column the pass computes is the full pass's; a column it
            // leaves out holds only the Gmin diagonal and the pinning ±1.
            sys.jacobian(&x, &res, gmin, companion, &mos, &mut jac);
            let mut skipped = 0;
            for col in 0..n {
                let skips = col < sys.num_free_nodes && sys.skips(&res, col);
                let pin = sys.pins.rows.get(col).copied().flatten();
                skipped += usize::from(skips);
                for row in 0..n {
                    let want = match skips {
                        false => jac_full.get(row, col),
                        true if row == col => -gmin,
                        true if Some(row) == pin => jac_full.get(row, col),
                        true => 0.0,
                    };
                    let got = jac.get(row, col);
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "{name}: entry ({row}, {col}) is {got:e}, not {want:e}"
                    );
                }
                if let (true, Some(row)) = (skips, pin) {
                    let pivot = jac.get(row, col).abs();
                    prop_assert!(pivot == 1.0, "{name}: column {col} pivots on {pivot:e}");
                }
            }
            // Every cell circuit pins some node at a pinned state; the bordered
            // inverter's input is held by the border's row, so never skipped.
            prop_assert!(!pinned || which == MIXED || skipped > 0, "{name}: nothing skipped");
            if which == BORDERED {
                let input = ckt.find_node("in").expect("the inverter has an input");
                prop_assert!(!sys.skips(&res, input.index() - 1), "{name}: input skipped");
            }

            // The LU of the full pass is the dense LU bit for bit, solution
            // and factors, and the LU of the pass equals it component by
            // component (a zero may change sign).
            let rhs: Vec<f64> = res_ref.iter().map(|r| -r).collect();
            let (mut b_full, mut b_ref) = (rhs.clone(), rhs.clone());
            let lu_full = jac_full.solve_in_place(&mut b_full);
            let lu_ref = solve_dense(&mut jac_ref, &mut b_ref);
            prop_assert_eq!(lu_full, lu_ref);
            prop_assert!(bits(&b_full) == bits(&b_ref), "{name}: LU solution differs");
            prop_assert!(
                matrix_bits(&jac_full) == matrix_bits(&jac_ref),
                "{name}: LU factors differ"
            );
            let mut b = rhs;
            let lu = jac.solve_in_place(&mut b);
            prop_assert_eq!(lu, lu_full);
            if lu.is_ok() {
                prop_assert!(b == b_full, "{name}: LU solution of the pass differs");
            }
        }
    }

    #[test]
    fn newton_matches_the_reference_from_random_starts(
        xs in prop::collection::vec(-0.3f64..1.3, 16),
        dvt in prop::collection::vec(-0.15f64..0.15, 6),
        gmin_exp in -12.0f64..=-3.0,
        scale in 0usize..4,
        vdd in 0.6f64..1.2,
        vsb in 0.0f64..0.5,
        vbb in -0.4f64..0.3,
        vin in 0.0f64..1.2,
        wl_high in any::<bool>(),
        temp_k in 250.0f64..=400.0,
        level in 0.05f64..0.95,
        pinned in any::<bool>(),
    ) {
        let cond = Cond { vdd, vsb, vbb, vin, wl_high, temp_k, level };
        let gmin = 10f64.powf(gmin_exp);
        let scale = SCALES[scale];
        for (which, name) in CIRCUITS.iter().enumerate() {
            let ckt = circuit(which, &cond, &dvt);
            let pins = Pins::of(&ckt);
            let sys = system(which, &ckt, &pins, &cond);
            let start = state(&sys, &xs, pinned, scale);
            let prev: Vec<f64> = start.iter().rev().copied().collect();
            let companion = Companion { dt: 1e-10, prev: &prev };
            let companion = (which == MIXED).then_some(&companion);

            let mut x_ref = start.clone();
            let mut stats_ref = SolverStats::default();
            let out_ref = sys
                .newton_reference(&mut x_ref, gmin, scale, companion, &NORMAL, &mut stats_ref)
                .map(f64::to_bits);
            let mut x = start;
            let mut ws = DcWorkspace::default();
            let out = sys
                .newton(&mut x, gmin, scale, companion, &NORMAL, &mut ws)
                .map(f64::to_bits);
            prop_assert_eq!(out, out_ref);
            prop_assert!(bits(&x) == bits(&x_ref), "{name}: final state differs");
            prop_assert_eq!(ws.stats, stats_ref);
        }
    }
    #[test]
    fn lu_matches_the_dense_reference_on_sparse_systems(
        n in 1usize..16,
        vals in prop::collection::vec(-2.0f64..2.0, 256),
        mask in prop::collection::vec(0.0f64..1.0, 256),
        density in 0.05f64..1.0,
        rhs in prop::collection::vec(-1.0f64..1.0, 16),
    ) {
        let mut m = Matrix::zeros(n);
        for k in 0..n * n {
            if mask[k] < density {
                m.set(k / n, k % n, vals[k]);
            }
        }
        let mut m_ref = m.clone();
        let mut b = rhs[..n].to_vec();
        let mut b_ref = b.clone();
        let lu = m.solve_in_place(&mut b);
        let lu_ref = solve_dense(&mut m_ref, &mut b_ref);
        prop_assert_eq!(lu, lu_ref);
        if lu.is_ok() {
            prop_assert!(bits(&b) == bits(&b_ref), "solution differs");
            prop_assert!(matrix_bits(&m) == matrix_bits(&m_ref), "factors differ");
        }
    }
}
