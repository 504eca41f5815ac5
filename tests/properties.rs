//! Property-based tests (proptest) over the cross-crate invariants.

use proptest::prelude::*;

use pvtm_bist::{BistController, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_circuit::Netlist;
use pvtm_device::{Bias, Mosfet, Technology};
use pvtm_sram::ArrayOrganization;
use pvtm_stats::special::{binomial_cdf, binomial_sf, norm_cdf, norm_ppf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Φ and Φ⁻¹ are inverses over the whole open unit interval.
    #[test]
    fn normal_cdf_ppf_round_trip(p in 1e-10f64..=0.9999999) {
        let x = norm_ppf(p);
        prop_assert!((norm_cdf(x) - p).abs() < 1e-9 * p.max(1e-3));
    }

    /// Binomial CDF and survival always complement to 1.
    #[test]
    fn binomial_complement(n in 1u64..500, k_frac in 0.0f64..1.0, p in 0.0f64..=1.0) {
        let k = (k_frac * n as f64) as u64;
        let c = binomial_cdf(n, k, p);
        let s = binomial_sf(n, k, p);
        prop_assert!((c + s - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    /// Device current is monotone in gate voltage at any drain/body bias.
    #[test]
    fn ids_monotone_in_vgs(
        vd in 0.05f64..1.0,
        vb in -0.5f64..0.4,
        dvt in -0.1f64..0.1,
    ) {
        let t = Technology::predictive_70nm();
        let n = Mosfet::nmos(&t, 200e-9, t.lmin()).with_delta_vt(dvt);
        let mut prev = -1.0;
        for k in 0..=10 {
            let vg = k as f64 * 0.1;
            let i = n.ids(Bias::new(vg, vd, 0.0, vb), 300.0);
            prop_assert!(i >= prev - 1e-18, "non-monotone at vg={vg}");
            prev = i;
        }
    }

    /// Drain/source exchange exactly flips the current sign.
    #[test]
    fn ids_antisymmetric(
        vg in 0.0f64..1.0,
        va in 0.0f64..1.0,
        vb_node in 0.0f64..1.0,
    ) {
        let t = Technology::predictive_70nm();
        let n = Mosfet::nmos(&t, 140e-9, t.lmin());
        let fwd = n.ids(Bias::new(vg, va, vb_node, 0.0), 300.0);
        let rev = n.ids(Bias::new(vg, vb_node, va, 0.0), 300.0);
        prop_assert!((fwd + rev).abs() <= 1e-10 * fwd.abs().max(1e-15));
    }

    /// Any converged DC solution of a random resistor ladder satisfies the
    /// voltage-divider law at every internal node.
    #[test]
    fn dc_solver_resistor_ladder(
        resistances in prop::collection::vec(10.0f64..1e6, 2..8),
        v_src in 0.1f64..10.0,
    ) {
        let mut ckt = Netlist::new();
        let top = ckt.node("n0");
        ckt.vsource("V", top, Netlist::GROUND, v_src);
        let mut prev = top;
        for (i, &r) in resistances.iter().enumerate() {
            let node = ckt.node(&format!("n{}", i + 1));
            ckt.resistor(&format!("R{i}"), prev, node, r);
            prev = node;
        }
        // Tie the ladder end to ground so current flows.
        ckt.resistor("Rend", prev, Netlist::GROUND, 1e3);
        let sol = ckt.solve_dc().expect("ladder must solve");
        // Current through the chain is v / total R; check each drop. The
        // solver's error budget is its KCL residual tolerance (1e-10 A)
        // times the circuit impedance, plus the residual Gmin loading.
        let total: f64 = resistances.iter().sum::<f64>() + 1e3;
        let tol = 5.0 * (1e-10 * total + 1e-12 * total * v_src + 1e-9 * v_src);
        let i_chain = v_src / total;
        let mut v_expected = v_src;
        for (i, &r) in resistances.iter().enumerate() {
            v_expected -= i_chain * r;
            let node = ckt.find_node(&format!("n{}", i + 1)).expect("node exists");
            prop_assert!(
                (sol.voltage(node) - v_expected).abs() < tol,
                "node {} off: {} vs {}", i + 1, sol.voltage(node), v_expected
            );
        }
    }

    /// March C- detects every randomly placed stuck-at fault, and the BIST
    /// column count matches the distinct faulty columns.
    #[test]
    fn march_detects_all_stuck_at(
        faults in prop::collection::btree_set((0usize..16, 0usize..16, any::<bool>()), 1..10)
    ) {
        let mut mem = MemoryModel::new(16, 16);
        let mut cols = std::collections::BTreeSet::new();
        let mut cells = std::collections::BTreeSet::new();
        for &(r, c, v) in &faults {
            if cells.insert((r, c)) {
                mem.inject(Fault { row: r, col: c, kind: FaultKind::StuckAt(v) });
                cols.insert(c);
            }
        }
        let report = BistController::new()
            .run(&MarchTest::march_c_minus(), &mut mem)
            .unwrap();
        prop_assert_eq!(report.faulty_columns(), cols.len());
        for &(r, c) in &cells {
            prop_assert!(
                report.march_result().failures.iter().any(|f| f.row == r && f.col == c),
                "stuck-at at ({r},{c}) missed"
            );
        }
    }

    /// Memory failure probability is monotone in the cell failure
    /// probability and anti-monotone in redundancy.
    #[test]
    fn redundancy_model_monotonicity(
        p1 in 1e-8f64..1e-3,
        factor in 1.0f64..100.0,
        spares in 0usize..20,
    ) {
        let org_a = ArrayOrganization::new(128, 256, spares);
        let org_b = ArrayOrganization::new(128, 256, spares + 4);
        let p2 = (p1 * factor).min(1.0);
        prop_assert!(org_a.memory_failure_prob(p2) >= org_a.memory_failure_prob(p1) - 1e-12);
        prop_assert!(org_b.memory_failure_prob(p1) <= org_a.memory_failure_prob(p1) + 1e-12);
    }

    /// The retention-fault model is monotone in the source bias: raising
    /// VSB can only expose more faulty columns.
    #[test]
    fn retention_monotone_in_vsb(
        thresholds in prop::collection::vec((0usize..8, 0usize..8, 0.1f64..0.7), 1..12)
    ) {
        let build = || {
            let mut mem = MemoryModel::new(8, 8);
            let mut seen = std::collections::BTreeSet::new();
            for &(r, c, t) in &thresholds {
                if seen.insert((r, c)) {
                    mem.inject(Fault { row: r, col: c, kind: FaultKind::Retention { min_vsb: t } });
                }
            }
            mem
        };
        let bist = BistController::new();
        let march = MarchTest::march_c_minus();
        let mut prev = 0usize;
        for k in 0..8 {
            let vsb = k as f64 * 0.1;
            let mut mem = build();
            mem.set_vsb(vsb);
            let faulty = bist.run(&march, &mut mem).unwrap().faulty_columns();
            prop_assert!(faulty >= prev, "vsb {vsb}: {faulty} < {prev}");
            prev = faulty;
        }
    }
}
