//! Oracle for the cold ladder: what each fault-injection depth does to
//! three inverter solves, bit for bit.
//!
//! [`fault::force_depth`] fails the first `depth` strategy entries of a
//! solve: the warm attempt when the template holds a seed, then the
//! ladder's rungs in order. At depth `d` the solve's `d + 1`-th entry is
//! the first to run for real, so depths 0–7 reach every rung of a cold
//! and of a warm solve and run past the last one. For each depth the
//! table holds, for a cold first solve, a warm second solve and a warm
//! [`CircuitTemplate::solve_trip`], whether the solve succeeded, the 13
//! solver counters it added (sidecar order) and the bits of the input
//! and output voltages it left. The values were recorded from the ladder
//! written as two modules (three standard strategies, then a three-rung
//! rescue ladder) that the one table replaced.

use crate::netlist::NodeId;
use crate::template::CircuitTemplate;
use crate::FAULT_LOCK;
use pvtm_telemetry::fault;

/// One injected solve: success, the counters it added, and the bits of
/// the input and output voltages it left.
type Outcome = (bool, [u64; 13], [u64; 2]);

/// Runs `solve` on `tpl` with every strategy entry up to `depth` failed.
fn injected(
    tpl: &mut CircuitTemplate,
    depth: u32,
    nodes: [NodeId; 2],
    solve: impl FnOnce(&mut CircuitTemplate) -> bool,
) -> Outcome {
    let _g = fault::force_depth(depth);
    let before = *tpl.stats();
    let ok = solve(tpl);
    let added = tpl.stats().delta_since(&before).counters().map(|(_, v)| v);
    (ok, added, nodes.map(|n| tpl.voltage(n).to_bits()))
}

/// The cold, warm and trip outcomes at one depth. Clean solves between
/// them seed the warm ones.
fn outcomes(depth: u32) -> [Outcome; 3] {
    let (mut tpl, out) = super::tests::inverter_template();
    let nodes = [tpl.node("in").unwrap(), out];
    let vin = tpl.vsource_slot("VIN").unwrap();
    let cold = injected(&mut tpl, depth, nodes, |t| t.solve().is_ok());
    tpl.solve().unwrap();
    tpl.set_vsource(vin, 0.3).unwrap();
    let warm = injected(&mut tpl, depth, nodes, |t| t.solve().is_ok());
    tpl.set_vsource(vin, 0.0).unwrap();
    tpl.solve().unwrap();
    let trip = injected(&mut tpl, depth, nodes, |t| {
        t.solve_trip(vin, out, 0.5, 0.5).is_ok()
    });
    [cold, warm, trip]
}

/// [cold, warm, trip] outcomes by depth.
#[rustfmt::skip]
const RECORDED: [[Outcome; 3]; 8] = [
    // Depth 0.
    [
        (true, [1, 16, 16, 0, 0, 1, 0, 0, 6, 0, 0, 0, 0], [0x0000000000000000, 0x3fefff905ee9f6a3]),
        (true, [1, 4, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0x3fd3333333333333, 0x3feef5495db335e7]),
        (true, [1, 6, 6, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0x3fdcc8892a958ecd, 0x3fe0000000000000]),
    ],
    // Depth 1.
    [
        (true, [1, 45, 45, 0, 0, 1, 1, 0, 6, 0, 0, 0, 0], [0x0000000000000000, 0x3fefff905ee9f6a3]),
        (true, [1, 17, 17, 1, 0, 1, 0, 0, 6, 0, 0, 0, 0], [0x3fd3333333333333, 0x3feef549455c4ef0]),
        (true, [1, 18, 18, 1, 0, 1, 0, 0, 6, 0, 0, 0, 0], [0x3fdcc8892a9557df, 0x3fe0000000000000]),
    ],
    // Depth 2.
    [
        (true, [1, 108, 108, 0, 0, 1, 1, 1, 24, 4, 0, 0, 0], [0x0000000000000000, 0x3fefff905ee9f6a4]),
        (true, [1, 46, 46, 1, 0, 1, 1, 0, 6, 0, 0, 0, 0], [0x3fd3333333333333, 0x3feef549455c4ef2]),
        (true, [1, 34, 34, 1, 0, 1, 1, 0, 6, 0, 0, 0, 0], [0x3fdcc8892a9557de, 0x3fe0000000000000]),
    ],
    // Depth 3.
    [
        (true, [1, 20, 20, 0, 0, 1, 1, 1, 11, 0, 1, 1, 1], [0x0000000000000000, 0x3fefff8fce5fd069]),
        (true, [1, 112, 112, 1, 0, 1, 1, 1, 24, 4, 0, 0, 0], [0x3fd3333333333333, 0x3feef549455c4ef2]),
        (true, [1, 59, 59, 1, 0, 1, 1, 1, 24, 4, 0, 0, 0], [0x3fdcc8892a9557de, 0x3fe0000000000000]),
    ],
    // Depth 4.
    [
        (true, [1, 213, 213, 0, 0, 1, 1, 1, 48, 8, 1, 1, 2], [0x0000000000000000, 0x3fefff905ee9f6a3]),
        (true, [1, 22, 22, 1, 0, 1, 1, 1, 11, 0, 1, 1, 1], [0x3fd3333333333333, 0x3feef54851e65bcd]),
        (true, [1, 23, 23, 1, 0, 1, 1, 1, 11, 0, 1, 1, 1], [0x3fdcc8892a9557de, 0x3fe0000000000000]),
    ],
    // Depth 5.
    [
        (true, [1, 199, 199, 0, 0, 1, 1, 1, 11, 0, 1, 1, 3], [0x0000000000000000, 0x3fefff8fce5fd069]),
        (true, [1, 219, 219, 1, 0, 1, 1, 1, 48, 8, 1, 1, 2], [0x3fd3333333333333, 0x3feef549455c4ef0]),
        (true, [1, 96, 96, 1, 0, 1, 1, 1, 48, 8, 1, 1, 2], [0x3fdcc8892a9557df, 0x3fe0000000000000]),
    ],
    // Depth 6.
    [
        (false, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 3], [0x0000000000000000, 0x0000000000000000]),
        (true, [1, 201, 201, 1, 0, 1, 1, 1, 11, 0, 1, 1, 3], [0x3fd3333333333333, 0x3feef54851e65bce]),
        (true, [1, 124, 124, 1, 0, 1, 1, 1, 11, 0, 1, 1, 3], [0x3fdcc8892a9557de, 0x3fe0000000000000]),
    ],
    // Depth 7.
    [
        (false, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 3], [0x0000000000000000, 0x0000000000000000]),
        (false, [0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 3], [0x0000000000000000, 0x0000000000000000]),
        (false, [0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 3], [0x0000000000000000, 0x0000000000000000]),
    ],
];

#[test]
fn every_depth_matches_the_recorded_ladder() {
    let _l = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (depth, want) in (0..).zip(RECORDED) {
        for (which, (got, want)) in ["cold", "warm", "trip"]
            .into_iter()
            .zip(outcomes(depth).into_iter().zip(want))
        {
            assert_eq!(got, want, "depth {depth}, {which} solve");
        }
    }
}
