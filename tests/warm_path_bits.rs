//! The warm solver path, pinned bit for bit.
//!
//! Every figure solves its cells warm, but the benchmark's goldens check
//! those solves only to a relative 1e-4, and `pvtm-sram`'s
//! `warm_cold_agreement` pins only cold evaluators. These values pin the
//! warm path as `f64` bit patterns: quick fig2b's rows (all four
//! mechanisms through all four cell templates, with the bordered trip
//! solves), the hold linearization at the nominal corner and VSB 0.74 V
//! (the worst-conditioned hold trip of the ASB grid), and one transient
//! access time. They were recorded from the Newton kernel whose Jacobian
//! pass differenced every MOSFET terminal; a Jacobian that leaves out the
//! columns of source-pinned nodes must reproduce them exactly.

use pvtm::experiments::{fig2b, Effort};
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, CellEvaluator, CellSizing, Conditions, FailureAnalyzer, SramCell};

/// Quick fig2b, row by row: body bias, read, write, access, hold, overall.
#[rustfmt::skip]
const FIG2B: [[u64; 6]; 5] = [
    [0xbfe3333333333333, 0x3e159865f1c8b034, 0x3f3b867eba19e2d5, 0x3f711aa63a88992d, 0x3e6c2c1e88fe37c8, 0x3f72d145b5b1be00],
    [0xbfd3333333333333, 0x3e594e74336def54, 0x3f01b60fada94c4e, 0x3f25f32e8d92843f, 0x3e30cd9f79b2c15f, 0x3f2a616de369d000],
    [0x0000000000000000, 0x3e98fb3985d12455, 0x3eb57f77edbe8c9c, 0x3eb5b9c5c930cf11, 0x3df66f3beab19fe9, 0x3ec8bcb815700000],
    [0x3fd3333333333332, 0x3ed7c4466e28136d, 0x3e535a6cd5ce81fd, 0x3e06fa99a8944d74, 0x3e3c32c426b8518b, 0x3ed7df6556c20000],
    [0x3fe3333333333333, 0x3f1d185a04ef5f3b, 0x3dd0f6b438fec559, 0x3ce06b7043aa2195, 0x3e8bb8e26d8e84d4, 0x3f1d263720b90000],
];

/// `linearize_hold` at the nominal corner and VSB 0.74 V: the `ln(droop)`
/// model (nominal, then the six sensitivities), then the allowed-droop
/// model likewise.
#[rustfmt::skip]
const HOLD_074: [u64; 14] = [
    0xc022fdb8cedb9c51, 0xbff2a7f62ca970a0, 0x3f749f1a1bbf2800, 0x401099d2344d0234,
    0x3facf57a31dd3280, 0xbd69f80000000000, 0xbd96bb0000000000,
    0x3fbe935280000000, 0x0000000000000000, 0xbf9af9c600000000, 0x0000000000000000,
    0x3fa1a27700000000, 0x0000000000000000, 0x0000000000000000,
];

/// The nominal cell's transient access time in active mode (53.0 ps).
const ACCESS_TRANSIENT: u64 = 0x3dcd2605cbe25be4;

fn bits<const N: usize>(v: [f64; N]) -> [u64; N] {
    v.map(f64::to_bits)
}

#[test]
fn quick_fig2b_rows_are_pinned() {
    let rows = fig2b(Effort::quick()).unwrap().rows;
    assert_eq!(rows.len(), FIG2B.len());
    for (r, want) in rows.iter().zip(FIG2B) {
        let got = bits([r.body_bias, r.read, r.write, r.access, r.hold, r.overall]);
        assert_eq!(got, want, "body bias {}", r.body_bias);
    }
}

#[test]
fn hold_linearization_at_the_worst_conditioned_trip_is_pinned() {
    let t = Technology::predictive_70nm();
    let fa = FailureAnalyzer::new(&t, CellSizing::default_for(&t), AnalysisConfig::default());
    let h = fa
        .linearize_hold(0.0, &Conditions::standby(&t, 0.74))
        .unwrap();
    let mut got = [0.0; 14];
    for (k, m) in [h.ln_droop, h.allowed].iter().enumerate() {
        got[7 * k] = m.nominal;
        got[7 * k + 1..7 * k + 7].copy_from_slice(&m.sensitivity);
    }
    assert_eq!(bits(got), HOLD_074);
}

#[test]
fn transient_access_time_is_pinned() {
    let t = Technology::predictive_70nm();
    let ev = CellEvaluator::new(AnalysisConfig::default(), &SramCell::nominal(&t));
    let access = ev.access_time_transient(&Conditions::active(&t)).unwrap();
    assert_eq!(access.to_bits(), ACCESS_TRANSIENT, "{access:e}");
}
