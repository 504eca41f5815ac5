//! The live `/healthz` verdict uses fixed thresholds; they must be the
//! `"default"` entry of the checked-in `health-budgets.json`, which
//! `pvtm-trace health` applies to figures without an entry of their own.

use pvtm_telemetry::snapshot::{
    HEALTHZ_MAX_QUARANTINE_CI_SHARE, HEALTHZ_MAX_STALL_RATIO, HEALTHZ_MAX_WEIGHT_FRACTION,
    HEALTHZ_MIN_ESS_FRACTION,
};
use pvtm_trace::health::{HealthEntry, DEFAULT_ENTRY};
use pvtm_trace::HealthBudgets;

#[test]
fn healthz_thresholds_are_the_default_health_budget() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../health-budgets.json");
    let text = std::fs::read_to_string(path).expect("health-budgets.json is checked in");
    let budgets = HealthBudgets::parse(&text).expect("health-budgets.json parses");
    assert_eq!(
        budgets.entries[DEFAULT_ENTRY],
        HealthEntry {
            min_ess_fraction: HEALTHZ_MIN_ESS_FRACTION,
            max_weight_fraction: HEALTHZ_MAX_WEIGHT_FRACTION,
            max_stall_ratio: HEALTHZ_MAX_STALL_RATIO,
            max_quarantine_ci_share: HEALTHZ_MAX_QUARANTINE_CI_SHARE,
        }
    );
}
