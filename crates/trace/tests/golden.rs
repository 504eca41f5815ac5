//! Golden-fixture tests: checked-in sidecars run through report/diff/check
//! and must reproduce the checked-in output byte-for-byte. The fixtures
//! are clock-gated (`"clock": false`) sidecars exactly as the writer
//! writes them, like the ones the CI perf-budget job compares, so these
//! goldens double as format contracts.
//!
//! To regenerate after an intentional output change:
//! `cargo test -p pvtm-trace --test golden -- --ignored bless`

use pvtm_telemetry::Sidecar;
use pvtm_trace::{
    check, diff, folded_stacks, health_check, hot_span_table, update_budgets,
    update_health_budgets, Budgets, HealthBudgets,
};

const BASE: &str = include_str!("fixtures/fig_quick.telemetry.json");
const REGRESSED: &str = include_str!("fixtures/fig_quick_regressed.telemetry.json");
const BUDGETS: &str = include_str!("fixtures/perf-budgets.json");
const HEALTHY: &str = include_str!("fixtures/fig_health.telemetry.json");
const LOW_ESS: &str = include_str!("fixtures/fig_low_ess.telemetry.json");
const HEALTH_BUDGETS: &str = include_str!("fixtures/health-budgets.json");

fn base() -> Sidecar {
    Sidecar::parse(BASE).expect("base fixture parses")
}

fn regressed() -> Sidecar {
    Sidecar::parse(REGRESSED).expect("regressed fixture parses")
}

fn budgets() -> Budgets {
    Budgets::parse(BUDGETS).expect("budgets fixture parses")
}

fn healthy() -> Sidecar {
    Sidecar::parse(HEALTHY).expect("healthy fixture parses")
}

fn low_ess() -> Sidecar {
    Sidecar::parse(LOW_ESS).expect("low-ESS fixture parses")
}

fn health_budgets() -> HealthBudgets {
    HealthBudgets::parse(HEALTH_BUDGETS).expect("health-budgets fixture parses")
}

fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} — run the bless test",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "output drifted from golden {name}; if intentional, re-bless with \
         `cargo test -p pvtm-trace --test golden -- --ignored bless`"
    );
}

#[test]
fn fixtures_are_what_the_writer_writes() {
    for text in [BASE, REGRESSED, HEALTHY, LOW_ESS] {
        let sc = Sidecar::parse(text).expect("fixture parses");
        assert_eq!(sc.report.to_json_pretty(&sc.id), text);
    }
}

#[test]
fn report_table_matches_golden() {
    let sc = base();
    assert_golden("report.golden.txt", &hot_span_table(&sc.id, &sc.report, 30));
}

#[test]
fn report_folded_matches_golden() {
    assert_golden("folded.golden.txt", &folded_stacks(&base().report));
}

#[test]
fn diff_matches_golden_and_fails_on_regression() {
    let out = diff(&base(), &regressed(), 0.2);
    assert!(out.failed(), "more Newton work must fail the diff");
    assert_golden("diff.golden.txt", &out.text);
}

#[test]
fn diff_of_identical_sidecars_passes() {
    let out = diff(&base(), &base(), 0.2);
    assert!(!out.failed());
    assert_eq!(out.counter_changes, 0);
}

#[test]
fn check_passes_base_fixture_against_budgets() {
    let out = check(&budgets(), &[base()]);
    assert!(
        !out.failed(),
        "budgets must match the base fixture:\n{}",
        out.text
    );
    assert_eq!(out.slack_notes, 0, "budgets are an exact ratchet");
}

#[test]
fn check_fails_regressed_fixture_against_budgets() {
    let out = check(&budgets(), &[regressed()]);
    assert!(out.failed(), "inflated counters must violate the budget");
    assert_golden("check-fail.golden.txt", &out.text);
}

#[test]
fn health_passes_healthy_fixture_against_budgets() {
    let out = health_check(&health_budgets(), &[healthy()]);
    assert!(
        !out.failed(),
        "health budgets must match the healthy fixture:\n{}",
        out.text
    );
    assert_golden("health.golden.txt", &out.text);
}

#[test]
fn health_fails_low_ess_fixture_against_the_fallback() {
    // fig_low_ess has no per-figure entry, so the fallback thresholds
    // (`HealthEntry::FALLBACK`, reported as "default") apply — and its
    // seeded weight degeneracy must trip every axis.
    let out = health_check(&health_budgets(), &[low_ess()]);
    assert!(out.failed(), "seeded low-ESS fixture must fail the gate");
    assert!(out.text.contains("LOW_ESS"), "{}", out.text);
    assert!(out.text.contains("WEIGHT_DEGENERATE"), "{}", out.text);
    assert!(out.text.contains("STALLED"), "{}", out.text);
    assert_golden("health-fail.golden.txt", &out.text);
}

#[test]
fn health_budgets_fixture_is_the_update_fixpoint() {
    // --update-budgets on the healthy sidecar, starting from no budgets,
    // must reproduce the checked-in health-budgets fixture.
    let next = update_health_budgets(&HealthBudgets::default(), &[healthy()]);
    assert_eq!(next.to_json_pretty(), HEALTH_BUDGETS);
}

#[test]
fn budgets_fixture_is_the_update_fixpoint() {
    // --update-budgets on the base sidecar must reproduce the checked-in
    // budgets file exactly (same semantics as re-recording a baseline).
    let next = update_budgets(&Budgets::default(), &[base()]);
    assert_eq!(next.to_json_pretty(), BUDGETS);
}

/// Regenerates every golden from the current output. Run explicitly:
/// `cargo test -p pvtm-trace --test golden -- --ignored bless`
#[test]
#[ignore = "writes the golden files; run explicitly to re-bless"]
fn bless() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let sc = base();
    std::fs::write(
        dir.join("report.golden.txt"),
        hot_span_table(&sc.id, &sc.report, 30),
    )
    .unwrap();
    std::fs::write(dir.join("folded.golden.txt"), folded_stacks(&sc.report)).unwrap();
    std::fs::write(
        dir.join("diff.golden.txt"),
        diff(&base(), &regressed(), 0.2).text,
    )
    .unwrap();
    std::fs::write(
        dir.join("check-fail.golden.txt"),
        check(&budgets(), &[regressed()]).text,
    )
    .unwrap();
    let hb = update_health_budgets(&HealthBudgets::default(), &[healthy()]);
    std::fs::write(dir.join("health-budgets.json"), hb.to_json_pretty()).unwrap();
    std::fs::write(
        dir.join("health.golden.txt"),
        health_check(&hb, &[healthy()]).text,
    )
    .unwrap();
    std::fs::write(
        dir.join("health-fail.golden.txt"),
        health_check(&hb, &[low_ess()]).text,
    )
    .unwrap();
}
