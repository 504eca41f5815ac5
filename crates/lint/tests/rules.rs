//! Golden fixture tests: every rule fires on its seeded-violation fixture
//! with exact positions, the suppression machinery behaves, the lexer edge
//! cases stay silent, and the walker works end to end on the committed
//! fixture tree. Each fixture is linted as one in-memory file through the
//! full pass, at the path its rule scoping needs.

use pvtm_lint::{analyze, analyze_tree, Diagnostic, FileUnit, RuleId};
use std::path::Path;

fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    analyze(&[FileUnit::new(rel, src)]).diagnostics
}

/// 1-based column of `needle` on 1-based `line` of `src`.
fn col_of(src: &str, line: u32, needle: &str) -> u32 {
    let text = src
        .lines()
        .nth(line as usize - 1)
        .unwrap_or_else(|| panic!("fixture has no line {line}"));
    text.find(needle)
        .unwrap_or_else(|| panic!("{needle:?} not on line {line}: {text:?}")) as u32
        + 1
}

/// Asserts `diags` matches `expected` — (line, col-needle, rule) triples —
/// exactly and in order.
fn assert_diags(src: &str, diags: &[Diagnostic], expected: &[(u32, &str, RuleId)]) {
    let got: Vec<(u32, u32, RuleId)> = diags.iter().map(|d| (d.line, d.col, d.rule)).collect();
    let want: Vec<(u32, u32, RuleId)> = expected
        .iter()
        .map(|&(line, needle, rule)| (line, col_of(src, line, needle), rule))
        .collect();
    assert_eq!(got, want, "diagnostics: {diags:#?}");
}

#[test]
fn no_float_eq_fires_on_fixture() {
    let src = include_str!("fixtures/no_float_eq.rs");
    let diags = lint_source("crates/x/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            (4, "==", RuleId::NoFloatEq),
            (8, "!=", RuleId::NoFloatEq),
            (12, "==", RuleId::NoFloatEq),
            // Feature-gated, so shipped; line 30 is under
            // `#[cfg(all(test, unix))]`.
            (25, "==", RuleId::NoFloatEq),
        ],
    );
    // `== 0.0` gets the dedicated sentinel fix-hint; the others do not.
    assert!(
        diags[0].message.contains("sentinel"),
        "{}",
        diags[0].message
    );
    assert!(
        !diags[1].message.contains("sentinel"),
        "{}",
        diags[1].message
    );
}

#[test]
fn panic_policy_fires_on_fixture() {
    let src = include_str!("fixtures/panic_policy.rs");
    let diags = lint_source("crates/sram/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            (6, "panic", RuleId::PanicPolicy),
            (11, "unwrap", RuleId::PanicPolicy),
            (15, "expect", RuleId::PanicPolicy),
            // Inside a closure, a private `impl` method, and behind a
            // path-qualified macro.
            (26, "unwrap", RuleId::PanicPolicy),
            (33, "expect", RuleId::PanicPolicy),
            (38, "unimplemented", RuleId::PanicPolicy),
        ],
    );
    // Outside the policy crates the same file is quiet.
    assert!(lint_source("crates/bench/src/seeded.rs", src).is_empty());
}

#[test]
fn panic_policy_sees_multiline_expect_messages() {
    let src = include_str!("fixtures/expect_multiline.rs");
    let diags = lint_source("crates/sram/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            (5, "expect", RuleId::PanicPolicy),
            (11, "expect", RuleId::PanicPolicy),
        ],
    );
    // The ≥3-word invariant message stays allowed even when split across
    // lines, and the same file outside the policy crates is quiet.
    assert!(lint_source("crates/bench/src/seeded.rs", src).is_empty());
}

#[test]
fn telemetry_taxonomy_fires_on_fixture() {
    let src = include_str!("fixtures/telemetry_taxonomy.rs");
    let diags = lint_source("crates/x/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            (4, "counter_add", RuleId::TelemetryTaxonomy),
            (8, "span", RuleId::TelemetryTaxonomy),
            (12, "gauge_set", RuleId::TelemetryTaxonomy),
        ],
    );
    assert!(
        diags[0].message.contains("frobnicator"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[1].message.contains("dotted lowercase"),
        "{}",
        diags[1].message
    );
    assert!(
        diags[2].message.contains("non-literal"),
        "{}",
        diags[2].message
    );
}

#[test]
fn knob_coverage_audits_env_reads_on_fixture() {
    let src = include_str!("fixtures/no_env_read.rs");
    let diags = lint_source("crates/x/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            (4, "var", RuleId::KnobCoverage),
            // A parameter: nothing to resolve.
            (8, "var", RuleId::KnobCoverage),
            // A literal of any shape is judged at the read.
            (18, "var", RuleId::KnobCoverage),
            // A knob-shaped name routed through a const: once, where the
            // const spells it, not again at its read on line 25.
            (22, "\"PVTM_ROUTED_KNOB", RuleId::KnobCoverage),
            // A const-routed name of any other shape: at the read.
            (32, "var_os", RuleId::KnobCoverage),
            // A knob-shaped string in feature-gated code; the one under
            // `#[cfg(all(test, unix))]` on line 46 is test context.
            (43, "\"PVTM_FEATURE_KNOB", RuleId::KnobCoverage),
        ],
    );
    assert!(
        diags[0].message.contains("PVTM_SECRET_KNOB"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[4].message.contains("through const `ROUTED_NAME`"),
        "{}",
        diags[4].message
    );
}

#[test]
fn an_undocumented_literal_env_read_is_one_finding() {
    let src = "pub fn f() -> bool {\n    std::env::var(\"PVTM_SECRET_KNOB\").is_ok()\n}\n";
    let diags = lint_source("crates/x/src/seeded.rs", src);
    assert_diags(src, &diags, &[(2, "var", RuleId::KnobCoverage)]);
}

#[test]
fn suppression_fixture_behaves() {
    let src = include_str!("fixtures/suppression.rs");
    let diags = lint_source("crates/x/src/seeded.rs", src);
    assert_diags(
        src,
        &diags,
        &[
            // Reason-less allow: the violation stays...
            (14, "==", RuleId::NoFloatEq),
            // ...and the allow itself is flagged.
            (14, "// pvtm-lint", RuleId::LintAllow),
            (17, "// pvtm-lint", RuleId::LintAllow),
            (20, "// pvtm-lint", RuleId::LintAllow),
            (23, "// pvtm-lint", RuleId::LintAllow),
        ],
    );
    assert!(
        diags[1].message.contains("without a reason"),
        "{}",
        diags[1].message
    );
    assert!(
        diags[2].message.contains("unknown rule"),
        "{}",
        diags[2].message
    );
    assert!(diags[3].message.contains("stale"), "{}", diags[3].message);
    assert!(
        diags[4].message.contains("malformed"),
        "{}",
        diags[4].message
    );
}

#[test]
fn lexer_edge_cases_stay_silent() {
    let src = include_str!("fixtures/lexer_edges.rs");
    let diags = lint_source("crates/sram/src/seeded.rs", src);
    assert_eq!(diags, vec![], "strings/comments must not produce findings");
}

fn fixture_tree() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tree"))
}

#[test]
fn walker_lints_the_fixture_tree() {
    // The tree also holds seeded violations under `crates/sram/tests/` and
    // `crates/sram/benches/`: the walk skips both directories.
    let tree = analyze_tree(fixture_tree()).expect("fixture tree is committed and readable");
    assert_eq!(tree.files_scanned, 2);
    let pairs: Vec<(&str, RuleId)> = tree
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.rule))
        .collect();
    assert_eq!(
        pairs,
        vec![
            ("crates/sram/src/bad.rs", RuleId::PanicPolicy),
            ("src/bad_env.rs", RuleId::TelemetryTaxonomy),
            ("src/bad_env.rs", RuleId::KnobCoverage),
            ("src/bad_env.rs", RuleId::NoFloatEq),
        ],
    );
}
