//! Golden tests for the semantic rules: `analyze_tree` over the committed
//! fixture trees finds exactly the seeded violations (position-exact), the
//! interprocedural finding names its call chain, output is deterministic
//! across runs, and one sink-side allow silences a reachability finding
//! for every caller at once.

use pvtm_lint::{analyze_tree, RuleId, TreeLint};
use std::path::Path;

fn sema_tree() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sema_tree"
    ))
}

fn allow_tree() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sema_allow_tree"
    ))
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

#[test]
fn semantic_rules_fire_position_exact_on_the_fixture_tree() {
    let tree = analyze_tree(sema_tree()).expect("fixture tree is committed and readable");
    assert_eq!(tree.files_scanned, 7);

    let knobs = include_str!("fixtures/sema_tree/crates/mcplan/src/knobs.rs");
    let lib = include_str!("fixtures/sema_tree/crates/mcplan/src/lib.rs");
    let reduce = include_str!("fixtures/sema_tree/crates/mcplan/src/reduce.rs");
    let streams = include_str!("fixtures/sema_tree/crates/mcplan/src/streams.rs");
    let telem = include_str!("fixtures/sema_tree/crates/mcplan/src/telemetry_names.rs");
    let want: Vec<(&str, u32, u32, RuleId)> = vec![
        // Two-way knob diff: a documented-but-never-read ghost entry...
        (
            "crates/mcplan/src/knobs.rs",
            8,
            col_of(knobs, 8, "\"PVTM_FIXTURE_GHOST"),
            RuleId::KnobCoverage,
        ),
        // ...and a read-but-undocumented rogue knob.
        (
            "crates/mcplan/src/knobs.rs",
            17,
            col_of(knobs, 17, "\"PVTM_FIXTURE_ROGUE"),
            RuleId::KnobCoverage,
        ),
        // Interprocedural unwrap chain, anchored at the sink.
        (
            "crates/mcplan/src/lib.rs",
            12,
            col_of(lib, 12, "unwrap"),
            RuleId::PanicPolicy,
        ),
        // Parallel float sum and reduce outside the Summary::merge idiom.
        (
            "crates/mcplan/src/reduce.rs",
            8,
            col_of(reduce, 8, "sum"),
            RuleId::NondetReduction,
        ),
        (
            "crates/mcplan/src/reduce.rs",
            13,
            col_of(reduce, 13, "reduce"),
            RuleId::NondetReduction,
        ),
        // Literal (seed, stream) collision: the second site is flagged.
        (
            "crates/mcplan/src/streams.rs",
            10,
            col_of(streams, 10, "substream"),
            RuleId::RngStreamDiscipline,
        ),
        // RNG captured across a parallel-closure boundary.
        (
            "crates/mcplan/src/streams.rs",
            17,
            col_of(streams, 17, "rng"),
            RuleId::RngStreamDiscipline,
        ),
        // Chunk-loop stream-id reuse: the second loop's site is flagged.
        (
            "crates/mcplan/src/streams.rs",
            27,
            col_of(streams, 27, "substream"),
            RuleId::RngStreamDiscipline,
        ),
        // RNG captured by the closure of a sweep, whose receiver is no
        // rayon chain.
        (
            "crates/mcplan/src/streams.rs",
            35,
            col_of(streams, 35, "rng"),
            RuleId::RngStreamDiscipline,
        ),
        // Const-routed telemetry name, resolved and rejected.
        (
            "crates/mcplan/src/telemetry_names.rs",
            9,
            col_of(telem, 9, "span"),
            RuleId::TelemetryTaxonomy,
        ),
    ];
    let got: Vec<(&str, u32, u32, RuleId)> = tree
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.col, d.rule))
        .collect();
    assert_eq!(got, want, "diagnostics: {:#?}", tree.diagnostics);

    let msg = |i: usize| tree.diagnostics[i].message.as_str();
    // The reachability finding names the shortest route from the policy API.
    assert!(
        msg(2).contains("pvtm_sram::margin_estimate -> pvtm_mcplan::robust_mean"),
        "{}",
        msg(2)
    );
    // The collision cites its anchor site; the loop reuse cites the first
    // loop; the taxonomy finding attributes the resolved const.
    assert!(
        msg(5).contains("crates/mcplan/src/streams.rs:9"),
        "{}",
        msg(5)
    );
    assert!(msg(7).contains("the loop at line 23"), "{}", msg(7));
    assert!(
        msg(9).contains("resolved through const `STAGE_SPAN`"),
        "{}",
        msg(9)
    );
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let render = |t: &TreeLint| {
        t.diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    let a = analyze_tree(sema_tree()).expect("fixture tree is committed and readable");
    let b = analyze_tree(sema_tree()).expect("fixture tree is committed and readable");
    assert_eq!(render(&a), render(&b));
}

#[test]
fn a_sink_side_allow_covers_every_caller() {
    // The allow tree has a policy entry point reaching an `unwrap` in a
    // helper crate; the single allow at the sink suppresses the finding
    // (and is counted as used, so no stale-allow report either).
    let tree = analyze_tree(allow_tree()).expect("fixture tree is committed and readable");
    assert_eq!(tree.files_scanned, 2);
    assert_eq!(tree.diagnostics, vec![], "expected a clean allow tree");
}
