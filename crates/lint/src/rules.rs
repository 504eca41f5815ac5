//! Rule ids, diagnostics, the shared registries, the lexical rule and
//! suppression handling.
//!
//! `no-float-eq` is lexical by nature: an operator next to a literal is the
//! whole defect, so it walks the token stream produced by
//! [`crate::lexer`]. It does not parse Rust, so it is written to *miss*
//! rather than crash or false-positive when it meets grammar it does not
//! model. Every other rule lives in [`crate::sema`]. The escape hatch for
//! deliberate violations is a `// pvtm-lint: allow(rule-id) reason`
//! comment on the offending line or the line above; the reason is
//! mandatory and stale allows are reported.

use crate::ast::FileAst;
use crate::lexer::{Allow, Tok, TokKind};
use std::fmt;

/// Stable identifiers of the lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `==`/`!=` against floating-point expressions.
    NoFloatEq,
    /// Panic sinks in the policy crates' library code, and sinks elsewhere
    /// that the policy crates' public API reaches on the call graph.
    PanicPolicy,
    /// Telemetry names (literal or const-resolved) outside the §5b/§5d
    /// taxonomy, and names that cannot be resolved.
    TelemetryTaxonomy,
    /// `substream(seed, stream)` collisions, RNGs captured across
    /// parallel-closure boundaries, stream-id reuse across chunk loops.
    RngStreamDiscipline,
    /// Float accumulation in parallel chains not routed through an
    /// order-fixed merge.
    NondetReduction,
    /// Two-way diff of environment reads against the documented registry.
    KnobCoverage,
    /// Malformed, unknown, reason-less or stale suppression comments.
    LintAllow,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::NoFloatEq,
    RuleId::PanicPolicy,
    RuleId::TelemetryTaxonomy,
    RuleId::RngStreamDiscipline,
    RuleId::NondetReduction,
    RuleId::KnobCoverage,
    RuleId::LintAllow,
];

impl RuleId {
    /// Stable kebab-case id used in diagnostics and allows.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::NoFloatEq => "no-float-eq",
            RuleId::PanicPolicy => "panic-policy",
            RuleId::TelemetryTaxonomy => "telemetry-taxonomy",
            RuleId::RngStreamDiscipline => "rng-stream-discipline",
            RuleId::NondetReduction => "nondet-reduction",
            RuleId::KnobCoverage => "knob-coverage",
            RuleId::LintAllow => "lint-allow",
        }
    }

    /// Parses a kebab-case rule id.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: `file:line:col [rule-id] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable description with a fix hint.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Environment knobs the workspace documents (README / DESIGN.md); the only
/// names `env::var` may read outside test code.
pub const DOCUMENTED_ENV_KNOBS: &[&str] = &[
    "PVTM_TELEMETRY",
    "PVTM_TELEMETRY_CLOCK",
    "PVTM_QUIET",
    "PVTM_EFFORT",
    "PVTM_RESULTS_DIR",
    "PVTM_FAULT_SEED",
    "PVTM_FAULT_RATE",
    "PVTM_MAX_QUARANTINE",
];

/// First path segments of valid span / trace-scope names (DESIGN.md §5b:
/// one span per reproduced figure or experiment, plus the component spans).
pub const SPAN_ROOTS: &[&str] = &[
    "fig2a",
    "fig2b",
    "fig2c",
    "fig3",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "scaling",
    "ablation_monitor",
    "ablation_dac",
    "ablation_bias_levels",
    "ablation_march",
    "ablation_temperature",
    "analyzer",
    "eval",
    "dc",
    "mc",
    "headline",
];

/// First dotted segments of valid counter/gauge/histogram names
/// (DESIGN.md §5b: solver counters, Monte-Carlo estimator health, evaluator
/// and analyzer accounting, sampled leakage cells, bench harness).
pub const METRIC_ROOTS: &[&str] = &["solver", "mc", "eval", "analyzer", "leak", "bench"];

/// First dotted segments of valid event-journal kinds (DESIGN.md §5d:
/// run lifecycle, figure milestones, Monte-Carlo estimator stream, solver
/// escalations).
pub const EVENT_ROOTS: &[&str] = &["run", "figure", "mc", "solver", "eval", "analyzer"];

/// Runs the lexical rule over one file's tokens, skipping the test
/// context its `ast` marks — no suppression, no sorting:
/// [`crate::sema::analyze`] adds the semantic findings, then applies the
/// file's allows to all of them at once.
pub(crate) fn token_diags(path: &str, toks: &[Tok], ast: &FileAst) -> Vec<Diagnostic> {
    let ctx = Ctx { path, toks, ast };
    let mut diags = Vec::new();
    rule_no_float_eq(&ctx, &mut diags);
    diags
}

struct Ctx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    ast: &'a FileAst,
}

impl Ctx<'_> {
    fn in_test(&self, i: usize) -> bool {
        self.ast.in_test(self.toks[i].line, self.toks[i].col)
    }

    fn diag(&self, out: &mut Vec<Diagnostic>, i: usize, rule: RuleId, message: String) {
        out.push(Diagnostic {
            file: self.path.to_string(),
            line: self.toks[i].line,
            col: self.toks[i].col,
            rule,
            message,
        });
    }
}

// ----------------------------------------------------------------- rules

fn rule_no_float_eq(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let op = &toks[i];
        if op.kind != TokKind::Punct || (op.text != "==" && op.text != "!=") {
            continue;
        }
        if ctx.in_test(i) {
            continue;
        }
        let float_lit = |k: usize| toks.get(k).is_some_and(|t| t.kind == TokKind::Float);
        // Right operand: `0.0`, `-0.0`, `f64::NAN`-style const.
        let rhs_lit = if float_lit(i + 1) {
            Some(i + 1)
        } else if toks.get(i + 1).is_some_and(|t| t.text == "-") && float_lit(i + 2) {
            Some(i + 2)
        } else {
            None
        };
        let rhs_const = toks
            .get(i + 1)
            .is_some_and(|t| t.text == "f64" || t.text == "f32")
            && toks.get(i + 2).is_some_and(|t| t.text == "::");
        // Left operand: a float literal, or `f64::CONST`.
        let lhs_lit = float_lit(i.wrapping_sub(1));
        let lhs_const = i >= 3
            && toks[i - 2].text == "::"
            && (toks[i - 3].text == "f64" || toks[i - 3].text == "f32")
            && toks[i - 1].kind == TokKind::Ident;
        if rhs_lit.is_none() && !rhs_const && !lhs_lit && !lhs_const {
            continue;
        }
        // Guard idiom: `x.fract() == 0.0` is an exactness test by design.
        let fract_guarded = i >= 4
            && toks[i - 1].text == ")"
            && toks[i - 2].text == "("
            && toks[i - 3].text == "fract"
            && toks[i - 4].text == ".";
        if fract_guarded {
            continue;
        }
        let lit_text = rhs_lit
            .map(|k| toks[k].text.as_str())
            .unwrap_or(if lhs_lit {
                toks[i - 1].text.as_str()
            } else {
                ""
            });
        let sentinel = matches!(lit_text, "0.0" | "0." | "1.0" | "1.");
        let message = if sentinel {
            format!(
                "exact float `{}` against `{lit_text}`; if the value is an assigned sentinel \
                 (never computed) keep it and add `// pvtm-lint: allow(no-float-eq) <why \
                 exact>`, otherwise compare with a tolerance",
                op.text
            )
        } else {
            format!(
                "exact float `{}` comparison; use a tolerance, or justify bit-exactness with \
                 `// pvtm-lint: allow(no-float-eq) <why>`",
                op.text
            )
        };
        ctx.diag(out, i, RuleId::NoFloatEq, message);
    }
}

// ------------------------------------------------------------ suppression

/// Applies `// pvtm-lint: allow(rule) reason` comments: a well-formed allow
/// suppresses matching diagnostics on its own line and the next one.
/// Malformed, unknown-rule, reason-less and unused allows are themselves
/// reported under `lint-allow` so the suppression inventory stays honest.
pub(crate) fn apply_allows(path: &str, allows: &[Allow], diags: &mut Vec<Diagnostic>) {
    let mut used = vec![false; allows.len()];
    diags.retain(|d| {
        let mut keep = true;
        for (k, a) in allows.iter().enumerate() {
            if !a.rule.is_empty()
                && !a.reason.is_empty()
                && a.rule == d.rule.as_str()
                && (a.line == d.line || a.line + 1 == d.line)
            {
                used[k] = true;
                keep = false;
            }
        }
        keep
    });
    for (k, a) in allows.iter().enumerate() {
        let problem = if a.rule.is_empty() {
            Some("malformed suppression; expected `pvtm-lint: allow(rule-id) reason`".to_string())
        } else if RuleId::parse(&a.rule).is_none() {
            Some(format!(
                "allow names unknown rule \"{}\" (known: {})",
                a.rule,
                ALL_RULES
                    .iter()
                    .map(|r| r.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        } else if a.reason.is_empty() {
            Some(format!(
                "allow({}) without a reason; the justification is mandatory",
                a.rule
            ))
        } else if !used[k] {
            Some(format!(
                "stale allow({}): no matching diagnostic on this or the next line",
                a.rule
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                col: a.col,
                rule: RuleId::LintAllow,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileUnit;

    /// Lints one in-memory file through the full pass.
    fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
        crate::analyze(&[FileUnit::new(path, src)]).diagnostics
    }

    fn rules_of(path: &str, src: &str) -> Vec<(RuleId, u32)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn float_eq_flagged_outside_tests_only() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: f64) -> bool { x == 0.5 }\n}\n";
        assert_eq!(
            rules_of("crates/x/src/a.rs", src),
            vec![(RuleId::NoFloatEq, 1)]
        );
    }

    #[test]
    fn test_fn_attribute_masks_its_body_only() {
        let src = "fn lib(x: f64) -> bool { x == 0.5 }\n\
                   #[test]\nfn t() { assert!(1.5 == 1.5); }\n\
                   fn lib2(x: f64) -> bool { x != 0.5 }\n";
        assert_eq!(
            rules_of("crates/x/src/a.rs", src),
            vec![(RuleId::NoFloatEq, 1), (RuleId::NoFloatEq, 4)]
        );
    }

    #[test]
    fn float_eq_catches_literals_and_consts_but_not_fract() {
        assert_eq!(
            rules_of("crates/x/src/a.rs", "fn f(x: f64) -> bool { x == 0.5 }\n"),
            vec![(RuleId::NoFloatEq, 1)]
        );
        assert_eq!(
            rules_of(
                "crates/x/src/a.rs",
                "fn f(x: f64) -> bool { x == f64::INFINITY }\n"
            ),
            vec![(RuleId::NoFloatEq, 1)]
        );
        assert!(rules_of(
            "crates/x/src/a.rs",
            "fn f(x: f64) -> bool { x.fract() == 0.0 }\n"
        )
        .is_empty());
        // Integer comparisons never fire.
        assert!(rules_of("crates/x/src/a.rs", "fn f(x: u8) -> bool { x == 0 }\n").is_empty());
    }

    #[test]
    fn float_eq_sentinel_gets_dedicated_hint() {
        let d = lint_source("crates/x/src/a.rs", "fn f(s: f64) -> bool { s == 0.0 }\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("sentinel"), "{}", d[0].message);
    }

    #[test]
    fn panic_policy_scopes_to_core_crates() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            rules_of("crates/sram/src/a.rs", src),
            vec![(RuleId::PanicPolicy, 1)]
        );
        // The BIST crate joined the policy set when its controller grew a
        // structured error type.
        assert_eq!(
            rules_of("crates/bist/src/a.rs", src),
            vec![(RuleId::PanicPolicy, 1)]
        );
        // Outside the policy crates unwrap is tolerated.
        assert!(rules_of("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn panic_policy_accepts_invariant_expect_only() {
        let bare = "pub fn f(x: Option<u8>) -> u8 { x.expect(\"bad\") }\n";
        let good =
            "pub fn f(x: Option<u8>) -> u8 { x.expect(\"slots are built by compile above\") }\n";
        assert_eq!(
            rules_of("crates/core/src/a.rs", bare),
            vec![(RuleId::PanicPolicy, 1)]
        );
        assert!(rules_of("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn taxonomy_checks_shape_and_roots() {
        let bad_root = "fn f() { pvtm_telemetry::counter_add(\"frobnicator.count\", 1); }\n";
        let bad_shape = "fn f() { let _s = pvtm_telemetry::span(\"Eval.Margins\"); }\n";
        let good = "fn f() { let _s = pvtm_telemetry::span(\"eval.margins\"); }\n";
        assert_eq!(
            rules_of("crates/sram/src/a.rs", bad_root),
            vec![(RuleId::TelemetryTaxonomy, 1)]
        );
        assert_eq!(
            rules_of("crates/sram/src/a.rs", bad_shape),
            vec![(RuleId::TelemetryTaxonomy, 1)]
        );
        assert!(rules_of("crates/sram/src/a.rs", good).is_empty());
    }

    #[test]
    fn taxonomy_covers_event_journal_kinds() {
        let good = "fn f() { pvtm_telemetry::events::emit(\"mc.chunk\", 0, 0, vec![]); }\n";
        let bad_root = "fn f() { pvtm_telemetry::events::emit(\"widget.spin\", 0, 0, vec![]); }\n";
        let bad_shape = "fn f() { pvtm_telemetry::events::emit(\"Mc.Chunk\", 0, 0, vec![]); }\n";
        assert!(rules_of("crates/sram/src/a.rs", good).is_empty());
        let d = lint_source("crates/sram/src/a.rs", bad_root);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("event"), "{}", d[0].message);
        assert!(d[0].message.contains("5d"), "{}", d[0].message);
        assert_eq!(
            rules_of("crates/sram/src/a.rs", bad_shape),
            vec![(RuleId::TelemetryTaxonomy, 1)]
        );
    }

    #[test]
    fn env_reads_must_use_documented_knobs() {
        let bad = "fn f() { let _ = std::env::var(\"PVTM_SECRET\"); }\n";
        let good = "fn f() { let _ = std::env::var(\"PVTM_TELEMETRY\"); }\n";
        let dynamic = "fn f(k: &str) { let _ = std::env::var(k); }\n";
        assert_eq!(rules_of("src/lib.rs", bad), vec![(RuleId::KnobCoverage, 1)]);
        assert!(rules_of("src/lib.rs", good).is_empty());
        assert_eq!(
            rules_of("src/lib.rs", dynamic),
            vec![(RuleId::KnobCoverage, 1)]
        );
    }

    #[test]
    fn allows_suppress_same_and_next_line() {
        let same = "fn f(x: f64) -> bool { x == 0.0 } // pvtm-lint: allow(no-float-eq) assigned sentinel\n";
        let above = "// pvtm-lint: allow(no-float-eq) assigned sentinel\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert!(rules_of("crates/x/src/a.rs", same).is_empty());
        assert!(rules_of("crates/x/src/a.rs", above).is_empty());
    }

    #[test]
    fn reasonless_unknown_and_stale_allows_are_reported() {
        let reasonless = "fn f(x: f64) -> bool { x == 0.0 } // pvtm-lint: allow(no-float-eq)\n";
        let d = lint_source("crates/x/src/a.rs", reasonless);
        // The violation stays AND the allow itself is reported.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.rule == RuleId::LintAllow));

        let unknown = "// pvtm-lint: allow(no-such-rule) because\n";
        assert_eq!(rules_of("src/a.rs", unknown), vec![(RuleId::LintAllow, 1)]);

        let stale = "// pvtm-lint: allow(no-float-eq) nothing here\nfn f() {}\n";
        assert_eq!(rules_of("src/a.rs", stale), vec![(RuleId::LintAllow, 1)]);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "/// doc: x.unwrap() and HashMap\n\
                   /* Instant::now() inside /* nested */ comment */\n\
                   pub fn f() -> &'static str { \"HashMap == 0.0 panic!\" }\n";
        assert!(rules_of("crates/sram/src/a.rs", src).is_empty());
    }
}
