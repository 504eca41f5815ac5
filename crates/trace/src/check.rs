//! `pvtm-trace check` — gate sidecars against `perf-budgets.json`.
//!
//! A budget is a hard ceiling on a **deterministic work counter** (DC
//! solves, Newton iterations, LU factorizations, cold solves, trip points
//! that fell back to bisection, sampled leakage cells) for one figure.
//! Because those counters are byte-identical across runs with
//! `PVTM_TELEMETRY_CLOCK=off`, the gate has zero flake: exceeding a budget
//! means the code does more numerical work, full stop.
//!
//! The ratchet:
//!
//! - observed > budget → violation (gate fails);
//! - a work counter (`solver.*`, `counter.leak.cells`) at 0 against a
//!   positive budget → violation: the solver or the leakage sampler did
//!   not run, so the sidecar describes no real run of the figure (an
//!   event counter such as `counter.eval.trip_fallback` at 0 is just work
//!   that was not needed);
//! - observed < budget → pass, with a slack note nudging a ratchet-down;
//! - `--update-budgets` rewrites the file to the observed values, which
//!   is how both ratchets *and* intentional regressions get recorded —
//!   the diff of `perf-budgets.json` is then reviewed like any other.
//!
//! A sidecar without spans also fails: sidecars are written in full mode
//! only, which always records spans.

use std::collections::BTreeMap;
use std::fmt;

use pvtm_telemetry::json::{self, Value};
use pvtm_telemetry::Sidecar;

/// The budget metrics maintained by `--update-budgets`: the solver work
/// counters that are deterministic under a fixed seed, the trip points
/// whose bordered solve failed its check and fell back to bisection, and
/// the leakage cells sampled, the work of the figures that make no solve.
pub const DEFAULT_METRICS: &[&str] = &[
    "solver.solves",
    "solver.newton_iterations",
    "solver.lu_factorizations",
    "solver.cold_solves",
    "counter.eval.trip_fallback",
    "counter.leak.cells",
];

/// Budget-file rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BudgetError {}

/// Parsed `perf-budgets.json`: figure id → metric name → ceiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Per-figure metric ceilings, both levels name-sorted.
    pub figures: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Budgets {
    /// Parses budget-file text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or the wrong `schema` marker.
    pub fn parse(text: &str) -> Result<Budgets, BudgetError> {
        let doc = json::parse(text).map_err(|e| BudgetError {
            message: format!("malformed perf-budgets JSON: {e}"),
        })?;
        if doc.get("schema").and_then(Value::as_str) != Some("pvtm-perf-budgets/1") {
            return Err(BudgetError {
                message: "perf-budgets file must have schema \"pvtm-perf-budgets/1\"".into(),
            });
        }
        let mut figures = BTreeMap::new();
        if let Some(Value::Obj(figs)) = doc.get("budgets") {
            for (id, metrics) in figs {
                let mut map = BTreeMap::new();
                if let Value::Obj(members) = metrics {
                    for (name, v) in members {
                        if let Some(n) = v.as_u64() {
                            map.insert(name.clone(), n);
                        }
                    }
                }
                figures.insert(id.clone(), map);
            }
        }
        Ok(Budgets { figures })
    }

    /// Renders the canonical pretty JSON form (BTreeMap ordering makes
    /// the output deterministic, so the checked-in file diffs cleanly).
    pub fn to_json_pretty(&self) -> String {
        let figs: Vec<(String, Value)> = self
            .figures
            .iter()
            .map(|(id, metrics)| {
                (
                    id.clone(),
                    Value::Obj(
                        metrics
                            .iter()
                            .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                            .collect(),
                    ),
                )
            })
            .collect();
        let mut s = json::obj(vec![
            ("schema", Value::Str("pvtm-perf-budgets/1".into())),
            ("budgets", Value::Obj(figs)),
        ])
        .to_json_pretty();
        s.push('\n');
        s
    }
}

/// A budget metric's observed value. Metric names are namespaced:
/// `solver.<counter>` reads the solver section, `counter.<name>` a named
/// event counter (0 when the run never bumped it). `None` for any other
/// name.
fn metric(sc: &Sidecar, name: &str) -> Option<u64> {
    if let Some(field) = name.strip_prefix("solver.") {
        let counters = sc.report.solver.counters();
        counters.iter().find(|(k, _)| *k == field).map(|&(_, v)| v)
    } else {
        name.strip_prefix("counter.").map(|c| sc.report.counter(c))
    }
}

/// What did not run when a work counter budgeted above 0 reads 0: the
/// solver for its counters, the leakage sampler for its cells. `None` for
/// an event counter, which may fall to 0.
fn idle_worker(name: &str) -> Option<&'static str> {
    if name.starts_with("solver.") {
        Some("the solver")
    } else if name == "counter.leak.cells" {
        Some("the leakage sampler")
    } else {
        None
    }
}

/// Result of checking sidecars against budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Human-readable findings, one per line.
    pub text: String,
    /// Hard failures: budget exceeded, a budgeted metric at zero or
    /// unknown, no spans, or no budget for a figure.
    pub violations: usize,
    /// Advisory slack notes: observed below the ceiling.
    pub slack_notes: usize,
}

impl CheckOutcome {
    /// Whether the gate fails.
    pub fn failed(&self) -> bool {
        self.violations > 0
    }

    fn fail(&mut self, id: &str, what: &str) {
        self.violations += 1;
        self.text.push_str(&format!("FAIL {id}: {what}\n"));
    }
}

/// Checks each sidecar against its figure's budgets.
pub fn check(budgets: &Budgets, sidecars: &[Sidecar]) -> CheckOutcome {
    let mut out = CheckOutcome {
        text: String::new(),
        violations: 0,
        slack_notes: 0,
    };
    for sc in sidecars {
        let id = sc.id.as_str();
        if sc.report.spans.is_empty() {
            out.fail(
                id,
                "no spans recorded — sidecars come from PVTM_TELEMETRY=full runs",
            );
        }
        let Some(figure) = budgets.figures.get(id) else {
            out.fail(id, "no budget entry — record one with --update-budgets");
            continue;
        };
        for (name, &max) in figure {
            match (metric(sc, name), idle_worker(name)) {
                (None, _) => out.fail(id, &format!("unknown budget metric {name}")),
                (Some(0), Some(worker)) if max > 0 => out.fail(
                    id,
                    &format!("{name} = 0 against budget {max} — {worker} did not run"),
                ),
                (Some(observed), _) if observed > max => out.fail(
                    id,
                    &format!(
                        "{name} = {observed} exceeds budget {max} (+{})",
                        observed - max
                    ),
                ),
                (Some(observed), _) if observed < max => {
                    out.slack_notes += 1;
                    out.text.push_str(&format!(
                        "note {id}: {name} = {observed} is under budget {max} (-{}) — \
                         ratchet down with --update-budgets\n",
                        max - observed
                    ));
                }
                (Some(observed), _) => out
                    .text
                    .push_str(&format!("ok   {id}: {name} = {observed}\n")),
            }
        }
    }
    out
}

/// Returns `budgets` with each sidecar's figure entry replaced by the
/// observed [`DEFAULT_METRICS`] values — the ratchet write. Entries for
/// figures not in `sidecars` are kept as-is.
pub fn update_budgets(budgets: &Budgets, sidecars: &[Sidecar]) -> Budgets {
    let mut next = budgets.clone();
    for sc in sidecars {
        let metrics = DEFAULT_METRICS
            .iter()
            .filter_map(|&m| Some((m.to_string(), metric(sc, m)?)))
            .collect();
        next.figures.insert(sc.id.clone(), metrics);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::{Report, SolverStats, SolverSummary, SpanRow};

    fn sidecar(id: &str, solves: u64, newton: u64) -> Sidecar {
        let stats = SolverStats {
            solves,
            newton_iterations: newton,
            lu_factorizations: 7,
            cold_solves: 2,
            ..SolverStats::default()
        };
        Sidecar {
            id: id.into(),
            report: Report {
                spans: vec![SpanRow {
                    path: id.into(),
                    count: 1,
                    total_ns: 0,
                    child_ns: 0,
                    self_ns: 0,
                    solver: stats,
                }],
                solver: SolverSummary::from(stats),
                ..Report::default()
            },
        }
    }

    #[test]
    fn budgets_round_trip_through_json() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let text = b.to_json_pretty();
        let parsed = Budgets::parse(&text).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.figures["fig2a"]["solver.newton_iterations"], 321);
    }

    #[test]
    fn exact_match_passes_cleanly() {
        let sc = sidecar("fig2a", 100, 321);
        let b = update_budgets(&Budgets::default(), std::slice::from_ref(&sc));
        let out = check(&b, &[sc]);
        assert!(!out.failed());
        assert_eq!(out.slack_notes, 0);
    }

    #[test]
    fn exceeding_a_budget_fails() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let out = check(&b, &[sidecar("fig2a", 100, 400)]);
        assert!(out.failed());
        assert!(out
            .text
            .contains("solver.newton_iterations = 400 exceeds budget 321"));
    }

    #[test]
    fn under_budget_passes_with_ratchet_note() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let out = check(&b, &[sidecar("fig2a", 100, 300)]);
        assert!(!out.failed());
        assert_eq!(out.slack_notes, 1);
        assert!(out.text.contains("ratchet down"));
    }

    #[test]
    fn a_budgeted_metric_at_zero_fails() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let out = check(&b, &[sidecar("fig2a", 0, 321)]);
        assert!(out.failed());
        assert!(out
            .text
            .contains("solver.solves = 0 against budget 100 — the solver did not run"));
    }

    #[test]
    fn budgeted_leakage_cells_at_zero_fail() {
        let mut sc = sidecar("fig3", 0, 0);
        sc.report.counters = vec![("leak.cells".into(), 374_640)];
        let b = update_budgets(&Budgets::default(), std::slice::from_ref(&sc));
        assert!(!check(&b, std::slice::from_ref(&sc)).failed());
        sc.report.counters.clear();
        let out = check(&b, &[sc]);
        assert_eq!(out.violations, 1, "{}", out.text);
        assert!(out.text.contains(
            "counter.leak.cells = 0 against budget 374640 — the leakage sampler did not run"
        ));
    }

    #[test]
    fn an_event_counter_falling_to_zero_passes() {
        let sc = sidecar("fig2a", 100, 321);
        let mut b = update_budgets(&Budgets::default(), std::slice::from_ref(&sc));
        assert_eq!(b.figures["fig2a"]["counter.eval.trip_fallback"], 0);
        b.figures
            .get_mut("fig2a")
            .unwrap()
            .insert("counter.eval.trip_fallback".into(), 47);
        let out = check(&b, &[sc]);
        assert!(!out.failed(), "{}", out.text);
        assert!(out
            .text
            .contains("counter.eval.trip_fallback = 0 is under budget 47"));
    }

    #[test]
    fn more_trip_fallbacks_than_budgeted_fail() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let mut sc = sidecar("fig2a", 100, 321);
        sc.report.counters = vec![("eval.trip_fallback".into(), 3)];
        let out = check(&b, &[sc]);
        assert!(out.failed());
        assert!(out
            .text
            .contains("counter.eval.trip_fallback = 3 exceeds budget 0"));
    }

    #[test]
    fn a_sidecar_without_spans_fails() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let mut sc = sidecar("fig2a", 100, 321);
        sc.report.spans.clear();
        let out = check(&b, &[sc]);
        assert_eq!(out.violations, 1);
        assert!(out.text.contains("FAIL fig2a: no spans recorded"));
    }

    #[test]
    fn unknown_budget_metrics_fail_and_counters_resolve() {
        let mut b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let entry = b.figures.get_mut("fig2a").unwrap();
        entry.insert("solver.warm_hit_rate".into(), 1);
        entry.insert("counter.mc.samples".into(), 4096);
        let mut sc = sidecar("fig2a", 100, 321);
        sc.report.counters = vec![("mc.samples".into(), 4096)];
        let out = check(&b, &[sc]);
        assert_eq!(out.violations, 1, "{}", out.text);
        assert!(out
            .text
            .contains("unknown budget metric solver.warm_hit_rate"));
        assert!(out.text.contains("ok   fig2a: counter.mc.samples = 4096"));
    }

    #[test]
    fn missing_budget_entry_fails() {
        let out = check(&Budgets::default(), &[sidecar("fig2a", 1, 1)]);
        assert!(out.failed());
        assert!(out.text.contains("no budget entry"));
    }

    #[test]
    fn update_preserves_unrelated_figures() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig6", 5, 9)]);
        let b2 = update_budgets(&b, &[sidecar("fig2a", 100, 321)]);
        assert!(b2.figures.contains_key("fig6"));
        assert!(b2.figures.contains_key("fig2a"));
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(Budgets::parse(r#"{"schema": "nope", "budgets": {}}"#).is_err());
    }
}
