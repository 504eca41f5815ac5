//! `pvtm-trace health` — gate estimator-health diagnostics against
//! `health-budgets.json`.
//!
//! Where `check` ratchets *work* (how many solves a figure spends),
//! `health` ratchets *confidence* (whether the estimate those solves buy
//! can be trusted). The inputs are the sidecar's per-trace health
//! block and its `mc.quarantine_ci_share` gauge, both byte-identical
//! across runs under `PVTM_TELEMETRY_CLOCK=off`, so this gate has the
//! same zero-flake property as the perf budgets.
//!
//! A figure with a budget entry of its own must carry trace health: an
//! entry is only ever recorded from a sidecar with Monte-Carlo traces, so
//! a sidecar without them means the estimator did not run.
//!
//! A budget entry is four thresholds ([`HealthEntry`]), judged by
//! [`pvtm_telemetry::Report::health_checks`], beside the health it
//! judges, so this module only renders the verdict:
//!
//! - `min_ess_fraction` — floor on effective-sample-size / contributing
//!   samples; falling below it means importance weights are carrying the
//!   estimate on too few shoulders (`LOW_ESS`);
//! - `max_weight_fraction` — ceiling on any single weight's share of the
//!   total; exceeding it means one sample dominates (`WEIGHT_DEGENERATE`);
//! - `max_stall_ratio` — ceiling on the fraction of convergence steps
//!   where the CI half-width shrank slower than root-n (`STALLED`);
//! - `max_quarantine_ci_share` — ceiling on the quarantine bias band as a
//!   share of the CI half-width (`QUARANTINE_BIASED`).
//!
//! Figures resolve their entry by id, falling back to the constant
//! [`HealthEntry::FALLBACK`] (reported as `"default"`); the ratchet
//! (`--update-budgets`) records per-figure entries only.

use std::collections::BTreeMap;
use std::fmt;

use pvtm_telemetry::json::{self, Value};
use pvtm_telemetry::{HealthEntry, Sidecar, TraceHealth};

/// The ledger's name for [`HealthEntry::FALLBACK`], which a budget file
/// cannot hold as an entry.
pub const DEFAULT_ENTRY: &str = "default";

/// Budget-file rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthBudgetError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for HealthBudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for HealthBudgetError {}

fn entry_from_value(v: &Value) -> HealthEntry {
    let f = |key: &str, fallback: f64| v.get(key).and_then(Value::as_f64).unwrap_or(fallback);
    let d = HealthEntry::default();
    HealthEntry {
        min_ess_fraction: f("min_ess_fraction", d.min_ess_fraction),
        max_weight_fraction: f("max_weight_fraction", d.max_weight_fraction),
        max_stall_ratio: f("max_stall_ratio", d.max_stall_ratio),
        max_quarantine_ci_share: f("max_quarantine_ci_share", d.max_quarantine_ci_share),
    }
}

fn entry_to_value(e: HealthEntry) -> Value {
    json::obj(vec![
        ("min_ess_fraction", Value::Num(e.min_ess_fraction)),
        ("max_weight_fraction", Value::Num(e.max_weight_fraction)),
        ("max_stall_ratio", Value::Num(e.max_stall_ratio)),
        (
            "max_quarantine_ci_share",
            Value::Num(e.max_quarantine_ci_share),
        ),
    ])
}

/// Parsed `health-budgets.json`: figure id → thresholds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthBudgets {
    /// Name-sorted threshold entries.
    pub entries: BTreeMap<String, HealthEntry>,
}

impl HealthBudgets {
    /// Parses budget-file text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, the wrong `schema` marker, or an entry
    /// named `"default"`: the fallback thresholds are
    /// [`HealthEntry::FALLBACK`], not a file entry.
    pub fn parse(text: &str) -> Result<HealthBudgets, HealthBudgetError> {
        let doc = json::parse(text).map_err(|e| HealthBudgetError {
            message: format!("malformed health-budgets JSON: {e}"),
        })?;
        if doc.get("schema").and_then(Value::as_str) != Some("pvtm-health-budgets/1") {
            return Err(HealthBudgetError {
                message: "health-budgets file must have schema \"pvtm-health-budgets/1\"".into(),
            });
        }
        let mut entries = BTreeMap::new();
        if let Some(Value::Obj(members)) = doc.get("budgets") {
            for (name, v) in members {
                if name == DEFAULT_ENTRY {
                    return Err(HealthBudgetError {
                        message: "health-budgets file has a \"default\" entry; figures \
                                  without an entry use the built-in fallback thresholds"
                            .into(),
                    });
                }
                entries.insert(name.clone(), entry_from_value(v));
            }
        }
        Ok(HealthBudgets { entries })
    }

    /// Renders the canonical pretty JSON form.
    pub fn to_json_pretty(&self) -> String {
        let members: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(name, e)| (name.clone(), entry_to_value(*e)))
            .collect();
        let mut s = json::obj(vec![
            ("schema", Value::Str("pvtm-health-budgets/1".into())),
            ("budgets", Value::Obj(members)),
        ])
        .to_json_pretty();
        s.push('\n');
        s
    }

    /// The thresholds applying to `figure` with the name of their source:
    /// the figure's own entry, else [`HealthEntry::FALLBACK`] as
    /// [`DEFAULT_ENTRY`].
    pub fn entry_for<'a>(&self, figure: &'a str) -> (&'a str, HealthEntry) {
        match self.entries.get(figure) {
            Some(e) => (figure, *e),
            None => (DEFAULT_ENTRY, HealthEntry::FALLBACK),
        }
    }
}

/// Result of the health gate: the confidence ledger plus pass/fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthOutcome {
    /// The confidence ledger, one line per trace/metric finding.
    pub text: String,
    /// Hard failures: threshold crossed, or a figure with its own entry
    /// but no trace health.
    pub violations: usize,
    /// Advisory notes (figures without traces on the fallback entry).
    pub notes: usize,
}

impl HealthOutcome {
    /// Whether the gate fails.
    pub fn failed(&self) -> bool {
        self.violations > 0
    }
}

fn verdict(out: &mut HealthOutcome, bad: bool, id: &str, tag: &str, detail: String) {
    if bad {
        out.violations += 1;
        out.text.push_str(&format!("FAIL {id}: {tag} — {detail}\n"));
    } else {
        out.text.push_str(&format!("ok   {id}: {detail}\n"));
    }
}

/// Checks each sidecar's estimator health against its figure's budget
/// entry, rendering the per-figure confidence ledger.
pub fn health_check(budgets: &HealthBudgets, sidecars: &[Sidecar]) -> HealthOutcome {
    let mut out = HealthOutcome {
        text: String::new(),
        violations: 0,
        notes: 0,
    };
    for sc in sidecars {
        let (source, entry) = budgets.entry_for(&sc.id);
        out.text
            .push_str(&format!("== {} (thresholds from {:?}) ==\n", sc.id, source));
        if sc.report.traces.iter().all(|t| t.health.is_none()) {
            // Only a figure with an entry of its own must have traces.
            if source == sc.id {
                let detail = "no Monte-Carlo trace health".to_string();
                verdict(&mut out, true, &sc.id, "NO_TRACE", detail);
            } else {
                out.notes += 1;
                out.text
                    .push_str(&format!("note {}: no Monte-Carlo trace health\n", sc.id));
            }
        }
        for c in sc.report.health_checks(&entry) {
            verdict(&mut out, c.failed, &sc.id, c.tag, c.detail);
        }
    }
    out
}

/// Rounds down to 4 decimals — headroom direction for a floor threshold.
fn floor4(x: f64) -> f64 {
    (x * 1e4).floor() / 1e4
}

/// Rounds up to 4 decimals — headroom direction for a ceiling threshold.
fn ceil4(x: f64) -> f64 {
    (x * 1e4).ceil() / 1e4
}

/// Returns `budgets` with each sidecar's figure entry replaced by its
/// observed health, rounded in the *permissive* direction (floors down,
/// ceilings up) so a byte-identical rerun passes exactly. A sidecar
/// without trace health gets no entry (and loses a stale one), so the
/// gate's missing-trace rule never applies to it.
pub fn update_health_budgets(budgets: &HealthBudgets, sidecars: &[Sidecar]) -> HealthBudgets {
    let mut next = budgets.clone();
    for sc in sidecars {
        let healths: Vec<TraceHealth> = sc.report.traces.iter().filter_map(|t| t.health).collect();
        if healths.is_empty() {
            next.entries.remove(&sc.id);
            continue;
        }
        let mut e = HealthEntry {
            min_ess_fraction: 1.0,
            max_weight_fraction: 0.0,
            max_stall_ratio: 0.0,
            max_quarantine_ci_share: sc.report.gauge("mc.quarantine_ci_share").unwrap_or(0.0),
        };
        let mut weighted = false;
        for h in healths {
            if h.has_weights {
                weighted = true;
                e.min_ess_fraction = e.min_ess_fraction.min(h.ess_fraction);
                e.max_weight_fraction = e.max_weight_fraction.max(h.max_weight_fraction);
            }
            e.max_stall_ratio = e.max_stall_ratio.max(h.stall_ratio);
        }
        if !weighted {
            // No IS traces: keep the ESS axes permissive rather than
            // recording the vacuous extremes of an empty fold.
            e.min_ess_fraction = 0.0;
            e.max_weight_fraction = 1.0;
        }
        e.min_ess_fraction = floor4(e.min_ess_fraction);
        e.max_weight_fraction = ceil4(e.max_weight_fraction);
        e.max_stall_ratio = ceil4(e.max_stall_ratio);
        e.max_quarantine_ci_share = ceil4(e.max_quarantine_ci_share);
        next.entries.insert(sc.id.clone(), e);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::{Report, TracePoint, TraceRow};

    fn health(ess_fraction: f64, max_weight_fraction: f64, stall_ratio: f64) -> TraceHealth {
        TraceHealth {
            has_weights: true,
            contributing: 1000,
            ess: ess_fraction * 1000.0,
            ess_fraction,
            max_weight_fraction,
            steps: 4,
            stalled_steps: (stall_ratio * 4.0).round() as u64,
            stall_ratio,
        }
    }

    /// A sidecar with one trace of health `h`, or with no trace at all.
    fn sidecar(id: &str, h: Option<TraceHealth>) -> Sidecar {
        let trace = |h| TraceRow {
            name: format!("{id}.mc"),
            points: vec![TracePoint {
                chunk: 0,
                samples: 4096,
                value: 1e-4,
                std_err: 1e-5,
                rel_err: 0.1,
            }],
            health: Some(h),
        };
        Sidecar {
            id: id.into(),
            report: Report {
                traces: h.map(trace).into_iter().collect(),
                ..Report::default()
            },
        }
    }

    fn budgets(entry: &str, e: HealthEntry) -> HealthBudgets {
        HealthBudgets {
            entries: BTreeMap::from([(entry.to_string(), e)]),
        }
    }

    #[test]
    fn budgets_round_trip_through_json() {
        let b = update_health_budgets(
            &HealthBudgets::default(),
            &[sidecar("fig2a", Some(health(0.8215, 0.031, 0.25)))],
        );
        let parsed = HealthBudgets::parse(&b.to_json_pretty()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.entries["fig2a"].min_ess_fraction, 0.8215);
    }

    #[test]
    fn rejects_wrong_schema_and_a_default_entry() {
        assert!(HealthBudgets::parse(r#"{"schema": "nope", "budgets": {}}"#).is_err());
        let with_default = r#"{"schema": "pvtm-health-budgets/1",
            "budgets": {"default": {"min_ess_fraction": 0.2}}}"#;
        let e = HealthBudgets::parse(with_default).unwrap_err();
        assert!(e.message.contains("\"default\" entry"), "{e}");
    }

    #[test]
    fn healthy_trace_passes_against_its_ratchet() {
        let sc = sidecar("fig2a", Some(health(0.82, 0.03, 0.25)));
        let b = update_health_budgets(&HealthBudgets::default(), std::slice::from_ref(&sc));
        let out = health_check(&b, &[sc]);
        assert!(!out.failed(), "{}", out.text);
        assert!(out.text.contains("ess_fraction 0.8200"));
    }

    #[test]
    fn low_ess_fails() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                min_ess_fraction: 0.5,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(health(0.04, 0.9, 0.0)))]);
        assert!(out.failed());
        assert!(out.text.contains("LOW_ESS"), "{}", out.text);
    }

    #[test]
    fn weight_degeneracy_and_stall_fail() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                max_weight_fraction: 0.1,
                max_stall_ratio: 0.3,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(health(0.9, 0.8, 0.75)))]);
        assert_eq!(out.violations, 2);
        assert!(out.text.contains("WEIGHT_DEGENERATE"));
        assert!(out.text.contains("STALLED"));
    }

    #[test]
    fn quarantine_ci_share_gauge_is_gated() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                max_quarantine_ci_share: 0.05,
                ..HealthEntry::default()
            },
        );
        let mut sc = sidecar("fig2a", Some(health(0.9, 0.02, 0.0)));
        sc.report.gauges = vec![("mc.quarantine_ci_share".into(), 0.4)];
        let out = health_check(&b, &[sc]);
        assert!(out.failed());
        assert!(out.text.contains("QUARANTINE_BIASED"));
    }

    #[test]
    fn the_fallback_covers_unlisted_figures() {
        let b = HealthBudgets::default();
        let out = health_check(&b, &[sidecar("fig9", Some(health(0.9, 0.01, 0.0)))]);
        assert!(!out.failed(), "{}", out.text);
        assert!(out.text.contains("thresholds from \"default\""));
        // The fallback is HealthEntry::FALLBACK, not the permissive default.
        let out = health_check(&b, &[sidecar("fig9", Some(health(0.1, 0.01, 0.0)))]);
        assert!(out.text.contains("LOW_ESS"), "{}", out.text);
        assert!(out.text.contains("(floor 0.2000,"), "{}", out.text);
    }

    #[test]
    fn traceless_figure_on_the_fallback_is_a_note() {
        let out = health_check(&HealthBudgets::default(), &[sidecar("fig8", None)]);
        assert!(!out.failed());
        assert_eq!(out.notes, 1);
        assert!(out.text.contains("note fig8: no Monte-Carlo trace health"));
    }

    #[test]
    fn traceless_figure_with_its_own_entry_fails() {
        let b = update_health_budgets(
            &HealthBudgets::default(),
            &[sidecar("fig2a", Some(health(0.9, 0.01, 0.0)))],
        );
        let out = health_check(&b, &[sidecar("fig2a", None)]);
        assert!(out.failed());
        assert!(out.text.contains("FAIL fig2a: NO_TRACE"), "{}", out.text);
    }

    #[test]
    fn update_records_no_entry_without_trace_health() {
        let b = HealthBudgets::default();
        let next = update_health_budgets(&b, &[sidecar("fig8", None)]);
        assert_eq!(next, b);
        // A stale entry goes, so the figure falls back to the constant.
        let stale = update_health_budgets(&b, &[sidecar("fig8", Some(health(0.9, 0.01, 0.0)))]);
        assert_eq!(update_health_budgets(&stale, &[sidecar("fig8", None)]), b);
    }

    #[test]
    fn unweighted_trace_skips_ess_axes() {
        let mut h = health(0.0, 0.0, 0.0);
        h.has_weights = false;
        let b = budgets(
            "fig2a",
            HealthEntry {
                min_ess_fraction: 0.9,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(h))]);
        assert!(!out.failed(), "{}", out.text);
        assert!(!out.text.contains("LOW_ESS"));
    }

    #[test]
    fn update_rounds_permissively() {
        let next = update_health_budgets(
            &HealthBudgets::default(),
            &[sidecar("fig2a", Some(health(0.82159, 0.03001, 0.25)))],
        );
        let e = next.entries["fig2a"];
        assert_eq!(e.min_ess_fraction, 0.8215, "floor rounds down");
        assert_eq!(e.max_weight_fraction, 0.0301, "ceiling rounds up");
    }
}
