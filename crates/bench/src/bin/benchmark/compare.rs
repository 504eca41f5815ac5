//! `compare <parent> <change>`: each metric of each workload on two sets of
//! runs, judged by the rule of the choosing-metrics guide (§8) and the
//! bounds in BENCHMARK.json.
//!
//! Inputs are the standard output of any number of runs, appended to one
//! file per side; the `<workload> <metric> <value> <unit>` lines are read
//! and everything else is skipped. Runs pair up in file order.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::quantiles::{median, quartiles};
use crate::workloads::Workload;
use crate::MetricDef;

/// How two sets of runs of one metric compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// The change wins ≥ 90 % of pairs and its median beats the parent's
    /// by more than the parent's quartile spread.
    Improved,
    /// Within the bound (or, without one, not a consistent loss).
    Unchanged,
    /// Worse than the parent's median by more than the bound (or, without
    /// a bound, the mirror image of `Improved`).
    Regressed,
    /// The parent's own spread is wider than the bound, and not every
    /// change run beats every parent run.
    Unresolved,
}

impl Judgement {
    fn as_str(self) -> &'static str {
        match self {
            Judgement::Improved => "improved",
            Judgement::Unchanged => "unchanged",
            Judgement::Regressed => "regressed",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs the change wins (ties count for neither side) and the
/// verdict. `higher` says which direction is better; `bound` is the
/// share of the parent's median by which the metric may worsen.
pub fn judge(parent: &[f64], change: &[f64], higher: bool, bound: Option<f64>) -> (f64, Judgement) {
    let sign = if higher { 1.0 } else { -1.0 };
    let pairs = parent.len().min(change.len());
    let (mut wins, mut losses) = (0usize, 0usize);
    for (p, c) in parent.iter().zip(change) {
        let d = sign * (c - p);
        if d > 0.0 {
            wins += 1;
        } else if d < 0.0 {
            losses += 1;
        }
    }
    let share = |n: usize| n as f64 / pairs.max(1) as f64;
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let gain = sign * (cm - pm);
    let verdict = if share(wins) >= 0.9 && gain > spread {
        Judgement::Improved
    } else if let Some(bound) = bound {
        let worst_change = change
            .iter()
            .map(|c| sign * c)
            .fold(f64::INFINITY, f64::min);
        let best_parent = parent
            .iter()
            .map(|p| sign * p)
            .fold(f64::NEG_INFINITY, f64::max);
        if spread / pm.abs() > bound && worst_change <= best_parent {
            Judgement::Unresolved
        } else if -gain / pm.abs() > bound {
            Judgement::Regressed
        } else {
            Judgement::Unchanged
        }
    } else if share(losses) >= 0.9 && -gain > spread {
        Judgement::Regressed
    } else {
        Judgement::Unchanged
    };
    (share(wins), verdict)
}

/// Values per `(workload, metric)`, in file order.
fn read(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, _unit] = fields[..] {
            if let (Some(_), Ok(v)) = (Workload::from_name(workload), value.parse::<f64>()) {
                out.entry((workload.to_string(), metric.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Prints the comparison table; exits 1 when any metric regressed.
pub fn run(parent: &str, change: &str, defs: &[MetricDef]) -> Result<ExitCode, String> {
    let (p, c) = (read(parent)?, read(change)?);
    println!(
        "{:<15} {:<32} {:>34} {:>34} {:>5}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for ((workload, metric), pv) in &p {
        let Some(cv) = c.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<15} {metric:<32} missing from {change}");
            continue;
        };
        let Some(def) = defs.iter().find(|d| d.name == *metric) else {
            println!("{workload:<15} {metric:<32} not in BENCHMARK.json");
            continue;
        };
        let (wins, verdict) = judge(pv, cv, def.higher, def.bound);
        regressed |= verdict == Judgement::Regressed;
        let cell = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4e} [{q1:.3e}, {q3:.3e}]", median(v))
        };
        println!(
            "{workload:<15} {metric:<32} {:>34} {:>34} {:>5.2}  {}",
            cell(pv),
            cell(cv),
            wins,
            verdict.as_str()
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds_and_the_win_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            judge(&parent, &faster, false, Some(0.1)),
            (1.0, Judgement::Improved)
        );
        assert_eq!(
            judge(&parent, &slower, false, Some(0.1)).1,
            Judgement::Regressed
        );
        assert_eq!(
            judge(&parent, &same, false, Some(0.1)).1,
            Judgement::Unchanged
        );
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(
            judge(&parent, &slower, true, Some(0.1)).1,
            Judgement::Improved
        );
        // A parent spread wider than the bound leaves a small loss open.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + (i % 2) as f64 * 40.0).collect();
        let noisy_change: Vec<f64> = noisy.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&noisy, &noisy_change, false, Some(0.1)).1,
            Judgement::Unresolved
        );
        // Without a bound only a consistent, spread-sized loss regresses.
        assert_eq!(judge(&parent, &slower, false, None).1, Judgement::Regressed);
        assert_eq!(judge(&parent, &same, false, None).1, Judgement::Unchanged);
    }
}
