//! `pvtm-trace` CLI — file I/O and exit codes over the library.
//!
//! ```text
//! pvtm-trace report <sidecar.json> [--folded] [--top N]
//! pvtm-trace diff   <old.json> <new.json> [--tolerance F]
//! pvtm-trace check  <budgets.json> <sidecar.json>... [--update-budgets]
//! pvtm-trace health <budgets.json> <sidecar.json>... [--update-budgets]
//! pvtm-trace tail   <events.jsonl> [--json | --follow [--interval S]]
//! ```
//!
//! Exit codes: 0 success, 1 gate failure (budget exceeded / work-counter
//! regression / estimator-health violation / a sidecar the telemetry
//! writer would not write / a followed journal that stopped growing
//! unfinalized), 2 usage or I/O error.

use std::process::ExitCode;
use std::time::Duration;

use pvtm_telemetry::events::Journal;
use pvtm_telemetry::Sidecar;
use pvtm_trace::{
    check, diff, folded_stacks, health_check, hot_span_table, snapshot, update_budgets,
    update_health_budgets, Budgets, HealthBudgets,
};

const USAGE: &str = "usage:
  pvtm-trace report <sidecar.json> [--folded] [--top N]
  pvtm-trace diff   <old.json> <new.json> [--tolerance F]
  pvtm-trace check  <budgets.json> <sidecar.json>... [--update-budgets]
  pvtm-trace health <budgets.json> <sidecar.json>... [--update-budgets]
  pvtm-trace tail   <events.jsonl> [--json | --follow [--interval S]]";

const EXIT_GATE: u8 = 1;
const EXIT_USAGE: u8 = 2;

/// Consecutive polls that find an unfinalized journal's bytes unchanged
/// before `tail --follow` takes its writer for gone: ten minutes at the
/// default two-second interval. Polls are counted, not timed, since the
/// stopwatch reads 0 under `PVTM_TELEMETRY_CLOCK=off`.
const STALL_POLLS: u32 = 300;

fn usage(msg: &str) -> ExitCode {
    eprintln!("pvtm-trace: {msg}\n{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

/// Reads one sidecar. An unreadable file is an I/O error; a document the
/// writer would not write fails the gate.
fn read_sidecar(cmd: &str, path: &str) -> Result<Sidecar, ExitCode> {
    let text =
        std::fs::read_to_string(path).map_err(|e| usage(&format!("cannot read {path}: {e}")))?;
    Sidecar::parse(&text).map_err(|e| {
        eprintln!("pvtm-trace {cmd}: FAIL — {path}: {e}");
        ExitCode::from(EXIT_GATE)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("missing subcommand");
    };
    match cmd.as_str() {
        "report" => cmd_report(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "health" => cmd_health(&args[1..]),
        "tail" => cmd_tail(&args[1..]),
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut folded = false;
    let mut top = 30usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--folded" => folded = true,
            "--top" => match it.next().map(|s| s.parse()) {
                Some(Ok(n)) => top = n,
                _ => return usage("--top needs an integer"),
            },
            _ if path.is_none() => path = Some(a.clone()),
            _ => return usage("report takes one sidecar"),
        }
    }
    let Some(path) = path else {
        return usage("report needs a sidecar path");
    };
    let sc = match read_sidecar("report", &path) {
        Ok(sc) => sc,
        Err(code) => return code,
    };
    if folded {
        print!("{}", folded_stacks(&sc.report));
    } else {
        print!("{}", hot_span_table(&sc.id, &sc.report, top));
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tolerance = 0.2f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => match it.next().map(|s| s.parse()) {
                Some(Ok(f)) => tolerance = f,
                _ => return usage("--tolerance needs a number"),
            },
            _ => paths.push(a.clone()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return usage("diff needs exactly two sidecars");
    };
    let (old, new) = match (
        read_sidecar("diff", old_path),
        read_sidecar("diff", new_path),
    ) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let out = diff(&old, &new, tolerance);
    print!("{}", out.text);
    if out.failed() {
        eprintln!(
            "pvtm-trace diff: FAIL — {} work-counter regression(s)",
            out.regressions
        );
        ExitCode::from(EXIT_GATE)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    cmd_gate(
        "check",
        "budgets",
        args,
        Budgets::parse,
        update_budgets,
        Budgets::to_json_pretty,
        |budgets, sidecars| {
            let out = check(budgets, sidecars);
            let claim = if out.slack_notes > 0 {
                "within budget (slack available; see notes)"
            } else {
                "within budget"
            };
            (out.text, out.violations, claim)
        },
    )
}

fn cmd_health(args: &[String]) -> ExitCode {
    cmd_gate(
        "health",
        "thresholds",
        args,
        HealthBudgets::parse,
        update_health_budgets,
        HealthBudgets::to_json_pretty,
        |budgets, sidecars| {
            let out = health_check(budgets, sidecars);
            (out.text, out.violations, "within confidence thresholds")
        },
    )
}

/// The procedure `check` and `health` share. It reads the budgets file
/// (a missing one starts fresh under `--update-budgets`) and the sidecars,
/// then either ratchets the budgets and writes them back, or gates the
/// sidecars and reports. `recorded` names what a ratchet records; `gate`
/// returns the report, its violation count and what the OK line claims.
fn cmd_gate<B: Default, E: std::fmt::Display>(
    cmd: &str,
    recorded: &str,
    args: &[String],
    parse: fn(&str) -> Result<B, E>,
    update: fn(&B, &[Sidecar]) -> B,
    render: fn(&B) -> String,
    gate: fn(&B, &[Sidecar]) -> (String, usize, &'static str),
) -> ExitCode {
    let update_flag = args.iter().any(|a| a == "--update-budgets");
    let paths: Vec<&String> = args.iter().filter(|a| *a != "--update-budgets").collect();
    let [budget_path, sidecar_paths @ ..] = paths.as_slice() else {
        return usage(&format!("{cmd} needs a budgets file"));
    };
    if sidecar_paths.is_empty() {
        return usage(&format!("{cmd} needs at least one sidecar"));
    }
    let budgets = match std::fs::read_to_string(budget_path) {
        Ok(text) => match parse(&text) {
            Ok(b) => b,
            Err(e) => return usage(&format!("{budget_path}: {e}")),
        },
        Err(e) if update_flag => {
            eprintln!("pvtm-trace {cmd}: starting fresh budgets ({budget_path}: {e})");
            B::default()
        }
        Err(e) => return usage(&format!("cannot read {budget_path}: {e}")),
    };
    let mut sidecars = Vec::new();
    for p in sidecar_paths {
        match read_sidecar(cmd, p) {
            Ok(sc) => sidecars.push(sc),
            Err(code) => return code,
        }
    }

    if update_flag {
        let next = update(&budgets, &sidecars);
        if let Err(e) = std::fs::write(budget_path, render(&next)) {
            return usage(&format!("cannot write {budget_path}: {e}"));
        }
        println!(
            "pvtm-trace {cmd}: recorded {recorded} for {} figure(s) in {budget_path}",
            sidecars.len()
        );
        return ExitCode::SUCCESS;
    }

    let (text, violations, claim) = gate(&budgets, &sidecars);
    print!("{text}");
    if violations > 0 {
        eprintln!("pvtm-trace {cmd}: FAIL — {violations} violation(s)");
        ExitCode::from(EXIT_GATE)
    } else {
        println!(
            "pvtm-trace {cmd}: OK — {} figure(s) {claim}",
            sidecars.len()
        );
        ExitCode::SUCCESS
    }
}

fn cmd_tail(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut follow = false;
    let mut json_out = false;
    let mut interval = Duration::from_secs(2);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--follow" => follow = true,
            "--json" => json_out = true,
            "--interval" => match it.next().and_then(|s| parse_interval(s)) {
                Some(d) => interval = d,
                None => return usage("--interval needs a positive, finite number of seconds"),
            },
            _ if path.is_none() => path = Some(a.clone()),
            _ => return usage("tail takes one journal"),
        }
    }
    if json_out && follow {
        return usage("--json is one-shot; it cannot be combined with --follow");
    }
    let Some(path) = path else {
        return usage("tail needs an events.jsonl path");
    };

    let load = || std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"));
    let parse = |text: &str, strict: bool| -> Result<pvtm_trace::Snapshot, String> {
        match Journal::parse(text) {
            Ok(j) => Ok(snapshot(&j)),
            // While following, a mid-rewrite read can be transiently
            // malformed; report it and try again next tick.
            Err(e) if !strict => Err(format!("{path}: {e} (retrying)")),
            Err(e) => Err(format!("{path}: {e}")),
        }
    };

    if !follow {
        // One-shot mode is also the CI schema validator: a contract
        // violation is a gate failure, not a usage error.
        return match load().and_then(|text| parse(&text, true)) {
            Ok(s) => {
                if json_out {
                    print!("{}", s.to_json());
                } else {
                    print!("{}", s.render(0.0));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pvtm-trace tail: FAIL — {e}");
                ExitCode::from(EXIT_GATE)
            }
        };
    }

    // The telemetry stopwatch honours PVTM_TELEMETRY_CLOCK=off by reading
    // 0.0, which simply suppresses the (inherently wall-clock) ETA line.
    let watch = pvtm_telemetry::clock::Stopwatch::started();
    let mut last: Option<String> = None;
    let mut latest: Option<pvtm_trace::Snapshot> = None;
    let mut bytes: Option<String> = None;
    let mut unchanged = 0;
    loop {
        let text = load();
        match &text {
            Ok(t) if bytes.as_ref() != Some(t) => {
                unchanged = 0;
                bytes = Some(t.clone());
            }
            _ => unchanged += 1,
        }
        match text.and_then(|t| parse(&t, false)) {
            Ok(s) => {
                let text = s.render(watch.elapsed_secs());
                if last.as_deref() != Some(text.as_str()) {
                    print!("{text}");
                    last = Some(text);
                }
                if s.finalized {
                    return ExitCode::SUCCESS;
                }
                latest = Some(s);
            }
            Err(e) => eprintln!("pvtm-trace tail: {e}"),
        }
        if unchanged >= STALL_POLLS {
            // The writer is gone: end on the last frame, without an ETA.
            if let Some(s) = &latest {
                print!("{}", s.render(0.0));
            }
            eprintln!(
                "pvtm-trace tail: FAIL — {path} stopped growing: unchanged for \
                 {STALL_POLLS} polls and not finalized"
            );
            return ExitCode::from(EXIT_GATE);
        }
        std::thread::sleep(interval);
    }
}

/// A polling interval in seconds: positive, and finite and small enough
/// for a `Duration`, so that sleeping on it cannot panic.
fn parse_interval(arg: &str) -> Option<Duration> {
    let secs: f64 = arg.parse().ok()?;
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| !d.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_must_be_a_positive_finite_duration() {
        assert_eq!(parse_interval("0.1"), Some(Duration::from_millis(100)));
        assert_eq!(parse_interval("2"), Some(Duration::from_secs(2)));
        for bad in ["inf", "1e300", "NaN", "0", "-1", "1e-12", "soon", ""] {
            assert_eq!(parse_interval(bad), None, "{bad:?}");
        }
    }
}
