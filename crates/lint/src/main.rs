//! CLI entry point: `cargo run -p pvtm-lint [--release] -- [options]`.
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error.

use pvtm_lint::{analyze_tree, Diagnostic};
use pvtm_telemetry::json::{obj, Value};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: pvtm-lint [--root DIR] [--json FILE]

  --root DIR          tree to lint (default: .); its crates/, src/ and
                      examples/ subtrees are walked
  --json FILE         also write a machine-readable report";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path_flag = |name: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--root" => root = Some(path_flag("--root")?),
            "--json" => json = Some(path_flag("--json")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Options {
        root: root.unwrap_or_else(|| PathBuf::from(".")),
        json,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("pvtm-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let tree = analyze_tree(&opts.root).map_err(|e| format!("walking {:?}: {e}", opts.root))?;
    for d in &tree.diagnostics {
        println!("{d}");
    }
    println!(
        "pvtm-lint: {} file(s), {} violation(s)",
        tree.files_scanned,
        tree.diagnostics.len()
    );

    if let Some(json_path) = &opts.json {
        let report = json_report(tree.files_scanned, &tree.diagnostics);
        std::fs::write(json_path, report.to_json_pretty() + "\n")
            .map_err(|e| format!("writing {json_path:?}: {e}"))?;
    }

    Ok(tree.diagnostics.is_empty())
}

fn json_report(files_scanned: usize, diagnostics: &[Diagnostic]) -> Value {
    let diags = diagnostics
        .iter()
        .map(|d| {
            obj(vec![
                ("file", Value::Str(d.file.clone())),
                ("line", Value::Num(f64::from(d.line))),
                ("col", Value::Num(f64::from(d.col))),
                ("rule", Value::Str(d.rule.as_str().to_string())),
                ("message", Value::Str(d.message.clone())),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Value::Str("pvtm-lint/2".to_string())),
        ("files_scanned", Value::Num(files_scanned as f64)),
        ("violations", Value::Num(diagnostics.len() as f64)),
        ("diagnostics", Value::Arr(diags)),
    ])
}
