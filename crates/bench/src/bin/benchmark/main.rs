//! The repository benchmark: end-to-end metrics of four workloads and the
//! per-layer metrics that explain them. See README.md beside this file.
//!
//! ```text
//! benchmark [run] --workload <w> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! benchmark run --all [--seed <n>] [--seconds <s>]
//! benchmark trace <w> [--seed <n>] [--seconds <s>]
//! benchmark compare <parent-runs> <change-runs>
//! benchmark bless [<golden-dir>]
//! ```
//!
//! A run prints `<workload> <metric> <value> <unit>` lines, then one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`. It exits 0 when
//! every output check passed, 1 when one failed, and 2 without a result
//! when it could not run.

mod compare;
mod golden;
mod heap;
mod probes;
mod quantiles;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use pvtm_telemetry::clock::Stopwatch;
use pvtm_telemetry::json::{self, obj, Value};
use pvtm_telemetry::Mode;

use quantiles::median;
use spans::Tracer;
use workloads::{Output, Prepared, Sizes, Workload, SETUP_SEED};

/// The benchmark definition: run length, workloads, metrics with their
/// units, directions and bounds.
const DEFINITION: &str = include_str!("../../../../../BENCHMARK.json");

/// Where `trace` writes its span files, relative to the working directory.
const SPAN_DIR: &str = "target/benchmark";

/// Where `bless` writes by default, relative to the repository root.
const GOLDEN_DIR: &str = "crates/bench/src/bin/benchmark/golden";

/// One metric of BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
struct Definition {
    run_seconds: f64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn definition() -> Result<Definition, String> {
    let root = json::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        let list = root
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?;
        list.iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                Ok(MetricDef {
                    name: field("name").ok_or(format!("{key}: metric without a name"))?,
                    unit: field("unit").ok_or(format!("{key}: metric without a unit"))?,
                    higher: field("better").as_deref() == Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Definition {
        run_seconds: root
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// A run's measured metrics and checked outputs.
struct RunResult {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    verdict: golden::Verdict,
    spans: Vec<spans::Span>,
}

/// Puts the library in the state every run measures: telemetry off (the
/// trace pass switches to `Summary` itself), no event journal, no fault
/// injection and the default quarantine ceiling, whatever the environment
/// says.
fn pin_library_state() {
    pvtm_telemetry::set_mode(Mode::Off);
    pvtm_telemetry::events::set_enabled(false);
    pvtm_telemetry::fault::disable();
    pvtm_telemetry::fault::set_max_quarantine(0.01);
}

/// Runs workload `w` for `seconds` of timed operations. A traced run then
/// also measures the per-layer metrics.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> Result<RunResult, String> {
    pin_library_state();
    let mut tracer = Tracer::new(trace);
    let (result, _) = tracer.span("benchmark", |t| -> Result<_, String> {
        // Set-up: build the workload's state and run its first operation,
        // which fills caches and finishes lazy initialisation. The
        // reference kernel runs before the first set-up pass and after
        // every state build and operation part; each time is scaled by the
        // mean of the speed scales measured just before and just after it.
        // Times are (unscaled, scaled) pairs.
        let mut setup_s = Vec::new();
        let mut outputs = Vec::new();
        let mut prepared = None;
        let mut scale = speed_scale(t);
        for _ in 0..w.setup_reps() {
            let (built, secs) = t.span("setup", |t| Prepared::new(w, sizes, t));
            let p = built?;
            let after = speed_scale(t);
            let build = (secs, secs * (scale + after) / 2.0);
            scale = after;
            let (out, first) = timed_op(&p, SETUP_SEED, 0, &mut scale, t);
            setup_s.push((build.0 + first.0, build.1 + first.1));
            if outputs.is_empty() {
                outputs.push((0, out));
            }
            prepared = Some(p);
        }
        let prepared = prepared.ok_or("a workload sets up at least once")?;
        let setup_heap = heap::peak_mib();

        // Timed operations, at least one, as long as the next one (expected
        // to take as long as the last) ends within `seconds`.
        let clock = Stopwatch::started();
        let mut op_s = Vec::new();
        let mut k = 0;
        let mut last_s = 0.0;
        while k == 0 || clock.elapsed_secs() + last_s <= seconds {
            k += 1;
            let started = clock.elapsed_secs();
            let (out, secs) = timed_op(&prepared, seed, k, &mut scale, t);
            op_s.push(secs);
            outputs.push((k, out));
            last_s = clock.elapsed_secs() - started;
        }
        let mut verdict = golden::check(w, sizes, &outputs);
        let units = sizes.units(w);
        let mut attempted = outputs.len() as u64 * units;

        let scaled = |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(_, s)| *s).collect() };
        let raw = |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(s, _)| *s).collect() };
        let mut metrics = BTreeMap::new();
        if trace {
            metrics = probes::layer_metrics(w, seed, sizes, &prepared, &raw(&op_s), t, &mut verdict)?;
            attempted += w.traced_ops() * units + sizes.probe_figures.len() as u64;
        } else {
            metrics.insert("setup_s".into(), median(&scaled(&setup_s)));
            metrics.insert(
                "units_per_s".into(),
                (k * units) as f64 / scaled(&op_s).iter().sum::<f64>(),
            );
            metrics.insert("setup_heap_mib".into(), setup_heap);
            eprintln!(
                "{}: unscaled median set-up {:.4} s, operation {:.3} ms; median speed scale {:.4}",
                w.name(),
                median(&raw(&setup_s)),
                median(&raw(&op_s)) * 1e3,
                median(&op_s.iter().map(|(s, f)| f / s).collect::<Vec<_>>()),
            );
        }
        eprintln!(
            "{}: seed {seed}, {} set-up passes, {k} timed operations × {units} units, {} worker threads",
            w.name(),
            setup_s.len(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        Ok((metrics, attempted, verdict))
    });
    let (metrics, attempted, verdict) = result?;
    Ok(RunResult {
        metrics,
        attempted,
        verdict,
        spans: tracer.spans().to_vec(),
    })
}

/// Time of [`reference_kernel`] on the machine the baselines come from,
/// otherwise idle \[s\].
const REFERENCE_KERNEL_S: f64 = 3.0e-3;

/// A fixed floating-point loop (exp, ln_1p, sqrt — the device model's mix)
/// that no library change can speed up or slow down.
fn reference_kernel() -> f64 {
    let mut acc = 0.0;
    for i in 0..200_000u32 {
        let v = std::hint::black_box(f64::from(i) * 1e-5);
        acc += (v.exp() - 1.0).ln_1p() / (1.0 + v * v).sqrt();
    }
    std::hint::black_box(acc)
}

/// How much of the reference kernel's slowdown the library's code shares:
/// when the host is contended the kernel slows more than the workloads do.
/// Across 44 runs of `figures_quick`, `mc_skewed` and `asb_population` the
/// run-to-run spread of their rates was smallest for exponents 0.8–0.9
/// (`figures_quick`: 0.034 at 0.8, 0.065 at 1).
const SPEED_ELASTICITY: f64 = 0.85;

/// Runs the reference kernel three times and returns the factor that
/// scales a time measured next to it to the reference machine's speed.
/// On a shared VM the speed drifts by tens of percent between and within
/// runs; scaling each time by the kernel runs on either side of it cancels
/// most of that drift, where a ratio of run medians cancels about half.
fn speed_scale(tracer: &mut Tracer) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| tracer.span("reference", |_| reference_kernel()).1)
        .collect();
    (REFERENCE_KERNEL_S / median(&runs)).powf(SPEED_ELASTICITY)
}

/// Runs operation `k` of `prepared` one part at a time, with the reference
/// kernel after each, and returns its output and its (unscaled, scaled)
/// time. A part's time is scaled by the mean of the speed scales measured
/// just before it (`scale` on entry) and just after it (`scale` on return).
/// A figures round is 13 parts over ~1.8 s; scaled as one, the round's
/// rate spread by 0.07–0.12 over ten runs, and by 0.03–0.04 scaled part by
/// part.
fn timed_op(
    prepared: &Prepared,
    seed: u64,
    k: u64,
    scale: &mut f64,
    t: &mut Tracer,
) -> (Output, (f64, f64)) {
    let (mut parts, mut raw, mut scaled) = (Vec::new(), 0.0, 0.0);
    for part in 0..prepared.parts() {
        let (out, secs) = t.span("op", |t| prepared.op_part(seed, k, part, t));
        let after = speed_scale(t);
        raw += secs;
        scaled += secs * (*scale + after) / 2.0;
        *scale = after;
        parts.push(out);
    }
    (Output::join(parts), (raw, scaled))
}

/// Prints a run as metric lines plus the result JSON; the exit code says
/// whether every output check passed.
fn report(w: Workload, defs: &[MetricDef], run: &RunResult) -> Result<ExitCode, String> {
    let mut members = Vec::new();
    for def in defs {
        let value = *run.metrics.get(&def.name).ok_or(format!(
            "{}: no value for {}",
            w.name(),
            def.name
        ))?;
        if !value.is_finite() {
            return Err(format!("{}: {} is {value}", w.name(), def.name));
        }
        println!("{} {} {value} {}", w.name(), def.name, def.unit);
        members.push((
            def.name.clone(),
            obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(def.unit.clone())),
            ]),
        ));
    }
    if let Some(extra) = run
        .metrics
        .keys()
        .find(|k| !defs.iter().any(|d| &d.name == *k))
    {
        return Err(format!("{}: {extra} is not in BENCHMARK.json", w.name()));
    }
    for miss in run.verdict.misses.iter().take(10) {
        eprintln!("{}: output check failed: {miss}", w.name());
    }
    if run.verdict.misses.len() > 10 {
        eprintln!(
            "{}: ... {} failed checks in all",
            w.name(),
            run.verdict.misses.len()
        );
    }
    let correct = run.verdict.misses.is_empty();
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(run.attempted as f64)),
        (
            "failed",
            Value::Num(run.verdict.failed.min(run.attempted) as f64),
        ),
        ("metrics", Value::Obj(members)),
    ]);
    println!("{}", result.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    if !Stopwatch::started().is_running() {
        return Err(
            "the telemetry clock is gated off (PVTM_TELEMETRY_CLOCK); every time would read zero"
                .into(),
        );
    }
    let def = definition()?;
    let run = measure(w, seed, seconds, trace, &Sizes::standard())?;
    if trace {
        let path = std::path::Path::new(SPAN_DIR).join(format!("{}.trace.json", w.name()));
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let text = spans::to_json(w.name(), seed, &run.spans).to_json();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans in {}",
            w.name(),
            run.spans.len(),
            path.display()
        );
    }
    report(
        w,
        if trace {
            &def.per_layer
        } else {
            &def.end_to_end
        },
        &run,
    )
}

/// `run --all`: each workload in a fresh process, one after another; their
/// lines are passed through and their results combined into one.
fn run_all(seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed, mut code) = (true, 0.0, 0.0, ExitCode::SUCCESS);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        let Ok(result) = json::parse(last) else {
            return Err(format!("{} printed no result", w.name()));
        };
        if !out.status.success() {
            code = ExitCode::FAILURE;
        }
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(Value::Obj(ms)) = result.get("metrics") {
            metrics.extend(
                ms.iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name()), v.clone())),
            );
        }
    }
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(code)
}

/// Options shared by `run` and `trace`.
struct RunArgs {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            out.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(out)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => {
                let def = definition()?;
                let defs: Vec<MetricDef> =
                    def.end_to_end.into_iter().chain(def.per_layer).collect();
                compare::run(parent, change, &defs)
            }
            _ => Err("compare takes two files".into()),
        },
        Some("bless") => {
            let dir = args.get(1).map_or(GOLDEN_DIR, String::as_str);
            pin_library_state();
            golden::bless(std::path::Path::new(dir))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("trace") => {
            let w = args
                .get(1)
                .and_then(|n| Workload::from_name(n))
                .ok_or("trace takes a workload")?;
            let opts = parse_run_args(&args[2..])?;
            let seconds = opts
                .seconds
                .map_or_else(|| definition().map(|d| d.run_seconds), Ok)?;
            run_one(w, opts.seed, seconds, true)
        }
        _ => {
            let rest = if args.first().map(String::as_str) == Some("run") {
                &args[1..]
            } else {
                args
            };
            let opts = parse_run_args(rest)?;
            let seconds = opts
                .seconds
                .map_or_else(|| definition().map(|d| d.run_seconds), Ok)?;
            match (opts.all, opts.workload) {
                (true, None) => run_all(opts.seed, seconds, opts.trace),
                (false, Some(w)) => run_one(w, opts.seed, seconds, opts.trace),
                _ => Err("give either --workload <name> or --all".into()),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, MutexGuard};
    use workloads::ROUND;

    /// Telemetry state is process-global, so runs in tests take turns.
    fn library() -> MutexGuard<'static, ()> {
        static LIBRARY: Mutex<()> = Mutex::new(());
        LIBRARY.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `fig.<id>.*` metrics the figure probe emits for `figures`.
    fn figure_metrics(figures: &[(&str, workloads::FigureFn)]) -> BTreeSet<String> {
        figures
            .iter()
            .flat_map(|(id, _)| ["s", "solves", "newton"].map(|m| format!("fig.{id}.{m}")))
            .collect()
    }

    /// 256 samples, 2 dies, one cheap figure (fig5a), small probes.
    fn tiny() -> Sizes {
        Sizes {
            mc_nominal_samples: 256,
            mc_skewed_samples: 256,
            asb_dies: 2,
            figures: &ROUND[4..5],
            probe_margins: 64,
            probe_dies: 1,
            probe_figures: &ROUND[4..5],
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let def = definition().unwrap();
        let names: Vec<&str> = def
            .end_to_end
            .iter()
            .chain(&def.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(def.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(def
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert_eq!(ROUND[4].0, "fig5a");
        // The standard figure probe covers exactly the figures of
        // BENCHMARK.json, so the trace test may probe fewer.
        let listed: BTreeSet<String> = names
            .iter()
            .filter(|n| n.starts_with("fig."))
            .map(|n| n.to_string())
            .collect();
        assert_eq!(listed, figure_metrics(Sizes::standard().probe_figures));
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric() {
        let _library = library();
        let def = definition().unwrap();
        let want: BTreeSet<&str> = def.end_to_end.iter().map(|m| m.name.as_str()).collect();
        for w in Workload::ALL {
            let run = measure(w, 1, 1e-3, false, &tiny()).unwrap();
            let got: BTreeSet<&str> = run.metrics.keys().map(String::as_str).collect();
            assert_eq!(got, want, "{}", w.name());
            assert!(run.metrics.values().all(|v| v.is_finite() && *v > 0.0));
            assert!(run.attempted > 0);
        }
    }

    #[test]
    fn trace_emits_the_per_layer_metrics_in_a_well_formed_span_tree() {
        let _library = library();
        let def = definition().unwrap();
        let run = measure(Workload::McNominal, 1, 1e-3, true, &tiny()).unwrap();
        let probed = figure_metrics(tiny().probe_figures);
        let want: BTreeSet<&str> = def
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !n.starts_with("fig.") || probed.contains(*n))
            .collect();
        let got: BTreeSet<&str> = run.metrics.keys().map(String::as_str).collect();
        assert_eq!(got, want);
        assert!(run.metrics.values().all(|v| v.is_finite()));

        let spans = &run.spans;
        assert_eq!(spans[0].name, "benchmark");
        assert_eq!(spans[0].parent, None);
        for s in &spans[1..] {
            let p = &spans[s.parent.expect("only the root has no parent")];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{}",
                s.name
            );
        }
        let self_ns = spans::self_times(spans);
        assert!(self_ns.iter().all(|&t| t >= 0));
        let root = (spans[0].end_ns - spans[0].start_ns) as f64;
        let total = self_ns.iter().sum::<i64>() as f64;
        assert!((total - root).abs() <= 0.01 * root, "{total} vs {root}");
    }

    #[test]
    fn the_same_seed_repeats_and_another_seed_differs() {
        let _library = library();
        pin_library_state();
        let sizes = tiny();
        let mut t = Tracer::new(false);
        let bits = |out: Output| match out {
            Output::Mc { p, se, .. } => (p.to_bits(), se.to_bits()),
            other => panic!("not an estimate: {other:?}"),
        };
        let mc = Prepared::new(Workload::McSkewed, &sizes, &mut t).unwrap();
        let a = bits(mc.op(7, 1, &mut t));
        assert_eq!(a, bits(mc.op(7, 1, &mut t)));
        assert_ne!(a, bits(mc.op(8, 1, &mut t)));
        let asb = Prepared::new(Workload::AsbPopulation, &sizes, &mut t).unwrap();
        assert_eq!(asb.op(7, 1, &mut t), asb.op(7, 1, &mut t));
    }

    #[test]
    fn a_wrong_output_fails_its_check() {
        let sizes = Sizes::standard();
        let wrong = |quarantined| Output::Mc {
            p: 0.5,
            se: 1e-6,
            quarantined,
        };
        let verdict = golden::check(Workload::McNominal, &sizes, &[(0, wrong(0)), (1, wrong(3))]);
        // The set-up estimate and the pooled estimate are wrong; the
        // quarantined samples failed without being wrong.
        assert_eq!(verdict.misses.len(), 2, "{:?}", verdict.misses);
        assert_eq!(verdict.failed, 2 * sizes.mc_nominal_samples + 3);

        // One heavy importance weight carries an estimate above 1, with a
        // standard error to match; pooled with typical ones it is right.
        let golden = json::parse(include_str!("golden/mc_skewed.json")).unwrap();
        let field = |path: [&str; 2]| {
            path.iter()
                .try_fold(&golden, |v, key| v.get(key))
                .and_then(Value::as_f64)
                .unwrap()
        };
        let estimate = |p, se| Output::Mc {
            p,
            se,
            quarantined: 0,
        };
        let mut outputs = vec![(0, estimate(field(["setup", "p"]), field(["setup", "se"])))];
        outputs.extend((1..64).map(|k| (k, estimate(field(["reference", "p"]), 5e-4))));
        outputs.push((64, estimate(1.27, 1.27)));
        let verdict = golden::check(Workload::McSkewed, &sizes, &outputs);
        assert!(verdict.misses.is_empty(), "{:?}", verdict.misses);
        assert_eq!(verdict.failed, 0);

        let leaf = |actual: f64, expected: f64| {
            let mut diffs = Vec::new();
            golden::compare_json("x", &Value::Num(actual), &Value::Num(expected), &mut diffs);
            diffs.len()
        };
        assert_eq!(leaf(1.0 + 5e-5, 1.0), 0);
        assert_eq!(leaf(1.0 + 2e-4, 1.0), 1);
        assert_eq!(leaf(1e-13, 0.0), 0);
    }
}
