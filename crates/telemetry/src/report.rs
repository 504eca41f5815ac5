//! Snapshot of the merged telemetry state, its JSON sidecar form, and the
//! one reader of that form ([`Sidecar`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

use crate::json::{self, obj, Value};
use crate::{ChunkStat, Global, HealthChunk, Mode, QuarantineRecord, SolverStats};

/// Current sidecar schema version. Version 2 added `schema_version` itself
/// plus per-span attribution (`self_ns`, solver counters per span);
/// version 3 adds per-trace estimator-health objects and per-span rescue
/// counters. [`Sidecar::parse`] reads this version only.
pub const SCHEMA_VERSION: u32 = 3;

/// One span path's aggregate, with self/child-time and solver attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// `/`-joined span path.
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds inside the span (0 with the clock disabled).
    pub total_ns: u64,
    /// Nanoseconds accumulated by direct children — same-thread nesting
    /// plus worker spans adopted under this path via
    /// [`crate::parallel_context`]/[`crate::adopt`].
    pub child_ns: u64,
    /// `total_ns - child_ns`, saturating at zero (parallel children can
    /// sum to more CPU time than the parent's wall-clock).
    pub self_ns: u64,
    /// Solver work charged to this span (innermost-span attribution). The
    /// sidecar carries its solves, Newton iterations, LU factorizations,
    /// cold solves and rescue attempts and hits; read back from a
    /// sidecar, the other counters are 0.
    pub solver: SolverStats,
}

/// The counters a sidecar span carries, in the sidecar's member order.
const SPAN_COUNTERS: [&str; 6] = [
    "solves",
    "newton_iterations",
    "lu_factorizations",
    "cold_solves",
    "rescue_attempts",
    "rescue_hits",
];

/// One log2 histogram bucket: counts values in `[2^log2, 2^(log2+1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Bucket exponent.
    pub log2: i16,
    /// Observations in the bucket.
    pub count: u64,
}

/// One histogram's buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Metric name.
    pub name: String,
    /// Total observations (underflow included).
    pub count: u64,
    /// Non-positive / non-finite observations.
    pub underflow: u64,
    /// Occupied buckets in ascending exponent order.
    pub buckets: Vec<HistBucket>,
}

/// Merged DC-solver counters with the derived warm-hit rate. It
/// dereferences to its counters, so `solver.solves` reads the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverSummary {
    /// The merged counters.
    pub stats: SolverStats,
    /// `warm_hits / warm_attempts`; 1.0 when no warm start was tried.
    pub warm_hit_rate: f64,
}

impl From<SolverStats> for SolverSummary {
    fn from(stats: SolverStats) -> Self {
        SolverSummary {
            stats,
            warm_hit_rate: stats.warm_hit_rate(),
        }
    }
}

impl Default for SolverSummary {
    /// No solver work, so a warm-hit rate of 1.0.
    fn default() -> Self {
        SolverSummary::from(SolverStats::default())
    }
}

impl Deref for SolverSummary {
    type Target = SolverStats;

    fn deref(&self) -> &SolverStats {
        &self.stats
    }
}

/// One point of a convergence trace: the running estimate after a chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Chunk index (deterministic substream id).
    pub chunk: u64,
    /// Cumulative samples through this chunk.
    pub samples: u64,
    /// Running estimate (mean of the accumulated observations).
    pub value: f64,
    /// Running standard error.
    pub std_err: f64,
    /// Running relative error (`std_err / |value|`; infinite at 0).
    pub rel_err: f64,
}

/// Estimator-health diagnostics for one convergence trace, derived at
/// snapshot time from the per-chunk trace moments and (for importance
/// sampling) the [`crate::HealthChunk`] side channel.
///
/// The stall detector walks consecutive running points: with `n` samples a
/// CI half-width should shrink like `1/sqrt(n)`, so a step from
/// `(n0, h0)` to `(n1, h1)` counts as **stalled** when
/// `h1 > h0 * sqrt(n0/n1) * 1.25` — the interval shrank at least 25%
/// slower than root-n (or grew). A high `stall_ratio` means adding
/// samples is no longer buying confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHealth {
    /// Whether importance-sampling weight moments were recorded with the
    /// chunks ([`crate::record_chunk`]); the ESS fields are meaningful
    /// only when set.
    pub has_weights: bool,
    /// Contributing (failing) samples across all chunks.
    pub contributing: u64,
    /// Effective sample size over contributing weights: `(Σw)²/Σw²`.
    pub ess: f64,
    /// `ess / contributing`; 1.0 when nothing contributed (a weightless
    /// or empty estimator is vacuously healthy on this axis).
    pub ess_fraction: f64,
    /// Largest single weight's share of the total: `max(w)/Σw`.
    pub max_weight_fraction: f64,
    /// Consecutive-point comparisons made (`points - 1`).
    pub steps: u64,
    /// Comparisons where the CI half-width shrank slower than root-n.
    pub stalled_steps: u64,
    /// `stalled_steps / steps`; 0.0 when fewer than two points.
    pub stall_ratio: f64,
}

/// One named convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Trace label (from [`crate::trace_scope`]).
    pub name: String,
    /// Running estimates in chunk order.
    pub points: Vec<TracePoint>,
    /// Estimator-health diagnostics (`None` only for an empty trace).
    pub health: Option<TraceHealth>,
}

/// Snapshot of all merged telemetry, as returned by [`crate::snapshot()`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Mode the snapshot was taken under.
    pub mode: Mode,
    /// Whether span durations came from the monotonic clock.
    pub clock: bool,
    /// Span aggregates in path order.
    pub spans: Vec<SpanRow>,
    /// Counters in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in name order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms in name order.
    pub histograms: Vec<HistRow>,
    /// Merged DC-solver counters.
    pub solver: SolverSummary,
    /// Convergence traces in name order.
    pub traces: Vec<TraceRow>,
    /// Quarantined Monte-Carlo samples, sorted by `(stream, seed, kind)`
    /// — empty in healthy runs, so the sidecar omits the section and
    /// stays byte-identical to pre-quarantine output.
    pub quarantine: Vec<QuarantineRecord>,
}

pub(crate) fn build(g: &Global, mode: Mode, clock: bool) -> Report {
    let traces: Vec<TraceRow> = g
        .traces
        .iter()
        .map(|(name, chunks)| {
            let points = running_points(chunks);
            let health = trace_health(&points, g.health.get(name).map(Vec::as_slice));
            TraceRow {
                name: name.clone(),
                points,
                health,
            }
        })
        .collect();
    Report {
        mode,
        clock,
        spans: g
            .spans
            .iter()
            .map(|(path, s)| SpanRow {
                path: path.clone(),
                count: s.count,
                total_ns: s.total_ns,
                child_ns: s.child_ns,
                self_ns: s.total_ns.saturating_sub(s.child_ns),
                solver: s.solver,
            })
            .collect(),
        counters: g
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges: g.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        histograms: g
            .hists
            .iter()
            .map(|(&name, h)| HistRow {
                name: name.to_string(),
                count: h.count,
                underflow: h.underflow,
                buckets: h
                    .buckets
                    .iter()
                    .map(|(&log2, &count)| HistBucket { log2, count })
                    .collect(),
            })
            .collect(),
        solver: SolverSummary::from(g.solver),
        traces,
        quarantine: {
            let mut q = g.quarantine.clone();
            // Events arrive from worker threads in schedule order; sorting
            // on the replay key makes two clock-off runs byte-identical.
            q.sort_by_cached_key(|r| (r.stream, r.seed, r.kind.clone(), r.corner.to_bits()));
            q
        },
    }
}

/// Reconstructs the running estimate after each chunk by merging the
/// per-chunk Welford moments in chunk order (Chan's parallel update —
/// deterministic, independent of the order chunks were recorded in).
pub(crate) fn running_points(chunks: &[ChunkStat]) -> Vec<TracePoint> {
    let mut sorted: Vec<ChunkStat> = chunks.to_vec();
    sorted.sort_by_key(|c| c.chunk);
    let (mut n, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
    sorted
        .iter()
        .map(|c| {
            if n == 0 {
                (n, mean, m2) = (c.n, c.mean, c.m2);
            } else if c.n > 0 {
                let n1 = n as f64;
                let n2 = c.n as f64;
                let delta = c.mean - mean;
                let total = n1 + n2;
                mean += delta * n2 / total;
                m2 += c.m2 + delta * delta * n1 * n2 / total;
                n += c.n;
            }
            let variance = if n < 2 { 0.0 } else { m2 / (n - 1) as f64 };
            let std_err = if n == 0 {
                0.0
            } else {
                (variance / n as f64).sqrt()
            };
            // pvtm-lint: allow(no-float-eq) an exactly zero mean has no defined relative error
            let rel_err = if mean == 0.0 {
                f64::INFINITY
            } else {
                std_err / mean.abs()
            };
            TracePoint {
                chunk: c.chunk,
                samples: n,
                value: mean,
                std_err,
                rel_err,
            }
        })
        .collect()
}

/// Derives one trace's [`TraceHealth`] from its running points and (when
/// present) its per-chunk weight moments. Chunk moments are folded in
/// chunk-index order so the f64 sums are schedule-independent.
fn trace_health(
    points: &[TracePoint],
    chunks: Option<&[(u64, HealthChunk)]>,
) -> Option<TraceHealth> {
    if points.is_empty() {
        return None;
    }
    let mut stalled = 0u64;
    for w in points.windows(2) {
        let (p0, p1) = (w[0], w[1]);
        if p0.samples == 0 || p1.samples == 0 {
            continue;
        }
        let h0 = 1.96 * p0.std_err;
        let h1 = 1.96 * p1.std_err;
        let expected = h0 * (p0.samples as f64 / p1.samples as f64).sqrt();
        if h1 > expected * 1.25 {
            stalled += 1;
        }
    }
    let steps = (points.len() - 1) as u64;
    let mut health = TraceHealth {
        has_weights: false,
        contributing: 0,
        ess: 0.0,
        ess_fraction: 1.0,
        max_weight_fraction: 0.0,
        steps,
        stalled_steps: stalled,
        stall_ratio: if steps == 0 {
            0.0
        } else {
            stalled as f64 / steps as f64
        },
    };
    if let Some(chunks) = chunks {
        let w = fold_weights(chunks);
        health.has_weights = true;
        health.contributing = w.fails;
        health.ess = ess(&w);
        health.ess_fraction = if w.fails == 0 {
            1.0
        } else {
            health.ess / w.fails as f64
        };
        health.max_weight_fraction = if w.weight_sum > 0.0 {
            w.weight_max / w.weight_sum
        } else {
            0.0
        };
    }
    Some(health)
}

/// Folds a trace's per-chunk weight moments in chunk-index order, so the
/// f64 sums are schedule-independent: counts and sums add, maxima max.
pub(crate) fn fold_weights(chunks: &[(u64, HealthChunk)]) -> HealthChunk {
    let mut sorted: Vec<(u64, HealthChunk)> = chunks.to_vec();
    sorted.sort_by_key(|&(chunk, _)| chunk);
    sorted
        .iter()
        .fold(HealthChunk::default(), |acc, (_, h)| HealthChunk {
            fails: acc.fails + h.fails,
            weight_sum: acc.weight_sum + h.weight_sum,
            weight_sq_sum: acc.weight_sq_sum + h.weight_sq_sum,
            weight_max: acc.weight_max.max(h.weight_max),
        })
}

/// Effective sample size of folded weight moments, `(Σw)²/Σw²` (0 without
/// weights).
pub(crate) fn ess(w: &HealthChunk) -> f64 {
    if w.weight_sq_sum > 0.0 {
        w.weight_sum * w.weight_sum / w.weight_sq_sum
    } else {
        0.0
    }
}

/// One figure's estimator-health thresholds: a `health-budgets.json`
/// entry, or [`HealthEntry::FALLBACK`] for a figure without one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEntry {
    /// Floor on per-trace `ess_fraction` (weighted traces only).
    pub min_ess_fraction: f64,
    /// Ceiling on per-trace `max_weight_fraction` (weighted traces only).
    pub max_weight_fraction: f64,
    /// Ceiling on per-trace `stall_ratio`.
    pub max_stall_ratio: f64,
    /// Ceiling on the `mc.quarantine_ci_share` gauge.
    pub max_quarantine_ci_share: f64,
}

impl Default for HealthEntry {
    /// Permissive: every check passes. What a budget entry reads for a
    /// threshold it leaves out; not the thresholds of a figure without an
    /// entry, which are [`HealthEntry::FALLBACK`].
    fn default() -> Self {
        HealthEntry {
            min_ess_fraction: 0.0,
            max_weight_fraction: 1.0,
            max_stall_ratio: 1.0,
            max_quarantine_ci_share: 1.0,
        }
    }
}

impl HealthEntry {
    /// The thresholds of a figure without a budget entry of its own, so
    /// that a new figure is judged before its entry is recorded: loose
    /// enough for any honest importance-sampled run, tight enough to
    /// reject a degenerate one.
    pub const FALLBACK: HealthEntry = HealthEntry {
        min_ess_fraction: 0.2,
        max_weight_fraction: 0.25,
        max_stall_ratio: 0.5,
        max_quarantine_ci_share: 0.25,
    };
}

/// One line of the confidence ledger: one trace's health (or the run's
/// quarantine share) judged against one threshold of a [`HealthEntry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCheck {
    /// Whether the threshold was crossed.
    pub failed: bool,
    /// Failure tag: `LOW_ESS`, `WEIGHT_DEGENERATE`, `STALLED` or
    /// `QUARANTINE_BIASED`.
    pub tag: &'static str,
    /// The observed value against its threshold.
    pub detail: String,
}

impl Report {
    /// A counter's merged value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// A gauge's merged value (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// A span aggregate by `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// A convergence trace by name.
    pub fn trace(&self, name: &str) -> Option<&TraceRow> {
        self.traces.iter().find(|t| t.name == name)
    }

    /// Judges estimator health against `entry`, trace by trace in name
    /// order: weighted traces on ESS fraction (`LOW_ESS`) and weight
    /// concentration (`WEIGHT_DEGENERATE`), every trace with health on its
    /// stall ratio (`STALLED`), then the run's `mc.quarantine_ci_share`
    /// gauge when recorded (`QUARANTINE_BIASED`).
    pub fn health_checks(&self, entry: &HealthEntry) -> Vec<HealthCheck> {
        let mut out = Vec::new();
        let mut check = |failed, tag, detail| {
            out.push(HealthCheck {
                failed,
                tag,
                detail,
            })
        };
        for t in &self.traces {
            let (name, Some(h)) = (&t.name, t.health) else {
                continue;
            };
            if h.has_weights {
                check(
                    h.ess_fraction < entry.min_ess_fraction,
                    "LOW_ESS",
                    format!(
                        "{name}: ess_fraction {:.4} (floor {:.4}, ess {:.1} of {} contributing)",
                        h.ess_fraction, entry.min_ess_fraction, h.ess, h.contributing
                    ),
                );
                check(
                    h.max_weight_fraction > entry.max_weight_fraction,
                    "WEIGHT_DEGENERATE",
                    format!(
                        "{name}: max_weight_fraction {:.4} (ceiling {:.4})",
                        h.max_weight_fraction, entry.max_weight_fraction
                    ),
                );
            }
            check(
                h.stall_ratio > entry.max_stall_ratio,
                "STALLED",
                format!(
                    "{name}: stall_ratio {:.4} (ceiling {:.4}, {}/{} steps)",
                    h.stall_ratio, entry.max_stall_ratio, h.stalled_steps, h.steps
                ),
            );
        }
        if let Some(share) = self.gauge("mc.quarantine_ci_share") {
            check(
                share > entry.max_quarantine_ci_share,
                "QUARANTINE_BIASED",
                format!(
                    "quarantine_ci_share {:.4} (ceiling {:.4})",
                    share, entry.max_quarantine_ci_share
                ),
            );
        }
        out
    }

    /// The solver-counter object of the sidecar: the counters, then the
    /// warm-hit rate.
    fn solver_value(&self) -> Value {
        let mut fields = counter_members(&self.solver, |_| true);
        fields.push(("warm_hit_rate", Value::Num(self.solver.warm_hit_rate)));
        obj(fields)
    }

    /// The sidecar document (`results/<id>.telemetry.json` schema) as a
    /// JSON tree.
    pub fn to_value(&self, id: &str) -> Value {
        let mut doc = vec![
            ("schema", Value::Str("pvtm-telemetry/3".into())),
            ("schema_version", Value::Num(f64::from(SCHEMA_VERSION))),
            ("id", Value::Str(id.into())),
            ("mode", Value::Str(self.mode.as_str().into())),
            ("clock", Value::Bool(self.clock)),
            ("solver", self.solver_value()),
            (
                "counters",
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            obj(vec![
                                ("name", Value::Str(h.name.clone())),
                                ("count", Value::Num(h.count as f64)),
                                ("underflow", Value::Num(h.underflow as f64)),
                                (
                                    "buckets",
                                    Value::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|b| {
                                                obj(vec![
                                                    ("log2", Value::Num(f64::from(b.log2))),
                                                    (
                                                        "lo",
                                                        Value::Num(2.0f64.powi(i32::from(b.log2))),
                                                    ),
                                                    // Explicit upper bound, so report
                                                    // consumers need not re-derive it
                                                    // from the log2 index.
                                                    (
                                                        "hi",
                                                        Value::Num(
                                                            2.0f64.powi(i32::from(b.log2) + 1),
                                                        ),
                                                    ),
                                                    ("count", Value::Num(b.count as f64)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let mut fields = vec![
                                ("path", Value::Str(s.path.clone())),
                                ("count", Value::Num(s.count as f64)),
                                ("total_ns", Value::Num(s.total_ns as f64)),
                                ("self_ns", Value::Num(s.self_ns as f64)),
                                (
                                    "mean_ns",
                                    Value::Num(if s.count == 0 {
                                        0.0
                                    } else {
                                        s.total_ns as f64 / s.count as f64
                                    }),
                                ),
                            ];
                            fields.extend(counter_members(&s.solver, |name| {
                                SPAN_COUNTERS.contains(&name)
                            }));
                            obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "traces",
                Value::Arr(
                    self.traces
                        .iter()
                        .map(|t| {
                            let mut fields = vec![
                                ("name", Value::Str(t.name.clone())),
                                (
                                    "points",
                                    Value::Arr(
                                        t.points
                                            .iter()
                                            .map(|p| {
                                                obj(vec![
                                                    ("chunk", Value::Num(p.chunk as f64)),
                                                    ("samples", Value::Num(p.samples as f64)),
                                                    ("value", Value::Num(p.value)),
                                                    ("std_err", Value::Num(p.std_err)),
                                                    ("rel_err", Value::Num(p.rel_err)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ];
                            if let Some(h) = &t.health {
                                let mut hv = Vec::new();
                                if h.has_weights {
                                    hv.push(("contributing", Value::Num(h.contributing as f64)));
                                    hv.push(("ess", Value::Num(h.ess)));
                                    hv.push(("ess_fraction", Value::Num(h.ess_fraction)));
                                    hv.push((
                                        "max_weight_fraction",
                                        Value::Num(h.max_weight_fraction),
                                    ));
                                }
                                hv.push(("steps", Value::Num(h.steps as f64)));
                                hv.push(("stalled_steps", Value::Num(h.stalled_steps as f64)));
                                hv.push(("stall_ratio", Value::Num(h.stall_ratio)));
                                fields.push(("health", obj(hv)));
                            }
                            obj(fields)
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.quarantine.is_empty() {
            doc.push((
                "quarantine",
                Value::Arr(
                    self.quarantine
                        .iter()
                        .map(|q| {
                            obj(vec![
                                // Hex strings, not Num: full-range u64 replay
                                // keys don't survive an f64 round trip.
                                ("seed", Value::Str(format!("{:#018x}", q.seed))),
                                ("stream", Value::Str(format!("{:#018x}", q.stream))),
                                ("corner", Value::Num(q.corner)),
                                ("kind", Value::Str(q.kind.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        obj(doc)
    }

    /// Reads every member of a sidecar document leniently: a missing or
    /// mistyped member reads as zero, empty or false. [`Sidecar::from_value`]
    /// then rejects the document unless [`Report::to_value`] renders it back.
    pub(crate) fn read(doc: &Value) -> Report {
        let solver = doc.get("solver").unwrap_or(&Value::Null);
        let mode = text(doc, "mode");
        Report {
            mode: [Mode::Off, Mode::Summary, Mode::Full]
                .into_iter()
                .find(|m| m.as_str() == mode)
                .unwrap_or_default(),
            clock: doc.get("clock") == Some(&Value::Bool(true)),
            spans: items(doc, "spans")
                .iter()
                .map(|s| {
                    let total_ns = int(s.get("total_ns"));
                    SpanRow {
                        path: text(s, "path"),
                        count: int(s.get("count")),
                        total_ns,
                        child_ns: total_ns.saturating_sub(int(s.get("self_ns"))),
                        self_ns: int(s.get("self_ns")),
                        solver: read_counters(s),
                    }
                })
                .collect(),
            counters: named(doc, "counters", |v| int(Some(v))),
            gauges: named(doc, "gauges", |v| num(Some(v))),
            histograms: items(doc, "histograms")
                .iter()
                .map(|h| HistRow {
                    name: text(h, "name"),
                    count: int(h.get("count")),
                    underflow: int(h.get("underflow")),
                    buckets: items(h, "buckets")
                        .iter()
                        .map(|b| HistBucket {
                            log2: num(b.get("log2")) as i16,
                            count: int(b.get("count")),
                        })
                        .collect(),
                })
                .collect(),
            solver: SolverSummary::from(read_counters(solver)),
            traces: items(doc, "traces").iter().map(read_trace).collect(),
            quarantine: items(doc, "quarantine")
                .iter()
                .map(|q| {
                    let hex = |key: &str| {
                        text(q, key)
                            .strip_prefix("0x")
                            .and_then(|h| u64::from_str_radix(h, 16).ok())
                            .unwrap_or(0)
                    };
                    QuarantineRecord {
                        seed: hex("seed"),
                        stream: hex("stream"),
                        corner: num(q.get("corner")),
                        kind: text(q, "kind"),
                    }
                })
                .collect(),
        }
    }

    /// The sidecar document as pretty-printed JSON text.
    pub fn to_json_pretty(&self, id: &str) -> String {
        let mut s = self.to_value(id).to_json_pretty();
        s.push('\n');
        s
    }

    /// One compact human line summarizing the run — the per-figure row of
    /// the summary table.
    pub fn summary_line(&self, id: &str) -> String {
        let mut line = format!(
            "[telemetry {id}] solves={} warm={:.1}% newton={} lu={}",
            self.solver.solves,
            self.solver.warm_hit_rate * 100.0,
            self.solver.newton_iterations,
            self.solver.lu_factorizations,
        );
        let fallbacks = self.solver.damped_retries + self.solver.source_ramps;
        if fallbacks > 0 {
            line.push_str(&format!(" fallbacks={fallbacks}"));
        }
        if self.solver.rescue_attempts > 0 {
            line.push_str(&format!(
                " rescue={}/{}",
                self.solver.rescue_hits, self.solver.rescue_attempts
            ));
        }
        if !self.quarantine.is_empty() {
            line.push_str(&format!(" quarantined={}", self.quarantine.len()));
        }
        for t in &self.traces {
            if let Some(p) = t.points.last() {
                line.push_str(&format!(
                    " {}: {:.3e}±{:.0e} ({} chunks)",
                    t.name,
                    p.value,
                    p.std_err,
                    t.points.len()
                ));
            }
        }
        if self.mode == Mode::Full {
            line.push_str(&format!(" spans={}", self.spans.len()));
        }
        line
    }
}

/// `stats`' counters as sidecar members, in the sidecar's member order,
/// among those `keep` names. The rescue keys appear only when the rescue
/// ladder ran at all, so sidecars of rescue-free runs stay byte-identical
/// to pre-rescue output.
fn counter_members(stats: &SolverStats, keep: impl Fn(&str) -> bool) -> Vec<(&'static str, Value)> {
    stats
        .counters()
        .into_iter()
        .filter(|&(name, _)| {
            keep(name) && (stats.rescue_attempts > 0 || !name.starts_with("rescue_"))
        })
        .map(|(name, v)| (name, Value::Num(v as f64)))
        .collect()
}

/// The counters of a sidecar's `solver` object or of one of its spans;
/// each member that is missing or mistyped reads as 0.
fn read_counters(v: &Value) -> SolverStats {
    let mut stats = SolverStats::default();
    for (name, count) in stats.fields() {
        *count = int(v.get(name));
    }
    stats
}

fn read_trace(t: &Value) -> TraceRow {
    let points: Vec<TracePoint> = items(t, "points")
        .iter()
        .map(|p| TracePoint {
            chunk: int(p.get("chunk")),
            samples: int(p.get("samples")),
            value: num(p.get("value")),
            std_err: num(p.get("std_err")),
            rel_err: num(p.get("rel_err")),
        })
        .collect();
    // The writer gives every non-empty trace a health object, and only a
    // weighted one its ESS members; unweighted traces keep the builder's
    // vacuous ESS values.
    let health = (!points.is_empty()).then(|| {
        let h = t.get("health").unwrap_or(&Value::Null);
        let weighted = h.get("ess").is_some();
        let ess = |key: &str, unweighted: f64| {
            if weighted {
                num(h.get(key))
            } else {
                unweighted
            }
        };
        TraceHealth {
            has_weights: weighted,
            contributing: int(h.get("contributing")),
            ess: ess("ess", 0.0),
            ess_fraction: ess("ess_fraction", 1.0),
            max_weight_fraction: ess("max_weight_fraction", 0.0),
            steps: int(h.get("steps")),
            stalled_steps: int(h.get("stalled_steps")),
            stall_ratio: num(h.get("stall_ratio")),
        }
    });
    TraceRow {
        name: text(t, "name"),
        points,
        health,
    }
}

/// A count member; missing or mistyped reads as 0.
fn int(v: Option<&Value>) -> u64 {
    v.and_then(Value::as_u64).unwrap_or(0)
}

/// A number member. `null` is how the writer spells a non-finite number;
/// it reads as +∞, the one the writer produces (the `rel_err` of a
/// zero-mean trace point). Missing or mistyped reads as 0.
fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Num(x)) => *x,
        Some(Value::Null) => f64::INFINITY,
        _ => 0.0,
    }
}

/// A string member; missing or mistyped reads as empty.
fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// An array member; missing or mistyped reads as empty.
fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_default()
}

/// An object member of named values, in name order with one entry per
/// name (a duplicate then fails the comparison).
fn named<T>(v: &Value, key: &str, read: impl Fn(&Value) -> T) -> Vec<(String, T)> {
    let Some(Value::Obj(members)) = v.get(key) else {
        return Vec::new();
    };
    let by_name: BTreeMap<String, T> = members.iter().map(|(k, v)| (k.clone(), read(v))).collect();
    by_name.into_iter().collect()
}

/// Why a document is not one the telemetry writer writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidecarError {
    /// Human-readable description naming the first offending member.
    pub message: String,
}

impl fmt::Display for SidecarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SidecarError {}

fn error(message: String) -> SidecarError {
    SidecarError { message }
}

fn parse_json(text: &str) -> Result<Value, SidecarError> {
    json::parse(text).map_err(|e| error(format!("malformed JSON: {e}")))
}

/// Checks that `doc` is the JSON value `want`, object member order aside.
/// Scalars compare as the writer prints them, so `null` matches a
/// non-finite number. The error names the first difference by its path.
fn same(path: &str, doc: &Value, want: &Value) -> Result<(), SidecarError> {
    let here = if path.is_empty() { "document" } else { path };
    let at = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match (doc, want) {
        (Value::Obj(have), Value::Obj(want)) => {
            for (key, w) in want {
                match have.iter().find(|(k, _)| k == key) {
                    Some((_, h)) => same(&at(key), h, w)?,
                    None => return Err(error(format!("{}: missing", at(key)))),
                }
            }
            if let Some((key, _)) = have.iter().find(|(k, _)| !want.iter().any(|(w, _)| w == k)) {
                return Err(error(format!("{}: unknown member", at(key))));
            }
            if have.len() > want.len() {
                return Err(error(format!("{here}: duplicate member")));
            }
            Ok(())
        }
        (Value::Arr(have), Value::Arr(want)) if have.len() == want.len() => have
            .iter()
            .zip(want)
            .enumerate()
            .try_for_each(|(i, (h, w))| same(&format!("{path}[{i}]"), h, w)),
        _ if doc.to_json() == want.to_json() => Ok(()),
        _ => Err(error(format!(
            "{here}: found {}, expected {}",
            brief(doc),
            brief(want)
        ))),
    }
}

/// Compact JSON text, cut to 60 characters.
fn brief(v: &Value) -> String {
    let s = v.to_json();
    if s.chars().count() <= 60 {
        s
    } else {
        format!("{}…", s.chars().take(60).collect::<String>())
    }
}

/// A sidecar document read back: the figure id it was written for and
/// the [`Report`] it renders.
#[derive(Debug, Clone, PartialEq)]
pub struct Sidecar {
    /// Figure id the sidecar was written for.
    pub id: String,
    /// The report [`Report::to_value`] rendered into the document.
    pub report: Report,
}

impl Sidecar {
    /// Parses sidecar text; [`Sidecar::from_value`] says what is accepted.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON and on any document the writer would not
    /// write.
    pub fn parse(text: &str) -> Result<Sidecar, SidecarError> {
        Sidecar::from_value(&parse_json(text)?)
    }

    /// Reads a sidecar document. Every member is read leniently, and the
    /// document is accepted only if [`Report::to_value`] renders what was
    /// read back to the same JSON value (object member order aside). So
    /// the writer alone defines the format: schema `pvtm-telemetry/3`, and
    /// no missing, mistyped or unknown member. Members the writer leaves
    /// out stay optional exactly where it leaves them out: rescue keys at
    /// zero, the ESS keys of an unweighted trace, the health of an empty
    /// trace, and an empty quarantine. A span's `child_ns`, which the
    /// sidecar does not carry, reads back as `total_ns - self_ns`.
    ///
    /// # Errors
    ///
    /// Names the first member that differs from what the writer writes.
    pub fn from_value(doc: &Value) -> Result<Sidecar, SidecarError> {
        let sidecar = Sidecar {
            id: text(doc, "id"),
            report: Report::read(doc),
        };
        same("", doc, &sidecar.report.to_value(&sidecar.id))?;
        Ok(sidecar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, test_guard, Mode};

    fn span(path: &str, total_ns: u64, child_ns: u64, rescue: (u64, u64)) -> SpanRow {
        SpanRow {
            path: path.to_string(),
            count: 3,
            total_ns,
            child_ns,
            self_ns: total_ns - child_ns,
            solver: SolverStats {
                solves: 40,
                newton_iterations: 97,
                lu_factorizations: 97,
                cold_solves: 2,
                rescue_attempts: rescue.0,
                rescue_hits: rescue.1,
                ..SolverStats::default()
            },
        }
    }

    fn point(chunk: u64, value: f64, std_err: f64) -> TracePoint {
        TracePoint {
            chunk,
            samples: 4096 * (chunk + 1),
            value,
            std_err,
            rel_err: if value == 0.0 {
                f64::INFINITY
            } else {
                std_err / value.abs()
            },
        }
    }

    /// A report that takes every optional branch of the writer: rescue
    /// keys, weighted and unweighted health, a trace without health, a
    /// zero-mean trace whose `rel_err` is non-finite, histograms and a
    /// quarantine.
    fn every_branch() -> Report {
        let health = |has_weights: bool| TraceHealth {
            has_weights,
            contributing: if has_weights { 900 } else { 0 },
            ess: if has_weights { 739.35 } else { 0.0 },
            ess_fraction: if has_weights { 0.8215 } else { 1.0 },
            max_weight_fraction: if has_weights { 0.0301 } else { 0.0 },
            steps: 1,
            stalled_steps: 1,
            stall_ratio: 1.0,
        };
        Report {
            mode: Mode::Full,
            clock: true,
            spans: vec![
                span("fig", 5_000, 4_000, (0, 0)),
                span("fig/mc.chunk", 4_000, 0, (6, 4)),
            ],
            counters: vec![("eval.margins".into(), 12), ("mc.samples".into(), 8192)],
            gauges: vec![
                ("mc.quarantine_ci_share".into(), 0.0812),
                ("mc.quarantine_fail_bound".into(), 1.2e-3),
            ],
            histograms: vec![HistRow {
                name: "mc.is_weight".into(),
                count: 10,
                underflow: 1,
                buckets: vec![
                    HistBucket { log2: -3, count: 4 },
                    HistBucket { log2: 2, count: 5 },
                ],
            }],
            solver: SolverSummary::from(SolverStats {
                solves: 80,
                newton_iterations: 194,
                lu_factorizations: 194,
                warm_attempts: 76,
                warm_hits: 75,
                cold_solves: 5,
                damped_retries: 1,
                source_ramps: 1,
                gmin_steps: 6,
                ramp_steps: 4,
                rescue_attempts: 6,
                rescue_hits: 4,
                rescue_rungs: 9,
            }),
            traces: vec![
                TraceRow {
                    name: "fig.empty".into(),
                    points: Vec::new(),
                    health: None,
                },
                TraceRow {
                    name: "fig.is".into(),
                    points: vec![point(0, 1.2e-3, 1.3e-4), point(1, 1.19e-3, 9e-5)],
                    health: Some(health(true)),
                },
                TraceRow {
                    name: "fig.plain".into(),
                    points: vec![point(0, 0.0, 0.0), point(1, 0.0, 0.0)],
                    health: Some(health(false)),
                },
            ],
            quarantine: vec![QuarantineRecord {
                seed: 0xDEAD_BEEF_0000_0001,
                stream: 7,
                corner: -0.12,
                kind: "no_convergence".into(),
            }],
        }
    }

    #[test]
    fn sidecar_text_round_trips_byte_for_byte() {
        let report = every_branch();
        let text = report.to_json_pretty("fig");
        assert!(text.contains("\"rel_err\": null"), "{text}");
        let sidecar = Sidecar::parse(&text).unwrap();
        assert_eq!(sidecar.id, "fig");
        assert_eq!(sidecar.report, report);
        assert_eq!(sidecar.report.to_json_pretty("fig"), text);
        // A report with nothing in it takes the other side of each branch.
        let empty = Report::default().to_json_pretty("none");
        assert_eq!(Sidecar::parse(&empty).unwrap().report, Report::default());
    }

    /// Every object member of `v`, as a path of keys.
    fn member_paths(v: &Value, prefix: &[String], out: &mut Vec<Vec<String>>) {
        match v {
            Value::Obj(members) => {
                for (k, m) in members {
                    let mut path = prefix.to_vec();
                    path.push(k.clone());
                    out.push(path.clone());
                    member_paths(m, &path, out);
                }
            }
            Value::Arr(items) => {
                for (i, m) in items.iter().enumerate() {
                    let mut path = prefix.to_vec();
                    path.push(i.to_string());
                    member_paths(m, &path, out);
                }
            }
            _ => {}
        }
    }

    fn remove(v: &mut Value, path: &[String]) {
        match (v, path) {
            (Value::Obj(members), [key]) => members.retain(|(k, _)| k != key),
            (Value::Obj(members), [key, rest @ ..]) => members
                .iter_mut()
                .filter(|(k, _)| k == key)
                .for_each(|(_, m)| remove(m, rest)),
            (Value::Arr(items), [index, rest @ ..]) => {
                if let Some(m) = index.parse().ok().and_then(|i: usize| items.get_mut(i)) {
                    remove(m, rest);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn every_member_the_writer_always_emits_is_required() {
        let doc = every_branch().to_value("fig");
        let mut paths = Vec::new();
        member_paths(&doc, &[], &mut paths);
        // Named counters and gauges are data, and the quarantine section
        // is written only when non-empty: dropping one leaves a document
        // the writer could have written.
        paths.retain(|p| !matches!(p[0].as_str(), "counters" | "gauges") || p.len() == 1);
        paths.retain(|p| p[0] != "quarantine" || p.len() > 1);
        assert!(paths.len() > 90, "{} member paths", paths.len());
        for path in &paths {
            let mut cut = doc.clone();
            remove(&mut cut, path);
            assert!(
                Sidecar::from_value(&cut).is_err(),
                "accepted a sidecar without {path:?}"
            );
        }
    }

    #[test]
    fn mistyped_unknown_and_foreign_documents_are_rejected() {
        let text = every_branch().to_json_pretty("fig");
        let err = |t: &str| Sidecar::parse(t).unwrap_err().message;
        assert_eq!(
            err(&text.replacen("\"solves\": 80", "\"solves\": \"80\"", 1)),
            "solver.solves: found \"80\", expected 0"
        );
        assert_eq!(
            err(&text.replacen("\"clock\": true", "\"clock\": true, \"extra\": 1", 1)),
            "extra: unknown member"
        );
        for schema in ["pvtm-telemetry/2", "pvtm-telemetry/9", "other/1"] {
            assert_eq!(
                err(&text.replacen("pvtm-telemetry/3", schema, 1)),
                format!("schema: found \"{schema}\", expected \"pvtm-telemetry/3\"")
            );
        }
        assert!(err("{not json").starts_with("malformed JSON"));
        assert_eq!(err("{}"), "schema: missing");
        assert!(err("[1, 2]").starts_with("document: found [1,2]"));
    }

    #[test]
    fn a_warm_hit_rate_that_contradicts_the_counts_is_rejected() {
        // The rate is derived from the counts (75 of 76 here), never read:
        // the writer cannot write another one.
        let text = every_branch().to_json_pretty("fig");
        let rate = format!("\"warm_hit_rate\": {}", 75.0 / 76.0);
        assert!(text.contains(&rate), "{text}");
        let forged = text.replacen(&rate, "\"warm_hit_rate\": 0.5", 1);
        assert_eq!(
            Sidecar::parse(&forged).unwrap_err().message,
            format!("solver.warm_hit_rate: found 0.5, expected {}", 75.0 / 76.0)
        );
    }

    #[test]
    fn histogram_bounds_must_match_the_bucket_exponent() {
        let text = every_branch().to_json_pretty("fig");
        let parsed = Sidecar::parse(&text).unwrap();
        assert_eq!(
            parsed.report.histograms[0].buckets,
            vec![
                HistBucket { log2: -3, count: 4 },
                HistBucket { log2: 2, count: 5 }
            ]
        );
        assert!(text.contains("\"lo\": 0.125,\n"), "{text}");
        let moved = text.replacen("\"hi\": 0.25", "\"hi\": 0.5", 1);
        assert_eq!(
            Sidecar::parse(&moved).unwrap_err().message,
            "histograms[0].buckets[0].hi: found 0.5, expected 0.25"
        );
    }

    #[test]
    fn sidecar_json_round_trips_and_has_schema() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::set_clock_enabled(false);
        crate::reset();
        {
            let _s = crate::span("fig");
            crate::counter_add("eval.margins", 3);
            crate::record_solver(&SolverStats {
                solves: 1,
                newton_iterations: 2,
                warm_attempts: 1,
                warm_hits: 1,
                ..Default::default()
            });
            let _t = crate::trace_scope("fig.mc");
            let h = crate::active_trace().unwrap();
            crate::record_chunk(&h, 0, 4096, 1e-4, 1e-6, None);
        }
        let r = crate::snapshot();
        let text = r.to_json_pretty("fig");
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("pvtm-telemetry/3"));
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(u64::from(crate::SCHEMA_VERSION))
        );
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig"));
        assert_eq!(
            v.get("solver").unwrap().get("solves").unwrap().as_u64(),
            Some(1)
        );
        let rate = v
            .get("solver")
            .unwrap()
            .get("warm_hit_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((rate - 1.0).abs() < 1e-15);
        let traces = v.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces[0].get("name").unwrap().as_str(), Some("fig.mc"));
        let pts = traces[0].get("points").unwrap().as_array().unwrap();
        assert_eq!(pts[0].get("samples").unwrap().as_u64(), Some(4096));
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
    }

    #[test]
    fn clock_off_reports_are_byte_identical() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::set_clock_enabled(false);
        let run = || {
            crate::reset();
            {
                let _a = crate::span("outer");
                for _ in 0..3 {
                    let _b = crate::span("inner");
                    crate::counter_add("n", 1);
                    crate::hist_record("h", 3.0);
                }
            }
            crate::snapshot().to_json_pretty("det")
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert!(first.contains("\"total_ns\": 0"));
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
    }

    #[test]
    fn summary_line_is_compact() {
        let _g = test_guard();
        crate::set_mode(Mode::Summary);
        crate::reset();
        crate::record_solver(&SolverStats {
            solves: 10,
            newton_iterations: 25,
            warm_attempts: 10,
            warm_hits: 9,
            cold_solves: 1,
            damped_retries: 1,
            ..Default::default()
        });
        let line = crate::snapshot().summary_line("fig2a");
        assert!(line.contains("fig2a"));
        assert!(line.contains("solves=10"));
        assert!(line.contains("warm=90.0%"));
        assert!(line.contains("fallbacks=1"));
        crate::set_mode(Mode::Off);
    }
}
