//! Snapshot of the merged telemetry state, plus its JSON sidecar form.

use crate::json::{obj, Value};
use crate::{ChunkStat, Global, HealthChunk, Mode, QuarantineRecord};

/// Current sidecar schema version. Version 2 added `schema_version` itself
/// plus per-span attribution (`self_ns`, solver counters per span);
/// version 3 adds per-trace estimator-health objects, per-span rescue
/// counters, and derived `mc.*` health gauges. Consumers must tolerate
/// absent fields and treat such documents as the older version.
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
    /// DC solves charged to this span (innermost-span attribution).
    pub solves: u64,
    /// Newton iterations charged to this span.
    pub newton_iterations: u64,
    /// LU factorizations charged to this span.
    pub lu_factorizations: u64,
    /// Cold solves charged to this span.
    pub cold_solves: u64,
    /// Rescue-ladder entries charged to this span.
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that converged, charged to this span.
    pub rescue_hits: u64,
}

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

/// Merged DC-solver counters with the derived warm-hit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverSummary {
    /// Completed solves.
    pub solves: u64,
    /// Newton iterations.
    pub newton_iterations: u64,
    /// LU factorizations.
    pub lu_factorizations: u64,
    /// Warm-start attempts.
    pub warm_attempts: u64,
    /// Warm-start attempts that converged.
    pub warm_hits: u64,
    /// Cold solves.
    pub cold_solves: u64,
    /// Damped retries.
    pub damped_retries: u64,
    /// Source-ramp fallbacks.
    pub source_ramps: u64,
    /// Gmin-continuation stages.
    pub gmin_steps: u64,
    /// Source-ramp steps.
    pub ramp_steps: u64,
    /// Solves that entered the rescue ladder.
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that converged.
    pub rescue_hits: u64,
    /// Individual rescue rungs run.
    pub rescue_rungs: u64,
    /// `warm_hits / warm_attempts`; 1.0 when no warm start was tried.
    pub warm_hit_rate: f64,
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
    /// Whether importance-sampling weight moments were recorded (via
    /// [`crate::record_chunk_health`]); the ESS fields are meaningful
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
#[derive(Debug, Clone, PartialEq)]
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
    let mut gauges: Vec<(String, f64)> =
        g.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect();
    gauges.extend(derived_health_gauges(&traces));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
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
                solves: s.solver.solves,
                newton_iterations: s.solver.newton_iterations,
                lu_factorizations: s.solver.lu_factorizations,
                cold_solves: s.solver.cold_solves,
                rescue_attempts: s.solver.rescue_attempts,
                rescue_hits: s.solver.rescue_hits,
            })
            .collect(),
        counters: g
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges,
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
        solver: SolverSummary {
            solves: g.solver.solves,
            newton_iterations: g.solver.newton_iterations,
            lu_factorizations: g.solver.lu_factorizations,
            warm_attempts: g.solver.warm_attempts,
            warm_hits: g.solver.warm_hits,
            cold_solves: g.solver.cold_solves,
            damped_retries: g.solver.damped_retries,
            source_ramps: g.solver.source_ramps,
            gmin_steps: g.solver.gmin_steps,
            ramp_steps: g.solver.ramp_steps,
            rescue_attempts: g.solver.rescue_attempts,
            rescue_hits: g.solver.rescue_hits,
            rescue_rungs: g.solver.rescue_rungs,
            warm_hit_rate: if g.solver.warm_attempts == 0 {
                1.0
            } else {
                g.solver.warm_hits as f64 / g.solver.warm_attempts as f64
            },
        },
        traces,
        quarantine: {
            let mut q = g.quarantine.clone();
            // Events arrive from worker threads in schedule order; sorting
            // on the replay key makes two clock-off runs byte-identical.
            q.sort_by_key(|r| (r.stream, r.seed, r.kind, r.corner.to_bits()));
            q
        },
    }
}

/// Reconstructs the running estimate after each chunk by merging the
/// per-chunk Welford moments in chunk order (Chan's parallel update —
/// deterministic, independent of the order chunks were recorded in).
fn running_points(chunks: &[ChunkStat]) -> Vec<TracePoint> {
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
        let mut sorted: Vec<(u64, HealthChunk)> = chunks.to_vec();
        sorted.sort_by_key(|&(chunk, _)| chunk);
        let (mut fails, mut ws, mut wss, mut wmax) = (0u64, 0.0f64, 0.0f64, 0.0f64);
        for (_, h) in &sorted {
            fails += h.fails;
            ws += h.weight_sum;
            wss += h.weight_sq_sum;
            wmax = wmax.max(h.weight_max);
        }
        health.has_weights = true;
        health.contributing = fails;
        health.ess = if wss > 0.0 { ws * ws / wss } else { 0.0 };
        health.ess_fraction = if fails == 0 {
            1.0
        } else {
            health.ess / fails as f64
        };
        health.max_weight_fraction = if ws > 0.0 { wmax / ws } else { 0.0 };
    }
    Some(health)
}

/// The run-level `mc.*` health gauges derived from per-trace health:
/// worst case across traces — minimum ESS / ESS fraction over weighted
/// traces, maximum weight concentration and stall ratio over all traces.
/// Derived here (not `gauge_set` from workers) because gauges merge by
/// maximum, which would invert the min-ESS semantics.
fn derived_health_gauges(traces: &[TraceRow]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let healths: Vec<&TraceHealth> = traces.iter().filter_map(|t| t.health.as_ref()).collect();
    if healths.is_empty() {
        return out;
    }
    let weighted: Vec<&&TraceHealth> = healths.iter().filter(|h| h.has_weights).collect();
    if !weighted.is_empty() {
        let ess = weighted.iter().map(|h| h.ess).fold(f64::INFINITY, f64::min);
        let essf = weighted
            .iter()
            .map(|h| h.ess_fraction)
            .fold(f64::INFINITY, f64::min);
        let wf = weighted
            .iter()
            .map(|h| h.max_weight_fraction)
            .fold(0.0, f64::max);
        out.push(("mc.ess".to_string(), ess));
        out.push(("mc.ess_fraction".to_string(), essf));
        out.push(("mc.max_weight_fraction".to_string(), wf));
    }
    let stall = healths.iter().map(|h| h.stall_ratio).fold(0.0, f64::max);
    out.push(("mc.stall_ratio".to_string(), stall));
    out
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

    /// A span aggregate by `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// A convergence trace by name.
    pub fn trace(&self, name: &str) -> Option<&TraceRow> {
        self.traces.iter().find(|t| t.name == name)
    }

    /// The solver-counter object of the sidecar. The rescue keys are
    /// emitted only when the rescue ladder ran at all, so sidecars of
    /// rescue-free runs stay byte-identical to pre-rescue output.
    fn solver_value(&self) -> Value {
        let mut fields = vec![
            ("solves", Value::Num(self.solver.solves as f64)),
            (
                "newton_iterations",
                Value::Num(self.solver.newton_iterations as f64),
            ),
            (
                "lu_factorizations",
                Value::Num(self.solver.lu_factorizations as f64),
            ),
            (
                "warm_attempts",
                Value::Num(self.solver.warm_attempts as f64),
            ),
            ("warm_hits", Value::Num(self.solver.warm_hits as f64)),
            ("cold_solves", Value::Num(self.solver.cold_solves as f64)),
            (
                "damped_retries",
                Value::Num(self.solver.damped_retries as f64),
            ),
            ("source_ramps", Value::Num(self.solver.source_ramps as f64)),
            ("gmin_steps", Value::Num(self.solver.gmin_steps as f64)),
            ("ramp_steps", Value::Num(self.solver.ramp_steps as f64)),
        ];
        if self.solver.rescue_attempts > 0 {
            fields.push((
                "rescue_attempts",
                Value::Num(self.solver.rescue_attempts as f64),
            ));
            fields.push(("rescue_hits", Value::Num(self.solver.rescue_hits as f64)));
            fields.push(("rescue_rungs", Value::Num(self.solver.rescue_rungs as f64)));
        }
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
                                                    // Explicit `le`-style upper bound, so
                                                    // Prometheus rendering and report
                                                    // consumers agree without re-deriving
                                                    // it from the log2 index.
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
                                ("solves", Value::Num(s.solves as f64)),
                                ("newton_iterations", Value::Num(s.newton_iterations as f64)),
                                ("lu_factorizations", Value::Num(s.lu_factorizations as f64)),
                                ("cold_solves", Value::Num(s.cold_solves as f64)),
                            ];
                            // Like the solver section: rescue keys appear
                            // only when the ladder ran under this span.
                            if s.rescue_attempts > 0 {
                                fields.push((
                                    "rescue_attempts",
                                    Value::Num(s.rescue_attempts as f64),
                                ));
                                fields.push(("rescue_hits", Value::Num(s.rescue_hits as f64)));
                            }
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
                                ("kind", Value::Str(q.kind.into())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        obj(doc)
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

#[cfg(test)]
mod tests {
    use crate::{json, test_guard, Mode};

    #[test]
    fn sidecar_json_round_trips_and_has_schema() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::set_clock_enabled(false);
        crate::reset();
        {
            let _s = crate::span("fig");
            crate::counter_add("eval.margins", 3);
            crate::record_solver(&crate::SolverDelta {
                solves: 1,
                newton_iterations: 2,
                warm_attempts: 1,
                warm_hits: 1,
                ..Default::default()
            });
            let _t = crate::trace_scope("fig.mc");
            let h = crate::active_trace().unwrap();
            crate::record_chunk(&h, 0, 4096, 1e-4, 1e-6);
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
        crate::record_solver(&crate::SolverDelta {
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
