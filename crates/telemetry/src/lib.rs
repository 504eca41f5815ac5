//! Zero-dependency observability for the pvtm workspace.
//!
//! Every reproduced figure hides thousands of Newton solves and rare-event
//! Monte-Carlo samples; this crate makes their health visible without
//! disturbing them:
//!
//! - **Hierarchical timed spans** ([`span`]): RAII guards that aggregate
//!   `{count, total_ns}` per `/`-joined path in a thread-local collector.
//! - **Typed counters, gauges and log2-bucketed histograms**
//!   ([`counter_add`], [`gauge_set`], [`hist_record`]), plus a fast path
//!   for the DC solver's per-solve counters ([`SolverStats`],
//!   [`record_solver`]).
//! - **Convergence traces** ([`trace_scope`], [`record_chunk`]): Monte-Carlo
//!   chunk loops snapshot their running moments every chunk, and the final
//!   [`Report`] reconstructs a per-chunk `value / std_err / rel_err` series.
//!
//! # Modes
//!
//! Everything is gated by `PVTM_TELEMETRY=off|summary|full` (see [`Mode`];
//! default **off**). The disabled path of every record function is a single
//! atomic load. `summary` records counters, histograms, the solver fast
//! path and traces; `full` additionally records timed spans.
//!
//! # Determinism
//!
//! Worker threads accumulate into thread-local collectors that merge into a
//! process-global collector when each thread exits; under the workspace's
//! rayon shim (scoped threads that join before a parallel call returns) the
//! merged totals are independent of scheduling and chunk order, because
//! every merge operation is commutative (integer adds; gauges keep the
//! maximum). Traces are keyed by chunk index and sorted at snapshot time.
//! With the monotonic clock disabled (`PVTM_TELEMETRY_CLOCK=off` or
//! [`set_clock_enabled`]) span durations read as zero and an entire
//! [`Report`] — spans included — renders byte-identically across runs.
//!
//! # Example
//!
//! ```
//! use pvtm_telemetry as tm;
//!
//! tm::set_mode(tm::Mode::Full);
//! tm::reset();
//! {
//!     let _outer = tm::span("figure");
//!     let _inner = tm::span("corner");
//!     tm::counter_add("corners", 1);
//! }
//! let report = tm::snapshot();
//! assert_eq!(report.counter("corners"), 1);
//! assert!(report.span("figure/corner").is_some());
//! tm::set_mode(tm::Mode::Off);
//! ```

pub mod clock;
pub mod events;
pub mod fault;
pub mod json;
mod report;

pub use report::{
    HealthCheck, HealthEntry, HistBucket, HistRow, Report, Sidecar, SidecarError, SolverSummary,
    SpanRow, TraceHealth, TracePoint, TraceRow, SCHEMA_VERSION,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

// ---------------------------------------------------------------- mode gate

/// Telemetry recording level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Record nothing; every instrumentation call is one atomic load.
    #[default]
    Off,
    /// Record counters, gauges, histograms, solver deltas and traces.
    Summary,
    /// Everything in `Summary` plus timed spans.
    Full,
}

impl Mode {
    /// Stable lowercase name (`off` / `summary` / `full`).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary",
            Mode::Full => "full",
        }
    }
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);
static CLOCK: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Current mode; initialized from `PVTM_TELEMETRY` on first use.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Summary,
        2 => Mode::Full,
        _ => {
            let m = mode_from_env();
            set_mode(m);
            m
        }
    }
}

fn mode_from_env() -> Mode {
    match std::env::var("PVTM_TELEMETRY")
        .unwrap_or_default()
        .to_ascii_lowercase()
        .as_str()
    {
        "summary" => Mode::Summary,
        "full" | "1" => Mode::Full,
        _ => Mode::Off,
    }
}

/// Overrides the mode (tests and harnesses; normally the env var decides).
pub fn set_mode(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Whether any recording is active (`mode() != Off`).
pub fn is_enabled() -> bool {
    mode() != Mode::Off
}

/// Whether span durations are read from the monotonic clock; initialized
/// from `PVTM_TELEMETRY_CLOCK` (`off`/`0` disables) on first use.
pub fn clock_enabled() -> bool {
    match CLOCK.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = !matches!(
                std::env::var("PVTM_TELEMETRY_CLOCK")
                    .unwrap_or_default()
                    .to_ascii_lowercase()
                    .as_str(),
                "off" | "0"
            );
            set_clock_enabled(on);
            on
        }
    }
}

/// Enables or disables the monotonic clock. Disabled, span durations are
/// recorded as zero and reports are byte-identical across runs.
pub fn set_clock_enabled(on: bool) {
    CLOCK.store(u8::from(on), Ordering::Relaxed);
}

// ---------------------------------------------------------------- collector

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SpanStat {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    /// Wall-clock accumulated by direct children (same-thread nesting and
    /// spans adopted under this path by parallel workers). The report
    /// derives `self_ns = total_ns - child_ns`, saturating at zero — a
    /// parallel region's children can sum to more CPU time than the
    /// parent's wall-clock.
    pub(crate) child_ns: u64,
    /// Solver work recorded while this path was the innermost span.
    pub(crate) solver: SolverStats,
}

/// A log2-bucketed histogram: bucket `e` counts values in `[2^e, 2^(e+1))`.
/// Non-positive and non-finite values land in `underflow`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Hist {
    pub(crate) count: u64,
    pub(crate) underflow: u64,
    pub(crate) buckets: BTreeMap<i16, u64>,
}

impl Hist {
    fn record(&mut self, v: f64) {
        self.count += 1;
        match bucket_exp(v) {
            Some(e) => *self.buckets.entry(e).or_insert(0) += 1,
            None => self.underflow += 1,
        }
    }

    fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.underflow += other.underflow;
        for (&e, &c) in &other.buckets {
            *self.buckets.entry(e).or_insert(0) += c;
        }
    }
}

/// Floor of log2 for a positive finite value, via the IEEE exponent field
/// (exact — no rounding surprises at bucket edges).
fn bucket_exp(v: f64) -> Option<i16> {
    if !v.is_finite() || v <= 0.0 {
        return None;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    // Subnormals all collapse into the bottom bucket.
    let e = if biased == 0 { -1023 } else { biased - 1023 };
    Some(e as i16)
}

/// DC-solver work counters: what a `pvtm_circuit::CircuitTemplate`
/// accumulates across its solves, what one solve adds
/// ([`SolverStats::delta_since`]), and what [`record_solver`] merges into
/// a run and charges to its innermost span.
///
/// `warm_hits / warm_attempts` is the warm-start hit rate;
/// `damped_retries` and `source_ramps` count cold solves that needed the
/// damped retry or the source ramp on top of plain Gmin continuation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Completed solves (converged operating points).
    pub solves: u64,
    /// Total Newton iterations, across all continuation stages and solves.
    pub newton_iterations: u64,
    /// LU factorizations (one per Newton linear solve).
    pub lu_factorizations: u64,
    /// Warm-start Newton attempts (seeded from a previous solution).
    pub warm_attempts: u64,
    /// Warm-start attempts that converged without a cold restart.
    pub warm_hits: u64,
    /// Cold solves (Gmin continuation from the initial guess).
    pub cold_solves: u64,
    /// Cold solves that needed the heavily damped retry.
    pub damped_retries: u64,
    /// Cold solves that fell through to the source-stepping ramp.
    pub source_ramps: u64,
    /// Gmin-continuation stages run (each is one Newton solve at a fixed
    /// Gmin).
    pub gmin_steps: u64,
    /// Source-ramp steps run (each is a full Gmin continuation at one
    /// source scale).
    pub ramp_steps: u64,
    /// Solves that exhausted the standard cold ladder and entered the
    /// rescue ladder.
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that ultimately converged.
    pub rescue_hits: u64,
    /// Individual rescue rungs run (≤ 3 per attempt).
    pub rescue_rungs: u64,
}

impl SolverStats {
    /// The name table: every counter beside its sidecar member name, in
    /// the sidecar's member order. Merging, differencing, the sidecar's
    /// writer and reader and `pvtm-trace`'s `diff` and `check` all go
    /// through it.
    pub(crate) fn fields(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("solves", &mut self.solves),
            ("newton_iterations", &mut self.newton_iterations),
            ("lu_factorizations", &mut self.lu_factorizations),
            ("warm_attempts", &mut self.warm_attempts),
            ("warm_hits", &mut self.warm_hits),
            ("cold_solves", &mut self.cold_solves),
            ("damped_retries", &mut self.damped_retries),
            ("source_ramps", &mut self.source_ramps),
            ("gmin_steps", &mut self.gmin_steps),
            ("ramp_steps", &mut self.ramp_steps),
            ("rescue_attempts", &mut self.rescue_attempts),
            ("rescue_hits", &mut self.rescue_hits),
            ("rescue_rungs", &mut self.rescue_rungs),
        ]
    }

    /// The 13 counters under their sidecar member names, in the sidecar's
    /// member order. `warm_hit_rate` is derived, so it is not among them.
    pub fn counters(&self) -> [(&'static str, u64); 13] {
        let mut copy = *self;
        copy.fields().map(|(name, v)| (name, *v))
    }

    /// Warm-start hit rate in `[0, 1]`; 1.0 when no warm start was tried.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            1.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    /// Adds another set of counters to this one.
    pub fn merge(&mut self, other: &SolverStats) {
        for ((_, v), (_, o)) in self.fields().into_iter().zip(other.counters()) {
            *v += o;
        }
    }

    /// The increments accumulated between a `before` snapshot and `self`
    /// (the per-solve record of a template solve).
    ///
    /// # Panics
    ///
    /// In debug builds, when `before` is not an earlier snapshot of the
    /// same counters (some counter went backwards).
    pub fn delta_since(&self, before: &SolverStats) -> SolverStats {
        let mut delta = *self;
        for ((_, v), (_, b)) in delta.fields().into_iter().zip(before.counters()) {
            *v -= b;
        }
        delta
    }
}

/// One quarantined Monte-Carlo sample: enough provenance to replay it in
/// isolation (`substream(seed, stream)`) and to attribute it to a corner.
/// Recorded by [`record_quarantine`]; rendered in the sidecar's
/// `quarantine` section (present only when non-empty, so reports without
/// quarantined samples are byte-identical to pre-quarantine output).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Master seed of the estimator run.
    pub seed: u64,
    /// Substream index of the unresolved sample.
    pub stream: u64,
    /// Inter-die corner (σ·Vt shift) the sample was evaluated at.
    pub corner: f64,
    /// Error kind (the `CircuitError` variant name, e.g. `no_convergence`).
    pub kind: String,
}

#[derive(Debug, Default)]
struct Collector {
    /// Current span path of this thread (`/`-joined names).
    path: String,
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
    solver: SolverStats,
}

impl Collector {
    fn clear_stats(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
        self.solver = SolverStats::default();
    }

    fn merge_into(&mut self, g: &mut Global) {
        for (path, s) in std::mem::take(&mut self.spans) {
            let e = g.spans.entry(path).or_default();
            e.count += s.count;
            e.total_ns += s.total_ns;
            e.child_ns += s.child_ns;
            e.solver.merge(&s.solver);
        }
        for (k, v) in std::mem::take(&mut self.counters) {
            *g.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in std::mem::take(&mut self.gauges) {
            // Deterministic regardless of merge order: keep the maximum.
            let e = g.gauges.entry(k).or_insert(f64::NEG_INFINITY);
            *e = e.max(v);
        }
        for (k, h) in std::mem::take(&mut self.hists) {
            g.hists.entry(k).or_default().merge(&h);
        }
        g.solver.merge(&std::mem::take(&mut self.solver));
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Worker threads flush here as they exit (the rayon shim joins each
        // worker thread, which waits for its thread-local destructors,
        // before a parallel call returns, so totals are complete by the
        // time the caller can snapshot).
        self.merge_into(&mut global());
    }
}

#[derive(Debug, Default)]
struct Global {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
    solver: SolverStats,
    traces: BTreeMap<String, Vec<ChunkStat>>,
    health: BTreeMap<String, Vec<(u64, HealthChunk)>>,
    quarantine: Vec<QuarantineRecord>,
}

static GLOBAL: LazyLock<Mutex<Global>> = LazyLock::new(Mutex::default);

fn global() -> MutexGuard<'static, Global> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static LOCAL: RefCell<Collector> = RefCell::new(Collector::default());
    static TRACE_STACK: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the thread-local collector; silently skipped during thread
/// teardown (after the TLS slot is destroyed).
fn with_local(f: impl FnOnce(&mut Collector)) {
    let _ = LOCAL.try_with(|c| f(&mut c.borrow_mut()));
}

// ---------------------------------------------------------------- spans

/// RAII guard for a timed span; created by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    watch: clock::Stopwatch,
    /// Path length to restore on drop; `usize::MAX` marks an inactive guard.
    prev_len: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.prev_len == usize::MAX {
            return;
        }
        let ns = self.watch.elapsed_ns();
        let prev_len = self.prev_len;
        with_local(|c| {
            if let Some(s) = c.spans.get_mut(&c.path) {
                s.count += 1;
                s.total_ns += ns;
            } else {
                c.spans.insert(
                    c.path.clone(),
                    SpanStat {
                        count: 1,
                        total_ns: ns,
                        ..SpanStat::default()
                    },
                );
            }
            c.path.truncate(prev_len);
            // Charge this span's wall-clock to the parent (after the
            // truncate, `c.path` *is* the parent path — an adopted prefix
            // counts too, which is what keeps post-hoc-merged worker spans
            // from double-counting into the parent's self-time).
            if !c.path.is_empty() {
                if let Some(p) = c.spans.get_mut(&c.path) {
                    p.child_ns += ns;
                } else {
                    c.spans.insert(
                        c.path.clone(),
                        SpanStat {
                            child_ns: ns,
                            ..SpanStat::default()
                        },
                    );
                }
            }
        });
    }
}

/// Opens a timed span named `name`, nested under any span already open on
/// this thread. Active only in [`Mode::Full`]; otherwise the guard is inert.
///
/// `name` must not contain `/` (the path separator).
#[must_use = "a span measures the scope of its guard"]
pub fn span(name: &str) -> SpanGuard {
    if mode() != Mode::Full {
        return SpanGuard {
            watch: clock::Stopwatch::inert(),
            prev_len: usize::MAX,
        };
    }
    debug_assert!(!name.contains('/'), "span name {name:?} contains '/'");
    let mut prev_len = usize::MAX;
    with_local(|c| {
        prev_len = c.path.len();
        if !c.path.is_empty() {
            c.path.push('/');
        }
        c.path.push_str(name);
    });
    SpanGuard {
        watch: if prev_len != usize::MAX {
            clock::Stopwatch::started()
        } else {
            clock::Stopwatch::inert()
        },
        prev_len,
    }
}

// ------------------------------------------------- parallel span adoption

/// Cloneable capture of the calling thread's current span path, taken at a
/// parallel fan-out boundary by [`parallel_context`] and re-established on
/// worker threads with [`adopt`].
#[derive(Debug, Clone)]
pub struct SpanContext {
    path: Option<Arc<str>>,
}

/// Captures the current span path (the coordinating thread's innermost
/// open span) so worker closures can [`adopt`] it. Returns an inert
/// context unless [`Mode::Full`] is active and a span is open.
#[must_use]
pub fn parallel_context() -> SpanContext {
    if mode() != Mode::Full {
        return SpanContext { path: None };
    }
    let mut path = None;
    with_local(|c| {
        if !c.path.is_empty() {
            path = Some(Arc::from(c.path.as_str()));
        }
    });
    SpanContext { path }
}

/// RAII guard restoring a worker thread's span path on drop; created by
/// [`adopt`].
#[derive(Debug)]
#[must_use = "the adopted span path lasts only while the guard lives"]
pub struct AdoptGuard {
    adopted: bool,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.adopted {
            with_local(|c| c.path.clear());
        }
    }
}

/// Re-establishes the captured span path on this thread, so spans opened
/// (and solver work recorded) by a parallel worker nest under the
/// coordinator's span exactly as same-thread children do. A no-op when the
/// context is inert or the thread already has an open span (the rayon
/// shim's single-core inline fallback runs workers on the coordinating
/// thread, whose path is already the context).
pub fn adopt(ctx: &SpanContext) -> AdoptGuard {
    let Some(path) = &ctx.path else {
        return AdoptGuard { adopted: false };
    };
    if mode() != Mode::Full {
        return AdoptGuard { adopted: false };
    }
    let mut adopted = false;
    with_local(|c| {
        if c.path.is_empty() {
            c.path.push_str(path);
            adopted = true;
        }
    });
    AdoptGuard { adopted }
}

// ------------------------------------------------- counters / gauges / hists

/// Adds `n` to the named counter. No-op unless `mode() >= Summary`.
pub fn counter_add(name: &'static str, n: u64) {
    if mode() == Mode::Off {
        return;
    }
    with_local(|c| *c.counters.entry(name).or_insert(0) += n);
}

/// Records a gauge observation. Gauges merge across threads by keeping the
/// **maximum**, which is order-independent. No-op unless `mode() >= Summary`.
pub fn gauge_set(name: &'static str, v: f64) {
    if mode() == Mode::Off {
        return;
    }
    with_local(|c| {
        let e = c.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        *e = e.max(v);
    });
}

/// Records `v` into the named log2-bucketed histogram (bucket `e` holds
/// `[2^e, 2^(e+1))`; non-positive values count as underflow). No-op unless
/// `mode() >= Summary`.
pub fn hist_record(name: &'static str, v: f64) {
    if mode() == Mode::Off {
        return;
    }
    with_local(|c| c.hists.entry(name).or_default().record(v));
}

/// Records one solve's counter increments (or a transient run's time
/// steps') and a `solver.newton_per_solve` histogram sample, through a
/// single thread-local access. This is the DC hot path: disabled cost is
/// one atomic load. No-op unless `mode() >= Summary`.
pub fn record_solver(delta: &SolverStats) {
    if mode() == Mode::Off {
        return;
    }
    with_local(|c| {
        c.solver.merge(delta);
        c.hists
            .entry("solver.newton_per_solve")
            .or_default()
            .record(delta.newton_iterations as f64);
        // Attribution: charge the innermost span (empty outside Full mode,
        // so this costs nothing on the Summary-mode hot path).
        if !c.path.is_empty() {
            if let Some(s) = c.spans.get_mut(&c.path) {
                s.solver.merge(delta);
            } else {
                c.spans.insert(
                    c.path.clone(),
                    SpanStat {
                        solver: *delta,
                        ..SpanStat::default()
                    },
                );
            }
        }
    });
}

// ---------------------------------------------------------------- traces

/// One Monte-Carlo chunk's running moments, recorded by [`record_chunk`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChunkStat {
    pub(crate) chunk: u64,
    pub(crate) n: u64,
    pub(crate) mean: f64,
    pub(crate) m2: f64,
}

/// RAII guard naming the convergence trace that Monte-Carlo loops started
/// inside its scope record into; created by [`trace_scope`].
#[derive(Debug)]
pub struct TraceGuard {
    active: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            let _ = TRACE_STACK.try_with(|s| s.borrow_mut().pop());
        }
    }
}

/// Names the convergence trace for Monte-Carlo loops started while the
/// guard lives (on this thread — estimators capture the label *before*
/// fanning out, via [`active_trace`]). Nested scopes shadow outer ones.
#[must_use = "the trace label lasts only while the guard lives"]
pub fn trace_scope(name: &str) -> TraceGuard {
    if mode() == Mode::Off {
        return TraceGuard { active: false };
    }
    let mut active = false;
    let _ = TRACE_STACK.try_with(|s| {
        s.borrow_mut().push(Arc::from(name));
        active = true;
    });
    TraceGuard { active }
}

/// Cloneable handle to the innermost active trace scope; what a chunked
/// estimator captures on the calling thread and moves into its workers.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<str>);

/// The innermost active trace label, or `None` when disabled or unset.
pub fn active_trace() -> Option<TraceHandle> {
    if mode() == Mode::Off {
        return None;
    }
    TRACE_STACK
        .try_with(|s| s.borrow().last().cloned())
        .ok()
        .flatten()
        .map(TraceHandle)
}

/// Records one Monte-Carlo chunk under the handle's trace: its running
/// moments (`n` observations, Welford `mean` and `m2`) and, for an
/// estimator that tracks importance weights, its weight moments. Both land
/// under one acquisition of the registry mutex, one lock per chunk.
/// Chunks may arrive in any order from any thread; the report sorts by
/// `chunk` and folds the weight moments (sums and a maximum, commutative)
/// into per-trace ESS and max-weight-fraction diagnostics. Also journals
/// an `mc.chunk` event keyed by `(trace, chunk)`, and an `mc.health` event
/// beside it when `health` is given. No-op unless `mode() >= Summary`.
pub fn record_chunk(
    handle: &TraceHandle,
    chunk: u64,
    n: u64,
    mean: f64,
    m2: f64,
    health: Option<HealthChunk>,
) {
    if mode() == Mode::Off {
        return;
    }
    let mut g = global();
    let name = handle.0.to_string();
    if let Some(h) = health {
        g.health.entry(name.clone()).or_default().push((chunk, h));
    }
    g.traces
        .entry(name)
        .or_default()
        .push(ChunkStat { chunk, n, mean, m2 });
    drop(g);
    events::emit(
        "mc.chunk",
        events::name_key(&handle.0),
        chunk,
        vec![
            ("trace", json::Value::Str(handle.0.to_string())),
            ("chunk", json::Value::Num(chunk as f64)),
            ("n", json::Value::Num(n as f64)),
            ("mean", json::Value::Num(mean)),
            ("m2", json::Value::Num(m2)),
        ],
    );
    if let Some(h) = health {
        events::emit(
            "mc.health",
            events::name_key(&handle.0),
            chunk,
            vec![
                ("trace", json::Value::Str(handle.0.to_string())),
                ("chunk", json::Value::Num(chunk as f64)),
                ("fails", json::Value::Num(h.fails as f64)),
                ("weight_sum", json::Value::Num(h.weight_sum)),
                ("weight_sq_sum", json::Value::Num(h.weight_sq_sum)),
                ("weight_max", json::Value::Num(h.weight_max)),
            ],
        );
    }
}

/// Journals a chunked estimator's total planned work (`samples`
/// observations over `chunks` chunks) under the handle's trace as an
/// `mc.start` event: the denominators of the journal's progress and of
/// `pvtm-trace tail`'s ETA. No-op unless [`events::enabled`].
pub fn record_mc_start(handle: &TraceHandle, samples: u64, chunks: u64) {
    if !events::enabled() {
        return;
    }
    events::emit(
        "mc.start",
        events::name_key(&handle.0),
        u64::MAX, // sorts after every mc.chunk key, but kind breaks the tie first
        vec![
            ("trace", json::Value::Str(handle.0.to_string())),
            ("samples", json::Value::Num(samples as f64)),
            ("chunks", json::Value::Num(chunks as f64)),
        ],
    );
}

// ---------------------------------------------------------------- health

/// One Monte-Carlo chunk's estimator-health side channel: the
/// importance-sampling weight moments over *contributing* (failing)
/// samples in that chunk. Accumulated by estimators alongside — never
/// inside — the estimate arithmetic, so recording it cannot perturb the
/// reproduced numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthChunk {
    /// Contributing (failing) samples in this chunk.
    pub fails: u64,
    /// Σw over contributing samples.
    pub weight_sum: f64,
    /// Σw² over contributing samples.
    pub weight_sq_sum: f64,
    /// max(w) over contributing samples.
    pub weight_max: f64,
}

impl HealthChunk {
    /// Adds one contributing sample of weight `w`.
    pub fn observe(&mut self, w: f64) {
        self.fails += 1;
        self.weight_sum += w;
        self.weight_sq_sum += w * w;
        self.weight_max = self.weight_max.max(w);
    }
}

// ---------------------------------------------------------------- quarantine

/// Records one quarantined sample. Events may arrive from any thread in any
/// order; the report sorts by `(stream, seed, kind)` so two clock-off runs
/// render byte-identically. Quarantine events are rare by construction
/// (bounded by `PVTM_MAX_QUARANTINE`), so going straight to the global
/// collector is fine. No-op unless `mode() >= Summary`.
pub fn record_quarantine(rec: QuarantineRecord) {
    if mode() == Mode::Off {
        return;
    }
    events::emit(
        "mc.quarantine",
        rec.stream,
        rec.seed,
        vec![
            ("seed", json::Value::Str(format!("{:#018x}", rec.seed))),
            ("stream", json::Value::Num(rec.stream as f64)),
            ("corner", json::Value::Num(rec.corner)),
            // "reason", not "kind": the event's own "kind" member is
            // already taken by the taxonomy name.
            ("reason", json::Value::Str(rec.kind.clone())),
        ],
    );
    global().quarantine.push(rec);
}

// ---------------------------------------------------------------- lifecycle

/// Flushes this thread's collector and snapshots the merged totals.
///
/// Call from the coordinating thread after parallel work completes (the
/// rayon shim's workers have already flushed by exiting).
pub fn snapshot() -> Report {
    with_local(|c| c.merge_into(&mut global()));
    report::build(&global(), mode(), clock_enabled())
}

/// Clears all recorded data (global and this thread's collector). The mode
/// and clock settings are untouched. Open spans keep their path and will
/// still record on drop.
pub fn reset() {
    with_local(Collector::clear_stats);
    *global() = Global::default();
    events::clear();
}

#[cfg(test)]
pub(crate) fn test_guard() -> MutexGuard<'static, ()> {
    // Telemetry state is process-global; tests that touch it serialize.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = test_guard();
        set_mode(Mode::Off);
        reset();
        {
            let _s = span("should-not-appear");
            counter_add("c", 5);
            gauge_set("g", 1.0);
            hist_record("h", 2.0);
            record_solver(&SolverStats {
                solves: 1,
                ..Default::default()
            });
            let _t = trace_scope("t");
            assert!(active_trace().is_none());
        }
        let r = snapshot();
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.histograms.is_empty());
        assert!(r.traces.is_empty());
        assert_eq!(r.solver.solves, 0);
    }

    #[test]
    fn summary_mode_skips_spans_but_keeps_counters() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        {
            let _s = span("quiet");
            counter_add("c", 2);
            counter_add("c", 3);
        }
        let r = snapshot();
        assert!(r.spans.is_empty());
        assert_eq!(r.counter("c"), 5);
        set_mode(Mode::Off);
    }

    #[test]
    fn spans_nest_into_paths() {
        let _g = test_guard();
        set_mode(Mode::Full);
        reset();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            {
                let _b = span("inner");
            }
        }
        let r = snapshot();
        assert_eq!(r.span("outer").unwrap().count, 1);
        assert_eq!(r.span("outer/inner").unwrap().count, 2);
        assert!(r.span("inner").is_none());
        set_mode(Mode::Off);
    }

    #[test]
    fn histogram_bucket_edges_are_exact() {
        // Bucket e covers [2^e, 2^(e+1)): powers of two open their own
        // bucket, the value just below belongs to the previous one.
        assert_eq!(bucket_exp(1.0), Some(0));
        assert_eq!(bucket_exp(1.999_999_9), Some(0));
        assert_eq!(bucket_exp(2.0), Some(1));
        assert_eq!(bucket_exp(4095.999), Some(11));
        assert_eq!(bucket_exp(4096.0), Some(12));
        assert_eq!(bucket_exp(0.5), Some(-1));
        assert_eq!(bucket_exp(0.499), Some(-2));
        assert_eq!(bucket_exp(0.0), None);
        assert_eq!(bucket_exp(-1.0), None);
        assert_eq!(bucket_exp(f64::INFINITY), None);
        assert_eq!(bucket_exp(f64::NAN), None);
    }

    #[test]
    fn histogram_counts_land_in_buckets() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        for v in [1.0, 1.5, 2.0, 3.0, 0.0, -4.0] {
            hist_record("h", v);
        }
        let r = snapshot();
        let h = r.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.underflow, 2);
        let bucket = |e: i16| h.buckets.iter().find(|b| b.log2 == e).map(|b| b.count);
        assert_eq!(bucket(0), Some(2));
        assert_eq!(bucket(1), Some(2));
        set_mode(Mode::Off);
    }

    #[test]
    fn solver_deltas_accumulate_and_rate_derives() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        record_solver(&SolverStats {
            solves: 1,
            newton_iterations: 3,
            warm_attempts: 1,
            warm_hits: 1,
            ..Default::default()
        });
        record_solver(&SolverStats {
            solves: 1,
            newton_iterations: 40,
            warm_attempts: 1,
            cold_solves: 1,
            ..Default::default()
        });
        let r = snapshot();
        assert_eq!(r.solver.solves, 2);
        assert_eq!(r.solver.newton_iterations, 43);
        assert!((r.solver.warm_hit_rate - 0.5).abs() < 1e-15);
        let h = r
            .histograms
            .iter()
            .find(|h| h.name == "solver.newton_per_solve")
            .unwrap();
        assert_eq!(h.count, 2);
        set_mode(Mode::Off);
    }

    #[test]
    fn solver_counters_keep_their_names_from_record_to_sidecar() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        // Thirteen different counts, so no two counters can trade places
        // unseen; rescue attempts above 0 write the rescue keys.
        let s = SolverStats {
            solves: 1,
            newton_iterations: 2,
            lu_factorizations: 3,
            warm_attempts: 4,
            warm_hits: 5,
            cold_solves: 6,
            damped_retries: 7,
            source_ramps: 8,
            gmin_steps: 9,
            ramp_steps: 10,
            rescue_attempts: 11,
            rescue_hits: 12,
            rescue_rungs: 13,
        };
        record_solver(&s);
        let text = snapshot().to_json_pretty("names");
        let sidecar = json::parse(&text).unwrap();
        let member = |name: &str| sidecar.get("solver")?.get(name)?.as_u64();
        for (name, count) in [
            ("solves", s.solves),
            ("newton_iterations", s.newton_iterations),
            ("lu_factorizations", s.lu_factorizations),
            ("warm_attempts", s.warm_attempts),
            ("warm_hits", s.warm_hits),
            ("cold_solves", s.cold_solves),
            ("damped_retries", s.damped_retries),
            ("source_ramps", s.source_ramps),
            ("gmin_steps", s.gmin_steps),
            ("ramp_steps", s.ramp_steps),
            ("rescue_attempts", s.rescue_attempts),
            ("rescue_hits", s.rescue_hits),
            ("rescue_rungs", s.rescue_rungs),
        ] {
            assert_eq!(member(name), Some(count), "sidecar member {name}");
        }
        assert_eq!(Sidecar::parse(&text).unwrap().report.solver.stats, s);
        set_mode(Mode::Off);
    }

    #[test]
    fn traces_sort_and_reconstruct_running_error() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        {
            let _t = trace_scope("conv");
            let h = active_trace().unwrap();
            // Two chunks recorded out of order; each 100 samples of mean
            // 2.0 / 4.0 with zero spread.
            record_chunk(&h, 1, 100, 4.0, 0.0, None);
            record_chunk(&h, 0, 100, 2.0, 0.0, None);
        }
        assert!(active_trace().is_none());
        let r = snapshot();
        let t = r.trace("conv").unwrap();
        assert_eq!(t.points.len(), 2);
        assert_eq!(t.points[0].chunk, 0);
        assert_eq!(t.points[0].samples, 100);
        assert_eq!(t.points[0].value, 2.0);
        assert_eq!(t.points[1].samples, 200);
        assert_eq!(t.points[1].value, 3.0);
        assert!(t.points[1].rel_err > 0.0);
        set_mode(Mode::Off);
    }

    #[test]
    fn nested_trace_scopes_shadow() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        let _a = trace_scope("outer");
        {
            let _b = trace_scope("inner");
            let h = active_trace().unwrap();
            record_chunk(&h, 0, 1, 1.0, 0.0, None);
        }
        let h = active_trace().unwrap();
        record_chunk(&h, 0, 1, 5.0, 0.0, None);
        drop(_a);
        let r = snapshot();
        assert_eq!(r.trace("inner").unwrap().points[0].value, 1.0);
        assert_eq!(r.trace("outer").unwrap().points[0].value, 5.0);
        set_mode(Mode::Off);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = test_guard();
        set_mode(Mode::Summary);
        reset();
        counter_add("c", 1);
        let _ = snapshot();
        reset();
        let r = snapshot();
        assert!(r.counters.is_empty());
        assert_eq!(r.solver.solves, 0);
        set_mode(Mode::Off);
    }
}
