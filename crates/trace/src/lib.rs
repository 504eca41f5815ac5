//! `pvtm-trace` — the consumer half of the workspace's observability loop.
//!
//! `pvtm-telemetry` (the producer) writes one `results/<id>.telemetry.json`
//! sidecar per figure run, and reads it back strictly with
//! [`pvtm_telemetry::Sidecar`]. This crate turns what it reads into
//! decisions:
//!
//! - [`report`] renders a hot-span table (sorted by self-time, or by Newton
//!   iterations when the run was clock-gated) and folded flamegraph stacks;
//! - [`diff`](mod@diff) compares two sidecars — work counters exactly, wall-clock
//!   with a noise tolerance;
//! - [`check`](mod@check) gates a sidecar against checked-in `perf-budgets.json`
//!   ceilings on the deterministic work counters;
//! - [`health`] gates the sidecar's estimator-health diagnostics
//!   (ESS fraction, weight degeneracy, CI stalls, quarantine bias)
//!   against checked-in `health-budgets.json` thresholds;
//! - [`tail`] parses the `results/<id>.events.jsonl` run journal — live
//!   or finalized — into a progress snapshot, and doubles as the
//!   `pvtm-events/1` schema validator in CI;
//! - [`top`] renders a polling terminal dashboard, scraping a live
//!   `/snapshot.json` endpoint when the run exported one
//!   (`PVTM_METRICS_ADDR`, read with
//!   [`pvtm_telemetry::snapshot::LiveSnapshot::parse`]) and degrading to
//!   the event journal otherwise.
//!
//! The design point carried through all of them: **wall-clock is advisory,
//! work counters are the contract.** With `PVTM_TELEMETRY_CLOCK=off` the
//! counters are byte-identical run to run, so the budget ratchet is
//! reliable on shared CI runners where timing is not.
//!
//! Everything here is pure string-in/string-out; the thin CLI in
//! `main.rs` owns file I/O and exit codes, which keeps the golden-fixture
//! tests hermetic.

pub mod check;
pub mod diff;
pub mod health;
pub mod report;
pub mod tail;
pub mod top;

pub use check::{check, update_budgets, Budgets, CheckOutcome};
pub use diff::{diff, DiffOutcome};
pub use health::{health_check, update_health_budgets, HealthBudgets, HealthOutcome};
pub use report::{folded_stacks, hot_span_table};
pub use tail::{snapshot, Journal, Snapshot};
pub use top::{fetch_live, parse_source, render_journal, render_live, Source};
