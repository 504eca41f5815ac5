//! `pvtm-trace` — the consumer half of the workspace's observability loop.
//!
//! `pvtm-telemetry` (the producer) writes one `results/<id>.telemetry.json`
//! sidecar and one `results/<id>.events.jsonl` journal per figure run, and
//! reads them back: the sidecar strictly with [`pvtm_telemetry::Sidecar`],
//! the journal with [`pvtm_telemetry::events::Journal`], which folds its
//! run progress with the sidecar's own merges. Telemetry also judges
//! estimator health ([`pvtm_telemetry::Report::health_checks`]). This
//! crate only reads and renders, turning what it reads into decisions:
//!
//! - [`report`] renders a hot-span table (sorted by self-time, or by Newton
//!   iterations when the run was clock-gated) and folded flamegraph stacks;
//! - [`diff`](mod@diff) compares two sidecars — work counters exactly, wall-clock
//!   with a noise tolerance;
//! - [`check`](mod@check) gates a sidecar against checked-in `perf-budgets.json`
//!   ceilings on the deterministic work counters;
//! - [`health`] renders the confidence ledger of the sidecar's estimator
//!   health (ESS fraction, weight degeneracy, CI stalls, quarantine bias)
//!   against checked-in `health-budgets.json` thresholds;
//! - [`tail`] renders a run journal — live or finalized — as a progress
//!   snapshot, and doubles as the `pvtm-events/1` schema validator in CI.
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

pub use check::{check, update_budgets, Budgets, CheckOutcome};
pub use diff::{diff, DiffOutcome};
pub use health::{health_check, update_health_budgets, HealthBudgets, HealthOutcome};
pub use report::{folded_stacks, hot_span_table};
pub use tail::{snapshot, Snapshot};
