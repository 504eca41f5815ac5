//! `pvtm-trace top` — a polling terminal dashboard for a run in flight.
//!
//! Two sources, one display:
//!
//! - **live** (`pvtm-trace top 127.0.0.1:9184`): polls the producer's
//!   `/snapshot.json` endpoint (a sidecar document plus live-plane
//!   members, read by [`LiveSnapshot::parse`]) with a hand-rolled
//!   `std::net` HTTP/1.1 client — no new dependencies, mirroring the
//!   server side;
//! - **journal** (`pvtm-trace top results/fig2a.events.jsonl`): degrades
//!   to re-reading the event journal and folding it through
//!   [`crate::tail`]'s Chan-merge reconstruction, for runs started
//!   without `PVTM_METRICS_ADDR`.
//!
//! The dashboard shows per-trace progress bars, the running estimates,
//! an estimator-health ledger (ESS / weight degeneracy / stalls /
//! quarantine), the hot-span table (live source only — journals carry no
//! span aggregates), and a work-based ETA. `--once` renders a single
//! frame and doubles as the CI schema validator for `/snapshot.json`.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pvtm_telemetry::snapshot::LiveSnapshot;

use crate::report::hot_span_table;
use crate::tail;

/// Where `top` reads its frames from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A live metrics server (`host:port`).
    Addr(SocketAddr),
    /// An event-journal path.
    Journal(String),
}

/// Classifies the positional argument: anything that parses as a socket
/// address is a live server, everything else is a journal path.
pub fn parse_source(arg: &str) -> Source {
    match arg.parse() {
        Ok(addr) => Source::Addr(addr),
        Err(_) => Source::Journal(arg.to_string()),
    }
}

/// Connect/read timeout for the scrape client, mirroring the server's
/// read timeout.
const HTTP_TIMEOUT: Duration = Duration::from_secs(2);

/// Minimal HTTP/1.1 GET: returns `(status, body)`.
///
/// # Errors
///
/// Returns a human-readable message on connect/read failure or a
/// response with no parsable status line.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = conn.set_read_timeout(Some(HTTP_TIMEOUT));
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    conn.write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Fetches and validates one `/snapshot.json` frame.
///
/// # Errors
///
/// Returns a message when the scrape fails, the status is not 200, or
/// the body is not what [`LiveSnapshot::to_value`] writes — which is
/// exactly what `top --once` gates on in CI.
pub fn fetch_live(addr: SocketAddr) -> Result<LiveSnapshot, String> {
    let (status, body) = http_get(addr, "/snapshot.json")?;
    if status != 200 {
        return Err(format!("{addr}/snapshot.json answered {status}"));
    }
    LiveSnapshot::parse(&body).map_err(|e| format!("{addr}/snapshot.json: {e}"))
}

/// One dashboard row, whichever source it came from.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    chunks_done: u64,
    chunks_total: u64,
    samples_done: u64,
    samples_total: u64,
    value: f64,
    std_err: f64,
    ess: Option<f64>,
}

/// A fixed-width `#`/`.` progress bar; all-`.` when the total is unknown.
fn bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done.min(total) as usize * width) / total as usize
    };
    let mut out = String::with_capacity(width);
    for i in 0..width {
        out.push(if i < filled { '#' } else { '.' });
    }
    out
}

fn render_rows(out: &mut String, rows: &[Row]) {
    for r in rows {
        let pct = if r.chunks_total > 0 {
            format!(
                "{:3.0}%",
                100.0 * r.chunks_done as f64 / r.chunks_total as f64
            )
        } else {
            "  ?%".to_string()
        };
        let _ = write!(
            out,
            "  {:<28} [{}] {} {}/{} chunks, {}/{} samples",
            r.name,
            bar(r.chunks_done, r.chunks_total, 20),
            pct,
            r.chunks_done,
            r.chunks_total,
            r.samples_done,
            r.samples_total
        );
        if r.samples_done > 0 {
            let _ = write!(out, ", est {:.4e} ± {:.2e}", r.value, r.std_err);
        }
        if let Some(ess) = r.ess {
            let _ = write!(out, ", ess {ess:.1}");
        }
        out.push('\n');
    }
}

/// Appends the work-based ETA line: chunks are equal-sized by
/// construction, so `elapsed / done` extrapolates. Suppressed when the
/// clock is gated off (elapsed 0), nothing has landed, or the run is done.
fn render_eta(out: &mut String, rows: &[Row], elapsed: f64) {
    let done: u64 = rows.iter().map(|r| r.chunks_done).sum();
    let total: u64 = rows.iter().map(|r| r.chunks_total).sum();
    if done > 0 && total > done && elapsed > 0.0 {
        let eta = elapsed * (total - done) as f64 / done as f64;
        let _ = writeln!(out, "  eta: ~{eta:.0} s ({done}/{total} chunks)");
    }
}

/// Renders one live-frame dashboard.
pub fn render_live(snap: &LiveSnapshot, top_spans: usize) -> String {
    let elapsed = snap.elapsed_secs;
    let mut out = format!(
        "run {} — live (epoch {}, mode {}",
        snap.id,
        snap.epoch,
        snap.report.mode.as_str()
    );
    if elapsed > 0.0 {
        let _ = write!(out, ", {elapsed:.1} s elapsed");
    }
    out.push_str(")\n");

    let rows: Vec<Row> = snap
        .progress
        .iter()
        .map(|p| Row {
            name: p.name.clone(),
            chunks_done: p.chunks_done,
            chunks_total: p.chunks_total,
            samples_done: p.samples_done,
            samples_total: p.samples_total,
            value: p.value,
            std_err: p.std_err,
            ess: Some(p.ess),
        })
        .collect();
    render_rows(&mut out, &rows);
    render_eta(&mut out, &rows, elapsed);

    // Estimator-health ledger from the derived v3 gauges; absent early in
    // a run (no chunk recorded yet), which simply hides the line.
    let axes = [
        ("ess_frac", "mc.ess_fraction"),
        ("max_weight_frac", "mc.max_weight_fraction"),
        ("stall", "mc.stall_ratio"),
        ("quarantine_ci", "mc.quarantine_ci_share"),
    ];
    let ledger: Vec<String> = axes
        .iter()
        .filter_map(|(label, gauge)| snap.report.gauge(gauge).map(|v| format!("{label} {v:.3}")))
        .collect();
    if !ledger.is_empty() {
        let _ = writeln!(out, "  health: {}", ledger.join(", "));
    }
    let quarantined = snap.report.quarantine.len();
    if quarantined > 0 {
        let _ = writeln!(out, "  quarantined corners: {quarantined}");
    }

    let open: Vec<String> = snap
        .open_spans
        .iter()
        .map(|(path, n)| {
            if *n > 1 {
                format!("{path} (x{n})")
            } else {
                path.clone()
            }
        })
        .collect();
    if !open.is_empty() {
        let _ = writeln!(out, "  open spans: {}", open.join(" "));
    }

    if !snap.report.spans.is_empty() {
        out.push('\n');
        out.push_str(&hot_span_table(&snap.id, &snap.report, top_spans));
    }
    out
}

/// Renders one journal-mode dashboard from a [`tail`] snapshot.
pub fn render_journal(s: &tail::Snapshot, elapsed: f64) -> String {
    let mut out = format!(
        "run {} — {} ({} events{})\n",
        s.id,
        if s.finalized {
            "finalized"
        } else {
            "in flight"
        },
        s.events,
        if s.torn_tail {
            ", torn tail dropped"
        } else {
            ""
        },
    );
    let rows: Vec<Row> = s
        .traces
        .iter()
        .map(|t| Row {
            name: t.name.clone(),
            chunks_done: t.chunks_done,
            chunks_total: t.chunks_total,
            samples_done: t.samples_done,
            samples_total: t.samples_total,
            value: t.value,
            std_err: t.std_err,
            ess: None,
        })
        .collect();
    render_rows(&mut out, &rows);
    if !s.finalized {
        render_eta(&mut out, &rows, elapsed);
    }
    if s.corners > 0 {
        let _ = writeln!(
            out,
            "  corners: {} done ({} quarantined), {} estimates",
            s.corners, s.corners_quarantined, s.estimates
        );
    }
    if s.rescue_attempts > 0 || s.quarantined > 0 {
        let _ = writeln!(
            out,
            "  rescue: {}/{} hits/attempts, quarantined samples: {}",
            s.rescue_hits, s.rescue_attempts, s.quarantined
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::snapshot::TraceProgress;
    use pvtm_telemetry::{Mode, Report};

    #[test]
    fn source_classifies_addresses_and_paths() {
        assert!(matches!(parse_source("127.0.0.1:9184"), Source::Addr(_)));
        assert!(matches!(parse_source("127.0.0.1:0"), Source::Addr(_)));
        assert_eq!(
            parse_source("results/fig2a.events.jsonl"),
            Source::Journal("results/fig2a.events.jsonl".to_string())
        );
    }

    #[test]
    fn bar_fills_proportionally_and_handles_unknown_totals() {
        assert_eq!(bar(0, 4, 8), "........");
        assert_eq!(bar(2, 4, 8), "####....");
        assert_eq!(bar(4, 4, 8), "########");
        assert_eq!(bar(9, 4, 8), "########", "overshoot clamps");
        assert_eq!(bar(3, 0, 8), "........", "unknown total stays empty");
    }

    #[test]
    fn live_frame_renders_progress_health_and_spans() {
        let snap = LiveSnapshot {
            epoch: 7,
            id: "fig2a".to_string(),
            elapsed_secs: 10.0,
            report: Report {
                mode: Mode::Full,
                gauges: vec![
                    ("mc.ess_fraction".to_string(), 0.5),
                    ("mc.stall_ratio".to_string(), 0.1),
                ],
                ..Report::default()
            },
            open_spans: vec![("fig2a/mc".to_string(), 1)],
            progress: vec![TraceProgress {
                name: "fig2a.mc".to_string(),
                chunks_done: 1,
                chunks_total: 4,
                samples_done: 4096,
                samples_total: 16384,
                health_chunks: 1,
                contributing: 10,
                weight_sum: 2.0,
                weight_sq_sum: 0.5,
                weight_max: 0.1,
                ess: 9.5,
                value: 2e-4,
                std_err: 1e-5,
            }],
        };
        let text = render_live(&snap, 10);
        assert!(text.contains("run fig2a — live (epoch 7"), "{text}");
        assert!(text.contains("1/4 chunks"), "{text}");
        assert!(text.contains("ess 9.5"), "{text}");
        assert!(text.contains("ess_frac 0.500"), "{text}");
        assert!(text.contains("eta: ~30 s"), "{text}");
        assert!(text.contains("open spans: fig2a/mc"), "{text}");
    }

    #[test]
    fn journal_dashboard_shares_the_tail_reconstruction() {
        let text = concat!(
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"f","mode":"full","clock":false}"#,
            "\n",
            r#"{"seq":1,"kind":"mc.start","trace":"f.mc","samples":8192,"chunks":2}"#,
            "\n",
            r#"{"seq":2,"kind":"mc.chunk","trace":"f.mc","chunk":0,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
        );
        let j = crate::tail::Journal::parse(text).unwrap();
        let s = crate::tail::snapshot(&j);
        let out = render_journal(&s, 5.0);
        assert!(out.contains("run f — in flight"), "{out}");
        assert!(out.contains("1/2 chunks"), "{out}");
        assert!(out.contains("eta: ~5 s"), "{out}");
        let done = render_journal(
            &crate::tail::Snapshot {
                finalized: true,
                ..s
            },
            5.0,
        );
        assert!(done.contains("finalized"), "{done}");
        assert!(!done.contains("eta"), "finalized run has no ETA: {done}");
    }
}
