//! `pvtm-trace top` — a polling terminal dashboard for a run in flight.
//!
//! `pvtm-trace top 127.0.0.1:9184` polls the producer's `/snapshot.json`
//! endpoint (a sidecar document plus live-plane members, read by
//! [`LiveSnapshot::parse`]) with a hand-rolled `std::net` HTTP/1.1 client
//! — no new dependencies, mirroring the server side. It reads a live
//! address only; a run started without `PVTM_METRICS_ADDR` is followed
//! through its journal with `pvtm-trace tail --follow`.
//!
//! The dashboard shows the per-trace progress rows and the work-based ETA
//! through [`render_progress`], as `tail` does, then an estimator-health
//! ledger (ESS / weight degeneracy / stalls / quarantine), the open spans
//! and the hot-span table. `--once` renders a single frame and doubles as
//! the CI schema validator for `/snapshot.json`.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pvtm_telemetry::snapshot::LiveSnapshot;

use crate::report::hot_span_table;
use crate::tail::render_progress;

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

    render_progress(&mut out, &snap.progress, elapsed);

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

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::snapshot::TraceProgress;
    use pvtm_telemetry::{Mode, Report};

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
}
