//! End-to-end tests of the live metrics plane: a real server on
//! `127.0.0.1:0`, scraped over real sockets with a minimal HTTP client.
//!
//! Covers the endpoint contract (`/metrics` Prometheus text,
//! `/snapshot.json` sidecar-schema JSON, `/healthz` verdicts), the
//! negative `/healthz` path on a seeded low-ESS run mirroring the
//! `fig_low_ess` golden fixture, and the determinism guarantee: running
//! the server must not perturb the registry, so the sidecar a run writes
//! is byte-identical with and without a scraper attached.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};

use pvtm_telemetry as tm;

fn lock() -> MutexGuard<'static, ()> {
    // Telemetry state is process-global; serialize the tests in this binary.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimal scrape client: returns `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn request(addr: SocketAddr, head: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to live server");
    conn.write_all(head.as_bytes()).expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Seeds a healthy importance-sampling run: four chunks with
/// well-distributed weights (ESS fraction 1.0, no stalls).
fn seed_healthy_run() {
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);
    tm::reset();
    let _t = tm::trace_scope("mc.live_serve");
    let h = tm::active_trace().unwrap();
    tm::record_mc_start(&h, 4 * 4096, 4);
    for c in 0..4u64 {
        let health = tm::HealthChunk {
            fails: 100,
            weight_sum: 1.0,
            weight_sq_sum: 0.01,
            weight_max: 0.01,
        };
        tm::record_chunk(&h, c, 4096, 1e-3, 1e-6, Some(health));
    }
    tm::counter_add("mc.samples", 4 * 4096);
    tm::hist_record("mc.weight", 0.5);
    tm::hist_record("mc.weight", 3.0);
    // Counters and histograms buffer in TLS until a snapshot (or thread
    // exit) merges them; flush so the scrape threads can see them.
    let _ = tm::snapshot();
}

#[test]
fn serves_metrics_snapshot_and_healthz() {
    let _g = lock();
    seed_healthy_run();
    let server = tm::serve::start("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr();

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE pvtm_mc_samples counter"),
        "{metrics}"
    );
    assert!(metrics.contains("pvtm_mc_samples 16384"), "{metrics}");
    assert!(
        metrics.contains("pvtm_mc_trace_chunks_done{trace=\"mc.live_serve\"} 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("pvtm_mc_weight_bucket{le=\"+Inf\"} 2"),
        "{metrics}"
    );
    assert!(metrics.contains("pvtm_snapshot_epoch"), "{metrics}");

    let (status, body) = get(addr, "/snapshot.json");
    assert_eq!(status, 200);
    // The strict reader takes the body back: the sidecar schema plus the
    // live-plane members, exactly as the writer writes them.
    let snap = tm::snapshot::LiveSnapshot::parse(&body).expect("snapshot.json parses");
    assert_eq!(snap.progress.len(), 1);
    assert_eq!(snap.report.counter("mc.samples"), 16384);

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthy run must pass /healthz: {body}");
    assert_eq!(body, "ok\n");

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    drop(server);
    assert!(
        TcpStream::connect(addr).is_err(),
        "dropping the handle must close the listener"
    );
    tm::set_mode(tm::Mode::Off);
}

#[test]
fn healthz_answers_503_on_a_low_ess_run() {
    let _g = lock();
    // Mirrors the fig_low_ess golden fixture: a dominant weight collapses
    // the ESS and the running standard error stalls chunk over chunk.
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);
    tm::reset();
    {
        let _t = tm::trace_scope("mc.low_ess");
        let h = tm::active_trace().unwrap();
        tm::record_mc_start(&h, 5 * 4096, 5);
        for c in 0..5u64 {
            // Chunk 0 carries one dominant weight (0.62 of the eventual
            // total), collapsing the ESS and the max-weight share.
            let h_chunk = if c == 0 {
                tm::HealthChunk {
                    fails: 60,
                    weight_sum: 0.62,
                    weight_sq_sum: 0.39,
                    weight_max: 0.62,
                }
            } else {
                tm::HealthChunk {
                    fails: 60,
                    weight_sum: 0.095,
                    weight_sq_sum: 0.002,
                    weight_max: 0.05,
                }
            };
            // Growing per-chunk variance keeps the merged CI half-width
            // from shrinking root-n: every step counts as stalled.
            let m2 = 1e-4 * (c + 1) as f64 * (c + 1) as f64;
            tm::record_chunk(&h, c, 4096, 2e-3, m2, Some(h_chunk));
        }
    }
    let server = tm::serve::start("127.0.0.1:0").expect("bind an ephemeral port");
    let (status, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 503, "low-ESS run must fail /healthz: {body}");
    assert!(body.contains("LOW_ESS"), "{body}");
    assert!(body.contains("WEIGHT_DEGENERATE"), "{body}");
    drop(server);
    tm::set_mode(tm::Mode::Off);
}

#[test]
fn a_running_server_never_perturbs_the_sidecar() {
    let _g = lock();
    // The byte-identity contract: the sidecar of a run scraped mid-flight
    // equals the sidecar of an identical unscraped run.
    seed_healthy_run();
    let without = tm::snapshot().to_json_pretty("fig_live_identity");

    seed_healthy_run();
    let server = tm::serve::start("127.0.0.1:0").expect("bind an ephemeral port");
    let _ = get(server.addr(), "/metrics");
    let _ = get(server.addr(), "/snapshot.json");
    let _ = get(server.addr(), "/healthz");
    let with = tm::snapshot().to_json_pretty("fig_live_identity");
    drop(server);

    assert_eq!(without, with, "scrapes must not mutate the registry");
    tm::set_mode(tm::Mode::Off);
}
