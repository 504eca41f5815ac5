//! Hand-rolled `std::net` HTTP/1.1 scrape endpoint for the live metrics
//! plane (no new dependencies, GET-only, bounded).
//!
//! Opt-in via `PVTM_METRICS_ADDR` (e.g. `127.0.0.1:9184`, or port `0` to
//! let the OS pick — the bench Reporter writes the bound address to
//! `<results>/metrics.addr` for discovery). With the knob unset nothing
//! here runs and every output stays byte-identical to a server-free run;
//! scrapes never mutate the registry, so that holds with the knob set too.
//!
//! Endpoints:
//!
//! - `/metrics` — Prometheus text exposition of a consistent
//!   [`crate::snapshot::live`] capture;
//! - `/snapshot.json` — the same capture as sorted-key JSON (sidecar
//!   schema plus live-plane members);
//! - `/healthz` — `200 ok` or `503` with one line per failed
//!   [`crate::Report::health_checks`] check (LOW_ESS / WEIGHT_DEGENERATE /
//!   STALLED / QUARANTINE_BIASED, the checks of `pvtm-trace health`)
//!   against [`HealthEntry::FALLBACK`].
//!
//! Architecture: one accept thread feeding a bounded queue, a two-thread
//! worker pool draining it (excess connections are dropped, never
//! buffered unboundedly), graceful shutdown on run finalize via a stop
//! flag plus a self-connect to unblock `accept`. All timing goes through
//! [`crate::clock`] — no direct wall-clock reads, so clock-gated scrapes
//! are deterministic modulo run progress.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::snapshot;
use crate::HealthEntry;

/// Worker threads draining the accept queue.
const WORKERS: usize = 2;
/// Bounded accept queue depth; connections beyond it are dropped.
const QUEUE: usize = 32;
/// Cap on request bytes read before answering 400.
const MAX_REQUEST_BYTES: usize = 4096;
/// Socket read timeout so a stalled client cannot pin a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics server; shuts down gracefully on drop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts the server iff `PVTM_METRICS_ADDR` is set and non-empty. Bind
/// failures are reported to stderr and swallowed — a typo'd knob must not
/// kill a long run, and the deterministic outputs are unaffected either
/// way.
pub fn start_from_env() -> Option<ServerHandle> {
    let spec = std::env::var("PVTM_METRICS_ADDR").ok()?;
    let spec = spec.trim().to_string();
    if spec.is_empty() {
        return None;
    }
    match start(&spec) {
        Ok(handle) => Some(handle),
        Err(e) => {
            eprintln!("pvtm-telemetry: cannot serve metrics on {spec:?}: {e}");
            None
        }
    }
}

/// Binds `spec` (a `host:port` address; port 0 picks a free port) and
/// starts the accept thread and worker pool.
///
/// # Errors
///
/// Propagates the bind/local-addr I/O error.
pub fn start(spec: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(spec)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(QUEUE);
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..WORKERS)
        .map(|_| {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker(&rx))
        })
        .collect();
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::spawn(move || accept_loop(&listener, &tx, &accept_stop));
    snapshot::set_live(true);
    snapshot::start_watch();
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
        workers,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop without touching the wall clock.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread owned the queue sender; with it gone the
        // workers' `recv` fails and they exit.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        snapshot::set_live(false);
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Bounded: drop the connection when the queue is full.
                let _ = tx.try_send(conn);
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

fn worker(rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the lock only while waiting; handling runs unlocked so the
        // other worker can pick up the next connection meanwhile.
        let conn = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match conn {
            Ok(conn) => handle(conn),
            Err(_) => break,
        }
    }
}

/// Reads the request head (up to the blank line or the byte cap) and
/// returns the request line.
fn read_request_line(conn: &mut TcpStream) -> Option<String> {
    let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < MAX_REQUEST_BYTES {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines().next().map(str::to_string)
}

fn handle(mut conn: TcpStream) {
    let Some(request_line) = read_request_line(&mut conn) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => {
                let snap = snapshot::live();
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    snap.prometheus(),
                )
            }
            "/snapshot.json" => {
                let snap = snapshot::live();
                ("200 OK", "application/json", snap.to_json())
            }
            "/healthz" => {
                let mut body = String::new();
                for c in snapshot::live()
                    .report
                    .health_checks(&HealthEntry::FALLBACK)
                {
                    if c.failed {
                        body.push_str(&format!("{} {}\n", c.tag, c.detail));
                    }
                }
                if body.is_empty() {
                    ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
                } else {
                    ("503 Service Unavailable", "text/plain; charset=utf-8", body)
                }
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nConnection: close\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}
