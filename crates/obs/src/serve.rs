//! From-scratch HTTP/1.1 telemetry endpoint on `std::net::TcpListener`
//! (the workspace is offline — no hyper/axum, so the request parser
//! and response writer are hand-rolled).
//!
//! ## Routes
//!
//! | Route       | Body                                                    |
//! |-------------|---------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition v0.0.4 of the snapshot       |
//! | `/snapshot` | The single-document JSON metrics form                   |
//! | `/healthz`  | JSON: uptime, sample/drop/quarantine counters, alerts   |
//! | `/alerts`   | JSON state of the attached alert engine                 |
//! | `/quit`     | Acknowledges and asks the owning process to shut down   |
//!
//! Anything else is 404; non-GET methods are 405; a malformed request
//! line is 400. Responses always carry `Content-Length` and
//! `Connection: close` — one request per connection keeps the parser
//! trivial and is plenty for scrape traffic.
//!
//! ## Bounds and graceful degradation
//!
//! Connections are handled on short-lived threads, capped at
//! [`ServeOptions::max_connections`] in flight, with read/write
//! timeouts so a stalled peer cannot pin a handler. Request heads are
//! capped at 8 KiB.
//!
//! Under load the server sheds expensive routes first and keeps the
//! control plane alive (each shed answers `503` with `Retry-After`
//! and bumps the `obs.serve.shed` counter):
//!
//! 1. above half of `max_connections`: `/snapshot` is shed (the
//!    full-JSON dump is the most expensive route);
//! 2. above three quarters: `/metrics` and `/alerts` are shed too;
//! 3. at the cap, new connections are handled *inline* on the accept
//!    thread with a short read deadline: `/healthz` is shed last and
//!    `/quit` is always honored — an operator can always shut the
//!    server down, no matter how overloaded it is.
//!
//! The server threads run under the [`crate::Obs`] handle that was
//! current when [`MetricsServer::start`] ran, so `/healthz` and the
//! `obs.serve.*` counters describe that handle. The server only ever
//! *reads* telemetry state; like the sampler it never participates in
//! pipeline computation, so serving cannot change dataset or report
//! bytes.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alerts::AlertEngine;
use crate::export::prometheus;
use crate::sampler::SnapshotFn;

/// Maximum accepted request head (request line + headers), bytes.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Tunables of a [`MetricsServer`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum connections being handled at once; excess connections
    /// receive `503 Service Unavailable` immediately.
    pub max_connections: usize,
    /// Per-connection read and write timeout.
    pub io_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_connections: 16,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// What the server serves: a snapshot source plus an optional alert
/// engine for `/alerts`.
#[derive(Clone)]
pub struct ServeState {
    /// Source of registry snapshots (live registry or a loaded file).
    pub snapshot_fn: SnapshotFn,
    /// Alert engine rendered by `/alerts` and summarized in
    /// `/healthz`, if any.
    pub engine: Option<Arc<Mutex<AlertEngine>>>,
}

impl ServeState {
    /// State serving the live snapshot of the server's handle, with no
    /// alert engine.
    pub fn live() -> Self {
        Self {
            snapshot_fn: Arc::new(crate::snapshot),
            engine: None,
        }
    }
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("engine", &self.engine.is_some())
            .finish()
    }
}

/// A running telemetry HTTP server; stops (and joins) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    quit_requested: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop in a background thread.
    pub fn start(
        addr: impl ToSocketAddrs,
        state: ServeState,
        options: ServeOptions,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let quit_requested = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicUsize::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_quit = Arc::clone(&quit_requested);
        let obs = crate::current();
        let accept_handle = std::thread::Builder::new()
            .name("obs-serve".to_string())
            .spawn(move || {
                let _obs = obs.install();
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if inflight.load(Ordering::Relaxed) >= options.max_connections {
                        // Fully saturated: no handler thread available,
                        // but /quit must never be dropped. Read the head
                        // inline with a short deadline and answer only
                        // the control plane; everything else is shed.
                        handle_overloaded(stream, &accept_quit);
                        continue;
                    }
                    inflight.fetch_add(1, Ordering::Relaxed);
                    let conn_inflight = Arc::clone(&inflight);
                    let state = state.clone();
                    let quit = Arc::clone(&accept_quit);
                    let options = options.clone();
                    let obs = obs.clone();
                    let spawned = std::thread::Builder::new()
                        .name("obs-serve-conn".to_string())
                        .spawn(move || {
                            let _obs = obs.install();
                            handle_connection(stream, &state, &quit, &options, &conn_inflight);
                            conn_inflight.fetch_sub(1, Ordering::Relaxed);
                        });
                    if spawned.is_err() {
                        inflight.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            })
            .expect("spawn obs-serve thread");
        Ok(MetricsServer {
            addr,
            stop,
            quit_requested,
            accept_handle: Some(accept_handle),
        })
    }

    /// The actually-bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked the owning process to shut down via
    /// `GET /quit`.
    pub fn quit_requested(&self) -> bool {
        self.quit_requested.load(Ordering::Relaxed)
    }

    /// Blocks until `GET /quit` arrives or `max_wait` (if any)
    /// elapses. Returns whether quit was requested.
    pub fn wait_for_quit(&self, max_wait: Option<Duration>) -> bool {
        let deadline = max_wait.map(|d| std::time::Instant::now() + d);
        while !self.quit_requested() {
            if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.quit_requested()
    }

    /// Stops accepting, unblocks the accept loop, and joins it.
    /// Idempotent; in-flight handler threads finish on their own.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deadline for reading a request head on the accept thread when the
/// server is saturated. Short, so a slow peer cannot stall accepts for
/// long; a peer that misses it is shed without an answer.
const OVERLOAD_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Inline handler for connections arriving while every handler slot is
/// busy: serve `/quit` (never dropped), shed everything else with 503.
fn handle_overloaded(mut stream: TcpStream, quit: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(OVERLOAD_READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(OVERLOAD_READ_TIMEOUT));
    let path = read_request_head(&mut stream)
        .as_deref()
        .and_then(request_path)
        .map(str::to_string);
    let response = match path.as_deref() {
        Some("/quit") => {
            quit.store(true, Ordering::Relaxed);
            crate::counter_add("obs.serve.requests", 1);
            Response::ok("text/plain; charset=utf-8", "shutting down\n".to_string())
        }
        _ => shed_response(),
    };
    write_response(&mut stream, &response);
}

/// The 503 a shed route answers with; carries `Retry-After` so a
/// well-behaved scraper backs off instead of hammering.
fn shed_response() -> Response {
    crate::counter_add("obs.serve.shed", 1);
    Response::error(503, "Service Unavailable", "overloaded, retry later")
}

/// Routes shed at each load level, cheapest-to-keep last: `/snapshot`
/// above half the connection cap, `/metrics` and `/alerts` above three
/// quarters. `/healthz` is only shed on the saturated inline path and
/// `/quit` never.
fn shed_route(path: &str, inflight: usize, max_connections: usize) -> bool {
    match path {
        "/snapshot" => inflight > max_connections / 2,
        "/metrics" | "/alerts" => inflight > (max_connections * 3) / 4,
        _ => false,
    }
}

/// Extracts the request path from a request head: GET only, HTTP/1.x
/// only, query string stripped. `None` means malformed (or non-GET),
/// which the caller maps to 400/405.
fn request_path(head: &str) -> Option<&str> {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (parts.next()?, parts.next()?, parts.next()?);
    if method != "GET" || !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return None;
    }
    Some(target.split('?').next().unwrap_or(target))
}

/// Reads the request head (up to the blank line or the size cap).
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    if buf.is_empty() || buf.len() > MAX_REQUEST_BYTES {
        return None;
    }
    String::from_utf8(buf).ok()
}

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, body: &str) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{body}\n"),
        }
    }
}

fn route(path: &str, state: &ServeState, quit: &AtomicBool) -> Response {
    match path {
        "/metrics" => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus(&(state.snapshot_fn)()),
        ),
        "/snapshot" => Response::ok("application/json", (state.snapshot_fn)().to_json()),
        "/healthz" => Response::ok("application/json", healthz_body(state)),
        "/alerts" => {
            let body = match &state.engine {
                Some(engine) => engine
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .to_json(),
                None => "{\n  \"firing\": 0,\n  \"pending\": 0,\n  \"evals\": 0,\n  \"rules\": [\n  ]\n}\n"
                    .to_string(),
            };
            Response::ok("application/json", body)
        }
        "/quit" => {
            quit.store(true, Ordering::Relaxed);
            Response::ok("text/plain; charset=utf-8", "shutting down\n".to_string())
        }
        _ => Response::error(404, "Not Found", "not found"),
    }
}

fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    quit: &AtomicBool,
    options: &ServeOptions,
    inflight: &AtomicUsize,
) {
    let _ = stream.set_read_timeout(Some(options.io_timeout));
    let _ = stream.set_write_timeout(Some(options.io_timeout));
    let Some(head) = read_request_head(&mut stream) else {
        return;
    };
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (parts.next(), parts.next(), parts.next());
    let response = match (method, target, version) {
        (Some(method), Some(target), Some(version))
            if version.starts_with("HTTP/1.") && parts.next().is_none() =>
        {
            if method != "GET" {
                Response::error(405, "Method Not Allowed", "only GET is supported")
            } else {
                // Strip any query string; the endpoints take none.
                let path = target.split('?').next().unwrap_or(target);
                crate::counter_add("obs.serve.requests", 1);
                // Graceful degradation: shed expensive routes while
                // most handler slots are busy (see the module docs for
                // the shed order). /quit and /healthz are never shed
                // here — only the saturated inline path sheds /healthz.
                if shed_route(path, inflight.load(Ordering::Relaxed), options.max_connections)
                {
                    shed_response()
                } else {
                    route(path, state, quit)
                }
            }
        }
        _ => Response::error(400, "Bad Request", "malformed request line"),
    };
    write_response(&mut stream, &response);
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    if response.status == 405 {
        head.push_str("Allow: GET\r\n");
    }
    if response.status == 503 {
        head.push_str("Retry-After: 1\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

fn healthz_body(state: &ServeState) -> String {
    let snap = (state.snapshot_fn)();
    let obs = crate::current();
    let store = obs.store();
    let quarantined = snap.counter("repair.rows_quarantined").unwrap_or(0)
        + snap.counter("trace.ingest.rows_quarantined").unwrap_or(0);
    let (firing, pending) = match &state.engine {
        Some(engine) => engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .status_counts(),
        None => (0, 0),
    };
    let alloc = crate::alloc::snapshot();
    format!(
        "{{\n  \"status\": \"ok\",\n  \"uptime_seconds\": {},\n  \"samples\": {},\n  \
         \"window_dropped\": {},\n  \"timeline_dropped\": {},\n  \"rows_quarantined\": {quarantined},\n  \
         \"alerts_firing\": {firing},\n  \"alerts_pending\": {pending},\n  \
         \"profiling\": {{\"timeline\": {}, \"alloc\": {}, \"alloc_peak_bytes\": {}}}\n}}\n",
        crate::snapshot::json_f64(crate::uptime_seconds()),
        store.samples(),
        store.dropped(),
        obs.timeline_snapshot().dropped,
        obs.config().contains(crate::ObsConfig::TIMELINE),
        alloc.enabled,
        alloc.peak_bytes,
    )
}

/// Minimal HTTP/1.1 GET client for tests and smoke checks: returns
/// `(status, headers, body)`.
pub(crate) fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((status, head.to_string(), body.to_string()))
}
