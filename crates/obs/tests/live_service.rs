//! End-to-end tests of the live-telemetry layer: the HTTP endpoint's
//! routes and bounds, and the sampler feeding a handle's window store.
//!
//! The sampler test runs under its own scoped handle, which the sampler
//! thread carries; the server tests use a fixed snapshot function.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hpcpower_obs::alerts::{parse_rules, AlertEngine, AlertState};
use hpcpower_obs::export::{lint_prometheus, prometheus};
use hpcpower_obs::{
    http_get_retry, MetricsServer, ObsConfig, Registry, RetryPolicy, Sampler, ServeOptions,
    ServeState, Snapshot,
};

/// GET with bounded retry/backoff: absorbs the transient connection
/// races (refused/reset between bind and first accept) that made the
/// raw one-shot client flaky under load.
fn http_get(
    addr: std::net::SocketAddr,
    path: &str,
) -> std::io::Result<(u16, String, String)> {
    http_get_retry(addr, path, &RetryPolicy::default())
}

fn fixed_snapshot() -> Snapshot {
    let r = Registry::new();
    r.counter_add("live.jobs.placed", 42);
    r.counter_add("repair.rows_quarantined", 3);
    r.gauge_set("live.power_watts", 1234.5);
    r.histogram_record("live.hist", 2.0);
    r.record_span("live.stage", None, 1_000_000);
    let mut snap = r.snapshot();
    snap.build_info = Some(hpcpower_obs::BuildInfo {
        git_sha: "deadbeef".to_string(),
        version: "0.1.0".to_string(),
    });
    snap
}

fn start_server(engine: Option<Arc<Mutex<AlertEngine>>>) -> MetricsServer {
    let state = ServeState {
        snapshot_fn: Arc::new(fixed_snapshot),
        engine,
    };
    MetricsServer::start("127.0.0.1:0", state, ServeOptions::default()).expect("bind ephemeral")
}

#[test]
fn metrics_endpoint_serves_lint_clean_exposition_byte_identical_to_exporter() {
    let server = start_server(None);
    let (status, headers, body) = http_get(server.local_addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "exposition content type: {headers}"
    );
    lint_prometheus(&body).unwrap_or_else(|e| panic!("served /metrics must lint: {e}"));
    assert_eq!(
        body,
        prometheus(&fixed_snapshot()),
        "served bytes must equal the exporter's"
    );
    assert!(body.contains("hpcpower_build_info{git_sha=\"deadbeef\",version=\"0.1.0\"} 1"));
}

#[test]
fn snapshot_endpoint_serves_the_json_document_byte_identical() {
    let server = start_server(None);
    let (status, headers, body) = http_get(server.local_addr(), "/snapshot").unwrap();
    assert_eq!(status, 200);
    assert!(headers.contains("application/json"));
    assert_eq!(body, fixed_snapshot().to_json());
    // And the served document parses back losslessly.
    let parsed = Snapshot::from_json(&body).expect("served snapshot parses");
    assert_eq!(parsed.to_json(), body);
}

#[test]
fn healthz_reports_uptime_and_counters() {
    let server = start_server(None);
    let (status, _, body) = http_get(server.local_addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse(&body).expect("healthz is JSON");
    let obj = v.as_object().unwrap();
    let field = |k: &str| serde_json::find(obj, k).unwrap_or_else(|| panic!("missing {k}"));
    assert_eq!(field("status").as_str(), Some("ok"));
    assert!(field("uptime_seconds").as_f64().unwrap() >= 0.0);
    assert_eq!(field("rows_quarantined").as_u64(), Some(3));
    for k in ["samples", "window_dropped", "timeline_dropped", "alerts_firing", "alerts_pending"] {
        assert!(field(k).as_u64().is_some(), "{k} must be an integer");
    }
    // The profiler gates report their state so operators can see at a
    // glance whether a run is carrying profiling overhead.
    let profiling = field("profiling").as_object().expect("profiling is an object");
    let gate = |k: &str| {
        serde_json::find(profiling, k).unwrap_or_else(|| panic!("missing profiling.{k}"))
    };
    assert!(gate("timeline").as_bool().is_some(), "timeline gate is a bool");
    assert!(gate("alloc").as_bool().is_some(), "alloc gate is a bool");
    assert!(gate("alloc_peak_bytes").as_u64().is_some());
}

#[test]
fn alerts_endpoint_renders_engine_state() {
    // No engine: an empty, parseable document.
    let server = start_server(None);
    let (status, _, body) = http_get(server.local_addr(), "/alerts").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse(&body).expect("alerts JSON");
    assert_eq!(serde_json::find(v.as_object().unwrap(), "firing").unwrap().as_u64(), Some(0));
    drop(server);

    // With an engine: rule states come through.
    let engine = Arc::new(Mutex::new(AlertEngine::new(
        parse_rules("cap:live.power_watts>1000@1\nquiet:live.power_watts>1e12@1").unwrap(),
    )));
    let server = start_server(Some(Arc::clone(&engine)));
    {
        // Drive one evaluation against a store holding the metric.
        let store = hpcpower_obs::store::WindowStore::with_capacity(16);
        store.ingest(&fixed_snapshot(), 1);
        engine.lock().unwrap().evaluate(&store, None);
    }
    let (_, _, body) = http_get(server.local_addr(), "/alerts").unwrap();
    let v = serde_json::parse(&body).expect("alerts JSON");
    let obj = v.as_object().unwrap();
    assert_eq!(serde_json::find(obj, "firing").unwrap().as_u64(), Some(1));
    let rules = serde_json::find(obj, "rules").unwrap().as_array().unwrap();
    assert_eq!(rules.len(), 2);
    let state_of = |name: &str| {
        rules
            .iter()
            .map(|r| r.as_object().unwrap())
            .find(|r| serde_json::find(r, "name").and_then(|v| v.as_str()) == Some(name))
            .and_then(|r| serde_json::find(r, "state"))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    assert_eq!(state_of("cap").as_deref(), Some("firing"));
    assert_eq!(state_of("quiet").as_deref(), Some("inactive"));
}

#[test]
fn unknown_paths_methods_and_garbage_are_rejected() {
    use std::io::{Read as _, Write as _};

    let server = start_server(None);
    let addr = server.local_addr();
    let (status, _, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // Query strings are stripped, not 404ed.
    let (status, _, _) = http_get(addr, "/healthz?verbose=1").unwrap();
    assert_eq!(status, 200);

    let raw = |req: &[u8]| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(req).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };
    let post = raw(b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "POST must 405, got: {post}");
    assert!(post.contains("Allow: GET"));
    let garbage = raw(b"NOT A REQUEST\r\n\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400"), "garbage must 400, got: {garbage}");
}

#[test]
fn quit_endpoint_flips_the_shutdown_flag() {
    let mut server = start_server(None);
    assert!(!server.quit_requested());
    assert!(!server.wait_for_quit(Some(Duration::from_millis(10))), "no quit yet");
    let (status, _, body) = http_get(server.local_addr(), "/quit").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"));
    assert!(server.wait_for_quit(Some(Duration::from_secs(5))));
    server.stop();
    // After stop, connections are refused or at least never answered by
    // the accept loop; stop() twice is fine.
    server.stop();
}

/// Sampler thread → the starting handle's store → alert engine
/// transitions, end to end.
#[test]
fn sampler_feeds_its_handles_store_and_engine() {
    let obs = hpcpower_obs::scoped(ObsConfig::METRICS | ObsConfig::SAMPLING);
    hpcpower_obs::counter_add("live.sampler.ticker", 1);

    let engine = Arc::new(Mutex::new(AlertEngine::new(
        parse_rules("seen:live.sampler.ticker>=1@2").unwrap(),
    )));
    let mut sampler = Sampler::start(
        Duration::from_millis(5),
        Arc::new(hpcpower_obs::snapshot),
        Some(Arc::clone(&engine)),
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if engine.lock().unwrap().status("seen").map(|s| s.state) == Some(AlertState::Firing) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    sampler.stop();

    let st = engine.lock().unwrap().status("seen").cloned().unwrap();
    assert_eq!(st.state, AlertState::Firing, "rule must fire after >= 2 samples");
    assert_eq!(st.fired_count, 1);

    let window = obs.window_snapshot();
    assert!(window.samples >= 2, "sampler must have ticked");
    let series = window.values("live.sampler.ticker").expect("series sampled");
    assert!(series.iter().all(|p| p.value >= 1.0));
    assert!(
        series.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "monotonic timestamps"
    );
    // Uptime rides along as a derived gauge on the handle's snapshot.
    assert!(window.values("obs.process.uptime_seconds").is_some());

    // Meta-metrics landed in the handle's registry.
    let snap = obs.snapshot();
    assert!(snap.counter("obs.sampler.ticks").unwrap_or(0) >= 2);
    assert!(snap.counter("obs.alerts.evals").unwrap_or(0) >= 2);
    assert_eq!(snap.gauge("obs.alerts.firing"), Some(1.0));
    assert_eq!(snap.gauge("obs.alerts.rule.seen"), Some(2.0));
}
