//! End-to-end tests of the live telemetry surface: `obs serve` static
//! mode (byte-for-byte against `obs render`), the global `--serve`
//! flag (endpoints up while the command runs, dataset bytes untouched),
//! and `alerts eval` exit codes and state transitions.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

use hpcpower_obs::{http_get_retry, RetryPolicy};

/// GET with bounded retry/backoff: absorbs the transient connection
/// races (refused/reset between bind and first accept) that made the
/// raw one-shot client flaky under load.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, String)> {
    http_get_retry(addr, path, &RetryPolicy::default())
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hpcpower")
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn hpcpower");
    assert!(
        out.status.success(),
        "hpcpower {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcpower-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn simulate(dir: &Path, out_name: &str, extra: &[&str]) -> Vec<u8> {
    let out_dir = dir.join(out_name);
    let out_str = out_dir.to_str().unwrap().to_string();
    let mut args = vec![
        "simulate", "--system", "emmy", "--seed", "3", "--nodes", "24", "--days", "2",
        "--users", "10", "--quiet", "--out", &out_str,
    ];
    args.extend_from_slice(extra);
    run(&args);
    std::fs::read(out_dir.join("dataset.json")).expect("dataset written")
}

/// Kills the spawned server on drop, so a failing assertion mid-test
/// cannot leak a `--serve-hold` child that inherits the test harness's
/// output pipes and wedges `cargo test` waiting for EOF.
struct KillOnDrop(Option<Child>);

impl KillOnDrop {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not taken")
    }

    /// Hands the child back for a clean `wait_exit` shutdown path.
    fn into_inner(mut self) -> Child {
        self.0.take().expect("child not taken")
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polls an `--addr-file` until the server has written its bound
/// address; kills `child` and fails the test on timeout.
fn wait_addr(path: &Path, child: &mut Child) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("server exited early with {status}");
        }
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    panic!("server never wrote {}", path.display());
}

fn wait_exit(mut child: Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("server did not exit after /quit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn obs_serve_static_mode_is_byte_identical_to_obs_render() {
    let dir = tempdir("serve-static");
    let metrics = dir.join("m.json");
    let metrics_str = metrics.to_str().unwrap().to_string();
    simulate(&dir, "trace", &["--metrics-out", &metrics_str]);

    let rendered = run(&["obs", "render", "--metrics", &metrics_str, "--format", "prom"]);
    let expected_prom = String::from_utf8(rendered.stdout).expect("prom is UTF-8");
    hpcpower_obs::export::lint_prometheus(&expected_prom).expect("rendered exposition lints");
    let doc = std::fs::read_to_string(&metrics).expect("metrics document");

    let addr_file = dir.join("addr.txt");
    let mut guard = KillOnDrop(Some(
        Command::new(bin())
            .args([
                "obs", "serve", "--metrics", &metrics_str, "--addr", "127.0.0.1:0",
                "--addr-file", addr_file.to_str().unwrap(), "--interval-ms", "50", "--quiet",
            ])
            .spawn()
            .expect("spawn obs serve"),
    ));
    let addr = wait_addr(&addr_file, guard.child());

    let (status, headers, body) = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");
    assert_eq!(body, expected_prom, "/metrics must be byte-for-byte `obs render --format prom`");

    let (status, _, body) = http_get(addr, "/snapshot").expect("GET /snapshot");
    assert_eq!(status, 200);
    assert_eq!(body, doc, "/snapshot must be byte-for-byte the --metrics-out document");

    let (status, _, body) = http_get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    let v = serde_json::parse(&body).expect("healthz JSON");
    let obj = v.as_object().unwrap();
    assert_eq!(
        serde_json::find(obj, "status").and_then(|v| v.as_str()),
        Some("ok")
    );

    let (status, _, _) = http_get(addr, "/nope").expect("GET /nope");
    assert_eq!(status, 404);

    let (status, _, _) = http_get(addr, "/quit").expect("GET /quit");
    assert_eq!(status, 200);
    let exit = wait_exit(guard.into_inner());
    assert!(exit.success(), "clean exit after /quit: {exit}");
}

#[test]
fn serve_flag_exposes_live_endpoints_and_leaves_dataset_bytes_identical() {
    let dir = tempdir("serve-live");
    let plain = simulate(&dir, "plain", &[]);

    let addr_file = dir.join("addr.txt");
    let out_dir = dir.join("served");
    let mut guard = KillOnDrop(Some(
        Command::new(bin())
            .args([
                "simulate", "--system", "emmy", "--seed", "3", "--nodes", "24", "--days", "2",
                "--users", "10", "--quiet", "--out", out_dir.to_str().unwrap(),
                "--serve", "127.0.0.1:0", "--serve-hold", "--sample-interval-ms", "25",
                "--addr-file", addr_file.to_str().unwrap(),
                "--alert", "placed:sim.jobs.placed>1@1,cool:sim.cluster.power_watts>1e12@1",
            ])
            .spawn()
            .expect("spawn simulate --serve"),
    ));
    let addr = wait_addr(&addr_file, guard.child());

    // The run holds after finishing (--serve-hold), but the series appear
    // in separate passes (the power-domain gauges after the placement
    // counters), so poll until every series asserted below is present.
    let expected = [
        "sim_jobs_placed_total",
        "hpcpower_build_info{",
        "sim_cluster_power_watts",
        "obs_sampler_ticks_total",
    ];
    let deadline = Instant::now() + Duration::from_secs(30);
    let body = loop {
        let (status, _, body) = http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(status, 200);
        if expected.iter().all(|s| body.contains(s)) || Instant::now() >= deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    hpcpower_obs::export::lint_prometheus(&body)
        .unwrap_or_else(|e| panic!("live /metrics must lint: {e}"));
    assert!(body.contains("hpcpower_build_info{"), "build info rides /metrics");
    assert!(body.contains("sim_cluster_power_watts"), "power-domain gauges ride /metrics");
    assert!(body.contains("obs_sampler_ticks_total"), "sampler meta-metrics ride /metrics");

    // The alert engine advances on sampler ticks, so the `placed` rule
    // may still be pending right after /metrics first shows the
    // counter: poll until it fires rather than asserting a one-shot
    // race.
    let firing_deadline = Instant::now() + Duration::from_secs(30);
    let firing = loop {
        let (_, _, alerts) = http_get(addr, "/alerts").expect("GET /alerts");
        let v = serde_json::parse(&alerts).expect("alerts JSON");
        let firing = serde_json::find(v.as_object().unwrap(), "firing").and_then(|v| v.as_u64());
        if firing == Some(1) || Instant::now() >= firing_deadline {
            break firing;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(firing, Some(1), "the `placed` rule must end up firing");

    let (_, _, health) = http_get(addr, "/healthz").expect("GET /healthz");
    let v = serde_json::parse(&health).expect("healthz JSON");
    let obj = v.as_object().unwrap();
    assert!(serde_json::find(obj, "samples").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert_eq!(
        serde_json::find(obj, "alerts_firing").and_then(|v| v.as_u64()),
        Some(1)
    );

    let (status, _, _) = http_get(addr, "/quit").expect("GET /quit");
    assert_eq!(status, 200);
    let exit = wait_exit(guard.into_inner());
    assert!(exit.success(), "clean exit after /quit: {exit}");

    let served = std::fs::read(out_dir.join("dataset.json")).expect("dataset written");
    assert_eq!(
        plain, served,
        "--serve (sampler + endpoint + alerts) must not change the dataset bytes"
    );
}

#[test]
fn alerts_eval_walks_pending_firing_resolved_and_exits_4() {
    let dir = tempdir("alerts-eval");
    // Five successive samples, one JSON document per line: the gauge
    // crosses the threshold for two samples, then drops back.
    let jsonl = dir.join("walk.jsonl");
    std::fs::write(
        &jsonl,
        concat!(
            "{\"gauges\": {\"load\": 1.0}}\n",
            "{\"gauges\": {\"load\": 10.0}}\n",
            "{\"gauges\": {\"load\": 10.0}}\n",
            "{\"gauges\": {\"load\": 1.0}}\n",
            "{\"gauges\": {\"load\": 1.0}}\n",
        ),
    )
    .expect("write walk");
    let rules = dir.join("rules.txt");
    std::fs::write(&rules, "# alert when load holds above 5\nhot:load>5@2\n").expect("rules");

    let out = Command::new(bin())
        .args([
            "alerts", "eval", "--metrics", jsonl.to_str().unwrap(),
            "--rules", rules.to_str().unwrap(),
        ])
        .output()
        .expect("spawn alerts eval");
    assert_eq!(
        out.status.code(),
        Some(4),
        "a rule that fired during the walk must exit 4:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot"), "summary names the rule: {stdout}");
    assert!(stdout.contains("fired=1"), "summary counts the firing: {stdout}");

    // A rule that never crosses: exit 0.
    let out = run(&[
        "alerts", "eval", "--metrics", jsonl.to_str().unwrap(), "--alert", "cold:load>100@1",
    ]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("inactive"));

    // A rule still firing at the end of the walk: exit 4, state firing.
    let out = Command::new(bin())
        .args([
            "alerts", "eval", "--json", "--metrics", jsonl.to_str().unwrap(),
            "--alert", "seen:load>0@1",
        ])
        .output()
        .expect("spawn alerts eval");
    assert_eq!(out.status.code(), Some(4));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let v = serde_json::parse(&stdout).expect("--json output parses");
    assert_eq!(
        serde_json::find(v.as_object().unwrap(), "firing").and_then(|v| v.as_u64()),
        Some(1)
    );

    // Usage errors exit 2: no rules, and an unparseable rule.
    for args in [
        vec!["alerts", "eval", "--metrics", jsonl.to_str().unwrap()],
        vec!["alerts", "eval", "--metrics", jsonl.to_str().unwrap(), "--alert", "not a rule"],
        vec!["alerts", "eval", "--alert", "hot:load>5@2"],
    ] {
        let out = Command::new(bin()).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }
}

#[test]
fn obs_lint_accepts_good_and_rejects_corrupted_expositions() {
    let dir = tempdir("obs-lint");
    let metrics = dir.join("m.json");
    let metrics_str = metrics.to_str().unwrap().to_string();
    simulate(&dir, "trace", &["--metrics-out", &metrics_str]);
    let prom = run(&["obs", "render", "--metrics", &metrics_str, "--format", "prom"]);
    let good = dir.join("good.prom");
    std::fs::write(&good, &prom.stdout).expect("write exposition");
    run(&["obs", "lint", good.to_str().unwrap()]);

    let bad = dir.join("bad.prom");
    std::fs::write(&bad, "sim_jobs{label=\"unterminated} 1\n").expect("write bad");
    let out = Command::new(bin())
        .args(["obs", "lint", bad.to_str().unwrap()])
        .output()
        .expect("spawn obs lint");
    assert_eq!(out.status.code(), Some(2), "corrupt exposition must exit 2");
}
