//! Live telemetry: the `obs serve|render|lint` and `alerts eval`
//! commands, plus the global `--serve ADDR` service that rides any
//! long-running command (a background sampler feeding the sliding
//! window store, an HTTP endpoint, and an optional alert engine).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::args::Args;
use crate::errors::CliError;
use hpcpower_obs::alerts::{parse_rule_list, parse_rules, AlertEngine, AlertRule};
use hpcpower_obs::export::{lint_prometheus, prometheus};
use hpcpower_obs::{MetricsServer, ObsConfig, Sampler, ServeOptions, ServeState, Snapshot};

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Stamps the process-wide build identity (`hpcpower_build_info`).
fn set_build_info() {
    hpcpower_obs::set_build_info(&git_sha(), env!("CARGO_PKG_VERSION"));
}

/// Alert rules from `--rules FILE` (one rule per line) and/or `--alert
/// "name:metric>value@for,..."`, rejecting duplicate names across the
/// two sources. `Ok(None)` when neither flag is given.
fn engine_from_args(args: &Args) -> Result<Option<Arc<Mutex<AlertEngine>>>, String> {
    let mut rules: Vec<AlertRule> = Vec::new();
    if let Some(path) = args.get("rules") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read rules file {path}: {e}"))?;
        rules.extend(parse_rules(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(list) = args.get("alert") {
        rules.extend(parse_rule_list(list)?);
    }
    let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate alert rule name {:?}", dup[0]));
    }
    if rules.is_empty() {
        Ok(None)
    } else {
        Ok(Some(Arc::new(Mutex::new(AlertEngine::new(rules)))))
    }
}

/// Loads a `--metrics-out` JSON document back into a [`Snapshot`].
fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metrics file {path}: {e}"))?;
    Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// `hpcpower obs <serve|render|lint>`.
pub fn cmd_obs(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("serve") => Ok(obs_serve(args)?),
        Some("render") => Ok(obs_render(args)?),
        Some("lint") => Ok(obs_lint(args)?),
        other => Err(CliError::Usage(format!(
            "usage: hpcpower obs <serve|render|lint> (got {other:?})"
        ))),
    }
}

/// `hpcpower obs render --metrics FILE [--format prom|json|text]`:
/// re-render a collected JSON metrics document. The `prom` output is
/// byte-for-byte what `obs serve --metrics FILE` answers on `/metrics`.
fn obs_render(args: &Args) -> Result<(), String> {
    let path = args.get("metrics").ok_or("missing --metrics FILE")?;
    let snap = load_snapshot(path)?;
    match args.get("format").unwrap_or("prom") {
        "prom" | "prometheus" => print!("{}", prometheus(&snap)),
        "json" => print!("{}", snap.to_json()),
        "text" => print!("{}", hpcpower_obs::render(&snap, hpcpower_obs::LogFormat::Text)),
        other => return Err(format!("unknown --format {other:?} (prom|json|text)")),
    }
    Ok(())
}

/// `hpcpower obs lint FILE`: check a Prometheus text exposition against
/// the from-scratch linter (exit 2 with the violation otherwise).
fn obs_lint(args: &Args) -> Result<(), String> {
    let path = args
        .get("file")
        .or_else(|| args.positional.get(1).map(String::as_str))
        .ok_or("usage: hpcpower obs lint FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    lint_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: OK");
    Ok(())
}

/// `hpcpower obs serve --addr A [--metrics FILE] [--interval-ms N]
/// [--alert RULES] [--rules FILE] [--duration-s S] [--addr-file PATH]`.
///
/// With `--metrics FILE` the server replays a collected document
/// (static mode: `/metrics` is byte-for-byte the `prom` rendering of
/// the file); without it, it serves this process's live registry.
fn obs_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let interval = Duration::from_millis(args.get_or("interval-ms", 1000u64)?);
    let engine = engine_from_args(args)?;
    set_build_info();

    let static_doc = args.get("metrics").map(load_snapshot).transpose()?;
    let obs = hpcpower_obs::current();
    let snapshot_fn: hpcpower_obs::sampler::SnapshotFn = match static_doc {
        Some(snap) => {
            let snap = Arc::new(snap);
            Arc::new(move || (*snap).clone())
        }
        None => {
            obs.set_config(obs.config() | ObsConfig::METRICS);
            Arc::new(hpcpower_obs::snapshot)
        }
    };

    // The sampler feeds the sliding window (and the alert engine) from
    // the same snapshot source the endpoint serves.
    obs.set_config(obs.config() | ObsConfig::SAMPLING);
    let mut sampler = Sampler::start(interval, Arc::clone(&snapshot_fn), engine.clone());

    let state = ServeState {
        snapshot_fn,
        engine: engine.clone(),
    };
    let server = MetricsServer::start(addr, state, ServeOptions::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, server.local_addr().to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let quiet = args.has("quiet");
    if !quiet {
        eprintln!(
            "serving telemetry on http://{} (/metrics /healthz /snapshot /alerts /quit)",
            server.local_addr()
        );
    }

    let duration: Option<f64> = args.get_parsed("duration-s")?;
    match duration {
        Some(s) => {
            server.wait_for_quit(Some(Duration::from_secs_f64(s)));
        }
        None => {
            server.wait_for_quit(None);
        }
    }
    sampler.stop();
    drop(server);
    if let Some(engine) = &engine {
        let engine = engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !quiet {
            eprint!("{}", engine.render_text());
        }
    }
    Ok(())
}

/// `hpcpower alerts eval --metrics FILE (--rules FILE | --alert ...)`:
/// replay a metrics document (or a JSONL file of one document per line)
/// through the alert engine. Exits [`crate::errors::EXIT_ALERTS_FIRING`]
/// when any rule ends firing or fired during the walk.
pub fn cmd_alerts(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("eval") => {}
        other => {
            return Err(CliError::Usage(format!(
                "usage: hpcpower alerts eval (got {other:?})"
            )))
        }
    }
    let path = args.get("metrics").ok_or("missing --metrics FILE")?;
    let engine = engine_from_args(args)?
        .ok_or("no alert rules: pass --rules FILE and/or --alert \"name:metric>value@for\"")?;

    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metrics file {path}: {e}"))?;
    // Either one JSON document, or JSONL: one document per line, each a
    // successive sample driving the pending -> firing -> resolved walk.
    let snaps: Vec<Snapshot> = match Snapshot::from_json(&text) {
        Ok(snap) => vec![snap],
        Err(first_err) => {
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            if lines.len() < 2 {
                return Err(format!("{path}: {first_err}").into());
            }
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    Snapshot::from_json(l).map_err(|e| format!("{path} line {}: {e}", i + 1))
                })
                .collect::<Result<_, _>>()?
        }
    };

    let store = hpcpower_obs::WindowStore::with_capacity(snaps.len().max(16));
    let mut engine = engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (i, snap) in snaps.iter().enumerate() {
        store.ingest(snap, (i + 1) as u64);
        engine.evaluate(&store, None);
    }

    if args.has("json") {
        println!("{}", engine.to_json());
    } else {
        print!("{}", engine.render_text());
    }
    if engine.any_firing() || engine.ever_fired() {
        return Err(CliError::AlertsFiring("alert rule(s) fired".into()));
    }
    Ok(())
}

/// The global `--serve ADDR` service: enables telemetry and sampling,
/// stamps build info, starts the background sampler and the HTTP
/// endpoint, and (on [`LiveService::finish`]) takes a final sample,
/// optionally holds for `/quit` (`--serve-hold`), and prints the alert
/// summary. Runs alongside any command without touching its output
/// bytes.
pub struct LiveService {
    sampler: Sampler,
    server: MetricsServer,
    engine: Option<Arc<Mutex<AlertEngine>>>,
    hold: bool,
    quiet: bool,
}

impl LiveService {
    /// Starts the service iff `--serve ADDR` was given.
    pub fn from_args(args: &Args) -> Result<Option<LiveService>, String> {
        let Some(addr) = args.get("serve") else {
            return Ok(None);
        };
        let addr = if addr.is_empty() { "127.0.0.1:0" } else { addr };
        let interval = Duration::from_millis(args.get_or("sample-interval-ms", 250u64)?);
        let engine = engine_from_args(args)?;
        let obs = hpcpower_obs::current();
        obs.set_config(obs.config() | ObsConfig::METRICS | ObsConfig::SAMPLING);
        set_build_info();
        let sampler = Sampler::start(interval, Arc::new(hpcpower_obs::snapshot), engine.clone());
        let state = ServeState {
            engine: engine.clone(),
            ..ServeState::live()
        };
        let server = MetricsServer::start(addr, state, ServeOptions::default())
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        if let Some(path) = args.get("addr-file") {
            std::fs::write(path, server.local_addr().to_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        let quiet = args.has("quiet");
        if !quiet {
            eprintln!(
                "live telemetry on http://{} (/metrics /healthz /snapshot /alerts /quit)",
                server.local_addr()
            );
        }
        Ok(Some(LiveService {
            sampler,
            server,
            engine,
            hold: args.has("serve-hold"),
            quiet,
        }))
    }

    /// Ends the service after the command body: final sample + alert
    /// evaluation, optional hold for `/quit`, clean shutdown, summary.
    pub fn finish(mut self) -> Result<(), String> {
        // One last sample so the window ends on the finished run, then a
        // final evaluation so short runs still see their alerts settle.
        hpcpower_obs::sample_now();
        if let Some(engine) = &self.engine {
            let mut engine = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            hpcpower_obs::current().evaluate_alerts(&mut engine);
        }
        if self.hold {
            if !self.quiet {
                eprintln!(
                    "command done; holding for GET /quit on http://{}",
                    self.server.local_addr()
                );
            }
            self.server.wait_for_quit(None);
        }
        self.sampler.stop();
        self.server.stop();
        if let Some(engine) = &self.engine {
            let engine = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !self.quiet {
                eprint!("{}", engine.render_text());
            }
        }
        Ok(())
    }
}
