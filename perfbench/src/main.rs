//! `perfbench-layers` — the in-process half of the benchmark; `run.py`
//! runs it.
//!
//! ```text
//! perfbench-layers pick-seed --seed S --days D [--nodes N] [--users U]
//! perfbench-layers gen-trace --seed S --days D --jobs J --system-rows R [--nodes N]
//!                            [--users U] [--faults R] [--torn T] --out DIR
//! perfbench-layers trace --seed S --days D --threads T --splits K [--nodes N]
//!                        [--users U] [--faults R] --ingest-dir DIR --work DIR
//! ```
//!
//! `pick-seed` maps the benchmark seed to the simulation seed (see
//! [`pick_seed`]).
//!
//! `gen-trace` writes the seeded `jobs.csv`/`system.csv` the `ingest`
//! step reads: a short simulation tiled to exactly `J` jobs and `R` system
//! rows with offset job ids and times, optionally faulted, plus `T` torn
//! job rows and `T/4` torn system rows that a lenient parse must
//! quarantine. The same flags give the same bytes.
//!
//! `trace` is the traced per-layer run. It calls each layer's public
//! functions in the order the CLI's `simulate`, `analyze` and `ingest`
//! commands call them, wraps every call in a benchmark-side `perfbench.*`
//! span, reads those spans and the counters the program already records
//! from the `hpcpower-obs` snapshot, and prints one JSON object. It writes
//! the artifacts the CLI would (`sim/`, `report.txt`, `ingested/`) under
//! `--work`, so `run.py` can check them against the CLI's bytes.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use hpcpower::prediction::{build_ml_dataset, PredictionConfig};
use hpcpower::report;
use hpcpower_ml::{evaluate, DecisionTree, EvalConfig, Flda, Knn, Regressor};
use hpcpower_obs::{RetryPolicy, Snapshot};
use hpcpower_sim::users::generate_population;
use hpcpower_sim::{
    generate_arrivals, schedule, standard_catalog, with_threads, ClusterSim, FaultConfig, SimConfig,
};
use hpcpower_stats::rng::{mix_words, CounterRng, SplitMix64};
use hpcpower_trace::csv::{self, ParseOptions};
use hpcpower_trace::dataset::SystemSample;
use hpcpower_trace::recover::atomic_write_retry;
use hpcpower_trace::repair::{repair, DataQualityReport, RepairConfig, RepairPolicy};
use hpcpower_trace::{
    json, validate, JobId, JobPowerSummary, JobRecord, RealFs, SystemSpec, TraceDataset,
};

// The CLI's allocator, so in-process layer times match the binary's.
#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

/// The CLI's default error budget for lenient parsing.
const ERROR_BUDGET: usize = 1000;
/// Salt of the torn-row stream, so it never correlates with the simulation.
const TORN_SALT: u64 = 0x70E2_4C0F;
const MB: f64 = 1e6;

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let result = Flags::parse(argv).and_then(|f| match cmd.as_str() {
        "gen-trace" => gen_trace(&f),
        "trace" => trace(&f),
        "pick-seed" => pick_seed(&f),
        other => Err(format!(
            "unknown command {other:?} (pick-seed|gen-trace|trace)"
        )),
    });
    if let Err(e) = result {
        eprintln!("perfbench-layers: {e}");
        std::process::exit(2);
    }
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut map = HashMap::new();
        while let Some(key) = args.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {key:?}"))?
                .to_string();
            let value = args
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key, value);
        }
        Ok(Flags(map))
    }

    fn num<T: FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.0
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing --{key}"))
    }
}

/// The configuration `hpcpower simulate --system emmy --days D [--nodes N]
/// [--users U] [--threads T] [--faults R]` builds.
fn sim_config(f: &Flags) -> Result<SimConfig, String> {
    let preset = SimConfig::emmy(f.num("seed", None)?);
    let nodes = f.num("nodes", Some(preset.system.nodes))?;
    let users = f.num("users", Some(preset.population.n_users))?;
    let days: u64 = f.num("days", None)?;
    let mut cfg = preset.scaled_down(nodes, days * 1440, users);
    cfg.threads = f.num("threads", Some(1))?;
    let rate: f64 = f.num("faults", Some(0.0))?;
    if rate > 0.0 {
        cfg.faults = FaultConfig::at_rate(rate);
    }
    Ok(cfg)
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

// ---------------------------------------------------------------------------
// pick-seed
// ---------------------------------------------------------------------------

/// The baseline seed whose workload size every other seed is matched to.
const BASELINE_SEED: u64 = 7;
const CANDIDATES: u64 = 48;

/// The size of the workload a seed makes, from its arrivals alone (~25 ms):
/// the job count, and the sum over users of their squared job counts,
/// which KNN's same-user candidate scans grow with.
fn workload_size(cfg: &SimConfig) -> (f64, f64) {
    let mut rng = SplitMix64::new(cfg.seed);
    let (mut pop_rng, mut arrival_rng) = (rng.fork(1), rng.fork(2));
    let users = generate_population(&cfg.population, &standard_catalog(), cfg.arch, &mut pop_rng);
    let requests = generate_arrivals(
        &users,
        &cfg.arrivals,
        cfg.system.nodes,
        cfg.horizon_min,
        &mut arrival_rng,
    );
    let mut per_user = vec![0u64; users.len()];
    for r in &requests {
        per_user[r.user as usize] += 1;
    }
    (
        requests.len() as f64,
        per_user.iter().map(|&n| (n * n) as f64).sum(),
    )
}

/// Prints the simulation seed for `--seed`: of `--seed` and
/// `CANDIDATES - 1` seeds derived from it, the one whose job count and KNN
/// scan volume are closest to the baseline's (largest relative gap). Seeds
/// then vary what the jobs are, not how many: analyze time otherwise
/// spreads ~20% across seeds. Every candidate is checked, so the cost does
/// not depend on the seed. The baseline seed maps to itself.
fn pick_seed(f: &Flags) -> Result<(), String> {
    let cfg = sim_config(f)?;
    let size = |seed| {
        workload_size(&SimConfig {
            seed,
            ..cfg.clone()
        })
    };
    let base = size(BASELINE_SEED);
    let (gap, seed) = (0..CANDIDATES)
        .map(|i| {
            if i == 0 {
                cfg.seed
            } else {
                mix_words(&[cfg.seed, i])
            }
        })
        .map(|seed| {
            let (jobs, scans) = size(seed);
            let gap = (jobs / base.0 - 1.0)
                .abs()
                .max((scans / base.1 - 1.0).abs());
            (gap, seed)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one candidate");
    eprintln!("seed {} -> {seed} (size gap {:.2}%)", cfg.seed, 100.0 * gap);
    println!("{seed}");
    Ok(())
}

// ---------------------------------------------------------------------------
// gen-trace
// ---------------------------------------------------------------------------

fn gen_trace(f: &Flags) -> Result<(), String> {
    let mut cfg = sim_config(f)?;
    cfg.threads = 1;
    let n_jobs: usize = f.num("jobs", None)?;
    let n_rows: usize = f.num("system-rows", None)?;
    let torn: usize = f.num("torn", Some(0))?;
    let out = f.path("out")?;
    let (seed, horizon) = (cfg.seed, cfg.horizon_min);
    let d = ClusterSim::new(cfg).run().dataset;
    if d.jobs.is_empty() || d.system_series.is_empty() {
        return Err("the source simulation produced no jobs".into());
    }

    // Copy k shifts ids by k * n and times by k * horizon; the last copy
    // is cut short, so the sizes do not depend on the seed.
    let n = d.jobs.len();
    let (jobs, summaries): (Vec<JobRecord>, Vec<JobPowerSummary>) = (0..n_jobs)
        .map(|i| {
            let (j, s) = (&d.jobs[i % n], &d.summaries[i % n]);
            let dt = (i / n) as u64 * horizon;
            let id = JobId::from_index(i);
            let job = JobRecord {
                id,
                submit_min: j.submit_min + dt,
                start_min: j.start_min + dt,
                end_min: j.end_min + dt,
                ..*j
            };
            (job, JobPowerSummary { id, ..*s })
        })
        .unzip();
    let rows = d.system_series.len();
    let system: Vec<SystemSample> = (0..n_rows)
        .map(|i| {
            let s = d.system_series[i % rows];
            SystemSample {
                minute: s.minute + (i / rows) as u64 * horizon,
                ..s
            }
        })
        .collect();
    let mut jobs_csv = Vec::new();
    csv::write_jobs(&mut jobs_csv, &jobs, &summaries).map_err(|e| e.to_string())?;
    let mut system_csv = Vec::new();
    csv::write_system(&mut system_csv, &system).map_err(|e| e.to_string())?;

    let mut rng = SplitMix64::new(mix_words(&[seed, TORN_SALT]));
    let jobs_csv = tear(&jobs_csv, torn, &mut rng);
    let system_csv = tear(&system_csv, torn / 4, &mut rng);
    std::fs::create_dir_all(&out).map_err(io_err(&out))?;
    for (name, bytes) in [("jobs.csv", &jobs_csv), ("system.csv", &system_csv)] {
        let path = out.join(name);
        std::fs::write(&path, bytes).map_err(io_err(&path))?;
    }
    Ok(())
}

/// Inserts `count` torn rows — a seeded choice of data lines cut at a
/// seeded byte before their last comma, as a writer stopped mid-record
/// leaves them — each right after the line it was cut from. A cut row
/// has too few fields to parse, so a lenient ingest quarantines exactly
/// `count` rows.
fn tear(csv: &[u8], count: usize, rng: &mut SplitMix64) -> Vec<u8> {
    let lines: Vec<&[u8]> = csv
        .strip_suffix(b"\n")
        .unwrap_or(csv)
        .split(|&b| b == b'\n')
        .collect();
    let data_lines = lines.len().saturating_sub(1) as u64;
    if count == 0 || data_lines == 0 {
        return csv.to_vec();
    }
    let mut cuts: Vec<usize> = (0..count)
        .map(|_| 1 + rng.next_bounded(data_lines) as usize)
        .collect();
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(csv.len() + count * 64);
    let mut next = cuts.iter().peekable();
    for (i, line) in lines.iter().enumerate() {
        out.extend_from_slice(line);
        out.push(b'\n');
        while next.next_if(|&&c| c == i).is_some() {
            let last_comma = line.iter().rposition(|&b| b == b',').unwrap_or(line.len());
            let cut = 1 + rng.next_bounded(last_comma.max(1) as u64) as usize;
            out.extend_from_slice(&line[..cut]);
            out.push(b'\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// Runs `f` under the benchmark-side span `perfbench.<name>`; repeated
/// calls under one name add up in the registry.
fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    hpcpower_obs::time(&format!("perfbench.{name}"), f)
}

fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.span(name).map_or(0.0, |s| s.total_secs())
}

/// Seconds the `perfbench.<name>` spans gained from `before` to `after`:
/// the layer calls behind one CLI command.
fn spent(before: &Snapshot, after: &Snapshot, names: &[&str]) -> f64 {
    names
        .iter()
        .map(|n| {
            let name = format!("perfbench.{n}");
            span_s(after, &name) - span_s(before, &name)
        })
        .sum()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn publish(path: &Path, bytes: &[u8]) -> Result<(), String> {
    span("trace.publish", || {
        atomic_write_retry(&RealFs, path, bytes, &RetryPolicy::default())
    })
    .map_err(io_err(path))
}

fn check_valid(d: &TraceDataset) -> Result<(), String> {
    span("trace.validate", || validate::validate(d)).map_err(|e| e.to_string())
}

fn trace(f: &Flags) -> Result<(), String> {
    let cfg = sim_config(f)?;
    let threads = cfg.threads;
    let dirty = cfg.faults.is_active();
    let work = f.path("work")?;
    let ingest_dir = f.path("ingest-dir")?;
    hpcpower_obs::enable();
    let start = hpcpower_obs::snapshot();
    let mut m: Vec<(String, f64)> = Vec::new();

    // --- simulate -----------------------------------------------------------
    // The scheduler alone, on the arrivals `ClusterSim` generates (same
    // RNG forks), so its rate is measured in requests per second.
    let mut rng = SplitMix64::new(cfg.seed);
    let (mut pop_rng, mut arrival_rng) = (rng.fork(1), rng.fork(2));
    let users = generate_population(&cfg.population, &standard_catalog(), cfg.arch, &mut pop_rng);
    let requests = generate_arrivals(
        &users,
        &cfg.arrivals,
        cfg.system.nodes,
        cfg.horizon_min,
        &mut arrival_rng,
    );
    black_box(span("sim.schedule", || {
        schedule(&requests, cfg.system.nodes)
    }));

    let (idle_w, tdp_w) = (cfg.power.idle_w, cfg.power.tdp_w);
    let sim = span("sim.run", || ClusterSim::new(cfg.clone()).run());
    let d = sim.dataset;
    if sim.faults.is_none() {
        check_valid(&d)?;
    }
    let (jobs_csv, system_csv, dataset_json) = span("trace.encode", || {
        let mut jobs_csv = Vec::new();
        csv::write_jobs(&mut jobs_csv, &d.jobs, &d.summaries)?;
        let mut system_csv = Vec::new();
        csv::write_system(&mut system_csv, &d.system_series)?;
        let mut dataset_json = Vec::new();
        json::write_dataset(&mut dataset_json, &d)?;
        Ok::<_, hpcpower_trace::TraceError>((jobs_csv, system_csv, dataset_json))
    })
    .map_err(|e| e.to_string())?;
    let mut encoded_bytes = (jobs_csv.len() + system_csv.len() + dataset_json.len()) as f64;
    let sim_dir = work.join("sim");
    std::fs::create_dir_all(&sim_dir).map_err(io_err(&sim_dir))?;
    publish(&sim_dir.join("jobs.csv"), &jobs_csv)?;
    publish(&sim_dir.join("system.csv"), &system_csv)?;
    publish(&sim_dir.join("dataset.json"), &dataset_json)?;
    drop((d, jobs_csv, system_csv, dataset_json));
    let after_sim = hpcpower_obs::snapshot();

    let samples = counter(&after_sim, "sim.monitor.samples");
    let monitor_s = span_s(&after_sim, "simulate.monitor");
    let floor_s = monitor_floor(samples, idle_w, tdp_w, threads);
    let schedule_s = span_s(&after_sim, "perfbench.sim.schedule");
    m.push(("sim.run_s".into(), span_s(&after_sim, "perfbench.sim.run")));
    m.push(("sim.schedule_s".into(), schedule_s));
    m.push((
        "sim.schedule.jobs_per_s".into(),
        requests.len() as f64 / schedule_s,
    ));
    m.push(("sim.monitor_s".into(), monitor_s));
    m.push(("sim.monitor.samples".into(), samples as f64));
    m.push((
        "sim.monitor.ns_per_sample".into(),
        monitor_s * 1e9 / samples as f64,
    ));
    m.push((
        "sim.monitor.floor_ns_per_sample".into(),
        floor_s * 1e9 / samples as f64,
    ));
    let simulate_sum = spent(
        &start,
        &after_sim,
        &["sim.run", "trace.validate", "trace.encode", "trace.publish"],
    );

    // --- analyze ------------------------------------------------------------
    let dataset_path = sim_dir.join("dataset.json");
    let loaded_bytes = std::fs::metadata(&dataset_path)
        .map_err(io_err(&dataset_path))?
        .len();
    let mut d =
        span("trace.load", || json::load_dataset(&dataset_path)).map_err(|e| e.to_string())?;
    let quality = dirty.then(|| {
        span("trace.repair", || {
            repair(&mut d, &RepairConfig::with_policy(RepairPolicy::Linear))
        })
    });
    check_valid(&d)?;
    let pcfg = PredictionConfig {
        n_splits: f.num("splits", None)?,
        ..Default::default()
    };
    let text = span("core.render", || {
        with_threads(threads, || {
            report::render_full_with(&d, &pcfg, quality.as_ref())
        })
    });
    let report_path = work.join("report.txt");
    std::fs::write(&report_path, &text).map_err(io_err(&report_path))?;
    let after_analyze = hpcpower_obs::snapshot();
    let analyze_sum = spent(
        &after_sim,
        &after_analyze,
        &[
            "trace.load",
            "trace.repair",
            "trace.validate",
            "core.render",
        ],
    );

    // Each section alone, on a copy whose memoized index starts cold as
    // the CLI's does.
    let cold = TraceDataset {
        index: Default::default(),
        ..d.clone()
    };
    type Section = fn(&TraceDataset, &PredictionConfig) -> String;
    let sections: [(&str, Section); 8] = [
        ("system_level", |d, _| report::render_system_level(d)),
        ("job_level", |d, _| report::render_job_level(d)),
        ("temporal", |d, _| report::render_temporal(d)),
        ("spatial", |d, _| report::render_spatial(d)),
        ("user_level", |d, _| report::render_user_level(d)),
        ("prediction", report::render_prediction),
        ("powercap", report::render_powercap),
        ("pricing", |d, _| report::render_pricing(d)),
    ];
    for (name, render) in sections {
        black_box(span(&format!("core.section.{name}"), || {
            with_threads(threads, || render(&cold, &pcfg))
        }));
    }

    // The models of the prediction section, one evaluation each.
    let data = build_ml_dataset(&cold);
    let eval_cfg = EvalConfig {
        n_splits: pcfg.n_splits,
        validation_fraction: pcfg.validation_fraction,
        seed: pcfg.seed,
    };
    let bdt = span("ml.bdt.eval", || {
        with_threads(threads, || {
            evaluate(&data, &eval_cfg, |t| DecisionTree::fit(t, pcfg.tree))
        })
    });
    let before_knn = hpcpower_obs::snapshot();
    let knn = span("ml.knn.eval", || {
        with_threads(threads, || {
            evaluate(&data, &eval_cfg, |t| Knn::fit(t, pcfg.knn))
        })
    });
    let after_knn = hpcpower_obs::snapshot();
    black_box(span("ml.flda.eval", || {
        with_threads(threads, || {
            evaluate(&data, &eval_cfg, |t| Flda::fit(t, pcfg.flda))
        })
    }));
    let tree =
        span("ml.bdt.fit", || DecisionTree::fit(&data, pcfg.tree)).map_err(|e| e.to_string())?;
    let predict_start = Instant::now();
    let mut acc = 0.0;
    for i in 0..data.len() {
        let (u, n, w) = data.features.row(i);
        acc += tree.predict(black_box(u), n, w);
    }
    black_box(acc);
    let us_per_predict = predict_start.elapsed().as_secs_f64() * 1e6 / data.len() as f64;
    let queries = counter(&after_knn, "ml.knn.queries") - counter(&before_knn, "ml.knn.queries");
    let scanned = counter(&after_knn, "ml.knn.candidates_scanned")
        - counter(&before_knn, "ml.knn.candidates_scanned");
    drop((d, cold, data));
    let after_ml = hpcpower_obs::snapshot();

    // --- ingest -------------------------------------------------------------
    let read = |name: &str| {
        let path = ingest_dir.join(name);
        std::fs::read_to_string(&path).map_err(io_err(&path))
    };
    let (jobs_text, system_text) = (read("jobs.csv")?, read("system.csv")?);
    let parsed_bytes = (jobs_text.len() + system_text.len()) as f64;
    let opts = ParseOptions::lenient(ERROR_BUDGET);
    let (jobs_table, system_table) = span("trace.parse", || {
        with_threads(threads, || {
            Ok::<_, hpcpower_trace::TraceError>((
                hpcpower_trace::read_jobs_str(&jobs_text, opts)?,
                hpcpower_trace::read_system_str(&system_text, opts)?,
            ))
        })
    })
    .map_err(|e| e.to_string())?;
    drop((jobs_text, system_text));
    let quarantined = jobs_table.quarantined.len() + system_table.quarantined.len();
    let mut d = TraceDataset {
        system: SystemSpec::emmy(),
        jobs: jobs_table.jobs,
        summaries: jobs_table.summaries,
        system_series: system_table.samples,
        instrumented: Vec::new(),
        app_names: jobs_table.app_names,
        user_count: jobs_table.user_names.len() as u32,
        index: Default::default(),
    };
    let mut repair_cfg = RepairConfig::with_policy(RepairPolicy::Linear);
    repair_cfg.rows_quarantined = quarantined as u64;
    let quality: DataQualityReport = span("trace.repair", || repair(&mut d, &repair_cfg));
    check_valid(&d)?;
    let (dataset_json, quality_json) = span("trace.encode", || {
        let mut dataset_json = Vec::new();
        json::write_dataset(&mut dataset_json, &d).map_err(|e| e.to_string())?;
        let quality_json = serde_json::to_string_pretty(&quality).map_err(|e| e.to_string())?;
        Ok::<_, String>((dataset_json, quality_json))
    })?;
    encoded_bytes += (dataset_json.len() + quality_json.len()) as f64;
    let out = work.join("ingested");
    std::fs::create_dir_all(&out).map_err(io_err(&out))?;
    publish(&out.join("dataset.json"), &dataset_json)?;
    publish(&out.join("quality.json"), quality_json.as_bytes())?;
    let end = hpcpower_obs::snapshot();
    let ingest_sum = spent(
        &after_ml,
        &end,
        &[
            "trace.parse",
            "trace.repair",
            "trace.validate",
            "trace.encode",
            "trace.publish",
        ],
    );

    // --- report ---------------------------------------------------------------
    let s = |name: &str| span_s(&end, &format!("perfbench.{name}"));
    m.push(("trace.encode_s".into(), s("trace.encode")));
    m.push((
        "trace.encode.mb_per_s".into(),
        encoded_bytes / MB / s("trace.encode"),
    ));
    m.push(("trace.publish_s".into(), s("trace.publish")));
    m.push(("trace.load_s".into(), s("trace.load")));
    m.push((
        "trace.load.mb_per_s".into(),
        loaded_bytes as f64 / MB / s("trace.load"),
    ));
    m.push(("trace.parse_s".into(), s("trace.parse")));
    m.push((
        "trace.parse.mb_per_s".into(),
        parsed_bytes / MB / s("trace.parse"),
    ));
    m.push(("trace.parse.rows_quarantined".into(), quarantined as f64));
    m.push(("trace.repair_s".into(), s("trace.repair")));
    m.push((
        "trace.repair.rows_repaired".into(),
        quality.rows_repaired() as f64,
    ));
    m.push(("trace.validate_s".into(), s("trace.validate")));
    for (name, _) in sections {
        m.push((
            format!("core.section.{name}_s"),
            s(&format!("core.section.{name}")),
        ));
    }
    m.push(("core.render_s".into(), s("core.render")));
    m.push(("ml.knn.eval_s".into(), s("ml.knn.eval")));
    m.push((
        "ml.knn.us_per_query".into(),
        s("ml.knn.eval") * 1e6 / queries as f64,
    ));
    m.push((
        "ml.knn.candidates_per_query".into(),
        scanned as f64 / queries as f64,
    ));
    m.push(("ml.bdt.eval_s".into(), s("ml.bdt.eval")));
    m.push(("ml.flda.eval_s".into(), s("ml.flda.eval")));
    m.push(("ml.bdt.fit_s".into(), s("ml.bdt.fit")));
    m.push(("ml.bdt.us_per_predict".into(), us_per_predict));

    let metrics: Vec<String> = m.iter().map(|(k, v)| format!("{k:?}: {v:e}")).collect();
    println!(
        "{{\"metrics\": {{{}}}, \"layer_sum_s\": {{\"simulate\": {simulate_sum:e}, \
         \"analyze\": {analyze_sum:e}, \"ingest\": {ingest_sum:e}}}, \
         \"within10_pct\": {{\"bdt\": {:e}, \"knn\": {:e}}}}}",
        metrics.join(", "),
        100.0 * bdt.fraction_below(0.10),
        100.0 * knn.fraction_below(0.10),
    );
    Ok(())
}

/// Seconds to draw `samples` normals with `CounterRng::fill_normal2` and
/// clamp them into `[idle_w, tdp_w]` — the monitor kernel's irreducible
/// per-sample work — split over `threads` threads as the kernel is.
fn monitor_floor(samples: u64, idle_w: f64, tdp_w: f64, threads: usize) -> f64 {
    const ROW: u64 = 4096;
    let threads = threads.max(1) as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let share = samples / threads + u64::from(t < samples % threads);
            scope.spawn(move || {
                let rng = CounterRng::new(mix_words(&[t, ROW]));
                let mut row = vec![0.0f64; ROW as usize];
                let mut left = share;
                let mut lane = 0;
                while left > 0 {
                    let n = left.min(ROW) as usize;
                    rng.fill_normal2(lane, 0, &mut row[..n]);
                    for v in &mut row[..n] {
                        *v = (0.6 * tdp_w * (1.0 + 0.05 * *v)).clamp(idle_w, tdp_w);
                    }
                    black_box(&row);
                    left -= n as u64;
                    lane += 1;
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}
