//! Thread-count determinism: the simulator must produce byte-identical
//! datasets no matter how many workers materialize the traces.
//!
//! The guarantees under test (see DESIGN.md, "Parallelism & determinism"):
//! per-job power parameters are a pure function of (seed, user, request
//! index), the monitor folds fixed-size batches in job order, and the
//! parallel map preserves input order.

use hpcpower_obs::ObsConfig;
use hpcpower_sim::{replay_swf, simulate, FaultConfig, ReplayConfig, SimConfig};
use hpcpower_trace::swf::SwfJob;

fn dataset_json(threads: usize) -> String {
    let mut cfg = SimConfig::emmy_small(11);
    cfg.threads = threads;
    let dataset = simulate(cfg);
    serde_json::to_string(&dataset).expect("serializes")
}

#[test]
fn simulate_is_byte_identical_across_thread_counts() {
    let serial = dataset_json(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            dataset_json(threads),
            "simulate() output changed with {threads} threads"
        );
    }
}

/// The full determinism matrix the columnar kernel must uphold:
/// thread counts {1, 2, 4} × fault injection {off, 5%} × two seeds all
/// serialize to the same bytes as the single-threaded run of the same
/// (seed, faults) cell. Faults are the adversarial case — they mutate
/// instrumented series after the kernel runs, so any scratch-arena
/// reuse bug that leaks state between jobs shows up here first.
#[test]
fn simulate_matrix_threads_by_faults_by_seed_is_byte_identical() {
    for seed in [11u64, 4242] {
        for fault_rate in [0.0, 0.05] {
            let cell = |threads: usize| {
                let mut cfg = SimConfig::emmy_small(seed);
                cfg.threads = threads;
                if fault_rate > 0.0 {
                    cfg.faults = FaultConfig::at_rate(fault_rate);
                }
                serde_json::to_string(&simulate(cfg)).expect("serializes")
            };
            let serial = cell(1);
            for threads in [2, 4] {
                assert_eq!(
                    serial,
                    cell(threads),
                    "seed {seed}, faults {fault_rate}: output changed at {threads} threads"
                );
            }
        }
    }
}

/// Observability must only *observe*: with telemetry — including the
/// span event timeline — enabled, the simulator emits byte-identical
/// datasets at any thread count, while the registry fills with nonzero
/// pipeline measurements and the timeline with span events.
///
/// The telemetry runs under a handle scoped to this test: this thread
/// and the rayon workers it starts record into it, while the sibling
/// tests' concurrent `simulate` runs stay on the (disabled) process
/// handle. So the exact span count holds at any core count.
#[test]
fn telemetry_does_not_change_dataset_bytes() {
    let baseline = dataset_json(1);
    let obs = hpcpower_obs::scoped(ObsConfig::METRICS | ObsConfig::TIMELINE);
    for threads in [1, 4] {
        assert_eq!(
            baseline,
            dataset_json(threads),
            "telemetry changed dataset bytes at {threads} threads"
        );
    }
    let timeline = obs.timeline_snapshot();
    assert!(
        !timeline.events.is_empty(),
        "timeline must have recorded span events"
    );
    let snap = obs.snapshot();
    let sim_span = snap.span("simulate").expect("simulate span recorded");
    assert!(sim_span.total_ns > 0, "simulate span must have nonzero time");
    assert_eq!(sim_span.count, 2, "one simulate span per enabled run");
    for stage in [
        "simulate.population",
        "simulate.arrivals",
        "simulate.schedule",
        "simulate.params",
        "simulate.monitor",
    ] {
        let s = snap.span(stage).unwrap_or_else(|| panic!("missing span {stage}"));
        assert_eq!(s.parent.as_deref(), Some("simulate"), "{stage} parent");
    }
    assert!(snap.counter("sim.monitor.samples").unwrap_or(0) > 0);
    assert!(snap.counter("sim.jobs.placed").unwrap_or(0) > 0);
    assert!(
        snap.counter("sim.sched.backfill_hits").is_some(),
        "backfill counter must be present even if zero"
    );
    let depth = snap.histogram("sim.sched.queue_depth").expect("queue-depth histogram");
    assert!(depth.count > 0);
    let wait = snap.histogram("sim.sched.wait_min").expect("wait-time histogram");
    assert!(wait.count > 0, "every placed job records a wait time");
    assert!(wait.p99 >= wait.p50, "wait quantiles are ordered");
}

/// Two threads, each with its own scoped handle, simulate concurrently
/// (one run and two runs, both with parallel workers): each handle sees
/// only its own `simulate` spans and monitor samples, plus the kernel's
/// scratch-arena histogram that only the rayon workers record.
#[test]
fn concurrent_scoped_handles_see_only_their_own_runs() {
    let per_handle: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = [1, 2]
            .map(|runs| {
                s.spawn(move || {
                    let obs = hpcpower_obs::scoped(ObsConfig::METRICS);
                    for _ in 0..runs {
                        dataset_json(2);
                    }
                    let snap = obs.snapshot();
                    assert!(
                        snap.histogram("sim.kernel.scratch_bytes").is_some_and(|h| h.count > 0),
                        "worker-recorded kernel metrics land in the caller's handle"
                    );
                    let spans = snap.span("simulate").map_or(0, |s| s.count);
                    (spans, snap.counter("sim.monitor.samples").unwrap_or(0))
                })
            })
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(per_handle[0].0, 1, "one-run handle's simulate spans");
    assert_eq!(per_handle[1].0, 2, "two-run handle's simulate spans");
    assert!(per_handle[0].1 > 0);
    assert_eq!(
        per_handle[1].1,
        2 * per_handle[0].1,
        "monitor samples recorded on workers land in their caller's handle"
    );
}

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let jobs: Vec<SwfJob> = (0..120u64)
        .map(|i| SwfJob {
            id: i + 1,
            submit_s: i * 240,
            wait_s: 0,
            runtime_s: 1800 + (i % 5) * 600,
            procs: 1 + (i % 7) as u32,
            time_req_s: 7200,
            user: 100 + (i % 9) as u32,
        })
        .collect();
    let replay_json = |threads: usize| {
        let mut cfg = ReplayConfig::emmy_like(3);
        cfg.threads = threads;
        serde_json::to_string(&replay_swf(&jobs, &cfg)).expect("serializes")
    };
    let serial = replay_json(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            replay_json(threads),
            "replay_swf() output changed with {threads} threads"
        );
    }
}
