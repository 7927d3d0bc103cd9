//! The live-telemetry layer must only *observe*: with the background
//! sampler ticking into the sliding-window store while the simulator
//! runs, dataset bytes stay identical at any thread count, and the new
//! power-domain gauges land in the registry.
//!
//! The sampler thread carries the test's scoped handle, so the window
//! store it feeds belongs to this test alone.

use std::sync::Arc;
use std::time::Duration;

use hpcpower_obs::ObsConfig;
use hpcpower_sim::{simulate, SimConfig};

fn dataset_json(threads: usize) -> String {
    let mut cfg = SimConfig::emmy_small(11);
    cfg.threads = threads;
    let dataset = simulate(cfg);
    serde_json::to_string(&dataset).expect("serializes")
}

#[test]
fn sampler_and_window_store_do_not_change_dataset_bytes() {
    // Baseline before anything is enabled: the disabled fast path.
    let baseline = dataset_json(1);

    let obs = hpcpower_obs::scoped(ObsConfig::METRICS | ObsConfig::SAMPLING);
    let mut sampler = hpcpower_obs::Sampler::start(
        Duration::from_millis(5),
        Arc::new(hpcpower_obs::snapshot),
        None,
    );
    for threads in [1, 4] {
        assert_eq!(
            baseline,
            dataset_json(threads),
            "sampler + window store changed dataset bytes at {threads} threads"
        );
    }
    hpcpower_obs::sample_now();
    sampler.stop();

    // The window store sampled the run.
    let window = obs.window_snapshot();
    assert!(window.samples >= 1, "sampler must have ticked");
    assert!(
        window.values("sim.jobs.placed").is_some(),
        "sampled series include the pipeline counters"
    );
    assert!(window.values("obs.process.uptime_seconds").is_some());

    // The power-domain gauges landed, and they are coherent.
    let snap = obs.snapshot();
    let power = snap.gauge("sim.cluster.power_watts").expect("instantaneous draw gauge");
    let peak = snap.gauge("sim.cluster.peak_power_watts").expect("peak draw gauge");
    let busy = snap.gauge("sim.cluster.nodes_busy").expect("busy-nodes gauge");
    assert!(power > 0.0, "a nonempty schedule draws power");
    assert!(peak >= power, "peak bounds the instantaneous probe");
    assert!(busy >= 1.0, "some nodes were busy at the probe minute");
    assert!(
        snap.counters
            .iter()
            .any(|(name, v)| name.starts_with("sim.app.")
                && name.ends_with(".energy_wmin")
                && *v > 0),
        "per-app energy counters must be recorded"
    );
}
