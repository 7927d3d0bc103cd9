//! The periodic sampler: a background thread that snapshots metrics
//! into the sliding-window store at a fixed interval.
//!
//! The sampler thread runs under the [`crate::Obs`] handle that was
//! current when it started. Each tick takes one snapshot via the
//! configured snapshot function, ingests it into that handle's
//! [`crate::WindowStore`], bumps the `obs.sampler.ticks` counter, and —
//! when an alert engine is attached — runs one evaluation pass so rules
//! advance exactly once per sample. The first tick happens immediately
//! on start, so even a short-lived command leaves at least one sample
//! behind.
//!
//! The sampler is an *observer*: it never writes anything the pipeline
//! reads, so dataset and report bytes are identical with it running or
//! not (proved in `crates/sim/tests/determinism.rs` and
//! `crates/core/tests/report_determinism.rs`). Stopping is prompt: the
//! thread waits on a condvar with the interval as timeout, so
//! [`Sampler::stop`] (or drop) returns without sleeping out the
//! remaining interval.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alerts::AlertEngine;
use crate::snapshot::Snapshot;

/// Shared `Snapshot` source: the live registry ([`crate::snapshot`])
/// for real services, a parsed metrics document for
/// `obs serve --metrics FILE`.
pub type SnapshotFn = Arc<dyn Fn() -> Snapshot + Send + Sync>;

#[derive(Debug, Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// Handle to a running background sampler thread; stops on drop.
#[derive(Debug)]
pub struct Sampler {
    signal: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts a sampler ticking every `interval` over `snapshot_fn`,
    /// optionally evaluating `engine` once per tick.
    pub fn start(
        interval: Duration,
        snapshot_fn: SnapshotFn,
        engine: Option<Arc<Mutex<AlertEngine>>>,
    ) -> Sampler {
        let signal = Arc::new(StopSignal::default());
        let thread_signal = Arc::clone(&signal);
        let obs = crate::current();
        let handle = std::thread::Builder::new()
            .name("obs-sampler".to_string())
            .spawn(move || {
                let _obs = obs.install();
                loop {
                    let snap = snapshot_fn();
                    obs.ingest_sample(&snap);
                    crate::counter_add("obs.sampler.ticks", 1);
                    if let Some(engine) = &engine {
                        let mut engine = engine
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        obs.evaluate_alerts(&mut engine);
                    }
                    let stopped = thread_signal
                        .stopped
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let (stopped, _) = thread_signal
                        .cv
                        .wait_timeout_while(stopped, interval, |s| !*s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if *stopped {
                        break;
                    }
                }
            })
            .expect("spawn obs-sampler thread");
        Sampler {
            signal,
            handle: Some(handle),
        }
    }

    /// Signals the thread to stop and joins it. Idempotent.
    pub fn stop(&mut self) {
        {
            let mut stopped = self
                .signal
                .stopped
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *stopped = true;
        }
        self.signal.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sampling into a handle's store is exercised end-to-end in
    /// `tests/live_service.rs`; here we only check the thread lifecycle
    /// with a custom snapshot fn.
    #[test]
    fn sampler_ticks_and_stops_promptly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = Arc::clone(&calls);
        let mut sampler = Sampler::start(
            Duration::from_millis(5),
            Arc::new(move || {
                calls_in.fetch_add(1, Ordering::Relaxed);
                Snapshot::default()
            }),
            None,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while calls.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(calls.load(Ordering::Relaxed) >= 3, "sampler ticked");
        let before_stop = std::time::Instant::now();
        sampler.stop();
        assert!(
            before_stop.elapsed() < Duration::from_secs(2),
            "stop joins promptly"
        );
        let after = calls.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(calls.load(Ordering::Relaxed), after, "no ticks after stop");
        sampler.stop(); // idempotent
    }
}
