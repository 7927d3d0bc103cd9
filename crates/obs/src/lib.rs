//! # hpcpower-obs
//!
//! Observability substrate for the HPC power suite, built from scratch
//! (the workspace is offline, so no `tracing`/`metrics` dependency):
//!
//! - **Spans** — [`span!`] opens an RAII guard that times a region of
//!   code and folds `(count, total, min, max)` plus a log-bucketed
//!   duration histogram per span name into the current handle's
//!   registry on drop. Spans nest (a thread-local stack records the
//!   parent) and aggregate safely across rayon workers: any thread may
//!   open any span at any time.
//! - **Metrics registry** — monotonic [counters](Registry::counter_add),
//!   [gauges](Registry::gauge_set), and log-bucketed quantile
//!   [histograms](Registry::histogram_record) (HDR-style, ~2
//!   significant digits; see [`Histogram`] for the documented
//!   relative-error bound) whose exact moment statistics ride on the
//!   [`hpcpower_stats`] Welford `Summary` accumulator.
//! - **Timeline** — an opt-in bounded, lock-sharded ring buffer of
//!   individual span begin/end events ([`timeline`]), exportable as
//!   Chrome trace-event JSON ([`export::chrome_trace`]) for Perfetto /
//!   `chrome://tracing`.
//! - **Sinks** — a [`Snapshot`] of the registry renders as a
//!   human-readable text table, as JSON-lines (one metric per line), as
//!   a single JSON document for `--metrics-out` files, or as Prometheus
//!   text exposition v0.0.4 ([`export::prometheus`]); the format is
//!   selected at runtime ([`LogFormat`], [`MetricsFormat`]).
//!
//! ## One handle, one gate
//!
//! All recording state lives in an [`Obs`] handle: a [`Registry`], a
//! [`Timeline`] and a [`WindowStore`] (plain recorders), gated once by
//! an [`ObsConfig`] bitset. [`current`] returns the handle installed on
//! this thread ([`scoped`], [`ObsHandle::install`]), or else the
//! process handle, which the CLI and the bench configure once. Rayon
//! workers, the sampler and the HTTP server run under the handle that
//! was current where they were started, so a test's scoped handle sees
//! exactly its own work. Allocation attribution is the exception: there
//! is one global allocator, so it reads the process handle's
//! [`ObsConfig::ALLOC`] bit.
//!
//! ## Overhead contract
//!
//! Telemetry is **off by default** and off-cheap: a disabled entry point
//! costs one thread-local read and one relaxed atomic load — no locks,
//! no allocation, no clock reads (`tests/overhead.rs`). Enabled, it only
//! *observes*, so report and dataset bytes are identical with it on or
//! off at any thread count (`crates/sim/tests/determinism.rs`,
//! `crates/core/tests/report_determinism.rs`).
//!
//! ## Usage
//!
//! ```
//! use hpcpower_obs::ObsConfig;
//!
//! // A fresh handle for this thread (and any rayon workers it starts),
//! // uninstalled when `obs` drops.
//! let obs = hpcpower_obs::scoped(ObsConfig::METRICS);
//! {
//!     let _span = hpcpower_obs::span!("demo.stage");
//!     hpcpower_obs::counter_add("demo.items", 3);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert!(snap.span("demo.stage").is_some());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alerts;
pub mod alloc;
pub mod export;
pub mod profile;
pub mod registry;
pub mod retry;
pub mod sampler;
pub mod serve;
pub mod sink;
pub mod snapshot;
pub mod span;
pub mod store;
pub mod timeline;
pub mod watchdog;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

pub use alerts::{AlertEngine, AlertKind, AlertOp, AlertRule, AlertState};
pub use alloc::{AllocSnapshot, ProfiledAllocator, SlotSnapshot};
pub use profile::{
    render_profile, FlatEntry, FlatProfile, ProfileFormat, ProfileGraph, ProfileNode,
};
pub use registry::{Histogram, Registry};
pub use retry::{http_get_retry, retry_io, RetryPolicy};
pub use sampler::Sampler;
pub use serve::{MetricsServer, ServeOptions, ServeState};
pub use sink::{render, render_metrics, LogFormat, MetricsFormat};
pub use snapshot::{BuildInfo, HistogramSnapshot, Snapshot, SpanStats};
pub use span::SpanGuard;
pub use store::{SamplePoint, WindowSnapshot, WindowStore};
pub use timeline::{Timeline, TimelineEvent, TimelineSnapshot};

/// Which recorders of an [`Obs`] handle are on: a bitset of
/// [`METRICS`](Self::METRICS), [`TIMELINE`](Self::TIMELINE),
/// [`SAMPLING`](Self::SAMPLING) and [`ALLOC`](Self::ALLOC), combined
/// with `|`. The default is [`OFF`](Self::OFF).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig(u8);

impl ObsConfig {
    /// Nothing records.
    pub const OFF: Self = Self(0);
    /// Counters, gauges, histograms and span aggregates record.
    pub const METRICS: Self = Self(1);
    /// Span begin/end events record into the timeline. Only live spans
    /// emit events, so this needs [`METRICS`](Self::METRICS) too.
    pub const TIMELINE: Self = Self(1 << 1);
    /// [`sample_now`] and the [`Sampler`] feed the window store.
    pub const SAMPLING: Self = Self(1 << 2);
    /// [`ProfiledAllocator`] attributes heap traffic to spans. Honoured
    /// on the process handle only: there is one global allocator.
    pub const ALLOC: Self = Self(1 << 3);

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for ObsConfig {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

/// One scope of telemetry: a registry, a span timeline, a window store
/// and the [`ObsConfig`] that gates them. Reach the handle in effect
/// through [`current`].
#[derive(Debug)]
pub struct Obs {
    config: AtomicU8,
    registry: Registry,
    // Built on first use, so a handle that never records events or
    // samples never allocates their rings.
    timeline: OnceLock<Timeline>,
    store: OnceLock<WindowStore>,
}

/// The process handle: in effect on every thread without a scoped one.
/// A plain static, so the allocator can read its `ALLOC` bit without
/// lazy initialization.
static PROCESS: Obs = Obs::new();

/// A ring capacity from the environment, or `default`.
fn env_capacity(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(default)
}

impl Obs {
    /// Creates a handle with every recorder off.
    const fn new() -> Self {
        Self {
            config: AtomicU8::new(0),
            registry: Registry::new(),
            timeline: OnceLock::new(),
            store: OnceLock::new(),
        }
    }

    /// Which recorders are on.
    #[inline]
    pub fn config(&self) -> ObsConfig {
        ObsConfig(self.config.load(Ordering::Relaxed))
    }

    /// Turns recorders on and off; data recorded so far is kept until
    /// [`reset`](Self::reset).
    pub fn set_config(&self, config: ObsConfig) {
        self.config.store(config.0, Ordering::Relaxed);
    }

    #[inline]
    fn on(&self, bits: ObsConfig) -> bool {
        self.config().contains(bits)
    }

    /// The registry, when [`ObsConfig::METRICS`] is on.
    #[inline]
    pub(crate) fn metrics(&self) -> Option<&Registry> {
        self.on(ObsConfig::METRICS).then_some(&self.registry)
    }

    /// The timeline, when [`ObsConfig::TIMELINE`] is on. Sized by
    /// `HPCPOWER_OBS_TIMELINE_CAPACITY` (read when the ring is built) or
    /// [`timeline::DEFAULT_CAPACITY`].
    pub(crate) fn events(&self) -> Option<&Timeline> {
        self.on(ObsConfig::TIMELINE).then(|| {
            self.timeline.get_or_init(|| {
                let var = "HPCPOWER_OBS_TIMELINE_CAPACITY";
                Timeline::with_capacity(env_capacity(var, timeline::DEFAULT_CAPACITY))
            })
        })
    }

    /// The window store, sized by `HPCPOWER_OBS_WINDOW_CAPACITY` (read
    /// when the store is built) or [`store::DEFAULT_WINDOW_CAPACITY`].
    pub(crate) fn store(&self) -> &WindowStore {
        self.store.get_or_init(|| {
            let var = "HPCPOWER_OBS_WINDOW_CAPACITY";
            WindowStore::with_capacity(env_capacity(var, store::DEFAULT_WINDOW_CAPACITY))
        })
    }

    /// A deterministic (name-sorted) snapshot of the registry. With
    /// [`ObsConfig::METRICS`] on it also carries the
    /// `obs.process.uptime_seconds` gauge and, while the process
    /// handle's [`ObsConfig::ALLOC`] bit is on, the `obs.alloc.*` totals;
    /// plus the build identity from [`set_build_info`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        if self.on(ObsConfig::METRICS) {
            snap.set_gauge("obs.process.uptime_seconds", uptime_seconds());
            if alloc::recording() {
                let a = alloc::snapshot();
                snap.set_counter("obs.alloc.allocations", a.alloc_count);
                snap.set_counter("obs.alloc.allocated_bytes", a.alloc_bytes);
                snap.set_counter("obs.alloc.deallocations", a.dealloc_count);
                snap.set_counter("obs.alloc.freed_bytes", a.dealloc_bytes);
                snap.set_gauge("obs.alloc.current_bytes", a.current_bytes as f64);
                snap.set_gauge("obs.alloc.peak_bytes", a.peak_bytes as f64);
            }
        }
        snap.build_info = build_info().cloned();
        snap
    }

    /// A sorted copy of the timeline's events plus the ring-wrap drop
    /// count.
    pub fn timeline_snapshot(&self) -> TimelineSnapshot {
        self.timeline.get().map(Timeline::snapshot).unwrap_or_default()
    }

    /// A frozen copy of the window store's series.
    pub fn window_snapshot(&self) -> WindowSnapshot {
        self.store.get().map(WindowStore::snapshot).unwrap_or_default()
    }

    /// Ingests `snap` into the window store at the current monotonic
    /// timestamp, when [`ObsConfig::SAMPLING`] is on.
    fn ingest_sample(&self, snap: &Snapshot) {
        if self.on(ObsConfig::SAMPLING) {
            self.store().ingest(snap, timeline::now_ns());
        }
    }

    /// Advances `engine` one step over the window store, publishing
    /// its `obs.alerts.*` meta-metrics when [`ObsConfig::METRICS`] is
    /// on.
    pub fn evaluate_alerts(&self, engine: &mut AlertEngine) {
        engine.evaluate(self.store(), self.metrics());
    }

    /// Clears the registry, the timeline and the window store (the
    /// config is left as is). On the process handle this also zeroes
    /// the allocation-profiling stats.
    pub fn reset(&self) {
        self.registry.reset();
        if let Some(t) = self.timeline.get() {
            t.reset();
        }
        if let Some(s) = self.store.get() {
            s.reset();
        }
        if std::ptr::eq(self, &PROCESS) {
            alloc::reset();
        }
    }
}

thread_local! {
    /// The handle installed on this thread, if any.
    static SCOPED: RefCell<Option<Arc<Obs>>> = const { RefCell::new(None) };
}

/// A shared reference to an [`Obs`]: a scoped handle, or the process
/// handle (the [`Default`]). Cheap to clone and `Send`, so it can be
/// carried into threads and installed there.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle(Option<Arc<Obs>>);

impl Deref for ObsHandle {
    type Target = Obs;
    fn deref(&self) -> &Obs {
        self.0.as_deref().unwrap_or(&PROCESS)
    }
}

impl ObsHandle {
    /// Makes this handle current on the calling thread until the
    /// returned guard drops.
    pub fn install(&self) -> ObsScope {
        let prev = SCOPED.with(|s| s.replace(self.0.clone()));
        ObsScope {
            handle: self.clone(),
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Guard of an installed handle: derefs to it, and restores the
/// previously current handle on drop.
#[derive(Debug)]
pub struct ObsScope {
    handle: ObsHandle,
    prev: Option<Arc<Obs>>,
    // The guard restores this thread's slot, so it must drop here.
    _not_send: PhantomData<*const ()>,
}

impl Deref for ObsScope {
    type Target = Obs;
    fn deref(&self) -> &Obs {
        &self.handle
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = SCOPED.try_with(|s| *s.borrow_mut() = prev);
    }
}

/// The handle in effect on this thread: the installed scoped handle if
/// there is one, otherwise the process handle.
#[inline]
pub fn current() -> ObsHandle {
    // During thread teardown the slot may be gone; fall back to the
    // process handle then.
    ObsHandle(SCOPED.try_with(|s| s.borrow().clone()).ok().flatten())
}

/// Installs a fresh handle with `config` on this thread until the
/// returned guard drops — the way a test gets telemetry of its own.
pub fn scoped(config: ObsConfig) -> ObsScope {
    let obs = Obs::new();
    obs.set_config(config);
    ObsHandle(Some(Arc::new(obs))).install()
}

/// Whether the current handle collects metrics (default: off).
#[inline]
pub fn enabled() -> bool {
    current().on(ObsConfig::METRICS)
}

/// Turns metrics collection on in the current handle, keeping its
/// other bits. Also pins the process epoch (see [`uptime_seconds`]) if
/// this is the first telemetry clock read.
pub fn enable() {
    timeline::now_ns();
    current()
        .config
        .fetch_or(ObsConfig::METRICS.0, Ordering::Relaxed);
}

/// Ingests one snapshot of the current handle into its window store
/// now (what a sampler tick does). No-op unless
/// [`ObsConfig::SAMPLING`] is on.
pub fn sample_now() {
    let obs = current();
    if obs.on(ObsConfig::SAMPLING) {
        obs.ingest_sample(&obs.snapshot());
    }
}

/// Records the identity baked into the running binary (the
/// `hpcpower_build_info` info-gauge, the JSON document's `build_info`,
/// Chrome trace metadata). First caller wins.
pub fn set_build_info(git_sha: &str, version: &str) {
    let _ = BUILD_INFO.set(BuildInfo {
        git_sha: git_sha.to_string(),
        version: version.to_string(),
    });
}

/// The build identity recorded by [`set_build_info`], if any.
pub fn build_info() -> Option<&'static BuildInfo> {
    BUILD_INFO.get()
}

static BUILD_INFO: OnceLock<BuildInfo> = OnceLock::new();

/// Seconds since the process epoch (the first telemetry clock read or
/// [`enable`], whichever came first) — the
/// `obs.process.uptime_seconds` gauge.
pub(crate) fn uptime_seconds() -> f64 {
    timeline::now_ns() as f64 / 1e9
}

/// Takes a deterministic snapshot of the current handle (see
/// [`Obs::snapshot`]).
pub fn snapshot() -> Snapshot {
    current().snapshot()
}

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if let Some(r) = current().metrics() {
        r.counter_add(name, delta);
    }
}

/// Sets the gauge `name` to `value` (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if let Some(r) = current().metrics() {
        r.gauge_set(name, value);
    }
}

/// Records `value` into the log-bucketed histogram `name` (no-op when
/// disabled).
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if let Some(r) = current().metrics() {
        r.histogram_record(name, value);
    }
}

/// Records many values into the histogram `name` under one lock
/// (no-op when disabled; the iterator is not consumed in that case).
#[inline]
pub fn histogram_record_many(name: &str, values: impl IntoIterator<Item = f64>) {
    if let Some(r) = current().metrics() {
        r.histogram_record_many(name, values);
    }
}

/// Runs `f` inside a span named `name` and returns its result.
///
/// Equivalent to opening [`span!`] for the duration of the closure;
/// when telemetry is disabled the only cost is the inert guard.
#[inline]
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = SpanGuard::enter(name);
    f()
}

/// Opens an RAII span guard: `let _span = hpcpower_obs::span!("stage");`.
///
/// The region from the macro to the end of the guard's scope is timed
/// and aggregated under the given name. Spans opened while another span
/// is active *on the same thread* record it as their parent.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_handle_records_metrics_and_nested_spans() {
        let obs = scoped(ObsConfig::METRICS);
        counter_add("test.scoped.counter", 2);
        counter_add("test.scoped.counter", 3);
        gauge_set("test.scoped.gauge", 1.5);
        histogram_record("test.scoped.hist", 0.25);
        {
            let _outer = span!("test.scoped.outer");
            let _inner = span!("test.scoped.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("test.scoped.counter"), Some(5));
        assert_eq!(snap.gauge("test.scoped.gauge"), Some(1.5));
        assert_eq!(snap.histogram("test.scoped.hist").unwrap().p50, 0.25);
        let inner = snap.span("test.scoped.inner").expect("inner span recorded");
        assert!(inner.total_ns > 0);
        assert_eq!(inner.parent.as_deref(), Some("test.scoped.outer"));
        assert!(snap.span("test.scoped.outer").unwrap().total_ns >= inner.total_ns);
        assert!(inner.p99_ns >= inner.p50_ns, "quantiles are ordered");
        assert!(snap.gauge("obs.process.uptime_seconds").is_some());
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = scoped(ObsConfig::OFF);
        counter_add("test.off.counter", 1);
        gauge_set("test.off.gauge", 2.0);
        histogram_record("test.off.hist", 3.0);
        {
            let _s = span!("test.off.span");
        }
        sample_now();
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(snap.histograms.is_empty() && snap.spans.is_empty());
        assert!(obs.window_snapshot().series.is_empty());
        assert!(obs.timeline_snapshot().events.is_empty());
    }

    #[test]
    fn scopes_nest_and_restore_the_previous_handle() {
        let outer = scoped(ObsConfig::METRICS);
        {
            let inner = scoped(ObsConfig::METRICS);
            counter_add("test.nest", 1);
            assert_eq!(inner.snapshot().counter("test.nest"), Some(1));
        }
        counter_add("test.nest", 10);
        assert_eq!(outer.snapshot().counter("test.nest"), Some(10));
        // A handle carried into another thread records there.
        let handle = current();
        std::thread::spawn(move || {
            let _obs = handle.install();
            counter_add("test.nest", 100);
        })
        .join()
        .unwrap();
        assert_eq!(outer.snapshot().counter("test.nest"), Some(110));
    }

    #[test]
    fn config_bits_gate_timeline_and_sampling() {
        let obs = scoped(ObsConfig::METRICS);
        {
            let _s = span!("test.bits.span");
        }
        sample_now();
        assert!(obs.timeline_snapshot().events.is_empty(), "TIMELINE off");
        assert_eq!(obs.window_snapshot().samples, 0, "SAMPLING off");
        obs.set_config(ObsConfig::METRICS | ObsConfig::TIMELINE | ObsConfig::SAMPLING);
        {
            let _s = span!("test.bits.span");
        }
        sample_now();
        assert_eq!(obs.timeline_snapshot().events.len(), 2);
        assert_eq!(obs.window_snapshot().samples, 1);
        obs.reset();
        assert!(obs.snapshot().span("test.bits.span").is_none());
        assert!(obs.timeline_snapshot().events.is_empty());
        assert_eq!(obs.config(), ObsConfig::METRICS | ObsConfig::TIMELINE | ObsConfig::SAMPLING);
    }

    #[test]
    fn time_returns_closure_result() {
        assert_eq!(time("test.time.noop", || 41 + 1), 42);
    }
}
