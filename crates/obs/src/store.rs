//! Sliding-window time-series store: the sampler's landing zone.
//!
//! The registry ([`crate::Registry`]) holds *current* values; the
//! [`WindowStore`] holds their recent *history* — one bounded ring of
//! `(timestamp, value)` points per metric, fed by the periodic sampler
//! ([`crate::Sampler`]) and read by the alert engine
//! ([`crate::AlertEngine`]) and the `/healthz` endpoint.
//!
//! ## Capacity bounds and drop semantics
//!
//! Every series ring holds at most `capacity` points
//! ([`DEFAULT_WINDOW_CAPACITY`] unless overridden). When a ring is
//! full the *oldest* point is overwritten and the ring's drop counter
//! increments — truncation is never silent:
//! [`WindowSnapshot::dropped`] and `/healthz`'s `window_dropped` field
//! report the total. A handle's per-metric capacity can be overridden
//! with the `HPCPOWER_OBS_WINDOW_CAPACITY` environment variable, read
//! when the store is first built.
//!
//! ## Gating discipline
//!
//! The store is a plain recorder; its handle's
//! [`crate::ObsConfig::SAMPLING`] bit gates it, off by default.
//! [`crate::sample_now`] checks that bit and returns immediately when
//! sampling is off — no locks, no allocation, no clock reads (asserted
//! in `tests/overhead.rs`). The store only ever *reads* registry
//! snapshots; it never participates in pipeline computation, so
//! dataset and report bytes are identical with sampling on or off.
//!
//! ## Timestamps
//!
//! Ingest timestamps come from the process-monotonic clock
//! ([`crate::timeline::now_ns`]). The store additionally clamps each
//! ingest to be `>=` the previous one, so stored series are monotonic
//! by construction even if two samplers race.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::snapshot::Snapshot;

/// Default number of points retained per metric series.
pub const DEFAULT_WINDOW_CAPACITY: usize = 512;

/// One sampled `(timestamp, value)` observation of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Nanoseconds since the process-monotonic epoch.
    pub ts_ns: u64,
    /// The metric's value at that instant (counters are widened to
    /// f64; exact below 2^53, which a per-process counter never
    /// exceeds in practice).
    pub value: f64,
}

#[derive(Debug)]
struct SeriesRing {
    /// Ring storage; grows up to `cap`, then wraps.
    buf: Vec<SamplePoint>,
    /// Next overwrite position once the ring is full.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl SeriesRing {
    fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, p: SamplePoint) {
        if self.buf.len() < self.cap {
            self.buf.push(p);
        } else {
            self.buf[self.head] = p;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Points in ingest order, oldest first.
    fn ordered(&self) -> Vec<SamplePoint> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<String, SeriesRing>,
    /// Completed ingest passes (one per sampler tick).
    samples: u64,
    /// Monotonic clamp for ingest timestamps.
    last_ts_ns: u64,
}

/// A frozen copy of the window store's contents.
#[derive(Debug, Clone, Default)]
pub struct WindowSnapshot {
    /// `(metric name, points oldest-first)`, name-sorted.
    pub series: Vec<(String, Vec<SamplePoint>)>,
    /// Completed ingest passes.
    pub samples: u64,
    /// Points lost to ring wrap-around, summed over all series.
    pub dropped: u64,
}

impl WindowSnapshot {
    /// Points of one metric's series, oldest first, if present.
    pub fn values(&self, name: &str) -> Option<&[SamplePoint]> {
        self.series
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.series[i].1.as_slice())
    }
}

/// A bounded sliding-window store of per-metric sample rings.
#[derive(Debug)]
pub struct WindowStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
}

fn lock(m: &Mutex<StoreInner>) -> MutexGuard<'_, StoreInner> {
    // Same policy as the registry: telemetry must never take the
    // process down on a poisoned lock.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl WindowStore {
    /// Creates a store retaining at most `capacity` points per metric
    /// (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Ingests one registry snapshot at `ts_ns`: every counter (as
    /// f64), every gauge, and each histogram's `.count`/`.p99` derived
    /// series gain one point.
    pub fn ingest(&self, snap: &Snapshot, ts_ns: u64) {
        let mut inner = lock(&self.inner);
        let ts_ns = ts_ns.max(inner.last_ts_ns);
        inner.last_ts_ns = ts_ns;
        let cap = self.capacity;
        {
            let mut push = |name: &str, value: f64| {
                inner
                    .series
                    .entry(name.to_string())
                    .or_insert_with(|| SeriesRing::new(cap))
                    .push(SamplePoint { ts_ns, value });
            };
            for (name, v) in &snap.counters {
                push(name, *v as f64);
            }
            for (name, v) in &snap.gauges {
                push(name, *v);
            }
            for (name, h) in &snap.histograms {
                push(&format!("{name}.count"), h.count as f64);
                push(&format!("{name}.p99"), h.p99);
            }
        }
        inner.samples += 1;
    }

    /// Completed ingest passes since the last reset.
    pub fn samples(&self) -> u64 {
        lock(&self.inner).samples
    }

    /// Points lost to ring wrap-around, summed over all series.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).series.values().map(|r| r.dropped).sum()
    }

    /// One metric's points, oldest first (empty if never sampled).
    pub fn values(&self, name: &str) -> Vec<SamplePoint> {
        lock(&self.inner)
            .series
            .get(name)
            .map(|r| r.ordered())
            .unwrap_or_default()
    }

    /// Copies out every series, name-sorted, points oldest-first.
    pub fn snapshot(&self) -> WindowSnapshot {
        let inner = lock(&self.inner);
        WindowSnapshot {
            series: inner
                .series
                .iter()
                .map(|(k, r)| (k.clone(), r.ordered()))
                .collect(),
            samples: inner.samples,
            dropped: inner.series.values().map(|r| r.dropped).sum(),
        }
    }

    /// Clears every series and the counters.
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.series.clear();
        inner.samples = 0;
        inner.last_ts_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap_with(counter: u64, gauge: f64) -> Snapshot {
        let r = Registry::new();
        r.counter_add("t.counter", counter);
        r.gauge_set("t.gauge", gauge);
        r.histogram_record("t.hist", gauge);
        r.snapshot()
    }

    #[test]
    fn ingest_records_counters_gauges_and_histogram_derivatives() {
        let s = WindowStore::with_capacity(8);
        s.ingest(&snap_with(3, 1.5), 10);
        s.ingest(&snap_with(5, 2.5), 20);
        assert_eq!(s.samples(), 2);
        let c = s.values("t.counter");
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], SamplePoint { ts_ns: 10, value: 3.0 });
        assert_eq!(c[1], SamplePoint { ts_ns: 20, value: 5.0 });
        assert_eq!(s.values("t.gauge")[1].value, 2.5);
        assert_eq!(s.values("t.hist.count")[0].value, 1.0);
        assert_eq!(s.values("t.hist.p99")[1].value, 2.5);
        assert_eq!(s.values("absent"), Vec::new());
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let s = WindowStore::with_capacity(3);
        for i in 0..7u64 {
            s.ingest(&snap_with(i, i as f64), i * 10);
        }
        let pts = s.values("t.gauge");
        assert_eq!(pts.len(), 3, "ring retains capacity");
        assert_eq!(pts[0].value, 4.0, "oldest survivors dropped first");
        assert_eq!(pts[2].value, 6.0);
        assert!(
            pts.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "ordered oldest-first"
        );
        // 4 series x 4 overwrites each.
        assert_eq!(s.dropped(), 16);
        assert_eq!(s.snapshot().dropped, 16);
    }

    #[test]
    fn timestamps_are_clamped_monotonic() {
        let s = WindowStore::with_capacity(4);
        s.ingest(&snap_with(1, 0.0), 100);
        s.ingest(&snap_with(2, 0.0), 50); // clock went "backwards"
        let pts = s.values("t.counter");
        assert_eq!(pts[1].ts_ns, 100, "clamped to the previous timestamp");
    }

    #[test]
    fn reset_clears_series_and_counters() {
        let s = WindowStore::with_capacity(2);
        for i in 0..5u64 {
            s.ingest(&snap_with(i, 0.0), i);
        }
        assert!(s.dropped() > 0);
        s.reset();
        assert_eq!(s.samples(), 0);
        assert_eq!(s.dropped(), 0);
        assert!(s.snapshot().series.is_empty());
    }

    #[test]
    fn window_snapshot_lookup_by_name() {
        let s = WindowStore::with_capacity(4);
        s.ingest(&snap_with(1, 9.0), 5);
        let ws = s.snapshot();
        assert_eq!(ws.samples, 1);
        assert_eq!(ws.values("t.gauge").unwrap()[0].value, 9.0);
        assert!(ws.values("absent").is_none());
    }
}
