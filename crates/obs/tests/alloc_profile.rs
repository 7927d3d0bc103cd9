//! End-to-end allocation attribution: this test binary installs
//! `ProfiledAllocator` as its global allocator, so heap traffic made
//! inside spans really flows through the recording path.
//!
//! The allocation gate (the process handle's `ALLOC` bit) and its
//! counters are process-wide — there is one global allocator — so
//! everything lives in ONE test function with explicit phases instead
//! of several racing ones.

use hpcpower_obs::{alloc, ObsConfig, ProfiledAllocator};

#[global_allocator]
static ALLOC: ProfiledAllocator = ProfiledAllocator;

/// Allocates (and leaks nothing) roughly `n` bytes in chunks.
fn churn(n: usize) -> usize {
    let v: Vec<u8> = vec![0xAB; n];
    v.iter().map(|&b| usize::from(b & 1)).sum()
}

#[test]
fn allocator_attributes_traffic_to_spans() {
    // No scoped handle is installed, so this is the process handle.
    let obs = hpcpower_obs::current();
    // Phase 1: gate off — the wrapper must record nothing.
    assert!(!obs.config().contains(ObsConfig::ALLOC), "gate starts disabled");
    let before = alloc::totals();
    std::hint::black_box(churn(64 * 1024));
    assert_eq!(
        alloc::totals(),
        before,
        "disabled gate must not record allocator traffic"
    );

    // Phase 2: gate on, traffic inside a nested span pair. Spans only
    // switch the attribution slot when registry telemetry is live too.
    obs.set_config(ObsConfig::METRICS | ObsConfig::ALLOC);
    alloc::reset();
    const INNER_BYTES: usize = 1 << 20; // 1 MiB in one shot
    {
        let _outer = hpcpower_obs::span!("alloc.e2e.outer");
        std::hint::black_box(churn(100 * 1024));
        {
            let _inner = hpcpower_obs::span!("alloc.e2e.inner");
            std::hint::black_box(churn(INNER_BYTES));
        }
    }
    let snap = alloc::snapshot();
    obs.set_config(ObsConfig::OFF);

    assert!(snap.enabled);
    assert!(
        snap.alloc_bytes >= (INNER_BYTES + 100 * 1024) as u64,
        "totals cover both spans' traffic: {}",
        snap.alloc_bytes
    );
    assert!(
        snap.peak_bytes >= INNER_BYTES as u64,
        "the 1 MiB vector was live at some point: peak {}",
        snap.peak_bytes
    );
    // The inner path got at least its 1 MiB attributed.
    let inner_slot = snap
        .slots
        .iter()
        .position(|s| s.name == "alloc.e2e.inner")
        .expect("inner span interned a slot");
    assert_eq!(
        snap.slot_path(inner_slot as u32),
        vec!["alloc.e2e.outer".to_string(), "alloc.e2e.inner".to_string()],
        "slot path walks back through the parent"
    );
    assert!(
        snap.slots[inner_slot].alloc_bytes >= INNER_BYTES as u64,
        "inner span's slot saw the 1 MiB allocation: {}",
        snap.slots[inner_slot].alloc_bytes
    );
    let outer_slot = snap
        .slots
        .iter()
        .position(|s| s.name == "alloc.e2e.outer")
        .expect("outer span interned a slot");
    assert!(
        snap.slots[outer_slot].alloc_bytes >= 100 * 1024,
        "outer span's own traffic attributed to the outer slot"
    );

    // Phase 3: the obs.alloc.* metrics ride a registry snapshot while
    // both gates are on.
    obs.set_config(ObsConfig::METRICS | ObsConfig::ALLOC);
    let metrics = hpcpower_obs::snapshot();
    assert!(
        metrics.counter("obs.alloc.allocations").unwrap_or(0) > 0,
        "obs.alloc.allocations injected into the snapshot"
    );
    assert!(metrics.gauge("obs.alloc.peak_bytes").unwrap_or(0.0) >= INNER_BYTES as f64);
    obs.set_config(ObsConfig::METRICS);
    let without = hpcpower_obs::snapshot();
    assert_eq!(
        without.counter("obs.alloc.allocations"),
        None,
        "obs.alloc.* only appear while the gate is on"
    );
    obs.set_config(ObsConfig::OFF);

    // Phase 4: reset zeroes the stats but keeps interned paths valid.
    alloc::reset();
    let cleared = alloc::snapshot();
    assert_eq!(cleared.alloc_count, 0);
    assert_eq!(cleared.slots[inner_slot].alloc_bytes, 0);
    assert_eq!(
        cleared.slot_path(inner_slot as u32).len(),
        2,
        "slot table survives reset so cached slot ids stay valid"
    );
}
