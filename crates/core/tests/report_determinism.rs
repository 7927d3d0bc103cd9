//! The parallel report path must be byte-identical to the serial one.
//!
//! Sections are rendered concurrently but joined in the fixed paper
//! order, and every memoized dataset index is a pure, order-preserving
//! function of the dataset — so the rendered text (and the JSON report)
//! cannot depend on the worker count.

use hpcpower::prediction::PredictionConfig;
use hpcpower::{json_report, report};
use hpcpower_obs::ObsConfig;
use hpcpower_sim::{simulate, with_threads, SimConfig};

fn small_cfg() -> PredictionConfig {
    PredictionConfig {
        n_splits: 2,
        ..Default::default()
    }
}

#[test]
fn text_report_identical_across_thread_counts() {
    let dataset = simulate(SimConfig::emmy_small(7));
    let cfg = small_cfg();
    let serial = with_threads(1, || report::render_full(&dataset, &cfg));
    for threads in [2, 4] {
        let parallel = with_threads(threads, || report::render_full(&dataset, &cfg));
        assert_eq!(serial, parallel, "report text changed with {threads} threads");
    }
}

#[test]
fn pair_report_identical_across_thread_counts() {
    let a = simulate(SimConfig::emmy_small(7));
    let b = simulate(SimConfig::meggie_small(8));
    let cfg = small_cfg();
    let serial = with_threads(1, || report::render_pair(&a, &b, &cfg));
    let parallel = with_threads(4, || report::render_pair(&a, &b, &cfg));
    assert_eq!(serial, parallel);
}

/// Observability must only *observe*: the text and JSON reports are
/// byte-identical with telemetry — including the span event timeline —
/// enabled or disabled, at 1 and 4 threads, while the registry fills
/// with per-section timings and the timeline with span events.
///
/// The baselines render on the (disabled) process handle; the enabled
/// renders run under a handle scoped to this test, which the rayon
/// workers rendering the sections inherit. Sibling tests running
/// concurrently never write into it.
#[test]
fn telemetry_does_not_change_report_bytes() {
    let dataset = simulate(SimConfig::emmy_small(9));
    let cfg = small_cfg();
    let baseline_text = with_threads(1, || report::render_full(&dataset, &cfg));
    let baseline_json =
        serde_json::to_string(&with_threads(1, || json_report::build(&dataset, &cfg)))
            .expect("serializes");
    let obs = hpcpower_obs::scoped(ObsConfig::METRICS | ObsConfig::TIMELINE);
    for threads in [1, 4] {
        let text = with_threads(threads, || report::render_full(&dataset, &cfg));
        assert_eq!(
            baseline_text, text,
            "telemetry changed report text at {threads} threads"
        );
        let json =
            serde_json::to_string(&with_threads(threads, || json_report::build(&dataset, &cfg)))
                .expect("serializes");
        assert_eq!(
            baseline_json, json,
            "telemetry changed JSON report at {threads} threads"
        );
    }
    let snap = obs.snapshot();
    for span in [
        "report.render",
        "report.json",
        "report.section.prediction",
        "report.section.system_level",
        "report.part.prediction",
        "ml.eval.BDT",
        "ml.fit",
    ] {
        let s = snap.span(span).unwrap_or_else(|| panic!("missing span {span}"));
        assert!(s.total_ns > 0, "span {span} must have nonzero time");
    }
    // Sections render on rayon workers at 4 threads; their spans still
    // land in this test's handle, once per enabled render.
    for section in ["system_level", "prediction", "pricing"] {
        let s = snap.span(&format!("report.section.{section}")).unwrap();
        assert_eq!(s.count, 2, "report.section.{section}: one span per enabled render");
    }
    // The dataset index was warmed by the disabled baseline render, so
    // every enabled-phase access is a memoization hit.
    assert!(snap.counter("trace.index.hits").unwrap_or(0) > 0);
    let timeline = obs.timeline_snapshot();
    assert!(
        timeline
            .events
            .iter()
            .any(|e| e.name == "report.render"),
        "timeline must carry the report.render span events"
    );
}

#[test]
fn json_report_identical_across_thread_counts() {
    let dataset = simulate(SimConfig::emmy_small(7));
    let cfg = small_cfg();
    let to_json = |threads: usize| {
        let full = with_threads(threads, || json_report::build(&dataset, &cfg));
        serde_json::to_string(&full).expect("serializes")
    };
    let serial = to_json(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            to_json(threads),
            "JSON report changed with {threads} threads"
        );
    }
}
