//! Report generation: renders every table and figure of the paper as
//! text rows/series, with the paper's published values alongside for
//! comparison. This is what the `hpcpower-bench` report binary and the
//! examples print, and what `EXPERIMENTS.md` records.

use std::fmt::Write as _;

use hpcpower_trace::repair::DataQualityReport;
use hpcpower_trace::TraceDataset;
use rayon::prelude::*;

use crate::prediction::PredictionConfig;
use crate::{
    job_level, powercap, prediction, pricing, spatial, system_level, temporal, user_level,
};

/// The five "major applications" of Fig. 4 (present on both systems).
pub const MAJOR_APPS: [&str; 5] = ["Gromacs", "MD-0", "FASTEST", "STARCCM", "WRF"];

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Renders the system-level section (Figs. 1-2).
pub fn render_system_level(d: &TraceDataset) -> String {
    let a = system_level::analyze(d);
    let mut out = String::new();
    let name = &d.system.name;
    writeln!(out, "## Fig. 1/2 — System & power utilization ({name})").unwrap();
    writeln!(
        out,
        "  system utilization : mean {} (paper: Emmy 87%, Meggie 80%)",
        pct(a.utilization.mean)
    )
    .unwrap();
    writeln!(
        out,
        "  power utilization  : mean {} max {} (paper: Emmy 69%/<=85%, Meggie 51%/<=70%)",
        pct(a.power.mean),
        pct(a.power.max)
    )
    .unwrap();
    writeln!(
        out,
        "  stranded power     : {} of the provisioned budget (paper: >30%)",
        pct(a.stranded_fraction)
    )
    .unwrap();
    out
}

/// Renders Fig. 3 + Table 2 + Fig. 5.
pub fn render_job_level(d: &TraceDataset) -> String {
    let mut out = String::new();
    let name = &d.system.name;
    if let Ok(pdf) = job_level::power_pdf(d, 40) {
        writeln!(out, "## Fig. 3 — Per-node power PDF ({name})").unwrap();
        writeln!(
            out,
            "  mean {:.0} W ({} of TDP), std {:.0} W over {} jobs (paper: Emmy 149+/-39 W = 71%, Meggie 114+/-20 W = 59%)",
            pdf.mean_w,
            pct(pdf.mean_tdp_fraction),
            pdf.std_w,
            pdf.jobs
        )
        .unwrap();
        out.push_str(&crate::ascii::render_pdf(&pdf.density, 5));
    }
    if let Ok(t) = job_level::correlation_table(d) {
        writeln!(out, "## Table 2 — Spearman correlations ({name})").unwrap();
        writeln!(
            out,
            "  runtime vs power : rho {:.2} (p = {:.2e})  (paper: Emmy 0.42, Meggie 0.12)",
            t.length_power.r, t.length_power.p_value
        )
        .unwrap();
        writeln!(
            out,
            "  size    vs power : rho {:.2} (p = {:.2e})  (paper: Emmy 0.21, Meggie 0.42)",
            t.size_power.r, t.size_power.p_value
        )
        .unwrap();
    }
    if let Ok(s) = job_level::split_analysis(d) {
        let tdp = d.system.node_tdp_w;
        writeln!(out, "## Fig. 5 — Split analysis ({name})").unwrap();
        writeln!(
            out,
            "  short {:>5.1}% +/- {:>4.1}%  | long  {:>5.1}% +/- {:>4.1}% of TDP (paper Emmy: 65% -> 75%)",
            100.0 * s.short.mean / tdp,
            100.0 * s.short.std_dev / tdp,
            100.0 * s.long.mean / tdp,
            100.0 * s.long.std_dev / tdp
        )
        .unwrap();
        writeln!(
            out,
            "  small {:>5.1}% +/- {:>4.1}%  | large {:>5.1}% +/- {:>4.1}% of TDP (paper Emmy: 65% -> 76%)",
            100.0 * s.small.mean / tdp,
            100.0 * s.small.std_dev / tdp,
            100.0 * s.large.mean / tdp,
            100.0 * s.large.std_dev / tdp
        )
        .unwrap();
    }
    out
}

/// Renders Fig. 4 for a pair of systems side by side.
pub fn render_app_comparison(a: &TraceDataset, b: &TraceDataset) -> String {
    let rows_a = job_level::app_power_table(a, Some(&MAJOR_APPS));
    let rows_b = job_level::app_power_table(b, Some(&MAJOR_APPS));
    let mut out = String::new();
    writeln!(
        out,
        "## Fig. 4 — Major applications, mean per-node power (W): {} vs {}",
        a.system.name, b.system.name
    )
    .unwrap();
    writeln!(
        out,
        "  (paper: every app lower on Meggie; MD-0/FASTEST ranking flips)"
    )
    .unwrap();
    for row_a in &rows_a {
        if let Some(row_b) = rows_b.iter().find(|r| r.app == row_a.app) {
            writeln!(
                out,
                "  {:<10} {:>6.1} W ({} jobs)   {:>6.1} W ({} jobs)",
                row_a.app, row_a.power_w.mean, row_a.power_w.n, row_b.power_w.mean, row_b.power_w.n
            )
            .unwrap();
        }
    }
    out
}

/// Renders Figs. 6-7 (temporal).
pub fn render_temporal(d: &TraceDataset) -> String {
    let mut out = String::new();
    if let Ok(t) = temporal::analyze(d) {
        writeln!(out, "## Fig. 7 — Temporal behaviour ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  peak overshoot      : mean {} p80 {} (paper: mean ~10-12%, 80% of jobs < 12%)",
            pct(t.overshoot.stats.mean),
            pct(t.overshoot.stats.p80)
        )
        .unwrap();
        writeln!(
            out,
            "  time >10% above mean: mean {} | {} of jobs ~never above (paper: mean ~10%, >70% never)",
            pct(t.time_above_10pct.stats.mean),
            pct(t.frac_jobs_never_above)
        )
        .unwrap();
        writeln!(
            out,
            "  temporal CV         : mean {} (paper: ~11%)",
            pct(t.mean_temporal_cv)
        )
        .unwrap();
        writeln!(out, "  overshoot CDF:").unwrap();
        out.push_str(&crate::ascii::render_cdf(&t.overshoot.series, 56, 5));
        let rows = temporal::by_app(d, 20);
        if !rows.is_empty() {
            writeln!(out, "  per application (mean overshoot / time-above / CV):").unwrap();
            for r in rows {
                writeln!(
                    out,
                    "    {:<11} {:>6} {:>6} {:>6}  ({} jobs)",
                    r.app,
                    pct(r.mean_overshoot),
                    pct(r.mean_time_above),
                    pct(r.mean_cv),
                    r.jobs
                )
                .unwrap();
            }
        }
    }
    out
}

/// Renders Figs. 8-10 (spatial).
pub fn render_spatial(d: &TraceDataset) -> String {
    let mut out = String::new();
    if let Ok(s) = spatial::analyze(d) {
        writeln!(out, "## Fig. 9/10 — Spatial behaviour ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  avg spatial spread  : mean {:.1} W, max {:.1} W (paper: mean 20 W, tail ~110 W)",
            s.spread_w.stats.mean, s.spread_w.stats.max
        )
        .unwrap();
        writeln!(
            out,
            "  spread / node power : mean {} (paper: ~15%, tail >40%)",
            pct(s.spread_fraction.stats.mean)
        )
        .unwrap();
        writeln!(
            out,
            "  time above avg sprd : mean {} (paper: ~30%)",
            pct(s.time_above_avg_spread.stats.mean)
        )
        .unwrap();
        writeln!(
            out,
            "  energy imbalance    : {} of jobs > 15% (paper: >20% of jobs); corr with size rho {:.2}",
            pct(s.frac_imbalance_above_15pct),
            s.imbalance_size_correlation.r
        )
        .unwrap();
        let rows = spatial::by_app(d, 20);
        if !rows.is_empty() {
            writeln!(out, "  per application (mean spread W / spread % / imbalance):").unwrap();
            for r in rows {
                writeln!(
                    out,
                    "    {:<11} {:>6.1} {:>6} {:>6}  ({} jobs)",
                    r.app,
                    r.mean_spread_w,
                    pct(r.mean_spread_fraction),
                    pct(r.mean_energy_imbalance),
                    r.jobs
                )
                .unwrap();
            }
        }
    }
    out
}

/// Renders Figs. 11-13 (user level).
pub fn render_user_level(d: &TraceDataset) -> String {
    let mut out = String::new();
    let name = &d.system.name;
    if let Ok(c) = user_level::concentration(d) {
        writeln!(out, "## Fig. 11 — User concentration ({name})").unwrap();
        writeln!(
            out,
            "  top 20% of users: {} of node-hours, {} of energy, overlap {} (paper: ~85%, ~85%, ~90%)",
            pct(c.top20_node_hours_share),
            pct(c.top20_energy_share),
            pct(c.top20_overlap)
        )
        .unwrap();
    }
    if let Ok(v) = user_level::user_variability(d, 3) {
        writeln!(out, "## Fig. 12 — Per-user power variability ({name})").unwrap();
        writeln!(
            out,
            "  per-user power CV: mean {} over {} users (paper: Emmy 50%, Meggie 100%)",
            pct(v.power_cv.stats.mean),
            v.users
        )
        .unwrap();
        writeln!(
            out,
            "  per-user nodes CV: mean {} (paper: 40%/55%); runtime CV: mean {} (paper: 95%/170%)",
            pct(v.mean_nodes_cv),
            pct(v.mean_runtime_cv)
        )
        .unwrap();
    }
    for (by, label, paper) in [
        (
            user_level::ClusterBy::Nodes,
            "clustered by (user, nodes)",
            "paper Emmy: 61.7% of clusters < 10%",
        ),
        (
            user_level::ClusterBy::Walltime,
            "clustered by (user, walltime)",
            "paper: most clusters < 10%",
        ),
    ] {
        if let Ok(t) = user_level::cluster_tightness(d, by, 2) {
            writeln!(out, "## Fig. 13 — {label} ({name})").unwrap();
            write!(out, "  CV buckets <10/20/30/40/>40%: ").unwrap();
            for share in &t.bucket_shares {
                write!(out, "{} ", pct(*share)).unwrap();
            }
            writeln!(out, " over {} clusters ({paper})", t.clusters).unwrap();
        }
    }
    out
}

/// Renders Figs. 14-15 (prediction).
pub fn render_prediction(d: &TraceDataset, cfg: &PredictionConfig) -> String {
    let mut out = String::new();
    if let Ok(p) = prediction::analyze(d, cfg) {
        writeln!(out, "## Fig. 14 — Prediction error ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  (paper: BDT best — 90% of predictions <10% error, 75% <5%; FLDA poor on Emmy)"
        )
        .unwrap();
        for m in &p.models {
            writeln!(
                out,
                "  {:<5} MAPE {:>6}   <5% err: {:>6}   <10% err: {:>6}",
                m.model,
                pct(m.mape),
                pct(m.frac_below_5pct),
                pct(m.frac_below_10pct)
            )
            .unwrap();
        }
        writeln!(out, "## Fig. 15 — Per-user BDT error ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  users with mean error <5%: {} (paper: ~90%)",
            pct(p.bdt_user_frac_below_5pct)
        )
        .unwrap();
    }
    out
}

/// Renders the power-cap what-if extension.
pub fn render_powercap(d: &TraceDataset, cfg: &PredictionConfig) -> String {
    let mut out = String::new();
    if let Ok(a) = powercap::analyze(d, &powercap::default_margins(), cfg) {
        writeln!(out, "## Ext. — Static power-cap what-if ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  margin | violating jobs | provisioned saving vs TDP"
        )
        .unwrap();
        for o in &a.outcomes {
            writeln!(
                out,
                "  {:>5}  | {:>13}  | {:>6}",
                pct(o.margin),
                pct(o.violation_rate),
                pct(o.provisioned_saving)
            )
            .unwrap();
        }
        writeln!(
            out,
            "  head-room at +15% margin: ~{} extra nodes under the same power budget",
            a.extra_nodes_at_15pct
        )
        .unwrap();
    }
    out
}

/// Renders the pricing cross-subsidy extension.
pub fn render_pricing(d: &TraceDataset) -> String {
    let mut out = String::new();
    if let Ok(p) = pricing::analyze(d) {
        writeln!(out, "## Ext. — Node-hour pricing cross-subsidy ({})", d.system.name).unwrap();
        writeln!(
            out,
            "  energy-per-node-hour over the trace: {:.0} Wh (the flat billing rate)",
            p.mean_power_w
        )
        .unwrap();
        writeln!(
            out,
            "  per-job energy-share / node-hour-share (1.0 = fair, >1 = under-charged):"
        )
        .unwrap();
        for (label, g) in [
            ("short", p.short),
            ("long ", p.long),
            ("small", p.small),
            ("large", p.large),
        ] {
            writeln!(
                out,
                "    {label} jobs: mean {:.2} +/- {:.2} (group aggregate {:.2})",
                g.ratio.mean, g.ratio.std_dev, g.aggregate_ratio
            )
            .unwrap();
        }
        writeln!(
            out,
            "  (paper: long/large jobs have higher energy cost per node-hour, so"
        )
        .unwrap();
        writeln!(out, "   node-hour pricing under-charges them)").unwrap();
    }
    out
}

/// Renders the data-quality section produced by the trace repair layer.
///
/// Deterministic: the section is a pure function of the
/// [`DataQualityReport`] — two runs over the same dirty trace render
/// identical bytes.
pub fn render_data_quality(q: &DataQualityReport) -> String {
    let mut out = String::new();
    writeln!(out, "## Data quality — ingestion & repair summary").unwrap();
    writeln!(
        out,
        "  repair policy       : {} (paper drops jobs with incomplete power records)",
        q.policy
    )
    .unwrap();
    writeln!(
        out,
        "  jobs                : {} kept of {} ({} dropped)",
        q.jobs_total - q.jobs_dropped,
        q.jobs_total,
        q.jobs_dropped
    )
    .unwrap();
    writeln!(
        out,
        "  quarantined rows    : {} (malformed input held back by the lenient parser)",
        q.rows_quarantined
    )
    .unwrap();
    writeln!(
        out,
        "  accounting fixes    : {} | summary clips: {} | summary imputations: {}",
        q.records_repaired, q.summaries_clipped, q.summaries_imputed
    )
    .unwrap();
    writeln!(
        out,
        "  system series       : {} out-of-order, {} duplicates, {} clipped, {} imputed",
        q.system_out_of_order, q.system_duplicates, q.system_clipped, q.system_imputed
    )
    .unwrap();
    writeln!(
        out,
        "  series coverage     : {:.1}% of minutes ({} gap minutes, {} filled)",
        q.coverage_pct, q.system_gap_minutes, q.system_gaps_imputed
    )
    .unwrap();
    writeln!(
        out,
        "  instrumented series : {} kept of {} ({} truncated, {} samples imputed, {} clipped)",
        q.series_total - q.series_dropped.min(q.series_total),
        q.series_total,
        q.series_truncated,
        q.series_samples_imputed,
        q.series_samples_clipped
    )
    .unwrap();
    writeln!(
        out,
        "  validation          : {} violation(s) before repair, {} after",
        q.violations_before, q.violations_after
    )
    .unwrap();
    out
}

/// Full single-system report, every section in paper order.
///
/// The sections are independent analyses, so they render in parallel on
/// the ambient rayon pool; the join below is in fixed paper order, so
/// the output bytes are identical to a serial render. Shared derived
/// views (power vectors, groupings, medians) come from the dataset's
/// memoized [`hpcpower_trace::DatasetIndex`], whose `OnceLock` caches
/// are computed exactly once no matter which section asks first.
pub fn render_full(d: &TraceDataset, cfg: &PredictionConfig) -> String {
    render_full_with(d, cfg, None)
}

/// [`render_full`] plus an optional data-quality section describing how
/// the trace was repaired before analysis.
///
/// With `quality: None` the output is byte-identical to [`render_full`],
/// so enabling the repair layer never perturbs clean-path reports.
pub fn render_full_with(
    d: &TraceDataset,
    cfg: &PredictionConfig,
    quality: Option<&DataQualityReport>,
) -> String {
    let _span = hpcpower_obs::span!("report.render");
    let mut out = String::new();
    writeln!(
        out,
        "# {} — {} jobs over {} days, {} nodes\n",
        d.system.name,
        d.len(),
        d.duration_min() / 1440,
        d.system.nodes
    )
    .unwrap();
    if let Some(q) = quality {
        out.push_str(&render_data_quality(q));
    }
    // Each section times itself under a `report.section.*` span; the
    // spans run on whichever rayon worker picks the section up and fold
    // into the caller's obs handle, never into the rendered bytes.
    type Section<'a> = Box<dyn FnOnce() -> String + Send + 'a>;
    let sections: Vec<Section<'_>> = vec![
        Box::new(|| hpcpower_obs::time("report.section.system_level", || render_system_level(d))),
        Box::new(|| hpcpower_obs::time("report.section.job_level", || render_job_level(d))),
        Box::new(|| hpcpower_obs::time("report.section.temporal", || render_temporal(d))),
        Box::new(|| hpcpower_obs::time("report.section.spatial", || render_spatial(d))),
        Box::new(|| hpcpower_obs::time("report.section.user_level", || render_user_level(d))),
        Box::new(|| hpcpower_obs::time("report.section.prediction", || render_prediction(d, cfg))),
        Box::new(|| hpcpower_obs::time("report.section.powercap", || render_powercap(d, cfg))),
        Box::new(|| hpcpower_obs::time("report.section.pricing", || render_pricing(d))),
    ];
    for section in sections.into_par_iter().map(|f| f()).collect::<Vec<String>>() {
        out.push_str(&section);
    }
    out
}

/// Full two-system report including the cross-system Fig. 4 comparison.
///
/// The two per-system reports are independent and render in parallel;
/// concatenation order is fixed, so the output is byte-identical to the
/// serial version.
pub fn render_pair(emmy: &TraceDataset, meggie: &TraceDataset, cfg: &PredictionConfig) -> String {
    let _span = hpcpower_obs::span!("report.pair");
    type Job<'a> = Box<dyn FnOnce() -> String + Send + 'a>;
    let jobs: Vec<Job<'_>> = vec![
        Box::new(|| render_full(emmy, cfg)),
        Box::new(|| render_full(meggie, cfg)),
    ];
    let mut rendered = jobs.into_par_iter().map(|f| f()).collect::<Vec<String>>();
    let mut out = rendered.remove(0);
    out.push('\n');
    out.push_str(&rendered.remove(0));
    out.push('\n');
    out.push_str(&render_app_comparison(emmy, meggie));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_sim::SimConfig;

    #[test]
    fn full_report_renders_all_sections() {
        let d = hpcpower_sim::simulate(SimConfig::emmy_small(3));
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let report = render_full(&d, &cfg);
        for needle in [
            "Fig. 1/2",
            "Fig. 3",
            "Table 2",
            "Fig. 5",
            "Fig. 7",
            "Fig. 9/10",
            "Fig. 11",
            "Fig. 12",
            "Fig. 13",
            "Fig. 14",
            "Fig. 15",
            "power-cap",
        ] {
            assert!(report.contains(needle), "missing section {needle}:\n{report}");
        }
    }

    #[test]
    fn data_quality_section_only_renders_when_requested() {
        let d = hpcpower_sim::simulate(SimConfig::emmy_small(3));
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let clean = render_full(&d, &cfg);
        assert_eq!(
            clean,
            render_full_with(&d, &cfg, None),
            "None must be byte-identical to render_full"
        );
        assert!(!clean.contains("Data quality"));

        let quality = DataQualityReport {
            jobs_total: d.len() as u64,
            jobs_dropped: 2,
            rows_quarantined: 5,
            coverage_pct: 98.5,
            violations_before: 9,
            ..Default::default()
        };
        let dirty = render_full_with(&d, &cfg, Some(&quality));
        assert!(dirty.contains("## Data quality"));
        assert!(dirty.contains("repair policy       : drop-job"));
        assert!(dirty.contains("quarantined rows    : 5"));
        assert!(dirty.contains("9 violation(s) before repair, 0 after"));
    }

    #[test]
    fn pair_report_includes_fig4() {
        let emmy = hpcpower_sim::simulate(SimConfig::emmy_small(5));
        let meggie = hpcpower_sim::simulate(SimConfig::meggie_small(5));
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let report = render_pair(&emmy, &meggie, &cfg);
        assert!(report.contains("Fig. 4"));
        assert!(report.contains("Gromacs"));
    }
}
