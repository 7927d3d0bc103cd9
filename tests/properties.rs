//! Property-based tests over cross-crate invariants.

use hpcpower_ml::{DecisionTree, Knn, KnnConfig, Regressor, TreeConfig};
use hpcpower_sim::power_aware::{schedule_power_aware, PowerBudget};
use hpcpower_sim::{schedule, schedule_with_policy, BackfillPolicy, JobRequest};
use hpcpower_stats::{Ecdf, Histogram, Lorenz, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler never double-books a node and never starts a job
    /// before submission, for arbitrary workloads.
    #[test]
    fn scheduler_is_sound(
        raw in prop::collection::vec(
            (0u64..500, 1u32..12, 10u64..200, 5u64..200), 1..120
        ),
        nodes in 4u32..32,
    ) {
        let mut submit = 0;
        let requests: Vec<JobRequest> = raw
            .iter()
            .map(|&(gap, n, walltime, runtime)| {
                submit += gap % 20;
                JobRequest {
                    user: 0,
                    template: 0,
                    app: 0,
                    submit_min: submit,
                    nodes: n,
                    walltime_req_min: walltime.max(runtime),
                    runtime_min: runtime.min(walltime),
                }
            })
            .collect();
        let out = schedule(&requests, nodes);
        // Every request either runs or is rejected (too big).
        prop_assert_eq!(out.jobs.len() + out.rejected.len(), requests.len());
        for &r in &out.rejected {
            prop_assert!(requests[r].nodes > nodes);
        }
        // Sweep events to check node exclusivity.
        let mut events: Vec<(u64, i32, usize)> = Vec::new();
        for (k, j) in out.jobs.iter().enumerate() {
            prop_assert!(j.start_min >= j.request.submit_min);
            prop_assert_eq!(j.node_ids.len(), j.request.nodes as usize);
            events.push((j.start_min, 1, k));
            events.push((j.end_min, -1, k));
        }
        events.sort_by_key(|&(t, kind, _)| (t, kind));
        let mut in_use = std::collections::HashSet::new();
        for (_, kind, k) in events {
            for id in &out.jobs[k].node_ids {
                prop_assert!(*id < nodes);
                if kind == 1 {
                    prop_assert!(in_use.insert(*id), "node {} double-booked", id);
                } else {
                    prop_assert!(in_use.remove(id));
                }
            }
        }
    }

    /// Welford summaries agree with naive computation and merge cleanly.
    #[test]
    fn summary_matches_naive(values in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let s = Summary::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance_population() - var).abs() < 1e-5 * (1.0 + var));
        // Merging any split reproduces the whole.
        let cut = values.len() / 2;
        let mut left = Summary::from_slice(&values[..cut]);
        left.merge(&Summary::from_slice(&values[cut..]));
        prop_assert!((left.mean() - s.mean()).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert_eq!(left.count(), s.count());
    }

    /// ECDFs are monotone, bounded, and hit 1 at the maximum.
    #[test]
    fn ecdf_is_a_cdf(values in prop::collection::vec(-1e3f64..1e3, 1..300)) {
        let e = Ecdf::new(&values).unwrap();
        let mut last = 0.0;
        let lo = e.min() - 1.0;
        let hi = e.max() + 1.0;
        for i in 0..=50 {
            let x = lo + (hi - lo) * i as f64 / 50.0;
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        prop_assert_eq!(e.eval(e.max()), 1.0);
        prop_assert_eq!(e.eval(lo), 0.0);
    }

    /// Histogram density integrates to the in-range mass.
    #[test]
    fn histogram_mass(values in prop::collection::vec(0f64..100.0, 1..300)) {
        let mut h = Histogram::new(0.0, 100.0001, 17).unwrap();
        for &v in &values {
            h.push(v);
        }
        let mass: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {}", mass);
    }

    /// Lorenz top-share is monotone in the fraction, bounded by 1, and
    /// the top share of everything is everything.
    #[test]
    fn lorenz_properties(values in prop::collection::vec(0.01f64..1e3, 1..200)) {
        let l = Lorenz::new(&values).unwrap();
        let mut last = 0.0;
        for i in 0..=20 {
            let share = l.top_share(i as f64 / 20.0);
            prop_assert!(share >= last - 1e-12);
            prop_assert!(share <= 1.0 + 1e-12);
            last = share;
        }
        prop_assert!((l.top_share(1.0) - 1.0).abs() < 1e-9);
        let g = l.gini();
        prop_assert!((0.0..1.0).contains(&g));
    }

    /// Tree and KNN predictions always stay within the training target
    /// range (they are averages of training targets).
    #[test]
    fn models_predict_within_target_hull(
        rows in prop::collection::vec(
            (0u32..6, 1u32..32, 1u64..24, 20f64..200.0), 10..120
        ),
        query in (0u32..10, 1u32..64, 1u64..48),
    ) {
        let mut data = hpcpower_ml::data::Dataset::default();
        for &(u, n, w, t) in &rows {
            data.push(u, n as f64, (w * 60) as f64, t);
        }
        let lo = data.targets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (qu, qn, qw) = query;
        let tree = DecisionTree::fit(&data, TreeConfig::default()).unwrap();
        let p = tree.predict(qu, qn as f64, (qw * 60) as f64);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "tree {} outside [{}, {}]", p, lo, hi);
        let knn = Knn::fit(&data, KnnConfig { k: 3, ..Default::default() }).unwrap();
        let p = knn.predict(qu, qn as f64, (qw * 60) as f64);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "knn {} outside [{}, {}]", p, lo, hi);
    }

    /// `Knn::predict` equals a brute-force weighted KNN bit for bit, in
    /// both distance modes, on datasets where one (user, nodes, walltime)
    /// cell holds far more than `k` rows (every other training index) and
    /// on datasets where no feature pair repeats.
    #[test]
    fn knn_predict_matches_brute_force_bitwise(
        rows in prop::collection::vec((0u32..6, 1u32..9, 1u64..7, 20f64..200.0), 80..200),
        heavy in (0u32..6, 1u32..9, 1u64..7),
        queries in prop::collection::vec((0u32..9, 1u32..17, 1u64..9), 4..8),
    ) {
        let mut heavy_cell = hpcpower_ml::data::Dataset::default();
        let mut distinct = hpcpower_ml::data::Dataset::default();
        for (i, &(u, n, w, t)) in rows.iter().enumerate() {
            if i % 2 == 0 {
                heavy_cell.push(heavy.0, heavy.1 as f64, (heavy.2 * 60) as f64, t);
            } else {
                heavy_cell.push(u, n as f64, (w * 60) as f64, t);
            }
            // A walltime unique to the row: no (nodes, walltime) repeats.
            distinct.push(u, n as f64, (60 * (i + 1)) as f64, t);
        }
        let heavy_query = (heavy.0, heavy.1, heavy.2);
        for data in [&heavy_cell, &distinct] {
            for base in [KnnConfig::default(), KnnConfig::paper()] {
                for k in [1usize, 5, 17] {
                    let cfg = KnnConfig { k, ..base };
                    let knn = Knn::fit(data, cfg).unwrap();
                    for &(qu, qn, qw) in queries.iter().chain([&heavy_query]) {
                        let (qn, qw) = (qn as f64, (qw * 60) as f64);
                        let fast = knn.predict(qu, qn, qw);
                        let brute = brute_force_knn(data, cfg, qu, qn, qw);
                        prop_assert_eq!(
                            fast.to_bits(), brute.to_bits(),
                            "{:?} query ({}, {}, {}): {} vs {}", cfg, qu, qn, qw, fast, brute
                        );
                    }
                }
            }
        }
    }

    /// The power-aware scheduler never exceeds its budget and never
    /// double-books, for arbitrary workloads and estimates.
    #[test]
    fn power_aware_scheduler_is_sound(
        raw in prop::collection::vec(
            (0u64..300, 1u32..8, 20u64..150, 10u64..150, 50u32..200), 1..80
        ),
        nodes in 8u32..24,
        budget_scale in 0.3f64..1.2,
    ) {
        let mut submit = 0;
        let mut requests = Vec::new();
        let mut estimates = Vec::new();
        for &(gap, n, walltime, runtime, est) in &raw {
            submit += gap % 15;
            requests.push(JobRequest {
                user: 0,
                template: 0,
                app: 0,
                submit_min: submit,
                nodes: n,
                walltime_req_min: walltime.max(runtime),
                runtime_min: runtime.min(walltime),
            });
            estimates.push(est as f64);
        }
        let budget = PowerBudget {
            budget_w: budget_scale * nodes as f64 * 200.0,
            margin: 0.1,
        };
        let out = schedule_power_aware(&requests, nodes, &estimates, budget);
        prop_assert_eq!(out.jobs.len() + out.rejected.len(), requests.len());
        // Sweep both resources.
        let mut events: Vec<(u64, i32, usize)> = Vec::new();
        for (k, j) in out.jobs.iter().enumerate() {
            prop_assert!(j.start_min >= j.request.submit_min);
            events.push((j.start_min, 1, k));
            events.push((j.end_min, -1, k));
        }
        events.sort_by_key(|&(t, kind, _)| (t, kind));
        let mut in_use = std::collections::HashSet::new();
        let mut power = 0.0f64;
        for (_, kind, k) in events {
            let j = &out.jobs[k];
            let p = j.request.nodes as f64 * estimates[j.request_idx] * 1.1;
            power += kind as f64 * p;
            prop_assert!(power <= budget.budget_w + 1e-6, "budget exceeded: {}", power);
            for id in &j.node_ids {
                if kind == 1 {
                    prop_assert!(in_use.insert(*id), "node {} double-booked", id);
                } else {
                    prop_assert!(in_use.remove(id));
                }
            }
        }
    }

    /// Conservative backfill never beats EASY on any job's start time
    /// ordering guarantee: the queue head's start is identical, and
    /// conservative never starts a job that EASY would refuse.
    #[test]
    fn conservative_is_never_more_aggressive(
        raw in prop::collection::vec(
            (0u64..200, 1u32..10, 20u64..200, 10u64..200), 1..60
        ),
        nodes in 8u32..20,
    ) {
        let mut submit = 0;
        let requests: Vec<JobRequest> = raw
            .iter()
            .map(|&(gap, n, walltime, runtime)| {
                submit += gap % 10;
                JobRequest {
                    user: 0,
                    template: 0,
                    app: 0,
                    submit_min: submit,
                    nodes: n,
                    walltime_req_min: walltime.max(runtime),
                    runtime_min: runtime.min(walltime),
                }
            })
            .collect();
        let easy = schedule_with_policy(&requests, nodes, BackfillPolicy::Easy);
        let cons = schedule_with_policy(&requests, nodes, BackfillPolicy::Conservative);
        prop_assert_eq!(easy.rejected.len(), cons.rejected.len());
        // Total delivered node-minutes: EASY >= Conservative (it admits a
        // superset of backfill moves at every decision point, which under
        // identical arrivals cannot reduce completed work).
        let delivered = |o: &hpcpower_sim::ScheduleOutcome| -> u64 {
            o.jobs.iter().map(|j| j.request.nodes as u64 * (j.end_min - j.start_min)).sum()
        };
        prop_assert_eq!(delivered(&easy), delivered(&cons)); // same jobs run
    }

    /// Power samples stay inside [idle, TDP] for arbitrary job params.
    #[test]
    fn power_samples_physical(
        base in 10f64..400.0,
        imb in 0f64..0.2,
        spike_frac in 0f64..0.5,
        spike_amp in 0f64..0.4,
        dip_frac in 0f64..0.5,
        dip_amp in 0f64..0.5,
        key in any::<u64>(),
    ) {
        use hpcpower_sim::power::{JobPowerParams, PowerModel, PowerModelConfig};
        let cfg = PowerModelConfig::default();
        let model = PowerModel::new(cfg, 1);
        let params = JobPowerParams {
            key,
            base_w: base,
            imbalance_sigma: imb,
            spike_frac,
            spike_amp,
            dip_frac,
            dip_amp,
        };
        for rank in 0..4u32 {
            for t in (0..200u64).step_by(7) {
                let p = model.sample(&params, rank * 31 % 64, rank, t);
                prop_assert!(p >= cfg.idle_w && p <= cfg.tdp_w, "sample {}", p);
            }
        }
    }
}

/// Population standard deviation with the KNN's degenerate-scale guard.
fn knn_scale(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let s = var.sqrt();
    if s > 1e-9 {
        s
    } else {
        1.0
    }
}

/// Brute-force KNN prediction over every training row: standardized
/// squared distances, neighbours ordered by (d², own user first, index),
/// and the categorical mode's own-history early stop.
fn brute_force_knn(
    data: &hpcpower_ml::data::Dataset,
    cfg: KnnConfig,
    user: u32,
    nodes: f64,
    walltime: f64,
) -> f64 {
    let f = &data.features;
    let node_scale = knn_scale(&f.nodes);
    let walltime_scale = knn_scale(&f.walltimes);
    let users: Vec<f64> = f.users.iter().map(|&u| u as f64).collect();
    let user_scale = knn_scale(&users);
    let numeric = |i: usize| {
        let dn = (f.nodes[i] - nodes) / node_scale;
        let dw = (f.walltimes[i] - walltime) / walltime_scale;
        dn * dn + dw * dw
    };
    let by_key = |a: &(f64, bool, usize), b: &(f64, bool, usize)| {
        a.0.partial_cmp(&b.0).unwrap().then((a.1, a.2).cmp(&(b.1, b.2)))
    };
    // (d², cross-user, training index)
    let mut cand: Vec<(f64, bool, usize)> = Vec::new();
    if cfg.numeric_user {
        for (i, &u) in users.iter().enumerate() {
            let du = (u - user as f64) / user_scale;
            cand.push((numeric(i) + du * du, false, i));
        }
    } else {
        cand.extend((0..data.len()).filter(|&i| f.users[i] == user).map(|i| (numeric(i), false, i)));
        cand.sort_by(by_key);
        if cand.len() < cfg.k || cand[cfg.k - 1].0 > cfg.user_mismatch_penalty {
            for i in (0..data.len()).filter(|&i| f.users[i] != user) {
                cand.push((numeric(i) + cfg.user_mismatch_penalty, true, i));
            }
        }
    }
    cand.sort_by(by_key);
    cand.truncate(cfg.k);
    if cfg.distance_weighted {
        let (mut wsum, mut acc) = (0.0, 0.0);
        for &(d2, _, i) in &cand {
            let w = 1.0 / (d2 + 1e-6);
            wsum += w;
            acc += w * data.targets[i];
        }
        acc / wsum
    } else {
        cand.iter().map(|&(_, _, i)| data.targets[i]).sum::<f64>() / cand.len() as f64
    }
}
