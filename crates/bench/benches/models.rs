//! Prediction-model benchmarks and ablation sweeps: training/inference
//! cost of the three models, plus the hyper-parameter ablations DESIGN.md
//! calls out (tree depth, KNN k, FLDA class count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use hpcpower::prediction::build_ml_dataset;
use hpcpower_ml::{
    DecisionTree, Flda, FldaConfig, Knn, KnnConfig, Regressor, TreeConfig,
};
use hpcpower_sim::{simulate, SimConfig};

fn dataset() -> hpcpower_ml::Dataset {
    build_ml_dataset(&simulate(SimConfig::emmy_small(77)))
}

/// The same jobs with each walltime (whole minutes) nudged by a distinct
/// fraction of a minute, so no user repeats a (nodes, walltime) pair:
/// every KNN index cell holds one row, the index's worst case.
fn distinct_dataset(data: &hpcpower_ml::Dataset) -> hpcpower_ml::Dataset {
    let mut out = hpcpower_ml::Dataset::default();
    for i in 0..data.len() {
        let (user, nodes, walltime) = data.features.row(i);
        out.push(user, nodes, walltime + i as f64 / data.len() as f64, data.targets[i]);
    }
    let pairs: std::collections::HashSet<(u32, u64, u64)> = (0..out.len())
        .map(|i| {
            let (user, nodes, walltime) = out.features.row(i);
            (user, nodes.to_bits(), walltime.to_bits())
        })
        .collect();
    assert_eq!(pairs.len(), out.len(), "a (user, nodes, walltime) triple repeats");
    out
}

fn bench_training(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("train");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("bdt", |b| {
        b.iter(|| black_box(DecisionTree::fit(black_box(&data), TreeConfig::default()).unwrap()))
    });
    group.bench_function("knn", |b| {
        b.iter(|| black_box(Knn::fit(black_box(&data), KnnConfig::default()).unwrap()))
    });
    group.bench_function("flda", |b| {
        b.iter(|| black_box(Flda::fit(black_box(&data), FldaConfig::default()).unwrap()))
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let data = dataset();
    let tree = DecisionTree::fit(&data, TreeConfig::default()).unwrap();
    let knn_cat = Knn::fit(&data, KnnConfig::default()).unwrap();
    let knn_num = Knn::fit(&data, KnnConfig::paper()).unwrap();
    let knn_num_distinct = Knn::fit(&distinct_dataset(&data), KnnConfig::paper()).unwrap();
    let flda = Flda::fit(&data, FldaConfig::default()).unwrap();
    let queries: Vec<(u32, f64, f64)> = (0..256)
        .map(|i| ((i % 40) as u32, ((i % 16) + 1) as f64, (60 * (i % 12 + 1)) as f64))
        .collect();
    let mut group = c.benchmark_group("predict_256");
    group.throughput(Throughput::Elements(256));
    group.bench_function("bdt", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(u, n, w) in &queries {
                acc += tree.predict(u, n, w);
            }
            black_box(acc)
        })
    });
    group.bench_function("knn_categorical", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(u, n, w) in &queries {
                acc += knn_cat.predict(u, n, w);
            }
            black_box(acc)
        })
    });
    group.bench_function("knn_numeric", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(u, n, w) in &queries {
                acc += knn_num.predict(u, n, w);
            }
            black_box(acc)
        })
    });
    group.bench_function("knn_numeric_distinct", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(u, n, w) in &queries {
                acc += knn_num_distinct.predict(u, n, w);
            }
            black_box(acc)
        })
    });
    group.bench_function("flda", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(u, n, w) in &queries {
                acc += flda.predict(u, n, w);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_ablation_tree_depth(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("ablation_tree_depth");
    for depth in [4usize, 8, 14, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let cfg = TreeConfig {
                max_depth: depth,
                ..Default::default()
            };
            b.iter(|| black_box(DecisionTree::fit(black_box(&data), cfg).unwrap()))
        });
    }
    group.finish();
}

fn bench_ablation_knn_k(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("ablation_knn_k");
    for k in [1usize, 5, 15] {
        let knn = Knn::fit(
            &data,
            KnnConfig {
                k,
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(knn.predict(3, 8.0, 360.0)))
        });
    }
    group.finish();
}

fn bench_ablation_flda_classes(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("ablation_flda_classes");
    for classes in [4usize, 10, 20] {
        group.bench_with_input(
            BenchmarkId::from_parameter(classes),
            &classes,
            |b, &classes| {
                let cfg = FldaConfig {
                    classes,
                    ..Default::default()
                };
                b.iter(|| black_box(Flda::fit(black_box(&data), cfg).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(
    models,
    bench_training,
    bench_inference,
    bench_ablation_tree_depth,
    bench_ablation_knn_k,
    bench_ablation_flda_classes,
);
criterion_main!(models);
