//! Criterion micro-benchmarks of QuFEM's computational kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qufem_core::{
    benchgen, build_group_matrices, engine, EngineStats, ExecArena, GroupMatrix, InteractionTable,
    IterationPlan, QuFemConfig,
};
use qufem_device::presets;
use qufem_linalg::{Lu, Matrix};
use qufem_types::{ProbDist, QubitSet, SupportIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_inverse");
    for &k in &[2usize, 3, 4, 5] {
        let dim = 1usize << k;
        let mut m = Matrix::identity(dim);
        for i in 0..dim {
            for j in 0..dim {
                if i != j {
                    m.set(i, j, 0.02 / dim as f64);
                }
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(format!("2^{k}")), &m, |b, m| {
            b.iter(|| Lu::factorize(m).unwrap().inverse().unwrap());
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let device = presets::quafu_18(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let table = InteractionTable::build(&snapshot);
    let grouping = qufem_core::partition::partition_weighted(
        18,
        &|a, b| table.weight(a, b),
        2,
        &std::collections::HashSet::new(),
        1.0,
    );
    let measured = QubitSet::full(18);
    let groups = build_group_matrices(&snapshot, &grouping, &measured).unwrap();
    let positions: Vec<usize> = measured.iter().collect();
    let dist =
        qufem_circuits::synthetic::generate(qufem_circuits::synthetic::Shape::Uniform, 18, 200, 7);

    let mut group = c.benchmark_group("engine_apply_iteration");
    for &beta in &[0.0, 1e-5, 1e-3] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("beta={beta:e}")),
            &beta,
            |b, &beta| {
                b.iter(|| {
                    let mut stats = EngineStats::default();
                    engine::apply_iteration(&dist, &positions, &groups, beta, &mut stats)
                });
            },
        );
    }
    group.finish();
}

/// A characterized iteration at `n` qubits: group matrices, measured
/// positions, and a synthetic input distribution, ready for plan/execute.
struct EngineWorkload {
    positions: Vec<usize>,
    groups: Vec<GroupMatrix>,
    dist: ProbDist,
}

fn engine_workload(n: usize, support: usize) -> EngineWorkload {
    let device = presets::for_qubits(n, 1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let table = InteractionTable::build(&snapshot);
    let grouping = qufem_core::partition::partition_weighted(
        n,
        &|a, b| table.weight(a, b),
        2,
        &std::collections::HashSet::new(),
        1.0,
    );
    let measured = QubitSet::full(n);
    let groups = build_group_matrices(&snapshot, &grouping, &measured).unwrap();
    let positions: Vec<usize> = measured.iter().collect();
    let dist = qufem_circuits::synthetic::generate(
        qufem_circuits::synthetic::Shape::Uniform,
        n,
        support,
        7,
    );
    EngineWorkload { positions, groups, dist }
}

/// Plan construction plus the sequential/sharded executors, at the paper's
/// small (36q) and large (136q) scales, against the pre-refactor reference
/// walk for comparison.
fn bench_plan_execute(c: &mut Criterion) {
    const BETA: f64 = 1e-3;
    for &n in &[36usize, 136] {
        // 600 strings: enough that the sharded row's shards each get the
        // shard pool's floor of input strings, so it really dispatches.
        let w = engine_workload(n, 600);
        let chain = [Arc::new(IterationPlan::build(&w.positions, &w.groups, BETA))];
        let plan = &chain[0];
        let input = SupportIndex::from_dist(&w.dist);

        let name = format!("engine_{n}q");
        let mut group = c.benchmark_group(&name);
        group.sample_size(10);
        group.bench_function(BenchmarkId::from_parameter("plan-build"), |b| {
            b.iter(|| IterationPlan::build(&w.positions, &w.groups, BETA));
        });
        group.bench_function(BenchmarkId::from_parameter("execute-sequential"), |b| {
            b.iter(|| {
                let mut stats = EngineStats::default();
                engine::execute(plan, &input, &mut stats)
            });
        });
        // A fresh arena per call, so this row pays the same per-call buffer
        // setup as `execute-sequential`.
        group.bench_function(BenchmarkId::from_parameter("execute-sharded"), |b| {
            let threads = engine::configured_threads().max(4);
            b.iter(|| {
                let mut arena = ExecArena::with_shards(threads);
                arena.run_chain(&chain, &input, threads);
                arena.out().len()
            });
        });
        group.bench_function(BenchmarkId::from_parameter("reference-apply-iteration"), |b| {
            b.iter(|| {
                let mut stats = EngineStats::default();
                engine::reference::apply_iteration(
                    &w.dist,
                    &w.positions,
                    &w.groups,
                    BETA,
                    &mut stats,
                )
            });
        });
        group.finish();
    }
}

/// The zero-allocation apply hot path at the paper's large scale: a warmed
/// [`ExecArena`] running the plan chain in place (`arena`, sequential) and
/// over the persistent shard pool (`pooled`). Comparable against the
/// `engine_136q/execute-*` rows above, which pay per-call buffer setup.
fn bench_apply_hot_path(c: &mut Criterion) {
    const BETA: f64 = 1e-3;
    let w = engine_workload(136, 600); // above the pool floor, as above
    let plans = vec![Arc::new(IterationPlan::build(&w.positions, &w.groups, BETA))];
    let input = SupportIndex::from_dist(&w.dist);

    let mut group = c.benchmark_group("apply_136q");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("arena"), |b| {
        let mut arena = ExecArena::with_shards(1);
        arena.run_chain(&plans, &input, 1); // warm the buffers out of the measurement
        b.iter(|| {
            arena.run_chain(&plans, &input, 1);
            arena.out().len()
        });
    });
    group.bench_function(BenchmarkId::from_parameter("pooled"), |b| {
        let threads = engine::configured_threads().max(4);
        let mut arena = ExecArena::with_shards(threads);
        arena.run_chain(&plans, &input, threads);
        b.iter(|| {
            arena.run_chain(&plans, &input, threads);
            arena.out().len()
        });
    });
    group.finish();
}

/// The characterization→prepare pipeline, sequential vs fanned out. Both
/// legs are bit-identical by construction (record-and-replay merge), so
/// this measures pure scheduling overhead vs speedup.
fn bench_characterize_prepare(c: &mut Criterion) {
    use qufem_core::QuFem;
    let threads = engine::configured_threads().max(4);

    // `from_snapshot` on a pre-generated 36q snapshot: per-record Eq. 7
    // self-calibration plus per-set matrix/plan builds, at 1 vs N threads.
    let n = 36;
    let device = presets::for_qubits(n, 1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let mut group = c.benchmark_group("characterize_36q");
    group.sample_size(10);
    for (label, t) in [("sequential", 1), ("parallel", threads)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                QuFem::from_snapshot_with_threads(snapshot.clone(), config.clone(), t).unwrap()
            });
        });
    }
    group.finish();

    // `prepare` on the 136q preset: per-iteration matrix generation and
    // plan construction over the full register, at 1 vs N threads.
    let n = 136;
    let device = presets::for_qubits(n, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let qufem = QuFem::from_snapshot_with_threads(snapshot, config.clone(), threads).unwrap();
    let full = QubitSet::full(n);
    let mut group = c.benchmark_group("prepare_136q");
    group.sample_size(10);
    for (label, t) in [("sequential", 1), ("parallel", threads)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| qufem.prepare_with_threads(&full, t).unwrap());
        });
    }
    group.finish();
}

fn bench_matrix_generation(c: &mut Criterion) {
    let device = presets::quafu_18(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let table = InteractionTable::build(&snapshot);
    let grouping = qufem_core::partition::partition_weighted(
        18,
        &|a, b| table.weight(a, b),
        2,
        &std::collections::HashSet::new(),
        1.0,
    );
    let measured = QubitSet::full(18);
    c.bench_function("dynamic_matrix_generation_18q", |b| {
        b.iter(|| build_group_matrices(&snapshot, &grouping, &measured).unwrap());
    });
}

fn bench_partition(c: &mut Criterion) {
    let device = presets::quafu_18(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    let table = InteractionTable::build(&snapshot);
    c.bench_function("partition_weighted_18q", |b| {
        b.iter(|| {
            qufem_core::partition::partition_weighted(
                18,
                &|x, y| table.weight(x, y),
                2,
                &std::collections::HashSet::new(),
                1.0,
            )
        });
    });
}

fn bench_interaction_table(c: &mut Criterion) {
    let device = presets::quafu_18(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (snapshot, _) = benchgen::generate(&device, &config, &mut rng).unwrap();
    c.bench_function("interaction_table_build_18q", |b| {
        b.iter(|| InteractionTable::build(&snapshot));
    });
}

fn bench_bitstring_ops(c: &mut Criterion) {
    use qufem_types::BitString;
    let mut group = c.benchmark_group("bitstring");
    for &n in &[18usize, 136, 500] {
        let mut s = BitString::zeros(n);
        for i in (0..n).step_by(3) {
            s.set(i, true);
        }
        let t = s.with_flipped(n / 2);
        group.bench_with_input(BenchmarkId::new("hamming", n), &n, |b, _| {
            b.iter(|| s.hamming_distance(&t).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("hash_insert", n), &n, |b, _| {
            b.iter(|| {
                let mut map = std::collections::HashMap::new();
                for i in 0..64usize {
                    map.insert(s.with_flipped(i % n), i);
                }
                map.len()
            });
        });
    }
    group.finish();
}

fn bench_device_sampling(c: &mut Criterion) {
    use qufem_types::BitString;
    let mut group = c.benchmark_group("device_sample_readout");
    group.sample_size(10);
    for &n in &[18usize, 136] {
        let device = presets::for_qubits(n, 1);
        let measured = QubitSet::full(n);
        let ideal = BitString::zeros(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| device.sample_readout(&ideal, &measured, 2000, &mut rng));
        });
    }
    group.finish();
}

fn bench_golden_matrix(c: &mut Criterion) {
    let device = presets::ibmq_7(1);
    let mut group = c.benchmark_group("golden_noise_matrix");
    group.sample_size(10);
    for &m in &[4usize, 6, 7] {
        let measured: QubitSet = (0..m).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| device.golden_noise_matrix(&measured, 8).unwrap());
        });
    }
    group.finish();
}

fn bench_simplex_projection(c: &mut Criterion) {
    use qufem_types::{BitString, ProbDist};
    let mut group = c.benchmark_group("simplex_projection");
    for &support in &[200usize, 2000, 20000] {
        let mut dist = ProbDist::new(20);
        for i in 0..support {
            let key = BitString::from_index(i, 20).unwrap();
            let v = if i == 0 {
                0.9
            } else {
                (1.0 / support as f64) * if i % 3 == 0 { -0.5 } else { 1.0 }
            };
            dist.add(key, v);
        }
        group.bench_with_input(BenchmarkId::from_parameter(support), &support, |b, _| {
            b.iter(|| dist.project_to_probabilities());
        });
    }
    group.finish();
}

fn bench_statevector(c: &mut Criterion) {
    use qufem_circuits::Circuit;
    let mut group = c.benchmark_group("statevector_ghz");
    group.sample_size(10);
    for &n in &[10usize, 16, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| Circuit::ghz(n).simulate().probabilities(1e-12));
        });
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_lu, bench_engine, bench_plan_execute, bench_apply_hot_path,
        bench_characterize_prepare,
        bench_matrix_generation, bench_partition,
        bench_interaction_table, bench_bitstring_ops, bench_device_sampling,
        bench_golden_matrix, bench_simplex_projection, bench_statevector
}
criterion_main!(kernels);
