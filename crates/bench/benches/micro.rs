//! Microbenchmarks of the building blocks: SVD, PQ-reconstruction,
//! four-way classification, greedy scheduling, and simulator ticks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use quasar_cf::kernel::{rotate_cols, rotate_cols_scalar};
use quasar_cf::{svd_in, CfScratch, DenseMatrix, PqModel, Reconstructor, SgdConfig, SparseMatrix};
use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
use quasar_core::{Axes, Classifier, GreedyScheduler, Profiler};
use quasar_experiments::local_history;
use quasar_interference::PressureVector;
use quasar_workloads::generate::Generator;
use quasar_workloads::{Dataset, PlatformCatalog, Priority, QosTarget, WorkloadClass};

fn svd_of_history_sized_matrix(c: &mut Criterion) {
    // The shape the classifier decomposes on every arrival: ~25 training
    // rows by ~80 scale-up columns.
    let a = DenseMatrix::from_fn(25, 81, |r, cc| {
        ((r * 13 + cc * 7) % 17) as f64 * 0.25 + (r as f64) * 0.1
    });
    c.bench_function("svd_25x81", |b| b.iter(|| black_box(quasar_cf::svd(&a))));
}

fn svd_kernel_vs_reference(c: &mut Criterion) {
    // Flat-slice Jacobi kernel against the frozen scalar-loop reference,
    // per size: the two 25-row shapes bracket the history matrix, the
    // square one isolates the rotation-dominated regime. Inputs are the
    // full-rank matrices `bench-kernels` uses (see
    // `quasar_experiments::bench_kernels`).
    for (rows, cols) in [(25usize, 16usize), (25, 81), (64, 64)] {
        let a = quasar_experiments::bench_kernels::svd_input(rows, cols);
        c.bench_function(&format!("svd_kernel_{rows}x{cols}"), |b| {
            b.iter(|| black_box(quasar_cf::svd(&a)))
        });
        c.bench_function(&format!("svd_reference_{rows}x{cols}"), |b| {
            b.iter(|| black_box(quasar_cf::reference::svd_reference(&a)))
        });
    }
}

fn sgd_kernel_vs_reference(c: &mut Criterion) {
    // Fused SGD train against the frozen get/set reference, per density
    // of the history-sized sparse matrix (same inputs as `bench-kernels`;
    // they train at the production rank cap of 8).
    for density_pct in [30usize, 60, 95] {
        let sparse = quasar_experiments::bench_kernels::sgd_input(density_pct);
        let config = SgdConfig {
            max_epochs: 60,
            ..SgdConfig::default()
        };
        c.bench_function(&format!("sgd_kernel_25x81_d{density_pct}"), |b| {
            b.iter(|| black_box(PqModel::train(&sparse, &config)))
        });
        c.bench_function(&format!("sgd_reference_25x81_d{density_pct}"), |b| {
            b.iter(|| black_box(quasar_cf::reference::train_reference(&sparse, &config)))
        });
    }
}

fn rotation_blocked_vs_scalar(c: &mut Criterion) {
    // The 4-lane blocked Jacobi rotation against the plain scalar loop,
    // at the classifier's history column length (25, 81) and a
    // cache-resident length where lane throughput dominates (4096). Both
    // apply an exact unit rotation in place so values stay bounded
    // across arbitrarily many iterations.
    for len in [25usize, 81, 4096] {
        let fill = |salt: u64| -> Vec<f64> {
            (0..len)
                .map(|i| (((i as u64 * 2_654_435_761 + salt) % 1_000) as f64) / 500.0 - 1.0)
                .collect()
        };
        let (c_rot, s_rot) = (0.8, 0.6);
        let (mut bp, mut bq) = (fill(1), fill(2));
        c.bench_function(&format!("rotate_cols_blocked_{len}"), |b| {
            b.iter(|| {
                rotate_cols(&mut bp, &mut bq, c_rot, s_rot);
                black_box(bp[0])
            })
        });
        let (mut sp, mut sq) = (fill(1), fill(2));
        c.bench_function(&format!("rotate_cols_scalar_{len}"), |b| {
            b.iter(|| {
                rotate_cols_scalar(&mut sp, &mut sq, c_rot, s_rot);
                black_box(sp[0])
            })
        });
    }
}

fn scratch_vs_fresh_svd(c: &mut Criterion) {
    // The history-sized decomposition with a fresh workspace arena per
    // call vs. a persistent recycled one. The delta is the allocation +
    // zeroing cost the scratch path removes from every classification.
    let a = quasar_experiments::bench_kernels::svd_input(25, 81);
    c.bench_function("svd_25x81_fresh_arena", |b| {
        b.iter(|| black_box(svd_in(&a, &mut CfScratch::new())))
    });
    let mut arena = CfScratch::new();
    c.bench_function("svd_25x81_scratch_arena", |b| {
        b.iter(|| {
            let out = svd_in(&a, &mut arena);
            black_box(out.singular_values[0]);
            arena.recycle_svd(out);
        })
    });
}

fn scratch_vs_fresh_train(c: &mut Criterion) {
    // Full PQ training (SVD seed + SGD refinement) at the classifier
    // shape across the production rank range, fresh arena vs. recycled.
    let sparse = quasar_experiments::bench_kernels::sgd_input(60);
    for max_rank in [1usize, 4, 8] {
        let config = SgdConfig {
            max_rank,
            max_epochs: 60,
            ..SgdConfig::default()
        };
        c.bench_function(&format!("train_25x81_r{max_rank}_fresh_arena"), |b| {
            b.iter(|| black_box(PqModel::train_in(&sparse, &config, &mut CfScratch::new())))
        });
        let mut arena = CfScratch::new();
        c.bench_function(&format!("train_25x81_r{max_rank}_scratch_arena"), |b| {
            b.iter(|| {
                let model = PqModel::train_in(&sparse, &config, &mut arena);
                black_box(model.rank());
                arena.recycle_model(model);
            })
        });
    }
}

fn pq_reconstruction(c: &mut Criterion) {
    let mut sparse = SparseMatrix::new(25, 81);
    for r in 0..25 {
        for col in 0..81 {
            if r < 24 || col % 40 == 0 {
                sparse.insert(r, col, ((r + 1) * (col + 2)) as f64 / 50.0);
            }
        }
    }
    c.bench_function("pq_sgd_25x81", |b| {
        b.iter(|| black_box(PqModel::train(&sparse, &SgdConfig::default())))
    });
    c.bench_function("reconstruct_row_25x81", |b| {
        let history = DenseMatrix::from_fn(24, 81, |r, cc| ((r + 1) * (cc + 2)) as f64 / 50.0);
        b.iter(|| {
            black_box(
                Reconstructor::new()
                    .reconstruct_row(&history, &[(0, 2.0 / 50.0), (40, 84.0 / 50.0)])
                    .unwrap(),
            )
        })
    });
}

fn profile_and_classify(c: &mut Criterion) {
    let history = local_history();
    let axes = history.axes().clone();
    let catalog = PlatformCatalog::local();
    c.bench_function("profile_plus_classify_hadoop", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulation::new(
                    ClusterSpec::uniform(catalog.clone(), 1),
                    Box::new(NullManager),
                    SimConfig::default(),
                );
                let mut generator = Generator::new(catalog.clone(), 77);
                let job = generator.analytics_job(
                    WorkloadClass::Hadoop,
                    "bench",
                    Dataset::new("d", 20.0, 1.0),
                    2,
                    1_800.0,
                    Priority::Guaranteed,
                );
                let id = job.id();
                sim.submit_at(job, 0.0);
                sim.run_until(5.0);
                (sim, id)
            },
            |(mut sim, id)| {
                let mut profiler = Profiler::new(2, 1);
                let data = profiler.profile(sim.world_mut(), &axes, id);
                black_box(Classifier::new().classify(history, &data))
            },
            BatchSize::SmallInput,
        )
    });
}

fn classification(c: &mut Criterion) {
    // One full four-way classification. Profiling is done once outside
    // the loop so the benchmark isolates the CF math.
    let history = local_history();
    let axes = history.axes().clone();
    let catalog = PlatformCatalog::local();
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 1),
        Box::new(NullManager),
        SimConfig::default(),
    );
    let mut generator = Generator::new(catalog.clone(), 77);
    let job = generator.analytics_job(
        WorkloadClass::Hadoop,
        "bench",
        Dataset::new("d", 20.0, 1.0),
        2,
        1_800.0,
        Priority::Guaranteed,
    );
    let id = job.id();
    sim.submit_at(job, 0.0);
    sim.run_until(5.0);
    let mut profiler = Profiler::new(2, 1);
    let data = profiler.profile(sim.world_mut(), &axes, id);
    let classifier = Classifier::new();
    c.bench_function("classify_hadoop", |b| {
        b.iter(|| black_box(classifier.classify(history, &data)))
    });
}

fn pool_fan_out(c: &mut Criterion) {
    // Dispatch latency of the persistent worker pool: fan 64 tiny items
    // out over 4 workers. Before the pool persisted across calls, every
    // par_map paid thread spawn+join (~100µs+ each) here; now the steady
    // state is queue/condvar handoff only.
    c.bench_function("par_map_64_tiny_items_threads_4", |b| {
        let items: Vec<u64> = (0..64).collect();
        b.iter(|| {
            black_box(quasar_core::par::par_map(4, items.clone(), |i, v| {
                v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64
            }))
        })
    });
}

fn greedy_planning(c: &mut Criterion) {
    use quasar_core::greedy::CandidateServer;
    let history = local_history();
    let axes: &Axes = history.axes();
    // A plausible classification: linear-ish speeds.
    let class = quasar_core::Classification {
        kind: quasar_core::GoalKind::Qps,
        scale_up_speed: axes
            .scale_up
            .iter()
            .map(|r| r.cores as f64 * 1_000.0)
            .collect(),
        scale_out_speed: Some(axes.scale_out.iter().map(|&n| n as f64 * 2_000.0).collect()),
        hetero_speed: (0..axes.platforms.len())
            .map(|i| 1.0 + i as f64 * 0.1)
            .collect(),
        params_speed: None,
        tolerated: PressureVector::uniform(50.0),
        caused: PressureVector::uniform(15.0),
        runtime_calibration: 1.0,
    };
    // A 1000-server candidate pool: the paper stresses msec-scale
    // decisions "even for systems with thousands of servers".
    let candidates: Vec<CandidateServer> = (0..1000)
        .map(|i| CandidateServer {
            server: i,
            platform_index: i % axes.platforms.len(),
            free_cores: 4 + (i % 21) as u32,
            free_memory_gb: 4.0 + (i % 45) as f64,
            pressure: PressureVector::uniform((i % 40) as f64),
            victim_factor: 1.0,
            hourly_price: 0.5,
        })
        .collect();
    let scheduler = GreedyScheduler::new(32);
    let target = QosTarget::throughput(500_000.0, 500.0);
    c.bench_function("greedy_plan_1000_servers", |b| {
        b.iter(|| black_box(scheduler.plan(axes, &class, &target, &candidates)))
    });
}

fn simulation_tick(c: &mut Criterion) {
    let catalog = PlatformCatalog::local();
    c.bench_function("simulate_200_ticks_40_servers", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulation::new(
                    ClusterSpec::uniform(catalog.clone(), 4),
                    Box::new(NullManager),
                    SimConfig::default(),
                );
                let mut generator = Generator::new(catalog.clone(), 9);
                for (i, job) in generator.best_effort_fill(20).into_iter().enumerate() {
                    sim.submit_at(job, i as f64);
                }
                sim
            },
            |mut sim| {
                sim.run_until(1_000.0);
                black_box(sim.world().now())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = svd_of_history_sized_matrix, svd_kernel_vs_reference, sgd_kernel_vs_reference,
        rotation_blocked_vs_scalar, scratch_vs_fresh_svd, scratch_vs_fresh_train,
        pq_reconstruction, profile_and_classify,
        classification, pool_fan_out, greedy_planning, simulation_tick
}
criterion_main!(micro);
