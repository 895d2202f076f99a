//! Shared classification-validation machinery for Table 2 and Figure 3.
//!
//! A test workload is profiled sparsely in a *noisy* world and classified;
//! the estimates are then compared column-by-column against ground truth
//! measured in a *noiseless* twin world. Errors are relative, in speed
//! space for performance axes and in pressure space for interference.
//!
//! The harness is split so experiment sweeps can fan items out over the
//! deterministic parallel runner ([`quasar_core::par`]): the
//! [`Validator`] itself is an immutable shared core (`&self` only), and
//! each validated workload gets its *own* twin worlds and RNG streams,
//! seeded purely from the item seed the caller derives via
//! [`quasar_core::par::derive_seed`]. One item's results therefore never
//! depend on which other items ran, in what order, or on how many
//! threads — `--threads N` is bit-identical to `--threads 1`.

use std::collections::HashMap;

use quasar_cf::DenseMatrix;
use quasar_cluster::{managers::NullManager, ClusterSpec, ProfileConfig, SimConfig, Simulation};
use quasar_core::{
    history::ln_speed, par::derive_seed, Axes, Classification, Classifier, ExhaustiveClassifier,
    GoalKind, HistorySet, Profiler, ProfilingData,
};
use quasar_workloads::generate::Generator;
use quasar_workloads::{
    Dataset, LoadPattern, PlatformCatalog, Priority, Workload, WorkloadClass, WorkloadId,
};

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

/// Per-axis relative error samples for one application class.
#[derive(Debug, Clone, Default)]
pub struct ErrorSamples {
    /// Scale-up axis errors.
    pub scale_up: Vec<f64>,
    /// Scale-out axis errors (empty for single-node).
    pub scale_out: Vec<f64>,
    /// Heterogeneity axis errors.
    pub hetero: Vec<f64>,
    /// Interference (tolerated-pressure) errors.
    pub interference: Vec<f64>,
    /// Joint exhaustive-classification errors.
    pub exhaustive: Vec<f64>,
    /// Profiling wall seconds per workload (4-parallel scheme).
    pub profile_wall_s: Vec<f64>,
    /// Classification decision time per workload, microseconds (4-parallel).
    pub decide_us_parallel: Vec<f64>,
    /// Decision time for the exhaustive classification, microseconds.
    pub decide_us_exhaustive: Vec<f64>,
}

impl ErrorSamples {
    /// Appends all of `other`'s samples. Sweeps run items in parallel
    /// and merge per-item samples *in item order*, so the merged vectors
    /// are identical to what a serial loop would have produced.
    pub fn merge(&mut self, other: &ErrorSamples) {
        self.scale_up.extend_from_slice(&other.scale_up);
        self.scale_out.extend_from_slice(&other.scale_out);
        self.hetero.extend_from_slice(&other.hetero);
        self.interference.extend_from_slice(&other.interference);
        self.exhaustive.extend_from_slice(&other.exhaustive);
        self.profile_wall_s.extend_from_slice(&other.profile_wall_s);
        self.decide_us_parallel
            .extend_from_slice(&other.decide_us_parallel);
        self.decide_us_exhaustive
            .extend_from_slice(&other.decide_us_exhaustive);
    }
}

/// The validation harness: offline histories for both the four-parallel
/// and the exhaustive schemes, shared immutably across parallel items.
pub struct Validator {
    history: &'static HistorySet,
    classifier: Classifier,
    exhaustive: ExhaustiveClassifier,
    exhaustive_history: HashMap<GoalKind, DenseMatrix>,
}

/// The application classes validated in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// Hadoop data-mining jobs.
    Hadoop,
    /// memcached services.
    Memcached,
    /// Apache webserver loads.
    Webserver,
    /// Single-node benchmarks (SPEC/PARSEC/... in the paper).
    SingleNode,
}

impl AppClass {
    /// Display name matching the paper's Table 2 rows.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Hadoop => "Hadoop",
            AppClass::Memcached => "Memcached",
            AppClass::Webserver => "Webserver",
            AppClass::SingleNode => "Single-node",
        }
    }
}

/// One item's private mutable state: twin worlds plus RNG streams, all
/// derived from the item seed alone.
struct ItemWorlds {
    noisy: Simulation,
    truth: Simulation,
    rng: StdRng,
}

impl ItemWorlds {
    fn new(item_seed: u64) -> ItemWorlds {
        let catalog = PlatformCatalog::local();
        let mk_sim = |noise: f64, s: u64| {
            Simulation::new(
                ClusterSpec::uniform(catalog.clone(), 1),
                Box::new(NullManager),
                SimConfig {
                    noise,
                    seed: s,
                    ..SimConfig::default()
                },
            )
        };
        ItemWorlds {
            noisy: mk_sim(0.03, derive_seed(item_seed, 1)),
            truth: mk_sim(0.0, derive_seed(item_seed, 2)),
            rng: StdRng::seed_from_u64(derive_seed(item_seed, 3)),
        }
    }

    /// Submits the same workload into both twin worlds, re-keyed to a
    /// fixed private id so generated ids never collide with anything.
    fn submit_twin(&mut self, workload: Workload) -> WorkloadId {
        let workload = rekey(workload, 1_000_000);
        let id = workload.id();
        let at = self.noisy.world().now();
        self.noisy.submit_at(workload.clone(), at);
        self.truth.submit_at(workload, self.truth.world().now());
        let t1 = self.noisy.world().now() + self.noisy.world().tick_s();
        let t2 = self.truth.world().now() + self.truth.world().tick_s();
        self.noisy.run_until(t1);
        self.truth.run_until(t2);
        id
    }
}

impl Validator {
    /// Builds the harness for the local catalog, reusing the shared
    /// offline history and bootstrapping a joint exhaustive history.
    pub fn new(history: &'static HistorySet, seed: u64) -> Validator {
        let exhaustive = ExhaustiveClassifier::new(history.axes());
        let mut v = Validator {
            history,
            classifier: Classifier::new(),
            exhaustive,
            exhaustive_history: HashMap::new(),
        };
        v.bootstrap_exhaustive(seed ^ 0xBEEF);
        v
    }

    /// Joint columns applicable to a goal kind (single-node workloads
    /// cannot scale out, so only 1-node columns apply).
    fn joint_columns(&self, kind: GoalKind) -> Vec<usize> {
        let axes = self.history.axes();
        let one = axes.scale_out_or_nearest(1);
        self.exhaustive
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, so))| kind != GoalKind::Rate || so == one)
            .map(|(i, _)| i)
            .collect()
    }

    /// Profiles the offline training set across all joint columns.
    fn bootstrap_exhaustive(&mut self, seed: u64) {
        let catalog = PlatformCatalog::local().clone();
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig {
                noise: 0.01,
                seed,
                ..SimConfig::default()
            },
        );
        let mut generator = Generator::new(catalog, seed);
        let mut pools: HashMap<GoalKind, Vec<WorkloadId>> = HashMap::new();
        for i in 0..10usize {
            let t = generator.analytics_job(
                WorkloadClass::Hadoop,
                format!("xh{i}"),
                Dataset::new(format!("xd{i}"), 3.0 + 11.0 * i as f64, 1.0),
                2,
                1_500.0,
                Priority::Guaranteed,
            );
            let q = generator.service(
                if i % 2 == 0 {
                    WorkloadClass::Memcached
                } else {
                    WorkloadClass::Webserver
                },
                format!("xs{i}"),
                8.0 + 4.0 * i as f64,
                LoadPattern::Flat { qps: 20_000.0 },
                Priority::Guaranteed,
            );
            let r = generator.single_node_job(format!("xb{i}"), 500.0, Priority::Guaranteed);
            pools.entry(GoalKind::Time).or_default().push(t.id());
            pools.entry(GoalKind::Qps).or_default().push(q.id());
            pools.entry(GoalKind::Rate).or_default().push(r.id());
            sim.submit_at(t, 0.0);
            sim.submit_at(q, 0.0);
            sim.submit_at(r, 0.0);
        }
        sim.run_until(sim.world().tick_s());

        let axes = self.history.axes().clone();
        for kind in GoalKind::ALL {
            let cols = self.joint_columns(kind);
            let rows = &pools[&kind];
            let mut matrix = DenseMatrix::zeros(rows.len(), cols.len());
            for (ri, &id) in rows.iter().enumerate() {
                for (ci, &col) in cols.iter().enumerate() {
                    let v = profile_joint(sim.world_mut(), &axes, &self.exhaustive, id, col);
                    matrix.set(ri, ci, ln_speed(kind, v));
                }
            }
            self.exhaustive_history.insert(kind, matrix);
        }
    }

    /// Validates one workload at profiling density `d` in its own pair
    /// of twin worlds, returning its error samples. `with_exhaustive`
    /// also runs the joint scheme (at density 8 entries/row as in the
    /// paper's Table 2 note).
    ///
    /// Pure in `(self, item_seed, workload, d, with_exhaustive)`: safe
    /// to fan out over threads with per-item seeds from
    /// [`derive_seed`]`(sweep_seed, item_index)`.
    pub fn validate_item(
        &self,
        item_seed: u64,
        workload: Workload,
        d: usize,
        with_exhaustive: bool,
    ) -> ErrorSamples {
        self.validate_item_with(item_seed, workload, d, with_exhaustive, |data| {
            self.classifier.classify_timed(self.history, data)
        })
    }

    /// [`Validator::validate_item`] with the four-parallel classification
    /// done by `classify` (classification and decision microseconds), so
    /// another classifier can be scored on exactly the same profiling
    /// rows and ground truth.
    pub(crate) fn validate_item_with(
        &self,
        item_seed: u64,
        workload: Workload,
        d: usize,
        with_exhaustive: bool,
        classify: impl FnOnce(&ProfilingData) -> (Classification, f64),
    ) -> ErrorSamples {
        let mut out = ErrorSamples::default();
        let mut worlds = ItemWorlds::new(item_seed);
        let id = worlds.submit_twin(workload);
        let axes: Axes = self.history.axes().clone();
        let kind = GoalKind::of(&worlds.noisy.world().spec(id).target);

        // Profile sparsely in the noisy world and classify.
        let mut profiler = Profiler::new(d, derive_seed(item_seed, 4));
        let data = profiler.profile(worlds.noisy.world_mut(), &axes, id);
        out.profile_wall_s.push(data.wall_seconds);
        let (class, wall_us) = classify(&data);
        out.decide_us_parallel.push(wall_us);

        // Ground truth per axis from the noiseless twin.
        let truth = worlds.truth.world_mut();
        for (col, res) in axes.scale_up.iter().enumerate() {
            let config = ProfileConfig::single(axes.ref_platform, *res);
            let act = kind.to_speed(truth.profile_config(id, &config).value);
            out.scale_up.push(rel_err(class.scale_up_speed[col], act));
        }
        for (col, &pid) in axes.platforms.iter().enumerate() {
            let config = ProfileConfig::single(pid, axes.anchor());
            let act = kind.to_speed(truth.profile_config(id, &config).value);
            out.hetero.push(rel_err(class.hetero_speed[col], act));
        }
        if let Some(so) = &class.scale_out_speed {
            for (col, &nodes) in axes.scale_out.iter().enumerate() {
                let config = ProfileConfig::single(axes.ref_platform, axes.scale_out_probe)
                    .with_nodes(nodes);
                let act = kind.to_speed(truth.profile_config(id, &config).value);
                out.scale_out.push(rel_err(so[col], act));
            }
        }
        for (col, &resource) in axes.resources.iter().enumerate() {
            let act = truth.probe_sensitivity(id, resource, 0.05).value;
            let est = class
                .tolerated
                .get(quasar_interference::SharedResource::from_index(col));
            out.interference.push((est - act).abs() / act.max(5.0));
        }

        if with_exhaustive {
            self.validate_exhaustive(&mut worlds, id, kind, &mut out);
        }
        out
    }

    /// Runs the single exhaustive classification at 8 entries/row and
    /// scores it against joint-column ground truth.
    fn validate_exhaustive(
        &self,
        worlds: &mut ItemWorlds,
        id: WorkloadId,
        kind: GoalKind,
        out: &mut ErrorSamples,
    ) {
        let axes = self.history.axes().clone();
        let cols = self.joint_columns(kind);
        let history = &self.exhaustive_history[&kind];

        let picks: Vec<usize> = (0..cols.len()).collect();
        let picks: Vec<usize> = picks
            .choose_multiple(&mut worlds.rng, 8.min(cols.len()))
            .copied()
            .collect();
        let mut observed = Vec::new();
        for &ci in &picks {
            let v = profile_joint(
                worlds.noisy.world_mut(),
                &axes,
                &self.exhaustive,
                id,
                cols[ci],
            );
            observed.push((ci, ln_speed(kind, v)));
        }
        // Timed through the shared telemetry layer (span
        // `core.classify.exhaustive` + registry histogram), like the
        // parallel scheme's `classify_timed`.
        let (row, exhaustive_us) = self.exhaustive.classify_row_timed(history, &observed);
        out.decide_us_exhaustive.push(exhaustive_us);

        // Score against a subsample of joint columns (evaluating ground
        // truth on the full cross product is prohibitively slow and adds
        // nothing statistically).
        let eval: Vec<usize> = (0..cols.len()).collect();
        let eval: Vec<usize> = eval
            .choose_multiple(&mut worlds.rng, 120.min(cols.len()))
            .copied()
            .collect();
        for ci in eval {
            let act = kind.to_speed(profile_joint(
                worlds.truth.world_mut(),
                &axes,
                &self.exhaustive,
                id,
                cols[ci],
            ));
            out.exhaustive.push(rel_err(row[ci].exp(), act));
        }
    }

    /// Profiles one workload at density `d` in a private noisy world and
    /// returns the raw profiling row, for experiments that classify
    /// outside the validation loop (the `bench-kernels` allocation count
    /// per classification). Pure in `(item_seed, workload, d)`, like
    /// [`Validator::validate_item`].
    pub fn profile_item(&self, item_seed: u64, workload: Workload, d: usize) -> ProfilingData {
        let mut worlds = ItemWorlds::new(item_seed);
        let id = worlds.submit_twin(workload);
        let axes = self.history.axes().clone();
        Profiler::new(d, derive_seed(item_seed, 4)).profile(worlds.noisy.world_mut(), &axes, id)
    }

    /// The offline history the harness classifies against.
    pub fn history(&self) -> &'static HistorySet {
        self.history
    }

    /// Generates the `index`-th test workload of the given application
    /// class. Pure in `(app, index)` — the generator is seeded from the
    /// index alone, so sweeps can regenerate the *same* workload for
    /// paired comparisons (e.g. across matrix densities in Fig. 3).
    pub fn generate(&self, app: AppClass, index: usize) -> Workload {
        let catalog = PlatformCatalog::local();
        let mut generator = Generator::new(catalog, 0xAB0 + index as u64 * 7919);
        // Burn ids so twin submissions stay unique across workloads.
        for _ in 0..index {
            let _ = generator.single_node_job("burn", 60.0, Priority::BestEffort);
        }
        match app {
            AppClass::Hadoop => generator.analytics_job(
                WorkloadClass::Hadoop,
                format!("vh{index}"),
                Dataset::new(
                    format!("vd{index}"),
                    2.0 + 17.0 * (index as f64),
                    0.7 + 0.13 * (index % 7) as f64,
                ),
                2,
                1_800.0,
                Priority::Guaranteed,
            ),
            AppClass::Memcached => generator.service(
                WorkloadClass::Memcached,
                format!("vm{index}"),
                8.0 + 6.0 * index as f64,
                LoadPattern::Flat {
                    qps: 30_000.0 + 5_000.0 * index as f64,
                },
                Priority::Guaranteed,
            ),
            AppClass::Webserver => generator.service(
                WorkloadClass::Webserver,
                format!("vw{index}"),
                4.0,
                LoadPattern::Flat {
                    qps: 10_000.0 + 2_000.0 * index as f64,
                },
                Priority::Guaranteed,
            ),
            AppClass::SingleNode => {
                generator.single_node_job(format!("vb{index}"), 600.0, Priority::Guaranteed)
            }
        }
    }
}

/// Workload ids must be unique per world; re-key a generated workload.
pub fn rekey(workload: Workload, id: u64) -> Workload {
    let mut spec = workload.spec().clone();
    spec.id = WorkloadId(id);
    Workload::new(spec, workload.model().clone(), workload.load().copied())
}

fn rel_err(est: f64, act: f64) -> f64 {
    (est - act).abs() / act.abs().max(1e-12)
}

/// Ground-truth/noisy measurement of one joint exhaustive column.
fn profile_joint(
    world: &mut quasar_cluster::World,
    axes: &Axes,
    exhaustive: &ExhaustiveClassifier,
    id: WorkloadId,
    col: usize,
) -> f64 {
    let (p, su, so) = exhaustive.columns()[col];
    let config =
        ProfileConfig::single(axes.platforms[p], axes.scale_up[su]).with_nodes(axes.scale_out[so]);
    world.profile_config(id, &config).value
}
