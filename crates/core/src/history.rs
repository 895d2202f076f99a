//! Offline-characterized workload history.
//!
//! Collaborative filtering needs dense rows to anchor the sparse rows of
//! incoming workloads. The paper profiles a small number of workload
//! types (20–30) exhaustively offline — "these runs provide the
//! classification engine with dense information ... this step does not
//! need to repeat unless there are major changes in the cluster's hardware
//! or application structure" (§3.2). [`HistorySet::bootstrap`] performs
//! that offline campaign against a scratch simulation.

use std::collections::HashMap;

use quasar_cf::{DenseMatrix, FoldIn};
use quasar_cluster::{
    managers::NullManager, ClusterSpec, ProfileConfig, SimConfig, Simulation, World,
};
use quasar_interference::PressureVector;
use quasar_workloads::generate::Generator;
use quasar_workloads::{
    Dataset, LoadPattern, PlatformCatalog, Priority, WorkloadClass, WorkloadId,
};

use crate::axes::{Axes, GoalKind};

/// Dense per-axis history for one goal kind. Speed axes are stored in
/// natural-log space (ln speed) so the PQ row bias absorbs each training
/// workload's overall scale; interference axes are linear pressure points.
#[derive(Debug, Clone)]
pub struct KindHistory {
    /// ln-speed per scale-up column.
    pub scale_up: DenseMatrix,
    /// ln-speed per scale-out column (absent for single-node kinds).
    pub scale_out: Option<DenseMatrix>,
    /// ln-speed per platform column.
    pub hetero: DenseMatrix,
    /// Tolerated-pressure point per interference source.
    pub tolerated: DenseMatrix,
    /// Caused pressure per interference source.
    pub caused: DenseMatrix,
    /// ln-speed per framework-parameter column (framework kinds only).
    pub params: Option<DenseMatrix>,
    /// One fold-in model per axis, fitted once from the matrices above.
    pub models: KindModels,
}

/// The per-axis [`FoldIn`] models of one goal kind: each history matrix
/// factored once at bootstrap, so classifying an arrival is a
/// closed-form fold-in per axis instead of a fresh SVD + SGD run.
///
/// The interference models are fitted on the pressure history scaled to
/// [0, 1] (divided by [`PressureVector::MAX`]); callers scale
/// observations the same way.
#[derive(Debug, Clone)]
pub struct KindModels {
    /// Scale-up axis model (ln-speed).
    pub scale_up: FoldIn,
    /// Scale-out axis model (ln-speed; absent for single-node kinds).
    pub scale_out: Option<FoldIn>,
    /// Heterogeneity axis model (ln-speed).
    pub hetero: FoldIn,
    /// Tolerated-pressure model (unit-scaled pressure).
    pub tolerated: FoldIn,
    /// Caused-pressure model (unit-scaled pressure).
    pub caused: FoldIn,
    /// Framework-parameter axis model (ln-speed; framework kinds only).
    pub params: Option<FoldIn>,
}

impl KindModels {
    /// Fits every axis of one kind's history.
    ///
    /// # Panics
    ///
    /// Panics if a history matrix holds a non-finite value (bootstrap
    /// profiling guards zeros before taking logs, so it never does).
    fn fit(
        scale_up: &DenseMatrix,
        scale_out: Option<&DenseMatrix>,
        hetero: &DenseMatrix,
        tolerated: &DenseMatrix,
        caused: &DenseMatrix,
        params: Option<&DenseMatrix>,
    ) -> KindModels {
        let fit = |m: &DenseMatrix| FoldIn::fit(m).expect("history matrices are finite");
        let fit_unit = |m: &DenseMatrix| {
            let scaled =
                DenseMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) / PressureVector::MAX);
            fit(&scaled)
        };
        KindModels {
            scale_up: fit(scale_up),
            scale_out: scale_out.map(fit),
            hetero: fit(hetero),
            tolerated: fit_unit(tolerated),
            caused: fit_unit(caused),
            params: params.map(fit),
        }
    }
}

/// The full offline history: one [`KindHistory`] per goal kind, sharing
/// one [`Axes`] definition.
#[derive(Debug, Clone)]
pub struct HistorySet {
    axes: Axes,
    kinds: HashMap<GoalKind, KindHistory>,
}

impl HistorySet {
    /// Runs the offline profiling campaign: generates `train_per_kind`
    /// training workloads per goal kind and profiles each across every
    /// column of every axis against a scratch simulation of the catalog.
    /// Then fits one fold-in model per (kind, axis) ([`KindModels`]),
    /// which every later classification reuses.
    ///
    /// # Panics
    ///
    /// Panics if `train_per_kind < 2` (collaborative filtering needs at
    /// least a couple of anchor rows).
    pub fn bootstrap(catalog: &PlatformCatalog, train_per_kind: usize, seed: u64) -> HistorySet {
        assert!(train_per_kind >= 2, "need at least two training workloads");
        let axes = Axes::for_catalog(catalog);
        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig {
                // Offline characterization is careful; keep a little noise
                // so the history is not suspiciously exact.
                noise: 0.01,
                seed,
                ..SimConfig::default()
            },
        );
        let mut generator = Generator::new(catalog.clone(), seed ^ 0x7A1);

        let mut pools: HashMap<GoalKind, Vec<WorkloadId>> = HashMap::new();
        for i in 0..train_per_kind {
            let time_job = match i % 3 {
                0 => generator.analytics_job(
                    WorkloadClass::Hadoop,
                    format!("train-h{i}"),
                    Dataset::new(format!("tds{i}"), 4.0 + 9.0 * i as f64, 1.0),
                    2,
                    1_800.0,
                    Priority::Guaranteed,
                ),
                1 => generator.analytics_job(
                    WorkloadClass::Spark,
                    format!("train-sp{i}"),
                    Dataset::new(format!("tds{i}"), 3.0 + 7.0 * i as f64, 0.9),
                    2,
                    1_500.0,
                    Priority::Guaranteed,
                ),
                _ => generator.analytics_job(
                    WorkloadClass::Storm,
                    format!("train-st{i}"),
                    Dataset::new(format!("tds{i}"), 2.0 + 5.0 * i as f64, 1.2),
                    2,
                    1_200.0,
                    Priority::Guaranteed,
                ),
            };
            let svc_class = match i % 3 {
                0 => WorkloadClass::Memcached,
                1 => WorkloadClass::Webserver,
                _ => WorkloadClass::Cassandra,
            };
            let qps_job = generator.service(
                svc_class,
                format!("train-s{i}"),
                10.0 + 5.0 * i as f64,
                LoadPattern::Flat {
                    qps: 10_000.0 + 1_000.0 * i as f64,
                },
                Priority::Guaranteed,
            );
            let rate_job =
                generator.single_node_job(format!("train-b{i}"), 600.0, Priority::Guaranteed);

            pools.entry(GoalKind::Time).or_default().push(time_job.id());
            pools.entry(GoalKind::Qps).or_default().push(qps_job.id());
            pools.entry(GoalKind::Rate).or_default().push(rate_job.id());
            sim.submit_at(time_job, 0.0);
            sim.submit_at(qps_job, 0.0);
            sim.submit_at(rate_job, 0.0);
        }
        // Deliver the arrivals (NullManager leaves everything pending).
        sim.run_until(sim.world().tick_s());

        let world = sim.world_mut();
        let mut kinds = HashMap::new();
        for kind in GoalKind::ALL {
            let rows = &pools[&kind];
            kinds.insert(kind, profile_kind(world, &axes, kind, rows));
        }

        HistorySet { axes, kinds }
    }

    /// The shared axis definitions.
    pub fn axes(&self) -> &Axes {
        &self.axes
    }

    /// The history for one goal kind.
    pub fn kind(&self, kind: GoalKind) -> &KindHistory {
        &self.kinds[&kind]
    }
}

/// Exhaustively profiles `rows` across every axis column.
fn profile_kind(
    world: &mut World,
    axes: &Axes,
    kind: GoalKind,
    rows: &[WorkloadId],
) -> KindHistory {
    let n = rows.len();
    let distributed = kind != GoalKind::Rate;
    let framework = kind == GoalKind::Time;

    let mut scale_up = DenseMatrix::zeros(n, axes.scale_up.len());
    let mut hetero = DenseMatrix::zeros(n, axes.platforms.len());
    let mut scale_out = distributed.then(|| DenseMatrix::zeros(n, axes.scale_out.len()));
    let mut params = framework.then(|| DenseMatrix::zeros(n, axes.params.len()));
    let mut tolerated = DenseMatrix::zeros(n, axes.resources.len());
    let mut caused = DenseMatrix::zeros(n, axes.resources.len());

    for (row, &id) in rows.iter().enumerate() {
        for (col, res) in axes.scale_up.iter().enumerate() {
            let config = ProfileConfig::single(axes.ref_platform, *res);
            let v = world.profile_config(id, &config).value;
            scale_up.set(row, col, ln_speed(kind, v));
        }
        for (col, &pid) in axes.platforms.iter().enumerate() {
            let config = ProfileConfig::single(pid, axes.anchor());
            let v = world.profile_config(id, &config).value;
            hetero.set(row, col, ln_speed(kind, v));
        }
        if let Some(m) = scale_out.as_mut() {
            for (col, &nodes) in axes.scale_out.iter().enumerate() {
                let config = ProfileConfig::single(axes.ref_platform, axes.scale_out_probe)
                    .with_nodes(nodes);
                let v = world.profile_config(id, &config).value;
                m.set(row, col, ln_speed(kind, v));
            }
        }
        if let Some(m) = params.as_mut() {
            for (col, p) in axes.params.iter().enumerate() {
                let config =
                    ProfileConfig::single(axes.ref_platform, axes.ref_full).with_params(*p);
                let v = world.profile_config(id, &config).value;
                m.set(row, col, ln_speed(kind, v));
            }
        }
        for (col, &resource) in axes.resources.iter().enumerate() {
            tolerated.set(row, col, world.probe_sensitivity(id, resource, 0.05).value);
            caused.set(row, col, world.probe_caused(id, resource).value);
        }
    }

    let models = KindModels::fit(
        &scale_up,
        scale_out.as_ref(),
        &hetero,
        &tolerated,
        &caused,
        params.as_ref(),
    );
    KindHistory {
        scale_up,
        scale_out,
        hetero,
        tolerated,
        caused,
        params,
        models,
    }
}

/// Converts a measured goal value into log-space speed, guarding zeros.
///
/// Exposed so validation experiments can build exhaustive-classification
/// histories in the same value space.
pub fn ln_speed(kind: GoalKind, value: f64) -> f64 {
    kind.to_speed(value).max(1e-12).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> HistorySet {
        HistorySet::bootstrap(&PlatformCatalog::local(), 4, 42)
    }

    #[test]
    fn bootstrap_builds_all_kinds() {
        let h = history();
        for kind in GoalKind::ALL {
            let k = h.kind(kind);
            assert_eq!(k.scale_up.rows(), 4);
            assert_eq!(k.scale_up.cols(), h.axes().scale_up.len());
            assert_eq!(k.hetero.cols(), h.axes().platforms.len());
            assert_eq!(k.tolerated.cols(), 10);
        }
        assert!(h.kind(GoalKind::Rate).scale_out.is_none());
        assert!(h.kind(GoalKind::Time).params.is_some());
        assert!(h.kind(GoalKind::Qps).params.is_none());
    }

    #[test]
    fn history_values_are_finite() {
        let h = history();
        for kind in GoalKind::ALL {
            let k = h.kind(kind);
            for v in k.scale_up.as_slice() {
                assert!(v.is_finite(), "ln-speed must be finite");
            }
            for v in k.tolerated.as_slice() {
                assert!((0.0..=100.0).contains(v), "pressure point in range");
            }
        }
    }

    #[test]
    fn scale_out_row_improves_with_nodes_for_services() {
        let h = history();
        let k = h.kind(GoalKind::Qps);
        let m = k.scale_out.as_ref().unwrap();
        // More nodes should generally mean more capacity: compare the
        // 1-node and 8-node columns via the graceful lookup (falls back
        // to the nearest column on axis sets missing those counts).
        let one = h.axes().scale_out_or_nearest(1);
        let eight = h.axes().scale_out_or_nearest(8);
        for row in 0..m.rows() {
            assert!(
                m.get(row, eight) > m.get(row, one),
                "8 nodes must beat 1 node for services"
            );
        }
    }

    #[test]
    fn scale_out_lookup_survives_custom_axis_sets() {
        // A history bootstrapped on the stock catalog, then consulted
        // through a custom axis set without the 1/8-node counts: the
        // graceful lookup returns the nearest columns instead of the
        // old `.position().unwrap()` panic.
        let h = history();
        let mut axes = h.axes().clone();
        axes.scale_out = vec![2, 4, 16];
        assert_eq!(axes.scale_out_position(1), None);
        assert_eq!(axes.scale_out_position(8), None);
        let one = axes.scale_out_or_nearest(1);
        let eight = axes.scale_out_or_nearest(8);
        assert_eq!(axes.scale_out[one], 2);
        // |8-4| = 4 beats |8-16| = 8, so the 4-node column wins.
        assert_eq!(axes.scale_out[eight], 4);
    }

    #[test]
    fn ln_speed_inverts_time() {
        assert!(ln_speed(GoalKind::Time, 100.0) < ln_speed(GoalKind::Time, 10.0));
        assert!(ln_speed(GoalKind::Qps, 100.0) > ln_speed(GoalKind::Qps, 10.0));
    }
}
