//! The four classifications (and the exhaustive alternative).
//!
//! Each classification folds the workload's sparse profiling row into the
//! dense offline history of its goal kind (paper §3.2): the history is
//! factored once per axis at bootstrap ([`quasar_cf::FoldIn`]), and each
//! arrival's missing entries come from a closed-form ridge solve over its
//! observed columns. Speed axes live in log space; interference axes in
//! pressure space scaled to [0, 1]. The exhaustive alternative keeps the
//! per-decision SVD + PQ/SGD reconstruction.

use std::sync::OnceLock;

use quasar_cf::{DenseMatrix, FoldIn, Reconstructor};
use quasar_interference::PressureVector;
use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_obs::span::timed;

use crate::axes::{Axes, GoalKind};
use crate::history::{ln_speed, HistorySet, KindModels};
use crate::profile::ProfilingData;

/// Registry handles for the classification metrics
/// (`quasar.core.classify.*`).
struct ClassifyMetrics {
    classifications: Counter,
    axis_us: Histogram,
    decision_us: Histogram,
    exhaustive_us: Histogram,
}

fn classify_metrics() -> &'static ClassifyMetrics {
    static METRICS: OnceLock<ClassifyMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        ClassifyMetrics {
            classifications: reg.counter("quasar.core.classify.classifications"),
            axis_us: reg.histogram_us("quasar.core.classify.axis_us"),
            decision_us: reg.histogram_us("quasar.core.classify.decision_us"),
            exhaustive_us: reg.histogram_us("quasar.core.classify.exhaustive_us"),
        }
    })
}

/// The dense output of classification: estimated performance across every
/// axis column, in linear *speed* units (higher is better), plus estimated
/// interference vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Goal kind the estimates are expressed in.
    pub kind: GoalKind,
    /// Estimated speed per scale-up column.
    pub scale_up_speed: Vec<f64>,
    /// Estimated speed per scale-out column (None for single-node).
    pub scale_out_speed: Option<Vec<f64>>,
    /// Estimated speed per platform column.
    pub hetero_speed: Vec<f64>,
    /// Estimated speed per framework-parameter column (None when the
    /// workload has no framework knobs).
    pub params_speed: Option<Vec<f64>>,
    /// Estimated tolerated pressure per interference source.
    pub tolerated: PressureVector,
    /// Estimated caused pressure per interference source.
    pub caused: PressureVector,
    /// Runtime feedback multiplier on predicted speed (paper §3.2: "a
    /// simple feedback loop that updates the matrix entries when the
    /// performance measured at runtime deviates from the one estimated
    /// through classification"; it also covers scaling past the node
    /// counts profiling can reach). Starts at 1.0; the manager adjusts it
    /// from live measurements.
    pub runtime_calibration: f64,
}

impl Classification {
    /// Estimated goal value (completion time / QPS / IPS) at a scale-up
    /// column on the reference platform.
    pub fn goal_at_scale_up(&self, col: usize) -> f64 {
        self.kind.from_speed(self.scale_up_speed[col])
    }
}

/// Runs the four classifications by folding the profiling row into each
/// axis's [`FoldIn`] model, fitted once per goal kind when the history is
/// bootstrapped. Each axis is a small ridge solve, so the axes run one
/// after another on the calling thread.
#[derive(Debug, Clone, Default)]
pub struct Classifier;

impl Classifier {
    /// A classifier.
    pub fn new() -> Classifier {
        Classifier
    }

    /// Classifies one workload from its profiling signal against the
    /// offline history.
    pub fn classify(&self, history: &HistorySet, data: &ProfilingData) -> Classification {
        self.classify_timed(history, data).0
    }

    /// [`Classifier::classify`] plus the decision time of the paper's
    /// parallel scheme: the four classifications are independent (§3.2),
    /// so the decision latency is the maximum over the per-axis fold-in
    /// times, returned in microseconds. The axes themselves run serially.
    pub fn classify_timed(
        &self,
        history: &HistorySet,
        data: &ProfilingData,
    ) -> (Classification, f64) {
        let kind = data.kind;
        let m: &KindModels = &history.kind(kind).models;
        let _decision_span = quasar_obs::span!("core.classify.decision");

        // Each axis runs under a `timed` span: the span carries the
        // per-axis wall time into traces, and the returned microseconds
        // feed the registry histograms and the decision-latency model.
        let (scale_up_speed, up_us) = timed("core.classify.scale_up", || {
            speed_axis(kind, &m.scale_up, &data.scale_up)
        });
        let (hetero_speed, hetero_us) = timed("core.classify.hetero", || {
            speed_axis(kind, &m.hetero, &data.hetero)
        });
        let (scale_out_speed, out_us) = timed("core.classify.scale_out", || {
            m.scale_out
                .as_ref()
                .filter(|_| !data.scale_out.is_empty())
                .map(|model| speed_axis(kind, model, &data.scale_out))
        });
        let (params_speed, params_us) = timed("core.classify.params", || {
            m.params
                .as_ref()
                .filter(|_| !data.params.is_empty())
                .map(|model| speed_axis(kind, model, &data.params))
        });
        let ((tolerated, caused), pressure_us) = timed("core.classify.interference", || {
            (
                pressure_axis(&m.tolerated, &data.tolerated),
                pressure_axis(&m.caused, &data.caused),
            )
        });

        let axis_us = [up_us, hetero_us, out_us, params_us, pressure_us];
        let wall_us = axis_us.iter().copied().fold(0.0, f64::max);
        let metrics = classify_metrics();
        metrics.classifications.inc();
        for us in axis_us {
            metrics.axis_us.record(us);
        }
        metrics.decision_us.record(wall_us);

        (
            Classification {
                kind,
                scale_up_speed,
                scale_out_speed,
                hetero_speed,
                params_speed,
                tolerated,
                caused,
                runtime_calibration: 1.0,
            },
            wall_us,
        )
    }
}

/// Classifies one speed axis: goal-value observations → ln-speed row →
/// fold-in against the axis model → linear speeds.
fn speed_axis(kind: GoalKind, model: &FoldIn, observed: &[(usize, f64)]) -> Vec<f64> {
    let target: Vec<(usize, f64)> = observed
        .iter()
        .map(|&(c, v)| (c, ln_speed(kind, v)))
        .collect();
    let row = model
        .reconstruct_row(&target)
        .expect("profiling columns lie on the axis and values are finite");
    row.into_iter().map(f64::exp).collect()
}

/// Classifies one interference axis. Pressure values live on a 0–100
/// scale; the axis model was fitted on the history scaled to [0, 1]
/// ([`crate::history::KindModels`]), so observations are scaled down on
/// the way in and predictions back up on the way out. With no
/// observations the estimate falls back to mid-scale everywhere.
pub(crate) fn pressure_axis(model: &FoldIn, observed: &[(usize, f64)]) -> PressureVector {
    if observed.is_empty() {
        return PressureVector::uniform(PressureVector::MAX / 2.0);
    }
    let scaled: Vec<(usize, f64)> = observed
        .iter()
        .map(|&(c, v)| (c, v / PressureVector::MAX))
        .collect();
    let row = model
        .reconstruct_row(&scaled)
        .expect("probed resources lie on the axis and values are finite");
    let mut v = PressureVector::zero();
    for (i, value) in row.into_iter().enumerate() {
        v.set(
            quasar_interference::SharedResource::from_index(i),
            value * PressureVector::MAX,
        );
    }
    v
}

/// The single exhaustive classification the paper compares against
/// (§3.2, "multiple parallel versus single exhaustive classification"):
/// one matrix whose columns are joint (platform × scale-up × scale-out)
/// vectors. More robust to cross-term pathologies, but the column count
/// explodes and decision time rises by orders of magnitude (Fig. 3e).
#[derive(Debug, Clone)]
pub struct ExhaustiveClassifier {
    reconstructor: Reconstructor,
    /// The joint columns: (platform index, scale-up column, scale-out column).
    columns: Vec<(usize, usize, usize)>,
}

impl ExhaustiveClassifier {
    /// Builds the joint column space from the axes, subsampled to keep the
    /// matrix tractable: every platform × a spread of scale-up configs ×
    /// small node counts.
    pub fn new(axes: &Axes) -> ExhaustiveClassifier {
        // The whole scale-up grid joins the cross product: this is what
        // makes the exhaustive scheme's matrices explode (Fig. 3e).
        let su_cols: Vec<usize> = (0..axes.scale_up.len()).collect();
        let so_cols: Vec<usize> = axes
            .scale_out
            .iter()
            .enumerate()
            .filter(|(_, &n)| n <= 4)
            .map(|(i, _)| i)
            .collect();
        let mut columns = Vec::new();
        for p in 0..axes.platforms.len() {
            for &su in &su_cols {
                for &so in &so_cols {
                    columns.push((p, su, so));
                }
            }
        }
        ExhaustiveClassifier {
            reconstructor: Reconstructor::new(),
            columns,
        }
    }

    /// The joint columns.
    pub fn columns(&self) -> &[(usize, usize, usize)] {
        &self.columns
    }

    /// Reconstructs the full joint row from sparse joint observations
    /// (`(column index, ln-speed)`), given a dense joint history.
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty.
    pub fn classify_row(&self, history: &DenseMatrix, observed: &[(usize, f64)]) -> Vec<f64> {
        self.classify_row_timed(history, observed).0
    }

    /// [`ExhaustiveClassifier::classify_row`] plus its wall-clock
    /// decision time in microseconds, recorded as a
    /// `core.classify.exhaustive` span and into the
    /// `quasar.core.classify.exhaustive_us` histogram (Fig. 3e compares
    /// this latency against the parallel scheme's).
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty.
    pub fn classify_row_timed(
        &self,
        history: &DenseMatrix,
        observed: &[(usize, f64)],
    ) -> (Vec<f64>, f64) {
        assert!(!observed.is_empty(), "need at least one observation");
        let (row, us) = timed("core.classify.exhaustive", || {
            self.reconstructor
                .reconstruct_row(history, observed)
                .expect("dense history, non-empty target")
        });
        classify_metrics().exhaustive_us.record(us);
        (row, us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::{managers::NullManager, ClusterSpec, SimConfig, Simulation};
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{Dataset, PlatformCatalog, Priority, WorkloadClass};

    use crate::profile::Profiler;

    /// End-to-end: profile a fresh workload sparsely and check the
    /// classification predicts the (noiseless) ground truth measured
    /// through full profiling.
    #[test]
    fn classification_predicts_unseen_columns() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 12, 77);
        let axes = history.axes().clone();

        let mut sim = Simulation::new(
            ClusterSpec::uniform(catalog.clone(), 1),
            Box::new(NullManager),
            SimConfig {
                noise: 0.0,
                ..SimConfig::default()
            },
        );
        let mut generator = Generator::new(catalog.clone(), 123);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "probe",
            Dataset::new("d", 25.0, 1.1),
            2,
            900.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        sim.submit_at(job, 0.0);
        sim.run_until(5.0);

        let mut profiler = Profiler::new(2, 9);
        let data = profiler.profile(sim.world_mut(), &axes, id);
        let class = Classifier::new().classify(&history, &data);

        // Compare estimated vs measured across the heterogeneity axis.
        let mut errors = Vec::new();
        for (col, &pid) in axes.platforms.iter().enumerate() {
            let config = quasar_cluster::ProfileConfig::single(pid, axes.anchor());
            let actual = sim.world_mut().profile_config(id, &config).value;
            let actual_speed = GoalKind::Time.to_speed(actual);
            let rel = (class.hetero_speed[col] - actual_speed).abs() / actual_speed;
            errors.push(rel);
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            mean_err < 0.30,
            "mean heterogeneity error {mean_err:.2} too high; errors {errors:?}"
        );
    }

    #[test]
    fn empty_interference_observations_fall_back() {
        let catalog = PlatformCatalog::local();
        let history = HistorySet::bootstrap(&catalog, 3, 5);
        let data = ProfilingData {
            kind: GoalKind::Rate,
            scale_up: vec![(0, 100.0)],
            scale_out: vec![],
            hetero: vec![(0, 90.0)],
            params: vec![],
            tolerated: vec![],
            caused: vec![],
            wall_seconds: 1.0,
            total_seconds: 1.0,
        };
        let class = Classifier::new().classify(&history, &data);
        assert!(
            class
                .tolerated
                .get(quasar_interference::SharedResource::Cpu)
                > 0.0
        );
    }

    #[test]
    fn exhaustive_columns_cover_all_platforms() {
        let axes = Axes::for_catalog(&PlatformCatalog::local());
        let ex = ExhaustiveClassifier::new(&axes);
        let platforms: std::collections::BTreeSet<usize> =
            ex.columns().iter().map(|&(p, _, _)| p).collect();
        assert_eq!(platforms.len(), axes.platforms.len());
        assert!(
            ex.columns().len() > axes.scale_up.len(),
            "joint space is bigger than any single axis"
        );
    }
}
