//! Table 2: validation of the classification engine — average, 90th
//! percentile, and maximum relative errors per application class and per
//! classification (plus the single exhaustive classification).

use std::fmt;

use quasar_core::par::par_map_seeded;

use crate::report::{maximum, mean, percentile, TextTable};
use crate::validate::{AppClass, ErrorSamples, Validator};
use crate::{local_history, Scale};

/// avg / 90th / max summary of one error-sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorSummary {
    /// Mean relative error.
    pub avg: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
    /// Maximum relative error.
    pub max: f64,
}

impl ErrorSummary {
    /// Summarizes raw samples.
    pub fn of(samples: &[f64]) -> ErrorSummary {
        ErrorSummary {
            avg: mean(samples),
            p90: percentile(samples, 0.90),
            max: maximum(samples),
        }
    }
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application class name.
    pub app: String,
    /// Number of validated workloads.
    pub count: usize,
    /// Scale-up classification errors.
    pub scale_up: ErrorSummary,
    /// Scale-out classification errors (`None` for single-node).
    pub scale_out: Option<ErrorSummary>,
    /// Heterogeneity classification errors.
    pub hetero: ErrorSummary,
    /// Interference classification errors.
    pub interference: ErrorSummary,
    /// Single exhaustive classification errors.
    pub exhaustive: ErrorSummary,
}

/// The Table 2 dataset.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One row per application class.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// The worst average error across classes and the four parallel
    /// classifications (the paper quotes < 8% on average).
    pub fn worst_parallel_avg(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| {
                [
                    r.scale_up.avg,
                    r.scale_out.map(|s| s.avg).unwrap_or(0.0),
                    r.hetero.avg,
                    r.interference.avg,
                ]
            })
            .fold(0.0, f64::max)
    }
}

/// The validated application classes and how many workloads of each.
fn classes(scale: Scale) -> [(AppClass, usize); 4] {
    let (per_class, single_node) = match scale {
        Scale::Quick => (6, 20),
        Scale::Full => (10, 413),
    };
    [
        (AppClass::Hadoop, per_class),
        (AppClass::Memcached, per_class),
        (AppClass::Webserver, per_class),
        (AppClass::SingleNode, single_node),
    ]
}

/// The seed a class's workload items derive their own seeds from.
fn sweep_seed(app: AppClass) -> u64 {
    0x7AB2u64 ^ ((app as u64) << 32)
}

/// Runs the validation serially (equivalent to `run_with(scale, 1)`).
pub fn run(scale: Scale) -> Table2Result {
    run_with(scale, 1)
}

/// Runs the validation, fanning workloads out over up to `threads`
/// workers. Each workload item is validated in its own twin worlds with
/// RNG streams seeded from `(sweep seed, item index)` alone, so the
/// result is bit-identical for every thread count.
pub fn run_with(scale: Scale, threads: usize) -> Table2Result {
    let validator = Validator::new(local_history(), 0x7AB2);

    let mut rows = Vec::new();
    for (app, count) in classes(scale) {
        let per_item = par_map_seeded(
            threads,
            sweep_seed(app),
            (0..count).collect(),
            |i, seed, _| {
                let workload = validator.generate(app, i);
                validator.validate_item(seed, workload, 2, true)
            },
        );
        let mut samples = ErrorSamples::default();
        for s in &per_item {
            samples.merge(s);
        }
        rows.push(Table2Row {
            app: format!("{} ({count})", app.name()),
            count,
            scale_up: ErrorSummary::of(&samples.scale_up),
            scale_out: if samples.scale_out.is_empty() {
                None
            } else {
                Some(ErrorSummary::of(&samples.scale_out))
            },
            hetero: ErrorSummary::of(&samples.hetero),
            interference: ErrorSummary::of(&samples.interference),
            exhaustive: ErrorSummary::of(&samples.exhaustive),
        });
    }

    Table2Result { rows }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            TextTable::new("Table 2: classification errors (relative, %) — avg / 90th / max")
                .header([
                    "app",
                    "scale-up",
                    "scale-out",
                    "heterogeneity",
                    "interference",
                    "exhaustive(8/row)",
                ]);
        let cell = |s: &ErrorSummary| {
            format!(
                "{:.1}/{:.1}/{:.1}",
                s.avg * 100.0,
                s.p90 * 100.0,
                s.max * 100.0
            )
        };
        for r in &self.rows {
            t.row([
                r.app.clone(),
                cell(&r.scale_up),
                r.scale_out
                    .as_ref()
                    .map(&cell)
                    .unwrap_or_else(|| "-".into()),
                cell(&r.hetero),
                cell(&r.interference),
                cell(&r.exhaustive),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use quasar_cf::{DenseMatrix, Reconstructor};
    use quasar_core::history::ln_speed;
    use quasar_core::{Classification, HistorySet, ProfilingData};
    use quasar_interference::{PressureVector, SharedResource};

    use super::*;

    /// The per-arrival SVD + SGD reconstruction the fold-in replaced, kept
    /// as the accuracy oracle: one [`Reconstructor`] run per axis over the
    /// kind's history plus the profiled row (pressures in unit scale).
    /// Only the axes Table 2 scores are reconstructed.
    fn sgd_classification(history: &HistorySet, data: &ProfilingData) -> Classification {
        let h = history.kind(data.kind);
        let sgd = Reconstructor::new();
        let speed = |m: &DenseMatrix, observed: &[(usize, f64)]| -> Vec<f64> {
            let target: Vec<(usize, f64)> = observed
                .iter()
                .map(|&(c, v)| (c, ln_speed(data.kind, v)))
                .collect();
            let row = sgd
                .reconstruct_row(m, &target)
                .expect("valid profiling row");
            row.into_iter().map(f64::exp).collect()
        };
        let unit = |m: &DenseMatrix| {
            DenseMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) / PressureVector::MAX)
        };
        let target: Vec<(usize, f64)> = data
            .tolerated
            .iter()
            .map(|&(c, v)| (c, v / PressureVector::MAX))
            .collect();
        let row = sgd
            .reconstruct_row(&unit(&h.tolerated), &target)
            .expect("valid profiling row");
        let mut tolerated = PressureVector::zero();
        for (i, v) in row.into_iter().enumerate() {
            tolerated.set(SharedResource::from_index(i), v * PressureVector::MAX);
        }
        Classification {
            kind: data.kind,
            scale_up_speed: speed(&h.scale_up, &data.scale_up),
            scale_out_speed: h
                .scale_out
                .as_ref()
                .filter(|_| !data.scale_out.is_empty())
                .map(|m| speed(m, &data.scale_out)),
            hetero_speed: speed(&h.hetero, &data.hetero),
            params_speed: None,
            tolerated,
            caused: PressureVector::zero(),
            runtime_calibration: 1.0,
        }
    }

    /// Accuracy gate on the Table 2 path: the quick-scale workloads,
    /// profiled at density 2 in noisy worlds, are classified by the
    /// fold-in and by the SGD oracle and scored against the same ground
    /// truth. Each axis's error is averaged over the class rows as
    /// Table 2 reports it. The fold-in may trail the oracle by at most
    /// the stated points per axis: scale-up and interference are where
    /// it trails (by about 5.7 and 2.2 points), and their bounds hold
    /// that measured gap with a point of margin rather than hide it.
    #[test]
    fn fold_in_table2_errors_stay_within_per_axis_bounds_of_sgd() {
        let validator = Validator::new(local_history(), 0x7AB2);
        let history = validator.history();
        let axes = ["scale-up", "scale-out", "hetero", "interference"];
        let bounds = [0.07, 0.01, 0.01, 0.03];
        // Per axis, one (fold-in, SGD) average per class row.
        let mut rows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); axes.len()];
        for (app, count) in classes(Scale::Quick) {
            let (mut fold, mut sgd) = (ErrorSamples::default(), ErrorSamples::default());
            for i in 0..count {
                let seed = quasar_core::par::derive_seed(sweep_seed(app), i as u64);
                let workload = validator.generate(app, i);
                fold.merge(&validator.validate_item(seed, workload.clone(), 2, false));
                sgd.merge(
                    &validator.validate_item_with(seed, workload, 2, false, |data| {
                        (sgd_classification(history, data), 0.0)
                    }),
                );
            }
            // Single-node rows have no scale-out samples (Table 2's `-`).
            let per_axis = |e: &ErrorSamples| {
                [&e.scale_up, &e.scale_out, &e.hetero, &e.interference]
                    .map(|v| (!v.is_empty()).then(|| mean(v)))
            };
            for (a, pair) in per_axis(&fold).into_iter().zip(per_axis(&sgd)).enumerate() {
                if let (Some(f), Some(s)) = pair {
                    rows[a].push((f, s));
                }
            }
        }

        let avg = |v: &[(f64, f64)]| {
            let n = v.len().max(1) as f64;
            let (f, s) = v.iter().fold((0.0, 0.0), |(f, s), &(a, b)| (f + a, s + b));
            (f / n, s / n)
        };
        for ((name, bound), cells) in axes.iter().zip(bounds).zip(&rows) {
            let (fold, sgd) = avg(cells);
            eprintln!(
                "{name:>12}: fold-in {:5.1}%  sgd {:5.1}%",
                fold * 100.0,
                sgd * 100.0
            );
            assert!(
                fold <= sgd + bound,
                "{name}: fold-in {fold:.4} vs sgd {sgd:.4} (bound +{bound})"
            );
        }
        let all: Vec<(f64, f64)> = rows.concat();
        let (fold, sgd) = avg(&all);
        eprintln!(
            "     overall: fold-in {:5.1}%  sgd {:5.1}%",
            fold * 100.0,
            sgd * 100.0
        );
        assert!(
            fold <= sgd + 0.01,
            "overall: fold-in {fold:.4} vs sgd {sgd:.4}"
        );
    }

    /// Sweep-level determinism: validating a batch of workloads on 4
    /// worker threads produces bit-identical error samples to 1 thread.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let validator = Validator::new(local_history(), 0x7AB2);
        let sweep = |threads: usize| {
            par_map_seeded(threads, 0xD15C, (0..6).collect(), |i, seed, _| {
                let workload = validator.generate(AppClass::SingleNode, i);
                validator.validate_item(seed, workload, 2, false)
            })
        };
        let serial = sweep(1);
        let parallel = sweep(4);
        assert_eq!(serial.len(), parallel.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(bits(&s.scale_up), bits(&p.scale_up));
            assert_eq!(bits(&s.hetero), bits(&p.hetero));
            assert_eq!(bits(&s.interference), bits(&p.interference));
            assert_eq!(bits(&s.profile_wall_s), bits(&p.profile_wall_s));
        }
    }

    #[test]
    fn classification_errors_are_small() {
        let r = run(Scale::Quick);
        assert_eq!(r.rows.len(), 4);
        // The paper's average errors are < 8%; the simulated substrate's
        // response surfaces are deliberately more violent (memory cliffs,
        // in-memory bonuses), so the bound here is looser — what matters
        // is that every classification is usefully accurate and that the
        // well-structured axes (heterogeneity, interference) are tight.
        let worst = r.worst_parallel_avg();
        assert!(
            worst < 0.55,
            "worst avg parallel error {:.1}%",
            worst * 100.0
        );
        for row in &r.rows {
            assert!(
                row.hetero.avg < 0.25,
                "{}: hetero avg {:.1}%",
                row.app,
                row.hetero.avg * 100.0
            );
            assert!(
                row.interference.avg < 0.25,
                "{}: interference avg {:.1}%",
                row.app,
                row.interference.avg * 100.0
            );
        }
        // Single-node has no scale-out column.
        assert!(r.rows[3].scale_out.is_none());
        assert!(r.rows[0].scale_out.is_some());
    }
}
