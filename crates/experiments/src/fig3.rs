//! Figure 3: sensitivity of classification accuracy to input-matrix
//! density (panels a–d) and the profiling/decision overheads as density
//! grows, including four-parallel vs exhaustive decision time (panel e).

use std::fmt;

use quasar_core::par::par_map_seeded;

use crate::report::{mean, percentile, write_csv, TextTable};
use crate::validate::{AppClass, ErrorSamples, Validator};
use crate::{local_history, Scale};

/// Error/overhead measurements at one density point for one app class.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// Entries per input-matrix row.
    pub density: usize,
    /// 90th-percentile error per axis: scale-up, scale-out,
    /// heterogeneity, interference (NaN-free; 0 where the axis is absent).
    pub p90_scale_up: f64,
    /// Scale-out 90th-percentile error.
    pub p90_scale_out: f64,
    /// Heterogeneity 90th-percentile error.
    pub p90_hetero: f64,
    /// Interference 90th-percentile error.
    pub p90_interference: f64,
    /// Mean profiling wall-clock seconds per workload.
    pub profile_s: f64,
    /// Mean 4-parallel decision time, microseconds.
    pub decide_us_parallel: f64,
    /// Mean exhaustive decision time, microseconds.
    pub decide_us_exhaustive: f64,
}

/// The Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Per app class: the density sweep.
    pub sweeps: Vec<(String, Vec<DensityPoint>)>,
}

impl Fig3Result {
    /// Whether errors at density 2 are at most those at density 1, per
    /// class (the paper's "two or more entries per row" finding).
    pub fn density_two_improves(&self) -> bool {
        self.sweeps.iter().all(|(_, points)| {
            let d1 = points.iter().find(|p| p.density == 1);
            let d2 = points.iter().find(|p| p.density == 2);
            match (d1, d2) {
                (Some(a), Some(b)) => b.p90_scale_up <= a.p90_scale_up * 1.05,
                _ => true,
            }
        })
    }
}

/// Runs the density sweep serially (equivalent to `run_with(scale, 1)`).
pub fn run(scale: Scale) -> Fig3Result {
    run_with(scale, 1)
}

/// Runs the density sweep, fanning the per-point workloads out over up
/// to `threads` workers (bit-identical to serial for any count).
///
/// The comparison across densities is *paired*: density point `d` of an
/// app class validates the same workloads with the same per-item seeds
/// as every other density point, so the matrix density is the only
/// variable. (An earlier version drew fresh workloads per density; with
/// a handful of samples per point, cross-density noise then swamped the
/// density effect itself.)
pub fn run_with(scale: Scale, threads: usize) -> Fig3Result {
    let (densities, per_point): (&[usize], usize) = match scale {
        Scale::Quick => (&[1, 2, 4], 4),
        Scale::Full => (&[1, 2, 3, 4, 5, 6, 8], 8),
    };
    let apps = [AppClass::Hadoop, AppClass::Memcached, AppClass::SingleNode];

    let mut sweeps = Vec::new();
    for app in apps {
        let validator = Validator::new(local_history(), 0xF163 ^ app as u64);
        let sweep_seed = 0xF163u64 ^ ((app as u64) << 32);
        let mut points = Vec::new();
        for &d in densities {
            // Same items, same item seeds at every density.
            let per_item = par_map_seeded(
                threads,
                sweep_seed,
                (0..per_point).collect(),
                |i, seed, _| {
                    let workload = validator.generate(app, i);
                    // Exhaustive timing is only needed once per density point.
                    validator.validate_item(seed, workload, d, i == 0)
                },
            );
            let mut samples = ErrorSamples::default();
            for s in &per_item {
                samples.merge(s);
            }
            points.push(DensityPoint {
                density: d,
                p90_scale_up: percentile(&samples.scale_up, 0.90),
                p90_scale_out: percentile(&samples.scale_out, 0.90),
                p90_hetero: percentile(&samples.hetero, 0.90),
                p90_interference: percentile(&samples.interference, 0.90),
                profile_s: mean(&samples.profile_wall_s),
                decide_us_parallel: mean(&samples.decide_us_parallel),
                decide_us_exhaustive: mean(&samples.decide_us_exhaustive),
            });
        }
        sweeps.push((app.name().to_string(), points));
    }

    // The decision-time columns are live wall-clock measurements — the
    // one thing in this CSV not derived from the seeds. Masked runs
    // (the CI smokes, which `git diff` the tracked CSVs after a quick
    // rerun) write them as NaN so the file is byte-identical across
    // machines, thread counts, and kernel speeds; unmasked local runs
    // keep the real timings.
    let mask = crate::report::mask_live_timings();
    let live = |v: f64| if mask { f64::NAN } else { v };
    let rows: Vec<Vec<f64>> = sweeps
        .iter()
        .enumerate()
        .flat_map(|(a, (_, points))| {
            points.iter().map(move |p| {
                vec![
                    a as f64,
                    p.density as f64,
                    p.p90_scale_up,
                    p.p90_hetero,
                    p.p90_interference,
                    p.profile_s,
                    live(p.decide_us_parallel),
                    live(p.decide_us_exhaustive),
                ]
            })
        })
        .collect();
    write_csv(
        "fig3",
        "density_sweep",
        &[
            "app",
            "density",
            "p90_scale_up",
            "p90_hetero",
            "p90_interference",
            "profile_s",
            "decide_us_4p",
            "decide_us_exh",
        ],
        &rows,
    );

    Fig3Result { sweeps }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Fig.3 classification error (90th pct, %) and overheads vs matrix density",
        )
        .header([
            "app",
            "density",
            "scale-up",
            "scale-out",
            "hetero",
            "interference",
            "profile s",
            "decide 4p us",
            "decide exh us",
        ]);
        // Decision times are the one live wall-clock measurement in any
        // report; mask them when stdout must be reproducible (e.g. the
        // CI smoke comparing `--threads` values).
        let mask = crate::report::mask_live_timings();
        let us = |v: f64| {
            if mask {
                "-".to_string()
            } else {
                format!("{v:.0}")
            }
        };
        for (app, points) in &self.sweeps {
            for p in points {
                t.row([
                    app.clone(),
                    p.density.to_string(),
                    format!("{:.1}", p.p90_scale_up * 100.0),
                    format!("{:.1}", p.p90_scale_out * 100.0),
                    format!("{:.1}", p.p90_hetero * 100.0),
                    format!("{:.1}", p.p90_interference * 100.0),
                    format!("{:.0}", p.profile_s),
                    us(p.decide_us_parallel),
                    us(p.decide_us_exhaustive),
                ]);
            }
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_expected_shape() {
        let r = run(Scale::Quick);
        assert_eq!(r.sweeps.len(), 3);
        for (_, points) in &r.sweeps {
            assert_eq!(points.len(), 3);
            // Profiling cost grows with density.
            assert!(points.last().unwrap().profile_s >= points.first().unwrap().profile_s);
        }
        assert!(r.density_two_improves());
    }

    #[test]
    fn exhaustive_decisions_are_slower() {
        let r = run(Scale::Quick);
        // The paper reports ~two orders of magnitude; require clearly
        // slower.
        for (app, points) in &r.sweeps {
            let p = &points[0];
            assert!(
                p.decide_us_exhaustive > p.decide_us_parallel,
                "{app}: exhaustive {}us vs 4p {}us",
                p.decide_us_exhaustive,
                p.decide_us_parallel
            );
        }
    }
}
