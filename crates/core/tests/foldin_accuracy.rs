//! Accuracy gate for fold-in classification against the SGD oracle.
//!
//! Classification folds each arrival into per-axis models fitted once on
//! the offline history ([`quasar_cf::FoldIn`]). That trades the per-arrival
//! SVD + SGD reconstruction ([`quasar_cf::Reconstructor`]) for a closed-form
//! solve, so its output is no longer bit-identical to the old path; this
//! test bounds what the trade may cost in accuracy instead.
//!
//! Ground truth is a second history bootstrapped with a different seed:
//! its rows are fully profiled workloads the training history never saw.
//! Each held-out row reveals two columns per axis (the profiling density
//! Quasar runs at) and both paths predict the rest from the training
//! history. Errors are relative, in linear speed for the speed axes and
//! against a 5-point floor for pressures, as in Table 2.

use quasar_cf::{DenseMatrix, FoldIn, Reconstructor};
use quasar_core::history::KindHistory;
use quasar_core::par::derive_seed;
use quasar_core::{GoalKind, HistorySet};
use quasar_interference::PressureVector;
use quasar_workloads::PlatformCatalog;

/// Training rows per kind and seed: the manager's defaults.
const TRAIN_ROWS: usize = 24;
const TRAIN_SEED: u64 = 0x9A5A;
/// Held-out rows per kind, from an unrelated seed.
const HELD_OUT_ROWS: usize = 12;
const HELD_OUT_SEED: u64 = 0x00DD_5EED;
/// Columns revealed per held-out row and axis.
const REVEALED: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Space {
    LnSpeed,
    Pressure,
}

/// Mean relative errors of both paths on one axis, pooled over kinds.
#[derive(Default)]
struct AxisErrors {
    fold_in: Vec<f64>,
    sgd: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Two distinct columns of a `cols`-wide axis, drawn from `seed`.
fn revealed_columns(cols: usize, seed: u64) -> Vec<usize> {
    let mut picked = Vec::with_capacity(REVEALED);
    let mut i = 0;
    while picked.len() < REVEALED.min(cols) {
        let c = (derive_seed(seed, i) % cols as u64) as usize;
        if !picked.contains(&c) {
            picked.push(c);
        }
        i += 1;
    }
    picked
}

fn rel_err(space: Space, est: f64, truth: f64) -> f64 {
    match space {
        Space::LnSpeed => (est.exp() - truth.exp()).abs() / truth.exp(),
        Space::Pressure => {
            let (est, truth) = (est * PressureVector::MAX, truth * PressureVector::MAX);
            (est - truth).abs() / truth.max(5.0)
        }
    }
}

/// Scores every held-out row of one axis through both paths.
fn score_axis(
    train: &DenseMatrix,
    model: &FoldIn,
    held_out: &DenseMatrix,
    space: Space,
    seed: u64,
    out: &mut AxisErrors,
) {
    let oracle = Reconstructor::new();
    for r in 0..held_out.rows() {
        let truth = held_out.row(r);
        let cols = revealed_columns(truth.len(), derive_seed(seed, r as u64));
        let target: Vec<(usize, f64)> = cols.iter().map(|&c| (c, truth[c])).collect();
        let fold_row = model.reconstruct_row(&target).expect("valid target");
        let sgd_row = oracle
            .reconstruct_row(train, &target)
            .expect("valid target");
        for c in (0..truth.len()).filter(|c| !cols.contains(c)) {
            out.fold_in.push(rel_err(space, fold_row[c], truth[c]));
            out.sgd.push(rel_err(space, sgd_row[c], truth[c]));
        }
    }
}

fn unit_scaled(m: &DenseMatrix) -> DenseMatrix {
    DenseMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) / PressureVector::MAX)
}

/// `(axis name, training matrix, model, held-out matrix, space)` for
/// every axis one kind has. Pressure matrices are unit-scaled, the space
/// both the models and the classifier work in.
fn axes_of<'a>(
    train: &'a KindHistory,
    held: &'a KindHistory,
) -> Vec<(&'static str, DenseMatrix, &'a FoldIn, DenseMatrix, Space)> {
    let m = &train.models;
    let mut axes = vec![
        (
            "scale_up",
            train.scale_up.clone(),
            &m.scale_up,
            held.scale_up.clone(),
            Space::LnSpeed,
        ),
        (
            "hetero",
            train.hetero.clone(),
            &m.hetero,
            held.hetero.clone(),
            Space::LnSpeed,
        ),
        (
            "tolerated",
            unit_scaled(&train.tolerated),
            &m.tolerated,
            unit_scaled(&held.tolerated),
            Space::Pressure,
        ),
        (
            "caused",
            unit_scaled(&train.caused),
            &m.caused,
            unit_scaled(&held.caused),
            Space::Pressure,
        ),
    ];
    if let (Some(t), Some(model), Some(h)) = (&train.scale_out, &m.scale_out, &held.scale_out) {
        axes.push(("scale_out", t.clone(), model, h.clone(), Space::LnSpeed));
    }
    if let (Some(t), Some(model), Some(h)) = (&train.params, &m.params, &held.params) {
        axes.push(("params", t.clone(), model, h.clone(), Space::LnSpeed));
    }
    axes
}

/// Per-axis ceiling on how much worse (in absolute error points) the
/// fold-in's mean error may be than the SGD oracle's. The speed axes
/// get the pooled bound; the pressure axes are where the fold-in trails
/// the oracle (caused pressure by about 6 points on this split), and
/// their bounds hold that measured gap rather than hide it.
fn axis_tolerance(axis: &str) -> f64 {
    match axis {
        "tolerated" => 0.02,
        "caused" => 0.07,
        _ => 0.01,
    }
}

#[test]
fn fold_in_error_stays_within_per_axis_bounds_of_sgd_on_held_out_rows() {
    let catalog = PlatformCatalog::local();
    let train = HistorySet::bootstrap(&catalog, TRAIN_ROWS, TRAIN_SEED);
    let held = HistorySet::bootstrap(&catalog, HELD_OUT_ROWS, HELD_OUT_SEED);

    let names = [
        "scale_up",
        "scale_out",
        "hetero",
        "params",
        "tolerated",
        "caused",
    ];
    let mut per_axis: Vec<AxisErrors> = names.iter().map(|_| AxisErrors::default()).collect();
    for (k, kind) in GoalKind::ALL.into_iter().enumerate() {
        for (a, (name, train_m, model, held_m, space)) in axes_of(train.kind(kind), held.kind(kind))
            .into_iter()
            .enumerate()
        {
            let slot = names.iter().position(|n| *n == name).expect("known axis");
            let seed = derive_seed(0xACC, (k * 16 + a) as u64);
            score_axis(&train_m, model, &held_m, space, seed, &mut per_axis[slot]);
        }
    }

    let mut pooled = AxisErrors::default();
    for (name, errors) in names.iter().zip(&per_axis) {
        let (fold, sgd) = (mean(&errors.fold_in), mean(&errors.sgd));
        eprintln!(
            "{name:>10}: fold-in {:5.1}%  sgd {:5.1}%  ({} cells)",
            fold * 100.0,
            sgd * 100.0,
            errors.fold_in.len()
        );
        assert!(
            fold <= sgd + axis_tolerance(name),
            "{name}: fold-in {fold:.4} vs sgd {sgd:.4}"
        );
        pooled.fold_in.extend_from_slice(&errors.fold_in);
        pooled.sgd.extend_from_slice(&errors.sgd);
    }
    let (fold, sgd) = (mean(&pooled.fold_in), mean(&pooled.sgd));
    eprintln!(
        "    pooled: fold-in {:5.1}%  sgd {:5.1}%",
        fold * 100.0,
        sgd * 100.0
    );
    assert!(
        fold <= sgd + 0.01,
        "pooled: fold-in {fold:.4} vs sgd {sgd:.4}"
    );
}
