//! Property-based tests for the collaborative-filtering engine.

use proptest::prelude::*;

use quasar_cf::kernel::{rotate_cols, rotate_cols_scalar};
use quasar_cf::reference::{svd_reference, train_reference};
use quasar_cf::{
    svd, svd_in, CfScratch, DenseMatrix, FoldIn, PqModel, ReconstructError, Reconstructor,
    SgdConfig, SparseMatrix,
};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: a small dense matrix with bounded entries.
fn dense_matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SVD must reconstruct any matrix to numerical precision, and the
    /// singular values must be sorted and non-negative.
    #[test]
    fn svd_reconstructs_any_matrix(a in dense_matrix(8)) {
        let d = svd(&a);
        let err = d.reconstruct().max_abs_diff(&a);
        prop_assert!(err < 1e-6, "reconstruction error {err}");
        for w in d.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        for s in &d.singular_values {
            prop_assert!(*s >= 0.0);
        }
    }

    /// The energy-rank is monotone in the requested energy and within the
    /// matrix dimensions.
    #[test]
    fn rank_for_energy_is_monotone_and_bounded(a in dense_matrix(8), e1 in 0.0..1.0f64, e2 in 0.0..1.0f64) {
        let d = svd(&a);
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(d.rank_for_energy(lo) <= d.rank_for_energy(hi));
        prop_assert!(d.rank_for_energy(hi) <= d.singular_values.len().max(1));
        prop_assert!(d.rank_for_energy(lo) >= 1);
    }

    /// A rank-1 matrix observed at high density is recovered usefully
    /// everywhere by the full reconstruction pipeline. (Columns with no
    /// coverage at all are unrecoverable in principle, so the mask keeps
    /// every row and column well observed.)
    #[test]
    fn reconstructor_recovers_rank_one(
        row_f in proptest::collection::vec(0.5..3.0f64, 6),
        col_f in proptest::collection::vec(0.5..3.0f64, 6),
        mask in proptest::collection::vec(0u8..100, 36),
    ) {
        let truth = DenseMatrix::from_fn(6, 6, |r, c| row_f[r] * col_f[c]);
        let mut sparse = SparseMatrix::new(6, 6);
        let mut per_row = [0usize; 6];
        let mut per_col = [0usize; 6];
        for r in 0..6 {
            for c in 0..6 {
                // ~70% density plus the two diagonals for coverage.
                if mask[r * 6 + c] < 70 || c == r || (c + 1) % 6 == r {
                    sparse.insert(r, c, truth.get(r, c));
                    per_row[r] += 1;
                    per_col[c] += 1;
                }
            }
        }
        prop_assume!(per_row.iter().all(|&n| n >= 3));
        prop_assume!(per_col.iter().all(|&n| n >= 3));
        let dense = Reconstructor::new().reconstruct(&sparse);
        // Two robust properties: the typical relative error is bounded,
        // and collaborative filtering is never much worse than the naive
        // column-mean predictor (and usually far better) — the value
        // proposition the classification engine rests on.
        let rms = |pred: &dyn Fn(usize, usize) -> f64| -> f64 {
            let mut sum_sq = 0.0;
            for r in 0..6 {
                for c in 0..6 {
                    let rel = (pred(r, c) - truth.get(r, c)).abs() / truth.get(r, c);
                    sum_sq += rel * rel;
                }
            }
            (sum_sq / 36.0).sqrt()
        };
        let cf_rms = rms(&|r, c| dense.get(r, c));
        let col_means = sparse.col_means();
        let global = sparse.mean().unwrap_or(0.0);
        let mean_rms = rms(&|_, c| col_means[c].unwrap_or(global));
        prop_assert!(cf_rms < 1.5, "cf rms {cf_rms}");
        prop_assert!(
            cf_rms <= mean_rms * 1.10 + 1e-9,
            "cf rms {cf_rms} vs column-mean rms {mean_rms}"
        );
    }

    /// PQ training never produces non-finite predictions on bounded data.
    #[test]
    fn pq_predictions_are_finite(
        entries in proptest::collection::vec((0usize..5, 0usize..7, -5.0..5.0f64), 6..30)
    ) {
        let mut a = SparseMatrix::new(5, 7);
        for (r, c, v) in entries {
            a.insert(r, c, v);
        }
        prop_assume!(!a.is_empty());
        let model = PqModel::train(&a, &SgdConfig::default());
        for r in 0..5 {
            for c in 0..7 {
                prop_assert!(model.predict(r, c).is_finite());
            }
        }
    }

    /// Observed entries always survive reconstruction verbatim.
    #[test]
    fn observed_entries_are_authoritative(
        entries in proptest::collection::vec((0usize..4, 0usize..4, -3.0..3.0f64), 4..16)
    ) {
        let mut a = SparseMatrix::new(4, 4);
        for (r, c, v) in &entries {
            a.insert(*r, *c, *v);
        }
        let dense = Reconstructor::new().reconstruct(&a);
        for (r, c, v) in a.iter() {
            prop_assert_eq!(dense.get(r, c), v);
        }
    }

    /// The flat-slice Jacobi kernel must match the frozen scalar-loop
    /// reference **bit-for-bit** on every shape — tall, wide, square —
    /// including `U`, `Σ`, and `V`, not just the reconstruction. This is
    /// the contract that keeps every tracked figure CSV byte-identical.
    #[test]
    fn svd_is_bit_identical_to_reference(a in dense_matrix(10)) {
        let fast = svd(&a);
        let slow = svd_reference(&a);
        prop_assert_eq!(bits(&fast.singular_values), bits(&slow.singular_values));
        prop_assert_eq!(bits(fast.u.as_slice()), bits(slow.u.as_slice()));
        prop_assert_eq!(bits(fast.v.as_slice()), bits(slow.v.as_slice()));
        prop_assert_eq!(
            bits(fast.reconstruct().as_slice()),
            bits(slow.reconstruct().as_slice())
        );
    }

    /// The fused SGD kernel must train to a bit-identical model across
    /// densities: same rank, same epoch count, same residual bits, and
    /// bit-identical predictions everywhere.
    #[test]
    fn sgd_training_is_bit_identical_to_reference(
        entries in proptest::collection::vec((0usize..7, 0usize..9, -5.0..5.0f64), 5..63),
        max_rank in 1usize..6,
    ) {
        let mut a = SparseMatrix::new(7, 9);
        for (r, c, v) in entries {
            a.insert(r, c, v);
        }
        prop_assume!(!a.is_empty());
        // Cap epochs to keep 64 proptest cases fast; op order per epoch
        // is what the contract is about.
        let config = SgdConfig { max_epochs: 60, max_rank, ..SgdConfig::default() };
        let fast = PqModel::train(&a, &config);
        let slow = train_reference(&a, &config);
        prop_assert_eq!(fast.rank(), slow.rank());
        prop_assert_eq!(fast.epochs_run(), slow.epochs_run());
        prop_assert_eq!(fast.final_residual().to_bits(), slow.final_residual().to_bits());
        prop_assert_eq!(
            bits(fast.predict_all().as_slice()),
            bits(slow.predict_all().as_slice())
        );
    }

    /// Bulk construction from dense rows is exactly per-cell insertion.
    #[test]
    fn from_dense_rows_matches_per_cell_insertion(a in dense_matrix(8)) {
        let bulk = SparseMatrix::from_dense_rows(&a);
        let mut cellwise = SparseMatrix::new(a.rows(), a.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                cellwise.insert(r, c, a.get(r, c));
            }
        }
        prop_assert_eq!(&bulk, &cellwise);
        prop_assert_eq!(bulk.len(), a.rows() * a.cols());
        prop_assert_eq!(
            bits(bulk.to_dense_filled().as_slice()),
            bits(cellwise.to_dense_filled().as_slice())
        );
    }

    /// The 4-lane blocked rotation must match the scalar loop bitwise on
    /// every column length in `0..64` — covering every `chunks_exact`
    /// remainder class many times over. Rotations are elementwise
    /// (order-free per DESIGN.md §4f), so blocking them must not move a
    /// single bit.
    #[test]
    fn blocked_rotation_is_bit_identical_to_scalar(
        len in 0usize..64,
        p_seed in proptest::collection::vec(-10.0..10.0f64, 64),
        q_seed in proptest::collection::vec(-10.0..10.0f64, 64),
        theta in -3.2..3.2f64,
    ) {
        let (c, s) = (theta.cos(), theta.sin());
        let mut p_blocked = p_seed[..len].to_vec();
        let mut q_blocked = q_seed[..len].to_vec();
        let mut p_scalar = p_blocked.clone();
        let mut q_scalar = q_blocked.clone();
        rotate_cols(&mut p_blocked, &mut q_blocked, c, s);
        rotate_cols_scalar(&mut p_scalar, &mut q_scalar, c, s);
        prop_assert_eq!(bits(&p_blocked), bits(&p_scalar));
        prop_assert_eq!(bits(&q_blocked), bits(&q_scalar));
    }

    /// An arena warmed (and dirtied) by a decomposition of one matrix
    /// must decompose the next matrix to exactly the bits a fresh arena
    /// produces: scratch contents can never leak into results.
    #[test]
    fn scratch_reuse_never_changes_svd_bits(warm in dense_matrix(8), a in dense_matrix(8)) {
        let mut warmed = CfScratch::new();
        let first = svd_in(&warm, &mut warmed);
        warmed.recycle_svd(first);
        let reused = svd_in(&a, &mut warmed);
        let fresh = svd_in(&a, &mut CfScratch::new());
        prop_assert_eq!(bits(&reused.singular_values), bits(&fresh.singular_values));
        prop_assert_eq!(bits(reused.u.as_slice()), bits(fresh.u.as_slice()));
        prop_assert_eq!(bits(reused.v.as_slice()), bits(fresh.v.as_slice()));
    }

    /// Same contract for full training: a recycled arena (model and SVD
    /// buffers included) trains a bit-identical model.
    #[test]
    fn scratch_reuse_never_changes_training_bits(
        warm_entries in proptest::collection::vec((0usize..6, 0usize..5, -5.0..5.0f64), 4..20),
        entries in proptest::collection::vec((0usize..7, 0usize..6, -5.0..5.0f64), 5..30),
        max_rank in 1usize..6,
    ) {
        let mut warm = SparseMatrix::new(6, 5);
        for (r, c, v) in warm_entries {
            warm.insert(r, c, v);
        }
        let mut a = SparseMatrix::new(7, 6);
        for (r, c, v) in entries {
            a.insert(r, c, v);
        }
        prop_assume!(!warm.is_empty() && !a.is_empty());
        let config = SgdConfig { max_epochs: 40, max_rank, ..SgdConfig::default() };
        let mut warmed = CfScratch::new();
        let first = PqModel::train_in(&warm, &config, &mut warmed);
        warmed.recycle_model(first);
        let reused = PqModel::train_in(&a, &config, &mut warmed);
        let fresh = PqModel::train_in(&a, &config, &mut CfScratch::new());
        prop_assert_eq!(reused.rank(), fresh.rank());
        prop_assert_eq!(reused.epochs_run(), fresh.epochs_run());
        prop_assert_eq!(
            reused.final_residual().to_bits(),
            fresh.final_residual().to_bits()
        );
        prop_assert_eq!(
            bits(reused.predict_all().as_slice()),
            bits(fresh.predict_all().as_slice())
        );
    }

    /// End-to-end: a `reconstruct_row` on a thread whose default arena
    /// has already served unrelated reconstructions returns exactly the
    /// bits a pristine thread (fresh arena, fresh memo) returns.
    #[test]
    fn reconstruct_row_bits_do_not_depend_on_arena_state(
        warm_h in dense_matrix(6),
        h in dense_matrix(6),
        t0 in -5.0..5.0f64,
        t1 in -5.0..5.0f64,
    ) {
        let config = SgdConfig { max_epochs: 30, ..SgdConfig::default() };
        let target = [(0usize, t0), (h.cols() - 1, t1)];
        // Dirty this thread's arena at an unrelated shape.
        let _ = Reconstructor::new()
            .with_config(config)
            .reconstruct_row(&warm_h, &[(0, 1.25)]);
        let on_warm_arena = Reconstructor::new()
            .with_config(config)
            .reconstruct_row(&h, &target)
            .unwrap();
        let on_fresh_thread = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    Reconstructor::new()
                        .with_config(config)
                        .reconstruct_row(&h, &target)
                        .unwrap()
                })
                .join()
                .unwrap()
        });
        prop_assert_eq!(bits(&on_warm_arena), bits(&on_fresh_thread));
    }

    /// Sparse-matrix bookkeeping: density matches unique cells.
    #[test]
    fn sparse_density_counts_unique_cells(
        entries in proptest::collection::vec((0usize..5, 0usize..5, 0.0..1.0f64), 0..40)
    ) {
        let mut a = SparseMatrix::new(5, 5);
        let mut unique = std::collections::BTreeSet::new();
        for (r, c, v) in &entries {
            a.insert(*r, *c, *v);
            unique.insert((*r, *c));
        }
        prop_assert_eq!(a.len(), unique.len());
        prop_assert!((a.density() - unique.len() as f64 / 25.0).abs() < 1e-12);
    }
}

/// Maps raw `(column seed, value)` pairs onto distinct columns of a
/// `cols`-wide row (later duplicates of a column are dropped).
fn distinct_target(cols: usize, raw: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut seen = std::collections::BTreeSet::new();
    raw.iter()
        .map(|&(c, v)| (c % cols, v))
        .filter(|&(c, _)| seen.insert(c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding in any finite sparse row yields a finite row inside the
    /// clamp range (history and target range widened by 25% per side),
    /// with every observed cell returned bit for bit.
    #[test]
    fn fold_in_output_is_finite_clamped_and_keeps_observations(
        h in dense_matrix(8),
        raw in proptest::collection::vec((0usize..64, -40.0..40.0f64), 1..6),
    ) {
        let model = FoldIn::fit(&h).unwrap();
        let target = distinct_target(h.cols(), &raw);
        let row = model.reconstruct_row(&target).unwrap();
        prop_assert_eq!(row.len(), h.cols());
        let values = h.as_slice().iter().copied().chain(target.iter().map(|&(_, v)| v));
        let (lo, hi) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), v| (l.min(v), u.max(v)));
        let span = (hi - lo).max(1e-12);
        for v in &row {
            prop_assert!(v.is_finite());
            prop_assert!(*v >= lo - 0.25 * span && *v <= hi + 0.25 * span, "{v} outside [{lo}, {hi}]");
        }
        for &(c, v) in &target {
            prop_assert_eq!(row[c].to_bits(), v.to_bits());
        }
    }

    /// Bad targets are errors, never panics or NaN: a column past the
    /// model's width, or any non-finite value anywhere in the target.
    #[test]
    fn fold_in_rejects_bad_targets(
        h in dense_matrix(6),
        raw in proptest::collection::vec((0usize..64, -40.0..40.0f64), 1..4),
        past in 0usize..10,
        bad_at in 0usize..4,
        which in 0usize..3,
    ) {
        let model = FoldIn::fit(&h).unwrap();
        let cols = h.cols();
        let mut target = distinct_target(cols, &raw);
        prop_assert_eq!(model.reconstruct_row(&[]), Err(ReconstructError::Empty));

        let mut wide = target.clone();
        wide.push((cols + past, 1.0));
        prop_assert_eq!(
            model.reconstruct_row(&wide),
            Err(ReconstructError::ColumnOutOfRange { col: cols + past, cols })
        );

        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let at = bad_at % target.len();
        target[at].1 = bad;
        prop_assert_eq!(model.reconstruct_row(&target), Err(ReconstructError::NonFinite));
    }

    /// A constant history has an all-zero spectrum: it fits at rank 1
    /// and still folds rows in to finite values.
    #[test]
    fn fold_in_on_a_constant_history_is_rank_one_and_finite(
        rows in 1usize..8,
        cols in 1usize..8,
        level in -5.0..5.0f64,
        raw in proptest::collection::vec((0usize..64, -10.0..10.0f64), 1..4),
    ) {
        let h = DenseMatrix::from_fn(rows, cols, |_, _| level);
        let model = FoldIn::fit(&h).unwrap();
        prop_assert_eq!(model.rank(), 1);
        let row = model.reconstruct_row(&distinct_target(cols, &raw)).unwrap();
        prop_assert!(row.iter().all(|v| v.is_finite()));
    }

    /// Folding in a history row with every column observed reproduces
    /// that row to 1e-6 of its range. The history is a row bias plus a
    /// rank-1 interaction, so its residual has rank 1 and the default
    /// truncation keeps it at full rank.
    #[test]
    fn fold_in_reproduces_fully_observed_history_rows(
        rows in 2usize..8,
        cols in 2usize..8,
        bias in proptest::collection::vec(-5.0..5.0f64, 8),
        scale in proptest::collection::vec(0.5..2.0f64, 8),
        profile in proptest::collection::vec(-3.0..3.0f64, 8),
        pick in 0usize..8,
    ) {
        let h = DenseMatrix::from_fn(rows, cols, |r, c| bias[r] + scale[r] * profile[c]);
        let model = FoldIn::fit(&h).unwrap();
        prop_assert_eq!(model.rank(), 1);
        let r = pick % h.rows();
        let target: Vec<(usize, f64)> = h.row(r).iter().copied().enumerate().collect();
        let row = model.reconstruct_row(&target).unwrap();
        let (lo, hi) = h.row(r).iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), &v| (l.min(v), u.max(v)));
        for (p, t) in row.iter().zip(h.row(r)) {
            prop_assert!((p - t).abs() <= 1e-6 * (hi - lo), "{p} vs {t}");
        }
    }
}
