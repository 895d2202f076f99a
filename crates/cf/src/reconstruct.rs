//! The end-to-end reconstruction pipeline used by Quasar's classifier.

use crate::dense::DenseMatrix;
use crate::foldin::ReconstructError;
use crate::pq::{PqModel, SgdConfig};
use crate::scratch::{self, CfScratch};
use crate::sparse::SparseMatrix;

/// End-to-end collaborative-filtering reconstruction: mean-fill → SVD →
/// PQ initialization → SGD → prediction, with optional clamping of the
/// predictions to the observed value range.
///
/// This is the "classification" primitive of the paper: given a sparse
/// matrix whose rows are workloads and whose columns are configurations,
/// produce the dense matrix of estimated performance.
///
/// # Examples
///
/// ```
/// use quasar_cf::{Reconstructor, SparseMatrix};
///
/// let mut a = SparseMatrix::new(4, 3);
/// for r in 0..4 {
///     for c in 0..3 {
///         if r != 2 || c != 1 {
///             a.insert(r, c, (r + 1) as f64 * (c + 1) as f64);
///         }
///     }
/// }
/// let dense = Reconstructor::new().reconstruct(&a);
/// assert!((dense.get(2, 1) - 6.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Reconstructor {
    config: SgdConfig,
    clamp_to_observed: bool,
}

impl Reconstructor {
    /// Creates a reconstructor with default SGD hyper-parameters and
    /// clamping enabled.
    pub fn new() -> Reconstructor {
        Reconstructor {
            config: SgdConfig::default(),
            clamp_to_observed: true,
        }
    }

    /// Overrides the SGD configuration.
    pub fn with_config(mut self, config: SgdConfig) -> Reconstructor {
        self.config = config;
        self
    }

    /// Enables or disables clamping predictions to the observed range
    /// (with 25% headroom on both sides).
    pub fn with_clamping(mut self, clamp: bool) -> Reconstructor {
        self.clamp_to_observed = clamp;
        self
    }

    /// The SGD configuration in use.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Reconstructs all cells of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty or training diverges; use
    /// [`Reconstructor::try_reconstruct`] for a fallible variant.
    pub fn reconstruct(&self, a: &SparseMatrix) -> DenseMatrix {
        self.try_reconstruct(a)
            .unwrap_or_else(|e| panic!("reconstruction failed: {e}"))
    }

    /// Reconstructs all cells of `a`, returning an error for degenerate
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Empty`] when `a` has no observations,
    /// or [`ReconstructError::NonFinite`] when training diverges (for
    /// example, SGD at the default learning rate on 0–100-scale values).
    pub fn try_reconstruct(&self, a: &SparseMatrix) -> Result<DenseMatrix, ReconstructError> {
        scratch::with(|s| self.try_reconstruct_in(a, s))
    }

    /// [`Reconstructor::try_reconstruct`] against an explicit workspace
    /// arena: training and prediction buffers are pooled, and the
    /// trained model's buffers are recycled once the predictions are
    /// out. The returned matrix is bit-identical to the fresh path.
    fn try_reconstruct_in(
        &self,
        a: &SparseMatrix,
        scratch: &mut CfScratch,
    ) -> Result<DenseMatrix, ReconstructError> {
        if a.is_empty() {
            return Err(ReconstructError::Empty);
        }
        let model = PqModel::train_in(a, &self.config, scratch);
        let dense = self.finish_predictions_in(&model, a, scratch);
        // The model never escapes this path; hand its buffers back.
        scratch.recycle_model(model);
        dense
    }

    /// The steps of [`Reconstructor::try_reconstruct`] after model
    /// training: predict every cell (into the arena's recycled
    /// prediction buffer, when one is pooled), reject a diverged model,
    /// restore the observed entries, and clamp to the observed range.
    fn finish_predictions_in(
        &self,
        model: &PqModel,
        a: &SparseMatrix,
        scratch: &mut CfScratch,
    ) -> Result<DenseMatrix, ReconstructError> {
        let buf = match scratch.predict.take() {
            Some(buf) => {
                scratch.stats.slot(true);
                buf
            }
            None => {
                scratch.stats.slot(false);
                Vec::new()
            }
        };
        let mut dense = model.predict_all_in(buf);
        // Every model parameter feeds some prediction, so a non-finite
        // model shows here. Check before the clamp, which would turn an
        // infinity into a plausible bound.
        if dense.as_slice().iter().any(|v| !v.is_finite()) {
            scratch.recycle_predict(dense.into_vec());
            return Err(ReconstructError::NonFinite);
        }
        // Observed entries are authoritative; keep the raw measurements.
        for (r, c, v) in a.iter() {
            dense.set(r, c, v);
        }
        if self.clamp_to_observed {
            let (lo, hi) = observed_range(a);
            let span = (hi - lo).max(1e-12);
            let (lo, hi) = (lo - 0.25 * span, hi + 0.25 * span);
            // Clamp in place: elementwise, so bit-identical to the old
            // full-matrix `from_fn` rebuild without the allocation.
            for v in dense.as_mut_slice() {
                *v = v.clamp(lo, hi);
            }
        }
        Ok(dense)
    }

    /// Predicts the missing entries of a single target row given a dense
    /// history of fully-observed rows (the offline-characterized and
    /// previously-scheduled workloads) plus sparse observations for the
    /// target (the profiling runs).
    ///
    /// Returns the full predicted row for the target.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Unanchored`] when `history` is empty and
    /// the target row alone cannot be reconstructed,
    /// [`ReconstructError::Empty`] when the target row has no observations,
    /// or [`ReconstructError::NonFinite`] when training diverges.
    pub fn reconstruct_row(
        &self,
        history: &DenseMatrix,
        target: &[(usize, f64)],
    ) -> Result<Vec<f64>, ReconstructError> {
        if target.is_empty() {
            return Err(ReconstructError::Empty);
        }
        if history.rows() == 0 {
            return Err(ReconstructError::Unanchored);
        }
        // Bulk-copy the fully-observed history (per-cell `insert` here
        // was O(rows · cols²) from duplicate scans) into the pooled
        // history matrix, then append the sparse target row. In steady
        // state the only allocations left on this path are the target
        // row's entry list and the escaping result row.
        scratch::with(|s| {
            let (target_row, sparse) = Self::pooled_history_matrix(history, target, s);
            let result = self.try_reconstruct_in(&sparse, s);
            s.row_sparse = Some(sparse);
            let dense = result?;
            let row = dense.row(target_row).to_vec();
            s.recycle_predict(dense.into_vec());
            Ok(row)
        })
    }

    /// Checks the pooled history+target matrix out of `scratch` and
    /// fills it: the fully-observed `history` rows plus one sparse
    /// target row. Returns the target row's index and the matrix (the
    /// caller returns it to the `row_sparse` slot when done).
    fn pooled_history_matrix(
        history: &DenseMatrix,
        target: &[(usize, f64)],
        scratch: &mut CfScratch,
    ) -> (usize, SparseMatrix) {
        let mut sparse = match scratch.row_sparse.take() {
            Some(mut pooled) => {
                scratch.stats.slot(true);
                pooled.assign_dense_rows(history);
                pooled
            }
            None => {
                scratch.stats.slot(false);
                SparseMatrix::from_dense_rows(history)
            }
        };
        let target_row = sparse.push_row();
        for &(c, v) in target {
            sparse.insert(target_row, c, v);
        }
        (target_row, sparse)
    }
}

fn observed_range(a: &SparseMatrix) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, _, v) in a.iter() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_is_an_error() {
        let a = SparseMatrix::new(2, 2);
        assert_eq!(
            Reconstructor::new().try_reconstruct(&a),
            Err(ReconstructError::Empty)
        );
    }

    #[test]
    fn observed_entries_are_preserved_exactly() {
        let mut a = SparseMatrix::new(3, 3);
        a.insert(0, 0, 1.0);
        a.insert(1, 1, 7.0);
        a.insert(2, 2, 3.0);
        let d = Reconstructor::new().reconstruct(&a);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 7.0);
        assert_eq!(d.get(2, 2), 3.0);
    }

    #[test]
    fn clamping_bounds_predictions() {
        let mut a = SparseMatrix::new(3, 3);
        for r in 0..3 {
            a.insert(r, 0, 10.0 + r as f64);
        }
        a.insert(0, 1, 11.0);
        a.insert(0, 2, 12.0);
        let d = Reconstructor::new().reconstruct(&a);
        // Observed range is 10..=12 (span 2); clamping allows 25%
        // headroom on each side, i.e. 0.5.
        let headroom = 0.25 * 2.0;
        for r in 0..3 {
            for c in 0..3 {
                let v = d.get(r, c);
                assert!(
                    v >= 10.0 - headroom && v <= 12.0 + headroom,
                    "clamped value {v}"
                );
            }
        }
    }

    #[test]
    fn reconstruct_row_predicts_from_history() {
        // History: rows proportional to [1, 2, 3, 4].
        let history = DenseMatrix::from_fn(5, 4, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
        // Target row: scale 2.5, observed at columns 0 and 2.
        let row = Reconstructor::new()
            .reconstruct_row(&history, &[(0, 2.5), (2, 7.5)])
            .unwrap();
        assert!((row[1] - 5.0).abs() < 1.0, "predicted {}", row[1]);
        assert!((row[3] - 10.0).abs() < 2.0, "predicted {}", row[3]);
    }

    #[test]
    fn reconstruct_row_requires_observations() {
        let history = DenseMatrix::zeros(2, 2);
        assert_eq!(
            Reconstructor::new().reconstruct_row(&history, &[]),
            Err(ReconstructError::Empty)
        );
    }

    #[test]
    fn diverged_training_is_an_error_not_nan() {
        // 0–100-scale values make SGD at the default learning rate
        // diverge; the result must be an error, never NaN cells.
        let history = DenseMatrix::from_fn(24, 10, |r, c| ((r * 7 + c * 13) % 100) as f64);
        let rec = Reconstructor::new();
        assert_eq!(
            rec.reconstruct_row(&history, &[(0, 40.0), (3, 80.0)]),
            Err(ReconstructError::NonFinite)
        );
        let mut a = SparseMatrix::from_dense_rows(&history);
        let target = a.push_row();
        a.insert(target, 0, 40.0);
        a.insert(target, 3, 80.0);
        assert_eq!(rec.try_reconstruct(&a), Err(ReconstructError::NonFinite));
    }

    #[test]
    fn steady_state_row_reconstruction_stops_growing_the_arena() {
        // Every call reaches the training kernels; after a short warmup
        // at a fixed shape the thread's arena must serve every checkout
        // from pooled capacity.
        // (Each test runs on its own thread, so `thread_stats` observes
        // only this test's arena.)
        let history = DenseMatrix::from_fn(4, 3, |r, c| (r as f64 + 1.0) * (c as f64 + 0.5));
        let rec = Reconstructor::new().with_config(SgdConfig {
            max_epochs: 2,
            max_rank: 2,
            ..SgdConfig::default()
        });
        for i in 0..4 {
            rec.reconstruct_row(&history, &[(0, i as f64 + 0.25)])
                .unwrap();
        }
        let (_, grows_warm, bytes_warm) = crate::scratch::thread_stats();
        for i in 4..20 {
            rec.reconstruct_row(&history, &[(0, i as f64 + 0.25)])
                .unwrap();
        }
        let (reuses, grows, bytes) = crate::scratch::thread_stats();
        assert_eq!(grows, grows_warm, "steady state must not grow the arena");
        assert_eq!(bytes, bytes_warm, "held bytes are flat in steady state");
        assert!(reuses > 0);
    }
}
