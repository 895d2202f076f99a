//! Fold-in classification: factor a dense history once, then place each
//! new sparse row into the learned column space in closed form.
//!
//! The history Quasar classifies against is dense and fixed once the
//! offline characterization has run (paper §3.2), so retraining a PQ
//! model on history + target for every arrival repeats the same work.
//! [`FoldIn::fit`] instead factors the history once — global mean `μ`,
//! per-row biases, truncated SVD of the residual — and keeps the column
//! factors `P = V_k·Σ_k`. [`FoldIn::reconstruct_row`] then solves the
//! ridge normal equations for the new row's bias and latent vector
//! `(b_u, q_u)` over its observed columns only (the standard fold-in of
//! Sarwar et al., "Incremental SVD-based algorithms for highly scalable
//! recommender systems", 2002):
//!
//! ```text
//! minimize  ½ Σ_{c ∈ obs} (r_c − μ − b_u − q_u·p_c)² + λ‖q_u‖²
//! ```
//!
//! The ridge shrinks a sparsely observed row toward a flat profile at its
//! own level, `μ + b_u`. Shrinking toward the history's mean column
//! profile instead (per-column biases) is more accurate on average but
//! over-promises speed to memory-bound rows, which the manager then
//! under-provisions.
//!
//! With the latent rank capped at 8 this is at most a 9×9 symmetric
//! positive-definite system, solved by Cholesky. The output is a pure
//! function of `(model, target)`, so it is identical on every thread.

use std::error::Error;
use std::fmt;

use crate::dense::DenseMatrix;
use crate::svd::svd;

/// Ridge constant `λ` on the folded-in latent vector `q_u` (the bias
/// `b_u` is left unregularized), in the `½‖error‖² + λ‖q_u‖²` objective.
/// One constant serves every axis; a sweep over 0.0025–2.5 on the
/// Table 2 validation put the best trade-off across axes here.
const RIDGE: f64 = 0.05;

/// Fraction of the residual's squared spectral energy the truncated SVD
/// keeps, and the cap on the latent rank (the defaults of
/// [`crate::SgdConfig`]); the cap bounds the solve at 9×9.
const ENERGY: f64 = 0.95;
const MAX_RANK: usize = 8;

/// Headroom added on each side of the value range before clamping, as a
/// fraction of the range (the same rule as [`crate::Reconstructor`]).
const CLAMP_HEADROOM: f64 = 0.25;

/// Error returned when a row cannot be folded in or a history cannot be
/// fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// The matrix (or the target row) has no observed entries at all.
    Empty,
    /// A row that must be predicted has no observations and no other row
    /// can anchor it (matrix has a single row).
    Unanchored,
    /// A target observation names a column outside the model.
    ColumnOutOfRange {
        /// The offending column.
        col: usize,
        /// The model's column count.
        cols: usize,
    },
    /// An input value was NaN or infinite, or the solve overflowed.
    NonFinite,
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::Empty => write!(f, "matrix has no observed entries"),
            ReconstructError::Unanchored => {
                write!(f, "row cannot be anchored without other observations")
            }
            ReconstructError::ColumnOutOfRange { col, cols } => {
                write!(f, "column {col} is out of range for {cols} columns")
            }
            ReconstructError::NonFinite => write!(f, "value is not finite"),
        }
    }
}

impl Error for ReconstructError {}

/// A dense history factored once for closed-form fold-in of new rows.
///
/// # Examples
///
/// ```
/// use quasar_cf::{DenseMatrix, FoldIn};
///
/// // History rows are multiples of [1, 2, 3, 4].
/// let history = DenseMatrix::from_fn(5, 4, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
/// let model = FoldIn::fit(&history).unwrap();
/// let row = model.reconstruct_row(&[(0, 2.5), (2, 7.5)]).unwrap();
/// assert_eq!(row[0], 2.5);
/// assert!((row[1] - 5.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIn {
    mu: f64,
    /// `P = V_k·Σ_k`, one row of `rank` latent coordinates per column.
    col_factors: DenseMatrix,
    /// Smallest and largest history value.
    range: (f64, f64),
}

impl FoldIn {
    /// Factors `history`, keeping the rank that holds 95% of the
    /// residual's spectral energy, capped at 8.
    ///
    /// # Errors
    ///
    /// [`ReconstructError::NonFinite`] when a history value is not finite
    /// or the factorization overflows.
    pub fn fit(history: &DenseMatrix) -> Result<FoldIn, ReconstructError> {
        let (rows, cols) = (history.rows(), history.cols());
        let values = history.as_slice();
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ReconstructError::NonFinite);
        }
        let mu = values.iter().sum::<f64>() / values.len() as f64;
        let range = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });

        // Residual after the global mean and each row's bias.
        let mut residual = history.clone();
        for r in 0..rows {
            let row = residual.row_mut(r);
            let row_mean = row.iter().sum::<f64>() / cols as f64;
            for v in row {
                *v -= row_mean;
            }
        }
        let decomposition = svd(&residual);
        let rank = decomposition
            .rank_for_energy(ENERGY)
            .min(MAX_RANK)
            .min(rows)
            .min(cols)
            .max(1);
        let sigma = &decomposition.singular_values[..rank];
        let mut col_factors = DenseMatrix::zeros(cols, rank);
        for c in 0..cols {
            let vrow = &decomposition.v.row(c)[..rank];
            for ((dst, &v), &s) in col_factors.row_mut(c).iter_mut().zip(vrow).zip(sigma) {
                *dst = v * s;
            }
        }
        if col_factors.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(ReconstructError::NonFinite);
        }
        Ok(FoldIn {
            mu,
            col_factors,
            range,
        })
    }

    /// Latent rank `k` of the factored history.
    pub fn rank(&self) -> usize {
        self.col_factors.cols()
    }

    /// Number of columns a folded-in row has.
    pub fn cols(&self) -> usize {
        self.col_factors.rows()
    }

    /// Predicts every column of a new row from its observed `(column,
    /// value)` cells: solves for `(b_u, q_u)`, predicts `μ + b_u + q_u·p_c`,
    /// puts the observed values back verbatim, and clamps to the history
    /// and target value range widened by 25% on each side.
    ///
    /// # Errors
    ///
    /// [`ReconstructError::Empty`] when `target` is empty,
    /// [`ReconstructError::ColumnOutOfRange`] when it names a column
    /// `>= cols`, and [`ReconstructError::NonFinite`] when a value is not
    /// finite or the prediction overflows. Never panics, never returns
    /// NaN.
    pub fn reconstruct_row(&self, target: &[(usize, f64)]) -> Result<Vec<f64>, ReconstructError> {
        if target.is_empty() {
            return Err(ReconstructError::Empty);
        }
        let cols = self.cols();
        let (mut lo, mut hi) = self.range;
        for &(col, v) in target {
            if col >= cols {
                return Err(ReconstructError::ColumnOutOfRange { col, cols });
            }
            if !v.is_finite() {
                return Err(ReconstructError::NonFinite);
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }

        let (bias, q) = self.solve(target)?;
        let mut row: Vec<f64> = (0..cols)
            .map(|c| {
                let dot: f64 = q
                    .iter()
                    .zip(self.col_factors.row(c))
                    .map(|(a, b)| a * b)
                    .sum();
                self.mu + bias + dot
            })
            .collect();
        if row.iter().any(|v| !v.is_finite()) {
            return Err(ReconstructError::NonFinite);
        }
        for &(col, v) in target {
            row[col] = v;
        }
        let span = (hi - lo).max(1e-12);
        let (lo, hi) = (lo - CLAMP_HEADROOM * span, hi + CLAMP_HEADROOM * span);
        for v in &mut row {
            *v = v.clamp(lo, hi);
        }
        Ok(row)
    }

    /// Solves the ridge normal equations `(AᵀA + 2λD)·x = Aᵀ(r − μ)` for
    /// `x = (b_u, q_u)`, where each observed column contributes the design
    /// row `[1, p_c]` and `D = diag(0, 1, …, 1)`. The matrix is positive
    /// definite for any non-empty target (the bias block sees every
    /// observation, the factor block the ridge), so the Cholesky pivots
    /// only fail on overflow.
    fn solve(&self, target: &[(usize, f64)]) -> Result<(f64, Vec<f64>), ReconstructError> {
        let n = self.rank() + 1;
        let mut a = vec![0.0; n * n];
        let mut x = vec![0.0; n];
        let mut design = vec![1.0; n];
        for &(col, v) in target {
            design[1..].copy_from_slice(self.col_factors.row(col));
            let y = v - self.mu;
            for i in 0..n {
                x[i] += design[i] * y;
                for j in 0..=i {
                    a[i * n + j] += design[i] * design[j];
                }
            }
        }
        for i in 1..n {
            a[i * n + i] += 2.0 * RIDGE;
        }

        // In-place Cholesky a = L·Lᵀ on the lower triangle.
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= a[j * n + k] * a[j * n + k];
            }
            if !(d > 0.0 && d.is_finite()) {
                return Err(ReconstructError::NonFinite);
            }
            let d = d.sqrt();
            a[j * n + j] = d;
            for i in j + 1..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = s / d;
            }
        }
        // Forward (L·y = b), then back substitution (Lᵀ·x = y).
        for i in 0..n {
            let s: f64 = (0..i).map(|k| a[i * n + k] * x[k]).sum();
            x[i] = (x[i] - s) / a[i * n + i];
        }
        for i in (0..n).rev() {
            let s: f64 = (i + 1..n).map(|k| a[k * n + i] * x[k]).sum();
            x[i] = (x[i] - s) / a[i * n + i];
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(ReconstructError::NonFinite);
        }
        let bias = x.remove(0);
        Ok((bias, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_history() -> DenseMatrix {
        // Row bias plus a rank-1 interaction: h_rc = a_r + s_r·w_c.
        DenseMatrix::from_fn(12, 9, |r, c| {
            let a = 0.3 * r as f64;
            let s = 0.5 + 0.1 * (r % 5) as f64;
            let w = ((c as f64) * 0.7).sin() + 0.2 * c as f64;
            a + s * w
        })
    }

    #[test]
    fn predicts_held_out_columns_of_a_low_rank_row() {
        let history = low_rank_history();
        let model = FoldIn::fit(&history).unwrap();
        // A new row from the same family: bias 1.7, interaction 0.8.
        let truth: Vec<f64> = (0..9)
            .map(|c| 1.7 + 0.8 * (((c as f64) * 0.7).sin() + 0.2 * c as f64))
            .collect();
        let row = model
            .reconstruct_row(&[(1, truth[1]), (6, truth[6])])
            .unwrap();
        let span = 0.8 * 2.6;
        for (c, (&p, &t)) in row.iter().zip(&truth).enumerate() {
            assert!((p - t).abs() < 0.1 * span, "col {c}: {p} vs {t}");
        }
    }

    #[test]
    fn fit_rejects_a_non_finite_history() {
        let mut poisoned = low_rank_history();
        poisoned.set(2, 2, f64::NAN);
        assert_eq!(FoldIn::fit(&poisoned), Err(ReconstructError::NonFinite));
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            ReconstructError::Empty,
            ReconstructError::Unanchored,
            ReconstructError::ColumnOutOfRange { col: 3, cols: 2 },
            ReconstructError::NonFinite,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
