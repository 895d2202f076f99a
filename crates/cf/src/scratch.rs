//! Reusable workspace arenas for the CF hot path.
//!
//! Every [`svd`](crate::svd()) / [`PqModel::train`](crate::PqModel::train)
//! call used to heap-allocate its entire working set — the column-major
//! working copy, the `V` accumulator, norms, sort order, residuals, the
//! mean-filled dense matrix, the factor and bias buffers — from scratch,
//! on a path the classifier executes on every cold or warm-miss arrival.
//! [`CfScratch`] pools all of it: a grow-only arena that call sites
//! thread through the `*_in` kernel variants, with a thread-local
//! default ([`with`]) behind the public entry points so existing callers
//! adopt it without any signature change.
//!
//! # Lifetime and growth rules
//!
//! * **Grow-only.** Buffers are checked out with `clear()` +
//!   `resize`/`reserve`; capacity is never released. After the first
//!   call at the largest shape a thread ever sees, later calls at that
//!   shape (or smaller) perform **zero** heap allocations inside `svd`
//!   and `train`.
//! * **Outputs are recycled, not retained.** `svd_in`/`train_in` return
//!   owned values whose buffers are *taken from* the arena's recycle
//!   slots; callers that drop the result hand the buffers back with
//!   [`CfScratch::recycle_svd`] / [`CfScratch::recycle_model`]. Callers
//!   that let the result escape simply skip the recycle — the next
//!   checkout of that slot allocates fresh (counted as a grow).
//! * **Contents never affect results.** Checkouts fully overwrite the
//!   checked-out range, so a reused buffer is observably identical to a
//!   fresh `vec![]` — the bit-identity proptests in
//!   `tests/properties.rs` pin scratch-path outputs to fresh-path runs.
//!
//! # Metrics
//!
//! `quasar.cf.scratch.reuses` / `.grows` count buffer checkouts served
//! from pooled capacity vs. ones that had to (re)allocate;
//! `quasar.cf.scratch.peak_bytes` is a high-water gauge over the flat
//! arena buffers (sparse entry lists are counted as checkout events but
//! not byte-tracked). All three depend on how work lands on threads —
//! every thread owns its own default arena — so they are listed under
//! the registry's live prefixes and stripped from deterministic
//! snapshots.

use std::cell::RefCell;
use std::mem::size_of;
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Gauge, Registry};

use crate::pq::PqModel;
use crate::sparse::SparseMatrix;
use crate::svd::Svd;

/// Registry handles for `quasar.cf.scratch.{reuses,grows,peak_bytes}`.
fn scratch_metrics() -> &'static (Counter, Counter, Gauge) {
    static METRICS: OnceLock<(Counter, Counter, Gauge)> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter("quasar.cf.scratch.reuses"),
            reg.counter("quasar.cf.scratch.grows"),
            reg.gauge("quasar.cf.scratch.peak_bytes"),
        )
    })
}

/// Checkout accounting for one arena (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ScratchStats {
    reuses: u64,
    grows: u64,
    /// Bytes of flat buffer capacity currently held (grow-only, so the
    /// current total is also the peak).
    bytes: u64,
    flushed_reuses: u64,
    flushed_grows: u64,
}

impl ScratchStats {
    /// Checks `buf` out as a `len`-element buffer of `T::default()`
    /// values — observably identical to `vec![T::default(); len]`.
    pub(crate) fn checkout<T: Clone + Default>(&mut self, buf: &mut Vec<T>, len: usize) {
        let before = buf.capacity();
        buf.clear();
        buf.resize(len, T::default());
        self.note::<T>(before, buf.capacity());
    }

    /// Checks `buf` out empty with room for `len` elements, for callers
    /// that fill it with `extend`/`push` — observably identical to
    /// `Vec::with_capacity(len)`.
    pub(crate) fn reserve<T>(&mut self, buf: &mut Vec<T>, len: usize) {
        let before = buf.capacity();
        buf.clear();
        buf.reserve(len);
        self.note::<T>(before, buf.capacity());
    }

    /// Records a checkout of a structured slot (e.g. a pooled
    /// [`SparseMatrix`]); `hit` says whether the slot was populated.
    /// Structured slots are event-counted but not byte-tracked.
    pub(crate) fn slot(&mut self, hit: bool) {
        if hit {
            self.reuses += 1;
        } else {
            self.grows += 1;
        }
    }

    fn note<T>(&mut self, before: usize, after: usize) {
        if after > before {
            self.grows += 1;
            self.bytes += ((after - before) * size_of::<T>()) as u64;
        } else {
            self.reuses += 1;
        }
    }
}

/// A reusable, grow-only workspace arena for the CF kernels.
///
/// Thread one through [`crate::svd_in`], [`PqModel::train_in`] and the
/// [`crate::Reconstructor`] internals
/// to make their steady state allocation-free; or just call the plain
/// public entry points, which borrow the calling thread's default arena
/// via [`with`]. See the module docs for the lifetime rules.
#[derive(Debug, Default)]
pub struct CfScratch {
    /// Column-major SVD working copy (`m·n`).
    pub(crate) svd_work: Vec<f64>,
    /// Column-major rotation accumulator `V` (`n·n`).
    pub(crate) svd_v: Vec<f64>,
    /// Column norms of the converged working set (`n`).
    pub(crate) svd_norms: Vec<f64>,
    /// Descending-norm column order (`n`).
    pub(crate) svd_order: Vec<usize>,
    /// Recycled SVD output buffers: `(u_data, v_data, singular_values)`.
    pub(crate) svd_out: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    /// SGD visit order, one entry per observation.
    pub(crate) sgd_order: Vec<(usize, usize, f64)>,
    /// Residual matrix for the SVD warm start.
    pub(crate) residuals: Option<SparseMatrix>,
    /// Mean-filled dense buffer the warm-start SVD decomposes.
    pub(crate) filled: Option<Vec<f64>>,
    /// Per-column residual sums (reused as the column means).
    pub(crate) col_sums: Vec<f64>,
    /// Per-column residual observation counts.
    pub(crate) col_counts: Vec<usize>,
    /// Recycled model buffers: `(row_bias, row_factors, col_factors)`.
    pub(crate) model_out: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    /// Pooled history+target matrix for row reconstruction.
    pub(crate) row_sparse: Option<SparseMatrix>,
    /// Recycled dense prediction buffer (`rows·cols`).
    pub(crate) predict: Option<Vec<f64>>,
    /// Checkout accounting.
    pub(crate) stats: ScratchStats,
}

impl CfScratch {
    /// Creates an empty arena; buffers are allocated lazily on first
    /// checkout and retained (grow-only) afterwards.
    pub fn new() -> CfScratch {
        CfScratch::default()
    }

    /// Returns a dropped [`Svd`]'s buffers to the arena so the next
    /// [`crate::svd_in`] call can reuse them instead of allocating.
    pub fn recycle_svd(&mut self, svd: Svd) {
        let Svd {
            u,
            singular_values,
            v,
        } = svd;
        self.svd_out = Some((u.into_vec(), v.into_vec(), singular_values));
    }

    /// Returns a dropped [`PqModel`]'s buffers to the arena so the next
    /// [`PqModel::train_in`] call can reuse them instead of allocating.
    pub fn recycle_model(&mut self, model: PqModel) {
        self.model_out = Some(model.into_buffers());
    }

    /// Returns a dropped prediction buffer (see
    /// [`PqModel::predict_all_in`](crate::PqModel)) to the arena.
    pub(crate) fn recycle_predict(&mut self, buf: Vec<f64>) {
        self.predict = Some(buf);
    }

    /// Flushes checkout counts to the registry as deltas and raises the
    /// peak-bytes gauge; called once per top-level [`with`] entry.
    fn flush_metrics(&mut self) {
        let (reuses, grows, peak) = scratch_metrics();
        let s = &mut self.stats;
        reuses.add(s.reuses - s.flushed_reuses);
        grows.add(s.grows - s.flushed_grows);
        s.flushed_reuses = s.reuses;
        s.flushed_grows = s.grows;
        peak.set_max(s.bytes);
    }
}

thread_local! {
    /// The calling thread's default arena (see [`with`]).
    static SCRATCH: RefCell<CfScratch> = RefCell::new(CfScratch::new());
}

/// Runs `f` with the calling thread's default [`CfScratch`].
///
/// Top-level entry points (`svd`, `PqModel::train`,
/// `Reconstructor::reconstruct_row`, …) wrap exactly one `with` call and
/// pass the borrowed arena down through the `*_in` variants, so the
/// borrow is never re-entered on the normal path. If it ever is (or the
/// thread-local is gone because the thread is shutting down), `f` runs
/// against a fresh throwaway arena — semantically identical, just
/// without reuse.
pub fn with<R>(f: impl FnOnce(&mut CfScratch) -> R) -> R {
    let mut f = Some(f);
    let ran = SCRATCH.try_with(|cell| {
        cell.try_borrow_mut().ok().map(|mut scratch| {
            let r = (f.take().expect("closure runs once"))(&mut scratch);
            scratch.flush_metrics();
            r
        })
    });
    match ran {
        Ok(Some(r)) => r,
        // Re-entered or thread teardown: a throwaway arena (no reuse,
        // identical semantics).
        _ => (f.take().expect("closure not yet run"))(&mut CfScratch::new()),
    }
}

/// Checkout totals of the calling thread's default arena:
/// `(reuses, grows, held_bytes)`. Grow-only, so `held_bytes` is the
/// thread's peak. Zeros if the arena is inaccessible (thread teardown or
/// an active borrow).
pub fn thread_stats() -> (u64, u64, u64) {
    SCRATCH
        .try_with(|cell| {
            cell.try_borrow()
                .map(|s| (s.stats.reuses, s.stats.grows, s.stats.bytes))
                .unwrap_or((0, 0, 0))
        })
        .unwrap_or((0, 0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_equivalent_to_fresh_allocation() {
        let mut stats = ScratchStats::default();
        let mut buf: Vec<f64> = Vec::new();
        stats.checkout(&mut buf, 8);
        assert_eq!(buf, vec![0.0; 8]);
        buf.iter_mut().for_each(|v| *v = 7.0);
        // Reuse at a smaller size must still look freshly zeroed.
        stats.checkout(&mut buf, 5);
        assert_eq!(buf, vec![0.0; 5]);
        assert_eq!(stats.grows, 1, "only the first checkout allocates");
        assert_eq!(stats.reuses, 1);
        assert!(stats.bytes >= 8 * size_of::<f64>() as u64);
    }

    #[test]
    fn reserve_leaves_buffer_empty_with_capacity() {
        let mut stats = ScratchStats::default();
        let mut buf: Vec<usize> = vec![1, 2, 3];
        stats.reserve(&mut buf, 16);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 16);
    }

    #[test]
    fn with_reuses_the_thread_local_arena() {
        // Warm the thread's arena at one shape, then re-enter: the
        // second checkout must be served from pooled capacity.
        with(|s| s.stats.checkout(&mut s.svd_work, 64));
        let (_, grows_warm, bytes_warm) = thread_stats();
        with(|s| s.stats.checkout(&mut s.svd_work, 64));
        let (reuses, grows_again, bytes_again) = thread_stats();
        assert_eq!(grows_again, grows_warm, "warm checkout must not grow");
        assert_eq!(bytes_again, bytes_warm, "held bytes are grow-only");
        assert!(reuses >= 1);
    }
}
