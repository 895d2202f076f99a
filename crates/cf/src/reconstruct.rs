//! The end-to-end reconstruction pipeline used by Quasar's classifier.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use quasar_obs::registry::{Counter, Registry};

use crate::dense::DenseMatrix;
use crate::fingerprint::Fingerprint;
use crate::foldin::ReconstructError;
use crate::pq::{PqModel, SgdConfig};
use crate::scratch::{self, CfScratch};
use crate::sparse::SparseMatrix;

/// Entries kept in the row-reconstruction memo. Experiments reuse a
/// handful of history matrices across thousands of workloads, so a
/// small bound captures nearly all the reuse; past the cap the
/// least-recently-used entry is evicted (an earlier version cleared the
/// whole map, which collapsed the hit rate exactly when long density
/// sweeps needed it most).
const ROW_CACHE_CAP: usize = 1024;

/// Global registry handles for the row-cache counters
/// (`quasar.cf.row_cache.*`), aggregated across all [`Reconstructor`]
/// instances; per-instance counts stay available via
/// [`Reconstructor::row_cache_stats`].
fn cache_metrics() -> &'static (Counter, Counter, Counter) {
    static METRICS: OnceLock<(Counter, Counter, Counter)> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter("quasar.cf.row_cache.hits"),
            reg.counter("quasar.cf.row_cache.misses"),
            reg.counter("quasar.cf.row_cache.evictions"),
        )
    })
}

/// A memoized row threaded into an intrusive doubly-linked recency
/// list (`prev` toward more recent, `next` toward less recent).
#[derive(Debug)]
struct CacheEntry {
    row: Vec<f64>,
    prev: Option<u128>,
    next: Option<u128>,
}

/// LRU map with O(1) lookup, touch, and eviction: a `HashMap` whose
/// entries double as nodes of a doubly-linked list ordered by recency.
/// This replaces an O(capacity) min-scan over `last_used` stamps that
/// ran on every eviction once the map filled (ROADMAP open item).
#[derive(Debug, Default)]
struct RowCacheInner {
    map: HashMap<u128, CacheEntry>,
    /// Most-recently-used key.
    head: Option<u128>,
    /// Least-recently-used key (next eviction victim).
    tail: Option<u128>,
    /// Keys currently being computed by some thread. Arrivals for an
    /// in-flight key wait on [`RowCache::computed`] instead of
    /// recomputing, which is what makes the hit/miss counters (and the
    /// kernel work counters downstream) scheduling-invariant: every key
    /// is computed exactly once no matter how calls interleave.
    pending: HashSet<u128>,
}

impl RowCacheInner {
    fn unlink(&mut self, key: u128) {
        let (prev, next) = {
            let node = &self.map[&key];
            (node.prev, node.next)
        };
        match prev {
            Some(p) => self.map.get_mut(&p).expect("lru prev missing").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.map.get_mut(&n).expect("lru next missing").prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, key: u128) {
        let old_head = self.head;
        {
            let node = self.map.get_mut(&key).expect("lru node missing");
            node.prev = None;
            node.next = old_head;
        }
        match old_head {
            Some(h) => self.map.get_mut(&h).expect("lru head missing").prev = Some(key),
            None => self.tail = Some(key),
        }
        self.head = Some(key);
    }

    /// Marks `key` most recently used. O(1).
    fn touch(&mut self, key: u128) {
        if self.head == Some(key) {
            return;
        }
        self.unlink(key);
        self.push_front(key);
    }

    /// Inserts `key`, evicting the least-recently-used entry when at
    /// capacity. Returns whether an eviction happened. O(1).
    fn insert(&mut self, key: u128, row: Vec<f64>) -> bool {
        if let Some(node) = self.map.get_mut(&key) {
            node.row = row;
            self.touch(key);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= ROW_CACHE_CAP {
            if let Some(lru) = self.tail {
                self.unlink(lru);
                self.map.remove(&lru);
                evicted = true;
            }
        }
        self.map.insert(
            key,
            CacheEntry {
                row,
                prev: None,
                next: None,
            },
        );
        self.push_front(key);
        evicted
    }
}

/// Shared memo for [`Reconstructor::reconstruct_row`]. Reconstruction
/// is a pure function of `(history, target, config)`, so returning a
/// cached row is observably identical to recomputing it — including
/// every bit of every float — which is what lets the cache stay enabled
/// under the deterministic parallel runner.
///
/// A per-key once-guard (`RowCacheInner::pending` + [`RowCache::computed`])
/// ensures each key is computed at most once even when several threads
/// miss concurrently: the first arrival computes, later arrivals block
/// until the row lands and then count a hit. Absent evictions, hit and
/// miss totals therefore match a serial run exactly, so the counters can
/// live in deterministic snapshots.
#[derive(Debug, Default)]
struct RowCache {
    inner: Mutex<RowCacheInner>,
    /// Signalled whenever a pending key resolves (row inserted) or is
    /// abandoned (compute failed or panicked).
    computed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Removes a key from the pending set — and wakes the waiters — when the
/// computing scope ends, **including** by error return or panic, so a
/// failed compute can never strand other threads in the wait loop.
struct PendingGuard<'a> {
    cache: &'a RowCache,
    key: u128,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock().expect("row cache poisoned");
        inner.pending.remove(&self.key);
        drop(inner);
        self.cache.computed.notify_all();
    }
}

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
    row_cache: Arc<RowCache>,
}

impl Reconstructor {
    /// Creates a reconstructor with default SGD hyper-parameters and
    /// clamping enabled.
    pub fn new() -> Reconstructor {
        Reconstructor {
            config: SgdConfig::default(),
            clamp_to_observed: true,
            row_cache: Arc::default(),
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
    /// Panics if `a` is empty; use [`Reconstructor::try_reconstruct`] for a
    /// fallible variant.
    pub fn reconstruct(&self, a: &SparseMatrix) -> DenseMatrix {
        self.try_reconstruct(a).expect("matrix must be non-empty")
    }

    /// Reconstructs all cells of `a`, returning an error for degenerate
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::Empty`] when `a` has no observations.
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
        Ok(dense)
    }

    /// The steps of [`Reconstructor::try_reconstruct`] after model
    /// training: predict every cell (into the arena's recycled
    /// prediction buffer, when one is pooled), restore the observed
    /// entries, and clamp to the observed range.
    fn finish_predictions_in(
        &self,
        model: &PqModel,
        a: &SparseMatrix,
        scratch: &mut CfScratch,
    ) -> DenseMatrix {
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
        dense
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
    /// the target row alone cannot be reconstructed, or
    /// [`ReconstructError::Empty`] when the target row has no observations.
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
        let key = self.row_key(history, target);
        let (hits, misses, evictions) = cache_metrics();
        let mut inner = self.row_cache.inner.lock().expect("row cache poisoned");
        loop {
            if let Some(row) = inner.map.get(&key).map(|entry| entry.row.clone()) {
                inner.touch(key);
                self.row_cache.hits.fetch_add(1, Ordering::Relaxed);
                hits.inc();
                return Ok(row);
            }
            if !inner.pending.contains(&key) {
                break;
            }
            // Another thread is computing this key: wait for it rather
            // than duplicating the work. The hit is counted above once
            // the row lands (exactly once per call).
            inner = self
                .row_cache
                .computed
                .wait(inner)
                .expect("row cache poisoned");
        }
        // First arrival for this key: claim it, then compute outside the
        // lock. The guard clears the claim (and wakes waiters) on every
        // exit path, including panics.
        inner.pending.insert(key);
        drop(inner);
        self.row_cache.misses.fetch_add(1, Ordering::Relaxed);
        misses.inc();
        let guard = PendingGuard {
            cache: &self.row_cache,
            key,
        };
        let row = self.reconstruct_row_uncached(history, target);
        if let Ok(row) = &row {
            let mut inner = self.row_cache.inner.lock().expect("row cache poisoned");
            if inner.insert(key, row.clone()) {
                evictions.inc();
            }
        }
        drop(guard);
        row
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

    /// Cache hits and misses of the row memo, for benchmarks and tests.
    pub fn row_cache_stats(&self) -> (u64, u64) {
        (
            self.row_cache.hits.load(Ordering::Relaxed),
            self.row_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Fingerprints everything `reconstruct_row` depends on: matrix
    /// shape and contents (via the matrix's own memoized fingerprint, so
    /// a lookup is O(target) instead of O(rows × cols)), the sparse
    /// target (its density and values), the SGD hyper-parameters, and
    /// the clamping flag.
    fn row_key(&self, history: &DenseMatrix, target: &[(usize, f64)]) -> u128 {
        let mut fp = Fingerprint::new();
        let (ha, hb) = history.fingerprint();
        fp.word(ha);
        fp.word(hb);
        fp.word(target.len() as u64);
        for &(c, v) in target {
            fp.word(c as u64);
            fp.float(v);
        }
        fp.float(self.config.learning_rate);
        fp.float(self.config.regularization);
        fp.word(self.config.max_epochs as u64);
        fp.float(self.config.tolerance);
        fp.float(self.config.energy);
        fp.word(self.config.max_rank as u64);
        fp.word(self.config.seed);
        fp.word(u64::from(self.clamp_to_observed));
        fp.finish()
    }

    fn reconstruct_row_uncached(
        &self,
        history: &DenseMatrix,
        target: &[(usize, f64)],
    ) -> Result<Vec<f64>, ReconstructError> {
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
    fn row_cache_returns_identical_bits_and_counts_hits() {
        let history = DenseMatrix::from_fn(6, 5, |r, c| (r as f64 + 1.5) * (c as f64 + 0.5));
        let rec = Reconstructor::new();
        let target = [(0usize, 1.2), (3usize, 4.8)];
        let first = rec.reconstruct_row(&history, &target).unwrap();
        let second = rec.reconstruct_row(&history, &target).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&first), bits(&second));
        let (hits, misses) = rec.row_cache_stats();
        assert_eq!((hits, misses), (1, 1));

        // A different density (extra observation) is a different key.
        rec.reconstruct_row(&history, &[(0, 1.2), (3, 4.8), (4, 6.0)])
            .unwrap();
        let (hits, misses) = rec.row_cache_stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn row_cache_distinguishes_matrix_contents() {
        let a = DenseMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut b = a.clone();
        b.set(2, 2, 99.0);
        let rec = Reconstructor::new();
        let ra = rec.reconstruct_row(&a, &[(0, 1.0)]).unwrap();
        let rb = rec.reconstruct_row(&b, &[(0, 1.0)]).unwrap();
        assert_eq!(
            rec.row_cache_stats().1,
            2,
            "different matrices must both miss"
        );
        assert_ne!(ra, rb);
    }

    #[test]
    fn row_cache_has_no_hit_rate_cliff_at_capacity() {
        // Fig3-style access pattern: a long sweep inserts more distinct
        // keys than ROW_CACHE_CAP, then revisits the most recent ones.
        // Wholesale clear-at-cap used to wipe the whole working set the
        // moment entry 1025 arrived; LRU keeps the recent tail resident.
        let history = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f64 + 1.0);
        // One SGD epoch and rank 1: each miss must stay cheap, since
        // this test performs ROW_CACHE_CAP + 100 of them.
        let rec = Reconstructor::new().with_config(SgdConfig {
            max_epochs: 1,
            max_rank: 1,
            ..SgdConfig::default()
        });
        let total = ROW_CACHE_CAP + 100;
        for i in 0..total {
            rec.reconstruct_row(&history, &[(0, i as f64 + 0.25)])
                .unwrap();
        }
        let (hits_before, misses_before) = rec.row_cache_stats();
        assert_eq!(hits_before, 0);
        assert_eq!(misses_before, total as u64);
        // Revisit the most recent ROW_CACHE_CAP - 76 targets (all inside
        // the LRU window): every one must hit.
        let revisit = ROW_CACHE_CAP - 76;
        for i in (total - revisit)..total {
            rec.reconstruct_row(&history, &[(0, i as f64 + 0.25)])
                .unwrap();
        }
        let (hits, misses) = rec.row_cache_stats();
        assert_eq!(
            misses, misses_before,
            "recently-inserted keys must survive crossing the capacity"
        );
        assert_eq!(hits, revisit as u64);
    }

    #[test]
    fn row_cache_touch_protects_entries_from_eviction() {
        let history = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f64 + 1.0);
        let rec = Reconstructor::new().with_config(SgdConfig {
            max_epochs: 1,
            max_rank: 1,
            ..SgdConfig::default()
        });
        let target = |i: usize| [(0usize, i as f64 + 0.25)];
        // Fill to capacity, then re-touch the oldest entry.
        for i in 0..ROW_CACHE_CAP {
            rec.reconstruct_row(&history, &target(i)).unwrap();
        }
        rec.reconstruct_row(&history, &target(0)).unwrap();
        assert_eq!(rec.row_cache_stats(), (1, ROW_CACHE_CAP as u64));
        // The next insert evicts the true LRU (key 1), not key 0.
        rec.reconstruct_row(&history, &target(ROW_CACHE_CAP))
            .unwrap();
        rec.reconstruct_row(&history, &target(0)).unwrap();
        let (hits, misses) = rec.row_cache_stats();
        assert_eq!((hits, misses), (2, ROW_CACHE_CAP as u64 + 1));
        rec.reconstruct_row(&history, &target(1)).unwrap();
        assert_eq!(
            rec.row_cache_stats().1,
            ROW_CACHE_CAP as u64 + 2,
            "key 1 must have been the eviction victim"
        );
    }

    #[test]
    fn concurrent_same_key_lookups_compute_once_and_count_deterministically() {
        // The per-key once-guard must collapse racing lookups into one
        // compute: whatever the interleaving, N calls on one key are
        // exactly 1 miss + N−1 hits, same as a serial run.
        let history = DenseMatrix::from_fn(6, 5, |r, c| (r as f64 + 1.5) * (c as f64 + 0.5));
        let rec = Reconstructor::new();
        let threads = 8;
        let rows: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let rec = &rec;
                    let history = &history;
                    scope
                        .spawn(move || rec.reconstruct_row(history, &[(0, 1.2), (3, 4.8)]).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for row in &rows[1..] {
            assert_eq!(bits(&rows[0]), bits(row), "all threads see identical bits");
        }
        assert_eq!(rec.row_cache_stats(), (threads as u64 - 1, 1));
    }

    #[test]
    fn steady_state_row_reconstruction_stops_growing_the_arena() {
        // Distinct targets bust the row memo, so every call reaches the
        // training kernels; after a short warmup at a fixed shape the
        // thread's arena must serve every checkout from pooled capacity.
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
