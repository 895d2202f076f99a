//! Deterministic parallel execution.
//!
//! A lazily-started **persistent worker pool** that fans out independent
//! items while guaranteeing **bit-identical output to serial execution
//! regardless of thread count**. Two ingredients make this hold:
//!
//! 1. Results are assembled by *item index*, never by completion order.
//! 2. Any randomness an item needs comes from a private RNG stream
//!    seeded by [`derive_seed`]`(base_seed, item_index)` — a pure
//!    function of the item's position, not of which worker ran it or
//!    when.
//!
//! With those two rules, `--threads 1` and `--threads N` produce the
//! same bytes; parallelism only changes wall-clock time.
//!
//! Workers are spawned on first use, park on a condvar while idle, and
//! are reused across [`par_map`] calls, so many-small-item sweeps do not
//! pay thread-spawn latency on every fan-out (an earlier version built a
//! fresh [`std::thread::scope`] pool per call). The submitting thread
//! always participates in its own job, so a job makes progress even when
//! every pooled worker is busy elsewhere (including nested `par_map`
//! calls from inside a worker).

use std::sync::{Mutex, OnceLock};

use quasar_obs::registry::{Counter, Histogram, Registry};

/// Registry handles for the fan-out metrics. `jobs`/`items` count
/// logical work (deterministic across thread counts — they increment on
/// the serial path too); everything under `quasar.core.par.pool.` is
/// live scheduling telemetry and is excluded from deterministic
/// snapshots.
struct ParMetrics {
    jobs: Counter,
    items: Counter,
    job_items: Histogram,
}

fn par_metrics() -> &'static ParMetrics {
    static METRICS: OnceLock<ParMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        ParMetrics {
            jobs: reg.counter("quasar.core.par.jobs"),
            items: reg.counter("quasar.core.par.items"),
            job_items: reg.histogram(
                "quasar.core.par.job_items",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0],
            ),
        }
    })
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if that cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the seed for item `index` of a run with `base_seed`.
///
/// SplitMix64 finalizer over the pair, so per-item streams are
/// decorrelated even for adjacent indices and a zero base seed. This is
/// the *only* sanctioned way to give a parallel item randomness: the
/// seed depends on `(base_seed, index)` alone, so output cannot depend
/// on scheduling.
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(workers currently alive, workers ever spawned)` in the persistent
/// pool. The two are equal today (workers never exit); tests use the
/// second to assert that consecutive [`par_map`] calls reuse the pool
/// instead of spawning fresh threads.
pub fn pool_status() -> (usize, u64) {
    pool::status()
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in item order.
///
/// `f` receives the item's index alongside the item. With `threads <= 1`
/// (or a single item) this degenerates to a plain serial loop — no
/// threads are spawned or woken. Workers pull indices from a shared
/// atomic counter, so scheduling is dynamic, but because `f` sees only
/// `(index, item)` and results land in slot `index`, the output vector
/// is identical for every thread count.
///
/// Panics in `f` propagate to the caller: the first panicking item's
/// payload is resumed on the submitting thread after the job drains.
pub fn par_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    // Job accounting and the job span fire on *every* call — including
    // the serial path below — so trace output and the deterministic
    // metric view are identical for every thread count.
    let metrics = par_metrics();
    metrics.jobs.inc();
    metrics.items.add(n as u64);
    metrics.job_items.record(n as f64);
    let _job_span = quasar_obs::span!("core.par.job", "items={n}");
    if threads <= 1 || n <= 1 {
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                // Sim time is item-local state: start each item from the
                // same baseline the pooled path gives it.
                quasar_obs::set_sim_time(0.0);
                f(i, x)
            })
            .collect();
        // Leave the submitter at the same baseline regardless of which
        // item ran last (matches the pooled path below).
        quasar_obs::set_sim_time(0.0);
        return out;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let item = slots[i]
            .lock()
            .expect("item slot poisoned")
            .take()
            .expect("each index is claimed exactly once");
        // Reset per item so a span inside `f` sees a sim time derived
        // only from this item's own work, never from whatever item this
        // worker thread happened to run previously.
        quasar_obs::set_sim_time(0.0);
        let out = f(i, item);
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    pool::run(threads, n, &task);
    quasar_obs::set_sim_time(0.0);
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// [`par_map`] over items the caller keeps: `f` receives `(index,
/// &mut item)` and the items stay in place, so long-lived stateful
/// workers (e.g. sharded manager cells that persist across admission
/// rounds) can be driven in parallel without moving them through a
/// `Vec` every round. Returns `f`'s outputs in item order.
///
/// The determinism contract is the same as [`par_map`]: results land by
/// item index, `threads <= 1` (or a single item) degenerates to a plain
/// serial loop, and sim time is reset per item and on return.
pub fn par_map_mut<T, U, F>(threads: usize, items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let n = items.len();
    let metrics = par_metrics();
    metrics.jobs.inc();
    metrics.items.add(n as u64);
    metrics.job_items.record(n as f64);
    let _job_span = quasar_obs::span!("core.par.job", "items={n}");
    if threads <= 1 || n <= 1 {
        let out = items
            .iter_mut()
            .enumerate()
            .map(|(i, x)| {
                quasar_obs::set_sim_time(0.0);
                f(i, x)
            })
            .collect();
        quasar_obs::set_sim_time(0.0);
        return out;
    }
    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let item = slots[i]
            .lock()
            .expect("item slot poisoned")
            .take()
            .expect("each index is claimed exactly once");
        quasar_obs::set_sim_time(0.0);
        let out = f(i, item);
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    pool::run(threads, n, &task);
    quasar_obs::set_sim_time(0.0);
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// [`par_map`] for items that need a private RNG stream: `f` receives
/// `(index, seed, item)` where `seed = `[`derive_seed`]`(base_seed, index)`.
pub fn par_map_seeded<T, U, F>(threads: usize, base_seed: u64, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, u64, T) -> U + Sync,
{
    par_map(threads, items, |i, item| {
        f(i, derive_seed(base_seed, i as u64), item)
    })
}

/// The persistent pool behind [`par_map`].
///
/// Jobs are queued under one mutex; workers park on `job_ready` while
/// the queue has no claimable work and scan it again on wake. The
/// submitter enqueues its job, wakes workers, works through items
/// itself, then blocks on `job_done` until no worker still holds an item
/// of the job. Because the submitter only returns once the job is fully
/// quiescent, a task closure borrowing stack data can safely be handed
/// to pool threads that outlive the call — that protocol invariant is
/// what the two `unsafe` blocks below encode.
mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    use quasar_obs::registry::{Gauge, Histogram, Registry};

    /// Live pool telemetry (`quasar.core.par.pool.*`). These reflect
    /// actual scheduling — worker counts, queue pressure, per-job
    /// occupancy — so they are deliberately *not* part of the
    /// deterministic snapshot view.
    struct PoolMetrics {
        live: Gauge,
        spawned: Gauge,
        queue_depth_max: Gauge,
        job_workers: Histogram,
    }

    fn pool_metrics() -> &'static PoolMetrics {
        static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let reg = Registry::global();
            PoolMetrics {
                live: reg.gauge("quasar.core.par.pool.live"),
                spawned: reg.gauge("quasar.core.par.pool.spawned"),
                queue_depth_max: reg.gauge("quasar.core.par.pool.queue_depth_max"),
                job_workers: reg.histogram(
                    "quasar.core.par.pool.job_workers",
                    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                ),
            }
        })
    }

    /// Upper bound on pool size. Oversubscribing a little lets blocked
    /// submitters overlap with running workers, but an unbounded pool
    /// would grow with the largest `threads` argument ever seen.
    fn worker_cap() -> usize {
        super::available_threads().saturating_mul(2).clamp(4, 64)
    }

    /// Type-erased pointer to a caller-owned task closure.
    ///
    /// Pool workers outlive any one [`run`] call, so the task cannot be
    /// lent to them as a plain borrow; validity is a protocol invariant
    /// instead: `run` does not return until no worker can reach this
    /// pointer again (job dequeued and `active == 0`), and the pointee
    /// outlives `run`'s borrow of it.
    struct TaskPtr(*const (dyn Fn(usize) + Sync));

    // SAFETY: the pointee is `Sync` (callable from any thread through a
    // shared reference) and `run` keeps it alive for as long as any
    // worker can observe the pointer, per the protocol described above.
    #[allow(unsafe_code)]
    unsafe impl Send for TaskPtr {}
    #[allow(unsafe_code)]
    unsafe impl Sync for TaskPtr {}

    struct Job {
        task: TaskPtr,
        n: usize,
        /// Next unclaimed item index; claims past `n` mean "drained".
        next: AtomicUsize,
        /// Workers currently inside `run_items` for this job. Mutated
        /// only under the pool lock so `job_done` waits cannot miss the
        /// final decrement.
        active: AtomicUsize,
        /// Set on the first panic; stops further claims so the job
        /// drains quickly.
        abort: AtomicBool,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        /// Distinct threads that ran at least one stint on this job
        /// (pool workers + the submitter), for occupancy telemetry.
        participants: AtomicUsize,
    }

    impl Job {
        fn has_work(&self) -> bool {
            !self.abort.load(Ordering::Relaxed) && self.next.load(Ordering::Relaxed) < self.n
        }

        /// Claims and runs items until none remain or the job aborts.
        fn run_items(&self) {
            // SAFETY: this job is observable by the worker (it was found
            // on the queue, or is owned by the submitter), so per the
            // `TaskPtr` protocol the pointee is still alive.
            #[allow(unsafe_code)]
            let task = unsafe { &*self.task.0 };
            while !self.abort.load(Ordering::Relaxed) {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    self.abort.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().expect("panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    }

    #[derive(Default)]
    struct State {
        queue: VecDeque<Arc<Job>>,
        workers: usize,
    }

    struct Pool {
        state: Mutex<State>,
        /// Signalled when a job with claimable work is enqueued.
        job_ready: Condvar,
        /// Signalled when a worker finishes its involvement in a job.
        job_done: Condvar,
        spawned_total: AtomicU64,
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State::default()),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            spawned_total: AtomicU64::new(0),
        })
    }

    pub(super) fn status() -> (usize, u64) {
        let p = pool();
        let workers = p.state.lock().expect("pool state poisoned").workers;
        (workers, p.spawned_total.load(Ordering::Relaxed))
    }

    fn worker_loop(pool: &'static Pool) {
        loop {
            let job: Arc<Job> = {
                let mut st = pool.state.lock().expect("pool state poisoned");
                loop {
                    if let Some(job) = st.queue.iter().find(|j| j.has_work()).cloned() {
                        job.active.fetch_add(1, Ordering::Relaxed);
                        job.participants.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                    st = pool.job_ready.wait(st).expect("pool state poisoned");
                }
            };
            job.run_items();
            let _st = pool.state.lock().expect("pool state poisoned");
            job.active.fetch_sub(1, Ordering::Relaxed);
            pool.job_done.notify_all();
        }
    }

    /// Runs `task(0..n)` on up to `threads` workers (the submitting
    /// thread counts as one), blocking until every index has run. The
    /// first panic raised by an item is resumed here after the job
    /// drains.
    pub(super) fn run(threads: usize, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // SAFETY: pure lifetime erasure between identically-laid-out fat
        // pointers (`*const dyn ... + 'a` → `... + 'static`); the
        // `TaskPtr` protocol keeps every dereference within `'a`.
        #[allow(unsafe_code)]
        let task = TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(std::ptr::from_ref(task))
        });
        let job = Arc::new(Job {
            task,
            n,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            // The submitter always works the job (below).
            participants: AtomicUsize::new(1),
        });
        let pool = pool();
        let metrics = pool_metrics();
        {
            let mut st = pool.state.lock().expect("pool state poisoned");
            st.queue.push_back(job.clone());
            metrics.queue_depth_max.set_max(st.queue.len() as u64);
            let want = threads.min(n).saturating_sub(1).min(worker_cap());
            while st.workers < want {
                std::thread::Builder::new()
                    .name(format!("quasar-par-{}", st.workers))
                    .spawn(move || worker_loop(pool))
                    .expect("failed to spawn pool worker");
                st.workers += 1;
                pool.spawned_total.fetch_add(1, Ordering::Relaxed);
            }
            metrics.live.set(st.workers as u64);
            metrics
                .spawned
                .set(pool.spawned_total.load(Ordering::Relaxed));
            pool.job_ready.notify_all();
        }
        // The submitter works its own job: progress is guaranteed even
        // with every pooled worker busy (or parked behind a nested call).
        job.run_items();
        {
            // Dequeue first so no further worker can pick the job up,
            // then wait for the ones already inside it.
            let mut st = pool.state.lock().expect("pool state poisoned");
            st.queue.retain(|j| !Arc::ptr_eq(j, &job));
            while job.active.load(Ordering::Relaxed) > 0 {
                st = pool.job_done.wait(st).expect("pool state poisoned");
            }
        }
        metrics
            .job_workers
            .record(job.participants.load(Ordering::Relaxed) as f64);
        let payload = job.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(derive_seed(42, i as u64));
        let serial = par_map(1, items.clone(), f);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                par_map(threads, items.clone(), f),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn seeded_streams_depend_only_on_index() {
        let a = par_map_seeded(1, 7, vec![(); 16], |_, seed, ()| seed);
        let b = par_map_seeded(5, 7, vec![(); 16], |_, seed, ()| seed);
        assert_eq!(a, b);
        // All 16 streams distinct.
        let set: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn derive_seed_decorrelates_adjacent_indices() {
        let s0 = derive_seed(0, 0);
        let s1 = derive_seed(0, 1);
        assert_ne!(s0, s1);
        assert!((s0 ^ s1).count_ones() > 8, "adjacent seeds too similar");
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(4, vec![9], |i, x: u32| x + i as u32), vec![9]);
    }

    #[test]
    fn par_map_mut_updates_in_place_and_matches_serial() {
        let f = |i: usize, x: &mut u64| {
            *x = x.wrapping_mul(3).wrapping_add(i as u64);
            *x
        };
        let mut serial: Vec<u64> = (0..97).collect();
        let serial_out = par_map_mut(1, &mut serial, f);
        for threads in [2, 4, 8] {
            let mut items: Vec<u64> = (0..97).collect();
            let out = par_map_mut(threads, &mut items, f);
            assert_eq!(out, serial_out, "threads={threads}");
            assert_eq!(items, serial, "threads={threads}");
        }
        // Outputs are by item index and reflect the in-place update.
        assert_eq!(serial_out[5], serial[5]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map(64, vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..32).collect::<Vec<u32>>(), |_, x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom at 13"), "unexpected payload: {msg}");
        // The pool must stay usable after a panicked job.
        assert_eq!(par_map(4, vec![1u32, 2], |_, x| x + 1), vec![2, 3]);
    }

    #[test]
    fn nested_par_map_completes() {
        let out = par_map(4, (0..8u64).collect::<Vec<_>>(), |_, x| {
            par_map(4, (0..8u64).collect::<Vec<_>>(), move |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8u64)
            .map(|x| (0..8).map(|y| x * 10 + y).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Saturate the pool to its hard cap so neither this test's later
        // calls nor concurrently-running tests can grow it further.
        let _ = par_map(64, (0..256u64).collect::<Vec<_>>(), |i, x| {
            x.wrapping_add(i as u64)
        });
        let (workers_before, spawned_before) = pool_status();
        assert!(
            workers_before >= 3,
            "cap saturation spawned {workers_before}"
        );
        for round in 0..8u64 {
            let out = par_map(64, (0..64u64).collect::<Vec<_>>(), move |i, x| {
                x * 2 + i as u64 + round
            });
            assert_eq!(out[3], 9 + round);
        }
        let (workers_after, spawned_after) = pool_status();
        assert_eq!(workers_before, workers_after);
        assert_eq!(
            spawned_before, spawned_after,
            "consecutive par_map calls must reuse pooled workers, not spawn new ones"
        );
    }
}
