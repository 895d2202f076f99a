//! One pass of a workload: set up the real `QuasarManager` inside a
//! `quasar_cluster::Simulation`, run it to the horizon, and score the
//! outcome.
//!
//! Every manager callback goes through [`Timed`], a bench-owned
//! [`Manager`] wrapper that times the call from outside, counts its
//! allocations, opens a `bench.manager.*` span around it when tracing is
//! on, and afterwards checks the cluster invariants. The checks are
//! timed separately (and spanned as `bench.check`) so they can be
//! subtracted from the run's wall time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use quasar_cluster::{ClusterSpec, JobState, Manager, Observation, SimConfig, Simulation, World};
use quasar_core::{HistorySet, ManagerStats, QuasarConfig, QuasarManager};
use quasar_obs::registry::{Counter, Registry};
use quasar_obs::span::SpanGuard;
use quasar_workloads::{QosTarget, WorkloadId};

use crate::alloc::allocations;
use crate::stats::{mean, percentile};
use crate::workloads::Scenario;

/// Journal event kinds reported as `cluster.journal.<kind>.count`.
pub const JOURNAL_KINDS: [&str; 7] = [
    "placed",
    "evicted",
    "node_added",
    "node_removed",
    "node_resized",
    "completed",
    "qos_episode",
];

/// What one pass measured from outside the program.
#[derive(Debug, Default)]
pub struct Probe {
    /// Wall time of each `on_arrival`, in nanoseconds.
    pub arrival_ns: Vec<u64>,
    /// Wall time of each `on_tick`, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Allocations made inside `on_arrival` calls.
    pub arrival_allocs: u64,
    /// Allocations made inside `on_tick` calls.
    pub tick_allocs: u64,
    /// Wall time spent in the benchmark's own invariant checks.
    pub check_ns: u64,
    /// Invariant breaches, one line each.
    pub breaches: Vec<String>,
    /// Pending-queue depth sampled after every tick.
    pub pending_depth: Vec<u32>,
    /// Simulated time of each workload's first placement.
    pub first_placed: HashMap<WorkloadId, f64>,
    /// Submitted workloads not yet seen placed.
    unplaced: Vec<WorkloadId>,
}

impl Probe {
    /// Checks capacity on every server and records first placements;
    /// `tick` also samples the pending depth.
    fn check(&mut self, world: &World, tick: bool) {
        let t0 = Instant::now();
        let _span = quasar_obs::span::enter("bench.check");
        for s in world.servers() {
            if s.used_cores() > s.total_cores() || s.used_memory_gb() > s.total_memory_gb() + 1e-6 {
                self.breaches.push(format!(
                    "t={} server {} over capacity: {} / {} cores, {:.3} / {:.3} GB",
                    world.now(),
                    s.id(),
                    s.used_cores(),
                    s.total_cores(),
                    s.used_memory_gb(),
                    s.total_memory_gb()
                ));
            }
        }
        let now = world.now();
        let first_placed = &mut self.first_placed;
        self.unplaced.retain(|&id| {
            if world.state(id) == JobState::Pending {
                true
            } else {
                first_placed.insert(id, now);
                false
            }
        });
        if tick {
            self.pending_depth
                .push(world.count_in_state(JobState::Pending) as u32);
        }
        self.check_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// The bench-owned wrapper around the manager under test.
pub struct Timed {
    inner: QuasarManager,
    probe: Rc<RefCell<Probe>>,
}

fn wrapper_span(name: &'static str, id: Option<WorkloadId>) -> Option<SpanGuard> {
    if !quasar_obs::tracing_enabled() {
        return None;
    }
    match id {
        Some(id) => quasar_obs::span::enter_args(name, format!("workload={}", id.0)),
        None => quasar_obs::span::enter(name),
    }
}

impl Manager for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        let span = wrapper_span("bench.manager.arrival", Some(id));
        let a0 = allocations();
        let t0 = Instant::now();
        self.inner.on_arrival(world, id);
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = allocations() - a0;
        drop(span);
        let mut probe = self.probe.borrow_mut();
        probe.arrival_ns.push(ns);
        probe.arrival_allocs += allocs;
        probe.unplaced.push(id);
        probe.check(world, false);
    }

    fn on_tick(&mut self, world: &mut World) {
        let span = wrapper_span("bench.manager.tick", None);
        let a0 = allocations();
        let t0 = Instant::now();
        self.inner.on_tick(world);
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = allocations() - a0;
        drop(span);
        let mut probe = self.probe.borrow_mut();
        probe.tick_ns.push(ns);
        probe.tick_allocs += allocs;
        probe.check(world, true);
    }

    fn on_completion(&mut self, world: &mut World, id: WorkloadId) {
        let span = wrapper_span("bench.manager.completion", Some(id));
        self.inner.on_completion(world, id);
        drop(span);
        self.probe.borrow_mut().check(world, false);
    }

    fn needs_idle_ticks(&self) -> bool {
        self.inner.needs_idle_ticks()
    }
}

/// The deterministic result of a pass: the same for every pass of one
/// workload and seed, at any thread count (see [`Outcome::compare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `World::completion_digest` at the horizon.
    pub completion_digest: u64,
    /// Journal event counts, in [`JOURNAL_KINDS`] order.
    pub journal: [u64; 7],
    /// What the manager did.
    pub stats: ManagerStats,
    /// Mean normalized performance over guaranteed workloads.
    pub norm_perf_mean: f64,
    /// p10 normalized performance over guaranteed workloads.
    pub norm_perf_p10: f64,
    /// Mean CPU utilization over the utilization samples.
    pub util_cpu_mean: f64,
    /// p90 simulated wait from submission to first placement over
    /// guaranteed workloads (unplaced ones count their wait so far).
    pub queue_wait_p90_s: f64,
    /// Guaranteed workloads placed by the horizon over those submitted.
    pub placed_frac: f64,
}

/// Relative tolerance for the float outcome metrics. `World` sums
/// per-server utilization over a `HashMap` of placements, whose
/// iteration order differs between two runs of the same simulation, so
/// `util_cpu_mean` may differ in its last bits; any decision that
/// differed would move it far more than this.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// How two outcomes of the same inputs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Bit for bit.
    Identical,
    /// Equal decisions and counts; floats within [`FLOAT_TOLERANCE`].
    Rounding,
    /// A real difference.
    Differs,
}

impl Outcome {
    /// The five float metrics, in declaration order.
    pub fn floats(&self) -> [f64; 5] {
        [
            self.norm_perf_mean,
            self.norm_perf_p10,
            self.util_cpu_mean,
            self.queue_wait_p90_s,
            self.placed_frac,
        ]
    }

    /// Compares the digest, journal counts and manager counters exactly
    /// and the five float metrics to a relative [`FLOAT_TOLERANCE`].
    pub fn compare(&self, other: &Outcome) -> Agreement {
        if self == other {
            return Agreement::Identical;
        }
        let close = self
            .floats()
            .iter()
            .zip(other.floats())
            .all(|(a, b)| (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()));
        if close
            && self.completion_digest == other.completion_digest
            && self.journal == other.journal
            && self.stats == other.stats
        {
            Agreement::Rounding
        } else {
            Agreement::Differs
        }
    }
}

/// Everything one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Set-up wall time: history bootstrap, manager, cluster and
    /// simulation construction, and scheduling the submissions.
    pub setup_s: f64,
    /// Wall time of `Simulation::run_until`, checks included.
    pub run_s: f64,
    /// Submitted workloads (guaranteed and best-effort) that reached a
    /// first placement.
    pub placed: usize,
    /// The outside-in measurements.
    pub probe: Probe,
    /// The scored outcome.
    pub outcome: Outcome,
}

impl Pass {
    /// Run wall time without the benchmark's own checks.
    pub fn program_run_s(&self) -> f64 {
        self.run_s - self.probe.check_ns as f64 * 1e-9
    }
}

fn journal_counters() -> Vec<Counter> {
    let reg = Registry::global();
    JOURNAL_KINDS
        .iter()
        .map(|k| reg.counter(&format!("quasar.cluster.journal.{k}")))
        .collect()
}

/// A simulation ready to run: the manager under test wrapped in
/// [`Timed`], every submission scheduled.
pub struct Setup {
    sim: Simulation,
    probe: Rc<RefCell<Probe>>,
    stats: Arc<Mutex<ManagerStats>>,
    /// Wall time the set-up took.
    pub setup_s: f64,
}

/// Sets up `scenario` with `threads` classification workers: history
/// bootstrap, manager, cluster and simulation construction, and the
/// scheduled submissions. Only the submissions' clone is untimed.
pub fn setup(scenario: &Scenario, threads: usize) -> Setup {
    let arrivals = scenario.arrivals.clone();
    let probe = Rc::new(RefCell::new(Probe::default()));
    let _span = quasar_obs::span::enter("bench.setup");
    let t0 = Instant::now();
    let config = QuasarConfig {
        threads,
        ..QuasarConfig::default()
    };
    let history = HistorySet::bootstrap(&scenario.catalog, config.training_workloads, config.seed);
    let manager = QuasarManager::with_history(history, config);
    let stats = manager.stats_handle();
    let mut sim = Simulation::new(
        ClusterSpec::uniform(scenario.catalog.clone(), scenario.per_platform),
        Box::new(Timed {
            inner: manager,
            probe: Rc::clone(&probe),
        }),
        SimConfig::default(),
    );
    for (workload, at_s) in arrivals {
        sim.submit_at(workload, at_s);
    }
    Setup {
        sim,
        probe,
        stats,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs one pass of `scenario` with `threads` classification workers.
/// The caller enables tracing around it for a traced pass.
pub fn run_pass(scenario: &Scenario, threads: usize) -> Pass {
    let counters = journal_counters();
    let journal_before: Vec<u64> = counters.iter().map(Counter::get).collect();
    let Setup {
        mut sim,
        probe,
        stats,
        setup_s,
    } = setup(scenario, threads);

    let run_span = quasar_obs::span::enter("bench.sim.run");
    let t1 = Instant::now();
    sim.run_until(scenario.horizon_s);
    let run_s = t1.elapsed().as_secs_f64();
    drop(run_span);

    let mut journal = [0u64; 7];
    for (slot, (c, before)) in journal.iter_mut().zip(counters.iter().zip(journal_before)) {
        *slot = c.get() - before;
    }
    let stats = *stats.lock().expect("manager stats poisoned");
    let probe = std::mem::take(&mut *probe.borrow_mut());
    let outcome = score(scenario, sim.world(), &probe, journal, stats);
    Pass {
        setup_s,
        run_s,
        placed: probe.first_placed.len(),
        probe,
        outcome,
    }
}

/// Scores a finished run with Fig. 11's rule: completion targets score
/// `target / execution` (unfinished jobs project from partial
/// progress), IPS targets the achieved running rate over the floor
/// (0.3 when the rate is unknown), services their QoS-met fraction; all
/// capped at 1.
fn score(
    scenario: &Scenario,
    world: &World,
    probe: &Probe,
    journal: [u64; 7],
    stats: ManagerStats,
) -> Outcome {
    let horizon = scenario.horizon_s;
    let completions: HashMap<WorkloadId, _> =
        world.completions().into_iter().map(|r| (r.id, r)).collect();
    let qos: HashMap<WorkloadId, _> = world.qos_records().into_iter().map(|r| (r.id, r)).collect();
    let mut normalized = Vec::new();
    let mut waits = Vec::new();
    let mut placed = 0usize;
    for (workload, submit_s) in &scenario.arrivals {
        let spec = workload.spec();
        if spec.is_best_effort() {
            continue;
        }
        let id = workload.id();
        let score = match spec.target {
            QosTarget::CompletionTime { seconds } => {
                let record = completions.get(&id);
                match record.and_then(|r| r.execution_s()) {
                    Some(exec) => (seconds / exec).min(1.0),
                    None => {
                        let progress = match world.observation(id) {
                            Some(Observation::Batch { progress, .. }) => progress,
                            _ => 0.0,
                        };
                        unfinished_score(seconds, *submit_s, horizon, progress)
                    }
                }
            }
            QosTarget::Ips { ips } => completions
                .get(&id)
                .and_then(|r| r.achieved_rate_running())
                .map(|rate| (rate / ips).min(1.0))
                .unwrap_or(0.3),
            QosTarget::Throughput { .. } => qos.get(&id).map(|r| r.qos_fraction()).unwrap_or(0.0),
        };
        normalized.push(score);
        match probe.first_placed.get(&id) {
            Some(&t) => {
                placed += 1;
                waits.push(t - submit_s);
            }
            None => waits.push(horizon - submit_s),
        }
    }
    normalized.sort_by(f64::total_cmp);
    waits.sort_by(f64::total_cmp);
    let utilization: Vec<f64> = world
        .metrics()
        .samples()
        .iter()
        .map(|s| s.mean_cpu())
        .collect();
    Outcome {
        completion_digest: world.completion_digest(),
        journal,
        stats,
        norm_perf_mean: mean(&normalized),
        norm_perf_p10: percentile(&normalized, 0.10),
        util_cpu_mean: mean(&utilization),
        queue_wait_p90_s: percentile(&waits, 0.90),
        placed_frac: placed as f64 / normalized.len().max(1) as f64,
    }
}

/// Fig. 11's projection for a batch job unfinished at the horizon:
/// `target * progress / elapsed`, 0 without progress.
fn unfinished_score(target_s: f64, submitted_s: f64, horizon: f64, progress: f64) -> f64 {
    if progress <= 0.0 {
        return 0.0;
    }
    let elapsed = (horizon - submitted_s).max(f64::EPSILON);
    (target_s * progress / elapsed).clamp(0.0, 1.0)
}
