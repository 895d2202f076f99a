//! Datacenter-scale sharded admission: per-worker cells, batched
//! decisions, and a narrow cross-shard seam.
//!
//! The paper's headline scalability claim (§4.4) is that Quasar keeps
//! scheduling overheads flat as the cluster grows because decisions touch
//! per-job state, not global state. This module reproduces that shape:
//! cluster state is carved into [`Cell`]s (each a disjoint server slice
//! with its own world and manager), arrivals are routed serially into
//! per-cell inboxes, and every admission round fans the cells out on the
//! persistent worker pool via [`par_map_mut`]. Cells only communicate
//! through the [`Seam`] slot table and the serial [`rebalance`] pass
//! between rounds, so output is byte-identical for every thread count
//! *and* the placement outcome is identical for every shard count when
//! capacity is not contended (see `fig12` in `quasar-experiments`).
//!
//! The per-cell manager is [`BatchAdmission`]: a deliberately lean
//! admission path that classifies one representative job up front
//! ([`template_classification`]) and then plans whole batches with
//! [`GreedyScheduler::plan_batch`] instead of re-profiling every arrival
//! — sandboxed profiling runs a scratch world per job, which at 10⁵–10⁶
//! arrivals would dwarf the scheduling cost being measured.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use quasar_cluster::managers::{Manager, NullManager};
use quasar_cluster::shard::{rebalance, route};
use quasar_cluster::{Cell, ClusterSpec, NodeAlloc, Seam, ServerId, SimConfig, Simulation, World};
use quasar_interference::PressureVector;
use quasar_obs::registry::{Histogram, Registry};
use quasar_workloads::generate::Generator;
use quasar_workloads::{Priority, QosTarget, Workload, WorkloadId};

use crate::axes::Axes;
use crate::classify::{Classification, Classifier};
use crate::greedy::{CandidateServer, GreedyScheduler};
use crate::history::HistorySet;
use crate::par::par_map_mut;
use crate::profile::Profiler;

/// Live wall-clock telemetry for the sharded driver. Everything under
/// `quasar.cluster.shard.wall.` is stripped from deterministic snapshots.
fn round_wall_us() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| {
        Registry::global().histogram(
            "quasar.cluster.shard.wall.round_us",
            &[
                100.0,
                300.0,
                1_000.0,
                3_000.0,
                10_000.0,
                30_000.0,
                100_000.0,
                300_000.0,
                1_000_000.0,
            ],
        )
    })
}

/// Counters kept by a [`BatchAdmission`] manager, read through the
/// [`Arc<Mutex<_>>`] handle the driver keeps after the manager is boxed
/// into its cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Placement decisions attempted (plan computations, including
    /// retries for jobs that found no room in an earlier round).
    pub decisions: u64,
    /// Jobs successfully placed.
    pub placed: u64,
}

/// Most jobs a [`BatchAdmission`] manager plans per tick. On a saturated
/// cell the unplaced backlog can reach the full sweep size; replanning
/// all of it every tick would make per-tick cost O(backlog) instead of
/// O(capacity). The cap keeps retries FIFO-fair and per-tick work flat.
const PLAN_CAP: usize = 512;

/// A lean per-cell manager for datacenter-scale admission sweeps.
///
/// Arrivals are buffered; each tick up to [`PLAN_CAP`] of them are
/// planned in one [`GreedyScheduler::plan_batch`] sweep against a single
/// snapshot of the cell's servers, using a shared template
/// [`Classification`] instead of per-job profiling. Jobs whose plan
/// found no room are re-queued for the next tick. Plans are committed
/// even when they miss the target with margin — the sweep measures
/// decision throughput, and an under-margin plan on an uncontended
/// cluster still runs the job.
pub struct BatchAdmission {
    axes: Axes,
    class: Classification,
    scheduler: GreedyScheduler,
    queue: VecDeque<WorkloadId>,
    stats: Arc<Mutex<BatchStats>>,
}

impl BatchAdmission {
    /// A batched-admission manager planning with `class` on `axes`.
    pub fn new(axes: Axes, class: Classification) -> BatchAdmission {
        BatchAdmission {
            axes,
            class,
            scheduler: GreedyScheduler::new(4),
            queue: VecDeque::new(),
            stats: Arc::new(Mutex::new(BatchStats::default())),
        }
    }

    /// A handle onto the decision counters that stays readable after the
    /// manager is boxed into a [`Cell`].
    pub fn stats_handle(&self) -> Arc<Mutex<BatchStats>> {
        self.stats.clone()
    }

    /// The candidate view of the cell's servers: free capacity with no
    /// interference estimate. Template classification already folded the
    /// workload's tolerated/caused pressure into the plan margin; per-job
    /// pressure accounting is what the full `QuasarManager` is for.
    fn candidates(&self, world: &World) -> Vec<CandidateServer> {
        world
            .servers()
            .iter()
            .map(|server| CandidateServer {
                server: server.id().0,
                platform_index: self.axes.platform_index(server.platform()),
                free_cores: server.free_cores(),
                free_memory_gb: server.free_memory_gb(),
                pressure: PressureVector::zero(),
                victim_factor: 1.0,
                hourly_price: world.platform_of(server.id()).price_per_hour(),
            })
            .collect()
    }
}

impl Manager for BatchAdmission {
    fn name(&self) -> &str {
        "batch-admission"
    }

    // Every queued job is world-pending, so an idle world implies an
    // empty admission queue and a no-op tick: idle spans may be skipped.
    fn needs_idle_ticks(&self) -> bool {
        false
    }

    fn on_arrival(&mut self, _world: &mut World, id: WorkloadId) {
        self.queue.push_back(id);
    }

    fn on_tick(&mut self, world: &mut World) {
        if self.queue.is_empty() {
            return;
        }
        let take = self.queue.len().min(PLAN_CAP);
        let batch: Vec<WorkloadId> = self.queue.drain(..take).collect();
        let targets: Vec<QosTarget> = batch.iter().map(|&id| world.spec(id).target).collect();
        let candidates = self.candidates(world);
        let plans = self
            .scheduler
            .plan_batch(&self.axes, &self.class, &targets, &candidates);
        let mut placed = 0u64;
        for (&id, plan) in batch.iter().zip(&plans) {
            let committed = plan.as_ref().is_some_and(|plan| {
                let nodes: Vec<NodeAlloc> = plan
                    .nodes
                    .iter()
                    .map(|&(server, resources)| NodeAlloc {
                        server: ServerId(server),
                        resources,
                        active_after: world.now(),
                    })
                    .collect();
                world.place(id, nodes, Default::default()).is_ok()
            });
            if committed {
                placed += 1;
            } else {
                self.queue.push_back(id);
            }
        }
        let mut stats = self.stats.lock().expect("stats poisoned");
        stats.decisions += batch.len() as u64;
        stats.placed += placed;
    }

    fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}
}

/// Classifies one representative single-node job on a sandboxed
/// one-server scratch world and returns the result for reuse across an
/// entire admission sweep.
///
/// Profiling and CF classification run exactly once per sweep, not per
/// arrival: at the 10⁵–10⁶ jobs `fig12` admits, per-arrival sandboxed
/// profiling would dominate the very scheduling cost the sweep measures.
/// All sweep jobs
/// are drawn from the same generator family, so one classification is
/// representative.
pub fn template_classification(
    history: &HistorySet,
    spec: &ClusterSpec,
    seed: u64,
) -> Classification {
    let catalog = spec.catalog().clone();
    let config = SimConfig {
        noise: 0.0,
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 1),
        Box::new(NullManager),
        config,
    );
    let mut generator = Generator::new(catalog, seed);
    let job = generator.single_node_job("template", 300.0, Priority::Guaranteed);
    let id = job.id();
    sim.submit_at(job, 0.0);
    // One tick delivers the submission; the job stays pending under the
    // null manager, which is all sandboxed profiling needs.
    let tick = sim.world().tick_s();
    sim.run_until(tick);
    let mut profiler = Profiler::new(2, seed ^ 0xF00D);
    let data = profiler.profile(sim.world_mut(), history.axes(), id);
    Classifier::new().classify(history, &data)
}

/// Tuning for [`run_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of cells to carve the cluster into.
    pub shards: usize,
    /// Worker threads for the per-round fan-out (1 = serial).
    pub threads: usize,
    /// Maximum inbox jobs a cell admits per round.
    pub batch_cap: usize,
    /// Simulated seconds per round (each round ticks physics this far).
    pub round_s: f64,
    /// Hard cap on rounds, so a sweep with unplaceable jobs terminates.
    pub max_rounds: usize,
    /// Backlog spread tolerated before [`rebalance`] migrates queued jobs.
    pub rebalance_threshold: usize,
    /// Per-cell world configuration (seed, tick, noise).
    pub sim: SimConfig,
}

impl Default for ShardedConfig {
    fn default() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            threads: 1,
            batch_cap: 256,
            round_s: 30.0,
            max_rounds: 1_000,
            rebalance_threshold: 8,
            sim: SimConfig {
                noise: 0.0,
                ..SimConfig::default()
            },
        }
    }
}

/// What a sharded admission sweep produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOutcome {
    /// Cells the cluster was carved into.
    pub shards: usize,
    /// Jobs routed into the sweep.
    pub jobs: usize,
    /// Jobs successfully placed.
    pub placed: u64,
    /// Placement decisions attempted across all cells (retries included).
    pub decisions: u64,
    /// Admission rounds run.
    pub rounds: u64,
    /// Deepest per-cell backlog observed at any round boundary.
    pub max_queue_depth: usize,
    /// Jobs migrated between cells by [`rebalance`].
    pub rebalanced: u64,
    /// FNV-1a digest over the globally-sorted `(job id, placed)` pairs.
    /// On an uncontended cluster this is invariant across shard counts —
    /// the determinism smoke compares it between 1 and 4 shards.
    pub digest: u64,
    /// QoS violation episodes closed across all cells (open episodes are
    /// closed when the sweep drains).
    pub qos_episodes: u64,
    /// Severe episodes dumped as incident reports across all cells.
    pub qos_incidents: u64,
    /// FNV-1a digest over the globally-sorted episode ledger (workload,
    /// start, end, cause, ticks, peak depth). Invariant across thread
    /// counts; shard count changes colocation, so it is compared only
    /// between runs with the same shard count.
    pub qos_digest: u64,
}

/// Runs a batched admission sweep of `jobs` over `spec` carved into
/// `config.shards` cells.
///
/// The coordinator routes every job serially ([`route`]: least-loaded,
/// lowest-id ties), then loops rounds: fan the cells out on the worker
/// pool ([`par_map_mut`]), read the seam serially, and [`rebalance`]
/// queued jobs across cells — rebalance stays off the admission fast
/// path by design (DESIGN.md §5). The loop ends when no cell holds
/// backlog or `config.max_rounds` is hit.
pub fn run_sharded(
    spec: &ClusterSpec,
    history: &HistorySet,
    jobs: Vec<Workload>,
    config: &ShardedConfig,
) -> ShardedOutcome {
    let _span = quasar_obs::span!("core.sharded.run", "shards={}", config.shards);
    let template = template_classification(history, spec, config.sim.seed);
    let axes = history.axes();

    let seam = Seam::shared(config.shards);
    let mut stats: Vec<Arc<Mutex<BatchStats>>> = Vec::with_capacity(config.shards);
    let mut cells: Vec<Cell> = spec
        .partition(config.shards)
        .into_iter()
        .enumerate()
        .map(|(id, part)| {
            let manager = BatchAdmission::new(axes.clone(), template.clone());
            stats.push(manager.stats_handle());
            Cell::new(
                id,
                part,
                Box::new(manager),
                config.sim,
                config.batch_cap,
                seam.clone(),
            )
        })
        .collect();

    let routed = route(&mut cells, jobs);

    let mut rounds = 0u64;
    let mut max_queue_depth = 0usize;
    let mut rebalanced = 0u64;
    while rounds < config.max_rounds as u64 {
        rounds += 1;
        let t_end = rounds as f64 * config.round_s;
        let started = std::time::Instant::now();
        par_map_mut(config.threads, &mut cells, |_, cell| cell.run_round(t_end));
        round_wall_us().record(started.elapsed().as_micros() as f64);
        // Serial seam read: the routing/rebalance load signal for this
        // round boundary.
        let round_max = {
            let seam = seam.lock().expect("seam poisoned");
            seam.slots().iter().map(|s| s.backlog).max().unwrap_or(0)
        };
        max_queue_depth = max_queue_depth.max(round_max);
        rebalanced += rebalance(&mut cells, config.rebalance_threshold);
        if cells.iter().map(Cell::backlog_estimate).sum::<usize>() == 0 {
            break;
        }
    }

    let (decisions, placed) = stats.iter().fold((0u64, 0u64), |(d, p), handle| {
        let s = handle.lock().expect("stats poisoned");
        (d + s.decisions, p + s.placed)
    });

    // Close still-open QoS episodes (the sweep is over) and fold the
    // cross-cell episode ledger into a globally-sorted digest, so the
    // value is independent of how jobs were distributed across threads.
    let mut qos_incidents = 0u64;
    let mut episodes: Vec<(u64, u64, u64, &'static str, u64, u64)> = Vec::new();
    for cell in &mut cells {
        cell.world_mut().finish_qos();
        qos_incidents += cell.world().incidents().len() as u64;
        episodes.extend(cell.world().qos().episodes().iter().map(|e| {
            (
                e.workload.0,
                e.start_s.to_bits(),
                e.end_s.to_bits(),
                e.cause.as_str(),
                e.ticks,
                e.peak_depth.to_bits(),
            )
        }));
    }
    episodes.sort_unstable();
    let qos_episodes = episodes.len() as u64;
    let mut qos_digest: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            qos_digest ^= u64::from(byte);
            qos_digest = qos_digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (workload, start, end, cause, ticks, peak) in &episodes {
        fold(*workload);
        fold(*start);
        fold(*end);
        for byte in cause.bytes() {
            fold(u64::from(byte));
        }
        fold(*ticks);
        fold(*peak);
    }

    // Globally-sorted placement digest, so the value is independent of
    // how jobs were distributed across cells.
    let mut placements: Vec<(WorkloadId, bool)> = cells.iter().flat_map(Cell::placements).collect();
    placements.sort_unstable();
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for (id, placed) in &placements {
        for byte in id.0.to_le_bytes().iter().chain(&[u8::from(*placed)]) {
            digest ^= u64::from(*byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    ShardedOutcome {
        shards: config.shards,
        jobs: routed,
        placed,
        decisions,
        rounds,
        max_queue_depth,
        rebalanced,
        digest,
        qos_episodes,
        qos_incidents,
        qos_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_workloads::PlatformCatalog;

    fn sweep_jobs(n: usize, seed: u64) -> Vec<Workload> {
        let mut generator = Generator::new(PlatformCatalog::local(), seed);
        (0..n)
            .map(|i| generator.single_node_job(format!("j{i}"), 120.0, Priority::Guaranteed))
            .collect()
    }

    fn history() -> HistorySet {
        HistorySet::bootstrap(&PlatformCatalog::local(), 24, 0x51AD)
    }

    #[test]
    fn sweep_places_everything_on_an_uncontended_cluster() {
        let spec = ClusterSpec::uniform(PlatformCatalog::local(), 4);
        let history = history();
        let outcome = run_sharded(
            &spec,
            &history,
            sweep_jobs(60, 0x5EED),
            &ShardedConfig {
                shards: 2,
                ..ShardedConfig::default()
            },
        );
        assert_eq!(outcome.jobs, 60);
        assert_eq!(outcome.placed, 60, "generous capacity must admit all");
        assert!(outcome.decisions >= 60);
        assert!(outcome.rounds < 100, "sweep must drain quickly");
    }

    #[test]
    fn outcome_is_invariant_across_threads_and_shard_counts() {
        let spec = ClusterSpec::uniform(PlatformCatalog::local(), 4);
        let history = history();
        let run = |shards: usize, threads: usize| {
            run_sharded(
                &spec,
                &history,
                sweep_jobs(80, 0xD1CE),
                &ShardedConfig {
                    shards,
                    threads,
                    ..ShardedConfig::default()
                },
            )
        };
        let serial = run(4, 1);
        let parallel = run(4, 4);
        assert_eq!(serial, parallel, "threads must not change the outcome");
        // Placement outcome (who got placed, not where) is shard-count
        // invariant on an uncontended cluster.
        let one = run(1, 2);
        assert_eq!(one.placed, serial.placed);
        assert_eq!(one.digest, serial.digest);
        assert_eq!(one.jobs, serial.jobs);
    }

    #[test]
    fn batch_admission_requeues_jobs_that_found_no_room() {
        // A one-server sliver: most of the batch must spill to later
        // rounds rather than vanish.
        let spec = ClusterSpec::with_counts(
            PlatformCatalog::local(),
            vec![(quasar_workloads::PlatformId(0), 1)],
        );
        let history = history();
        let outcome = run_sharded(
            &spec,
            &history,
            sweep_jobs(12, 0xBEEF),
            &ShardedConfig {
                shards: 1,
                max_rounds: 400,
                ..ShardedConfig::default()
            },
        );
        assert_eq!(outcome.jobs, 12);
        assert_eq!(outcome.placed, 12, "jobs place as earlier ones finish");
        assert!(
            outcome.decisions > 12,
            "spilled jobs must be retried, decisions {}",
            outcome.decisions
        );
    }
}
