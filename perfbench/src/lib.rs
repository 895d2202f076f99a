//! End-to-end admission benchmark for the Quasar manager.
//!
//! One command drives the real `QuasarManager` through
//! `quasar_cluster::Simulation` on one workload (see [`workloads`]) and
//! reports either the end-to-end metrics ([`measure`], untraced) or the
//! per-layer metrics ([`attribute`], from traced passes). Both check the
//! outcome: cluster capacity at every manager callback, and a
//! deterministic outcome identical across every pass of the run (and
//! across one and two classification threads in the traced run).
//!
//! Layers are measured from outside: the benchmark times the public
//! manager callbacks, set-up and `Simulation::run_until`, and reads the
//! spans and counters the program already emits. It adds no
//! instrumentation to the program.

pub mod alloc;
pub mod calibrate;
pub mod harness;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::Path;
use std::time::{Duration, Instant};

use quasar_obs::json;

use harness::{run_pass, Agreement, Outcome, Pass, JOURNAL_KINDS};
use spans::SpanTable;
use stats::{mean, median, ns_to_ms, percentile};
use workloads::Scenario;

/// The seed later claims are made on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 7_919;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Admissions attempted (arrivals over every pass).
    pub attempted: u64,
    /// Admissions that broke an invariant, plus passes whose outcome
    /// differed from the first pass's.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// Diagnostics (per-pass wall times), one line each.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Checks passes of one input against the first of them and records
    /// failures.
    fn verify(&mut self, passes: &[&Pass]) {
        let reference = &passes[0].outcome;
        for (i, pass) in passes.iter().enumerate() {
            self.attempted += pass.probe.arrival_ns.len() as u64;
            for breach in &pass.probe.breaches {
                self.failed += 1;
                self.problems.push(format!("repeat {i}: {breach}"));
            }
            match pass.outcome.compare(reference) {
                Agreement::Identical => {}
                Agreement::Rounding => self.notes.push(format!(
                    "repeat {i}: outcome floats differ from the first pass in rounding only: {:?} vs {:?}",
                    pass.outcome.floats(),
                    reference.floats()
                )),
                Agreement::Differs => {
                    self.failed += 1;
                    self.problems.push(format!(
                        "repeat {i}: outcome {:?} differs from the first pass: {reference:?}",
                        pass.outcome
                    ));
                }
            }
        }
        if let Some(problem) = implausible(reference) {
            self.problems.push(problem);
        }
    }

    fn finish(mut self) -> Report {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite", m.name));
            }
        }
        self.correct = self.problems.is_empty();
        self
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(&m.name),
                    json::number(m.value),
                    json::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric as `name value unit`, one per line.
    pub fn render(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{:<44} {:>16.6} {}\n", m.name, m.value, m.unit))
            .collect()
    }
}

/// Range checks on the scored outcome; `None` when plausible.
fn implausible(o: &Outcome) -> Option<String> {
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    let ok = unit(o.norm_perf_mean)
        && unit(o.norm_perf_p10)
        && unit(o.util_cpu_mean)
        && unit(o.placed_frac)
        && o.placed_frac > 0.0
        && o.queue_wait_p90_s.is_finite()
        && o.queue_wait_p90_s >= 0.0
        && o.journal[0] > 0;
    (!ok).then(|| format!("implausible outcome: {o:?}"))
}

/// Process peak resident set (VmHWM) in MB; NaN where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-ups timed on their own before each pass, on top of the pass's
/// own, so each pass contributes the median of three.
const EXTRA_SETUPS: usize = 2;

/// The end-to-end run over a run's `inputs` (see
/// [`workloads::inputs`]): untraced passes cycling through the inputs
/// until `budget` has passed (at least `min_passes`, and every input
/// once), at the default single classification thread, each after
/// [`EXTRA_SETUPS`] timed set-ups.
///
/// Every pass starts with the [`calibrate`] kernel, and its timings are
/// scaled to the reference host speed. Each pass yields its own
/// admission p50 and p90 and its median set-up; the run reports their
/// means over passes (a shared host can run in fast and slow phases
/// lasting seconds: a median over passes jumps between the two, while a
/// mean follows their mix). Placements per second pools every pass; the
/// outcome metrics are means over the inputs. Every repeat of an input
/// must reproduce its first outcome.
pub fn measure(inputs: &[Scenario], budget: Duration, min_passes: usize) -> Report {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut speed = Vec::new();
    while passes.len() < min_passes.max(inputs.len()) || start.elapsed() < budget {
        let input = &inputs[passes.len() % inputs.len()];
        speed.push(calibrate::REFERENCE_S / calibrate::kernel_s());
        let mut times: Vec<f64> = (0..EXTRA_SETUPS)
            .map(|_| harness::setup(input, 1).setup_s)
            .collect();
        let pass = run_pass(input, 1);
        times.push(pass.setup_s);
        setups.push(median(&times));
        passes.push(pass);
    }

    let mut report = Report::default();
    for k in 0..inputs.len() {
        let repeats: Vec<&Pass> = passes.iter().skip(k).step_by(inputs.len()).collect();
        report.verify(&repeats);
    }
    for (i, p) in passes.iter().enumerate() {
        report.notes.push(format!(
            "pass {i} (input {}): calibration {:.1} ms, setup {:.4} s, run {:.3} s, checks {:.4} s, {} placed",
            i % inputs.len(),
            calibrate::REFERENCE_S / speed[i] * 1e3,
            p.setup_s,
            p.run_s,
            p.probe.check_ns as f64 * 1e-9,
            p.placed
        ));
    }

    // Each timing at the reference speed (`scale` = speed) and raw (1).
    let timings = |scale: &dyn Fn(usize) -> f64| {
        let admit = |p: f64| {
            let per_pass: Vec<f64> = passes
                .iter()
                .enumerate()
                .map(|(i, pass)| percentile(&ns_to_ms(&pass.probe.arrival_ns), p) * scale(i))
                .collect();
            mean(&per_pass)
        };
        let placed: usize = passes.iter().map(|p| p.placed).sum();
        let run_s: f64 = passes
            .iter()
            .enumerate()
            .map(|(i, p)| p.program_run_s() * scale(i))
            .sum();
        let setup = setups.iter().enumerate().map(|(i, s)| s * scale(i));
        [
            admit(0.5),
            admit(0.9),
            placed as f64 / run_s,
            mean(&setup.collect::<Vec<_>>()),
        ]
    };
    let raw = timings(&|_| 1.0);
    report.notes.push(format!(
        "raw host wall: admit_p50_ms={} admit_p90_ms={} placements_per_s={} setup_s={}",
        raw[0], raw[1], raw[2], raw[3]
    ));
    let [p50, p90, rate, setup] = timings(&|i| speed[i]);
    report.push("admit_p50_ms", p50, "ms");
    report.push("admit_p90_ms", p90, "ms");
    report.push("placements_per_s", rate, "1/s");
    report.push("setup_s", setup, "s");
    let first = &passes[..inputs.len()];
    let outcome_mean =
        |f: fn(&Outcome) -> f64| mean(&first.iter().map(|p| f(&p.outcome)).collect::<Vec<_>>());
    report.push(
        "norm_perf_mean",
        outcome_mean(|o| o.norm_perf_mean),
        "ratio",
    );
    report.push("util_cpu_mean", outcome_mean(|o| o.util_cpu_mean), "ratio");
    report.finish()
}

/// A traced pass: the pass, its span table and events, and the events
/// the trace collector dropped at its cap.
struct Traced {
    pass: Pass,
    table: SpanTable,
    events: Vec<quasar_obs::Event>,
    dropped: u64,
}

fn traced_pass(scenario: &Scenario, threads: usize) -> Traced {
    quasar_obs::trace::enable();
    let pass = run_pass(scenario, threads);
    let mut events = quasar_obs::trace::drain();
    let dropped = quasar_obs::trace::dropped_events();
    let table = spans::analyze(&mut events, quasar_obs::span::thread_tid());
    Traced {
        pass,
        table,
        events,
        dropped,
    }
}

/// The per-layer run: one untraced pass (the baseline for tracing
/// overhead and the allocation counts), one traced pass at one
/// classification thread (the per-layer table) and one at two (the
/// parallel classification speed-up and the thread-invariance check).
/// With `out_dir`, the one-thread trace is written there as a Chrome
/// trace plus a per-layer table.
pub fn attribute(scenario: &Scenario, seed: u64, out_dir: Option<&Path>) -> Report {
    let mut calibration = vec![calibrate::kernel_s()];
    let plain = run_pass(scenario, 1);
    let peak_rss_mb = peak_rss_mb();
    calibration.push(calibrate::kernel_s());
    let t1 = traced_pass(scenario, 1);
    calibration.push(calibrate::kernel_s());
    let t2 = traced_pass(scenario, 2);

    let mut report = Report::default();
    report.verify(&[&plain, &t1.pass, &t2.pass]);
    for t in [&t1, &t2] {
        if t.dropped > 0 {
            report
                .problems
                .push(format!("trace dropped {} events", t.dropped));
        }
    }
    if let Some(dir) = out_dir {
        let stem = format!("{}-seed{seed}", scenario.name);
        if let Err(e) = spans::export(dir, &stem, &t1.events, &t1.table, t1.pass.run_s) {
            report
                .problems
                .push(format!("writing the trace to {}: {e}", dir.display()));
        }
    }

    let table = &t1.table;
    let run_wall = t1.pass.run_s;
    let probe = &plain.probe;
    let outcome = &t1.pass.outcome;
    let placed = outcome.journal[0].max(1) as f64;

    let arrival = table.layer("bench.manager.arrival");
    report.push("core.manager.arrival.count", arrival.count as f64, "count");
    report.push("core.manager.arrival.busy_s", arrival.busy_s(), "s");
    report.push("core.manager.arrival.self_s", arrival.self_s(), "s");

    let decision = table.layer("core.classify.decision");
    report.push(
        "core.classify.decision.count",
        decision.count as f64,
        "count",
    );
    report.push("core.classify.decision.busy_s", decision.busy_s(), "s");
    report.push(
        "core.classify.decision.p50_ms",
        decision.percentile_ms(0.5),
        "ms",
    );
    for axis in ["scale_up", "scale_out", "hetero", "interference", "params"] {
        let layer = table.layer(&format!("core.classify.{axis}"));
        report.push(&format!("core.classify.{axis}.busy_s"), layer.busy_s(), "s");
    }
    let decision_2t = t2.table.layer("core.classify.decision").busy_s();
    report.push(
        "core.par.classify_speedup_2t",
        decision.busy_s() / decision_2t,
        "ratio",
    );

    for (layer, span) in [
        ("tick", "bench.manager.tick"),
        ("completion", "bench.manager.completion"),
    ] {
        let l = table.layer(span);
        report.push(
            &format!("core.manager.{layer}.count"),
            l.count as f64,
            "count",
        );
        report.push(&format!("core.manager.{layer}.busy_s"), l.busy_s(), "s");
        report.push(&format!("core.manager.{layer}.self_s"), l.self_s(), "s");
        report.push(
            &format!("core.manager.{layer}.p99_ms"),
            l.percentile_ms(0.99),
            "ms",
        );
    }

    let plan = table.layer("core.greedy.plan");
    report.push("core.greedy.plan.count", plan.count as f64, "count");
    report.push("core.greedy.plan.busy_s", plan.busy_s(), "s");
    report.push(
        "core.greedy.plans_per_placement",
        plan.count as f64 / placed,
        "ratio",
    );

    let stats = outcome.stats;
    report.push(
        "core.manager.classifications",
        stats.classifications as f64,
        "count",
    );
    report.push(
        "core.manager.adaptations",
        stats.adaptations as f64,
        "count",
    );
    report.push(
        "core.manager.proactive_probes",
        stats.proactive_probes as f64,
        "count",
    );
    report.push("core.manager.evictions", stats.evictions as f64, "count");
    report.push(
        "core.manager.degraded_placements",
        stats.degraded_placements as f64,
        "count",
    );
    report.push(
        "core.manager.evictions_per_placement",
        stats.evictions as f64 / placed,
        "ratio",
    );
    let depth: Vec<f64> = probe.pending_depth.iter().map(|&d| d as f64).collect();
    report.push(
        "core.manager.pending_depth_max",
        depth.iter().copied().fold(0.0, f64::max),
        "count",
    );
    report.push("core.manager.pending_depth_mean", mean(&depth), "count");

    for name in ["place", "tick"] {
        let l = table.layer(&format!("cluster.world.{name}"));
        report.push(
            &format!("cluster.world.{name}.count"),
            l.count as f64,
            "count",
        );
        report.push(&format!("cluster.world.{name}.busy_s"), l.busy_s(), "s");
    }
    report.push(
        "cluster.sim.self_s",
        table.layer("bench.sim.run").self_s(),
        "s",
    );
    for (kind, count) in JOURNAL_KINDS.iter().zip(outcome.journal) {
        report.push(
            &format!("cluster.journal.{kind}.count"),
            count as f64,
            "count",
        );
    }

    report.push(
        "alloc.per_admission",
        probe.arrival_allocs as f64 / probe.arrival_ns.len().max(1) as f64,
        "allocs",
    );
    report.push(
        "alloc.per_tick",
        probe.tick_allocs as f64 / probe.tick_ns.len().max(1) as f64,
        "allocs",
    );

    // Shares of the traced `run_until` wall, the figures the workload
    // intents are stated in.
    let tick = table.layer("bench.manager.tick");
    let completion = table.layer("bench.manager.completion");
    report.push("share.classify", decision.busy_s() / run_wall, "ratio");
    report.push(
        "share.replan",
        (tick.self_s() + completion.self_s()) / run_wall,
        "ratio",
    );
    report.push(
        "share.physics",
        (table.layer("cluster.world.tick").busy_s() + tick.busy_s()) / run_wall,
        "ratio",
    );

    // Outcome and memory figures that swing too far with the seed to
    // hold an end-to-end bound; reported here without one.
    report.push("outcome.norm_perf_p10", outcome.norm_perf_p10, "ratio");
    report.push(
        "outcome.queue_wait_p90_s",
        outcome.queue_wait_p90_s,
        "sim-s",
    );
    report.push("outcome.placed_frac", outcome.placed_frac, "ratio");
    report.push("mem.peak_rss_mb", peak_rss_mb, "MB");
    report.push("host.calibration_ms", median(&calibration) * 1e3, "ms");

    report.push(
        "trace.overhead_frac",
        t1.pass.run_s / plain.run_s - 1.0,
        "ratio",
    );
    let setup_run_s = t1.pass.setup_s + t1.pass.run_s;
    report.push(
        "trace.coverage",
        table.attributed_us as f64 * 1e-6 / setup_run_s,
        "ratio",
    );
    report.push("trace.dropped", (t1.dropped + t2.dropped) as f64, "count");
    report.finish()
}
