//! The process-global metric registry: named counters, gauges, and
//! fixed-bucket histograms.
//!
//! Metrics are **always on** — recording is a couple of relaxed atomic
//! operations, cheap enough for every hot path — while the span/trace
//! machinery in [`crate::trace`] is opt-in. Call sites obtain a handle
//! once (typically behind a `OnceLock`) and hammer it; the registry map
//! itself is only locked at handle-creation and snapshot time.
//!
//! Naming convention: `quasar.<crate>.<subsystem>.<name>`, e.g.
//! `quasar.core.classify.classifications`. Metrics under
//! [`LIVE_PREFIXES`] (worker pool occupancy) and the `sum`/bucket detail
//! of wall-clock histograms are *scheduling-dependent*: they vary run-to-run and across
//! `--threads` values. [`Snapshot::deterministic`] strips exactly those,
//! leaving a view that is byte-identical for every thread count, which
//! is what the CI determinism smoke diffs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Metric-name prefixes whose values depend on thread scheduling (and so
/// are excluded from [`Snapshot::deterministic`]).
///
/// Pool occupancy obviously varies run to run.
///
/// The sharded manager's wall-clock round timings
/// (`quasar.cluster.shard.wall.*`) are live by definition; its *logical*
/// shard metrics (`quasar.cluster.shard.admitted`, `.rebalanced`,
/// `.queue_depth_max`, ...) are driven by deterministic routing and stay
/// in the deterministic view.
///
/// The CF scratch-arena counters (`quasar.cf.scratch.*`) are live
/// because every worker thread owns its own arena: how checkouts split
/// into reuses vs. grows (and the peak bytes held) depends on how sweep
/// items land on pool threads.
pub const LIVE_PREFIXES: [&str; 3] = [
    "quasar.core.par.pool.",
    "quasar.cf.scratch.",
    "quasar.cluster.shard.wall.",
];

/// Default histogram bucket upper bounds for latencies in microseconds:
/// a 1-2-5 ladder from 1 µs to 5 s, with an implicit overflow bucket.
pub const LATENCY_BOUNDS_US: [f64; 20] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6, 5e6,
];

/// A monotonically-increasing named counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding the latest `u64` value set.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v`.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper-inclusive bucket bounds, ascending; one extra overflow
    /// bucket follows the last bound.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits. The float addition
    /// order (and thus the exact bits) is scheduling-dependent under
    /// parallel recording; deterministic views drop it.
    sum_bits: AtomicU64,
    /// Exact smallest recorded value as `f64` bits (`+inf` when empty).
    /// Unlike the sum, min/max are order-independent — but the recorded
    /// *values* of wall-clock histograms are not, so deterministic views
    /// drop these too.
    min_bits: AtomicU64,
    /// Exact largest recorded value as `f64` bits (`-inf` when empty).
    max_bits: AtomicU64,
}

/// A fixed-bucket histogram. A value `v` lands in the first bucket whose
/// bound satisfies `v <= bound`; values above every bound land in the
/// implicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        update_extreme(&self.0.min_bits, v, |v, cur| v.total_cmp(&cur).is_lt());
        update_extreme(&self.0.max_bits, v, |v, cur| v.total_cmp(&cur).is_gt());
    }

    /// Exact smallest recorded value (streaming, not a bucket bound).
    /// 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
    }

    /// Exact largest recorded value (streaming, not a bucket bound).
    /// 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `p`-quantile (0..=1) by nearest-rank over the bucket
    /// counts, reported as the matched bucket's upper bound (the last
    /// bound for the overflow bucket). 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return self
                    .0
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| *self.0.bounds.last().expect("bounds non-empty"));
            }
        }
        *self.0.bounds.last().expect("bounds non-empty")
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// CAS-updates an `f64`-bits cell toward a new extreme: stores `v` when
/// `better(v, current)` holds. `total_cmp` ordering keeps the loop
/// convergent even against NaN.
fn update_extreme(cell: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while better(v, f64::from_bits(cur)) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. One process-global instance lives behind
/// [`Registry::global`]; tests may build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry (for tests; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Returns the histogram named `name` with the given bucket bounds,
    /// creating it on first use (later calls reuse the first bounds).
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different kind, or if
    /// `bounds` is empty or not strictly ascending.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// A histogram with the default latency buckets
    /// ([`LATENCY_BOUNDS_US`]).
    pub fn histogram_us(&self, name: &str) -> Histogram {
        self.histogram(name, &LATENCY_BOUNDS_US)
    }

    /// Zeroes every registered metric in place (handles stay valid).
    /// Meant for tests and the start of a `trace` run, so summaries
    /// cover exactly one run.
    pub fn reset(&self) {
        let map = self.metrics.lock().expect("registry poisoned");
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.0.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                    h.0.min_bits
                        .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
                    h.0.max_bits
                        .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("registry poisoned");
        let entries = map
            .iter()
            .map(|(name, metric)| MetricSnapshot {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        bounds: h.0.bounds.clone(),
                        buckets: h.bucket_counts(),
                    },
                },
            })
            .collect();
        Snapshot { entries }
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram {
        /// Recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: f64,
        /// Exact smallest recorded value (0 when empty).
        min: f64,
        /// Exact largest recorded value (0 when empty).
        max: f64,
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Bucket counts (`bounds.len() + 1`, last is overflow).
        buckets: Vec<u64>,
    },
}

/// A named metric value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Full metric name.
    pub name: String,
    /// The value.
    pub value: MetricValue,
}

/// A sorted point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metrics sorted by name.
    pub entries: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// The scheduling-independent view: metrics under [`LIVE_PREFIXES`]
    /// are dropped, and histograms are reduced to their counts (bucket
    /// detail and float sums depend on timing / addition order). The
    /// result is byte-identical across `--threads` values for workloads
    /// driven by the deterministic parallel runner.
    pub fn deterministic(&self) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .filter(|e| !LIVE_PREFIXES.iter().any(|p| e.name.starts_with(p)))
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                value: match &e.value {
                    MetricValue::Histogram { count, .. } => MetricValue::Histogram {
                        count: *count,
                        sum: 0.0,
                        min: 0.0,
                        max: 0.0,
                        bounds: Vec::new(),
                        buckets: Vec::new(),
                    },
                    v => v.clone(),
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// Renders one `name kind value` line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} counter {v}", e.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} gauge {v}", e.name);
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    ..
                } => {
                    let _ = writeln!(
                        out,
                        "{} histogram count={count} sum={sum:.1} min={min:.1} max={max:.1}",
                        e.name
                    );
                }
            }
        }
        out
    }

    /// Renders each metric as one JSON object line
    /// (`{"type":"metric",...}`), for the JSONL exporter.
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                let name = crate::json::escape(&e.name);
                match &e.value {
                    MetricValue::Counter(v) => {
                        format!("{{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}")
                    }
                    MetricValue::Gauge(v) => {
                        format!("{{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"{name}\",\"value\":{v}}}")
                    }
                    MetricValue::Histogram {
                        count,
                        sum,
                        min,
                        max,
                        ..
                    } => format!(
                        "{{\"type\":\"metric\",\"kind\":\"histogram\",\"name\":\"{name}\",\"count\":{count},\"sum\":{},\"min\":{},\"max\":{}}}",
                        crate::json::number(*sum),
                        crate::json::number(*min),
                        crate::json::number(*max)
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("quasar.test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same-name lookup returns the same underlying cell.
        assert_eq!(r.counter("quasar.test.count").get(), 5);
        let g = r.gauge("quasar.test.gauge");
        g.set(9);
        g.set_max(3);
        assert_eq!(g.get(), 9);
        g.set_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let r = Registry::new();
        let h = r.histogram("quasar.test.hist", &[10.0, 100.0]);
        // Exactly at a bound lands in that bucket, just above spills over.
        h.record(10.0);
        h.record(10.000001);
        h.record(100.0);
        h.record(100.5); // overflow
        h.record(0.0); // first bucket
        let snap = r.snapshot();
        let MetricValue::Histogram { count, buckets, .. } =
            snap.get("quasar.test.hist").unwrap().clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!(count, 5);
        assert_eq!(buckets, vec![2, 2, 1]);
        assert_eq!(h.sum(), 10.0 + 10.000001 + 100.0 + 100.5);
        // Min/max are exact streamed values, not bucket bounds.
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 100.5);
    }

    #[test]
    fn histogram_min_max_stream_exactly_and_reset() {
        let r = Registry::new();
        let h = r.histogram("quasar.test.minmax", &[10.0]);
        assert_eq!((h.min(), h.max()), (0.0, 0.0), "empty reports zeros");
        h.record(3.5);
        assert_eq!((h.min(), h.max()), (3.5, 3.5));
        h.record(42.25);
        h.record(-1.5);
        assert_eq!((h.min(), h.max()), (-1.5, 42.25));
        let MetricValue::Histogram { min, max, .. } =
            r.snapshot().get("quasar.test.minmax").unwrap().clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!((min, max), (-1.5, 42.25));
        r.reset();
        assert_eq!((h.min(), h.max()), (0.0, 0.0));
        h.record(7.0);
        assert_eq!(
            (h.min(), h.max()),
            (7.0, 7.0),
            "extremes re-arm after reset"
        );
    }

    #[test]
    fn histogram_percentile_nearest_rank_over_buckets() {
        let r = Registry::new();
        let h = r.histogram("quasar.test.p", &[1.0, 2.0, 5.0, 10.0]);
        for v in [0.5, 0.7, 1.5, 3.0, 3.0, 3.0, 7.0, 7.0, 20.0, 20.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(0.5), 5.0);
        assert_eq!(h.percentile(0.8), 10.0);
        // Overflow bucket reports the last bound (best lower estimate).
        assert_eq!(h.percentile(1.0), 10.0);
        assert_eq!(Registry::new().histogram("x", &[1.0]).percentile(0.5), 0.0);
    }

    #[test]
    fn snapshot_deterministic_strips_live_metrics() {
        let r = Registry::new();
        r.counter("quasar.core.par.jobs").add(3);
        r.counter("quasar.cf.scratch.grows").add(2);
        r.counter("quasar.core.classify.classifications").add(5);
        r.gauge("quasar.core.par.pool.live").set(7);
        let h = r.histogram_us("quasar.core.classify.decision_us");
        h.record(123.4);
        r.counter("quasar.cluster.shard.admitted").add(11);
        r.gauge("quasar.cluster.shard.queue_depth_max").set(4);
        r.histogram_us("quasar.cluster.shard.wall.round_us")
            .record(987.6);
        let det = r.snapshot().deterministic();
        assert!(det.get("quasar.core.par.pool.live").is_none());
        assert!(det.get("quasar.cf.scratch.grows").is_none());
        // Shard wall timings are live; logical shard metrics are kept.
        assert!(det.get("quasar.cluster.shard.wall.round_us").is_none());
        assert_eq!(
            det.get("quasar.cluster.shard.admitted"),
            Some(&MetricValue::Counter(11))
        );
        assert_eq!(
            det.get("quasar.cluster.shard.queue_depth_max"),
            Some(&MetricValue::Gauge(4))
        );
        // Logical work counters are deterministic and kept.
        assert_eq!(
            det.get("quasar.core.par.jobs"),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            det.get("quasar.core.classify.classifications"),
            Some(&MetricValue::Counter(5))
        );
        let MetricValue::Histogram {
            count,
            sum,
            min,
            max,
            bounds,
            buckets,
        } = det.get("quasar.core.classify.decision_us").unwrap().clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!((count, sum), (1, 0.0));
        assert_eq!((min, max), (0.0, 0.0), "live extremes stripped");
        assert!(bounds.is_empty() && buckets.is_empty());
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = Registry::new();
        let c = r.counter("a");
        c.add(5);
        let h = r.histogram("b", &[1.0]);
        h.record(0.5);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        // Handles remain usable after reset.
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("same");
        r.counter("same");
    }

    #[test]
    fn snapshot_render_and_jsonl_cover_all_kinds() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(2);
        r.histogram("h", &[1.0]).record(0.5);
        let snap = r.snapshot();
        let rendered = snap.render();
        assert!(rendered.contains("c counter 1"));
        assert!(rendered.contains("g gauge 2"));
        assert!(rendered.contains("h histogram count=1"));
        for line in snap.jsonl_lines() {
            crate::json::validate(&line).expect("metric line must be valid JSON");
        }
    }
}
