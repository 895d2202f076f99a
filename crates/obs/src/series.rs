//! Fixed-capacity, deterministically-downsampled windowed time series,
//! keyed by `(name, entity id)` — the per-workload / per-cell complement
//! to the global [`crate::registry`] counters.
//!
//! A counter answers "how many, in total"; a series answers "what did
//! *this* workload's signal look like over the run" with a bounded
//! memory footprint. Every series keeps at most `capacity` points: when
//! it fills, the retention stride doubles and every other retained
//! point is dropped. The surviving set depends only on the *sequence*
//! of recorded points (index `i` survives iff `i % stride == 0`), never
//! on timing or thread interleaving, so snapshots are byte-identical
//! across `--threads` and `QUASAR_SHARDS` for logically-identical runs
//! — the same contract as the masked trace exporters.
//!
//! # Examples
//!
//! ```
//! use quasar_obs::series::SeriesStore;
//!
//! let mut store = SeriesStore::new(8);
//! for i in 0..20 {
//!     store.record("qos.depth", 3, i as f64, 0.1 * i as f64);
//! }
//! let series = store.get("qos.depth", 3).unwrap();
//! assert!(series.points().len() <= 8);
//! assert_eq!(series.recorded(), 20);
//! assert_eq!(series.points()[0].0, 0.0); // the first point always survives
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One bounded, stride-downsampled series of `(sim-time, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    capacity: usize,
    stride: u64,
    recorded: u64,
    points: Vec<(f64, f64)>,
}

impl Series {
    fn new(capacity: usize) -> Series {
        Series {
            capacity,
            stride: 1,
            recorded: 0,
            points: Vec::new(),
        }
    }

    fn push(&mut self, t_s: f64, v: f64) {
        if self.recorded.is_multiple_of(self.stride) {
            self.points.push((t_s, v));
            if self.points.len() >= self.capacity {
                // Halve the window: keep even positions (multiples of the
                // doubled stride), drop the rest. Purely index-driven, so
                // the survivors are scheduling-independent.
                let mut keep = 0usize;
                self.points.retain(|_| {
                    let kept = keep.is_multiple_of(2);
                    keep += 1;
                    kept
                });
                self.stride *= 2;
            }
        }
        self.recorded += 1;
    }

    /// Retained points, oldest first, as `(sim_time_s, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Total points ever recorded (including downsampled-away ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Current retention stride: every `stride`-th recorded point is
    /// kept. 1 until the first downsample.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The last retained value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }
}

/// A keyed collection of [`Series`], one per `(name, entity)` pair.
///
/// The store is a plain owned value — each `World` (and therefore each
/// shard cell) holds its own, and cross-cell views are built by merging
/// snapshots — so no cross-thread interleaving can ever touch ordering.
/// Series are nested by name, then by entity: lookups borrow the name,
/// so recording into an existing series allocates nothing, and nested
/// iteration keeps the `(name, entity)` snapshot order.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    capacity: usize,
    series: BTreeMap<String, BTreeMap<u64, Series>>,
}

impl SeriesStore {
    /// A store whose series each retain at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (downsampling needs room to halve).
    pub fn new(capacity: usize) -> SeriesStore {
        assert!(capacity >= 2, "series capacity must be at least 2");
        SeriesStore {
            capacity,
            series: BTreeMap::new(),
        }
    }

    /// Appends a point to the series keyed `(name, entity)`, creating
    /// the series on first use.
    pub fn record(&mut self, name: &str, entity: u64, t_s: f64, v: f64) {
        if !self.series.contains_key(name) {
            self.series.insert(name.to_string(), BTreeMap::new());
        }
        self.series
            .get_mut(name)
            .expect("inserted above")
            .entry(entity)
            .or_insert_with(|| Series::new(self.capacity))
            .push(t_s, v);
    }

    /// Looks a series up by key.
    pub fn get(&self, name: &str, entity: u64) -> Option<&Series> {
        self.series.get(name)?.get(&entity)
    }

    /// Number of distinct `(name, entity)` series.
    pub fn len(&self) -> usize {
        self.series.values().map(BTreeMap::len).sum()
    }

    /// Whether no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// A sorted point-in-time copy of every series.
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            entries: self
                .series
                .iter()
                .flat_map(|(name, by_entity)| {
                    by_entity.iter().map(|(entity, s)| SeriesEntry {
                        name: name.clone(),
                        entity: *entity,
                        series: s.clone(),
                    })
                })
                .collect(),
        }
    }
}

/// One series in a [`SeriesSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesEntry {
    /// Series name (`quasar.<crate>.<subsystem>.<signal>` convention).
    pub name: String,
    /// Entity id the series describes (workload id, cell id, ...).
    pub entity: u64,
    /// The series data.
    pub series: Series,
}

/// A sorted export view over one or more [`SeriesStore`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSnapshot {
    /// Entries sorted by `(name, entity)`.
    pub entries: Vec<SeriesEntry>,
}

impl SeriesSnapshot {
    /// Merges per-cell snapshots into one globally-sorted view. Keys are
    /// expected to be disjoint across cells (workload ids are global);
    /// duplicate keys are kept side by side in input order.
    pub fn merge(parts: impl IntoIterator<Item = SeriesSnapshot>) -> SeriesSnapshot {
        let mut entries: Vec<SeriesEntry> = parts.into_iter().flat_map(|p| p.entries).collect();
        entries.sort_by(|a, b| (&a.name, a.entity).cmp(&(&b.name, b.entity)));
        SeriesSnapshot { entries }
    }

    /// Renders one `name[entity] recorded=N stride=S points=P last=(t,v)`
    /// line per series — logical fields only, safe to diff across thread
    /// and shard counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let last = e
                .series
                .last()
                .map(|(t, v)| format!("({t:.1},{v:.4})"))
                .unwrap_or_else(|| "none".to_string());
            let _ = writeln!(
                out,
                "{}[{}] recorded={} stride={} points={} last={last}",
                e.name,
                e.entity,
                e.series.recorded(),
                e.series.stride(),
                e.series.points().len()
            );
        }
        out
    }

    /// Renders each series as one JSON object line
    /// (`{"type":"series",...}`) with the full retained point list, for
    /// JSONL exports alongside [`crate::registry::Snapshot::jsonl_lines`].
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                let mut points = String::from("[");
                for (i, (t, v)) in e.series.points().iter().enumerate() {
                    if i > 0 {
                        points.push(',');
                    }
                    let _ = write!(
                        points,
                        "[{},{}]",
                        crate::json::number(*t),
                        crate::json::number(*v)
                    );
                }
                points.push(']');
                format!(
                    "{{\"type\":\"series\",\"name\":\"{}\",\"entity\":{},\"recorded\":{},\"stride\":{},\"points\":{points}}}",
                    crate::json::escape(&e.name),
                    e.entity,
                    e.series.recorded(),
                    e.series.stride()
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_bounded_and_first_point_survives() {
        let mut store = SeriesStore::new(8);
        for i in 0..1000 {
            store.record("sig", 1, i as f64, i as f64 * 2.0);
        }
        let s = store.get("sig", 1).unwrap();
        assert!(s.points().len() < 8, "stays under capacity");
        assert_eq!(s.recorded(), 1000);
        assert_eq!(s.points()[0], (0.0, 0.0), "index 0 always survives");
        // Every survivor sits on the stride grid.
        assert!(s.stride() >= 128);
        for (t, _) in s.points() {
            assert_eq!((*t as u64) % s.stride(), 0);
        }
    }

    #[test]
    fn downsampling_depends_only_on_the_sequence() {
        // The same logical sequence pushed through two stores (simulating
        // different chunkings / thread schedules that preserve per-entity
        // order) retains identical points.
        let mut a = SeriesStore::new(4);
        let mut b = SeriesStore::new(4);
        for i in 0..37 {
            a.record("x", 7, i as f64, (i * i) as f64);
        }
        for i in 0..37 {
            b.record("x", 7, i as f64, (i * i) as f64);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn merge_sorts_by_name_then_entity() {
        let mut cell0 = SeriesStore::new(4);
        cell0.record("b", 2, 0.0, 1.0);
        cell0.record("a", 9, 0.0, 1.0);
        let mut cell1 = SeriesStore::new(4);
        cell1.record("a", 3, 0.0, 1.0);
        let merged = SeriesSnapshot::merge([cell1.snapshot(), cell0.snapshot()]);
        let keys: Vec<(String, u64)> = merged
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.entity))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".to_string(), 3),
                ("a".to_string(), 9),
                ("b".to_string(), 2)
            ]
        );
    }

    #[test]
    fn render_and_jsonl_are_valid_and_stable() {
        let mut store = SeriesStore::new(4);
        store.record("quasar.qos.depth", 5, 10.0, 0.25);
        store.record("quasar.qos.depth", 5, 20.0, 0.5);
        let snap = store.snapshot();
        let rendered = snap.render();
        assert!(rendered.contains("quasar.qos.depth[5] recorded=2 stride=1 points=2"));
        for line in snap.jsonl_lines() {
            crate::json::validate(&line).expect("series line must be valid JSON");
        }
        assert_eq!(snap.render(), store.snapshot().render());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_capacity_rejected() {
        SeriesStore::new(1);
    }
}
