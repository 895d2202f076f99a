//! Per-layer attribution from a traced pass, and the trace exporter.
//!
//! Spans come from two sources: the benchmark's own `bench.*` spans
//! around each public call, and the spans the program already emits
//! (`core.classify.*`, `core.greedy.plan`, `cluster.world.place`,
//! `cluster.world.tick`, ...). Spans on one thread nest by their
//! recorded depth; a span's self time is its duration minus the part
//! its direct children cover.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use quasar_obs::trace::{export_chrome, Event, EventKind};

/// Aggregates of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, microseconds.
    pub busy_us: u64,
    /// Summed self time (duration minus direct children), microseconds.
    pub self_us: u64,
    /// Every span's duration, microseconds.
    pub durations_us: Vec<u64>,
}

impl Layer {
    /// Summed duration in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_us as f64 * 1e-6
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_us as f64 * 1e-6
    }

    /// Nearest-rank percentile of span durations, in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let ms: Vec<f64> = self
            .durations_us
            .iter()
            .map(|&us| us as f64 * 1e-3)
            .collect();
        crate::stats::percentile(&ms, p)
    }
}

/// The per-layer table of one traced pass.
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Layers by span name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Self time summed over every span on the benchmark's own thread,
    /// microseconds: the time some span accounts for.
    pub attributed_us: u64,
}

impl SpanTable {
    /// The layer named `name` (empty when no such span was recorded).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

/// Builds the span table from `events` and appends
/// `root=<callback>(workload=<id>)` to the arguments of every span nested
/// under a `bench.manager.*` span that names a workload, so a child span
/// in the exported trace names the arrival or completion it served.
/// `main_tid` is the thread the simulation ran on; spans on worker
/// threads count towards their layers but not towards
/// [`SpanTable::attributed_us`], since they overlap the main thread's.
pub fn analyze(events: &mut [Event], main_tid: u32) -> SpanTable {
    let mut order: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].kind == EventKind::Span)
        .collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].start_us, events[i].depth));

    const NONE: usize = usize::MAX;
    let mut parent = vec![NONE; events.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut tid = u32::MAX;
    for &i in &order {
        if events[i].tid != tid {
            tid = events[i].tid;
            open.clear();
        }
        let depth = events[i].depth as usize;
        open.truncate(depth);
        open.resize(depth, NONE);
        if let Some(&p) = open.last() {
            parent[i] = p;
        }
        open.push(i);
    }

    let mut children_us = vec![0u64; events.len()];
    for &i in &order {
        if parent[i] != NONE {
            children_us[parent[i]] += events[i].dur_us;
        }
    }

    let mut table = SpanTable::default();
    for &i in &order {
        let ev = &events[i];
        let self_us = ev.dur_us.saturating_sub(children_us[i]);
        let layer = table.layers.entry(ev.name).or_default();
        layer.count += 1;
        layer.busy_us += ev.dur_us;
        layer.self_us += self_us;
        layer.durations_us.push(ev.dur_us);
        if ev.tid == main_tid {
            table.attributed_us += self_us;
        }
    }

    // Parents precede children in `order`, so one forward sweep carries
    // each callback's workload down the tree.
    let mut root_args: Vec<Option<String>> = vec![None; events.len()];
    for &i in &order {
        let inherited = match parent[i] {
            NONE => None,
            p => root_args[p].clone(),
        };
        root_args[i] = if events[i].name.starts_with("bench.manager.") && !events[i].args.is_empty()
        {
            Some(format!("root={}({})", events[i].name, events[i].args))
        } else {
            inherited
        };
    }
    for &i in &order {
        if parent[i] == NONE {
            continue;
        }
        if let Some(root) = &root_args[i] {
            let ev = &mut events[i];
            ev.args = if ev.args.is_empty() {
                root.clone()
            } else {
                format!("{} {root}", ev.args)
            };
        }
    }
    table
}

/// Writes `events` as a Chrome trace (`<stem>.trace.json`) and `table`
/// as a per-layer text table (`<stem>.layers.txt`) under `dir`.
pub fn export(
    dir: &Path,
    stem: &str,
    events: &[Event],
    table: &SpanTable,
    run_wall_s: f64,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join(format!("{stem}.trace.json")),
        export_chrome(events, false),
    )?;
    let mut text = format!(
        "{:<32} {:>9} {:>10} {:>10} {:>9} {:>9} {:>7}\n",
        "span", "count", "busy_s", "self_s", "p50_ms", "p99_ms", "self%"
    );
    for (name, layer) in &table.layers {
        text.push_str(&format!(
            "{:<32} {:>9} {:>10.4} {:>10.4} {:>9.3} {:>9.3} {:>6.1}%\n",
            name,
            layer.count,
            layer.busy_s(),
            layer.self_s(),
            layer.percentile_ms(0.5),
            layer.percentile_ms(0.99),
            100.0 * layer.self_s() / run_wall_s.max(f64::MIN_POSITIVE),
        ));
    }
    fs::write(dir.join(format!("{stem}.layers.txt")), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, args: &str, depth: u32, start_us: u64, dur_us: u64) -> Event {
        Event {
            kind: EventKind::Span,
            name,
            args: args.to_string(),
            sim_time: 0.0,
            depth,
            tid: 0,
            start_us,
            dur_us,
            seq: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut events = vec![
            span("bench.manager.arrival", "workload=7", 0, 0, 100),
            span("core.classify.decision", "", 1, 10, 60),
            span("core.classify.scale_up", "", 2, 12, 20),
            span("cluster.world.place", "workload=7", 1, 80, 15),
            span("bench.manager.tick", "", 0, 200, 50),
        ];
        let table = analyze(&mut events, 0);
        assert_eq!(table.layer("bench.manager.arrival").self_us, 25);
        assert_eq!(table.layer("core.classify.decision").self_us, 40);
        assert_eq!(table.layer("core.classify.scale_up").self_us, 20);
        assert_eq!(table.layer("bench.manager.tick").self_us, 50);
        assert_eq!(table.attributed_us, 150);
        // Children carry the arrival's workload.
        assert_eq!(events[2].args, "root=bench.manager.arrival(workload=7)");
        assert_eq!(
            events[3].args,
            "workload=7 root=bench.manager.arrival(workload=7)"
        );
        assert_eq!(events[4].args, "");
    }
}
