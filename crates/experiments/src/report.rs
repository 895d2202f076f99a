//! Reporting helpers: text tables, simple statistics, CSV output.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Mean of a slice; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-quantile (0..=1) of a slice by nearest-rank; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Maximum of a slice; 0 when empty.
pub fn maximum(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    // Seed with -inf, not 0: an all-negative slice (e.g. a worst-case
    // speedup *regression*) must report its true maximum, not a phantom
    // zero that hides the regression.
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Whether reports should mask live wall-clock measurements.
///
/// Set via `QUASAR_MASK_TIMINGS=1`, or implicitly by the thread-scaling
/// determinism smoke (`QUASAR_SMOKE_THREADS`), which `cmp`s stdout
/// across `--threads` values: the classification decision-time columns
/// are the one thing *measured* with a real clock rather than derived
/// from seeds, so they are the one thing allowed to differ between two
/// otherwise byte-identical runs. Masked columns print `-`.
pub fn mask_live_timings() -> bool {
    std::env::var_os("QUASAR_MASK_TIMINGS").is_some()
        || std::env::var_os("QUASAR_SMOKE_THREADS").is_some()
}

/// Renders the per-run telemetry summary from the process-global metric
/// registry: decision-latency percentiles, worker-pool utilization,
/// and the logical work counters. Wall-clock and scheduling-dependent
/// values print `-` under
/// [`mask_live_timings`], so the summary stays byte-identical across
/// `--threads` values in the CI smoke; the logical counters (jobs,
/// classifications, journal events, ticks) are deterministic and always
/// print.
pub fn telemetry_summary() -> String {
    let masked = mask_live_timings();
    let reg = quasar_obs::Registry::global();
    let live = |v: String| if masked { "-".to_string() } else { v };
    let count = |name: &str| reg.counter(name).get();

    let decision = reg.histogram_us("quasar.core.classify.decision_us");
    let exhaustive = reg.histogram_us("quasar.core.classify.exhaustive_us");
    let job_workers = reg.histogram(
        "quasar.core.par.pool.job_workers",
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
    );
    let pool_util = if job_workers.count() > 0 {
        format!(
            "{:.2} workers/job (p95 <= {:.0})",
            job_workers.sum() / job_workers.count() as f64,
            job_workers.percentile(0.95)
        )
    } else {
        "n/a".to_string()
    };

    let mut t = TextTable::new("telemetry summary").header(["metric", "value"]);
    t.row([
        "classifications".to_string(),
        count("quasar.core.classify.classifications").to_string(),
    ]);
    for (label, p) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        t.row([
            format!("decision latency {label} (us, bucketed)"),
            live(format!("{:.0}", decision.percentile(p))),
        ]);
    }
    // p0/p100 come from the histogram's exact streaming min/max, not
    // bucket bounds — the one place the summary reports a latency that
    // is not quantized.
    t.row([
        "decision latency p0 (us, exact)".to_string(),
        live(format!("{:.0}", decision.min())),
    ]);
    t.row([
        "decision latency p100 (us, exact)".to_string(),
        live(format!("{:.0}", decision.max())),
    ]);
    t.row([
        "exhaustive classify p50 (us, bucketed)".to_string(),
        live(format!("{:.0}", exhaustive.percentile(0.5))),
    ]);
    t.row([
        "parallel jobs".to_string(),
        count("quasar.core.par.jobs").to_string(),
    ]);
    t.row([
        "parallel items".to_string(),
        count("quasar.core.par.items").to_string(),
    ]);
    t.row([
        "pool workers live".to_string(),
        live(reg.gauge("quasar.core.par.pool.live").get().to_string()),
    ]);
    t.row(["pool utilization".to_string(), live(pool_util)]);
    t.row([
        "greedy plans".to_string(),
        count("quasar.core.greedy.plans").to_string(),
    ]);
    t.row([
        "world ticks".to_string(),
        count("quasar.cluster.world.ticks").to_string(),
    ]);
    t.row([
        "world placements".to_string(),
        count("quasar.cluster.world.placements").to_string(),
    ]);
    t.row([
        "journal events".to_string(),
        count("quasar.cluster.journal.events").to_string(),
    ]);
    t.render()
}

/// A fixed-width text table with a title, header, and rows.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title.
    pub fn new(title: impl Into<String>) -> TextTable {
        TextTable {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn header<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> TextTable {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut TextTable {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header));
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
            );
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Writes rows as CSV under `target/experiment-results/<experiment>/<name>.csv`,
/// returning the path. Errors are reported but not fatal (benches may run
/// in read-only sandboxes).
pub fn write_csv(
    experiment: &str,
    name: &str,
    header: &[&str],
    rows: &[Vec<f64>],
) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiment-results").join(experiment);
    if fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        let line = row
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(",");
        body.push_str(&line);
        body.push('\n');
    }
    fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn mean_and_max() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(maximum(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(maximum(&[]), 0.0);
    }

    #[test]
    fn maximum_of_all_negative_slice_is_negative() {
        // Regression: the old fold(0.0, f64::max) reported 0 here,
        // hiding all-regression speedup distributions.
        assert_eq!(maximum(&[-5.0, -1.5, -9.0]), -1.5);
        assert_eq!(maximum(&[-0.25]), -0.25);
    }

    #[test]
    fn percentile_uses_nearest_rank_not_index_floor() {
        // Regression for fig1's old inline quantile,
        // `cdf[((len - 1) as f64 * p) as usize]`, which floored the
        // index: for p = 0.55 over 10 ascending values it picked index
        // 4 (the 5th value) where nearest-rank is ceil(0.55 * 10) = the
        // 6th.
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let floored = v[((v.len() - 1) as f64 * 0.55) as usize];
        assert_eq!(floored, 5.0);
        assert_eq!(percentile(&v, 0.55), 6.0);
        // And the old form underflowed `len - 1` on an empty slice;
        // percentile must return the documented 0 instead.
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("demo").header(["a", "bbbb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("333"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }
}
