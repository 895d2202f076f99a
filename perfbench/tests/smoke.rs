//! The benchmark's own smoke test: every workload at a tiny size.
//!
//! It checks that every metric `BENCHMARK.json` names is reported with
//! the unit listed there (and nothing else), that the traced passes
//! attribute at least 95% of their wall time to spans, and that
//! classification takes a larger share of the run on `cold-admit` than
//! on `backlog`. Run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! One test function on purpose: the trace collector and the metrics
//! registry are process-global, so the passes must not run in parallel.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use quasar_perfbench::alloc::CountingAlloc;
use quasar_perfbench::workloads::{inputs, Size, NAMES};
use quasar_perfbench::{attribute, measure, Report, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The string value of the first `"key": "value"` pair in `text`, and
/// the rest of `text` after it.
fn string_field<'a>(text: &'a str, key: &str) -> Option<(String, &'a str)> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at + key.len() + 2..];
    let open = rest.find('"')?;
    let value = &rest[open + 1..];
    let close = value.find('"')?;
    Some((value[..close].to_string(), &value[close + 1..]))
}

/// `name -> unit` for every metric in one section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> BTreeMap<String, String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let mut out = BTreeMap::new();
    let mut rest = body;
    while let Some((name, after)) = string_field(rest, "name") {
        let (unit, after) = string_field(after, "unit").expect("every metric has a unit");
        out.insert(name, unit);
        rest = after;
    }
    out
}

fn reported(report: &Report) -> BTreeMap<String, String> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_attributes_its_wall() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let end_to_end = section(&json, "end_to_end");
    let per_layer = section(&json, "per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());

    let mut classify_share = BTreeMap::new();
    for name in NAMES {
        let inputs = inputs(name, DEFAULT_SEED, Size::Tiny).expect("known workload");

        let e2e = measure(&inputs, Duration::ZERO, inputs.len() + 1);
        assert!(e2e.correct, "{name}: {:?}", e2e.problems);
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        assert_eq!(reported(&e2e), end_to_end, "{name}: end-to-end metrics");
        quasar_obs::json::validate(&e2e.to_json()).expect("result line is JSON");

        let layers = attribute(&inputs[0], DEFAULT_SEED, None);
        assert!(layers.correct, "{name}: {:?}", layers.problems);
        assert_eq!(reported(&layers), per_layer, "{name}: per-layer metrics");
        let coverage = layers.metric("trace.coverage").expect("coverage");
        assert!(coverage >= 0.95, "{name}: trace coverage {coverage}");
        assert_eq!(layers.metric("trace.dropped"), Some(0.0));
        classify_share.insert(name, layers.metric("share.classify").expect("share"));
    }
    assert!(
        classify_share["cold-admit"] > classify_share["backlog"],
        "classification share: {classify_share:?}"
    );
}
