//! The metric catalog and the result line.
//!
//! Every run prints every metric of its kind: an untraced run each
//! end-to-end metric, a traced run each per-layer metric. A per-layer
//! metric of a layer the workload does not exercise reads 0 (pins on the
//! ingest stream, WAL figures on the in-memory workloads), which is the
//! contrast that shows whether a change hit the layer it meant to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::plans::PLANS;

/// End-to-end metrics: `(name, unit)`. Each is measured with tracing off
/// on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The operators `execute_traced` reports for each plan, keyed
/// `<position>_<kind>`, in execution order.
pub const PLAN_STEPS: [(&str, &[&str]); 6] = [
    (
        "course_detail",
        &["0_lookup", "1_join", "2_join", "3_join", "4_project"],
    ),
    ("by_faculty", &["0_lookup", "1_join", "2_join", "3_project"]),
    (
        "listing_unmerged",
        &["0_scan", "1_join", "2_join", "3_join", "4_project"],
    ),
    ("listing_merged", &["0_scan", "1_project"]),
    ("composite_join", &["0_scan", "1_join", "2_project"]),
    (
        "pushdown_chain",
        &["0_scan", "1_join", "2_join", "3_project"],
    ),
];

/// Per-layer metrics that do not depend on a plan: `(name, unit)`.
const LAYER_METRICS: [(&str, &str); 27] = [
    ("workload.generate_s", "s"),
    ("core.merge_plan_ms", "ms"),
    ("core.eta_apply_ms", "ms"),
    ("core.capacity_check_ms", "ms"),
    ("migrate.migrate_s", "s"),
    ("migrate.rows_migrated", "count"),
    ("migrate.chunks_applied", "count"),
    ("session.read_p99_us", "us"),
    ("session.pin_us_p50", "us"),
    ("session.pin_us_p99", "us"),
    ("session.pin_alloc_bytes", "bytes"),
    ("cow.write_alloc_bytes", "bytes"),
    ("cow.write_allocs", "count"),
    ("build_cache.hit_ratio", "ratio"),
    ("build_cache.bytes", "bytes"),
    ("batch.checks_per_stmt", "count"),
    ("batch.probes_per_stmt", "count"),
    ("batch.commit_us_p50_memory", "us"),
    ("wal.append_us_p50", "us"),
    ("wal.bytes_per_stmt", "bytes"),
    ("wal.snapshots_installed", "count"),
    ("wal.snapshot_commit_ms_p50", "ms"),
    ("wal.write_p999_us", "us"),
    ("recovery.recover_s", "s"),
    ("recovery.records_replayed", "count"),
    ("recovery.wal_bytes_replayed", "bytes"),
    ("obs.traced_slowdown", "ratio"),
];

/// Every per-layer metric, `(name, unit)`, in print order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for plan in PLANS {
        out.push((format!("query.execute_us_p50.{plan}"), "us"));
        out.push((format!("query.rows_examined.{plan}"), "count"));
        out.push((format!("query.intermediate_bytes.{plan}"), "bytes"));
    }
    for (plan, steps) in PLAN_STEPS {
        for step in steps {
            out.push((format!("query.op_us.{plan}.{step}"), "us"));
        }
    }
    out
}

/// What one run found: the operation tally, the verdict of every check,
/// and the measured values by metric name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check passed (failed operations aside).
    pub correct: bool,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations among them that returned an error.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of the run's kind. An end-to-end metric the
/// run did not measure is an error; a per-layer metric it did not
/// measure reads 0.
pub fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalog: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match outcome.values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for name in outcome.values.keys() {
        if !catalog.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the catalog"));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}
