//! A small size of each workload, untraced and traced, through the same
//! code and the same checks (negative controls included) as the
//! benchmark.

use std::sync::Mutex;

use relmerge_perfbench::{report, RunConfig, WORKLOADS};

/// Tracing, allocation counting and the WAL snapshot counter are
/// process-wide, so the workloads run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (_, run) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .expect("workload exists");
    for trace in [false, true] {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.5,
            trace,
            courses: 400,
            setup_reps: 2,
            warmup_ops: 50,
            work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
            workers: 1,
            fsync_always: false,
        };
        let outcome = run(&cfg).unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
        assert!(outcome.correct, "{workload} (trace {trace}) failed a check");
        assert_eq!(
            outcome.failed, 0,
            "{workload} (trace {trace}) had failed operations"
        );
        assert!(outcome.attempted > 0);
        let line = report::render(&outcome, trace).expect("every metric is measured");
        assert!(line.starts_with("{\"correct\": true"));
    }
}

#[test]
fn oltp_pinned_smoke() {
    smoke("oltp_pinned");
}

#[test]
fn ingest_durable_smoke() {
    smoke("ingest_durable");
}

#[test]
fn merge_report_smoke() {
    smoke("merge_report");
}
