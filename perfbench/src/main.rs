//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and the run's metrics. `--workers <n>` and `--fsync always` change the
//! engine configuration for the reference figures in `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use relmerge_perfbench::alloc::CountingAlloc;
use relmerge_perfbench::{report, Res, RunConfig, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Courses of the generated university.
const COURSES: usize = 20_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Operations run before timing starts.
const WARMUP_OPS: usize = 400;
/// Engine workers per query. The default, one per core, keeps both
/// vCPUs of a two-vCPU host busy during a parallel query; the hypervisor
/// then steals time from both, and the query waits on whichever worker
/// was stalled (see `README.md`, Steadiness).
const WORKERS: usize = 1;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Res<String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut workers, mut fsync_always) = (WORKERS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--workers" => workers = value.parse::<usize>().map_err(bad)?.max(1),
            "--fsync" => {
                fsync_always = match value.as_str() {
                    "always" => true,
                    "never" => false,
                    _ => return Err(format!("--fsync takes always or never, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let runner = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, f)| f)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = trace.unwrap_or(false);
    let cfg = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds),
        trace,
        courses: COURSES,
        setup_reps: if trace { 1 } else { SETUP_REPS },
        warmup_ops: WARMUP_OPS,
        work_dir: PathBuf::from(".perfbench"),
        workers,
        fsync_always,
    };
    report::render(&runner(&cfg)?, trace)
}
