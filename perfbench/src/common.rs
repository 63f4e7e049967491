//! What the three workloads share: the run configuration, the seeded
//! university and operation stream, the tally of operations and checks,
//! and the per-layer accumulators of the traced run.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_engine::{
    Database, DbmsProfile, EngineConfig, IntegrityReport, QueryPlan, QueryStats, QueryTrace,
    Session, Statement, Store,
};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, Relation, RelationalSchema, Tuple, Value};
use relmerge_workload::{generate_university, MixSpec, University, UniversityOp, UniversitySpec};

use crate::alloc;
use crate::oracle::{must_fail, Check};
use crate::report::{Outcome, PLAN_STEPS};
use crate::stats::{supports, Samples};

/// A fallible step of a run; the message says what went wrong.
pub type Res<T> = Result<T, String>;

/// Converts any error into the run's error message.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Departments of the generated university (the generator's default).
pub const DEPARTMENTS: usize = 20;
/// Persons of the generated university; 40 % of them are faculty.
pub const PERSONS: usize = 500;
/// Faculty members, SSNs `10_000..10_000 + FACULTY`.
pub const FACULTY: usize = PERSONS * 2 / 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of the generated university and of the operation stream.
    pub seed: u64,
    /// Measured seconds: the time spent inside calls into the engine.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Courses of the generated university.
    pub courses: usize,
    /// Times the set-up runs; `setup_s` is their median. The first half
    /// (rounded up, at least one) run before the measured loop, the rest
    /// after it, so that they sample the host over the same time as the
    /// loop.
    pub setup_reps: usize,
    /// Operations run before timing starts.
    pub warmup_ops: usize,
    /// Where data directories and the span file go.
    pub work_dir: PathBuf,
    /// Engine workers per query.
    pub workers: usize,
    /// Whether the durable store fsyncs every commit (default: never).
    pub fsync_always: bool,
}

impl RunConfig {
    /// The set-ups run before the measured loop, by index.
    #[must_use]
    pub fn setups_before(&self) -> Range<usize> {
        0..self.setup_reps.div_ceil(2).max(1)
    }

    /// The set-ups run after the measured loop, by index.
    #[must_use]
    pub fn setups_after(&self) -> Range<usize> {
        self.setups_before().end..self.setup_reps
    }

    /// The engine configuration of every store the run builds.
    #[must_use]
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::default().parallelism(self.workers)
    }
}

/// Runs `set_up` once per index in `reps`, dropping each result before
/// the next set-up starts; pushes the duration of each set-up in seconds
/// onto `times` and returns the last result.
pub fn repeat_set_up<T>(
    reps: Range<usize>,
    times: &mut Samples,
    mut set_up: impl FnMut(usize) -> Res<T>,
) -> Res<T> {
    let mut last = None;
    for rep in reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_owned())
}

/// Generates the Figure 3 university for `seed`, returning it with the
/// generation time in seconds.
pub fn university(seed: u64, courses: usize) -> Res<(University, f64)> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let u = generate_university(
        &UniversitySpec {
            courses,
            departments: DEPARTMENTS,
            persons: PERSONS,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .map_err(err)?;
    Ok((u, t0.elapsed().as_secs_f64()))
}

/// Loads `u` into a fresh in-memory store.
pub fn load(cfg: &RunConfig, u: &University) -> Res<Store> {
    let mut db = Database::new_with_config(u.schema.clone(), DbmsProfile::ideal(), cfg.engine())
        .map_err(err)?;
    db.load_state(&u.state).map_err(err)?;
    Ok(Store::new(db))
}

/// Pins a snapshot and runs `plan` on it; returns the answer and the
/// latency of both together in µs. With `layers`, the pin is also timed
/// alone, the query runs through `execute_traced`, and both are recorded
/// under `name`.
pub fn timed_read(
    session: &Session,
    name: &'static str,
    plan: &QueryPlan,
    layers: Option<&mut Layers>,
) -> (Res<Relation>, f64) {
    let _span = obs::span("perfbench.read").field("plan", name);
    let t0 = Instant::now();
    let answer = match layers {
        None => session
            .pin()
            .and_then(|snap| snap.execute(plan))
            .map(|(rel, _)| rel),
        Some(layers) => {
            let (b0, _) = alloc::counts();
            let tp = Instant::now();
            let snap = {
                let _s = obs::span("perfbench.pin");
                session.pin()
            };
            let pin_us = us_since(tp);
            let (b1, _) = alloc::counts();
            snap.and_then(|snap| {
                let te = Instant::now();
                let (rel, stats, trace) = {
                    let _s = obs::span("perfbench.execute");
                    snap.execute_traced(plan)?
                };
                layers.pin_us.push(pin_us);
                layers.pin_alloc_bytes += b1 - b0;
                layers.query(name, us_since(te), &stats, &trace);
                Ok(rel)
            })
        }
    };
    let us = us_since(t0);
    (answer.map_err(|e| format!("{name}: {e}")), us)
}

/// Applies one batch; returns whether it committed and its latency in µs.
/// With `layers`, a committed batch's allocations are recorded as its
/// copy-on-write cost.
pub fn timed_write(
    session: &Session,
    stmts: &[Statement],
    layers: Option<&mut Layers>,
) -> (Res<()>, f64) {
    let _span = obs::span("perfbench.write").field("statements", stmts.len());
    let (b0, c0) = alloc::counts();
    let t0 = Instant::now();
    let r = session.apply_batch(stmts);
    let us = us_since(t0);
    let (b1, c1) = alloc::counts();
    if let (Ok(_), Some(layers)) = (&r, layers) {
        layers.writes += 1;
        layers.write_alloc_bytes += b1 - b0;
        layers.write_allocs += c1 - c0;
    }
    (r.map(|_| ()).map_err(err), us)
}

/// An endless seeded stream of university operations in the proportions
/// of a [`MixSpec`]. Reads probe the generated courses and faculty; new
/// courses are numbered from one million up, so they never collide with
/// generated ones; a drop removes the newest course the stream added
/// (an add stands in when there is none). At most a tenth of the
/// generated courses are added on top (a drop stands in for an add
/// beyond that), so a write-heavy stream keeps the university near its
/// set-up size and every run measures the same state size.
pub struct OpStream {
    rng: StdRng,
    mix: MixSpec,
    courses: i64,
    next_new: i64,
    added: Vec<i64>,
}

impl OpStream {
    /// A stream over a university of `courses` courses.
    #[must_use]
    pub fn new(seed: u64, mix: MixSpec, courses: usize) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(seed),
            mix,
            courses: courses as i64,
            next_new: 1_000_000,
            added: Vec::new(),
        }
    }

    /// Whether the added courses reached the cap, past which an add
    /// becomes a drop.
    #[must_use]
    pub fn at_cap(&self) -> bool {
        !self.added.is_empty() && self.added.len() as i64 >= self.courses / 10
    }

    /// A new course with a random department and, half the time, a
    /// random teacher; a drop once the added courses reach the cap.
    pub fn add(&mut self) -> UniversityOp {
        if self.at_cap() {
            return self.drop_newest();
        }
        let nr = self.next_new;
        self.next_new += 1;
        self.added.push(nr);
        UniversityOp::AddCourse {
            nr,
            dept: self.rng.gen_range(0..DEPARTMENTS),
            teacher: self.rng.gen_bool(0.5).then(|| self.faculty()),
        }
    }

    /// A random faculty SSN.
    pub fn faculty(&mut self) -> i64 {
        10_000 + self.rng.gen_range(0..FACULTY as i64)
    }

    /// A random generated course number.
    pub fn course(&mut self) -> i64 {
        self.rng.gen_range(0..self.courses)
    }

    /// The next operation of the mix.
    pub fn next_op(&mut self) -> UniversityOp {
        let m = self.mix;
        let roll = self
            .rng
            .gen_range(0.0..m.point_reads + m.reverse_reads + m.inserts + m.deletes);
        if roll < m.point_reads {
            UniversityOp::CourseDetail { nr: self.course() }
        } else if roll < m.point_reads + m.reverse_reads {
            UniversityOp::ByFaculty {
                ssn: self.faculty(),
            }
        } else if roll < m.point_reads + m.reverse_reads + m.inserts {
            self.add()
        } else {
            self.drop_newest()
        }
    }

    /// Drops the newest course the stream added, or adds one when there
    /// is none.
    pub fn drop_newest(&mut self) -> UniversityOp {
        match self.added.pop() {
            Some(nr) => UniversityOp::DropCourse { nr },
            None => self.add(),
        }
    }
}

/// Operations attempted and failed, and the checks' verdicts.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations among them that returned an error.
    pub failed: u64,
    /// Checks that found a difference (the first few are kept).
    pub errors: Vec<String>,
    /// Checks run.
    pub checks: u64,
}

impl Tally {
    /// Records the verdict of one check.
    pub fn check(&mut self, verdict: Check) {
        self.checks += 1;
        if let Err(e) = verdict {
            if self.errors.len() < 8 {
                eprintln!("perfbench: check failed: {e}");
            }
            self.errors.push(e);
        }
    }

    /// Records an operation that returned an error.
    pub fn fail(&mut self, what: &str, e: impl Display) {
        self.failed += 1;
        if self.failed <= 8 {
            eprintln!("perfbench: {what} failed: {e}");
        }
    }

    /// Ends the warm-up: an operation that failed in it fails the run,
    /// and only the measured loop's operations are counted from here on.
    pub fn end_warm_up(&mut self) -> Res<()> {
        if self.failed > 0 {
            return Err(format!("{} operations failed in the warm-up", self.failed));
        }
        self.attempted = 0;
        Ok(())
    }

    /// The outcome skeleton: verdict and tally, no metrics yet.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        Outcome {
            correct: self.errors.is_empty() && self.checks > 0,
            attempted: self.attempted,
            failed: self.failed,
            values: BTreeMap::new(),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Microseconds since `t0`.
#[must_use]
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// The sum of the counters named `names` in a metrics snapshot.
#[must_use]
pub fn counter_sum(snap: &obs::Snapshot, names: &[&str]) -> u64 {
    names
        .iter()
        .map(|n| snap.counters.get(*n).copied().unwrap_or(0))
        .sum()
}

/// Per-plan accumulators of the traced run.
#[derive(Debug, Default)]
struct PlanLayer {
    execute_us: Samples,
    runs: u64,
    rows_examined: u64,
    intermediate_bytes: u64,
    op_ns: BTreeMap<String, u64>,
}

/// Per-layer accumulators of the traced run that several workloads
/// share: pins, copy-on-write allocation by writes, and per-plan query
/// costs from `QueryStats` and `QueryTrace`.
#[derive(Debug, Default)]
pub struct Layers {
    /// `Session::pin` latencies, µs.
    pub pin_us: Samples,
    /// Bytes allocated inside `Session::pin`, summed.
    pub pin_alloc_bytes: u64,
    /// Bytes allocated inside committed writes, summed.
    pub write_alloc_bytes: u64,
    /// Allocation calls inside committed writes, summed.
    pub write_allocs: u64,
    /// Committed writes.
    pub writes: u64,
    plans: BTreeMap<&'static str, PlanLayer>,
}

impl Layers {
    /// Records one traced execution of `plan`.
    pub fn query(&mut self, plan: &'static str, us: f64, stats: &QueryStats, trace: &QueryTrace) {
        let p = self.plans.entry(plan).or_default();
        p.execute_us.push(us);
        p.runs += 1;
        p.rows_examined += stats.rows_scanned + stats.index_probes;
        p.intermediate_bytes += stats.intermediate_bytes;
        for (i, op) in trace.ops.iter().enumerate() {
            let kind = format!("{:?}", op.kind).to_lowercase();
            *p.op_ns.entry(format!("{i}_{kind}")).or_default() += op.stats.wall_ns;
        }
    }

    /// Writes the accumulated metrics into `values`.
    pub fn finish(&self, values: &mut BTreeMap<String, f64>) -> Res<()> {
        if !self.pin_us.is_empty() {
            values.insert("session.pin_us_p50".into(), self.pin_us.median()?);
            if supports(self.pin_us.len(), 0.99) {
                values.insert("session.pin_us_p99".into(), self.pin_us.percentile(0.99)?);
            }
            values.insert(
                "session.pin_alloc_bytes".into(),
                self.pin_alloc_bytes as f64 / self.pin_us.len() as f64,
            );
        }
        if self.writes > 0 {
            let w = self.writes as f64;
            values.insert(
                "cow.write_alloc_bytes".into(),
                self.write_alloc_bytes as f64 / w,
            );
            values.insert("cow.write_allocs".into(), self.write_allocs as f64 / w);
        }
        for (plan, p) in &self.plans {
            let runs = p.runs as f64;
            values.insert(
                format!("query.execute_us_p50.{plan}"),
                p.execute_us.median()?,
            );
            values.insert(
                format!("query.rows_examined.{plan}"),
                p.rows_examined as f64 / runs,
            );
            values.insert(
                format!("query.intermediate_bytes.{plan}"),
                p.intermediate_bytes as f64 / runs,
            );
            let steps = PLAN_STEPS
                .iter()
                .find(|(name, _)| name == plan)
                .map(|(_, s)| *s)
                .ok_or_else(|| format!("plan {plan} has no step list"))?;
            for (step, ns) in &p.op_ns {
                if !steps.contains(&step.as_str()) {
                    return Err(format!("plan {plan} ran an unlisted operator {step}"));
                }
                values.insert(
                    format!("query.op_us.{plan}.{step}"),
                    *ns as f64 / runs / 1e3,
                );
            }
        }
        Ok(())
    }
}

/// Writes the span events collected so far as a Chrome trace into the
/// work directory and returns its path.
pub fn write_span_file(cfg: &RunConfig, workload: &str) -> Res<PathBuf> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(err)?;
    let path = cfg
        .work_dir
        .join(format!("trace-{workload}-seed{}.json", cfg.seed));
    std::fs::write(&path, obs::chrome_trace(&obs::take_events())).map_err(err)?;
    Ok(path)
}

/// Build-cache hit ratio and constraint-check work per statement, from
/// registry counters accumulated over a phase (`delta`) in which
/// `statements` statements committed.
pub fn insert_cache_and_checks(
    values: &mut BTreeMap<String, f64>,
    delta: &obs::Snapshot,
    statements: f64,
) {
    let hits = counter_sum(delta, &["engine.query.build_cache.hits"]);
    let misses = counter_sum(delta, &["engine.query.build_cache.misses"]);
    if hits + misses > 0 {
        values.insert(
            "build_cache.hit_ratio".into(),
            hits as f64 / (hits + misses) as f64,
        );
    }
    let checks = counter_sum(
        delta,
        &[
            "engine.check.declarative",
            "engine.check.procedural",
            "engine.check.deferred",
        ],
    );
    let probes = counter_sum(delta, &["engine.check.index_probes"]);
    values.insert("batch.checks_per_stmt".into(), checks as f64 / statements);
    values.insert("batch.probes_per_stmt".into(), probes as f64 / statements);
}

/// Checks that the engine's deep integrity audit found nothing.
pub fn integrity(report: &IntegrityReport) -> Check {
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("integrity audit: {report}"))
    }
}

/// The negative control of [`integrity`]: `state` with a TEACH row whose
/// course is in neither COURSE nor OFFER, loaded without checks, must
/// fail the audit.
pub fn integrity_control(schema: &RelationalSchema, state: &DatabaseState) -> Check {
    let teach = state.relation_required("TEACH").map_err(err)?;
    let pos = teach.positions(&["T.C.NR", "T.F.SSN"]).map_err(err)?;
    let mut row = vec![Value::Null; teach.arity()];
    row[pos[0]] = Value::Int(-1);
    row[pos[1]] = Value::Int(10_000);
    let mut planted = state.clone();
    planted.insert("TEACH", Tuple::new(row)).map_err(err)?;
    let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).map_err(err)?;
    db.load_state_unverified(&planted).map_err(err)?;
    must_fail(
        "integrity audit of a TEACH row without its course",
        integrity(&db.verify_integrity()),
    )
}
