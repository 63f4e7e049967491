//! `oltp_pinned`: one session runs the default read-mostly mix (80 %
//! course-detail reads, 10 % by-faculty lookups, 7 % add-course and 3 %
//! drop-course batches) against the Figure 3 schema, and every read pins
//! a snapshot. Every write therefore lands after a pin and copies each
//! table it touches; the next pin frees the old copy.
//!
//! While the loop runs, the process holds the store and no oracle: each
//! read's answer goes into an [`AnswerLog`] digest. The oracle is built
//! after the peak memory is read, by replaying the same seeded operation
//! stream on the plain model and the statement replay.

use relmerge_engine::{Session, Store};
use relmerge_obs as obs;
use relmerge_relational::{Relation, Value};
use relmerge_workload::{unmerged_statements, MixSpec, UniversityOp};

use crate::alloc;
use crate::common::{
    err, integrity, integrity_control, load, peak_rss_mb, repeat_set_up, timed_read, timed_write,
    university, write_span_file, Layers, OpStream, Res, RunConfig, Tally,
};
use crate::oracle::{self, answer_of, must_fail, AnswerLog, Model, Replay};
use crate::plans;
use crate::report::Outcome;
use crate::stats::{min_samples, Samples};

/// Operations per round; a run attempts whole rounds.
const ROUND: usize = 200;
/// Mixed into the run's seed to seed the operation stream.
const STREAM: u64 = 0x6f6c_7470;

/// The client loop's state: the session, the operation stream, and what
/// it measured and logged.
struct Oltp<'a> {
    session: &'a Session,
    ops: OpStream,
    /// Operations drawn from the stream, warm-up included.
    drawn: u64,
    /// Indices of the operations that returned an error.
    failed_ops: Vec<u64>,
    /// The engine's read answers in canonical form.
    answers: AnswerLog,
    tally: Tally,
    reads: Samples,
    writes: Samples,
    /// Statements committed, for per-statement ratios.
    statements: u64,
    /// The last answer of each read kind with its operation index, for
    /// the negative controls.
    last_detail: Option<(u64, Relation)>,
    last_faculty: Option<(u64, Relation)>,
}

impl Oltp<'_> {
    /// Runs the next operation of the stream; returns its latency in µs
    /// and whether it was a read.
    fn step(&mut self, layers: Option<&mut Layers>) -> (f64, bool) {
        let i = self.drawn;
        self.drawn += 1;
        let op = self.ops.next_op();
        self.tally.attempted += 1;
        let (name, plan) = match op {
            UniversityOp::CourseDetail { nr } => ("course_detail", plans::course_detail(nr)),
            UniversityOp::ByFaculty { ssn } => ("by_faculty", plans::by_faculty(ssn)),
            UniversityOp::AddCourse { .. } | UniversityOp::DropCourse { .. } => {
                let stmts = unmerged_statements(&op);
                let (r, us) = timed_write(self.session, &stmts, layers);
                match r {
                    Ok(()) => self.statements += stmts.len() as u64,
                    Err(e) => {
                        self.tally.fail("write", e);
                        self.failed_ops.push(i);
                    }
                }
                return (us, false);
            }
        };
        let (answer, us) = timed_read(self.session, name, &plan, layers);
        match answer {
            Err(e) => {
                self.tally.fail("read", e);
                self.failed_ops.push(i);
            }
            Ok(rel) => {
                match answer_of(&op, &rel) {
                    Ok(a) => self.answers.push(&a),
                    Err(e) => self.tally.check(Err(e)),
                }
                if matches!(op, UniversityOp::CourseDetail { .. }) {
                    self.last_detail = Some((i, rel));
                } else if !rel.is_empty() {
                    self.last_faculty = Some((i, rel));
                }
            }
        }
        (us, true)
    }

    /// Runs whole rounds until `seconds` of calls were measured and at
    /// least `min_reads` reads recorded; returns the operations run and
    /// the measured µs.
    fn phase(
        &mut self,
        seconds: f64,
        min_reads: usize,
        mut layers: Option<&mut Layers>,
    ) -> (u64, f64) {
        let (mut n, mut measured) = (0u64, 0.0);
        while measured < seconds * 1e6 || self.reads.len() < min_reads {
            for _ in 0..ROUND {
                let (us, read) = self.step(layers.as_deref_mut());
                if read {
                    self.reads.push(us);
                } else {
                    self.writes.push(us);
                }
                measured += us;
                n += 1;
            }
        }
        (n, measured)
    }
}

/// Replays the run's operation stream on the oracle, and checks every
/// read answer and the final store against it, each check with its
/// negative control.
fn check(cfg: &RunConfig, w: &Oltp, store: &Store, t: &mut Tally) -> Res<()> {
    let (u, _) = university(cfg.seed, cfg.courses)?;
    let mut model = Model::from_state(&u.state)?;
    let mut replay = Replay::new(&u.schema, &u.state).map_err(err)?;
    let mut ops = OpStream::new(cfg.seed ^ STREAM, MixSpec::default(), cfg.courses);
    let (detail_at, detail) = w.last_detail.as_ref().ok_or("no course-detail read ran")?;
    let (faculty_at, faculty) = w
        .last_faculty
        .as_ref()
        .ok_or("no by-faculty read returned rows")?;
    // The model's answers, and the same with the last course detail
    // given a wrong teacher: the log check must fail on the latter.
    let (mut want, mut planted_want) = (AnswerLog::default(), AnswerLog::default());
    let wrong_teacher = oracle::with_wrong_value(detail, "T.F.SSN", Value::Int(-1)).map_err(err)?;
    let missing_row = oracle::without_first_row(faculty).map_err(err)?;
    for i in 0..w.drawn {
        let op = ops.next_op();
        if w.failed_ops.binary_search(&i).is_ok() {
            continue;
        }
        if matches!(
            op,
            UniversityOp::AddCourse { .. } | UniversityOp::DropCourse { .. }
        ) {
            model.apply(&op);
            t.check(replay.apply(&unmerged_statements(&op)));
            continue;
        }
        let a = model.answer(&op).unwrap_or_else(|e| {
            t.check(Err(e));
            Vec::new()
        });
        want.push(&a);
        if i == *detail_at {
            t.check(model.check(&op, detail));
            t.check(must_fail(
                "course detail with a wrong teacher",
                model.check(&op, &wrong_teacher),
            ));
            planted_want.push(&answer_of(&op, &wrong_teacher)?);
        } else {
            planted_want.push(&a);
        }
        if i == *faculty_at {
            t.check(model.check(&op, faculty));
            t.check(must_fail(
                "by-faculty answer missing a row",
                model.check(&op, &missing_row),
            ));
        }
    }
    t.check(w.answers.check("reads", &want));
    t.check(must_fail(
        "reads against a model log with a wrong teacher",
        w.answers.check("reads", &planted_want),
    ));

    let engine = store.snapshot().map_err(err)?;
    let replayed = replay.state().map_err(err)?;
    t.check(oracle::check_state("final store", &engine, &replayed));
    t.check(must_fail(
        "final store against a replay missing a COURSE row",
        oracle::check_state(
            "final store",
            &engine,
            &oracle::planted(&replayed, "COURSE", oracle::without_first_row).map_err(err)?,
        ),
    ));
    t.check(integrity(&store.verify_integrity()));
    t.check(integrity_control(&u.schema, &engine));
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let set_up = |_| -> Res<(Store, f64)> {
        let (u, gen_s) = university(cfg.seed, cfg.courses)?;
        Ok((load(cfg, &u)?, gen_s))
    };
    let mut setup = Samples::default();
    let (store, gen_s) = repeat_set_up(cfg.setups_before(), &mut setup, set_up)?;
    let session = store.session();
    let mut w = Oltp {
        session: &session,
        ops: OpStream::new(cfg.seed ^ STREAM, MixSpec::default(), cfg.courses),
        drawn: 0,
        failed_ops: Vec::new(),
        answers: AnswerLog::default(),
        tally: Tally::default(),
        reads: Samples::default(),
        writes: Samples::default(),
        statements: 0,
        last_detail: None,
        last_faculty: None,
    };
    for _ in 0..cfg.warmup_ops.div_ceil(ROUND) * ROUND {
        w.step(None);
    }
    w.tally.end_warm_up()?;
    w.reads = Samples::default();
    w.writes = Samples::default();

    let mut values = std::collections::BTreeMap::new();
    if cfg.trace {
        let (n0, us0) = w.phase(cfg.seconds / 2.0, min_samples(0.99), None);
        values.insert("session.read_p99_us".into(), w.reads.percentile(0.99)?);
        let mut layers = Layers::default();
        let before = obs::snapshot_all();
        let stmts0 = w.statements;
        obs::set_enabled(true);
        alloc::set_counting(true);
        let (n1, us1) = w.phase(cfg.seconds / 2.0, 0, Some(&mut layers));
        alloc::set_counting(false);
        obs::set_enabled(false);
        let delta = obs::snapshot_all().diff(&before);
        write_span_file(cfg, "oltp_pinned")?;
        layers.finish(&mut values)?;
        let stmts = (w.statements - stmts0).max(1) as f64;
        values.insert("workload.generate_s".into(), gen_s);
        values.insert(
            "obs.traced_slowdown".into(),
            (n0 as f64 / us0) / (n1 as f64 / us1),
        );
        crate::common::insert_cache_and_checks(&mut values, &delta, stmts);
        let snap = session.pin().map_err(err)?;
        values.insert("build_cache.bytes".into(), snap.build_cache_bytes() as f64);
    } else {
        let (n, us) = w.phase(cfg.seconds, 0, None);
        values.insert("peak_rss_mb".into(), peak_rss_mb()?);
        repeat_set_up(cfg.setups_after(), &mut setup, set_up)?;
        values.insert("setup_s".into(), setup.median()?);
        values.insert("ops_per_s".into(), n as f64 / (us / 1e6));
        values.insert("read_p50_us".into(), w.reads.median()?);
        values.insert("write_p50_us".into(), w.writes.median()?);
    }

    let mut t = std::mem::take(&mut w.tally);
    check(cfg, &w, &store, &mut t)?;
    let mut outcome = t.outcome();
    outcome.values = values;
    Ok(outcome)
}
