//! `ingest_durable`: the Figure 3 university is loaded through the logged
//! path into a durable store (WAL, a snapshot every 256 commits, fsync
//! `Never`), then one session that never pins sends a write-only stream
//! (70 % add-course, 30 % drop-course, within the cap of `OpStream`) in
//! batches of at most 16 statements; the warm-up lasts until the adds
//! reach the cap. The store is then closed and rebuilt with
//! `Database::recover`, and the recovered store serves course-detail
//! reads. An untraced run repeats this cycle ten times, each streaming
//! for a tenth of the measured time and then reading 20,000 times; the
//! traced run makes one cycle.
//!
//! No pin exists during the stream, so copy-on-write never copies: the
//! time goes to statement apply, deferred constraint checks, WAL append,
//! and the snapshot installs that run inline on the committing writer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use relmerge_engine::{
    Database, DbmsProfile, DurabilityConfig, EngineConfig, FsyncPolicy, RecoveryReport, Session,
    Statement, Store,
};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, Relation, RelationalSchema, Value};
use relmerge_workload::{dependency_order, unmerged_statements, MixSpec, University, UniversityOp};

use crate::alloc;
use crate::common::{
    counter_sum, err, insert_cache_and_checks, integrity, integrity_control, peak_rss_mb,
    repeat_set_up, timed_read, timed_write, university, us_since, write_span_file, Layers,
    OpStream, Res, RunConfig, Tally,
};
use crate::oracle::{self, answer_of, must_fail, AnswerLog, Check, Model, Replay};
use crate::plans;
use crate::report::Outcome;
use crate::stats::{min_samples, Samples};

/// Most statements per committed batch; an operation is never split.
const BATCH: usize = 16;
/// Batches per round; a run attempts whole rounds.
const ROUND: usize = 64;
/// Commits between snapshots.
const SNAPSHOT_EVERY: u64 = 256;
/// Statements per batch of the initial load.
const LOAD_BATCH: usize = 1024;
/// Restart cycles of an untraced run: each streams writes for an equal
/// share of the measured time, closes and recovers the store, and reads
/// on the recovered store, so that every metric samples the host over
/// the whole run rather than over one stretch of it. The read p50 of one
/// recovered store is no steady figure: five stores recovered in a row in
/// one process read at 9.8 to 16.3 µs.
const CYCLES: usize = 10;
/// Reads on each recovered store: a fixed count, so that the memory their
/// latency samples take does not grow with the speed of the read path.
const READS_PER_CYCLE: usize = 20_000;
/// Share of the traced run's measured time given to its untraced stream.
const TRACED_STREAM_SHARE: f64 = 0.75;
/// Mixed into the run's seed to seed the write stream.
const STREAM: u64 = 0x696e_6773;
/// Mixed into the run's seed to seed the reads on the recovered store.
const PROBE: u64 = 0x7265_6164;

/// A data directory, removed when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn new(cfg: &RunConfig, rep: usize) -> Res<DataDir> {
        let dir = cfg
            .work_dir
            .join(format!("data-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(cfg: &RunConfig, dir: &Path) -> EngineConfig {
    let fsync = if cfg.fsync_always {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Never
    };
    cfg.engine().durability(Some(
        DurabilityConfig::new(dir)
            .snapshot_every(SNAPSHOT_EVERY)
            .fsync(fsync),
    ))
}

/// Loads `u` into a fresh durable database through logged batches,
/// parents first.
fn load(cfg: &RunConfig, u: &University, dir: &Path) -> Res<Database> {
    let mut db =
        Database::new_with_config(u.schema.clone(), DbmsProfile::ideal(), durable(cfg, dir))
            .map_err(err)?;
    let mut stmts = Vec::new();
    for name in dependency_order(&u.schema).map_err(err)? {
        let rel = u.state.relation_required(&name).map_err(err)?;
        stmts.extend(
            rel.iter()
                .map(|t| Statement::insert(name.as_str(), t.clone())),
        );
    }
    for chunk in stmts.chunks(LOAD_BATCH) {
        db.apply_batch(chunk).map_err(err)?;
    }
    Ok(db)
}

/// Per-layer accumulators of the traced phase.
#[derive(Default)]
struct WalLayers {
    common: Layers,
    /// Commits that installed no snapshot, µs.
    plain_us: Samples,
    /// Commits that installed a snapshot, ms.
    snapshot_ms: Samples,
    /// The committed batches, replayed on an in-memory store afterwards.
    batches: Vec<Vec<Statement>>,
}

/// The write stream packed into batches of at most `BATCH` statements;
/// an operation is never split. The same seed gives the same batches.
struct Batcher {
    ops: OpStream,
    /// An operation that did not fit the previous batch.
    pending: Option<UniversityOp>,
}

impl Batcher {
    fn new(cfg: &RunConfig) -> Batcher {
        Batcher {
            ops: OpStream::new(cfg.seed ^ STREAM, MixSpec::write_only(), cfg.courses),
            pending: None,
        }
    }

    fn next_batch(&mut self) -> (Vec<UniversityOp>, Vec<Statement>) {
        let (mut ops, mut stmts) = (Vec::new(), Vec::new());
        loop {
            let op = self.pending.take().unwrap_or_else(|| self.ops.next_op());
            let s = unmerged_statements(&op);
            if !stmts.is_empty() && stmts.len() + s.len() > BATCH {
                self.pending = Some(op);
                return (ops, stmts);
            }
            stmts.extend(s);
            ops.push(op);
        }
    }
}

struct Ingest {
    batches: Batcher,
    /// Batches drawn, warm-up included.
    drawn: u64,
    /// Indices of the batches that failed to commit.
    failed: Vec<u64>,
    tally: Tally,
    commits: Samples,
    statements: u64,
    /// `engine.wal.snapshots`, which the engine bumps per installed
    /// snapshot.
    snapshots: std::sync::Arc<obs::Counter>,
}

impl Ingest {
    /// Commits the next batch on `session`; returns its latency in µs.
    fn commit(&mut self, session: &Session, layers: Option<&mut WalLayers>) -> f64 {
        let i = self.drawn;
        self.drawn += 1;
        let (_, stmts) = self.batches.next_batch();
        self.tally.attempted += 1;
        let snaps0 = self.snapshots.get();
        let (r, us) = match layers {
            None => timed_write(session, &stmts, None),
            Some(l) => {
                let (r, us) = timed_write(session, &stmts, Some(&mut l.common));
                if r.is_ok() {
                    if self.snapshots.get() > snaps0 {
                        l.snapshot_ms.push(us / 1e3);
                    } else {
                        l.plain_us.push(us);
                    }
                    l.batches.push(stmts.clone());
                }
                (r, us)
            }
        };
        match r {
            Ok(()) => self.statements += stmts.len() as u64,
            Err(e) => {
                self.tally.fail("commit", e);
                self.failed.push(i);
            }
        }
        us
    }

    /// Commits whole rounds until `seconds` of calls were measured and
    /// at least `min_commits` commits recorded; returns the commits and
    /// the measured µs.
    fn phase(
        &mut self,
        session: &Session,
        seconds: f64,
        min_commits: usize,
        mut layers: Option<&mut WalLayers>,
    ) -> (u64, f64) {
        let (mut n, mut measured) = (0u64, 0.0);
        while measured < seconds * 1e6 || self.commits.len() < min_commits {
            for _ in 0..ROUND {
                let us = self.commit(session, layers.as_deref_mut());
                self.commits.push(us);
                measured += us;
                n += 1;
            }
        }
        (n, measured)
    }
}

/// The course-detail reads on the recovered stores: how many ran, which
/// failed, their latencies, the engine's answers, and the last answer
/// for the negative control.
#[derive(Default)]
struct Reads {
    drawn: u64,
    failed: Vec<u64>,
    times: Samples,
    answers: AnswerLog,
    last: Option<(u64, Relation)>,
}

impl Reads {
    /// Reads `READS_PER_CYCLE` course details drawn from `probe` on
    /// `session`.
    fn phase(&mut self, session: &Session, probe: &mut OpStream, t: &mut Tally) {
        for _ in 0..READS_PER_CYCLE {
            t.attempted += 1;
            let i = self.drawn;
            self.drawn += 1;
            let nr = probe.course();
            let op = UniversityOp::CourseDetail { nr };
            let (answer, us) =
                timed_read(session, "course_detail", &plans::course_detail(nr), None);
            self.times.push(us);
            match answer {
                Ok(rel) => {
                    match answer_of(&op, &rel) {
                        Ok(a) => self.answers.push(&a),
                        Err(e) => t.check(Err(e)),
                    }
                    self.last = Some((i, rel));
                }
                Err(e) => {
                    t.fail("read on the recovered store", e);
                    self.failed.push(i);
                }
            }
        }
    }
}

/// Checks a recovery report: a clean close leaves no torn tail, and the
/// snapshot cadence bounds the records replayed.
fn check_report(report: &RecoveryReport) -> Check {
    if report.torn_tail {
        return Err(format!(
            "recovery after a clean close found a torn tail: {report}"
        ));
    }
    if report.records_replayed() >= SNAPSHOT_EVERY {
        return Err(format!(
            "recovery replayed {} records, the snapshot interval is {SNAPSHOT_EVERY}",
            report.records_replayed()
        ));
    }
    Ok(())
}

/// Commit latencies of the same batches on an in-memory store loaded
/// with `state`, µs.
fn memory_commits(
    cfg: &RunConfig,
    schema: &RelationalSchema,
    state: &DatabaseState,
    batches: &[Vec<Statement>],
) -> Res<Samples> {
    let mut db = Database::new_with_config(schema.clone(), DbmsProfile::ideal(), cfg.engine())
        .map_err(err)?;
    db.load_state(state).map_err(err)?;
    let store = Store::new(db);
    let session = store.session();
    let mut out = Samples::default();
    for b in batches {
        let t0 = Instant::now();
        session.apply_batch(b).map_err(err)?;
        out.push(us_since(t0));
    }
    Ok(out)
}

/// Replays the run's write stream and reads on the oracle, and checks the
/// recovered store and every read answer against it, each check with its
/// negative control.
/// `commits` batches were drawn from the stream, of which those at the
/// indices `failed` did not commit.
fn check(
    cfg: &RunConfig,
    (commits, failed): (u64, &[u64]),
    reads: &Reads,
    store: &Store,
    t: &mut Tally,
) -> Res<()> {
    let (u, _) = university(cfg.seed, cfg.courses)?;
    let mut model = Model::from_state(&u.state)?;
    let mut replay = Replay::new(&u.schema, &u.state).map_err(err)?;
    let mut batches = Batcher::new(cfg);
    for i in 0..commits {
        let (ops, stmts) = batches.next_batch();
        if failed.binary_search(&i).is_err() {
            ops.iter().for_each(|op| model.apply(op));
            t.check(replay.apply(&stmts));
        }
    }
    let recovered = store.snapshot().map_err(err)?;
    let replayed = replay.state().map_err(err)?;
    t.check(oracle::check_state(
        "recovered store",
        &recovered,
        &replayed,
    ));
    t.check(must_fail(
        "recovered store against a replay with a wrong department",
        oracle::check_state(
            "recovered store",
            &recovered,
            &oracle::planted(&replayed, "OFFER", |r| {
                oracle::with_wrong_value(r, "O.D.NAME", Value::text("planted"))
            })
            .map_err(err)?,
        ),
    ));
    t.check(integrity(&store.verify_integrity()));
    t.check(integrity_control(&u.schema, &recovered));

    let (last_at, last) = reads
        .last
        .as_ref()
        .ok_or("no read on the recovered store")?;
    let wrong_nr = oracle::with_wrong_value(last, "C.NR", Value::Int(-1)).map_err(err)?;
    let (mut want, mut planted_want) = (AnswerLog::default(), AnswerLog::default());
    let mut probe = OpStream::new(cfg.seed ^ PROBE, MixSpec::default(), cfg.courses);
    for i in 0..reads.drawn {
        let op = UniversityOp::CourseDetail { nr: probe.course() };
        if reads.failed.binary_search(&i).is_ok() {
            continue;
        }
        let a = model.answer(&op).unwrap_or_else(|e| {
            t.check(Err(e));
            Vec::new()
        });
        want.push(&a);
        if i == *last_at {
            t.check(model.check(&op, last));
            t.check(must_fail(
                "course detail with a wrong course number",
                model.check(&op, &wrong_nr),
            ));
            planted_want.push(&answer_of(&op, &wrong_nr)?);
        } else {
            planted_want.push(&a);
        }
    }
    t.check(reads.answers.check("reads on the recovered store", &want));
    t.check(must_fail(
        "reads against a model log with a wrong course number",
        reads
            .answers
            .check("reads on the recovered store", &planted_want),
    ));
    Ok(())
}

/// The traced run's stream on `session`: untraced for three quarters of
/// the run (and for enough commits for the write p999), then traced for
/// half that, with the traced batches replayed on an in-memory store for the
/// in-memory commit p50.
fn traced_stream(
    cfg: &RunConfig,
    w: &mut Ingest,
    session: &Session,
    store: &Store,
    schema: &RelationalSchema,
    values: &mut BTreeMap<String, f64>,
) -> Res<()> {
    let (n0, us0) = w.phase(
        session,
        cfg.seconds * TRACED_STREAM_SHARE,
        min_samples(0.999),
        None,
    );
    values.insert("wal.write_p999_us".into(), w.commits.percentile(0.999)?);
    let start_state = store.snapshot().map_err(err)?;
    let mut layers = WalLayers::default();
    let before = obs::snapshot_all();
    let stmts0 = w.statements;
    obs::set_enabled(true);
    alloc::set_counting(true);
    let (n1, us1) = w.phase(
        session,
        cfg.seconds * TRACED_STREAM_SHARE / 2.0,
        0,
        Some(&mut layers),
    );
    let delta = obs::snapshot_all().diff(&before);
    let memory = memory_commits(cfg, schema, &start_state, &layers.batches)?;
    alloc::set_counting(false);
    obs::set_enabled(false);
    write_span_file(cfg, "ingest_durable")?;
    let stmts = (w.statements - stmts0).max(1) as f64;
    layers.common.finish(values)?;
    insert_cache_and_checks(values, &delta, stmts);
    let memory_p50 = memory.median()?;
    values.insert("batch.commit_us_p50_memory".into(), memory_p50);
    values.insert(
        "wal.append_us_p50".into(),
        layers.plain_us.median()? - memory_p50,
    );
    values.insert(
        "wal.bytes_per_stmt".into(),
        counter_sum(&delta, &["engine.wal.append_bytes"]) as f64 / stmts,
    );
    values.insert(
        "wal.snapshots_installed".into(),
        layers.snapshot_ms.len() as f64,
    );
    if !layers.snapshot_ms.is_empty() {
        values.insert(
            "wal.snapshot_commit_ms_p50".into(),
            layers.snapshot_ms.median()?,
        );
    }
    values.insert(
        "obs.traced_slowdown".into(),
        (n0 as f64 / us0) / (n1 as f64 / us1),
    );
    eprintln!(
        "perfbench: snapshot installs took {:.1} % of traced commit time ({} of {} commits)",
        100.0 * layers.snapshot_ms.sum() * 1e3
            / (layers.snapshot_ms.sum() * 1e3 + layers.plain_us.sum()),
        layers.snapshot_ms.len(),
        n1
    );
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let set_up = |rep| -> Res<_> {
        let dir = DataDir::new(cfg, rep)?;
        let (u, gen_s) = university(cfg.seed, cfg.courses)?;
        let db = load(cfg, &u, &dir.0)?;
        Ok((u.schema, db, gen_s, dir))
    };
    let mut setup = Samples::default();
    let (schema, db, gen_s, dir) = repeat_set_up(cfg.setups_before(), &mut setup, set_up)?;
    let (mut generation, _) = db.wal_position().ok_or("the loaded store is not durable")?;
    let mut store = Store::new(db);
    let mut w = Ingest {
        batches: Batcher::new(cfg),
        drawn: 0,
        failed: Vec::new(),
        tally: Tally::default(),
        commits: Samples::default(),
        statements: 0,
        snapshots: obs::global().counter("engine.wal.snapshots"),
    };
    let mut snapshots_at = w.snapshots.get();
    {
        // Warm up until the stream's adds reach their cap, so the measured
        // stream runs on a university of a steady size, then for whole
        // rounds.
        let session = store.session();
        while !w.batches.ops.at_cap() {
            w.commit(&session, None);
        }
        for _ in 0..cfg.warmup_ops.div_ceil(ROUND) * ROUND {
            w.commit(&session, None);
        }
    }
    w.tally.end_warm_up()?;
    w.commits = Samples::default();

    let mut values = BTreeMap::new();
    let mut reads = Reads::default();
    let mut probe = OpStream::new(cfg.seed ^ PROBE, MixSpec::default(), cfg.courses);
    let mut recover_s = Samples::default();
    let mut report = None;
    let cycles = if cfg.trace { 1 } else { CYCLES };
    let (mut n, mut us) = (0u64, 0.0);
    for _ in 0..cycles {
        let session = store.session();
        if cfg.trace {
            traced_stream(cfg, &mut w, &session, &store, &schema, &mut values)?;
        } else {
            let (k, u) = w.phase(&session, cfg.seconds / cycles as f64, 0, None);
            n += k;
            us += u;
        }
        drop(session);

        // Close the store, check the log's generation count, and recover.
        let db = store
            .try_into_database()
            .map_err(|_| "the store still has live handles")?;
        let (closed_at, _) = db.wal_position().ok_or("the store is not durable")?;
        let installed = w.snapshots.get() - snapshots_at;
        w.tally.check(if closed_at - generation == installed {
            Ok(())
        } else {
            Err(format!(
                "the log advanced {} generations for {installed} snapshots",
                closed_at - generation
            ))
        });
        drop(db);
        let t0 = Instant::now();
        let (db, r) = Database::recover(durable(cfg, &dir.0)).map_err(err)?;
        recover_s.push(t0.elapsed().as_secs_f64());
        w.tally.check(check_report(&r));
        report = Some(r);
        generation = db
            .wal_position()
            .ok_or("the recovered store is not durable")?
            .0;
        snapshots_at = w.snapshots.get();
        store = Store::new(db);

        // The recovered store serves reads.
        reads.phase(&store.session(), &mut probe, &mut w.tally);
    }
    let report = report.ok_or("no recovery ran")?;
    w.tally.check(must_fail(
        "recovery report with a torn tail",
        check_report(&RecoveryReport {
            torn_tail: true,
            ..report.clone()
        }),
    ));
    w.tally.check(must_fail(
        "recovery report replaying a full interval",
        check_report(&RecoveryReport {
            batches_replayed: SNAPSHOT_EVERY,
            ..report.clone()
        }),
    ));
    if cfg.trace {
        values.insert("workload.generate_s".into(), gen_s);
        values.insert("session.read_p99_us".into(), reads.times.percentile(0.99)?);
        values.insert("recovery.recover_s".into(), recover_s.median()?);
        values.insert(
            "recovery.records_replayed".into(),
            report.records_replayed() as f64,
        );
        values.insert(
            "recovery.wal_bytes_replayed".into(),
            report.wal_bytes_replayed as f64,
        );
    } else {
        values.insert("peak_rss_mb".into(), peak_rss_mb()?);
        values.insert("ops_per_s".into(), n as f64 / (us / 1e6));
        values.insert("write_p50_us".into(), w.commits.median()?);
        values.insert("read_p50_us".into(), reads.times.median()?);
        repeat_set_up(cfg.setups_after(), &mut setup, set_up)?;
        values.insert("setup_s".into(), setup.median()?);
    }
    let mut t = std::mem::take(&mut w.tally);
    check(cfg, (w.drawn, &w.failed), &reads, &store, &mut t)?;
    let mut outcome = t.outcome();
    outcome.values = values;
    Ok(outcome)
}
