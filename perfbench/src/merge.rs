//! `merge_report`: two stores hold the same Figure 3 university. One is
//! migrated live with `Session::migrate` to `COURSE_M`, the paper's
//! `Merge` of {COURSE, OFFER, TEACH, ASSIST} with every removable key
//! removed. A closed loop then runs analytic queries over both stores:
//! the full course listing (three outer joins unmerged, one scan
//! merged), the composite ASSIST ⋈ TEACH hash join, and the selective
//! chain with `T.F.SSN = c` pushed down to TEACH. Every few query
//! cycles one course is added to both stores and dropped again, which
//! invalidates cached builds and copies the touched tables after pins,
//! and leaves the state, hence every expected answer, unchanged. Each
//! answer is kept as a digest; the algebra's answers are computed after
//! the loop and the peak memory reading.

use std::collections::BTreeMap;
use std::time::Instant;

use relmerge_core::{check_forward, Merge, Merged};
use relmerge_engine::{QueryPlan, Session, Statement, Store};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, RelationalSchema, Tuple, Value};
use relmerge_workload::{merged_statements, unmerged_statements, MixSpec};

use crate::alloc;
use crate::common::{
    err, insert_cache_and_checks, integrity, integrity_control, load, peak_rss_mb, repeat_set_up,
    timed_read, timed_write, university, write_span_file, Layers, OpStream, Res, RunConfig, Tally,
};
use crate::oracle::{self, digest, must_fail, Check, Replay};
use crate::plans;
use crate::report::Outcome;
use crate::stats::Samples;

/// The merge set, key-relation first.
const MEMBERS: [&str; 4] = ["COURSE", "OFFER", "TEACH", "ASSIST"];
/// The merged relation's name.
const MERGED: &str = "COURSE_M";
/// Query cycles per add/drop pair.
const WRITE_EVERY: u64 = 2;
/// Query cycles per round; a run attempts whole rounds.
const ROUND: u64 = 4;
/// Mixed into the run's seed to seed the add/drop stream.
const STREAM: u64 = 0x6d65_7267;

/// `Merge` of the course chain plus every removable key removal.
fn plan_merge(schema: &RelationalSchema) -> Res<Merged> {
    let mut m = Merge::plan(schema, &MEMBERS, MERGED).map_err(err)?;
    m.remove_all_removable().map_err(err)?;
    Ok(m)
}

/// One analytic query: its plan, the store it runs on (`true` = the
/// migrated one), and a digest of its answers. The add/drop pairs leave
/// both stores as they were, so every answer must equal the first, and
/// the first must equal the algebra's.
struct Query {
    name: &'static str,
    plan: QueryPlan,
    merged: bool,
    /// Digest of the first answer.
    first: Option<u64>,
    /// Answers whose digest differed from the first's.
    differing: u64,
}

/// The next add/drop pair of the stream as four batches: the add on the
/// unmerged and on the merged store, then the drop on both; `true` marks
/// the merged store.
fn pair_batches(ops: &mut OpStream) -> [(bool, Vec<Statement>); 4] {
    let (add, drop) = (ops.add(), ops.drop_newest());
    [
        (false, unmerged_statements(&add)),
        (true, merged_statements(&add)),
        (false, unmerged_statements(&drop)),
        (true, merged_statements(&drop)),
    ]
}

struct Report<'a> {
    unmerged: &'a Session,
    merged: &'a Session,
    queries: Vec<Query>,
    ops: OpStream,
    /// Add/drop pairs drawn, warm-up included.
    pairs: u64,
    /// `(pair, batch)` of each batch that failed to commit.
    failed: Vec<(u64, usize)>,
    tally: Tally,
    reads: Samples,
    writes: Samples,
    statements: u64,
    cycles: u64,
}

impl Report<'_> {
    /// Runs query `i` once; returns its latency in µs.
    fn read(&mut self, i: usize, layers: Option<&mut Layers>) -> Res<f64> {
        let q = &self.queries[i];
        let session = if q.merged { self.merged } else { self.unmerged };
        let (answer, us) = timed_read(session, q.name, &q.plan, layers);
        let d = digest(&answer?);
        let q = &mut self.queries[i];
        match q.first {
            None => q.first = Some(d),
            Some(first) if first != d => q.differing += 1,
            Some(_) => {}
        }
        Ok(us)
    }

    /// One cycle: one analytic report (every query once, timed as one
    /// read) and, every `WRITE_EVERY` cycles, one write: a course added
    /// to both stores and dropped again, timed as one operation. Returns
    /// the ops run and the measured µs.
    fn cycle(&mut self, mut layers: Option<&mut Layers>) -> (u64, f64) {
        self.tally.attempted += 1;
        let report: Res<f64> = (0..self.queries.len())
            .map(|i| self.read(i, layers.as_deref_mut()))
            .sum();
        let (mut n, mut measured) = (1u64, 0.0);
        match report {
            Ok(us) => {
                self.reads.push(us);
                measured += us;
            }
            Err(e) => self.tally.fail("report", e),
        }
        self.cycles += 1;
        if self.cycles.is_multiple_of(WRITE_EVERY) {
            self.tally.attempted += 1;
            let pair = self.pairs;
            self.pairs += 1;
            let mut total = Some(0.0);
            for (k, (merged, stmts)) in pair_batches(&mut self.ops).into_iter().enumerate() {
                let session = if merged { self.merged } else { self.unmerged };
                let (r, us) = timed_write(session, &stmts, layers.as_deref_mut());
                match r {
                    Ok(()) => {
                        self.statements += stmts.len() as u64;
                        total = total.map(|t| t + us);
                    }
                    Err(e) => {
                        self.tally.fail("write", e);
                        self.failed.push((pair, k));
                        total = None;
                    }
                }
            }
            if let Some(us) = total {
                self.writes.push(us);
                measured += us;
            }
            n += 1;
        }
        (n, measured)
    }

    /// Runs whole rounds of cycles until `seconds` of calls were
    /// measured.
    fn phase(&mut self, seconds: f64, mut layers: Option<&mut Layers>) -> (u64, f64) {
        let (mut n, mut measured) = (0u64, 0.0);
        while measured < seconds * 1e6 {
            for _ in 0..ROUND {
                let (k, us) = self.cycle(layers.as_deref_mut());
                n += k;
                measured += us;
            }
        }
        (n, measured)
    }
}

/// `state` with an ASSIST row pairing a course with the faculty member
/// who teaches it: the composite and pushdown answers must then be
/// non-empty.
fn assisted_by_teacher(state: &DatabaseState, nr: i64, ssn: i64) -> Res<DatabaseState> {
    let assist = state.relation_required("ASSIST").map_err(err)?;
    let pos = assist.positions(&["A.C.NR", "A.S.SSN"]).map_err(err)?;
    let mut row = vec![Value::Null; assist.arity()];
    row[pos[0]] = Value::Int(nr);
    row[pos[1]] = Value::Int(ssn);
    let mut planted = state.clone();
    planted.insert("ASSIST", Tuple::new(row)).map_err(err)?;
    Ok(planted)
}

/// A `(course, faculty)` pair of TEACH chosen by the seed.
fn taught_pair(state: &DatabaseState, pick: usize) -> Res<(i64, i64)> {
    let teach = state.relation_required("TEACH").map_err(err)?;
    let pos = teach.positions(&["T.C.NR", "T.F.SSN"]).map_err(err)?;
    let t = teach
        .rows()
        .get(pick % teach.len().max(1))
        .ok_or("TEACH is empty")?;
    match (t.get(pos[0]), t.get(pos[1])) {
        (Value::Int(nr), Value::Int(ssn)) => Ok((*nr, *ssn)),
        _ => Err("TEACH holds a non-integer key".into()),
    }
}

/// Checks the analytic answers, the writes and both final stores against
/// the oracle, each check with its negative control.
fn check(cfg: &RunConfig, w: &Report, m: &Merged, a: &Store, b: &Store, t: &mut Tally) -> Res<()> {
    let (u, _) = university(cfg.seed, cfg.courses)?;
    let image = m.apply(&u.state).map_err(err)?;

    // Every analytic answer against its algebra evaluation. A taught
    // course, and the ASSIST row that pairs it with its teacher, is the
    // planted fault of the composite and pushdown checks.
    let (nr, ssn) = taught_pair(&u.state, cfg.seed as usize)?;
    let planted = assisted_by_teacher(&u.state, nr, ssn)?;
    let listing = oracle::listing(&u.state).map_err(err)?;
    let listing_merged = image.relation_required(MERGED).map_err(err)?;
    let expected = [
        (
            "listing_unmerged",
            digest(&listing),
            digest(&oracle::without_first_row(&listing).map_err(err)?),
        ),
        (
            "listing_merged",
            digest(listing_merged),
            digest(&oracle::without_first_row(listing_merged).map_err(err)?),
        ),
        (
            "composite_join",
            digest(&oracle::composite(&u.state).map_err(err)?),
            digest(&oracle::composite(&planted).map_err(err)?),
        ),
        (
            "pushdown_chain",
            digest(&oracle::pushdown(&u.state, ssn).map_err(err)?),
            digest(&oracle::pushdown(&planted, ssn).map_err(err)?),
        ),
    ];
    for q in &w.queries {
        let (_, want, wrong) = expected
            .iter()
            .find(|(name, ..)| *name == q.name)
            .ok_or_else(|| format!("no algebra evaluation of {}", q.name))?;
        let first = q
            .first
            .ok_or_else(|| format!("{} never answered", q.name))?;
        let verdict = |oracle: u64| -> Check {
            if first == oracle && q.differing == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{}: {} answers differ from the first, the first {} the algebra's",
                    q.name,
                    q.differing,
                    if first == oracle {
                        "equals"
                    } else {
                        "differs from"
                    }
                ))
            }
        };
        t.check(verdict(*want));
        t.check(must_fail(q.name, verdict(*wrong)));
    }

    // The writes on the replays, and both final stores against them.
    let mut replay_a = Replay::new(&u.schema, &u.state).map_err(err)?;
    let mut replay_b = Replay::new(m.schema(), &image).map_err(err)?;
    let mut ops = OpStream::new(cfg.seed ^ STREAM, MixSpec::default(), cfg.courses);
    for pair in 0..w.pairs {
        for (k, (merged, stmts)) in pair_batches(&mut ops).into_iter().enumerate() {
            if !w.failed.contains(&(pair, k)) {
                let replay = if merged { &mut replay_b } else { &mut replay_a };
                t.check(replay.apply(&stmts));
            }
        }
    }
    let (a_state, b_state) = (a.snapshot().map_err(err)?, b.snapshot().map_err(err)?);
    let replayed_a = replay_a.state().map_err(err)?;
    t.check(oracle::check_state("unmerged store", &a_state, &replayed_a));
    t.check(must_fail(
        "unmerged store against a replay missing a TEACH row",
        oracle::check_state(
            "unmerged store",
            &a_state,
            &oracle::planted(&replayed_a, "TEACH", oracle::without_first_row).map_err(err)?,
        ),
    ));
    t.check(oracle::check_state(
        "migrated store",
        &b_state,
        &replay_b.state().map_err(err)?,
    ));

    // The migrated store against Merged::apply and Merged::invert
    // (Proposition 4.1), each with a planted wrong value. The add/drop
    // pairs leave it as the migration left it, as the replay shows.
    let wrong_image = oracle::planted(&image, MERGED, |r| {
        oracle::with_wrong_value(r, "O.D.NAME", Value::text("planted"))
    })
    .map_err(err)?;
    t.check(oracle::check_state("migrated store", &b_state, &image));
    t.check(must_fail(
        "migrated store against an image with a wrong department",
        oracle::check_state("migrated store", &b_state, &wrong_image),
    ));
    t.check(oracle::check_state(
        "inverse of the migrated store",
        &m.invert(&b_state).map_err(err)?,
        &u.state,
    ));
    t.check(must_fail(
        "inverse of an image with a wrong department",
        oracle::check_state(
            "inverse of the migrated store",
            &m.invert(&wrong_image).map_err(err)?,
            &u.state,
        ),
    ));

    // The two stores η-equivalent.
    let eta = m.apply(&a_state).map_err(err)?;
    t.check(oracle::check_state(
        "η of the unmerged store",
        &b_state,
        &eta,
    ));
    t.check(must_fail(
        "η-equivalence with a missing COURSE_M row",
        oracle::check_state(
            "η of the unmerged store",
            &b_state,
            &oracle::planted(&eta, MERGED, oracle::without_first_row).map_err(err)?,
        ),
    ));
    t.check(integrity(&a.verify_integrity()));
    t.check(integrity(&b.verify_integrity()));
    t.check(integrity_control(&u.schema, &a_state));
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let set_up = |_| -> Res<_> {
        let (u, gen_s) = university(cfg.seed, cfg.courses)?;
        let unmerged = load(cfg, &u)?;
        let merged = load(cfg, &u)?;
        let plan = plan_merge(&u.schema)?;
        Ok((u, unmerged, merged, plan, gen_s))
    };
    let mut setup = Samples::default();
    let (u, a, b, m, gen_s) = repeat_set_up(cfg.setups_before(), &mut setup, set_up)?;
    let mut values = BTreeMap::new();
    if cfg.trace {
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        plan_merge(&u.schema)?;
        values.insert("core.merge_plan_ms".into(), ms(t0));
        let t0 = Instant::now();
        m.apply(&u.state).map_err(err)?;
        values.insert("core.eta_apply_ms".into(), ms(t0));
        let t0 = Instant::now();
        let capacity = check_forward(&m, &u.state).map_err(err)?;
        values.insert("core.capacity_check_ms".into(), ms(t0));
        if !capacity.holds() {
            return Err("the forward capacity check failed on the generated state".into());
        }
    }
    // The pushdown chain's faculty member; the oracle draws the same one.
    let (_, ssn) = taught_pair(&u.state, cfg.seed as usize)?;
    drop(u);
    let (sa, sb) = (a.session(), b.session());
    let t0 = Instant::now();
    let migration = sb.migrate(&m).map_err(err)?;
    let migrate_s = t0.elapsed().as_secs_f64();

    let query = |name, plan, merged| Query {
        name,
        plan,
        merged,
        first: None,
        differing: 0,
    };
    let mut w = Report {
        unmerged: &sa,
        merged: &sb,
        queries: vec![
            query("listing_unmerged", plans::listing_unmerged(), false),
            query("listing_merged", plans::listing_merged(), true),
            query("composite_join", plans::composite_join(), false),
            query("pushdown_chain", plans::pushdown_chain(ssn), false),
        ],
        ops: OpStream::new(cfg.seed ^ STREAM, MixSpec::default(), cfg.courses),
        pairs: 0,
        failed: Vec::new(),
        tally: Tally::default(),
        reads: Samples::default(),
        writes: Samples::default(),
        statements: 0,
        cycles: 0,
    };
    let warm_cycles = (cfg.warmup_ops as u64 / 40).max(1).div_ceil(ROUND) * ROUND;
    for _ in 0..warm_cycles {
        w.cycle(None);
    }
    w.tally.end_warm_up()?;
    w.reads = Samples::default();
    w.writes = Samples::default();

    if cfg.trace {
        let (n0, us0) = w.phase(cfg.seconds / 2.0, None);
        let mut layers = Layers::default();
        let before = obs::snapshot_all();
        let stmts0 = w.statements;
        obs::set_enabled(true);
        alloc::set_counting(true);
        let (n1, us1) = w.phase(cfg.seconds / 2.0, Some(&mut layers));
        alloc::set_counting(false);
        obs::set_enabled(false);
        let delta = obs::snapshot_all().diff(&before);
        write_span_file(cfg, "merge_report")?;
        layers.finish(&mut values)?;
        insert_cache_and_checks(&mut values, &delta, (w.statements - stmts0).max(1) as f64);
        let cache_bytes =
            sa.pin().map_err(err)?.build_cache_bytes() + sb.pin().map_err(err)?.build_cache_bytes();
        values.insert("build_cache.bytes".into(), cache_bytes as f64);
        values.insert("workload.generate_s".into(), gen_s);
        values.insert("migrate.migrate_s".into(), migrate_s);
        values.insert(
            "migrate.rows_migrated".into(),
            migration.rows_migrated as f64,
        );
        values.insert(
            "migrate.chunks_applied".into(),
            migration.chunks_applied as f64,
        );
        values.insert(
            "obs.traced_slowdown".into(),
            (n0 as f64 / us0) / (n1 as f64 / us1),
        );
    } else {
        let (n, us) = w.phase(cfg.seconds, None);
        values.insert("peak_rss_mb".into(), peak_rss_mb()?);
        repeat_set_up(cfg.setups_after(), &mut setup, set_up)?;
        values.insert("setup_s".into(), setup.median()?);
        values.insert("ops_per_s".into(), n as f64 / (us / 1e6));
        values.insert("read_p50_us".into(), w.reads.median()?);
        values.insert("write_p50_us".into(), w.writes.median()?);
    }

    let mut t = std::mem::take(&mut w.tally);
    check(cfg, &w, &m, &a, &b, &mut t)?;
    let mut outcome = t.outcome();
    outcome.values = values;
    Ok(outcome)
}
