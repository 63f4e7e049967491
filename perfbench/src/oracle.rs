//! The oracle every workload checks the engine against. It shares no code
//! with the engine's storage, planner or executor:
//!
//! * [`Model`]: a plain model of the university (course → department,
//!   teacher and assistant; faculty → courses), updated operation by
//!   operation as the stream is replayed. Point reads are checked against it.
//! * [`Replay`]: the same statements replayed on a keyed image of the
//!   relations, materialized as a [`DatabaseState`]. Final states and
//!   recovered states are checked against it.
//! * [`listing`], [`composite`] and [`pushdown`]: the analytic answers
//!   evaluated with `relational::algebra` joins.
//! * The merged side is checked with `Merged::apply` and `Merged::invert`
//!   in the merge workload itself.
//!
//! While a workload's measured loop runs, the process holds none of
//! this: the engine's answers go into digests ([`AnswerLog`], [`digest`]),
//! and the oracle is built afterwards from the same seeds, after the peak
//! memory was read, so that `peak_rss_mb` is the engine's.
//!
//! Every check returns `Err` with a description of the first difference.
//! [`must_fail`] runs a check on a planted fault (a missing row or a wrong
//! value) and turns a pass into an error, so each check proves it can
//! fail.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use relmerge_engine::Statement;
use relmerge_relational::algebra;
use relmerge_relational::{DatabaseState, Relation, RelationalSchema, Result, Tuple, Value};
use relmerge_workload::UniversityOp;

/// Result of one check: `Err` describes the first difference found.
pub type Check = std::result::Result<(), String>;

/// One course in the plain model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Course {
    dept: Option<String>,
    teacher: Option<i64>,
    assistant: Option<i64>,
}

/// A plain model of the university: course → department, teacher and
/// assistant, and faculty → courses taught.
#[derive(Debug, Clone, Default)]
pub struct Model {
    courses: BTreeMap<i64, Course>,
    taught: BTreeMap<i64, BTreeSet<i64>>,
}

fn int_at(t: &Tuple, pos: usize) -> std::result::Result<i64, String> {
    match t.get(pos) {
        Value::Int(v) => Ok(*v),
        other => Err(format!("expected an integer, found {other}")),
    }
}

fn column(rel: &Relation, name: &str) -> std::result::Result<usize, String> {
    rel.position(name)
        .ok_or_else(|| format!("relation has no column `{name}`"))
}

fn relation<'a>(state: &'a DatabaseState, name: &str) -> std::result::Result<&'a Relation, String> {
    state.relation_required(name).map_err(|e| e.to_string())
}

impl Model {
    /// Reads the model out of a Figure 3 university state.
    pub fn from_state(state: &DatabaseState) -> std::result::Result<Model, String> {
        let mut m = Model::default();
        let course = relation(state, "COURSE")?;
        let c_nr = column(course, "C.NR")?;
        for t in course.iter() {
            m.courses.insert(
                int_at(t, c_nr)?,
                Course {
                    dept: None,
                    teacher: None,
                    assistant: None,
                },
            );
        }
        let offer = relation(state, "OFFER")?;
        let (o_nr, o_dept) = (column(offer, "O.C.NR")?, column(offer, "O.D.NAME")?);
        for t in offer.iter() {
            let c = m.course_mut(int_at(t, o_nr)?)?;
            c.dept = match t.get(o_dept) {
                Value::Text(s) => Some(s.to_string()),
                other => return Err(format!("OFFER department {other} is not text")),
            };
        }
        let teach = relation(state, "TEACH")?;
        let (t_nr, t_ssn) = (column(teach, "T.C.NR")?, column(teach, "T.F.SSN")?);
        for t in teach.iter() {
            let (nr, ssn) = (int_at(t, t_nr)?, int_at(t, t_ssn)?);
            m.course_mut(nr)?.teacher = Some(ssn);
            m.taught.entry(ssn).or_default().insert(nr);
        }
        let assist = relation(state, "ASSIST")?;
        let (a_nr, a_ssn) = (column(assist, "A.C.NR")?, column(assist, "A.S.SSN")?);
        for t in assist.iter() {
            let ssn = int_at(t, a_ssn)?;
            m.course_mut(int_at(t, a_nr)?)?.assistant = Some(ssn);
        }
        Ok(m)
    }

    fn course_mut(&mut self, nr: i64) -> std::result::Result<&mut Course, String> {
        self.courses
            .get_mut(&nr)
            .ok_or_else(|| format!("course {nr} is referenced but not in COURSE"))
    }

    /// Applies one issued write operation (reads change nothing).
    pub fn apply(&mut self, op: &UniversityOp) {
        match op {
            UniversityOp::CourseDetail { .. } | UniversityOp::ByFaculty { .. } => {}
            UniversityOp::AddCourse { nr, dept, teacher } => {
                self.courses.insert(
                    *nr,
                    Course {
                        dept: Some(format!("dept{dept}")),
                        teacher: *teacher,
                        assistant: None,
                    },
                );
                if let Some(t) = teacher {
                    self.taught.entry(*t).or_default().insert(*nr);
                }
            }
            UniversityOp::DropCourse { nr } => {
                if let Some(t) = self.courses.remove(nr).and_then(|c| c.teacher) {
                    if let Some(set) = self.taught.get_mut(&t) {
                        set.remove(nr);
                    }
                }
            }
        }
    }

    /// The answer the model expects to a read, in the canonical form of
    /// [`answer_of`].
    pub fn answer(&self, op: &UniversityOp) -> std::result::Result<Vec<Value>, String> {
        match *op {
            UniversityOp::CourseDetail { nr } => {
                let c = self
                    .courses
                    .get(&nr)
                    .ok_or_else(|| format!("course {nr} is not in the model"))?;
                let key_if = |present: bool| if present { Value::Int(nr) } else { Value::Null };
                Ok(vec![
                    Value::Int(1),
                    Value::Int(nr),
                    key_if(c.dept.is_some()),
                    c.dept.clone().map_or(Value::Null, Value::text),
                    key_if(c.teacher.is_some()),
                    c.teacher.map_or(Value::Null, Value::Int),
                    key_if(c.assistant.is_some()),
                    c.assistant.map_or(Value::Null, Value::Int),
                ])
            }
            UniversityOp::ByFaculty { ssn } => {
                let taught = self.taught.get(&ssn);
                let mut out = vec![Value::Int(taught.map_or(0, |s| s.len() as i64))];
                for nr in taught.into_iter().flatten() {
                    let dept = self.courses[nr]
                        .dept
                        .clone()
                        .ok_or_else(|| format!("taught course {nr} has no offer in the model"))?;
                    out.extend([Value::Int(*nr), Value::text(dept)]);
                }
                Ok(out)
            }
            _ => Err(format!("{op:?} is not a read")),
        }
    }

    /// Checks the engine's answer to a read against the model.
    pub fn check(&self, op: &UniversityOp, answer: &Relation) -> Check {
        let (got, want) = (answer_of(op, answer)?, self.answer(op)?);
        if got == want {
            Ok(())
        } else {
            Err(format!("{op:?}: engine says {got:?}, model says {want:?}"))
        }
    }
}

/// Columns of a course-detail answer (see [`crate::plans::course_detail`])
/// that the model knows, in canonical order.
const DETAIL_COLUMNS: [&str; 7] = [
    "C.NR", "O.C.NR", "O.D.NAME", "T.C.NR", "T.F.SSN", "A.C.NR", "A.S.SSN",
];

/// The engine's answer to a read in a canonical form: the row count, then
/// for a course detail the checked columns of each row, for a by-faculty
/// lookup (see [`crate::plans::by_faculty`]) the sorted `(course,
/// department)` pairs.
pub fn answer_of(op: &UniversityOp, answer: &Relation) -> std::result::Result<Vec<Value>, String> {
    let mut out = vec![Value::Int(answer.len() as i64)];
    match op {
        UniversityOp::CourseDetail { .. } => {
            let pos = DETAIL_COLUMNS
                .iter()
                .map(|c| column(answer, c))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            for row in answer.iter() {
                out.extend(pos.iter().map(|&p| row.get(p).clone()));
            }
        }
        UniversityOp::ByFaculty { .. } => {
            let (nr, dept) = (column(answer, "C.NR")?, column(answer, "O.D.NAME")?);
            let mut pairs: Vec<(Value, Value)> = answer
                .iter()
                .map(|t| (t.get(nr).clone(), t.get(dept).clone()))
                .collect();
            pairs.sort();
            out.extend(pairs.into_iter().flat_map(|(a, b)| [a, b]));
        }
        _ => return Err(format!("{op:?} is not a read")),
    }
    Ok(out)
}

/// An order-sensitive digest of a sequence of read answers in canonical
/// form: the engine's answers, logged as the reads run, must equal the
/// model's, computed afterwards from the same operation stream. The log
/// keeps 16 bytes however many reads run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnswerLog {
    reads: u64,
    digest: u64,
}

impl AnswerLog {
    /// Appends one answer.
    pub fn push(&mut self, answer: &[Value]) {
        let mut h = DefaultHasher::new();
        (self.digest, answer).hash(&mut h);
        self.digest = h.finish();
        self.reads += 1;
    }

    /// Checks the engine's log against the model's.
    pub fn check(&self, label: &str, model: &AnswerLog) -> Check {
        if self == model {
            Ok(())
        } else {
            Err(format!(
                "{label}: {} answers logged, model computed {}, digests differ",
                self.reads, model.reads
            ))
        }
    }
}

/// A digest of `rel` as a set of rows up to column order: relations with
/// the same columns, in any order, and the same rows have equal digests.
#[must_use]
pub fn digest(rel: &Relation) -> u64 {
    let mut cols: Vec<usize> = (0..rel.arity()).collect();
    cols.sort_by_key(|&i| rel.header()[i].name());
    let mut h = DefaultHasher::new();
    for &i in &cols {
        rel.header()[i].hash(&mut h);
    }
    let mut rows = 0u64;
    for t in rel.iter() {
        let mut r = DefaultHasher::new();
        for &i in &cols {
            t.get(i).hash(&mut r);
        }
        rows = rows.wrapping_add(r.finish());
    }
    (rel.len(), rows).hash(&mut h);
    h.finish()
}

/// The statements applied to the engine, replayed on a keyed image of
/// each relation (primary key → tuple) and materialized as a
/// [`DatabaseState`] for comparison.
#[derive(Debug, Clone)]
pub struct Replay {
    schema: RelationalSchema,
    rels: HashMap<String, (Vec<usize>, BTreeMap<Tuple, Tuple>)>,
}

impl Replay {
    /// Starts from `state` of `schema`.
    pub fn new(schema: &RelationalSchema, state: &DatabaseState) -> Result<Replay> {
        let mut rels = HashMap::new();
        for s in schema.schemes() {
            let rel = state.relation_required(s.name())?;
            let key = rel.positions(&s.primary_key())?;
            let rows = rel.iter().map(|t| (t.project(&key), t.clone())).collect();
            rels.insert(s.name().to_owned(), (key, rows));
        }
        Ok(Replay {
            schema: schema.clone(),
            rels,
        })
    }

    /// Replays one committed batch: an insert adds the row unless an
    /// identical one is present, a delete removes the row with the key.
    pub fn apply(&mut self, batch: &[Statement]) -> Check {
        for stmt in batch {
            let rel = stmt.rel();
            let (key_pos, rows) = self
                .rels
                .get_mut(rel)
                .ok_or_else(|| format!("statement on unknown relation {rel}"))?;
            match stmt {
                Statement::Insert { tuple, .. } => {
                    let key = tuple.project(key_pos);
                    match rows.get(&key) {
                        Some(old) if old == tuple => {}
                        Some(old) => {
                            return Err(format!("{rel}: insert {tuple} collides with {old}"))
                        }
                        None => {
                            rows.insert(key, tuple.clone());
                        }
                    }
                }
                Statement::Delete { key, .. } => {
                    rows.remove(key);
                }
                Statement::Update { .. } => return Err("updates are not replayed".to_owned()),
            }
        }
        Ok(())
    }

    /// The replayed state.
    pub fn state(&self) -> Result<DatabaseState> {
        let mut state = DatabaseState::empty_for(&self.schema)?;
        for (name, (_, rows)) in &self.rels {
            for t in rows.values() {
                state.insert(name, t.clone())?;
            }
        }
        Ok(state)
    }
}

/// Checks that two states hold the same relations with the same rows.
pub fn check_state(label: &str, engine: &DatabaseState, oracle: &DatabaseState) -> Check {
    let names: Vec<&str> = oracle.names();
    if engine.names() != names {
        return Err(format!(
            "{label}: relations {:?}, oracle has {names:?}",
            engine.names()
        ));
    }
    for name in names {
        let (e, o) = (relation(engine, name)?, relation(oracle, name)?);
        if !o.set_eq_unordered(e) {
            return Err(format!(
                "{label}: {name} has {} rows, oracle {} rows, sets differ",
                e.len(),
                o.len()
            ));
        }
    }
    Ok(())
}

/// Runs `check` on a planted fault; a pass means the check is blind to
/// the fault and is reported as an error.
pub fn must_fail(control: &str, check: Check) -> Check {
    match check {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "negative control `{control}` passed a planted fault"
        )),
    }
}

/// `rel` without its first row (a planted missing row).
pub fn without_first_row(rel: &Relation) -> Result<Relation> {
    Relation::with_rows(rel.header().to_vec(), rel.iter().skip(1).cloned())
}

/// `rel` with the first row's `attr` replaced by `value` (a planted wrong
/// value).
pub fn with_wrong_value(rel: &Relation, attr: &str, value: Value) -> Result<Relation> {
    let pos = rel.positions(&[attr])?[0];
    let mut rows: Vec<Tuple> = rel.iter().cloned().collect();
    if let Some(first) = rows.first_mut() {
        *first = first.with(pos, value);
    }
    Relation::with_rows(rel.header().to_vec(), rows)
}

/// `state` with relation `name` replaced by `f` of it.
pub fn planted(
    state: &DatabaseState,
    name: &str,
    f: impl FnOnce(&Relation) -> Result<Relation>,
) -> Result<DatabaseState> {
    let mut out = state.clone();
    let r = f(state.relation_required(name)?)?;
    out.set_relation(name, r);
    Ok(out)
}

/// The full course listing by algebra: COURSE ⟗ OFFER ⟗ TEACH ⟗ ASSIST.
pub fn listing(state: &DatabaseState) -> Result<Relation> {
    let r = algebra::outer_equi_join(
        state.relation_required("COURSE")?,
        state.relation_required("OFFER")?,
        &[("C.NR", "O.C.NR")],
    )?;
    let r = algebra::outer_equi_join(
        &r,
        state.relation_required("TEACH")?,
        &[("O.C.NR", "T.C.NR")],
    )?;
    algebra::outer_equi_join(
        &r,
        state.relation_required("ASSIST")?,
        &[("O.C.NR", "A.C.NR")],
    )
}

/// ASSIST ⋈ TEACH on `(course, person)` by algebra.
pub fn composite(state: &DatabaseState) -> Result<Relation> {
    algebra::equi_join(
        state.relation_required("ASSIST")?,
        state.relation_required("TEACH")?,
        &[("A.C.NR", "T.C.NR"), ("A.S.SSN", "T.F.SSN")],
    )
}

/// σ(T.F.SSN = ssn)(COURSE ⋈ TEACH ⋈ ASSIST) by algebra.
pub fn pushdown(state: &DatabaseState, ssn: i64) -> Result<Relation> {
    let r = algebra::equi_join(
        state.relation_required("COURSE")?,
        state.relation_required("TEACH")?,
        &[("C.NR", "T.C.NR")],
    )?;
    let r = algebra::equi_join(
        &r,
        state.relation_required("ASSIST")?,
        &[("T.C.NR", "A.C.NR"), ("T.F.SSN", "A.S.SSN")],
    )?;
    algebra::select_eq(&r, &["T.F.SSN"], &Tuple::new([Value::Int(ssn)]))
}
