//! The query plans the workloads run, by the names the per-layer metrics
//! use.

use relmerge_engine::{JoinStep, Predicate, QueryPlan};
use relmerge_relational::{Tuple, Value};

/// Plan names, in the order per-layer metrics list them.
pub const PLANS: [&str; 6] = [
    "course_detail",
    "by_faculty",
    "listing_unmerged",
    "listing_merged",
    "composite_join",
    "pushdown_chain",
];

/// Course detail on the Figure 3 schema: one course with its offer,
/// teacher and assistant, a 3-join outer chain from a key lookup.
#[must_use]
pub fn course_detail(nr: i64) -> QueryPlan {
    QueryPlan::lookup("COURSE", &["C.NR"], Tuple::new([Value::Int(nr)]))
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
        .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]))
}

/// Reverse lookup: the courses (and offering departments) one faculty
/// member teaches, from TEACH's secondary index up the chain.
#[must_use]
pub fn by_faculty(ssn: i64) -> QueryPlan {
    QueryPlan::lookup("TEACH", &["T.F.SSN"], Tuple::new([Value::Int(ssn)]))
        .join(JoinStep::inner("OFFER", &["T.C.NR"], &["O.C.NR"]))
        .join(JoinStep::inner("COURSE", &["O.C.NR"], &["C.NR"]))
        .select(&["C.NR", "O.D.NAME"])
}

/// The full course listing on the Figure 3 schema: three outer joins.
#[must_use]
pub fn listing_unmerged() -> QueryPlan {
    QueryPlan::scan("COURSE")
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
        .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]))
}

/// The full course listing after the merge: one scan of `COURSE_M`.
#[must_use]
pub fn listing_merged() -> QueryPlan {
    QueryPlan::scan("COURSE_M")
}

/// ASSIST ⋈ TEACH on `(course, person)`. No index covers TEACH's
/// composite columns, so the planner builds a hash table. The answer is
/// empty by construction: faculty and student SSNs are disjoint.
#[must_use]
pub fn composite_join() -> QueryPlan {
    QueryPlan::scan("ASSIST").join(JoinStep::inner(
        "TEACH",
        &["A.C.NR", "A.S.SSN"],
        &["T.C.NR", "T.F.SSN"],
    ))
}

/// The selective chain COURSE ⋈ TEACH ⋈ ASSIST with `T.F.SSN = ssn`,
/// which predicate pushdown evaluates at the TEACH step. Empty by
/// construction, like [`composite_join`].
#[must_use]
pub fn pushdown_chain(ssn: i64) -> QueryPlan {
    QueryPlan::scan("COURSE")
        .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
        .join(JoinStep::inner(
            "ASSIST",
            &["T.C.NR", "T.F.SSN"],
            &["A.C.NR", "A.S.SSN"],
        ))
        .filter(Predicate::eq("T.F.SSN", ssn))
}
