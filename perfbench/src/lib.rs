//! The relmerge benchmark: three workloads run through the public
//! `Store`/`Session` API by one client, measured end to end and, in a
//! separate traced run, layer by layer, with every answer checked
//! against an oracle computed apart from the engine. See `README.md`.

pub mod alloc;
pub mod common;
pub mod ingest;
pub mod merge;
pub mod oltp;
pub mod oracle;
pub mod plans;
pub mod report;
pub mod stats;

pub use common::{Res, RunConfig};
pub use report::Outcome;

/// Runs one workload and reports what it measured and found.
pub type Runner = fn(&RunConfig) -> Res<Outcome>;

/// The workloads by name, each with its runner.
pub const WORKLOADS: [(&str, Runner); 3] = [
    ("oltp_pinned", oltp::run),
    ("ingest_durable", ingest::run),
    ("merge_report", merge::run),
];
