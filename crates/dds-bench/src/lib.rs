//! # dds-bench — experiment harness
//!
//! One runner per paper claim (tables E1–E9, figure reproductions F2/F3,
//! ablations A1–A3, scale tiers S1–S6 — see DESIGN.md's per-experiment
//! index). The `experiments` binary prints every table and, with
//! `--json`, records them in a report; `dds bench diff` checks two
//! reports' deterministic cells row by row.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diff;
pub mod driver;
pub mod report;
pub mod runners;
pub mod scheduler;
pub mod sweep;
pub mod table;

pub use diff::{diff_reports, DiffReport};
pub use driver::protocols;
pub use report::{Report, ReportError, TimedTable};
pub use scheduler::{available_jobs, map_ordered, SweepPoint};
pub use sweep::{sweep_jobs, Stats};
pub use table::Table;
