//! Row comparison of two `BENCH_*.json` reports — the engine behind
//! `dds bench diff OLD NEW`.
//!
//! For each table id in both reports, the headers and every row must
//! match, except cells in *volatile* columns (wall-clock measures such as
//! `rounds/s`, `speedup`, `peak RSS MB`, recognized by header name). The
//! workspace's tables are deterministic by construction, so any drift is
//! a correctness bug, not noise. A table in OLD but missing from NEW is
//! drift too. Timings are not compared: the paper's claims are round and
//! message counts, and the repository benchmark (`perfbench/`) is the
//! timing gate.

use crate::report::{Report, TimedTable};

/// Is this column wall-clock-dependent (excluded from row identity)?
/// Recognized by header name; everything else in the workspace's tables
/// is deterministic output.
pub fn volatile_column(header: &str) -> bool {
    const VOLATILE: [&str; 11] = [
        "rounds/s",
        "speedup",
        "RSS",
        "wall",
        "seconds",
        "QPS",
        "latency",
        "retries",
        "reconnects",
        "recovery",
        "resim",
    ];
    VOLATILE.iter().any(|m| header.contains(m))
}

/// Comparison result for one table id present in both reports.
#[derive(Clone, Debug)]
pub struct TableDiff {
    /// Table id.
    pub id: String,
    /// Deterministic-cell mismatches (empty = rows identical). Each entry
    /// describes one divergence; capped, with a trailing summary line when
    /// there are more.
    pub row_drift: Vec<String>,
}

/// The full comparison of two reports.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Per-table comparisons, in the new report's order.
    pub tables: Vec<TableDiff>,
    /// Ids only in the new report (growth, not drift).
    pub added: Vec<String>,
    /// Ids only in the old report (dropped tables: a failure, like drift).
    pub removed: Vec<String>,
}

impl DiffReport {
    /// Any deterministic-cell mismatch anywhere?
    pub fn has_row_drift(&self) -> bool {
        self.tables.iter().any(|t| !t.row_drift.is_empty())
    }

    /// Render the comparison as one line per table plus its drift.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<6} rows", "table");
        for t in &self.tables {
            let rows = if t.row_drift.is_empty() {
                "identical"
            } else {
                "DRIFTED"
            };
            let _ = writeln!(out, "{:<6} {rows}", t.id);
            for d in &t.row_drift {
                let _ = writeln!(out, "       drift: {d}");
            }
        }
        for id in &self.added {
            let _ = writeln!(out, "{id:<6} (new table, nothing to compare against)");
        }
        for id in &self.removed {
            let _ = writeln!(out, "{id:<6} (MISSING from the new report)");
        }
        out
    }
}

/// Deterministic-cell mismatches between one table pair, volatile columns
/// excluded. At most `cap` entries, plus a summary line when truncated.
fn row_drift(old: &TimedTable, new: &TimedTable, cap: usize) -> Vec<String> {
    let mut drift = Vec::new();
    if old.table.headers != new.table.headers {
        drift.push(format!(
            "headers changed: {:?} -> {:?}",
            old.table.headers, new.table.headers
        ));
        return drift; // columns no longer line up; cell compare is meaningless
    }
    if old.table.rows.len() != new.table.rows.len() {
        drift.push(format!(
            "row count changed: {} -> {}",
            old.table.rows.len(),
            new.table.rows.len()
        ));
        return drift;
    }
    let volatile: Vec<bool> = new
        .table
        .headers
        .iter()
        .map(|h| volatile_column(h))
        .collect();
    let mut total = 0usize;
    for (r, (o_row, n_row)) in old.table.rows.iter().zip(&new.table.rows).enumerate() {
        for (c, (o, n)) in o_row.iter().zip(n_row).enumerate() {
            if volatile.get(c).copied().unwrap_or(false) || o == n {
                continue;
            }
            total += 1;
            if drift.len() < cap {
                drift.push(format!(
                    "row {r} col {:?}: {o:?} -> {n:?}",
                    new.table.headers.get(c).map(String::as_str).unwrap_or("?")
                ));
            }
        }
    }
    if total > cap {
        drift.push(format!("… {} drifted cell(s) total", total));
    }
    drift
}

/// Compare two reports row by row on deterministic cells.
pub fn diff_reports(old: &Report, new: &Report) -> DiffReport {
    let tables = new
        .tables
        .iter()
        .filter_map(|nt| {
            let ot = old.table(&nt.id)?;
            Some(TableDiff {
                id: nt.id.clone(),
                row_drift: row_drift(ot, nt, 8),
            })
        })
        .collect();
    DiffReport {
        tables,
        added: new
            .tables
            .iter()
            .filter(|t| old.table(&t.id).is_none())
            .map(|t| t.id.clone())
            .collect(),
        removed: old
            .tables
            .iter()
            .filter(|t| new.table(&t.id).is_none())
            .map(|t| t.id.clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn timed(id: &str, seconds: f64, headers: &[&str], rows: &[&[&str]]) -> TimedTable {
        let mut table = Table::new("T", headers);
        for r in rows {
            table.row(r.iter().map(|s| s.to_string()).collect());
        }
        TimedTable {
            id: id.into(),
            seconds,
            table,
        }
    }

    fn report(tables: Vec<TimedTable>) -> Report {
        Report {
            version: "0.1.0".into(),
            rounds: 300,
            total_seconds: tables.iter().map(|t| t.seconds).sum(),
            tables,
        }
    }

    #[test]
    fn volatile_columns_are_recognized() {
        assert!(volatile_column("rounds/s"));
        assert!(volatile_column("speedup vs dense"));
        assert!(volatile_column("peak RSS MB"));
        assert!(volatile_column("QPS"));
        assert!(volatile_column("latency p50 us"));
        assert!(!volatile_column("changes"));
        assert!(!volatile_column("amortized"));
        assert!(!volatile_column("identical"));
        assert!(!volatile_column("churn"));
        assert!(!volatile_column("queries"));
    }

    #[test]
    fn timings_alone_never_drift() {
        let old = report(vec![timed(
            "e1",
            0.5,
            &["n", "amortized"],
            &[&["64", "1.00"]],
        )]);
        let slow = report(vec![timed(
            "e1",
            9.0,
            &["n", "amortized"],
            &[&["64", "1.00"]],
        )]);
        let d = diff_reports(&old, &slow);
        assert!(!d.has_row_drift());
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert_eq!(d.render(), "table  rows\ne1     identical\n");
    }

    #[test]
    fn deterministic_cell_drift_is_caught_but_volatile_is_not() {
        let headers = ["n", "rounds/s", "identical"];
        let old = report(vec![timed(
            "s3",
            1.0,
            &headers,
            &[&["1000", "5000", "yes"]],
        )]);
        // rounds/s moved (fine), `identical` flipped (bug).
        let new = report(vec![timed("s3", 1.0, &headers, &[&["1000", "9999", "no"]])]);
        let d = diff_reports(&old, &new);
        assert!(d.has_row_drift());
        let drift = &d.tables[0].row_drift;
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("identical"), "{drift:?}");
    }

    #[test]
    fn added_and_removed_tables_are_reported() {
        let old = report(vec![timed("e1", 1.0, &["n"], &[&["64"]])]);
        let new = report(vec![timed("s4", 1.0, &["n"], &[&["64"]])]);
        let d = diff_reports(&old, &new);
        assert_eq!(d.added, vec!["s4".to_string()]);
        assert_eq!(d.removed, vec!["e1".to_string()]);
        assert!(d.render().contains("MISSING"));
    }
}
