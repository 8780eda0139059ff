//! The `BENCH_*.json` report schema, shared by the `experiments` binary
//! (which writes it) and `dds bench diff` (which reads two of them).
//!
//! Each table carries its id, the wall-clock seconds it took to build,
//! and the table itself. Some recorded reports also carry per-repeat
//! `samples` and statistics derived from them; loading ignores those
//! fields, so every recorded report reads through the same
//! [`TimedTable`].

use crate::table::Table;

/// One experiment's table plus the wall-clock cost of producing it.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TimedTable {
    /// Table id (`e1`, `s3`, …).
    pub id: String,
    /// Wall-clock seconds spent building the table.
    pub seconds: f64,
    /// The table itself.
    pub table: Table,
}

/// Full JSON report written by `experiments --json`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Report {
    /// Workspace version that produced the report.
    pub version: String,
    /// The `--rounds` setting of the run.
    pub rounds: usize,
    /// Whole-suite wall-clock seconds.
    pub total_seconds: f64,
    /// One entry per produced table, in plan order.
    pub tables: Vec<TimedTable>,
}

/// Why a `BENCH_*.json` report could not be loaded — distinguishing "the
/// file is not there / not readable" from "the file is there but is not a
/// report", so callers (`dds bench diff`, CI gates) can print a clean
/// one-line diagnostic instead of a generic failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The file could not be read at all.
    Io {
        /// The path that failed to read.
        path: String,
        /// The OS error text.
        error: String,
    },
    /// The file was read but is not a valid report document (truncated
    /// download, hand-edited JSON, or a non-report file passed by
    /// mistake).
    Malformed {
        /// The path that failed to parse.
        path: String,
        /// What the parser or schema check objected to.
        error: String,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            ReportError::Malformed { path, error } => {
                write!(f, "{path}: malformed bench report: {error}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl Report {
    /// Load a report from a `BENCH_*.json` file (old or new schema).
    pub fn load(path: &str) -> Result<Report, ReportError> {
        let raw = std::fs::read_to_string(path).map_err(|e| ReportError::Io {
            path: path.to_string(),
            error: e.to_string(),
        })?;
        serde_json::from_str(&raw).map_err(|e| ReportError::Malformed {
            path: path.to_string(),
            error: e.to_string(),
        })
    }

    /// The table with the given id, if present.
    pub fn table(&self, id: &str) -> Option<&TimedTable> {
        self.tables.iter().find(|t| t.id == id)
    }
}

/// Median of a sample set (averaging the middle pair for even lengths);
/// 0.0 on empty input.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Median absolute deviation from the median; 0.0 for fewer than two
/// samples (a single measurement carries no spread information).
pub fn mad(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let med = median(samples);
    median(&samples.iter().map(|s| (s - med).abs()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_json() {
        let mut table = Table::new("T", &["a", "b"]);
        table.row(vec!["1".into(), "2".into()]);
        let report = Report {
            version: "0.1.0".into(),
            rounds: 300,
            total_seconds: 1.5,
            tables: vec![TimedTable {
                id: "e1".into(),
                seconds: 0.5,
                table,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tables.len(), 1);
        let t = back.table("e1").unwrap();
        assert_eq!(t.seconds, 0.5);
        assert_eq!(t.table.rows, vec![vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn median_and_mad_match_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[5.0]), 0.0);
        assert_eq!(mad(&[1.0, 1.0, 5.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 4.0]), 1.0);
    }

    #[test]
    fn load_errors_are_typed_and_name_the_path() {
        let missing = Report::load("/nonexistent/BENCH_x.json").unwrap_err();
        assert!(matches!(missing, ReportError::Io { .. }), "{missing:?}");
        assert!(missing.to_string().contains("/nonexistent/BENCH_x.json"));

        let dir = std::env::temp_dir().join("dds_report_error_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        std::fs::write(&path, r#"{"version": "0.1.0", "rounds": 300, "tab"#).unwrap();
        let err = Report::load(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ReportError::Malformed { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("malformed bench report"), "{msg}");
        assert!(msg.contains("truncated.json"), "{msg}");
        std::fs::remove_file(&path).ok();
    }
}
