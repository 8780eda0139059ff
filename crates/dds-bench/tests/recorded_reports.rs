//! Every committed `BENCH_*.json` report still loads and diffs clean
//! against itself, whichever schema it was written with.

use dds_bench::{diff_reports, Report};

#[test]
fn every_recorded_report_loads_and_diffs_clean_against_itself() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    // Both shapes are on record: single-sample reports, and reports that
    // also carry per-repeat samples and their statistics.
    let raw: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    assert!(raw.iter().any(|r| !r.contains("\"samples\"")), "{paths:?}");
    assert!(raw.iter().any(|r| r.contains("\"samples\"")), "{paths:?}");
    for path in &paths {
        let report = Report::load(path.to_str().unwrap()).unwrap();
        assert!(!report.tables.is_empty(), "{path:?}");
        let d = diff_reports(&report, &report);
        assert!(!d.has_row_drift() && d.removed.is_empty(), "{path:?}");
    }
}
