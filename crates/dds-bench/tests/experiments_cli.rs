//! The `experiments` command line: every table id it reports selects that
//! table, and anything it cannot run is refused with exit code 2.

use dds_bench::Report;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

/// Run `args` with `--json` into a fresh file and return the report's ids.
fn report_ids(name: &str, args: &[&str]) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("dds-{name}-{}.json", std::process::id()));
    let path_s = path.to_str().unwrap();
    let out = experiments(&[args, &["--json", path_s]].concat());
    assert!(out.status.success(), "{args:?}: {out:?}");
    let report = Report::load(path_s).unwrap();
    std::fs::remove_file(&path).ok();
    report.tables.into_iter().map(|t| t.id).collect()
}

#[test]
fn unknown_ids_and_bad_values_exit_2_naming_the_ids() {
    for args in [
        &["s9"][..],
        &["a1", "--rounds", "abc"],
        &["a1", "--rounds"],
        &["a1", "--samples", "3"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("e1s") && stderr.contains("s6"), "{stderr}");
    }
}

#[test]
fn a_reported_id_selects_exactly_its_table() {
    assert_eq!(report_ids("a1", &["a1"]), ["a1"]);
    assert_eq!(
        report_ids("e1s", &["e1s", "--rounds", "10", "--max-n", "64"]),
        ["e1s"]
    );
}
