//! Golden-trace regression lockdown: every registry workload must keep
//! reproducing the committed JSON fixture byte-for-byte.
//!
//! The streaming port (and any future generator refactor) must not change
//! a single emitted event: the whole benchmark history (`BENCH_*.json`)
//! and the paper tables are only comparable across PRs because the
//! workloads are frozen functions of their parameters. These fixtures
//! catch silent drift — RNG call-order changes, ledger iteration-order
//! changes, accidental parameter default edits — at the byte level.
//!
//! Regenerate (after an *intentional* change, with a note in CHANGES.md):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```

use dynamic_subgraphs::net::TraceSource;
use dynamic_subgraphs::workloads::{registry, Params};
use std::path::PathBuf;

/// Small fixed parameters per workload: big enough to exercise the
/// generator's phases, small enough to keep fixtures reviewable.
fn golden_params(workload: &str) -> Params {
    let base = Params::new()
        .with("n", 16)
        .with("rounds", 12)
        .with("seed", 7);
    match workload {
        "planted-clique" => base.with("k", 3).with("spacing", 4).with("lifetime", 6),
        "planted-cycle" => base.with("k", 4).with("spacing", 4).with("lifetime", 6),
        "sliding" => base.with("window", 5),
        "thm2" => Params::new().with("n", 12).with("seed", 7),
        "thm4" => Params::new()
            .with("n", 20)
            .with("seed", 7)
            .with("stabilize", 4),
        "remark1" => Params::new()
            .with("rows", 3)
            .with("d", 6)
            .with("stabilize", 5)
            .with("seed", 7),
        _ => base,
    }
}

fn golden_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{workload}.json"))
}

#[test]
fn every_workload_reproduces_its_golden_trace_byte_for_byte() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1");
    let mut missing = Vec::new();
    for spec in registry::workloads() {
        let p = golden_params(spec.name);
        let trace =
            registry::build_trace(spec.name, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(trace.validate().is_ok(), "{}: invalid trace", spec.name);
        let produced = trace.to_json();
        let path = golden_path(spec.name);
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &produced).unwrap();
            continue;
        }
        let Ok(committed) = std::fs::read_to_string(&path) else {
            missing.push(spec.name);
            continue;
        };
        assert_eq!(
            produced,
            committed,
            "{}: generator drifted from committed golden trace {} \
             (if the change is intentional, regenerate with GOLDEN_REGEN=1 \
             and call it out in CHANGES.md)",
            spec.name,
            path.display()
        );
        // The streamed path must reproduce the same bytes too.
        let streamed = spec.source(&p).unwrap().materialize().to_json();
        assert_eq!(
            streamed, committed,
            "{}: streamed batches drifted from the golden trace",
            spec.name
        );
    }
    assert!(
        missing.is_empty(),
        "missing golden fixtures for {missing:?}; generate with GOLDEN_REGEN=1"
    );
}

#[test]
fn golden_fixtures_have_no_strays() {
    // Every file under tests/golden/ must correspond to a registered
    // workload — deleting a workload means deleting its fixture.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let names = registry::names();
    for entry in std::fs::read_dir(&dir).expect("tests/golden exists") {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            // Subdirectories hold other fixture families with their own
            // stray checks (tests/golden/snapshots → checkpoint_restore).
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stem = name.trim_end_matches(".json");
        assert!(
            names.contains(&stem),
            "stray golden fixture {name} (no workload of that name)"
        );
    }
}
