//! The benchmark at reduced scale (`--smoke`): every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a planted wrong
//! expectation trips the correctness gate, which then publishes nothing.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["ingest", "recover"];

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .expect("string field")
            .to_string()
    };
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run perfbench")
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = benchmark_json();
    for trace in [false, true] {
        let list = if trace { "per_layer" } else { "end_to_end" };
        let want = declared(&spec, list);
        for workload in WORKLOADS {
            let out = run(workload, trace, &[]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(matches!(result.get("attempted"), Some(Value::U64(a)) if *a >= 1));
            assert_eq!(result.get("failed"), Some(&Value::U64(0)));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}");
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, names, "{workload} trace={trace}: metric set");
            for ((name, unit), (_, m)) in want.iter().zip(metrics) {
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    matches!(
                        m.get("value"),
                        Some(Value::F64(_) | Value::U64(_) | Value::I64(_))
                    ),
                    "{workload}: {name} has no numeric value"
                );
                assert!(
                    stdout.contains(&format!("  {name} ")),
                    "{workload}: {name} has no report line"
                );
            }
        }
    }
}

#[test]
fn a_planted_wrong_answer_trips_the_gate() {
    for workload in WORKLOADS {
        let out = run(workload, false, &["--plant-wrong"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{workload}: the planted answer went unnoticed"
        );
        assert!(
            stderr.contains("gate"),
            "{workload}: not a gate failure: {stderr}"
        );
        assert!(
            !stdout.contains("\"correct\""),
            "{workload}: published a result: {stdout}"
        );
    }
}
