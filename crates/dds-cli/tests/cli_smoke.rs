//! Smoke tests for the `dds` command surface: the in-process `real_main`
//! entry point, the compiled binary itself, and version coherence across
//! the workspace.

use std::process::Command;

fn run_bin(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dds"))
        .args(args)
        .output()
        .expect("spawn dds binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[test]
fn version_matches_workspace_version() {
    // Every workspace crate inherits [workspace.package] version, so the
    // CLI, the facade crate, and the manifest must agree.
    assert_eq!(dds_cli::VERSION, env!("CARGO_PKG_VERSION"));
    assert_eq!(dds_cli::VERSION, dynamic_subgraphs::VERSION);
}

#[test]
fn real_main_handles_help_and_list() {
    assert!(dds_cli::real_main(argv(&["--help"])).is_ok());
    assert!(dds_cli::real_main(argv(&["list"])).is_ok());
    assert!(dds_cli::real_main(argv(&["--version"])).is_ok());
}

#[test]
fn real_main_rejects_bad_input() {
    assert!(dds_cli::real_main(argv(&[])).is_err());
    assert!(dds_cli::real_main(argv(&["frobnicate"])).is_err());
    assert!(dds_cli::real_main(argv(&["simulate", "--workload", "nope"])).is_err());
    assert!(dds_cli::real_main(argv(&["simulate", "--protocol", "nope"])).is_err());
}

#[test]
fn binary_help_prints_usage_and_version() {
    let (ok, stdout, _) = run_bin(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"), "help output: {stdout}");
    assert!(stdout.contains("dds simulate"), "help output: {stdout}");
    assert!(
        stdout.contains(dds_cli::VERSION),
        "help must print the version: {stdout}"
    );
}

#[test]
fn binary_list_names_every_protocol_and_workload() {
    let (ok, stdout, _) = run_bin(&["list"]);
    assert!(ok);
    assert!(stdout.contains("protocols:"), "list output: {stdout}");
    assert!(stdout.contains("workloads:"), "list output: {stdout}");
    for p in dds_cli::run::protocol_names() {
        assert!(stdout.contains(p), "missing protocol {p}: {stdout}");
    }
    for w in dds_cli::run::workload_names() {
        assert!(stdout.contains(w), "missing workload {w}: {stdout}");
    }
}

#[test]
fn binary_bad_subcommand_exits_nonzero_with_usage() {
    let (ok, _, stderr) = run_bin(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn binary_simulate_json_reports_a_run() {
    let (ok, stdout, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "triangle",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "40",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("\"protocol\""), "json output: {stdout}");
    assert!(stdout.contains("\"amortized\""), "json output: {stdout}");
}

#[test]
fn binary_simulate_stream_matches_materialized_run() {
    let base = [
        "simulate",
        "--protocol",
        "two-hop",
        "--workload",
        "sliding",
        "--n",
        "32",
        "--rounds",
        "50",
        "--seed",
        "9",
        "--json",
    ];
    let (ok_m, out_m, err_m) = run_bin(&base);
    assert!(ok_m, "stderr: {err_m}");
    let mut streamed = base.to_vec();
    streamed.push("--stream");
    let (ok_s, out_s, err_s) = run_bin(&streamed);
    assert!(ok_s, "stderr: {err_s}");
    // Same meters either way; only wall-clock fields may differ.
    for key in [
        "\"changes\"",
        "\"amortized\"",
        "\"bits\"",
        "\"final_edges\"",
    ] {
        let pick = |s: &str| {
            s.lines()
                .find(|l| l.contains(key))
                .map(String::from)
                .unwrap_or_default()
        };
        assert_eq!(pick(&out_m), pick(&out_s), "{key} diverged");
    }
}

#[test]
fn binary_simulate_seeds_sweeps_with_jobs() {
    let (ok, stdout, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "triangle",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "30",
        "--seeds",
        "3",
        "--jobs",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("seed sweep: 3 seeds"), "output: {stdout}");
    assert!(stdout.contains("seed 42"), "output: {stdout}");
    assert!(stdout.contains("seed 44"), "output: {stdout}");
    assert!(stdout.contains("amortized:"), "output: {stdout}");
    // JSON mode emits one summary per seed.
    let (ok, stdout, _) = run_bin(&[
        "simulate",
        "--protocol",
        "triangle",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "30",
        "--seeds",
        "3",
        "--json",
    ]);
    assert!(ok);
    assert_eq!(stdout.matches("\"protocol\"").count(), 3, "{stdout}");
}

#[test]
fn binary_query_answers_specs_after_settling() {
    let (ok, stdout, stderr) = run_bin(&[
        "query",
        "--protocol",
        "triangle",
        "--workload",
        "planted-clique",
        "--n",
        "24",
        "--rounds",
        "80",
        "--seed",
        "7",
        "--k",
        "3",
        "--settle",
        "64",
        "--query",
        "list-triangles@0; edge:0-1; clique:0,1,2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("protocol:  triangle"), "{stdout}");
    assert!(stdout.contains("queries: edge, triangle"), "{stdout}");
    assert!(stdout.contains("settled:"), "{stdout}");
    assert!(stdout.contains("triangle(s):"), "{stdout}");
    assert!(
        stdout.contains("edge:0-1") && (stdout.contains("-> true") || stdout.contains("-> false")),
        "{stdout}"
    );
}

#[test]
fn binary_query_unsupported_kind_exits_nonzero_naming_capabilities() {
    let (ok, _, stderr) = run_bin(&[
        "query",
        "--protocol",
        "two-hop",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "30",
        "--query",
        "list-triangles",
    ]);
    assert!(!ok, "unsupported query kind must fail");
    assert!(
        stderr.contains("does not support list-triangles"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("supported: [edge]"), "stderr: {stderr}");
}

#[test]
fn binary_query_rejects_malformed_specs() {
    for bad in ["edge:0-0", "frob:1", "edge:0-999", "cycle:0,1"] {
        let (ok, _, stderr) = run_bin(&[
            "query",
            "--protocol",
            "triangle",
            "--workload",
            "er",
            "--n",
            "8",
            "--rounds",
            "5",
            "--query",
            bad,
        ]);
        assert!(!ok, "{bad:?} must be rejected");
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
    }
    assert!(dds_cli::real_main(argv(&["query", "--protocol", "triangle"])).is_err());
}

#[test]
fn binary_query_json_is_parseable_with_the_expected_schema() {
    let (ok, stdout, stderr) = run_bin(&[
        "query",
        "--protocol",
        "three-hop",
        "--workload",
        "planted-cycle",
        "--n",
        "20",
        "--rounds",
        "60",
        "--seed",
        "3",
        "--k",
        "4",
        "--settle",
        "64",
        "--query",
        "cycle:0,1,2,3; list-cycles:4@0; edge:0-1",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("query --json parses");
    assert_eq!(
        v.get("protocol").and_then(|p| p.as_str()),
        Some("three-hop")
    );
    let supported = v
        .get("supported_queries")
        .and_then(|s| s.as_array())
        .expect("supported_queries array");
    assert_eq!(supported.len(), 3, "{stdout}");
    let queries = v
        .get("queries")
        .and_then(|q| q.as_array())
        .expect("queries array");
    assert_eq!(queries.len(), 3, "{stdout}");
    for entry in queries {
        assert!(entry.get("spec").is_some(), "{stdout}");
        assert!(entry.get("node").is_some(), "{stdout}");
        assert!(entry.get("kind").is_some(), "{stdout}");
        let status = entry
            .get("status")
            .and_then(|s| s.as_str())
            .expect("status");
        assert!(
            status == "answer" || status == "inconsistent",
            "bad status {status}: {stdout}"
        );
        if status == "answer" {
            assert!(entry.get("value").is_some(), "{stdout}");
        }
    }
}

#[test]
fn binary_query_at_round_answers_mid_schedule() {
    let (ok, stdout, stderr) = run_bin(&[
        "query",
        "--protocol",
        "two-hop",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--at",
        "30",
        "--settle",
        "64",
        "--query",
        "edge:0-1",
    ]);
    assert!(ok, "stderr: {stderr}");
    // --at runs to the requested round; --settle then appends quiet rounds.
    assert!(stdout.contains("state:     round 3"), "{stdout}");
}

#[test]
fn binary_simulate_engines_agree_and_report_activity() {
    let base = [
        "simulate",
        "--protocol",
        "two-hop",
        "--workload",
        "sliding",
        "--n",
        "48",
        "--rounds",
        "60",
        "--seed",
        "11",
        "--record-stats",
    ];
    let mut sparse = base.to_vec();
    sparse.extend(["--engine", "sparse"]);
    let (ok_s, out_s, err_s) = run_bin(&sparse);
    assert!(ok_s, "stderr: {err_s}");
    // The satellite deliverable: per-round active-node counts are visible.
    assert!(out_s.contains("active nodes/round:"), "{out_s}");
    assert!(out_s.contains("per-round active:"), "{out_s}");
    assert!(out_s.contains("Sparse engine"), "{out_s}");

    let mut dense = base.to_vec();
    dense.extend(["--engine", "dense"]);
    let (ok_d, out_d, err_d) = run_bin(&dense);
    assert!(ok_d, "stderr: {err_d}");
    assert!(out_d.contains("Dense engine"), "{out_d}");

    // Same meters under either engine; only activity and wall-clock lines
    // may differ.
    let pick = |out: &str, key: &str| {
        out.lines()
            .find(|l| l.starts_with(key))
            .map(String::from)
            .unwrap_or_default()
    };
    for key in [
        "topology changes:",
        "inconsistent rounds:",
        "amortized:",
        "footnote amortized:",
        "messages / bits:",
    ] {
        assert_eq!(pick(&out_s, key), pick(&out_d, key), "{key} diverged");
    }

    let (ok, _, stderr) = run_bin(&["simulate", "--engine", "frob", "--n", "8", "--rounds", "3"]);
    assert!(!ok);
    assert!(
        stderr.contains("expected \"dense\" or \"sparse\""),
        "{stderr}"
    );
}

#[test]
fn binary_simulate_samples_queries_mid_run() {
    let (ok, _, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "two-hop",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "50",
        "--seed",
        "3",
        "--sample-queries",
        "5",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("query samples:"), "stderr: {stderr}");
    assert!(stderr.contains("answered"), "stderr: {stderr}");
}

#[test]
fn binary_list_shows_per_protocol_query_capabilities() {
    let (ok, stdout, _) = run_bin(&["list"]);
    assert!(ok);
    assert!(stdout.contains("queries: edge"), "{stdout}");
    assert!(
        stdout.contains("queries: edge, triangle, clique, list-triangles, list-cliques"),
        "{stdout}"
    );
    assert!(
        stdout.contains("queries: edge, cycle, list-cycles"),
        "{stdout}"
    );
    assert!(stdout.contains("queries: edge, path3"), "{stdout}");
}

#[test]
fn trace_generate_validate_info_round_trip() {
    let dir = std::env::temp_dir().join(format!("dds-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_s = path.to_str().unwrap();

    assert!(dds_cli::real_main(argv(&[
        "trace",
        "generate",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "30",
        "--seed",
        "7",
        "--out",
        path_s,
    ]))
    .is_ok());
    assert!(dds_cli::real_main(argv(&["trace", "validate", path_s])).is_ok());
    assert!(dds_cli::real_main(argv(&["trace", "info", path_s])).is_ok());

    let trace = dds_net::Trace::load(path_s).expect("saved trace loads");
    assert_eq!(trace.n, 24);
    assert_eq!(trace.rounds(), 30);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounds_prints_lower_bound_curves() {
    assert!(dds_cli::real_main(argv(&["bounds", "--n", "512"])).is_ok());
    let (ok, stdout, _) = run_bin(&["bounds", "--n", "512"]);
    assert!(ok);
    assert!(stdout.contains("Theorem 2"), "bounds output: {stdout}");
    assert!(stdout.contains("Theorem 4"), "bounds output: {stdout}");
}

#[test]
fn bench_diff_fails_on_row_drift_and_ignores_timings() {
    let dir = std::env::temp_dir().join(format!("dds-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |seconds: f64, changes: &str, rate: &str| {
        format!(
            r#"{{"version": "0.1.0", "rounds": 300, "total_seconds": {seconds},
                "tables": [{{"id": "e1", "seconds": {seconds},
                            "table": {{"title": "T", "headers": ["n", "changes", "rounds/s"],
                                      "rows": [["64", "{changes}", "{rate}"]], "notes": []}}}}]}}"#
        )
    };
    let old_p = dir.join("old.json");
    let slow_p = dir.join("slow.json");
    let drift_p = dir.join("drift.json");
    std::fs::write(&old_p, report(1.0, "120", "5000")).unwrap();
    // Same deterministic cells, 3x the seconds and a lower rounds/s
    // (volatile): not drift.
    std::fs::write(&slow_p, report(3.0, "120", "1700")).unwrap();
    // A deterministic cell drifted (changes 120 -> 121), timing unchanged.
    std::fs::write(&drift_p, report(1.0, "121", "5000")).unwrap();
    let (old_s, slow_s, drift_s) = (
        old_p.to_str().unwrap(),
        slow_p.to_str().unwrap(),
        drift_p.to_str().unwrap(),
    );

    assert!(dds_cli::real_main(argv(&["bench", "diff", old_s, old_s])).is_ok());
    let (ok, stdout, _) = run_bin(&["bench", "diff", old_s, slow_s]);
    assert!(ok, "a slower run with identical rows exits zero");
    assert_eq!(
        stdout, "table  rows\ne1     identical\n",
        "no timing verdict"
    );
    let err = dds_cli::real_main(argv(&["bench", "diff", old_s, drift_s])).unwrap_err();
    assert!(err.contains("drifted"), "{err}");
    let (ok, stdout, _) = run_bin(&["bench", "diff", old_s, drift_s]);
    assert!(!ok, "row drift exits non-zero");
    assert!(stdout.contains("DRIFTED"), "diff output: {stdout}");
    // Malformed invocations error out.
    assert!(dds_cli::real_main(argv(&["bench", "diff", old_s])).is_err());
    assert!(dds_cli::real_main(argv(&["bench", "nope"])).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// Run a 60-round er/n=24 simulation with checkpoints every 20 rounds
/// into `dir`, returning the path of the round-40 snapshot.
fn make_snapshot(dir: &std::path::Path) -> std::path::PathBuf {
    let cks = dir.join("cks");
    let (ok, _, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "triangle",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--checkpoint-every",
        "20",
        "--checkpoint-dir",
        cks.to_str().unwrap(),
    ]);
    assert!(ok, "checkpointed run failed: {stderr}");
    assert!(
        stderr.contains("checkpoints:"),
        "checkpoint count goes to stderr: {stderr}"
    );
    for r in ["000020", "000040", "000060"] {
        assert!(
            cks.join(format!("checkpoint_{r}.json")).exists(),
            "missing checkpoint_{r}.json"
        );
    }
    cks.join("checkpoint_000040.json")
}

/// JSON summary lines with the volatile (machine-measuring) fields
/// dropped, for bit-identity comparison between two runs.
fn stable_summary_lines(json: &str) -> Vec<String> {
    const VOLATILE: [&str; 4] = [
        "\"seconds\"",
        "\"rounds_per_sec\"",
        "\"peak_rss_mb\"",
        "\"pool_workers\"",
    ];
    json.lines()
        .filter(|l| !VOLATILE.iter().any(|f| l.contains(f)))
        .map(str::to_string)
        .collect()
}

#[test]
fn binary_checkpoint_then_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("dds-ckpt-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = make_snapshot(&dir);
    let (ok, full, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "triangle",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--json",
    ]);
    assert!(ok, "full run failed: {stderr}");
    let (ok, resumed, stderr) = run_bin(&[
        "simulate",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--resume",
        snap.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "resumed run failed: {stderr}");
    assert_eq!(
        stable_summary_lines(&full),
        stable_summary_lines(&resumed),
        "resume diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_query_resumes_from_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("dds-ckpt-query-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = make_snapshot(&dir);
    let snap = snap.to_str().unwrap();
    let base = [
        "query",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--resume",
        snap,
        "--query",
        "edge:0-1",
    ];
    let mut at60 = base.to_vec();
    at60.extend(["--at", "60"]);
    let (ok, stdout, stderr) = run_bin(&at60);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("state:     round 60"), "{stdout}");
    // Rewinding is not a thing a forward-only stream can do.
    let mut at10 = base.to_vec();
    at10.extend(["--at", "10"]);
    let (ok, _, stderr) = run_bin(&at10);
    assert!(!ok, "resume backwards must fail");
    assert!(
        stderr.contains("before the resumed snapshot's round"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshots_yield_typed_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("dds-ckpt-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = make_snapshot(&dir);
    let good = std::fs::read_to_string(&snap).unwrap();
    let resume = |path: &std::path::Path| {
        run_bin(&[
            "simulate",
            "--workload",
            "er",
            "--n",
            "24",
            "--rounds",
            "60",
            "--seed",
            "5",
            "--resume",
            path.to_str().unwrap(),
        ])
    };

    // Truncated mid-file: a parse error, named as such.
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
    let (ok, _, stderr) = resume(&truncated);
    assert!(!ok, "truncated snapshot must fail");
    assert!(
        stderr.contains("snapshot parse error (truncated or not JSON)"),
        "stderr: {stderr}"
    );

    // Body bit-flip without re-stamping the header: checksum mismatch.
    assert!(good.contains("\"consistent\":true"), "fixture sanity");
    let tampered = dir.join("tampered.json");
    std::fs::write(
        &tampered,
        good.replacen("\"consistent\":true", "\"consistent\":false", 1),
    )
    .unwrap();
    let (ok, _, stderr) = resume(&tampered);
    assert!(!ok, "tampered snapshot must fail");
    assert!(
        stderr.contains("snapshot checksum mismatch"),
        "stderr: {stderr}"
    );

    // A snapshot from a newer format version: refused up front.
    let future = dir.join("future.json");
    std::fs::write(&future, good.replacen("\"version\":1", "\"version\":99", 1)).unwrap();
    let (ok, _, stderr) = resume(&future);
    assert!(!ok, "future-version snapshot must fail");
    assert!(stderr.contains("is from the future"), "stderr: {stderr}");

    // Explicit --protocol that contradicts the header: mismatch, not a
    // silent override in either direction.
    let (ok, _, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "flood",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--resume",
        snap.to_str().unwrap(),
    ]);
    assert!(!ok, "protocol mismatch must fail");
    assert!(
        stderr.contains("snapshot protocol mismatch"),
        "stderr: {stderr}"
    );

    // A missing file is an io error, not a panic.
    let (ok, _, stderr) = resume(&dir.join("nope.json"));
    assert!(!ok);
    assert!(stderr.contains("snapshot io error"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_diff_reports_missing_tables_as_drift() {
    let dir = std::env::temp_dir().join(format!("dds-bench-missing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = |id: &str| {
        format!(
            r#"{{"id": "{id}", "seconds": 1.0,
                "table": {{"title": "T", "headers": ["n", "changes"],
                          "rows": [["64", "120"]], "notes": []}}}}"#
        )
    };
    let old = format!(
        r#"{{"version": "0.1.0", "rounds": 300, "total_seconds": 2.0,
            "tables": [{}, {}]}}"#,
        table("e1"),
        table("s2")
    );
    // s2 silently vanished; e1 is unchanged.
    let new = format!(
        r#"{{"version": "0.1.0", "rounds": 300, "total_seconds": 1.0,
            "tables": [{}]}}"#,
        table("e1")
    );
    let old_p = dir.join("old.json");
    let new_p = dir.join("new.json");
    std::fs::write(&old_p, &old).unwrap();
    std::fs::write(&new_p, &new).unwrap();
    let (old_s, new_s) = (old_p.to_str().unwrap(), new_p.to_str().unwrap());

    let err = dds_cli::real_main(argv(&["bench", "diff", old_s, new_s])).unwrap_err();
    assert!(err.contains("MISSING"), "{err}");
    assert!(err.contains("s2"), "{err}");
    let (ok, _, stderr) = run_bin(&["bench", "diff", old_s, new_s]);
    assert!(!ok, "a missing table exits non-zero");
    assert!(stderr.contains("MISSING"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_flags_reject_incompatible_modes() {
    for extra in [["--seeds", "3"], ["--sample-queries", "5"]] {
        let mut args = vec![
            "simulate",
            "--workload",
            "er",
            "--n",
            "16",
            "--rounds",
            "10",
            "--checkpoint-every",
            "5",
        ];
        args.extend(extra);
        assert!(
            dds_cli::real_main(argv(&args)).is_err(),
            "--checkpoint-every with {extra:?} must be rejected"
        );
    }
}

#[test]
fn simulate_pooled_shards_match_one_shard() {
    let run = |shards: &[&str]| {
        let mut args = vec![
            "simulate",
            "--protocol",
            "two-hop",
            "--workload",
            "hotspot",
            "--n",
            "400",
            "--rounds",
            "80",
            "--json",
        ];
        args.extend(shards);
        let (ok, out, _) = run_bin(&args);
        assert!(ok, "{shards:?} run failed");
        out
    };
    let pooled = run(&["--shards", "4"]);
    let single = run(&["--shards", "1"]);
    // Same run, same outputs: every deterministic *output* field agrees.
    // (Wall-clock fields differ by nature; `shards` and
    // per_shard_peak_active differ by design.)
    let keep = |s: &str| -> Vec<String> {
        const FIELDS: [&str; 8] = [
            "\"changes\"",
            "\"inconsistent_rounds\"",
            "\"amortized\"",
            "\"footnote_amortized\"",
            "\"messages\"",
            "\"bits\"",
            "\"violations\"",
            "\"final_edges\"",
        ];
        s.lines()
            .filter(|l| FIELDS.iter().any(|f| l.contains(f)))
            .map(str::to_string)
            .collect()
    };
    let kept = keep(&pooled);
    assert_eq!(kept.len(), 8, "all expected fields present: {kept:?}");
    assert_eq!(kept, keep(&single));
}

// ---------------------------------------------------------------------------
// Serving: `dds serve` + `dds loadgen` end to end over a real socket.
// ---------------------------------------------------------------------------

/// Spawn `dds serve` with piped stdout and scrape the announced address
/// (ephemeral `:0` listen), returning the child + the address.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    let (child, addr, _boot) = spawn_serve_boot(extra);
    (child, addr)
}

/// Like [`spawn_serve`], but also return the boot banner — every stdout
/// line printed *before* the listening announcement (recovery and chaos
/// banners live there).
fn spawn_serve_boot(extra: &[&str]) -> (std::process::Child, String, String) {
    use std::io::BufRead;
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dds"));
    cmd.arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("spawn dds serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    let mut seen = String::new();
    for _ in 0..16 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stdout") == 0 {
            break;
        }
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("dds serve: listening on ") {
            addr = Some(rest.to_string());
            break;
        }
    }
    // Hand the reader back so the caller can drain the shutdown banner.
    child.stdout = Some(reader.into_inner());
    let addr = addr.unwrap_or_else(|| panic!("no listening line from dds serve; saw: {seen}"));
    (child, addr, seen)
}

/// SIGTERM the daemon and wait for a graceful exit, returning its stdout
/// tail (the shutdown banner).
fn terminate_serve(mut child: std::process::Child) -> String {
    use std::io::Read;
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed");
    let status = child.wait().expect("wait for dds serve");
    assert!(status.success(), "serve must exit 0 on SIGTERM: {status:?}");
    let mut tail = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut tail).expect("drain serve stdout");
    }
    tail
}

#[test]
fn binary_serve_answers_loadgen_and_shuts_down_on_sigterm() {
    let (child, addr) = spawn_serve(&["--protocol", "two-hop", "--n", "24", "--session", "main"]);
    let (ok, stdout, stderr) = run_bin(&[
        "loadgen",
        "--addr",
        &addr,
        "--session",
        "main",
        "--clients",
        "2",
        "--queries",
        "40",
        "--churn-rounds",
        "20",
        "--workload",
        "er",
        "--n",
        "24",
        "--rounds",
        "20",
    ]);
    assert!(ok, "loadgen failed: {stderr}");
    assert!(stdout.contains("0 error(s)"), "loadgen output: {stdout}");
    assert!(
        stdout.contains("under 20 round(s) of concurrent churn"),
        "churn must have run: {stdout}"
    );
    let tail = terminate_serve(child);
    assert!(
        tail.contains("shut down cleanly"),
        "shutdown banner: {tail}"
    );
}

#[test]
fn binary_serve_warm_starts_from_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("dds-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = make_snapshot(&dir);
    let (child, addr) = spawn_serve(&["--resume", snap.to_str().unwrap()]);
    // The boot banner (printed before the listening line) names the
    // snapshot position.
    let (ok, stdout, stderr) = run_bin(&[
        "loadgen",
        "--addr",
        &addr,
        "--session",
        "main",
        "--clients",
        "2",
        "--queries",
        "25",
        "--json",
    ]);
    assert!(ok, "loadgen against warm daemon failed: {stderr}");
    assert!(stdout.contains("\"errors\": 0"), "loadgen json: {stdout}");
    assert!(stdout.contains("\"queries\": 50"), "loadgen json: {stdout}");
    let tail = terminate_serve(child);
    assert!(tail.contains("shut down cleanly"), "banner: {tail}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_without_daemon_fails_with_runtime_error_not_usage() {
    // Port 1 is never listening; the failure is a runtime diagnostic
    // (exit 1, no usage dump), not an invocation error.
    let out = Command::new(env!("CARGO_BIN_EXE_dds"))
        .args(["loadgen", "--addr", "127.0.0.1:1", "--session", "main"])
        .output()
        .expect("spawn dds");
    assert_eq!(out.status.code(), Some(1), "runtime failures exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "no usage dump: {stderr}");
}

#[test]
fn bench_diff_malformed_report_is_a_clean_typed_error() {
    let dir = std::env::temp_dir().join(format!("dds-bench-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.json");
    std::fs::write(
        &good,
        r#"{"version": "0.1.0", "rounds": 300, "total_seconds": 1.0,
            "tables": [{"id": "e1", "seconds": 1.0,
                        "table": {"title": "T", "headers": ["n"],
                                  "rows": [["64"]], "notes": []}}]}"#,
    )
    .unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, r#"{"version": "0.1.0", "rounds": 300, "tab"#).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dds"))
        .args([
            "bench",
            "diff",
            good.to_str().unwrap(),
            truncated.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dds");
    assert_eq!(out.status.code(), Some(1), "malformed input exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malformed bench report"),
        "typed diagnostic: {stderr}"
    );
    assert!(
        stderr.contains("truncated.json"),
        "names the offending file: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "no usage dump: {stderr}");
    // A bad invocation still earns the usage text and exit code 2.
    let out = Command::new(env!("CARGO_BIN_EXE_dds"))
        .args(["frobnicate"])
        .output()
        .expect("spawn dds");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Robustness: durable checkpoints, --recover, kill -9, and --chaos.
// ---------------------------------------------------------------------------

#[test]
fn recover_skips_tmp_orphans_and_truncated_snapshots() {
    // `dds simulate --checkpoint-every` now writes atomically (tmp +
    // fsync + rename): the only artifacts a crash can leave behind are a
    // `.tmp` orphan and (from older tools or disk damage) a truncated
    // document. Plant both and prove `--recover` skips them.
    let dir = std::env::temp_dir().join(format!("dds-recover-skip-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, _stdout, stderr) = run_bin(&[
        "simulate",
        "--protocol",
        "two-hop",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "12",
        "--checkpoint-every",
        "4",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "simulate failed: {stderr}");

    // Damage the tail: truncate the newest snapshot mid-document and
    // plant a .tmp orphan as an interrupted atomic write would.
    let newest = dir.join("checkpoint_000012.json");
    let bytes = std::fs::read(&newest).expect("read newest checkpoint");
    assert!(!bytes.is_empty());
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("checkpoint_000016.tmp"), b"{ torn mid-wri").unwrap();

    let (mut child, _addr, boot) =
        spawn_serve_boot(&["--recover", dir.to_str().unwrap(), "--session", "flat"]);
    assert!(
        boot.contains("recovered session \"flat\" at round 8"),
        "recovery must walk back past the damaged tail to round 8: {boot}"
    );
    // The skipped tails are reported on stderr, named individually.
    let mut skipped = String::new();
    if let Some(mut err) = child.stderr.take() {
        use std::io::Read;
        let mut buf = [0u8; 4096];
        // One best-effort read: both skip lines were written before the
        // listening banner we already scraped from stdout.
        if let Ok(n) = err.read(&mut buf) {
            skipped.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    }
    assert!(
        skipped.contains("checkpoint_000012.json"),
        "the truncated tail must be reported: {skipped}"
    );
    let tail = terminate_serve(child);
    assert!(tail.contains("shut down cleanly"), "banner: {tail}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_serve_kill9_then_recover_resumes_the_durable_watermark() {
    let dir = std::env::temp_dir().join(format!("dds-kill9-recover-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (mut child, addr) = spawn_serve(&[
        "--protocol",
        "two-hop",
        "--n",
        "16",
        "--session",
        "main",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    // Every churn write is persisted before it is acked (every=1), so
    // whatever the loadgen saw acknowledged survives the kill.
    let (ok, stdout, stderr) = run_bin(&[
        "loadgen",
        "--addr",
        &addr,
        "--session",
        "main",
        "--clients",
        "2",
        "--queries",
        "20",
        "--churn-rounds",
        "10",
        "--workload",
        "er",
        "--n",
        "16",
        "--rounds",
        "10",
        "--tolerate-faults",
        "--json",
    ]);
    assert!(ok, "loadgen failed: {stderr}");
    assert!(stdout.contains("\"churn_rounds\": 10"), "json: {stdout}");

    // kill -9: no destructors, no flushes — the durability contract's
    // whole reason to exist.
    child.kill().expect("SIGKILL dds serve");
    let status = child.wait().expect("wait killed serve");
    assert!(!status.success(), "SIGKILL is not a graceful exit");

    let (child2, addr2, boot) = spawn_serve_boot(&["--recover", dir.to_str().unwrap()]);
    assert!(
        boot.contains("recovered session \"main\" at round 10"),
        "recovery must resume the last durable watermark: {boot}"
    );
    // The recovered daemon answers immediately, with zero errors.
    let (ok, stdout, stderr) = run_bin(&[
        "loadgen",
        "--addr",
        &addr2,
        "--session",
        "main",
        "--clients",
        "1",
        "--queries",
        "10",
        "--json",
    ]);
    assert!(ok, "loadgen after recovery failed: {stderr}");
    assert!(stdout.contains("\"errors\": 0"), "json: {stdout}");
    assert!(stdout.contains("\"request_errors\": {}"), "json: {stdout}");
    assert!(stdout.contains("\"first_error\": null"), "json: {stdout}");
    let tail = terminate_serve(child2);
    assert!(tail.contains("shut down cleanly"), "banner: {tail}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_chaos_flag_arms_the_plan_and_tolerant_loadgen_absorbs_it() {
    let (child, addr, boot) = spawn_serve_boot(&[
        "--protocol",
        "two-hop",
        "--n",
        "16",
        "--session",
        "main",
        "--chaos",
        "seed=9,drop=0.1,corrupt=0.05",
    ]);
    assert!(
        boot.contains("chaos armed — seed=9,drop=0.1,corrupt=0.05"),
        "chaos banner: {boot}"
    );
    let (ok, stdout, stderr) = run_bin(&[
        "loadgen",
        "--addr",
        &addr,
        "--session",
        "main",
        "--clients",
        "2",
        "--queries",
        "30",
        "--tolerate-faults",
        "--retries",
        "16",
        "--json",
    ]);
    assert!(ok, "tolerant loadgen must absorb the chaos: {stderr}");
    assert!(stdout.contains("\"errors\": 0"), "json: {stdout}");
    // The plan is seeded and deterministic: these rates over 60 responses
    // always fire at least once, and the report must surface the work.
    let retries: u64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"retries\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("retries field in json");
    let reconnects: u64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"reconnects\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("reconnects field in json");
    assert!(
        retries + reconnects > 0,
        "the chaos plan fired nothing — retries {retries}, reconnects {reconnects}: {stdout}"
    );
    let tail = terminate_serve(child);
    assert!(tail.contains("shut down cleanly"), "banner: {tail}");
}

#[test]
fn loadgen_reports_failure_context_per_verb() {
    // No daemon restart, no session: every query fails. The exit must be
    // nonzero *with context* — the per-verb counts and the first failing
    // request's verb + watermark, in both modes.
    let (child, addr) = spawn_serve(&["--protocol", "two-hop", "--n", "8", "--session", "main"]);
    let out = Command::new(env!("CARGO_BIN_EXE_dds"))
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--session",
            "ghost",
            "--clients",
            "1",
            "--queries",
            "3",
        ])
        .output()
        .expect("spawn dds");
    assert_eq!(out.status.code(), Some(1), "failures exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The probe list rejects an unknown session before any request runs.
    assert!(
        stderr.contains("no session named"),
        "typed diagnostic: {stderr}"
    );
    let tail = terminate_serve(child);
    assert!(tail.contains("shut down cleanly"), "banner: {tail}");
}
