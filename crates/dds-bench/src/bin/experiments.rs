//! Regenerate every experiment table of the reproduction.
//!
//! ```text
//! experiments [e1|e2|e3|e4|e5|e6|e7|e8|e9|f2|a1|a2|a3|s1|s2|s3|s4|s5|s6|all]
//!             [--csv] [--rounds N] [--max-n N] [--jobs N] [--repeat R]
//!             [--json FILE] [--check-schema BASELINE.json]
//! ```
//!
//! With no arguments, runs everything. `--csv` additionally writes each
//! table as CSV to `target/experiments/<id>.csv`; `--json FILE` writes
//! every table plus its wall-clock cost as one JSON report (this is how
//! `BENCH_baseline.json` is produced, giving later performance work a
//! recorded trajectory to beat). `--max-n` caps the size sweeps (reduced
//! configs for CI smoke runs), `--jobs N` fans the independent tables out
//! over N scheduler workers (results are bit-identical for any N — the
//! batch scheduler aggregates in input order), `--repeat R` rebuilds every
//! table R times so the report carries per-table samples with median and
//! MAD (`dds bench diff` uses them as its noise band; the tables
//! themselves are deterministic, so only the timings vary), and
//! `--check-schema` verifies that every produced table id + header row
//! matches the named baseline report, exiting non-zero on drift. `s1` is
//! the streamed scenario tier (n = 100 000 by default, capped by
//! `--max-n`): runs driven from lazy trace sources that the materialized
//! path could not hold in memory. `s2` is the large-n/low-churn tier: the
//! same streamed schedule under the sparse and the dense round engine,
//! recording the activity-proportionality speedup. `s3` is the sharded
//! million-node tier (n = 1 000 000 by default, capped by `--max-n`): the
//! same streamed schedule single-shard sequential vs multi-shard on the
//! worker pool, with every deterministic column asserted bit-identical in
//! the runner and the multi-core speedup recorded. `s4` is the
//! skewed-activity tier (hotspot/hub workloads, n = 100 000–1 000 000
//! capped by `--max-n`, ≥ 60 % of the activity in one id decile): balanced
//! weighted shard boundaries plus the work-stealing pool vs single-shard
//! sequential, bit-identity asserted in the runner, speedup recorded.
//! `s5` is the serving tier: a live `dds serve` daemon on an
//! ephemeral port answering concurrent client queries while a writer
//! connection ingests churn, with sustained QPS and latency percentiles
//! recorded and post-burst serve-vs-local checkpoint byte-identity
//! asserted in the runner. `s6` is the resilience tier: the serving tier
//! rerun under a seeded drop/torn/corrupt fault plan absorbed by the
//! tolerant client, byte-identity still asserted, plus a recovery drill
//! timing warm `--recover` start against full re-simulation with the
//! `recovery < max(resim/10, 100ms)` gate asserted in the runner.

use dds_bench::runners;
use dds_bench::Table;
use dds_bench::{Report, TimedTable};
use std::time::Instant;

/// Value of a `--flag FILE` option, exiting when the value is missing.
fn file_option(args: &[String], flag: &str) -> Option<String> {
    match args.iter().position(|a| a == flag) {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("error: {flag} needs a FILE");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let json_path = file_option(&args, "--json");
    let schema_baseline = file_option(&args, "--check-schema");
    let rounds = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(300);
    let max_n = match args.iter().position(|a| a == "--max-n") {
        None => usize::MAX,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("error: --max-n needs a numeric size");
                std::process::exit(2);
            }
        },
    };
    let jobs = match args.iter().position(|a| a == "--jobs") {
        None => 1,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --jobs needs a worker count >= 1");
                std::process::exit(2);
            }
        },
    };
    let repeat = match args.iter().position(|a| a == "--repeat") {
        None => 1,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(r) if r >= 1 => r,
            _ => {
                eprintln!("error: --repeat needs a sample count >= 1");
                std::process::exit(2);
            }
        },
    };
    let skip_values: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            *a == "--rounds"
                || *a == "--json"
                || *a == "--max-n"
                || *a == "--jobs"
                || *a == "--repeat"
                || *a == "--check-schema"
        })
        .map(|(i, _)| i + 1)
        .collect();
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !skip_values.contains(i))
        .filter(|(_, a)| a.parse::<usize>().is_err())
        .map(|(_, s)| s.as_str())
        .collect();
    let all = wanted.is_empty() || wanted.contains(&"all");
    let want = |id: &str| all || wanted.contains(&id);

    type Job = (&'static str, Box<dyn Fn() -> Table + Send + Sync>);
    let mut planned: Vec<Job> = Vec::new();
    let t0 = Instant::now();
    let mut run = |id: &'static str, build: Box<dyn Fn() -> Table + Send + Sync>| {
        planned.push((id, build));
    };
    let sweep_ns: Vec<usize> = runners::SWEEP_NS
        .iter()
        .copied()
        .filter(|&n| n <= max_n)
        .collect();
    let seed_sweep_ns: Vec<usize> = [64usize, 256]
        .iter()
        .copied()
        .filter(|&n| n <= max_n)
        .collect();
    if sweep_ns.is_empty() || seed_sweep_ns.is_empty() {
        eprintln!("error: --max-n {max_n} leaves no sweep sizes");
        std::process::exit(2);
    }
    if want("e1") {
        let ns = sweep_ns.clone();
        run(
            "e1",
            Box::new(move || runners::e1_two_hop_sizes(&ns, rounds)),
        );
        let ns = seed_sweep_ns.clone();
        run(
            "e1s",
            Box::new(move || {
                dds_bench::sweep::amortized_sweep_table::<dds_robust::TwoHopNode>(
                    "E1s / Theorem 7 — robust 2-hop amortized across seeds (ER churn)",
                    &ns,
                    10,
                    rounds,
                )
            }),
        );
    }
    if want("e2") {
        run("e2", Box::new(move || runners::e2_triangle(rounds)));
    }
    if want("e3") {
        run("e3", Box::new(move || runners::e3_cliques(rounds)));
    }
    if want("e4") {
        run("e4", Box::new(runners::e4_lower_bound_2hop));
    }
    if want("e5") {
        let ns = sweep_ns.clone();
        run(
            "e5",
            Box::new(move || runners::e5_three_hop_sizes(&ns, rounds)),
        );
        let ns = seed_sweep_ns.clone();
        run(
            "e5s",
            Box::new(move || {
                dds_bench::sweep::amortized_sweep_table::<dds_robust::ThreeHopNode>(
                    "E5s / Theorem 6 — robust 3-hop amortized across seeds (ER churn)",
                    &ns,
                    10,
                    rounds,
                )
            }),
        );
    }
    if want("e6") {
        run("e6", Box::new(move || runners::e6_cycles(rounds)));
    }
    if want("e7") {
        run("e7", Box::new(runners::e7_six_cycle_wall));
    }
    if want("e8") {
        run("e8", Box::new(runners::e8_snapshot_scaling));
    }
    if want("e9") {
        run("e9", Box::new(runners::e9_remark1));
    }
    if want("f2") || want("f3") {
        run("f2", Box::new(move || runners::f23_coverage(rounds)));
    }
    if want("a1") {
        run("a1", Box::new(runners::a1_timestamp_ablation));
    }
    if want("a2") {
        run(
            "a2",
            Box::new(move || runners::a2_two_hop_insufficient(rounds)),
        );
    }
    if want("a3") {
        run("a3", Box::new(move || runners::a3_bandwidth(rounds)));
    }
    if want("s1") {
        let s1_n = 100_000.min(max_n.max(2));
        // Inner stage stays sequential whenever the outer table fan-out is
        // parallel — nested pools would oversubscribe the machine and
        // pollute the recorded per-table seconds.
        let s1_jobs = if jobs > 1 { 1 } else { jobs.max(1) };
        run(
            "s1",
            Box::new(move || runners::s1_streamed_tier(s1_n, rounds, s1_jobs)),
        );
    }
    if want("s2") {
        let s2_n = 100_000.min(max_n.max(2));
        run(
            "s2",
            Box::new(move || runners::s2_low_churn_tier(s2_n, rounds)),
        );
    }
    if want("s3") {
        let s3_n = 1_000_000.min(max_n.max(2));
        run(
            "s3",
            Box::new(move || runners::s3_sharded_tier(s3_n, rounds)),
        );
    }
    if want("s4") {
        let s4_n = 1_000_000.min(max_n.max(2));
        run(
            "s4",
            Box::new(move || runners::s4_skewed_tier(s4_n, rounds)),
        );
    }
    if want("s5") {
        let s5_n = 2_000.min(max_n.max(2));
        run(
            "s5",
            Box::new(move || runners::s5_serving_tier(s5_n, rounds)),
        );
    }
    if want("s6") {
        let s6_n = 1_000.min(max_n.max(2));
        run(
            "s6",
            Box::new(move || runners::s6_resilience_tier(s6_n, rounds)),
        );
    }

    // Execute the plan: every table is an independent job; the scheduler
    // returns them in plan order, so the report is identical for any
    // --jobs value. With --repeat R each builder runs R times; the table
    // is deterministic (identical across repeats), only the per-repeat
    // seconds differ and become the sample set behind median/MAD.
    let tables: Vec<TimedTable> = dds_bench::scheduler::map_ordered(
        jobs,
        planned,
        |_, (id, build): (&'static str, Box<dyn Fn() -> Table + Send + Sync>)| {
            let mut samples = Vec::with_capacity(repeat);
            let mut table = None;
            for _ in 0..repeat {
                let t = Instant::now();
                table = Some(build());
                samples.push(t.elapsed().as_secs_f64());
            }
            TimedTable::from_samples(id, samples, table.expect("repeat >= 1"))
        },
    );

    if let Some(baseline) = &schema_baseline {
        check_schema(&tables, baseline);
    }

    for tt in &tables {
        println!("{}", tt.table.render());
        if csv {
            let dir = std::path::Path::new("target/experiments");
            std::fs::create_dir_all(dir).expect("create output dir");
            std::fs::write(dir.join(format!("{}.csv", tt.id)), tt.table.to_csv())
                .expect("write csv");
        }
    }
    if let Some(path) = &json_path {
        let report = Report {
            version: env!("CARGO_PKG_VERSION").to_string(),
            rounds,
            total_seconds: t0.elapsed().as_secs_f64(),
            tables,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, json).expect("write json report");
        eprintln!("[wrote JSON report to {path}]");
        return;
    }
    eprintln!(
        "[{} table(s) in {:.1}s{}]",
        tables.len(),
        t0.elapsed().as_secs_f64(),
        if csv {
            ", CSV in target/experiments/"
        } else {
            ""
        }
    );
}

/// Validate every produced table against a baseline report: each table id
/// must exist in the baseline with an identical header row. Exits non-zero
/// on drift so CI catches accidental schema changes.
fn check_schema(tables: &[TimedTable], baseline_path: &str) {
    let raw = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline: serde_json::Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("error: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let empty = Vec::new();
    let baseline_tables = baseline
        .get("tables")
        .and_then(|t| t.as_array())
        .unwrap_or(&empty);
    let mut failures = 0usize;
    let mut checked = 0usize;
    for tt in tables {
        let Some(base) = baseline_tables
            .iter()
            .find(|b| b.get("id").and_then(|i| i.as_str()) == Some(&tt.id))
        else {
            // A table the baseline predates (e.g. `s1` against
            // BENCH_baseline.json) is growth, not drift: warn and move on
            // so `all --check-schema` keeps working against old baselines.
            eprintln!(
                "schema check: table {:?} not in {baseline_path} (newer than the baseline; skipped)",
                tt.id
            );
            continue;
        };
        checked += 1;
        let got: Vec<&str> = tt.table.headers.iter().map(String::as_str).collect();
        let want: Vec<&str> = base
            .get("table")
            .and_then(|t| t.get("headers"))
            .and_then(|h| h.as_array())
            .unwrap_or(&empty)
            .iter()
            .filter_map(|h| h.as_str())
            .collect();
        if got != want {
            eprintln!(
                "schema check: table {:?} headers drifted\n  baseline: {want:?}\n  produced: {got:?}",
                tt.id
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("schema check FAILED: {failures} table(s) drifted from {baseline_path}");
        std::process::exit(1);
    }
    if checked == 0 {
        eprintln!(
            "schema check FAILED: no produced table id exists in {baseline_path} — \
             renamed or dropped tables would slip through"
        );
        std::process::exit(1);
    }
    eprintln!("[schema check OK: {checked} table(s) match {baseline_path}]");
}
