//! Regenerate every experiment table of the reproduction.
//!
//! ```text
//! experiments [ID ...] [--csv] [--json FILE] [--rounds N] [--max-n N] [--jobs N]
//! ```
//!
//! Each ID selects one table: `e1 e1s e2 e3 e4 e5 e5s e6 e7 e8 e9 f2 a1
//! a2 a3 s1 s2 s3 s4 s5 s6`. `e1` and `e5` also select their seed sweeps
//! `e1s` and `e5s`, `f3` selects `f2` (one table covers both figures),
//! and `all` or no ID runs everything. An unknown ID or option, or a
//! missing, non-numeric or zero value, exits 2 with one line naming the
//! known IDs. `--csv` additionally writes each table as CSV to
//! `target/experiments/<id>.csv`; `--json FILE` writes every table plus
//! its wall-clock cost as one JSON report (the committed `BENCH_*.json`
//! files; `dds bench diff` compares two of them row by row). `--max-n`
//! caps the size sweeps (reduced configs for CI smoke runs), `--jobs N`
//! fans the independent tables out over N scheduler workers (results are
//! bit-identical for any N — the batch scheduler aggregates in input
//! order). `s1` is the streamed scenario tier (n = 100 000 by default,
//! capped by `--max-n`): runs driven from lazy trace sources that the
//! materialized path could not hold in memory. `s2` is the large-n/low-churn tier: the
//! same streamed schedule under the sparse and the dense round engine,
//! recording the activity-proportionality speedup. `s3` is the sharded
//! million-node tier (n = 1 000 000 by default, capped by `--max-n`): the
//! same streamed schedule single-shard sequential vs multi-shard on the
//! worker pool, with every deterministic column asserted bit-identical in
//! the runner and the multi-core speedup recorded. `s4` is the
//! skewed-activity tier (hotspot/hub workloads, n = 100 000–1 000 000
//! capped by `--max-n`, ≥ 60 % of the activity in one id decile): balanced
//! weighted shard boundaries on the worker pool vs single-shard
//! sequential, bit-identity asserted in the runner, speedup recorded.
//! `s5` is the serving tier: a live `dds serve` daemon on an
//! ephemeral port answering concurrent client queries while a writer
//! connection ingests churn, with sustained QPS and latency percentiles
//! recorded and post-burst serve-vs-local checkpoint byte-identity
//! asserted in the runner. `s6` is the resilience tier: the serving tier
//! rerun under a seeded drop/torn/corrupt fault plan absorbed by the
//! tolerant client, byte-identity still asserted, plus a recovery drill
//! timing a warm `--recover` start, asserted in the runner to finish
//! under 100 ms; full re-simulation is recorded for comparison.

use dds_bench::runners;
use dds_bench::Table;
use dds_bench::{Report, TimedTable};
use std::time::Instant;

/// Every table the report can hold, in plan order.
const IDS: [&str; 21] = [
    "e1", "e1s", "e2", "e3", "e4", "e5", "e5s", "e6", "e7", "e8", "e9", "f2", "a1", "a2", "a3",
    "s1", "s2", "s3", "s4", "s5", "s6",
];

/// Command-line words that select more than their own id.
const GROUPS: [(&str, &str); 3] = [("e1", "e1s"), ("e5", "e5s"), ("f3", "f2")];

/// Exit 2 with one line naming the problem, the usage and the known ids.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "error: {problem}; usage: experiments [ID ...] [--csv] [--json FILE] [--rounds N] \
         [--max-n N] [--jobs N]; IDs: {} f3 all",
        IDS.join(" ")
    );
    std::process::exit(2);
}

/// The value of a numeric `flag`, which must be at least 1.
fn count(flag: &str, value: Option<String>) -> usize {
    match value.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => usage_error(&format!("{flag} needs a number >= 1")),
    }
}

type Build = Box<dyn Fn() -> Table + Send + Sync>;

fn main() {
    let mut csv = false;
    let mut json_path = None;
    let mut rounds = 300;
    let mut max_n = usize::MAX;
    let mut jobs = 1;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--json" => match args.next() {
                Some(f) if !f.starts_with("--") => json_path = Some(f),
                _ => usage_error("--json needs a FILE"),
            },
            "--rounds" => rounds = count("--rounds", args.next()),
            "--max-n" => max_n = count("--max-n", args.next()),
            "--jobs" => jobs = count("--jobs", args.next()),
            a if a.starts_with("--") => usage_error(&format!("unknown option {a}")),
            id if IDS.contains(&id) || id == "f3" || id == "all" => wanted.push(arg),
            id => usage_error(&format!("unknown table id {id:?}")),
        }
    }
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let want = |id: &str| {
        all || wanted
            .iter()
            .any(|w| w == id || GROUPS.contains(&(w.as_str(), id)))
    };

    let t0 = Instant::now();
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
    let build = |id: &str| -> Build {
        let ns = sweep_ns.clone();
        let seed_ns = seed_sweep_ns.clone();
        match id {
            "e1" => Box::new(move || runners::e1_two_hop_sizes(&ns, rounds)),
            "e1s" => Box::new(move || {
                dds_bench::sweep::amortized_sweep_table::<dds_robust::TwoHopNode>(
                    "E1s / Theorem 7 — robust 2-hop amortized across seeds (ER churn)",
                    &seed_ns,
                    10,
                    rounds,
                )
            }),
            "e2" => Box::new(move || runners::e2_triangle(rounds)),
            "e3" => Box::new(move || runners::e3_cliques(rounds)),
            "e4" => Box::new(runners::e4_lower_bound_2hop),
            "e5" => Box::new(move || runners::e5_three_hop_sizes(&ns, rounds)),
            "e5s" => Box::new(move || {
                dds_bench::sweep::amortized_sweep_table::<dds_robust::ThreeHopNode>(
                    "E5s / Theorem 6 — robust 3-hop amortized across seeds (ER churn)",
                    &seed_ns,
                    10,
                    rounds,
                )
            }),
            "e6" => Box::new(move || runners::e6_cycles(rounds)),
            "e7" => Box::new(runners::e7_six_cycle_wall),
            "e8" => Box::new(runners::e8_snapshot_scaling),
            "e9" => Box::new(runners::e9_remark1),
            "f2" => Box::new(move || runners::f23_coverage(rounds)),
            "a1" => Box::new(runners::a1_timestamp_ablation),
            "a2" => Box::new(move || runners::a2_two_hop_insufficient(rounds)),
            "a3" => Box::new(move || runners::a3_bandwidth(rounds)),
            // The inner stage stays sequential: nested fan-out would
            // oversubscribe the machine under --jobs and pollute the
            // recorded per-table seconds.
            "s1" => Box::new(move || runners::s1_streamed_tier(100_000.min(max_n), rounds, 1)),
            "s2" => Box::new(move || runners::s2_low_churn_tier(100_000.min(max_n), rounds)),
            "s3" => Box::new(move || runners::s3_sharded_tier(1_000_000.min(max_n), rounds)),
            "s4" => Box::new(move || runners::s4_skewed_tier(1_000_000.min(max_n), rounds)),
            "s5" => Box::new(move || runners::s5_serving_tier(2_000.min(max_n), rounds)),
            "s6" => Box::new(move || runners::s6_resilience_tier(1_000.min(max_n), rounds)),
            other => unreachable!("{other} is not in IDS"),
        }
    };
    let planned: Vec<(&'static str, Build)> = IDS
        .iter()
        .filter(|id| want(id))
        .map(|&id| (id, build(id)))
        .collect();

    // Execute the plan: every table is an independent job; the scheduler
    // returns them in plan order, so the report is identical for any
    // --jobs value.
    let tables: Vec<TimedTable> =
        dds_bench::scheduler::map_ordered(jobs, planned, |_, (id, build): (&str, Build)| {
            let t = Instant::now();
            let table = build();
            TimedTable {
                id: id.to_string(),
                seconds: t.elapsed().as_secs_f64(),
                table,
            }
        });

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
