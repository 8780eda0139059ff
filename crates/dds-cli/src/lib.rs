//! `dds` — the dynamic-subgraphs command-line runner.
//!
//! ```text
//! dds simulate --protocol triangle --workload er --n 128 --rounds 500 [--json]
//! dds query --protocol triangle --workload er --n 32 --rounds 100 \
//!           --settle 64 --query "list-triangles@0; edge:0-1"
//! dds trace generate --workload p2p --n 64 --rounds 300 --out trace.json
//! dds trace info trace.json
//! dds bounds --n 1024
//! dds list
//! ```
//!
//! The library target exposes [`real_main`] so the whole command surface
//! is testable without spawning a process.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod loadgen;
pub mod query;
pub mod run;
pub mod serve;

use args::Args;
use dds_net::{NodeId, Query, Response};
use dds_oracle::DynamicGraph;
use dds_workloads::bounds;
use serde::{Serialize as _, Value};

/// Crate (and workspace) version, for `dds --version` and tooling.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Usage text printed on argument errors and for `--help`.
pub const USAGE: &str = "\
usage:
  dds simulate --protocol <name> --workload <name> [--n N] [--rounds R] [--seed S]
               [--seeds K] [--jobs J] [--record-stats]
               [--engine sparse|dense] [--shards auto|K] [--sample-queries K]
               [--checkpoint-every K] [--checkpoint-dir D] [--resume FILE]
               [--json]
               (every run streams its workload from a lazy trace source: one
                batch in memory at a time; --seeds K runs K seeded replicas on
                J scheduler workers with seed-ordered aggregate statistics;
                --engine picks the round engine — sparse [default] does
                O(churn + traffic) work per round, dense visits all n nodes
                (escape hatch; bit-identical results); --shards partitions each
                round into K node-id-range tasks, run on the worker pool when
                K > 1 (auto [default] scales with activity and the worker
                pool; boundaries follow per-node activity weight;
                results are bit-identical for every K);
                --record-stats also reports per-round active-node counts and
                per-shard peaks; --sample-queries K probes an edge query
                mid-run every K rounds and reports the answered/inconsistent
                split; --checkpoint-every K writes a self-describing snapshot
                checkpoint_RRRRRR.json into --checkpoint-dir D [default:
                checkpoints] every K rounds; --resume FILE restores a
                snapshot and continues the SAME workload bit-identically —
                pass the same workload flags as the original run; on resume
                the snapshot header's engine/shards configuration wins over
                the CLI flags; --sample-queries combines with
                --checkpoint-every and --resume, not with --seeds)
  dds query    --protocol <name> --workload <name> [--n N] [--rounds R] [--seed S]
               [--at ROUND] [--settle MAX] [--engine sparse|dense]
               [--shards auto|K] [--resume FILE]
               --query \"SPEC[; SPEC...]\" [--json]
               (runs the workload to --at (default: all rounds), optionally
                settles, then answers each query spec with zero communication;
                --engine and --shards pick the round engine as for simulate.
                specs: edge:U-W  triangle:A,B,C  clique:V1,V2,..  cycle:V1,V2,..
                path3:C,A,B  list-triangles  list-cliques:K  list-cycles:K —
                each with an optional @NODE routing suffix. `dds list` shows
                which kinds each protocol supports)
  dds trace generate --workload <name> [--n N] [--rounds R] [--seed S] --out FILE
  dds trace info FILE
  dds trace validate FILE
  dds bench diff OLD.json NEW.json
               (compares two experiment reports written by `experiments
                --json`: headers and deterministic table cells must match
                row-for-row [wall-clock columns excluded]; exits non-zero on
                any drift or on a table missing from NEW. Timings are not
                compared)
  dds serve    [--listen ADDR] [--resume SNAPSHOT]
               [--protocol <name> --n N [--engine sparse|dense] [--shards auto|K]]
               [--session NAME] [--checkpoint-dir DIR [--checkpoint-every K]]
               [--recover DIR] [--chaos SPEC] [--max-sessions N]
               [--idle-timeout-secs S]
               (boots the long-lived query-serving daemon on ADDR [default:
                127.0.0.1:7421; use :0 for an ephemeral port — the chosen
                address is printed]; --resume warm-starts session NAME
                [default: main] from a checkpoint snapshot, --protocol/--n
                opens a fresh one, on the round engine --engine and --shards
                pick as for simulate; clients open more via the wire protocol's
                `open` verb. Queries are answered from a published
                settled-round view, so they never block ingest. SIGTERM or
                the `shutdown` verb drains connections and exits 0.
                --checkpoint-dir persists every session atomically under
                DIR/<session>/ after each write verb [every K-th with
                --checkpoint-every], before the write is acknowledged;
                --recover DIR warm-starts every session from its newest
                valid snapshot, skipping corrupt/truncated tails — safe
                after kill -9. --chaos arms a seeded fault plan
                [seed=U,drop=P,torn=P,corrupt=P,delay-ms=N,crash=POINT:K];
                --max-sessions caps the directory [`overloaded` errors
                beyond it], --idle-timeout-secs evicts idle sessions
                [`evicted` errors; a durable one comes back only
                through --recover, as a fresh open refuses a checkpoint
                directory that already holds snapshots])
  dds loadgen  --addr HOST:PORT [--session NAME] [--clients N] [--queries M]
               [--churn-rounds K --workload <name> ... [--skip-rounds R]]
               [--tolerate-faults [--retries R] [--deadline-ms D]
                [--client-seed S]] [--json]
               (drives N client threads of a deterministic mixed query
                workload — M queries each — at a running daemon and reports
                read QPS [queries over the readers' own window] plus latency
                median ± MAD; with --churn-rounds K a dedicated writer
                connection concurrently ingests K workload rounds, so the
                queries race a moving watermark, and the writer's rounds/s
                is reported next to the read QPS;
                --skip-rounds R fast-forwards the generator past the first R
                rounds — required when churning a warm-started session, whose
                topology already absorbed the snapshot's prefix;
                --tolerate-faults arms per-request deadlines and seeded
                retry/backoff with reconnection, reporting retry/reconnect
                counts; failed requests are counted per verb and the first
                failure's verb + watermark are reported [and in --json];
                exits non-zero if any query errored or any request failed)
  dds bounds [--n N]
  dds list";

/// How a command line failed, so `main` can react appropriately: bad
/// invocations earn the USAGE text and exit code 2, runtime failures (a
/// malformed input file, a refused bind, a lost connection) get a clean
/// one-line diagnostic and exit code 1 — no usage dump burying the
/// message that matters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The command line itself is wrong (unparsable, unknown subcommand).
    Usage(String),
    /// The command was well-formed but failed while running.
    Run(String),
}

impl Failure {
    /// The diagnostic text, however the failure is classified.
    pub fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Run(m) => m,
        }
    }
}

/// Dispatch a full command line (without `argv[0]`), classifying failures.
///
/// Everything `main` does apart from process exit, so tests can drive the
/// CLI in-process.
pub fn run_main(argv: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(argv).map_err(Failure::Usage)?;
    if args.flag("help") {
        println!("dds {VERSION}");
        println!("{USAGE}");
        return Ok(());
    }
    if args.flag("version") {
        println!("dds {VERSION}");
        return Ok(());
    }
    check_options(&args).map_err(Failure::Usage)?;
    match args.positional.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args).map_err(Failure::Run),
        Some("query") => cmd_query(&args).map_err(Failure::Run),
        Some("trace") => cmd_trace(&args).map_err(Failure::Run),
        Some("bench") => cmd_bench(&args).map_err(Failure::Run),
        Some("bounds") => cmd_bounds(&args).map_err(Failure::Run),
        Some("serve") => serve::cmd_serve(&args).map_err(Failure::Run),
        Some("loadgen") => loadgen::cmd_loadgen(&args).map_err(Failure::Run),
        Some("list") => cmd_list().map_err(Failure::Run),
        _ => Err(Failure::Usage("missing or unknown subcommand".into())),
    }
}

/// The options each subcommand declares, space-separated, keyed by the
/// words that name it (a longer name before its prefix). A subcommand
/// that declares `workload` also takes that workload's parameters, the
/// keys `dds list` prints. [`USAGE`] shows each option here in its
/// subcommand's block.
pub const SUBCOMMAND_OPTIONS: &[(&str, &str)] = &[
    (
        "simulate",
        "protocol workload seeds jobs record-stats engine shards sample-queries \
         checkpoint-every checkpoint-dir resume json",
    ),
    (
        "query",
        "protocol workload at settle engine shards resume query json",
    ),
    ("trace generate", "workload out"),
    ("trace", ""),
    ("bench", ""),
    ("bounds", "n"),
    (
        "serve",
        "listen resume protocol n session checkpoint-dir checkpoint-every recover chaos \
         max-sessions idle-timeout-secs engine shards",
    ),
    (
        "loadgen",
        "addr session clients queries churn-rounds workload skip-rounds tolerate-faults \
         retries deadline-ms client-seed json",
    ),
    ("list", ""),
];

/// Refuse any option the subcommand does not declare in
/// [`SUBCOMMAND_OPTIONS`], naming it. An unknown subcommand or workload
/// name is left for dispatch to report.
fn check_options(args: &Args) -> Result<(), String> {
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let named = |command: &str| words.starts_with(&command.split(' ').collect::<Vec<_>>());
    let Some(&(command, own)) = SUBCOMMAND_OPTIONS.iter().find(|(c, _)| named(c)) else {
        return Ok(());
    };
    let mut declared: Vec<&str> = own.split_whitespace().collect();
    let mut command = format!("dds {command}");
    if declared.contains(&"workload") {
        let workload = args.get_or("workload", "er");
        let Some(spec) = dds_workloads::registry::find(workload) else {
            return Ok(());
        };
        let params = dds_workloads::registry::COMMON_PARAMS.iter();
        declared.extend(params.chain(spec.params).map(|p| p.key));
        command = format!("{command} --workload {workload}");
    }
    match args
        .options
        .keys()
        .find(|key| !declared.contains(&key.as_str()))
    {
        Some(key) => Err(format!("unknown option --{key} for `{command}`")),
        None => Ok(()),
    }
}

/// Back-compat dispatch returning the bare diagnostic (classification
/// erased) — the surface the in-process tests drive.
pub fn real_main(argv: Vec<String>) -> Result<(), String> {
    run_main(argv).map_err(|f| f.message().to_string())
}

fn cmd_list() -> Result<(), String> {
    println!("protocols:");
    for spec in dds_bench::protocols().specs() {
        println!("  {:<14} {}", spec.name, spec.summary);
        let kinds: Vec<&str> = spec.supported_queries().iter().map(|k| k.name()).collect();
        println!("      queries: {}", kinds.join(", "));
    }
    println!("workloads:");
    for spec in dds_workloads::registry::workloads() {
        println!("  {:<14} {}", spec.name, spec.summary);
        for p in spec.params {
            println!("      --{:<18} {} (default {})", p.key, p.help, p.default);
        }
    }
    let pool = dds_net::pool::Pool::global();
    let workers = pool.workers();
    println!("engine:");
    println!(
        "  worker pool:   {workers} daemon worker(s) + the driving thread \
                 (rounds with 2+ shards fan out over them)"
    );
    println!(
        "  shards:        auto scales 1..={} with round activity; \
                 --shards K pins the count (bit-identical for every K)",
        (workers + 1).max(1)
    );
    println!(
        "  pool counters: {} job(s) submitted so far in this process",
        pool.jobs()
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let protocol = args.get_or("protocol", "triangle").to_string();
    let cfg = dds_net::SimConfig {
        record_stats: args.flag("record-stats"),
        engine: run::engine_from(args)?,
        shards: run::shards_from(args)?,
        ..dds_net::SimConfig::default()
    };
    let seeds: usize = args.num_or("seeds", 1)?;
    let sample_every: u64 = args.num_or("sample-queries", 0)?;
    let ckpt_every: u64 = args.num_or("checkpoint-every", 0)?;
    if seeds > 1 {
        if ckpt_every > 0 || args.options.contains_key("resume") {
            return Err(
                "--checkpoint-every/--resume do not combine with --seeds; run one seed".into(),
            );
        }
        if sample_every > 0 {
            return Err("--sample-queries does not combine with --seeds; run one seed".into());
        }
        return cmd_simulate_sweep(args, &protocol, cfg, seeds);
    }
    // One streamed loop: open or resume the session, step it batch by
    // batch, and run the checkpoint and sample hooks on the rounds they are
    // due. A resumed session is rebuilt from the snapshot header's
    // configuration verbatim (the CLI engine/shards flags are ignored on
    // resume — the header is the source of truth for bit-exactness), and
    // the workload source is fast-forwarded past the rounds the original
    // run already consumed.
    let mut src = run::build_workload_source(args)?;
    let n = src.n();
    if sample_every > 0 && n < 2 {
        return Err("--sample-queries needs at least 2 nodes".into());
    }
    let mut session = run::open_or_resume(args, &protocol, cfg, &mut *src)?;
    let dir = args.get_or("checkpoint-dir", "checkpoints").to_string();
    if ckpt_every > 0 {
        std::fs::create_dir_all(&dir).map_err(|e| format!("--checkpoint-dir {dir}: {e}"))?;
    }
    let mut written = 0usize;
    let (mut answered, mut inconsistent) = (0u64, 0u64);
    while let Some(batch) = src.next_batch() {
        session.step(&batch);
        let r = session.round();
        if ckpt_every > 0 && r % ckpt_every == 0 {
            let path = std::path::Path::new(&dir).join(format!("checkpoint_{r:06}.json"));
            session
                .checkpoint()
                .write_file(&path)
                .map_err(|e| e.to_string())?;
            written += 1;
        }
        if sample_every > 0 && r % sample_every == 0 {
            // Mid-run query sampling, the serving-path smoke test (how
            // often is the structure answerable under this churn?): a
            // deterministic rotating probe of the edge {r, r+1} (mod n),
            // asked at its first endpoint. Edge queries are the one kind
            // every registered protocol supports.
            let u = (r % n as u64) as u32;
            let w = ((r + 1) % n as u64) as u32;
            match session.query(NodeId(u), &Query::Edge(dds_net::edge(u, w)))? {
                Response::Answer(_) => answered += 1,
                Response::Inconsistent => inconsistent += 1,
            }
        }
    }
    // Hook reports go to stderr so `--json` output stays a single
    // parseable object.
    if ckpt_every > 0 {
        eprintln!(
            "checkpoints:          {written} snapshot(s) every {ckpt_every} round(s) in {dir}/"
        );
    }
    if sample_every > 0 {
        eprintln!(
            "query samples:        {answered} answered / {inconsistent} inconsistent \
             (every {sample_every} rounds)"
        );
    }
    let active_series: Vec<usize> = session.stats().iter().map(|s| s.active_nodes).collect();
    let summary = session.summary();
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
    } else {
        println!("protocol:             {}", summary.protocol);
        println!("n:                    {}", summary.n);
        println!("rounds:               {}", summary.rounds);
        println!("topology changes:     {}", summary.changes);
        println!("inconsistent rounds:  {}", summary.inconsistent_rounds);
        println!("amortized:            {:.3}", summary.amortized);
        println!("footnote amortized:   {:.3}", summary.footnote_amortized);
        println!(
            "messages / bits:      {} / {}",
            summary.messages, summary.bits
        );
        println!(
            "budget (bits/link/rd): {}   violations: {}",
            summary.budget_bits, summary.violations
        );
        println!(
            "wall clock:           {:.3}s  ({:.0} rounds/sec)",
            summary.seconds, summary.rounds_per_sec
        );
        if cfg.record_stats {
            println!(
                "busiest round:        {} messages / {} bits",
                summary.peak_round_messages, summary.peak_round_bits
            );
            // Activity-proportionality, observable: how many nodes the
            // engine actually visited each round.
            let max_active = active_series.iter().copied().max().unwrap_or(0);
            let mean_active = if active_series.is_empty() {
                0.0
            } else {
                active_series.iter().sum::<usize>() as f64 / active_series.len() as f64
            };
            println!(
                "active nodes/round:   mean {:.1} / peak {} of {} ({:?} engine)",
                mean_active, max_active, summary.n, cfg.engine
            );
            let peaks: Vec<String> = summary
                .per_shard_peak_active
                .iter()
                .map(usize::to_string)
                .collect();
            println!(
                "shards:               {} (per-shard peak active: [{}])",
                summary.shards,
                peaks.join(", ")
            );
            const SHOWN: usize = 24;
            let head: Vec<String> = active_series
                .iter()
                .take(SHOWN)
                .map(usize::to_string)
                .collect();
            println!(
                "per-round active:     [{}]{}",
                head.join(", "),
                if active_series.len() > SHOWN {
                    format!(" … ({} rounds total)", active_series.len())
                } else {
                    String::new()
                }
            );
        }
        println!("peak RSS:             {:.1} MB", summary.peak_rss_mb);
    }
    Ok(())
}

/// `dds simulate --seeds K [--jobs J]`: run K seeded replicas of the same
/// point through the batch scheduler (each replica streamed from its own
/// source) and report per-seed rows plus seed-ordered aggregate statistics.
fn cmd_simulate_sweep(
    args: &Args,
    protocol: &str,
    cfg: dds_net::SimConfig,
    seeds: usize,
) -> Result<(), String> {
    let jobs: usize = args.num_or("jobs", dds_bench::available_jobs())?;
    if jobs < 1 {
        return Err("--jobs must be >= 1".into());
    }
    let workload = args.get_or("workload", "er").to_string();
    let base_seed: u64 = args.num_or("seed", 42)?;
    let points: Vec<dds_bench::SweepPoint> = (0..seeds as u64)
        .map(|i| {
            dds_bench::SweepPoint::new(
                protocol,
                &workload,
                run::params_with_seed(args, base_seed.wrapping_add(i)),
            )
        })
        .collect();
    let t0 = std::time::Instant::now();
    let summaries: Vec<dds_net::RunSummary> = dds_bench::scheduler::run_points(points, cfg, jobs)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let wall = t0.elapsed().as_secs_f64();
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summaries).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("seed sweep: {seeds} seeds × ({protocol} over {workload}), {jobs} worker(s)");
    for (i, s) in summaries.iter().enumerate() {
        println!(
            "  seed {:<6} changes {:<8} inconsistent rounds {:<6} amortized {:.3}  ({:.0} rounds/s)",
            base_seed.wrapping_add(i as u64),
            s.changes,
            s.inconsistent_rounds,
            s.amortized,
            s.rounds_per_sec,
        );
    }
    let amortized =
        dds_bench::Stats::from_samples(&summaries.iter().map(|s| s.amortized).collect::<Vec<_>>());
    let sim_secs: f64 = summaries.iter().map(|s| s.seconds).sum();
    println!(
        "amortized:            {}  (min {:.3} / max {:.3})",
        amortized.pm(),
        amortized.min,
        amortized.max
    );
    println!(
        "wall clock:           {wall:.3}s for {sim_secs:.3}s of simulation ({:.2}x)",
        sim_secs / wall.max(1e-9)
    );
    Ok(())
}

/// `dds query`: run a workload through a live session, then answer
/// subgraph query specs with zero communication — the paper's serving
/// path, protocol chosen purely by registry name.
fn cmd_query(args: &Args) -> Result<(), String> {
    let protocol = args.get_or("protocol", "triangle").to_string();
    let spec_text = args
        .options
        .get("query")
        .ok_or("query needs --query \"SPEC[; SPEC...]\" (see `dds --help` for the grammar)")?;
    let cfg = dds_net::SimConfig {
        engine: run::engine_from(args)?,
        shards: run::shards_from(args)?,
        ..dds_net::SimConfig::default()
    };
    let mut src = run::build_workload_source(args)?;
    let specs = query::parse_specs(spec_text, src.n())?;
    // Resuming serves from the snapshot instead of re-simulating from
    // round 0.
    let mut session = run::open_or_resume(args, &protocol, cfg, &mut *src)?;
    // Capability check up front: a spec the protocol cannot answer is a
    // user error, reported before any simulation time is spent.
    for spec in &specs {
        session.require_support(spec.query.kind())?;
    }
    match args.options.get("at") {
        Some(_) => {
            let at: u64 = args.num_or("at", 0)?;
            if at < session.round() {
                return Err(format!(
                    "--at {at} is before the resumed snapshot's round {}; \
                     resume can only move forward",
                    session.round()
                ));
            }
            session.run_to(at, &mut src);
        }
        None => session.drain(&mut src),
    }
    let settle_budget: usize = args.num_or("settle", 0)?;
    let settled = if settle_budget > 0 {
        session.settle(settle_budget)
    } else {
        None
    };
    let results: Vec<(&query::QuerySpec, Response<dds_net::Answer>)> = specs
        .iter()
        .map(|s| session.query(s.at, &s.query).map(|r| (s, r)))
        .collect::<Result<_, _>>()?;
    if args.flag("json") {
        let str_value = |s: &str| Value::Str(s.to_string());
        let kinds = session
            .supported_queries()
            .iter()
            .map(|k| str_value(k.name()))
            .collect();
        let entries = results
            .iter()
            .map(|(s, r)| {
                let mut entry = vec![
                    ("spec".to_string(), str_value(&s.raw)),
                    ("node".into(), Value::U64(s.at.0 as u64)),
                    ("kind".into(), str_value(s.query.kind().name())),
                ];
                match r {
                    Response::Inconsistent => {
                        entry.push(("status".into(), str_value("inconsistent")));
                    }
                    Response::Answer(a) => {
                        let value = a.to_value().get("value").cloned();
                        let value = value.expect("an encoded answer has a `value` member");
                        entry.push(("status".into(), str_value("answer")));
                        entry.push(("value".into(), value));
                    }
                }
                Value::Obj(entry)
            })
            .collect();
        let out = Value::Obj(vec![
            ("protocol".into(), str_value(session.protocol())),
            ("n".into(), Value::U64(session.n() as u64)),
            ("round".into(), Value::U64(session.round())),
            ("supported_queries".into(), Value::Arr(kinds)),
            ("queries".into(), Value::Arr(entries)),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let kinds: Vec<&str> = session
        .supported_queries()
        .iter()
        .map(|k| k.name())
        .collect();
    println!(
        "protocol:  {}  (queries: {})",
        session.protocol(),
        kinds.join(", ")
    );
    println!(
        "state:     round {}, {} edges, {} inconsistent node(s)",
        session.round(),
        session.topology().edge_count(),
        session.inconsistent_nodes()
    );
    match settled {
        Some(quiet) if settle_budget > 0 => println!("settled:   after {quiet} quiet round(s)"),
        None if settle_budget > 0 => {
            println!("settled:   NOT consistent within {settle_budget} quiet round(s)")
        }
        _ => {}
    }
    for (s, r) in &results {
        println!("{:<24} @v{:<4} -> {}", s.raw, s.at.0, render_response(r));
    }
    Ok(())
}

/// Human rendering of one query response.
fn render_response(r: &Response<dds_net::Answer>) -> String {
    use dds_net::Answer;
    match r {
        Response::Inconsistent => "inconsistent (structure mid-update; try --settle 64)".into(),
        Response::Answer(Answer::Bool(b)) => b.to_string(),
        Response::Answer(Answer::Triangles(ts)) => {
            let shown: Vec<String> = ts
                .iter()
                .take(8)
                .map(|t| format!("{{v{},v{},v{}}}", t[0].0, t[1].0, t[2].0))
                .collect();
            let more = if ts.len() > 8 { ", …" } else { "" };
            format!("{} triangle(s): {}{more}", ts.len(), shown.join(", "))
        }
        Response::Answer(Answer::VertexSets(vs)) => {
            let shown: Vec<String> = vs
                .iter()
                .take(8)
                .map(|set| {
                    let ids: Vec<String> = set.iter().map(|v| format!("v{}", v.0)).collect();
                    format!("{{{}}}", ids.join(","))
                })
                .collect();
            let more = if vs.len() > 8 { ", …" } else { "" };
            format!("{} set(s): {}{more}", vs.len(), shown.join(", "))
        }
    }
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    match args.positional.get(1).map(String::as_str) {
        Some("generate") => {
            let trace = run::build_workload(args)?;
            let out = args
                .options
                .get("out")
                .ok_or("trace generate needs --out FILE")?;
            trace.save(out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} rounds / {} changes to {out}",
                trace.rounds(),
                trace.total_changes()
            );
            Ok(())
        }
        Some("validate") => {
            let path = args.positional.get(2).ok_or("trace validate FILE")?;
            dds_net::Trace::load(path)?;
            println!("{path}: valid");
            Ok(())
        }
        Some("info") => {
            let path = args.positional.get(2).ok_or("trace info FILE")?;
            let trace = dds_net::Trace::load(path)?;
            let mut g = DynamicGraph::new(trace.n);
            for b in &trace.batches {
                g.apply(b);
            }
            let s = g.stats();
            println!("file:        {path}");
            println!("n:           {}", trace.n);
            println!("rounds:      {}", trace.rounds());
            println!("changes:     {}", trace.total_changes());
            println!("final edges: {}", s.edges);
            println!(
                "degree:      min {} / mean {:.2} / max {}",
                s.min_degree, s.mean_degree, s.max_degree
            );
            println!("clustering:  {:.3}", s.clustering);
            println!("components:  {}", s.components);
            println!("triangles:   {}", s.triangles);
            Ok(())
        }
        _ => Err("trace subcommand: generate | validate | info".into()),
    }
}

/// `dds bench diff OLD NEW`: compare two `experiments --json` reports
/// row-for-row on deterministic cells (wall-clock columns excluded).
/// Drift, or a table missing from NEW, is an error, so CI gates on the
/// recorded trajectory instead of eyeballing tables.
fn cmd_bench(args: &Args) -> Result<(), String> {
    match args.positional.get(1).map(String::as_str) {
        Some("diff") => {
            let old_path = args
                .positional
                .get(2)
                .ok_or("bench diff needs OLD.json NEW.json")?;
            let new_path = args
                .positional
                .get(3)
                .ok_or("bench diff needs OLD.json NEW.json")?;
            // ReportError renders as one clean line naming the file and
            // what is wrong with it — a truncated or hand-mangled BENCH
            // json is a runtime diagnostic, not a usage problem.
            let old = dds_bench::Report::load(old_path).map_err(|e| e.to_string())?;
            let new = dds_bench::Report::load(new_path).map_err(|e| e.to_string())?;
            let d = dds_bench::diff_reports(&old, &new);
            print!("{}", d.render());
            if !d.removed.is_empty() {
                return Err(format!(
                    "bench diff: table(s) present in {old_path} but MISSING \
                     from {new_path}: {}",
                    d.removed.join(", ")
                ));
            }
            if d.has_row_drift() {
                return Err(format!(
                    "bench diff: deterministic table cells drifted between \
                     {old_path} and {new_path} (see the DRIFTED rows above)"
                ));
            }
            Ok(())
        }
        _ => Err("bench subcommand: diff OLD.json NEW.json".into()),
    }
}

fn cmd_bounds(args: &Args) -> Result<(), String> {
    let n: u64 = args.num_or("n", 1024)?;
    println!("lower-bound curves at n = {n}:");
    println!(
        "  Theorem 2   (non-clique membership):  n/log2 n        = {:.2}",
        bounds::thm2_amortized_bound(n)
    );
    println!(
        "  Theorem 4   (k-cycle listing, k ≥ 6): sqrt(n)/log2 n  = {:.2}",
        bounds::thm4_amortized_bound(n)
    );
    println!(
        "  Thm 2 total communication estimate:   {:.0} bits",
        bounds::thm2_total_bits(n, 3)
    );
    Ok(())
}
