//! `dds loadgen` — drive mixed query traffic at a running serve daemon
//! and report read QPS (over the readers' own window), the churn writer's
//! rounds/s, and latency.
//!
//! ```text
//! dds loadgen --addr 127.0.0.1:7421 --session main \
//!             --clients 4 --queries 200 [--churn-rounds 100 --workload er …] [--json]
//! ```
//!
//! Each of the `--clients` threads issues exactly `--queries` requests
//! from a deterministic mixed workload (edge probes plus the session's
//! listing kinds), so the total query count never depends on scheduling.
//! With `--churn-rounds K`, a dedicated writer connection concurrently
//! ingests K rounds of the configured workload — the measured regime is
//! then "queries against a moving watermark", the paper's serving story.
//! Against a warm-started session, `--skip-rounds R` fast-forwards the
//! (deterministic) generator past the rounds the snapshot already
//! covers, so the churn continues the session's history instead of
//! replaying batches its topology has already absorbed.

use crate::args::Args;
use dds_bench::report::{mad, median};
use dds_net::serving::{loadgen, Client, ClientConfig, LoadgenOptions};
use dds_net::{NodeId, Query};
use serde::Value;
use std::time::Duration;

/// Run a loadgen burst and print the report.
pub fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let addr = args
        .options
        .get("addr")
        .ok_or("loadgen needs --addr HOST:PORT (a running `dds serve`)")?
        .to_string();
    let session = args.get_or("session", "main").to_string();
    let clients: usize = args.num_or("clients", 4)?;
    let queries: usize = args.num_or("queries", 200)?;
    let churn_rounds: usize = args.num_or("churn-rounds", 0)?;
    let skip_rounds: usize = args.num_or("skip-rounds", 0)?;

    // --tolerate-faults arms the resilient client: per-request deadlines,
    // seeded backoff+jitter, automatic retry of idempotent verbs (reads,
    // and sequence-stamped writes the daemon dedups). The knobs override
    // the tolerant profile's defaults (deadline 1000ms, 5 retries).
    let tolerate = if args.flag("tolerate-faults") {
        let mut cfg = ClientConfig::tolerant(args.num_or("client-seed", 0x5eed_u64)?);
        cfg.retries = args.num_or("retries", cfg.retries)?;
        let deadline_ms: u64 = args.num_or("deadline-ms", 1_000)?;
        cfg.deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
        Some(cfg)
    } else {
        None
    };

    // Ask the daemon about the target session: its n sizes the query mix,
    // its capability list decides which listing kinds to blend in. The
    // probe rides the tolerant config too — `list` is idempotent, so a
    // faulty wire only costs retries, not the whole run.
    let mut probe = match &tolerate {
        Some(cfg) => Client::connect_with(&addr, cfg.clone())?,
        None => Client::connect(&addr)?,
    };
    let listing = probe.list()?;
    let (n, kinds) = session_shape(&listing, &session)?;
    let mut extra: Vec<(NodeId, Query)> = Vec::new();
    if kinds.iter().any(|k| k == "list-triangles") {
        extra.push((NodeId(0), Query::ListTriangles));
        extra.push((NodeId((n / 2) as u32), Query::ListTriangles));
    }
    let mix = loadgen::default_mix(n, (clients * queries).max(16), &extra);

    // Churn batches come from the same workload registry the rest of the
    // CLI uses; the generator is deterministic, so reruns ingest the same
    // rounds. Against a warm-started session, --skip-rounds fast-forwards
    // past the snapshot's prefix so the churn continues its history.
    let churn = if churn_rounds > 0 {
        let mut src = crate::run::build_workload_source(args)?;
        if src.n() != n {
            return Err(format!(
                "--churn-rounds: the workload generates n = {} but session {session} \
                 has n = {n}; pass matching workload flags",
                src.n()
            ));
        }
        if skip_rounds > 0 {
            let skipped = src.skip_batches(skip_rounds);
            if skipped < skip_rounds {
                return Err(format!(
                    "--skip-rounds {skip_rounds}: the workload only generates \
                     {skipped} round(s); raise --rounds"
                ));
            }
        }
        let mut batches = Vec::with_capacity(churn_rounds);
        while batches.len() < churn_rounds {
            match src.next_batch() {
                Some(b) => batches.push(b),
                None => break,
            }
        }
        batches
    } else {
        Vec::new()
    };

    let opts = LoadgenOptions {
        addr,
        session,
        clients,
        queries_per_client: queries,
        tolerate,
    };
    let report = loadgen::run(&opts, &mix, &churn)?;

    let lat_median = median(&report.latencies);
    let lat_mad = mad(&report.latencies);
    if args.flag("json") {
        // `request_errors` and `first_error` carry the failure context a
        // bare nonzero exit code used to swallow: which verbs failed, how
        // often, and exactly where the first failure landed.
        let request_errors = report
            .request_errors
            .iter()
            .map(|(verb, &count)| (verb.clone(), Value::U64(count)))
            .collect();
        let first_error = match &report.first_error {
            Some(first) => Value::Obj(vec![
                ("verb".into(), Value::Str(first.verb.clone())),
                ("watermark".into(), Value::U64(first.watermark)),
                ("error".into(), Value::Str(first.error.clone())),
            ]),
            None => Value::Null,
        };
        // Seconds to the microsecond, rates and latencies to a tenth.
        let fixed = |x: f64, places: i32| {
            let scale = 10f64.powi(places);
            Value::F64((x * scale).round() / scale)
        };
        let out = Value::Obj(vec![
            ("clients".into(), Value::U64(clients as u64)),
            ("queries".into(), Value::U64(report.queries)),
            ("answered".into(), Value::U64(report.answered)),
            ("inconsistent".into(), Value::U64(report.inconsistent)),
            ("errors".into(), Value::U64(report.errors)),
            ("churn_rounds".into(), Value::U64(report.churn_rounds)),
            ("wall_seconds".into(), fixed(report.wall_seconds, 6)),
            ("read_seconds".into(), fixed(report.read_seconds, 6)),
            ("qps".into(), fixed(report.qps(), 1)),
            (
                "write_rounds_per_s".into(),
                fixed(report.write_rounds_per_sec(), 1),
            ),
            ("latency_median_us".into(), fixed(lat_median * 1e6, 1)),
            ("latency_mad_us".into(), fixed(lat_mad * 1e6, 1)),
            ("retries".into(), Value::U64(report.retries)),
            ("reconnects".into(), Value::U64(report.reconnects)),
            ("request_errors".into(), Value::Obj(request_errors)),
            ("first_error".into(), first_error),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "loadgen:   {clients} client(s) × {queries} query(s){}",
            if report.churn_rounds > 0 {
                format!(
                    " under {} round(s) of concurrent churn",
                    report.churn_rounds
                )
            } else {
                String::new()
            }
        );
        println!(
            "outcomes:  {} answered / {} inconsistent / {} error(s)",
            report.answered, report.inconsistent, report.errors
        );
        println!(
            "reads:     {:.0} queries/s over the readers' {:.3}s ({:.3}s wall)",
            report.qps(),
            report.read_seconds,
            report.wall_seconds
        );
        if report.churn_rounds > 0 {
            println!(
                "writes:    {:.0} rounds/s over the writer's {:.3}s",
                report.write_rounds_per_sec(),
                report.write_seconds
            );
        }
        println!(
            "latency:   median {:.1}us ± {:.1} MAD",
            lat_median * 1e6,
            lat_mad * 1e6
        );
        if report.retries > 0 || report.reconnects > 0 {
            println!(
                "faults:    {} retry(s), {} reconnect(s) absorbed",
                report.retries, report.reconnects
            );
        }
        if let Some(first) = &report.first_error {
            println!(
                "failures:  {} request(s) failed; first: {} at watermark {}: {}",
                report.request_failures(),
                first.verb,
                first.watermark,
                first.error
            );
        }
    }
    if report.errors > 0 || report.request_failures() > 0 {
        let context = report
            .first_error
            .as_ref()
            .map(|f| {
                format!(
                    " — first failure: {} at watermark {}: {}",
                    f.verb, f.watermark, f.error
                )
            })
            .unwrap_or_default();
        return Err(format!(
            "{} query error(s), {} failed request(s) during loadgen{context}",
            report.errors,
            report.request_failures()
        ));
    }
    Ok(())
}

/// Pull (n, supported kinds) for one session out of a `list` payload.
fn session_shape(listing: &Value, session: &str) -> Result<(usize, Vec<String>), String> {
    let sessions = listing
        .get("sessions")
        .and_then(Value::as_array)
        .ok_or("list response has no `sessions` array")?;
    for entry in sessions {
        if entry.get("session").and_then(Value::as_str) == Some(session) {
            let n = entry
                .get("n")
                .and_then(|v| match v {
                    Value::U64(u) => Some(*u as usize),
                    _ => None,
                })
                .ok_or("session entry has no `n`")?;
            let kinds = entry
                .get("supported_queries")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            return Ok((n, kinds));
        }
    }
    let known: Vec<&str> = sessions
        .iter()
        .filter_map(|e| e.get("session").and_then(Value::as_str))
        .collect();
    Err(format!(
        "daemon has no session named {session:?} (live: [{}])",
        known.join(", ")
    ))
}
