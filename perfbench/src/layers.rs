//! The traced layer probe: the per-layer metrics every traced run
//! reports, measured on the workload's own state and inputs.
//!
//! From the workload's snapshot it runs the workload's writes and reads
//! three ways, each a span around one call into a layer:
//! - over TCP to a fresh durable daemon (`client.ingest`, `client.query`),
//!   with the `stats` verb's byte and latency counters alongside;
//! - through a twin [`ServingSession`] with the daemon's cadence
//!   (`state.ingest`), then `recover_sessions` over its directory;
//! - decomposed into the calls one write makes (`engine.step`,
//!   `checkpoint.capture`, `checkpoint.encode` and `checkpoint.persist` on
//!   every K-th write, `checkpoint.restore`), then `Snapshot::from_json`
//!   over what it persisted, and `view` + `Session::query` over the mix.
//!
//! Times are means of span self time, so components add up: the
//! decomposed calls account for `state.ingest_ms` up to
//! `state.unaccounted_ms`. The tracer's own cost per span is timed
//! directly, over a long loop of spans (`trace.overhead_us`).

use crate::serve::{bind, read_loop, write_loop, Daemon};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{Ctx, Report, SESSION};
use dds_bench::report::median;
use dds_net::checkpoint::write_bytes_atomic;
use dds_net::serving::{recover_sessions, Client, Durability, ServingSession};
use dds_net::{EventBatch, NodeId, Query, Session, Snapshot};
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Fresh connections timed for `wire.first_reply_ms`.
const FIRST_REPLIES: usize = 5;

/// `recover_sessions` calls timed for `state.recover_ms`.
const RECOVERIES: u64 = 3;

/// Passes of the read mix timed for `query.answer_us` (one span each:
/// a single in-process answer is too short to time on its own).
const ANSWER_PASSES: u64 = 3;

/// What the engine did over a run of rounds, counted around each
/// `Session::step`.
#[derive(Default)]
struct EngineTally {
    rounds: u64,
    active: u64,
    messages: u64,
    bits: u64,
    shards: u64,
}

impl EngineTally {
    /// Advance `session` one round with `step`, counting what it did.
    fn round(&mut self, session: &mut Session, step: impl FnOnce(&mut Session)) {
        let (m0, b0) = (
            session.bandwidth().total_messages(),
            session.bandwidth().total_bits(),
        );
        step(session);
        self.rounds += 1;
        self.active += session.active_nodes() as u64;
        self.messages += session.bandwidth().total_messages() - m0;
        self.bits += session.bandwidth().total_bits() - b0;
        self.shards += session.shards() as u64;
    }

    /// Put the `engine.*` metrics; `step_ms` is the mean span self time of
    /// `engine.step` over `traced` rounds.
    fn put(&self, report: &mut Report, step_ms: f64, traced: usize) {
        let rounds = self.rounds as usize;
        report.put(
            "engine.step_ms",
            step_ms,
            "ms",
            traced,
            "mean Session::step",
        );
        #[rustfmt::skip]
        let per_round = [
            ("engine.active_nodes", self.active, "count", "mean Session::active_nodes per round"),
            ("engine.messages_per_round", self.messages, "count", "bandwidth() message delta per round"),
            ("engine.bits_per_round", self.bits, "bits", "bandwidth() bit delta per round"),
            ("engine.shards", self.shards, "count", "mean Session::shards per round"),
        ];
        for (name, total, unit, what) in per_round {
            report.put(name, total as f64 / rounds as f64, unit, rounds, what);
        }
    }
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).ok_or_else(|| format!("stats: no {path:?}"))?;
    }
    match cur {
        Value::U64(x) => Ok(*x as f64),
        Value::I64(x) => Ok(*x as f64),
        Value::F64(x) => Ok(*x),
        other => Err(format!("stats: {path:?} is {other:?}")),
    }
}

fn wire_bytes(stats: &Value) -> Result<(f64, f64), String> {
    let bytes = num(stats, &["server", "bytes_in"])? + num(stats, &["server", "bytes_out"])?;
    Ok((bytes, num(stats, &["server", "requests"])?))
}

/// Run the probe and put every per-layer metric but `workloads.gen_s`.
pub fn probe(
    ctx: &mut Ctx,
    warm: &Snapshot,
    writes: &[EventBatch],
    mix: &[(NodeId, Query)],
    report: &mut Report,
) -> Result<(), String> {
    let mark = ctx.tracer.mark();
    tcp_burst(ctx, warm, writes, mix, report)?;
    let reg = ctx.registry;
    let every = ctx.scale.checkpoint_every as usize;

    // The twin: the daemon's own write path, in process.
    let twin_dir = ctx.tmp.join("probe-twin");
    let twin = ServingSession::open_from_snapshot(reg, SESSION, warm)?;
    twin.enable_durability(Durability {
        dir: twin_dir.clone(),
        every: ctx.scale.checkpoint_every,
    })?;
    for (i, batch) in writes.iter().enumerate() {
        let batches = std::slice::from_ref(batch);
        ctx.tracer.time("state.ingest", i as u64, || {
            twin.ingest(reg, batches, None, None)
        })?;
    }
    for i in 0..RECOVERIES {
        let (found, _) = ctx.tracer.time("state.recover", i, || {
            recover_sessions(reg, &twin_dir, SESSION)
        })?;
        if found.len() != 1 {
            return Err(format!(
                "probe: recover_sessions found {} sessions",
                found.len()
            ));
        }
    }

    // The same writes, one call per layer.
    let replica_dir = ctx.tmp.join("probe-replica");
    std::fs::create_dir_all(&replica_dir).map_err(|e| format!("{}: {e}", replica_dir.display()))?;
    let mut session = reg.restore(warm).map_err(|e| e.to_string())?;
    let mut published = None;
    let mut persisted = Vec::new();
    let mut tally = EngineTally::default();
    for (i, batch) in writes.iter().enumerate() {
        let req = i as u64;
        let write = ctx.tracer.begin("replica.write", req);
        let tracer = &mut ctx.tracer;
        tally.round(&mut session, |s| {
            tracer.time("engine.step", req, || s.step(batch))
        });
        let snap = ctx
            .tracer
            .time("checkpoint.capture", req, || session.checkpoint());
        if (i + 1) % every == 0 {
            let json = ctx.tracer.time("checkpoint.encode", req, || snap.to_json());
            let path = replica_dir.join(format!("checkpoint_{:06}.json", snap.header.round));
            ctx.tracer
                .time("checkpoint.persist", req, || {
                    write_bytes_atomic(&path, json.as_bytes())
                })
                .map_err(|e| e.to_string())?;
            persisted.push(json);
        }
        let view = ctx
            .tracer
            .time("checkpoint.restore", req, || reg.restore(&snap));
        // Swapping the view drops the previous one, as the daemon's
        // publish does; that lands in the write's own self time.
        published = Some(view.map_err(|e| e.to_string())?);
        ctx.tracer.end(write);
    }
    drop(published);
    for (i, json) in persisted.iter().enumerate() {
        ctx.tracer
            .time("checkpoint.decode", i as u64, || Snapshot::from_json(json))
            .map_err(|e| e.to_string())?;
    }

    // The read path in process: view + Session::query over the mix, on
    // the settled state the workload's reads see.
    let settled = ServingSession::open_from_snapshot(reg, SESSION, warm)?;
    let mut answered = 0usize;
    for pass in 0..ANSWER_PASSES {
        ctx.tracer.time("query.answer", pass, || {
            for (at, query) in mix {
                let view = settled.view();
                answered += std::hint::black_box(view.session.query(*at, query)).is_ok() as usize;
            }
        });
    }
    if answered != mix.len() * ANSWER_PASSES as usize {
        return Err("probe: an in-process query was rejected".into());
    }

    let t = &ctx.tracer;
    let ms = |name: &str| mean(&t.self_secs_since(mark, name)) * 1e3;
    let n = |name: &str| t.self_secs_since(mark, name).len();
    let rounds = writes.len();
    tally.put(report, ms("engine.step"), n("engine.step"));
    let persist_share = persisted.len() as f64 / rounds as f64;
    let bytes = mean(&persisted.iter().map(|j| j.len() as f64).collect::<Vec<_>>());
    let changes = mean(&writes.iter().map(|w| w.len() as f64).collect::<Vec<_>>());
    let ingest = ms("state.ingest");
    let accounted = ms("engine.step")
        + ms("checkpoint.capture")
        + ms("checkpoint.restore")
        + (ms("checkpoint.encode") + ms("checkpoint.persist")) * persist_share;
    let answer_us = ms("query.answer") * 1e3 / mix.len() as f64;
    let answers = mix.len() * ANSWER_PASSES as usize;
    #[rustfmt::skip]
    let metrics = [
        ("checkpoint.capture_ms", ms("checkpoint.capture"), "ms", n("checkpoint.capture"), "mean Session::checkpoint"),
        ("checkpoint.restore_ms", ms("checkpoint.restore"), "ms", n("checkpoint.restore"), "mean ProtocolRegistry::restore"),
        ("checkpoint.encode_ms", ms("checkpoint.encode"), "ms", n("checkpoint.encode"), "mean Snapshot::to_json (persisting writes)"),
        ("checkpoint.persist_ms", ms("checkpoint.persist"), "ms", n("checkpoint.persist"), "mean write_bytes_atomic (persisting writes)"),
        ("checkpoint.decode_ms", ms("checkpoint.decode"), "ms", n("checkpoint.decode"), "mean Snapshot::from_json"),
        ("checkpoint.bytes", bytes, "B", persisted.len(), "mean snapshot document size"),
        ("state.ingest_ms", ingest, "ms", n("state.ingest"), "mean ServingSession::ingest, one round per write"),
        ("state.unaccounted_ms", ingest - accounted, "ms", n("state.ingest"), "state.ingest_ms - step - capture - restore - persisting share x (encode + persist)"),
        ("state.recover_ms", ms("state.recover"), "ms", n("state.recover"), "mean recover_sessions"),
        ("state.bytes_per_change", bytes / changes, "B", rounds, "checkpoint.bytes / changes per write"),
        ("query.answer_us", answer_us, "us", answers, "mean view + Session::query"),
        ("wire.read_overhead_us", ms("client.query") * 1e3 - answer_us, "us", n("client.query"), "mean Client::query - query.answer_us"),
        ("wire.write_overhead_ms", ms("client.ingest") - ingest, "ms", n("client.ingest"), "mean Client::ingest - state.ingest_ms"),
        ("trace.overhead_us", Tracer::span_cost_secs() * 1e6, "us", 1, "one begin + end on the recording thread; a traced run records one span per operation"),
    ];
    for (name, value, unit, samples, what) in metrics {
        report.put(name, value, unit, samples, what);
    }
    Ok(())
}

/// Writes and reads over TCP to a fresh durable daemon warm-started from
/// `warm`, plus fresh-connection first replies.
fn tcp_burst(
    ctx: &mut Ctx,
    warm: &Snapshot,
    writes: &[EventBatch],
    mix: &[(NodeId, Query)],
    report: &mut Report,
) -> Result<(), String> {
    let server = bind(ctx, &ctx.tmp.join("probe-tcp"))?;
    server.open_session(ServingSession::open_from_snapshot(
        ctx.registry,
        SESSION,
        warm,
    )?)?;
    let (daemon, mut clients) = Daemon::start(server, 2)?;
    let (mut writer, mut reader) = {
        let r = clients.pop().expect("two clients");
        (clients.pop().expect("two clients"), r)
    };
    // A connection made while the accept loop polls waits for its next
    // sweep (the server's POLL); these measure that, median of several.
    let mut first = Vec::new();
    for _ in 0..FIRST_REPLIES {
        let t = Instant::now();
        let mut c = Client::connect(&daemon.addr)?;
        c.list()?;
        first.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.count("first-reply", FIRST_REPLIES as u64, 0);
    report.put(
        "wire.first_reply_ms",
        median(&first),
        "ms",
        first.len(),
        "connect + first reply on a fresh connection, median",
    );

    let before = wire_bytes(&writer.stats()?)?;
    let done = AtomicBool::new(false);
    let (mut wt, mut rt) = (ctx.tracer.fork(), ctx.tracer.fork());
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let log = write_loop(&mut writer, writes, &mut wt, |_| true);
            done.store(true, Ordering::Release);
            log
        });
        let r = s.spawn(|| {
            read_loop(&mut reader, mix, &mut rt, 0, |_| {
                !done.load(Ordering::Acquire)
            })
        });
        (
            w.join().expect("probe writer"),
            r.join().expect("probe reader"),
        )
    });
    ctx.tracer.merge(wt);
    ctx.tracer.merge(rt);
    let stats = writer.stats()?;
    daemon.stop()?;
    report.count(
        "probe-ingest",
        w.lat_ms.len() as u64 + w.failed(),
        w.failed(),
    );
    report.count("probe-query", r.lat_ms.len() as u64 + r.failed, r.failed);
    if let Some(e) = w.error {
        return Err(format!("probe: ingest failed: {e}"));
    }
    let after = wire_bytes(&stats)?;
    report.put(
        "wire.bytes_per_request",
        (after.0 - before.0) / (after.1 - before.1),
        "B",
        (after.1 - before.1) as usize,
        "stats verb: wire bytes in + out per request",
    );
    report.put(
        "server.query_us",
        num(&stats, &["server", "query_latency_us", "mean"])?,
        "us",
        r.lat_ms.len(),
        "stats verb: mean server-side answer time",
    );
    let attempted = r.answered + r.inconsistent + r.failed;
    report.put(
        "query.answered_frac",
        r.answered as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
        "answered / attempted reads during the probe's writes",
    );
    Ok(())
}
