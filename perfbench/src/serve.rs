//! The two workloads, both over loopback TCP to a daemon running in this
//! process (as the s5/s6 tiers run it), on the same warm `triangle` state
//! loaded through the daemon's own verbs:
//! - `ingest`: one writer streams rounds while one paced reader queries;
//! - `recover`: a durable daemon is restarted from its checkpoint
//!   directory again and again.
//!
//! The daemon helpers and client loops here serve the traced probe too.

use crate::inputs::{serve_inputs, ServeInputs};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{layers, reset_peak_rss, Ctx, Report, SESSION};
use dds_bench::report::median;
use dds_net::serving::{
    Client, DurabilityOptions, QueryOutcome, Server, ServerHandle, ServerOptions,
};
use dds_net::{Answer, EventBatch, NodeId, Query, Response, Session, SimConfig, Snapshot};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROTOCOL: &str = "triangle";
const LOOPBACK: &str = "127.0.0.1:0";

/// Every this-many-th read on `ingest` is checked against the local
/// session at its watermark.
const SAMPLE_EVERY: usize = 4;

/// Recoveries after `recover`'s measured phase whose whole state is
/// checked. Fetching a checkpoint costs more than a recovery, and the
/// fetched copies would count in the measured phase's peak memory.
const WHOLE_STATE_CHECKS: u64 = 3;

/// The reader's think time between a reply and its next request. Without
/// it the reader's client and connection threads keep one core busy on
/// their own, and with the writer's connection thread three threads share
/// the host's two cores: write latency then swings with the scheduler
/// (see `NOTES.md`, "Host noise").
const READ_THINK: Duration = Duration::from_millis(2);

/// An in-process daemon whose accept loop runs on its own thread.
pub struct Daemon {
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Run `server`'s accept loop. The `clients` connections are made
    /// first and wait in the listen backlog, so their first reply carries
    /// no accept-loop poll wait; `wire.first_reply_ms` measures that wait
    /// on its own.
    pub fn start(server: Server, clients: usize) -> Result<(Daemon, Vec<Client>), String> {
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        let conns = (0..clients)
            .map(|_| Client::connect(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            handle,
            thread: Some(thread),
        };
        Ok((daemon, conns))
    }

    /// Stop gracefully and wait for every server thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.handle.stop();
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| format!("server: {e}")),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Bind a daemon as `dds serve --checkpoint-dir base --checkpoint-every K`.
pub fn bind(ctx: &Ctx, base: &Path) -> Result<Server, String> {
    let options = ServerOptions {
        durability: Some(DurabilityOptions {
            base: base.to_path_buf(),
            every: ctx.scale.checkpoint_every,
        }),
        ..ServerOptions::default()
    };
    Server::bind_with(LOOPBACK, ctx.registry, options).map_err(|e| format!("bind: {e}"))
}

/// A local answer in the client's terms.
fn outcome(r: Result<Response<Answer>, String>) -> QueryOutcome {
    match r {
        Ok(Response::Answer(a)) => QueryOutcome::Answer(a),
        Ok(Response::Inconsistent) => QueryOutcome::Inconsistent,
        Err(e) => QueryOutcome::Error(e),
    }
}

/// A different answer, for `--plant-wrong`.
fn corrupt(o: &QueryOutcome) -> QueryOutcome {
    match o {
        QueryOutcome::Answer(Answer::Bool(b)) => QueryOutcome::Answer(Answer::Bool(!b)),
        _ => QueryOutcome::Error("planted wrong expectation".into()),
    }
}

/// The warm state as a local session computes it: the truth every served
/// answer is checked against.
struct Warm {
    session: Session,
    settle: u64,
    snapshot: Snapshot,
    /// The local answer to the mix's first query.
    first: QueryOutcome,
}

/// Generate the inputs (`writes` of the stream) and compute the warm
/// state locally.
fn prepare(ctx: &Ctx, writes: usize, report: &mut Report) -> Result<(ServeInputs, Warm), String> {
    let gen = Instant::now();
    let inputs = serve_inputs(&ctx.scale, ctx.seed, writes);
    report.put(
        "workloads.gen_s",
        gen.elapsed().as_secs_f64(),
        "s",
        1,
        "warm graph, write stream and read mix generation",
    );
    let warm = warm_local(ctx, &inputs)?;
    Ok((inputs, warm))
}

fn warm_local(ctx: &Ctx, inputs: &ServeInputs) -> Result<Warm, String> {
    let mut session = ctx
        .registry
        .open(PROTOCOL, inputs.n, SimConfig::default())?;
    session.step(&inputs.bulk);
    let settle = session
        .settle(100_000)
        .ok_or("the warm graph did not settle")? as u64;
    let snapshot = session.checkpoint();
    let first = outcome(session.query(inputs.mix[0].0, &inputs.mix[0].1));
    Ok(Warm {
        session,
        settle,
        snapshot,
        first,
    })
}

/// One cold start: bind, open, the warm load through the daemon's verbs
/// (a bulk `ingest`, then the quiet `step`s that settle it), and the first
/// answered query. Returns its duration, the daemon and its client.
fn cold_start(
    ctx: &Ctx,
    inputs: &ServeInputs,
    warm: &Warm,
    dir: &Path,
    times: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(Daemon, Client), String> {
    let bulk = vec![inputs.bulk.clone()];
    let query = vec![inputs.mix[0].clone()];
    let t = Instant::now();
    let started = (|| {
        let (daemon, mut clients) = Daemon::start(bind(ctx, dir)?, 1)?;
        let mut client = clients.pop().expect("one client");
        client.open(SESSION, PROTOCOL, inputs.n)?;
        client.ingest(SESSION, bulk)?;
        client.step(SESSION, warm.settle)?;
        let reply = client.query(SESSION, query)?;
        Ok::<_, String>((daemon, client, reply))
    })();
    let secs = t.elapsed().as_secs_f64();
    report.count("cold-start", 1, started.is_err() as u64);
    let (daemon, client, reply) = started?;
    if reply.watermark != warm.snapshot.header.round || reply.outcomes != [warm.first.clone()] {
        return Err(format!(
            "gate: the cold start's first query answered {:?} at round {}, the local session {:?} at round {}",
            reply.outcomes, reply.watermark, warm.first, warm.snapshot.header.round
        ));
    }
    times.push(secs);
    Ok((daemon, client))
}

/// Cold starts, each stopped again, as `Scale::setups` asks. A run makes
/// them on both sides of its measured phase, so their median samples two
/// stretches of the host; with `keep_last` the last one stays up for the
/// measured phase.
fn cold_starts(
    ctx: &Ctx,
    inputs: &ServeInputs,
    warm: &Warm,
    keep_last: bool,
    times: &mut Vec<f64>,
    report: &mut Report,
) -> Result<Option<(Daemon, Client, PathBuf)>, String> {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let dir = ctx.tmp.join(format!("serve-{}", times.len()));
        let (daemon, client) = cold_start(ctx, inputs, warm, &dir, times, report)?;
        done += 1;
        let last = !ctx.scale.setups.more(done, start);
        if last && keep_last {
            return Ok(Some((daemon, client, dir)));
        }
        drop(client);
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
        if last {
            return Ok(None);
        }
    }
}

/// What a reader connection saw.
#[derive(Default)]
pub struct ReadLog {
    pub lat_ms: Vec<f64>,
    pub failed: u64,
    pub answered: u64,
    pub inconsistent: u64,
    /// `(watermark, mix index, outcome)` of sampled replies.
    pub samples: Vec<(u64, usize, QueryOutcome)>,
}

/// Issue one query per request, cycling through `mix` and waiting
/// `READ_THINK` before each, while `more(reads so far)` holds; every
/// `sample_every`-th reply is kept when nonzero.
pub fn read_loop(
    client: &mut Client,
    mix: &[(NodeId, Query)],
    tracer: &mut Tracer,
    sample_every: usize,
    more: impl Fn(usize) -> bool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut next = 0;
    while more(next) {
        std::thread::sleep(READ_THINK);
        let j = next;
        next += 1;
        let idx = j % mix.len();
        let request = vec![mix[idx].clone()];
        let t = Instant::now();
        let span = tracer.begin("client.query", j as u64);
        let reply = client.query(SESSION, request);
        tracer.end(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Ok(mut reply) = reply else {
            log.failed += 1;
            continue;
        };
        let Some(got) = reply.outcomes.pop() else {
            log.failed += 1;
            continue;
        };
        match got {
            QueryOutcome::Answer(_) => log.answered += 1,
            QueryOutcome::Inconsistent => log.inconsistent += 1,
            QueryOutcome::Error(_) => {
                log.failed += 1;
                continue;
            }
        }
        log.lat_ms.push(ms);
        if sample_every > 0 && j % sample_every == 0 {
            log.samples.push((reply.watermark, idx, got));
        }
    }
    log
}

/// What the writer connection saw.
#[derive(Default)]
pub struct WriteLog {
    pub lat_ms: Vec<f64>,
    /// The failure that stopped the stream, if one did.
    pub error: Option<String>,
    pub window_s: f64,
}

impl WriteLog {
    pub fn failed(&self) -> u64 {
        self.error.is_some() as u64
    }
}

/// Send `writes` in order, one round per `ingest` request, while
/// `more(writes so far)` holds. Stops at the first failure: a write that
/// may or may not have applied leaves the rest of the stream invalid.
pub fn write_loop(
    client: &mut Client,
    writes: &[EventBatch],
    tracer: &mut Tracer,
    more: impl Fn(usize) -> bool,
) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    for (i, batch) in writes.iter().enumerate() {
        if !more(i) {
            break;
        }
        let request = vec![batch.clone()];
        let t = Instant::now();
        let span = tracer.begin("client.ingest", i as u64);
        let result = client.ingest(SESSION, request);
        tracer.end(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(_) => log.lat_ms.push(ms),
            Err(e) => {
                log.error = Some(e);
                break;
            }
        }
    }
    log.window_s = start.elapsed().as_secs_f64();
    log
}

/// What a restarted daemon must come back as: the durable round, the
/// local session's checkpoint there, and its answer to the mix's first
/// query.
struct Durable {
    round: u64,
    json: String,
    first: QueryOutcome,
}

/// One recovery from the durable directory `base`, timed: bind,
/// `Server::recover` and the first answered query. Untimed, the gates
/// follow: it lands at the durable round with the local answer, and with
/// `whole` its checkpoint is byte-identical to the local session's.
fn recover_once(
    ctx: &mut Ctx,
    base: &Path,
    durable: &Durable,
    first: &(NodeId, Query),
    i: u64,
    whole: bool,
    report: &mut Report,
) -> Result<f64, String> {
    let query = vec![first.clone()];
    let t = Instant::now();
    let span = ctx.tracer.begin("server.recover", i);
    let recovered = (|| {
        let server = bind(ctx, base)?;
        let found = server.recover(base, SESSION)?;
        let (daemon, mut clients) = Daemon::start(server, 1)?;
        let reply = clients[0].query(SESSION, query);
        Ok::<_, String>((found, daemon, clients, reply))
    })();
    ctx.tracer.end(span);
    let secs = t.elapsed().as_secs_f64();
    let failed = !matches!(&recovered, Ok((.., Ok(_))));
    let verb = if whole { "recover-whole" } else { "recover" };
    report.count(verb, 1, failed as u64);
    let (found, daemon, mut clients, reply) = recovered?;
    let reply = reply?;
    if found.sessions != [(SESSION.to_string(), durable.round)]
        || reply.watermark != durable.round
        || reply.outcomes != [durable.first.clone()]
    {
        return Err(format!(
            "gate: recovery found {:?} and answered {:?} at round {}; the durable round is {} and the local session answers {:?}",
            found.sessions, reply.outcomes, reply.watermark, durable.round, durable.first
        ));
    }
    if whole && clients[0].checkpoint(SESSION)?.to_json() != durable.json {
        return Err(format!(
            "gate: the state recovered at round {} differs from the local session's",
            durable.round
        ));
    }
    daemon.stop()?;
    Ok(secs)
}

/// The durable round `list` reports for the session.
fn durable_round(client: &mut Client) -> Result<u64, String> {
    let listing = client.list()?;
    listing
        .get("sessions")
        .and_then(Value::as_array)
        .and_then(|all| {
            all.iter()
                .find(|s| s.get("session").and_then(Value::as_str) == Some(SESSION))
        })
        .and_then(|s| match s.get("durable") {
            Some(Value::U64(r)) => Some(*r),
            _ => None,
        })
        .ok_or_else(|| format!("`list` has no durable round for {SESSION:?}"))
}

/// Put `ops_per_s` (`rate` says over what) and `op_p50_ms`, `op_p90_ms`
/// of the operation `op`, from the successful operations' latencies
/// `lat_ms` plus `failed` ones, which miss every percentile.
fn put_ops(
    report: &mut Report,
    lat_ms: &[f64],
    failed: u64,
    secs: f64,
    rate: &str,
    op: &str,
) -> Result<(), String> {
    let n = lat_ms.len();
    report.put("ops_per_s", n as f64 / secs, "1/s", n, rate);
    for (name, p) in [("op_p50_ms", 50.0), ("op_p90_ms", 90.0)] {
        let v = percentile(lat_ms, failed, p).ok_or(format!("{op} p{p} is lost to failures"))?;
        report.put(name, v, "ms", n, format!("{op}, p{p}"));
    }
    Ok(())
}

fn put_setup(report: &mut Report, setup: &[f64]) {
    report.put(
        "setup_s",
        median(setup),
        "s",
        setup.len(),
        "cold start (bind, open, warm load, first answered query), median",
    );
}

/// Step the local session through the acked writes up to `round`; `base`
/// is the round the first write starts from.
fn replay(local: &mut Session, writes: &[EventBatch], base: u64, round: u64) {
    while local.round() < round {
        local.step(&writes[(local.round() - base) as usize]);
    }
}

pub fn run_ingest(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let writes = ctx.scale.write_cap * ctx.seconds as usize;
    let (inputs, warm) = prepare(ctx, writes, &mut report)?;
    let mut setup = Vec::new();
    let (daemon, mut writer, _) =
        cold_starts(ctx, &inputs, &warm, true, &mut setup, &mut report)?.expect("kept");
    let mut reader = Client::connect(&daemon.addr)?;

    // Measured phase: one writer streams rounds, one reader queries.
    let (window, hard_cap, min_ops) = (ctx.window(), ctx.hard_cap(), ctx.scale.min_ops);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let (mut wt, mut rt) = (ctx.tracer.fork(), ctx.tracer.fork());
    reset_peak_rss()?;
    let (w, r) = std::thread::scope(|s| {
        let writes = s.spawn(|| {
            barrier.wait();
            let start = Instant::now();
            let log = write_loop(&mut writer, &inputs.writes, &mut wt, |i| {
                let e = start.elapsed();
                (e < window || i < min_ops) && e < hard_cap
            });
            done.store(true, Ordering::Release);
            log
        });
        let reads = s.spawn(|| {
            barrier.wait();
            read_loop(&mut reader, &inputs.mix, &mut rt, SAMPLE_EVERY, |_| {
                !done.load(Ordering::Acquire)
            })
        });
        (
            writes.join().expect("writer thread"),
            reads.join().expect("reader thread"),
        )
    });
    let peak_mb = dds_net::peak_rss_mb();
    ctx.tracer.merge(wt);
    ctx.tracer.merge(rt);
    report.count("ingest", w.lat_ms.len() as u64 + w.failed(), w.failed());
    report.count("query", r.lat_ms.len() as u64 + r.failed, r.failed);
    if let Some(e) = &w.error {
        return Err(format!(
            "ingest failed after {} writes: {e}",
            w.lat_ms.len()
        ));
    }
    let acked = w.lat_ms.len();
    if acked < min_ops {
        return Err(format!(
            "ingest: only {acked} writes measured, need {min_ops}"
        ));
    }
    put_ops(
        &mut report,
        &w.lat_ms,
        w.failed(),
        w.window_s,
        "acked writes / the writer's window",
        "Client::ingest latency",
    )?;
    report.put(
        "peak_rss_mb",
        peak_mb,
        "MB",
        1,
        "VmHWM over the write burst",
    );
    let reads = r.lat_ms.len();
    println!(
        "  reads under writes: p50 {:.1} us over {reads} reads, {} answered, {} inconsistent, {} failed",
        percentile(&r.lat_ms, r.failed, 50.0).unwrap_or(f64::NAN) * 1e3,
        r.answered,
        r.inconsistent,
        r.failed
    );

    // Gates: replay the acked rounds locally; every sampled read equals the
    // local session at its watermark, and the final state is byte-identical.
    let served = writer.checkpoint(SESSION)?.to_json();
    Daemon::stop(daemon)?;
    cold_starts(ctx, &inputs, &warm, false, &mut setup, &mut report)?;
    put_setup(&mut report, &setup);
    let mut samples = r.samples;
    samples.sort_by_key(|s| s.0);
    if ctx.plant {
        if let Some(s) = samples.first_mut() {
            s.2 = corrupt(&s.2);
        }
    }
    let mut local = warm.session;
    let (base, last) = (local.round(), local.round() + acked as u64);
    for (watermark, idx, got) in &samples {
        if *watermark > last {
            return Err(format!(
                "gate: a read answered at round {watermark}, past the last acked round {last}"
            ));
        }
        replay(&mut local, &inputs.writes, base, *watermark);
        let (at, query) = &inputs.mix[*idx];
        let want = outcome(local.query(*at, query));
        if *got != want {
            return Err(format!(
                "gate: query {query:?} at v{} answered {got:?} at round {watermark}, the local session {want:?}",
                at.0
            ));
        }
    }
    replay(&mut local, &inputs.writes, base, last);
    if served != local.checkpoint().to_json() {
        return Err("gate: the served checkpoint differs from the local session's".into());
    }
    report.count("sampled-read", samples.len() as u64, 0);

    if ctx.traced() {
        let writes = &inputs.writes[..ctx.scale.probe_writes];
        layers::probe(ctx, &warm.snapshot, writes, &inputs.mix, &mut report)?;
    }
    Ok(report)
}

pub fn run_recover(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // The state to recover: the warm load plus a few writes, so the
    // durable round is past the warm one and short of the last acked one.
    let writes = 2 * ctx.scale.checkpoint_every as usize + 1;
    let (inputs, warm) = prepare(ctx, writes.max(ctx.scale.probe_writes), &mut report)?;
    let mut setup = Vec::new();
    let (daemon, mut writer, dir) =
        cold_starts(ctx, &inputs, &warm, true, &mut setup, &mut report)?.expect("kept");
    let w = write_loop(&mut writer, &inputs.writes, &mut ctx.tracer, |i| i < writes);
    report.count("ingest", w.lat_ms.len() as u64 + w.failed(), w.failed());
    if let Some(e) = w.error {
        return Err(format!("recover: ingest failed: {e}"));
    }
    let round = durable_round(&mut writer)?;
    drop(writer);
    daemon.stop()?;
    let base = warm.snapshot.header.round;
    if round < base || round > base + writes as u64 {
        return Err(format!("gate: durable round {round} is not an acked round"));
    }
    let mut local = ctx
        .registry
        .restore(&warm.snapshot)
        .map_err(|e| e.to_string())?;
    replay(&mut local, &inputs.writes, base, round);
    let first = &inputs.mix[0];
    let mut durable = Durable {
        round,
        json: local.checkpoint().to_json(),
        first: outcome(local.query(first.0, &first.1)),
    };
    if ctx.plant {
        durable.first = corrupt(&durable.first);
    }

    // Measured phase: restart the daemon from its directory, again and
    // again, until the clock runs out.
    let (window, hard_cap, min_ops) = (ctx.window(), ctx.hard_cap(), ctx.scale.min_ops);
    let mut lat_ms = Vec::new();
    reset_peak_rss()?;
    let start = Instant::now();
    while (start.elapsed() < window || lat_ms.len() < min_ops) && start.elapsed() < hard_cap {
        let i = lat_ms.len() as u64;
        lat_ms.push(recover_once(ctx, &dir, &durable, first, i, false, &mut report)? * 1e3);
    }
    let peak_mb = dds_net::peak_rss_mb();
    for i in 0..WHOLE_STATE_CHECKS {
        let i = lat_ms.len() as u64 + i;
        recover_once(ctx, &dir, &durable, first, i, true, &mut report)?;
    }
    if lat_ms.len() < min_ops {
        return Err(format!(
            "recover: only {} recoveries measured, need {min_ops}",
            lat_ms.len()
        ));
    }
    let busy = lat_ms.iter().sum::<f64>() / 1e3;
    put_ops(
        &mut report,
        &lat_ms,
        0,
        busy,
        "recoveries / time inside them",
        "recovery: bind + Server::recover + first answered query",
    )?;
    report.put("peak_rss_mb", peak_mb, "MB", 1, "VmHWM over the recoveries");
    cold_starts(ctx, &inputs, &warm, false, &mut setup, &mut report)?;
    put_setup(&mut report, &setup);

    if ctx.traced() {
        let writes = &inputs.writes[..ctx.scale.probe_writes];
        layers::probe(ctx, &warm.snapshot, writes, &inputs.mix, &mut report)?;
    }
    Ok(report)
}
