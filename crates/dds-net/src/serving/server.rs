//! The serve daemon: a `std::net` TCP accept loop, one thread per
//! connection, dispatching wire verbs onto the session directory.
//!
//! No async runtime and no new dependencies — connections are cheap
//! threads blocking on `read`, and the accept loop polls a nonblocking
//! listener so it can notice the stop flag. Shutdown (SIGTERM via the
//! CLI, or the `shutdown` verb) is graceful: the accept loop stops taking
//! connections and shuts down the read half of every live connection, so
//! an idle handler's blocked read returns end-of-stream at once and a busy
//! one finishes its current request first; `run` then joins them all and
//! closes every session before returning.
//!
//! [`ServerOptions`] adds the fault-tolerance layer: a seeded
//! [`FaultPlan`] injected into every response write (chaos testing), a
//! durability base directory (persist-before-ack snapshots per session),
//! a session cap with typed `[overloaded]` rejections, idle-timeout
//! eviction with typed `[evicted]` lookups, and a per-connection frame
//! read budget so a slow-loris peer costs one connection, never the
//! daemon. Per-request caps ([`wire::MAX_STEP_ROUNDS`],
//! [`wire::MAX_INGEST_BATCHES`], [`wire::MAX_OPEN_N`]) refuse a hostile
//! but well-formed request `[too-large]` before it can hold a session's
//! writer lock for good or allocate at will.

use super::fault::{ConnFaults, FaultPlan, WriteFault};
use super::metrics::ServerMetrics;
use super::state::{
    path_safe, recover_sessions, Directory, Durability, RecoveryReport, ServingSession,
};
use super::wire::{self, Request};
use crate::checkpoint::Snapshot;
use crate::engine::ProtocolRegistry;
use crate::protocol::Response;
use crate::sim::SimConfig;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// How often the accept loop sweeps for idle sessions.
const EVICT_SWEEP: Duration = Duration::from_millis(500);

/// Where a daemon persists its sessions.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Base directory: each session persists into `base/<name>/`.
    pub base: PathBuf,
    /// Persist after every `every`-th write verb (1 = every write).
    pub every: u64,
}

/// Daemon configuration beyond the listen address.
pub struct ServerOptions {
    /// Seeded fault-injection plan (`--chaos`); `None` = no faults.
    pub faults: Option<FaultPlan>,
    /// Persist sessions under this base directory (`--checkpoint-dir`).
    pub durability: Option<DurabilityOptions>,
    /// Maximum live sessions, 0 = unlimited (`--max-sessions`).
    pub max_sessions: usize,
    /// Evict sessions idle longer than this (`--idle-timeout-secs`).
    pub idle_timeout: Option<Duration>,
    /// Per-connection frame read budget: once a frame starts arriving it
    /// must complete within this long.
    pub frame_budget: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            faults: None,
            durability: None,
            max_sessions: 0,
            idle_timeout: None,
            frame_budget: Duration::from_secs(30),
        }
    }
}

/// Shared daemon state: directory + metrics + the stop flag.
pub struct ServerState {
    /// The named-session directory.
    pub directory: Directory,
    /// Process-wide counters and gauges.
    pub metrics: ServerMetrics,
    stop: AtomicBool,
    started: Instant,
    faults: Option<FaultPlan>,
    durability: Option<DurabilityOptions>,
    frame_budget: Duration,
    idle_timeout: Option<Duration>,
}

impl ServerState {
    /// Stop requested, or the fault plan's crash fired (a crashed daemon
    /// goes silent — no accepts, no responses).
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.crashed()
    }

    fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| p.crashed())
    }
}

/// A cheap cloneable handle onto a running server: stop it, inspect it.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Ask the server to shut down gracefully. Async-signal-safe (one
    /// atomic store), so the CLI calls this from its SIGTERM handler.
    pub fn stop(&self) {
        self.state.stop.store(true, Ordering::Release);
    }

    /// Has a stop been requested?
    pub fn stopping(&self) -> bool {
        self.state.stop.load(Ordering::Acquire)
    }

    /// Did an injected (soft) crash fire? After this the daemon is
    /// silent: tests recover from disk exactly as after a real crash.
    pub fn crashed(&self) -> bool {
        self.state.crashed()
    }

    /// The shared state (directory + metrics), for in-process inspection.
    pub fn state(&self) -> &ServerState {
        &self.state
    }
}

/// A bound, not-yet-running serve daemon.
pub struct Server {
    listener: TcpListener,
    registry: &'static ProtocolRegistry,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listen address (use port 0 for an ephemeral port — tests
    /// and the loadgen harness read it back via [`Server::local_addr`])
    /// with default options: no faults, no durability, no limits.
    pub fn bind(addr: &str, registry: &'static ProtocolRegistry) -> io::Result<Server> {
        Server::bind_with(addr, registry, ServerOptions::default())
    }

    /// Bind with explicit [`ServerOptions`].
    pub fn bind_with(
        addr: &str,
        registry: &'static ProtocolRegistry,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let directory = Directory::default();
        directory.set_session_cap(options.max_sessions);
        Ok(Server {
            listener,
            registry,
            state: Arc::new(ServerState {
                directory,
                metrics: ServerMetrics::default(),
                stop: AtomicBool::new(false),
                started: Instant::now(),
                faults: options.faults,
                durability: options.durability,
                frame_budget: options.frame_budget,
                idle_timeout: options.idle_timeout,
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stopping/inspecting the server from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Pre-open a session before serving (the `--resume` warm start and
    /// `--open` boot paths). It is admitted as the `open` verb admits one:
    /// on a daemon with a checkpoint base, it is on disk before any write
    /// can reach it.
    pub fn open_session(&self, session: ServingSession) -> Result<(), String> {
        admit(&self.state, session)?;
        Ok(())
    }

    /// Scan `base` and warm-start every recoverable session from its
    /// newest valid snapshot (`--recover`). Corrupt or truncated tails
    /// are skipped and reported. Recovered sessions keep persisting into
    /// the directories they were recovered from.
    ///
    /// Recovery writes nothing: each session is admitted with its durable
    /// round (its snapshot's), dedup record and cadence already set, and
    /// its next persisting write comes `every` writes later. Only
    /// [`Server::open_session`] and the `open` verb persist at once.
    pub fn recover(&self, base: &Path, default_session: &str) -> Result<RecoveryReport, String> {
        let every = self.state.durability.as_ref().map_or(1, |d| d.every);
        let (sessions, report) = recover_sessions(self.registry, base, default_session)?;
        for (mut session, dir) in sessions {
            session.resume_durability(Durability { dir, every });
            self.state.directory.admit(session, None)?;
        }
        Ok(report)
    }

    /// Run the accept loop until a stop is requested (or an injected crash
    /// fires), then end every connection's reads, join every connection
    /// thread and close every session. Blocking — callers wanting an
    /// in-process server spawn this on a thread and keep the
    /// [`ServerHandle`].
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // Each live connection's handler thread, next to a second handle
        // on its socket that the loop uses to end the handler's reads.
        let mut workers: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
        let mut last_sweep = Instant::now();
        while !self.state.stopping() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // A connection the loop could not end at shutdown is
                    // refused: dropping the stream closes it.
                    let Ok(peer) = stream.try_clone() else {
                        continue;
                    };
                    let conn_id = self
                        .state
                        .metrics
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let state = Arc::clone(&self.state);
                    let registry = self.registry;
                    let handler = std::thread::spawn(move || {
                        serve_connection(stream, conn_id, registry, &state);
                    });
                    workers.push((handler, peer));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(e),
            }
            if let Some(timeout) = self.state.idle_timeout {
                if last_sweep.elapsed() >= EVICT_SWEEP {
                    last_sweep = Instant::now();
                    self.state.directory.evict_idle(timeout);
                }
            }
            // Reap finished handlers so a long-lived daemon does not
            // accumulate dead join handles or open sockets.
            workers.retain(|(h, _)| !h.is_finished());
        }
        // A read blocked between frames returns end-of-stream once its read
        // half is shut down, so an idle client cannot hold up the stop; a
        // handler mid-request still writes its reply, then reads EOF.
        for (_, peer) in &workers {
            let _ = peer.shutdown(Shutdown::Read);
        }
        for (h, _) in workers {
            let _ = h.join();
        }
        // Free the sessions here, on the accept-loop thread, rather than
        // wherever the last handle is dropped: handles outlive the daemon
        // (the CLI keeps one for its shutdown banner), its state should not.
        self.state.directory.close_all();
        Ok(())
    }
}

/// Admit a newly opened session (the `open` verb and
/// [`Server::open_session`]). On a daemon with a checkpoint base the
/// session persists into `base/<name>/`, and [`Directory::admit`] keeps
/// every write off it until its first snapshot is there.
fn admit(state: &ServerState, session: ServingSession) -> Result<Arc<ServingSession>, String> {
    let durability = state.durability.as_ref().map(|d| Durability {
        dir: d.base.join(&session.name),
        every: d.every,
    });
    state.directory.admit(session, durability)
}

/// One connection: read frames, dispatch, write responses, until the
/// peer closes, a wire error occurs, or the server stops (which shuts
/// down the connection's read half). Response writes pass through the
/// fault plan's per-connection decision stream.
fn serve_connection(
    mut stream: TcpStream,
    conn_id: u64,
    registry: &'static ProtocolRegistry,
    state: &ServerState,
) {
    // The read timeout wakes a read stalled mid-frame so the frame budget
    // can cut off a slow peer; between frames a timeout just keeps waiting.
    let _ = stream.set_read_timeout(Some(POLL * 4));
    let _ = stream.set_nodelay(true);
    let mut conn_faults = state.faults.as_ref().map(|p| p.connection(conn_id));
    loop {
        let frame = wire::read_frame_budget(&mut stream, state.frame_budget);
        let (payload, nread) = match frame {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close, or stop between frames
            Err(_) => return,   // torn frame, budget blown, or dead peer
        };
        state
            .metrics
            .bytes_in
            .fetch_add(nread as u64, Ordering::Relaxed);
        state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let (response, shutdown) = handle_payload(&payload, registry, state);
        if response.get("ok") != Some(&Value::Bool(true)) {
            state.metrics.request_errors.fetch_add(1, Ordering::Relaxed);
        }
        // A crashed process does not talk: after an injected crash the
        // reply (for the crashing request *and* everything queued behind
        // it) is never written — exactly what a real kill -9 leaves.
        if state.crashed() {
            return;
        }
        let bytes = serde_json::to_string(&response)
            .expect("json write is infallible")
            .into_bytes();
        if !write_response(&mut stream, &bytes, conn_faults.as_mut(), state) {
            return;
        }
        if shutdown {
            state.stop.store(true, Ordering::Release);
            return;
        }
    }
}

/// Write one response frame through the fault injector. Returns whether
/// the connection stays usable.
fn write_response(
    stream: &mut TcpStream,
    bytes: &[u8],
    conn_faults: Option<&mut ConnFaults>,
    state: &ServerState,
) -> bool {
    if let Some(faults) = conn_faults {
        if let Some(delay) = faults.delay() {
            std::thread::sleep(delay);
        }
        match faults.next_write() {
            WriteFault::Deliver => {}
            WriteFault::Drop => return false,
            WriteFault::Torn => {
                let cut = faults.pick_index(bytes.len());
                let _ = wire::write_torn_frame(stream, bytes, cut);
                return false;
            }
            WriteFault::Corrupt => {
                // The frame is fully written, just damaged — the client's
                // checksum check turns it into a typed transport error.
                let flip_at = faults.pick_index(bytes.len());
                if wire::write_corrupt_frame(stream, bytes, flip_at).is_err() {
                    return false;
                }
                state.metrics.bytes_out.fetch_add(
                    (bytes.len() + wire::FRAME_HEADER_BYTES) as u64,
                    Ordering::Relaxed,
                );
                return true;
            }
        }
    }
    match wire::write_frame(stream, bytes) {
        Ok(nwrote) => {
            state
                .metrics
                .bytes_out
                .fetch_add(nwrote as u64, Ordering::Relaxed);
            true
        }
        Err(_) => false,
    }
}

/// Parse and dispatch one request payload. Returns the response and
/// whether the daemon should shut down after sending it.
fn handle_payload(
    payload: &[u8],
    registry: &'static ProtocolRegistry,
    state: &ServerState,
) -> (Value, bool) {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => return (wire::err_response("request frame is not UTF-8"), false),
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return (
                wire::err_response(&format!("request is not JSON: {e}")),
                false,
            )
        }
    };
    let request = match Request::from_value(&value) {
        Ok(r) => r,
        Err(e) => return (wire::err_response(&e), false),
    };
    if matches!(request, Request::Shutdown) {
        return (
            wire::ok_response(vec![("stopping", Value::Bool(true))]),
            true,
        );
    }
    match handle_request(request, registry, state) {
        Ok(response) => (response, false),
        Err(e) => (error_value(&e), false),
    }
}

/// Turn an internal error string into the wire envelope, extracting the
/// `[code] message` convention ([`Directory`] uses it for `overloaded`
/// and `evicted`, the request caps for `too-large`) into the typed `code`
/// field.
fn error_value(e: &str) -> Value {
    if let Some(rest) = e.strip_prefix('[') {
        if let Some((code, message)) = rest.split_once("] ") {
            if !code.is_empty() && code.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                return wire::err_response_coded(code, message);
            }
        }
    }
    wire::err_response(e)
}

/// Refuse a request whose `what` exceeds its per-request cap with a typed
/// `[too-large]` error, before any work: nothing is applied, published,
/// persisted or recorded for dedup.
fn too_large(verb: &str, what: &str, value: u64, cap: u64) -> Result<(), String> {
    if value > cap {
        return Err(format!(
            "[too-large] {verb}: {what} {value} is over the per-request cap of {cap}"
        ));
    }
    Ok(())
}

/// Execute one (non-shutdown) verb against the directory.
fn handle_request(
    request: Request,
    registry: &'static ProtocolRegistry,
    state: &ServerState,
) -> Result<Value, String> {
    let faults = state.faults.as_ref();
    match request {
        Request::Open {
            session,
            protocol,
            n,
            engine,
            shards,
            snapshot,
        } => {
            if let Some(n) = n {
                too_large("open", "n", n as u64, wire::MAX_OPEN_N as u64)?;
            }
            if state.durability.is_some() && !path_safe(&session) {
                return Err(format!(
                    "open: session name {session:?} is not usable as a checkpoint \
                     directory (allowed: ASCII alphanumerics, '.', '_', '-', not \
                     dot-leading)"
                ));
            }
            let serving = match snapshot {
                Some(doc) => {
                    let snap = Snapshot::from_json(&doc).map_err(|e| e.to_string())?;
                    too_large(
                        "open",
                        "the snapshot's n",
                        snap.header.n as u64,
                        wire::MAX_OPEN_N as u64,
                    )?;
                    if let Some(p) = &protocol {
                        if *p != snap.header.protocol {
                            return Err(format!(
                                "open: requested protocol {p:?} but the snapshot holds {:?}",
                                snap.header.protocol
                            ));
                        }
                    }
                    ServingSession::open_from_snapshot(registry, &session, &snap)?
                }
                None => {
                    let protocol =
                        protocol.ok_or("open: a fresh session needs a `protocol` name")?;
                    let n = n.ok_or("open: a fresh session needs `n`")?;
                    let cfg = SimConfig {
                        engine: engine.as_deref().unwrap_or("sparse").parse()?,
                        shards: shards.as_deref().unwrap_or("auto").parse()?,
                        ..SimConfig::default()
                    };
                    ServingSession::open(registry, &session, &protocol, n, cfg)?
                }
            };
            let arc = admit(state, serving)?;
            let view = arc.view();
            Ok(wire::ok_response(vec![
                ("session", Value::Str(arc.name.clone())),
                ("protocol", Value::Str(view.session.protocol().to_string())),
                ("n", Value::U64(view.session.n() as u64)),
                ("watermark", Value::U64(view.round)),
            ]))
        }
        Request::Ingest {
            session,
            batches,
            seq,
        } => {
            too_large(
                "ingest",
                "batch count",
                batches.len() as u64,
                wire::MAX_INGEST_BATCHES as u64,
            )?;
            let serving = state.directory.get(&session)?;
            let watermark = serving.ingest(registry, &batches, seq, faults)?;
            state
                .metrics
                .rounds
                .fetch_add(batches.len() as u64, Ordering::Relaxed);
            Ok(wire::ok_response(vec![
                ("watermark", Value::U64(watermark)),
                ("rounds", Value::U64(batches.len() as u64)),
            ]))
        }
        Request::Step {
            session,
            rounds,
            seq,
        } => {
            too_large("step", "rounds", rounds, wire::MAX_STEP_ROUNDS)?;
            let serving = state.directory.get(&session)?;
            let watermark = serving.step_quiet(rounds, seq, faults)?;
            state.metrics.rounds.fetch_add(rounds, Ordering::Relaxed);
            Ok(wire::ok_response(vec![
                ("watermark", Value::U64(watermark)),
                ("rounds", Value::U64(rounds)),
            ]))
        }
        Request::Query { session, queries } => {
            let serving = state.directory.get(&session)?;
            // The whole read path: clone the published Arc (the only lock,
            // held for a pointer copy) and answer on the frozen view.
            let view = serving.view();
            let metrics = &state.metrics;
            let mut results = Vec::with_capacity(queries.len());
            for (at, query) in &queries {
                metrics.queries.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let outcome = view.session.query(*at, query);
                metrics.latency.record(t0.elapsed().as_secs_f64());
                results.push(match outcome {
                    Ok(Response::Answer(a)) => {
                        metrics.answered.fetch_add(1, Ordering::Relaxed);
                        Value::Obj(vec![
                            ("status".into(), Value::Str("answer".into())),
                            ("value".into(), a.to_value()),
                        ])
                    }
                    Ok(Response::Inconsistent) => {
                        metrics.inconsistent.fetch_add(1, Ordering::Relaxed);
                        Value::Obj(vec![("status".into(), Value::Str("inconsistent".into()))])
                    }
                    Err(e) => {
                        metrics.query_errors.fetch_add(1, Ordering::Relaxed);
                        Value::Obj(vec![
                            ("status".into(), Value::Str("error".into())),
                            ("error".into(), Value::Str(e)),
                        ])
                    }
                });
            }
            Ok(wire::ok_response(vec![
                ("watermark", Value::U64(view.round)),
                ("results", Value::Arr(results)),
            ]))
        }
        Request::List => {
            let sessions = state
                .directory
                .all()
                .into_iter()
                .map(|serving| {
                    let view = serving.view();
                    let kinds: Vec<Value> = view
                        .session
                        .supported_queries()
                        .iter()
                        .map(|k| Value::Str(k.name().to_string()))
                        .collect();
                    Value::Obj(vec![
                        ("session".into(), Value::Str(serving.name.clone())),
                        (
                            "protocol".into(),
                            Value::Str(view.session.protocol().to_string()),
                        ),
                        ("n".into(), Value::U64(view.session.n() as u64)),
                        ("watermark".into(), Value::U64(view.round)),
                        ("durable".into(), Value::U64(serving.durable_round())),
                        ("supported_queries".into(), Value::Arr(kinds)),
                        ("summary".into(), view.session.summary().to_value()),
                    ])
                })
                .collect();
            Ok(wire::ok_response(vec![("sessions", Value::Arr(sessions))]))
        }
        Request::Stats => {
            let uptime = state.started.elapsed().as_secs_f64();
            let sessions = state
                .directory
                .all()
                .into_iter()
                .map(|serving| {
                    let view = serving.view();
                    let rounds = serving.rounds_served.load(Ordering::Relaxed);
                    Value::Obj(vec![
                        ("session".into(), Value::Str(serving.name.clone())),
                        ("watermark".into(), Value::U64(view.round)),
                        ("durable".into(), Value::U64(serving.durable_round())),
                        ("rounds_served".into(), Value::U64(rounds)),
                        (
                            "rounds_per_sec".into(),
                            Value::F64(view.session.summary().rounds_per_sec),
                        ),
                        (
                            "peak_active".into(),
                            Value::U64(serving.peak_active.load(Ordering::Relaxed)),
                        ),
                        (
                            "inconsistent_nodes".into(),
                            Value::U64(view.session.inconsistent_nodes() as u64),
                        ),
                        ("write_stages_us".into(), serving.write_stages.to_value()),
                    ])
                })
                .collect();
            Ok(wire::ok_response(vec![
                ("server", state.metrics.to_value(uptime)),
                ("sessions", Value::Arr(sessions)),
            ]))
        }
        Request::Checkpoint { session } => {
            let serving = state.directory.get(&session)?;
            let snap = serving.checkpoint();
            Ok(wire::ok_response(vec![
                ("watermark", Value::U64(snap.header.round)),
                ("snapshot", Value::Str(snap.to_json())),
            ]))
        }
        Request::Close { session } => {
            state.directory.close(&session)?;
            Ok(wire::ok_response(vec![("closed", Value::Str(session))]))
        }
        Request::Shutdown => unreachable!("handled in handle_payload"),
    }
}
