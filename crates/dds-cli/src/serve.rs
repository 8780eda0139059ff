//! `dds serve` — boot the long-lived query-serving daemon.
//!
//! ```text
//! dds serve --listen 127.0.0.1:7421
//! dds serve --listen 127.0.0.1:0 --resume checkpoint_000200.json --session main
//! dds serve --listen 127.0.0.1:7421 --protocol triangle --n 64 --session main
//! dds serve --listen 127.0.0.1:7421 --protocol triangle --n 64 \
//!           --checkpoint-dir state/ [--checkpoint-every 5]
//! dds serve --listen 127.0.0.1:7421 --recover state/
//! dds serve --listen 127.0.0.1:7421 --protocol two-hop --n 64 \
//!           --chaos seed=7,drop=0.05,torn=0.05,delay-ms=2
//! ```
//!
//! The daemon prints one `listening on ADDR` line (explicitly flushed so
//! scripts scraping an ephemeral `:0` port see it immediately), serves
//! until SIGTERM/SIGINT or a `shutdown` verb, then drains its connection
//! threads and prints a final counters line — a graceful exit is exit
//! code 0.
//!
//! With `--checkpoint-dir D` every session persists snapshots under
//! `D/<session>/` after each write verb (or every K-th with
//! `--checkpoint-every K`), atomically (tmp + fsync + rename), *before*
//! the write is acknowledged. After a crash — even `kill -9` —
//! `--recover D` warm-starts every session from its newest valid
//! snapshot, skipping corrupt or truncated tails, and keeps persisting
//! into the same directories. `--chaos SPEC` arms the deterministic
//! fault-injection plan (see `FaultPlan::parse`) for drills: injected
//! crashes abort the process so recovery is exercised for real.

use crate::args::Args;
use dds_net::serving::{FaultPlan, Server, ServerHandle, ServerOptions, ServingSession};
use dds_net::{SimConfig, Snapshot};
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

/// The running server's stop handle, stashed for the signal handler.
/// `ServerHandle::stop` is one atomic store, so calling it from the
/// handler is async-signal-safe; `OnceLock::get` is an atomic load.
static HANDLE: OnceLock<ServerHandle> = OnceLock::new();

#[cfg(unix)]
fn install_termination_handlers(handle: ServerHandle) {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_terminate(_signum: i32) {
        if let Some(handle) = HANDLE.get() {
            handle.stop();
        }
    }
    let _ = HANDLE.set(handle);
    unsafe {
        signal(SIGTERM, on_terminate as *const () as usize);
        signal(SIGINT, on_terminate as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_termination_handlers(handle: ServerHandle) {
    let _ = HANDLE.set(handle);
}

/// Build [`ServerOptions`] from the fault-tolerance flags.
fn server_options(args: &Args) -> Result<ServerOptions, String> {
    let mut options = ServerOptions::default();
    if let Some(spec) = args.options.get("chaos") {
        // The CLI runs chaos "hard": injected crash points abort the
        // process, so recovery drills exercise the same path as kill -9.
        options.faults = Some(FaultPlan::parse(spec)?.hard());
    }
    let recover_dir = args.options.get("recover");
    let checkpoint_dir = args.options.get("checkpoint-dir").or(recover_dir);
    if let Some(dir) = checkpoint_dir {
        let every: u64 = args.num_or("checkpoint-every", 1)?;
        if every == 0 {
            return Err("--checkpoint-every must be >= 1".into());
        }
        options.durability = Some(dds_net::serving::DurabilityOptions {
            base: std::path::PathBuf::from(dir),
            every,
        });
    } else if args.options.contains_key("checkpoint-every") {
        return Err("--checkpoint-every needs --checkpoint-dir DIR".into());
    }
    options.max_sessions = args.num_or("max-sessions", 0)?;
    if let Some(secs) = args.options.get("idle-timeout-secs") {
        let secs: u64 = secs
            .parse()
            .map_err(|e| format!("--idle-timeout-secs: {e}"))?;
        if secs == 0 {
            return Err("--idle-timeout-secs must be >= 1".into());
        }
        options.idle_timeout = Some(Duration::from_secs(secs));
    }
    Ok(options)
}

/// Run the daemon until it is told to stop.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = args.get_or("listen", "127.0.0.1:7421");
    let registry = dds_bench::protocols();
    let options = server_options(args)?;
    let chaos_banner = options.faults.as_ref().map(|p| p.describe());
    let server =
        Server::bind_with(listen, registry, options).map_err(|e| format!("bind {listen}: {e}"))?;

    // Recover first, then pre-open: a --recover'd session takes priority
    // over --protocol/--n for the same name (warm state wins over fresh).
    if let Some(dir) = args.options.get("recover") {
        let default_session = args.get_or("session", "main");
        let report = server
            .recover(std::path::Path::new(dir), default_session)
            .map_err(|e| format!("--recover {dir}: {e}"))?;
        for ((name, round), stages) in report.sessions.iter().zip(&report.stages) {
            println!("recovered session {name:?} at round {round} ({stages})");
        }
        for (path, reason) in &report.skipped {
            eprintln!("recover: skipped {}: {reason}", path.display());
        }
        if report.sessions.is_empty() {
            println!("recover: no recoverable sessions under {dir}");
        }
    }

    // Pre-open sessions before accepting traffic, so the first client
    // request already sees them: either a warm start from a snapshot or a
    // fresh session from --protocol/--n. Clients can always open more via
    // the `open` verb.
    let preopened = |server: &Server, name: &str| {
        server
            .handle()
            .state()
            .directory
            .all()
            .iter()
            .any(|s| s.name == name)
    };
    if let Some(path) = args.options.get("resume") {
        let snap = Snapshot::read_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        let name = args.get_or("session", "main");
        let session = ServingSession::open_from_snapshot(registry, name, &snap)?;
        let round = session.view().round;
        server.open_session(session)?;
        println!(
            "session {name}: warm-started from {path} — {} on {} nodes at round {round}",
            snap.header.protocol, snap.header.n
        );
    } else if let Some(protocol) = args.options.get("protocol") {
        let name = args.get_or("session", "main");
        if preopened(&server, name) {
            println!("session {name}: already recovered; ignoring --protocol/--n");
        } else {
            let n: usize = args.num_or("n", 64)?;
            let cfg = SimConfig {
                engine: crate::run::engine_from(args)?,
                shards: crate::run::shards_from(args)?,
                ..SimConfig::default()
            };
            server.open_session(ServingSession::open(registry, name, protocol, n, cfg)?)?;
            println!("session {name}: fresh {protocol} on {n} nodes");
        }
    }

    if let Some(banner) = chaos_banner {
        println!("dds serve: chaos armed — {banner}");
    }
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.handle();
    install_termination_handlers(handle.clone());
    println!("dds serve: listening on {addr}");
    // Stdout is block-buffered when piped; the port announcement must not
    // sit in the buffer while a script waits for it.
    std::io::stdout().flush().ok();

    server.run().map_err(|e| format!("serve: {e}"))?;

    let state = handle.state();
    let m = &state.metrics;
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "dds serve: shut down cleanly — {} connection(s), {} request(s) \
         ({} answered with an error), {} query(s) answered, {} in / {} out bytes",
        m.connections.load(Relaxed),
        m.requests.load(Relaxed),
        m.request_errors.load(Relaxed),
        m.answered.load(Relaxed),
        m.bytes_in.load(Relaxed),
        m.bytes_out.load(Relaxed),
    );
    Ok(())
}
