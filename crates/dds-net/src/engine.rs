//! The engine layer: one driver for every frontend.
//!
//! Running "protocol X over trace Y under config Z and summarizing the
//! meters" used to be copy-pasted between the CLI, the experiment runners
//! and the seed sweeps. This module is the single implementation:
//!
//! - [`drive`] replays a recorded [`Trace`] through a fresh simulator, and
//!   [`drive_source`] streams any [`TraceSource`] through one without ever
//!   materializing the schedule;
//! - [`run_trace_as`] / [`run_source_as`] do the same and condense the
//!   meters into a [`RunSummary`] (with wall-clock rounds/sec and the peak
//!   process RSS delta);
//! - [`ProtocolRegistry`] maps protocol *names* to [`Session`] openers so
//!   frontends can dispatch dynamically without a hand-maintained `match`
//!   per call site: [`ProtocolRegistry::open`] hands out a live,
//!   type-erased, queryable run, and `run`/`run_stream` are thin
//!   run-to-completion wrappers over it. The registry entries for the
//!   concrete protocols live in `dds-bench::driver` (the one crate that
//!   depends on every protocol implementation); this module only provides
//!   the machinery.

use crate::checkpoint::{Checkpointable, RestoreError, Snapshot};
use crate::protocol::Node;
use crate::query::{QueryKind, Queryable};
use crate::session::Session;
use crate::sim::{SimConfig, Simulator};
use crate::source::TraceSource;
use crate::trace::Trace;
use serde::Serialize;
use std::time::Instant;

/// End-of-run summary of one simulation: the meters every experiment and
/// CLI invocation reports, plus wall-clock throughput.
#[derive(Clone, Debug, Serialize)]
pub struct RunSummary {
    /// Protocol name.
    pub protocol: String,
    /// Nodes.
    pub n: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Total topology changes.
    pub changes: u64,
    /// Rounds with at least one inconsistent node.
    pub inconsistent_rounds: u64,
    /// Paper amortized measure (prefix-max, global changes).
    pub amortized: f64,
    /// Footnote amortized measure (max changes at a node as divisor).
    pub footnote_amortized: f64,
    /// Total payload messages.
    pub messages: u64,
    /// Total bits transmitted.
    pub bits: u64,
    /// Per-link per-round budget in bits.
    pub budget_bits: u64,
    /// Budget violations (0 for all CONGEST protocols).
    pub violations: u64,
    /// Edges present after the final round.
    pub final_edges: usize,
    /// Wall-clock seconds spent replaying the trace.
    pub seconds: f64,
    /// Simulated rounds per wall-clock second.
    pub rounds_per_sec: f64,
    /// Busiest round by payload messages (0 unless `record_stats`).
    pub peak_round_messages: u64,
    /// Busiest round by transmitted bits (0 unless `record_stats`).
    pub peak_round_bits: u64,
    /// Most nodes visited by the round engine in any round (0 unless
    /// `record_stats`; always `n` for non-trivial dense runs — the sparse
    /// engine's activity ceiling is the interesting number).
    pub peak_round_active: usize,
    /// Growth of this process's peak resident set size in MiB over the
    /// run: `VmHWM` at summary time minus a baseline captured when the run
    /// (or [`Session`]) started; 0 on non-Linux platforms.
    ///
    /// Caveat: `VmHWM` is a monotone process-wide high-water mark, so the
    /// delta *attributes* growth, it cannot isolate it — if an earlier run
    /// in the same process peaked higher than this run ever reaches, the
    /// delta reads 0 (an underestimate), and concurrent runs (`--jobs`)
    /// all observe the same shared peak. Single-run processes (the CI
    /// perf-smoke `dds simulate --stream` invocation) are the authoritative
    /// measurement.
    pub peak_rss_mb: f64,
    /// Shard count of the final round (1 for unsharded runs; under
    /// [`Shards::Auto`](crate::Shards::Auto) the per-round count follows
    /// the active-set size).
    pub shards: usize,
    /// Per-shard peak receiver-set sizes over the whole run, indexed by
    /// shard — how evenly the id-range partition spread the activity.
    pub per_shard_peak_active: Vec<usize>,
    /// Daemon worker threads in the process-wide pool (0 means every
    /// sharded region ran inline). A pool property, not a run property —
    /// reported here so JSON consumers see the execution substrate.
    pub pool_workers: usize,
}

/// Replay a recorded trace through a fresh simulator and return it for
/// inspection (queries, meters, topology).
pub fn drive<N: Node>(trace: &Trace, cfg: SimConfig) -> Simulator<N> {
    let mut sim: Simulator<N> = Simulator::with_config(trace.n, cfg);
    for batch in &trace.batches {
        sim.step(batch);
    }
    sim
}

/// Drive a fresh simulator from a streaming source. Exactly one batch is
/// alive at a time, so memory stays bounded by the generator state plus
/// the simulator itself, independent of run length or change volume.
pub fn drive_source<N: Node>(src: &mut dyn TraceSource, cfg: SimConfig) -> Simulator<N> {
    let mut sim: Simulator<N> = Simulator::with_config(src.n(), cfg);
    while let Some(batch) = src.next_batch() {
        sim.step(&batch);
    }
    sim
}

/// Replay a trace as protocol `N` and summarize the meters.
pub fn run_trace_as<N: Node>(name: &str, trace: &Trace, cfg: SimConfig) -> RunSummary {
    let rss_baseline = peak_rss_mb();
    let start = Instant::now();
    let sim: Simulator<N> = drive(trace, cfg);
    summarize(name, &sim, start.elapsed().as_secs_f64(), rss_baseline)
}

/// Stream a source through protocol `N` and summarize the meters.
pub fn run_source_as<N: Node>(name: &str, src: &mut dyn TraceSource, cfg: SimConfig) -> RunSummary {
    let rss_baseline = peak_rss_mb();
    let start = Instant::now();
    let sim: Simulator<N> = drive_source(src, cfg);
    summarize(name, &sim, start.elapsed().as_secs_f64(), rss_baseline)
}

/// Peak resident set size of this process in MiB (Linux `VmHWM` from
/// `/proc/self/status`; 0.0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Some(kb) = rest
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                    {
                        return kb / 1024.0;
                    }
                }
            }
        }
    }
    0.0
}

/// Condense a finished simulator's meters into a [`RunSummary`].
/// `rss_baseline_mb` is the process `VmHWM` captured when the run started;
/// the summary reports the growth over it (see
/// [`RunSummary::peak_rss_mb`] for the residual attribution caveat).
pub fn summarize<N: Node>(
    name: &str,
    sim: &Simulator<N>,
    seconds: f64,
    rss_baseline_mb: f64,
) -> RunSummary {
    let rounds = sim.meter().rounds();
    RunSummary {
        protocol: name.to_string(),
        n: sim.n(),
        rounds,
        changes: sim.meter().changes(),
        inconsistent_rounds: sim.meter().inconsistent_rounds(),
        amortized: sim.meter().amortized(),
        footnote_amortized: sim.per_node_meter().footnote_amortized(),
        messages: sim.bandwidth().total_messages(),
        bits: sim.bandwidth().total_bits(),
        budget_bits: sim.bandwidth().budget_bits(),
        violations: sim.bandwidth().violations(),
        final_edges: sim.topology().edge_count(),
        seconds,
        rounds_per_sec: if seconds > 0.0 {
            rounds as f64 / seconds
        } else {
            0.0
        },
        peak_round_messages: sim.stats().iter().map(|s| s.messages).max().unwrap_or(0),
        peak_round_bits: sim.stats().iter().map(|s| s.bits).max().unwrap_or(0),
        peak_round_active: sim
            .stats()
            .iter()
            .map(|s| s.active_nodes)
            .max()
            .unwrap_or(0),
        peak_rss_mb: (peak_rss_mb() - rss_baseline_mb).max(0.0),
        shards: sim.shards(),
        per_shard_peak_active: sim.shard_peak_active().to_vec(),
        pool_workers: crate::pool::Pool::global().workers(),
    }
}

/// A boxed session opener: nodes + config in, live type-erased run out.
/// Everything a registered protocol can do — run to completion, stream,
/// answer queries — goes through the [`Session`] this produces.
pub type Opener = Box<dyn Fn(usize, SimConfig) -> Session + Send + Sync>;

/// A boxed session restorer: validated snapshot in, live type-erased run
/// out, resumed at the snapshot's round.
pub type Restorer = Box<dyn Fn(&Snapshot) -> Result<Session, RestoreError> + Send + Sync>;

/// A named, runnable, queryable protocol: the registry entry.
pub struct ProtocolSpec {
    /// Registry name (what `--protocol` matches).
    pub name: &'static str,
    /// One-line description for `dds list`.
    pub summary: &'static str,
    /// Query kinds this protocol answers (capability discovery without
    /// instantiating a network).
    supported: &'static [QueryKind],
    opener: Opener,
    restorer: Restorer,
}

impl ProtocolSpec {
    /// Open a live session of this protocol on an empty `n`-node network.
    pub fn open(&self, n: usize, cfg: SimConfig) -> Session {
        (self.opener)(n, cfg)
    }

    /// Restore a live session of this protocol from a snapshot. The
    /// snapshot header must name this protocol; its configuration is used
    /// verbatim (no `prep` re-application — the capture already holds the
    /// prepared config).
    pub fn restore(&self, snap: &Snapshot) -> Result<Session, RestoreError> {
        (self.restorer)(snap)
    }

    /// The query kinds this protocol can answer.
    pub fn supported_queries(&self) -> &'static [QueryKind] {
        self.supported
    }

    /// Run this protocol over a recorded trace (by reference — the session
    /// steps each batch in place, so the replay hot path copies nothing).
    pub fn run(&self, trace: &Trace, cfg: SimConfig) -> RunSummary {
        let mut session = self.open(trace.n, cfg);
        session.run_trace(trace);
        session.summary()
    }

    /// Run this protocol from a streaming source (never materializes).
    pub fn run_stream(&self, src: &mut dyn TraceSource, cfg: SimConfig) -> RunSummary {
        let mut session = self.open(src.n(), cfg);
        session.drain(src);
        session.summary()
    }
}

impl std::fmt::Debug for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

/// Name → runner dispatch for every registered protocol.
#[derive(Debug, Default)]
pub struct ProtocolRegistry {
    specs: Vec<ProtocolSpec>,
}

impl ProtocolRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register protocol `N` under `name` with the caller's config passed
    /// through unchanged.
    pub fn register<N: Queryable + Checkpointable + Clone + 'static>(
        &mut self,
        name: &'static str,
        summary: &'static str,
    ) {
        self.register_with::<N>(name, summary, |cfg| cfg);
    }

    /// Register protocol `N` under `name`, with `prep` adjusting the
    /// caller's config first (e.g. the flooding calibrator switching the
    /// bandwidth policy to `Observe`).
    pub fn register_with<N: Queryable + Checkpointable + Clone + 'static>(
        &mut self,
        name: &'static str,
        summary: &'static str,
        prep: fn(SimConfig) -> SimConfig,
    ) {
        assert!(
            self.get(name).is_none(),
            "protocol {name:?} registered twice"
        );
        self.specs.push(ProtocolSpec {
            name,
            summary,
            supported: N::supported_queries(),
            opener: Box::new(move |n, cfg| Session::open::<N>(name, n, prep(cfg))),
            restorer: Box::new(move |snap| Session::restore::<N>(name, snap)),
        });
    }

    /// All registered specs, in registration order.
    pub fn specs(&self) -> &[ProtocolSpec] {
        &self.specs
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Look up one protocol by name.
    pub fn get(&self, name: &str) -> Option<&ProtocolSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// The one unknown-name error — every by-name entry point reports the
    /// same "expected one of …" message through it.
    fn unknown(&self, name: &str) -> String {
        format!(
            "unknown protocol {name:?}; expected one of {:?}",
            self.names()
        )
    }

    /// Resolve one protocol by name, or report the known names.
    pub fn resolve(&self, name: &str) -> Result<&ProtocolSpec, String> {
        self.get(name).ok_or_else(|| self.unknown(name))
    }

    /// Open a live, queryable [`Session`] of the named protocol on an
    /// empty `n`-node network, or report the known names.
    pub fn open(&self, name: &str, n: usize, cfg: SimConfig) -> Result<Session, String> {
        Ok(self.resolve(name)?.open(n, cfg))
    }

    /// Restore a live [`Session`] from a snapshot, dispatching on the
    /// protocol name its header records.
    pub fn restore(&self, snap: &Snapshot) -> Result<Session, RestoreError> {
        let spec = self
            .get(&snap.header.protocol)
            .ok_or_else(|| RestoreError::UnknownProtocol(snap.header.protocol.clone()))?;
        spec.restore(snap)
    }

    /// Run the named protocol over a trace (zero-copy, by reference), or
    /// report the known names.
    pub fn run(&self, name: &str, trace: &Trace, cfg: SimConfig) -> Result<RunSummary, String> {
        Ok(self.resolve(name)?.run(trace, cfg))
    }

    /// Run the named protocol from a streaming source, or report the known
    /// names. The source is never materialized.
    pub fn run_stream(
        &self,
        name: &str,
        src: &mut dyn TraceSource,
        cfg: SimConfig,
    ) -> Result<RunSummary, String> {
        Ok(self.resolve(name)?.run_stream(src, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LocalEvent;
    use crate::ids::{edge, NodeId, Round};
    use crate::message::{Outbox, Received};
    use crate::protocol::Response;
    use crate::query::{Answer, Query, QueryError};

    /// Trivial always-consistent protocol for registry tests.
    #[derive(Clone)]
    struct Idle;
    impl Node for Idle {
        type Msg = ();
        fn new(_id: NodeId, _n: usize) -> Self {
            Idle
        }
        fn on_topology(&mut self, _round: Round, _events: &[LocalEvent]) {}
        fn send(&mut self, _round: Round, _neighbors: &[NodeId]) -> Outbox<()> {
            Outbox::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &[Received<()>], _ns: &[NodeId]) {}
        fn is_consistent(&self) -> bool {
            true
        }
    }
    impl Queryable for Idle {
        fn supported_queries() -> &'static [QueryKind] {
            &[]
        }
        fn query(&self, _query: &Query) -> Result<Response<Answer>, QueryError> {
            Err(QueryError::Unsupported)
        }
    }
    impl Checkpointable for Idle {
        fn save_state(&self) -> serde::Value {
            serde::Value::Null
        }
        fn load_state(_id: NodeId, _n: usize, _v: &serde::Value) -> Result<Self, String> {
            Ok(Idle)
        }
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(4);
        t.push(crate::event::EventBatch::insert(edge(0, 1)));
        t.push(crate::event::EventBatch::new());
        t
    }

    #[test]
    fn registry_dispatches_and_lists() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "does nothing");
        assert_eq!(reg.names(), vec!["idle"]);
        let s = reg
            .run("idle", &sample_trace(), SimConfig::default())
            .unwrap();
        assert_eq!(s.protocol, "idle");
        assert_eq!(s.rounds, 2);
        assert_eq!(s.changes, 1);
        assert!(reg
            .run("nope", &sample_trace(), SimConfig::default())
            .is_err());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "a");
        reg.register::<Idle>("idle", "b");
    }

    #[test]
    fn streamed_and_replayed_runs_agree() {
        let trace = sample_trace();
        let cfg = SimConfig::default();
        let a = run_trace_as::<Idle>("idle", &trace, cfg);
        let b = run_source_as::<Idle>("idle", &mut trace.replay(), cfg);
        let c = run_source_as::<Idle>("idle", &mut trace.clone().into_source(), cfg);
        for s in [&b, &c] {
            assert_eq!(a.rounds, s.rounds);
            assert_eq!(a.changes, s.changes);
            assert_eq!(a.amortized.to_bits(), s.amortized.to_bits());
            assert_eq!(a.messages, s.messages);
            assert_eq!(a.bits, s.bits);
            assert_eq!(a.final_edges, s.final_edges);
        }
    }

    #[test]
    fn registry_runs_streams() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "does nothing");
        let trace = sample_trace();
        let s = reg
            .run_stream("idle", &mut trace.replay(), SimConfig::default())
            .unwrap();
        assert_eq!(s.rounds, 2);
        assert!(reg
            .run_stream("nope", &mut trace.replay(), SimConfig::default())
            .is_err());
    }

    #[test]
    fn unknown_name_message_is_shared_across_entry_points() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "does nothing");
        let trace = sample_trace();
        let cfg = SimConfig::default();
        let from_run = reg.run("nope", &trace, cfg).unwrap_err();
        let from_stream = reg
            .run_stream("nope", &mut trace.replay(), cfg)
            .unwrap_err();
        let from_open = reg.open("nope", 4, cfg).unwrap_err();
        assert_eq!(from_run, from_stream);
        assert_eq!(from_run, from_open);
        assert!(from_run.contains("expected one of"), "{from_run}");
        assert!(from_run.contains("idle"), "{from_run}");
    }

    #[test]
    fn open_hands_out_live_queryable_sessions() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "does nothing");
        assert!(reg.resolve("idle").unwrap().supported_queries().is_empty());
        let mut session = reg.open("idle", 4, SimConfig::default()).unwrap();
        session.run_trace(&sample_trace());
        assert_eq!(session.round(), 2);
        assert_eq!(session.summary().changes, 1);
        // Idle supports nothing: every query is a capability error.
        assert!(session
            .query(NodeId(0), &Query::Edge(edge(0, 1)))
            .unwrap_err()
            .contains("does not support"));
    }

    #[test]
    fn registry_restores_by_header_protocol_name() {
        let mut reg = ProtocolRegistry::new();
        reg.register::<Idle>("idle", "does nothing");
        let mut session = reg.open("idle", 4, SimConfig::default()).unwrap();
        session.run_trace(&sample_trace());
        let snap = session.checkpoint();
        let restored = reg.restore(&snap).unwrap();
        assert_eq!(restored.protocol(), "idle");
        assert_eq!(restored.round(), 2);
        assert_eq!(
            restored.summary().changes,
            session.summary().changes,
            "meters survive the round trip"
        );
        // A registry that never heard of the protocol reports it as such.
        let empty = ProtocolRegistry::new();
        assert!(matches!(
            empty.restore(&snap),
            Err(RestoreError::UnknownProtocol(_))
        ));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn summary_reports_throughput_and_peaks() {
        let cfg = SimConfig {
            record_stats: true,
            ..SimConfig::default()
        };
        let s = run_trace_as::<Idle>("idle", &sample_trace(), cfg);
        assert!(s.seconds >= 0.0);
        assert!(s.rounds_per_sec > 0.0);
        // Idle sends nothing, so the peaks are zero but present.
        assert_eq!(s.peak_round_messages, 0);
        assert_eq!(s.peak_round_bits, 0);
    }
}
