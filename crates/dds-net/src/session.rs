//! Type-erased live runs: the serving surface of the engine.
//!
//! A [`Session`] is one protocol instance on one network, opened by name
//! through the [`ProtocolRegistry`](crate::engine::ProtocolRegistry) and
//! driven round by round. Unlike the run-to-completion entry point (which
//! returns only a [`RunSummary`]), a session stays *live*: it can be
//! stepped with explicit batches or [`TraceSource`]s (a recorded trace
//! through [`Trace::replay`](crate::trace::Trace::replay)), inspected mid-run
//! (meters, topology, round number), settled, and — the point of the
//! paper — asked subgraph [`Query`]s routed to any node, answering with
//! zero communication or an explicit `Inconsistent`.
//!
//! The erasure is total: a `Session` carries no protocol type parameter,
//! so frontends dispatch purely on registry names and discover what each
//! structure can answer via [`Session::supported_queries`] instead of
//! matching on names. Under the hood the session owns the very same
//! [`Simulator`] the typed path drives — the differential suite asserts
//! the two paths are bit-identical.

use crate::bandwidth::BandwidthMeter;
use crate::checkpoint::{Checkpointable, Reader, RestoreError, Snapshot, SnapshotHeader, Writer};
use crate::engine::{summarize, RunSummary};
use crate::event::EventBatch;
use crate::fingerprint::Fingerprint;
use crate::ids::{NodeId, Round};
use crate::metrics::{AmortizedMeter, RoundStats};
use crate::protocol::Response;
use crate::query::{Answer, Query, QueryError, QueryKind, Queryable};
use crate::sim::{SimConfig, Simulator};
use crate::source::TraceSource;
use crate::topology::Topology;
use std::time::Instant;

/// The object-safe view of a [`Simulator`] the session layer drives: every
/// inspection and stepping capability, minus the node type.
trait ErasedSim: Send + Sync {
    fn n(&self) -> usize;
    fn round(&self) -> Round;
    fn step(&mut self, batch: &EventBatch);
    fn settle(&mut self, max: usize) -> Option<usize>;
    fn meter(&self) -> &AmortizedMeter;
    fn bandwidth(&self) -> &BandwidthMeter;
    fn stats(&self) -> &[RoundStats];
    fn topology(&self) -> &Topology;
    fn inconsistent_nodes(&self) -> usize;
    fn active_nodes(&self) -> usize;
    fn shards(&self) -> usize;
    fn node_consistent(&self, v: NodeId) -> bool;
    fn query(&self, at: NodeId, query: &Query) -> Result<Response<Answer>, QueryError>;
    fn summarize(&self, name: &str, seconds: f64, rss_baseline_mb: f64) -> RunSummary;
    fn fingerprint(&self) -> Fingerprint;
    fn config(&self) -> SimConfig;
    fn save_state(&self, w: &mut Writer);
    fn fork(&self) -> Box<dyn ErasedSim>;
}

impl<N: Queryable + Checkpointable + Clone + 'static> ErasedSim for Simulator<N> {
    fn n(&self) -> usize {
        Simulator::n(self)
    }
    fn round(&self) -> Round {
        Simulator::round(self)
    }
    fn step(&mut self, batch: &EventBatch) {
        Simulator::step(self, batch);
    }
    fn settle(&mut self, max: usize) -> Option<usize> {
        Simulator::settle(self, max)
    }
    fn meter(&self) -> &AmortizedMeter {
        Simulator::meter(self)
    }
    fn bandwidth(&self) -> &BandwidthMeter {
        Simulator::bandwidth(self)
    }
    fn stats(&self) -> &[RoundStats] {
        Simulator::stats(self)
    }
    fn topology(&self) -> &Topology {
        Simulator::topology(self)
    }
    fn inconsistent_nodes(&self) -> usize {
        Simulator::inconsistent_nodes(self)
    }
    fn active_nodes(&self) -> usize {
        Simulator::active_nodes(self)
    }
    fn shards(&self) -> usize {
        Simulator::shards(self)
    }
    fn node_consistent(&self, v: NodeId) -> bool {
        self.node(v).is_consistent()
    }
    fn query(&self, at: NodeId, query: &Query) -> Result<Response<Answer>, QueryError> {
        self.node(at).query(query)
    }
    fn summarize(&self, name: &str, seconds: f64, rss_baseline_mb: f64) -> RunSummary {
        summarize(name, self, seconds, rss_baseline_mb)
    }
    fn fingerprint(&self) -> Fingerprint {
        Simulator::fingerprint(self)
    }
    fn config(&self) -> SimConfig {
        Simulator::config(self)
    }
    fn save_state(&self, w: &mut Writer) {
        Simulator::save_state(self, w);
    }
    fn fork(&self) -> Box<dyn ErasedSim> {
        Box::new(self.clone())
    }
}

/// A live, type-erased protocol run that can be stepped, inspected and
/// queried at any round. Obtained from
/// [`ProtocolRegistry::open`](crate::engine::ProtocolRegistry::open) (or
/// [`Session::open`] with an explicit node type).
pub struct Session {
    protocol: &'static str,
    supported: &'static [QueryKind],
    sim: Box<dyn ErasedSim>,
    /// Wall-clock seconds spent inside `step`/`settle` (excludes idle time
    /// between frontend calls, so `rounds_per_sec` measures the engine).
    busy_seconds: f64,
    /// Process `VmHWM` in MiB captured at open time; the summary reports
    /// the delta against it.
    rss_baseline_mb: f64,
}

impl Session {
    /// Open a session for protocol `N` on an empty `n`-node network.
    /// Frontends normally go through
    /// [`ProtocolRegistry::open`](crate::engine::ProtocolRegistry::open)
    /// instead, which resolves `N` from the registry name.
    pub fn open<N: Queryable + Checkpointable + Clone + 'static>(
        protocol: &'static str,
        n: usize,
        cfg: SimConfig,
    ) -> Session {
        let rss_baseline_mb = crate::engine::peak_rss_mb();
        Session {
            protocol,
            supported: N::supported_queries(),
            sim: Box::new(Simulator::<N>::with_config(n, cfg)),
            busy_seconds: 0.0,
            rss_baseline_mb,
        }
    }

    /// Capture the session's full state as a validated, self-describing
    /// [`Snapshot`] (take it *between* rounds). Continuing a session
    /// restored from the snapshot is bit-identical to continuing this one.
    ///
    /// The capture is the body's encoding: the simulator writes its JSON
    /// text straight from the live state, and no value tree is built.
    pub fn checkpoint(&self) -> Snapshot {
        let cfg = self.sim.config();
        let header = SnapshotHeader::describe(self.protocol, self.n(), self.round(), &cfg);
        let mut w = Writer::new();
        self.sim.save_state(&mut w);
        Snapshot::captured(header, w.into_string())
    }

    /// Rebuild a session for protocol `N` from a snapshot. The snapshot's
    /// header must name the same `protocol`; the engine configuration is
    /// taken from the header verbatim. Frontends normally go through
    /// [`ProtocolRegistry::restore`](crate::engine::ProtocolRegistry::restore),
    /// which resolves `N` from the header's protocol name.
    ///
    /// The body's text is read straight into live state by one pull
    /// [`Reader`], section by section in the order capture wrote them; no
    /// value tree is built. A reordered, missing or unknown key, a value of
    /// the wrong type or out of range, and trailing text are all
    /// [`RestoreError::Corrupt`].
    pub fn restore<N: Queryable + Checkpointable + Clone + 'static>(
        protocol: &'static str,
        snap: &Snapshot,
    ) -> Result<Session, RestoreError> {
        if snap.header.protocol != protocol {
            return Err(RestoreError::ProtocolMismatch {
                expected: protocol.to_string(),
                found: snap.header.protocol.clone(),
            });
        }
        let cfg = snap.header.sim_config()?;
        let mut body = Reader::new(snap.body());
        let sim = Simulator::<N>::restore_state(snap.header.n, cfg, &mut body)
            .and_then(|sim| {
                body.end()?;
                Ok(sim)
            })
            .map_err(RestoreError::Corrupt)?;
        if sim.round() != snap.header.round {
            return Err(RestoreError::Corrupt(format!(
                "header says round {} but the body holds round {}",
                snap.header.round,
                sim.round()
            )));
        }
        let rss_baseline_mb = crate::engine::peak_rss_mb();
        Ok(Session {
            protocol,
            supported: N::supported_queries(),
            sim: Box::new(sim),
            busy_seconds: 0.0,
            rss_baseline_mb,
        })
    }

    /// An independent in-memory copy of this session at its current
    /// round. Stepping either leaves the other untouched, both checkpoint
    /// to the same bytes, and continuing the copy is bit-identical to
    /// continuing a restore of [`Session::checkpoint`] — without
    /// serializing anything. The copy keeps this session's busy time and
    /// RSS baseline, so its [`Session::summary`] describes this run.
    pub fn fork(&self) -> Session {
        Session {
            protocol: self.protocol,
            supported: self.supported,
            sim: self.sim.fork(),
            busy_seconds: self.busy_seconds,
            rss_baseline_mb: self.rss_baseline_mb,
        }
    }

    /// The registry name this session runs.
    pub fn protocol(&self) -> &'static str {
        self.protocol
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.sim.n()
    }

    /// The current round number (0 before the first step).
    pub fn round(&self) -> Round {
        self.sim.round()
    }

    /// The amortized-complexity meter (live, mid-run).
    pub fn meter(&self) -> &AmortizedMeter {
        self.sim.meter()
    }

    /// The bandwidth meter.
    pub fn bandwidth(&self) -> &BandwidthMeter {
        self.sim.bandwidth()
    }

    /// Per-round stats log (empty unless `record_stats`).
    pub fn stats(&self) -> &[RoundStats] {
        self.sim.stats()
    }

    /// The ground-truth topology (harness/test inspection only — protocols
    /// never see it).
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Number of nodes inconsistent at the end of the last round.
    pub fn inconsistent_nodes(&self) -> usize {
        self.sim.inconsistent_nodes()
    }

    /// Number of nodes the round engine processed in the last round (the
    /// round's *activity*; always `n` under [`Engine::Dense`]).
    ///
    /// [`Engine::Dense`]: crate::sim::Engine::Dense
    pub fn active_nodes(&self) -> usize {
        self.sim.active_nodes()
    }

    /// Shard count of the most recent round (1 before the first step).
    pub fn shards(&self) -> usize {
        self.sim.shards()
    }

    /// True when every node reported consistent at the end of the last
    /// round.
    pub fn all_consistent(&self) -> bool {
        self.sim.inconsistent_nodes() == 0
    }

    /// Whether one node believes itself consistent right now.
    pub fn node_consistent(&self, v: NodeId) -> bool {
        self.sim.node_consistent(v)
    }

    /// Execute one full round with the given batch of topology changes.
    pub fn step(&mut self, batch: &EventBatch) {
        let t = Instant::now();
        self.sim.step(batch);
        self.busy_seconds += t.elapsed().as_secs_f64();
    }

    /// Run one quiet round (no topology changes).
    pub fn step_quiet(&mut self) {
        self.step(&EventBatch::new());
    }

    /// Run quiet rounds until every node is consistent, up to `max`.
    /// Returns the number of quiet rounds executed, or `None` if the
    /// system did not stabilize within the budget.
    pub fn settle(&mut self, max: usize) -> Option<usize> {
        let t = Instant::now();
        let r = self.sim.settle(max);
        self.busy_seconds += t.elapsed().as_secs_f64();
        r
    }

    /// Pull batches from `src` until the session has executed `round`
    /// rounds in total, padding with quiet rounds if the source ends
    /// early. A no-op when the session is already at (or past) `round`.
    pub fn run_to(&mut self, round: Round, src: &mut dyn TraceSource) {
        while self.round() < round {
            match src.next_batch() {
                Some(batch) => self.step(&batch),
                None => self.step_quiet(),
            }
        }
    }

    /// Drain `src` to exhaustion, one batch alive at a time.
    pub fn drain(&mut self, src: &mut dyn TraceSource) {
        while let Some(batch) = src.next_batch() {
            self.step(&batch);
        }
    }

    /// The query kinds this protocol can answer (capability discovery).
    pub fn supported_queries(&self) -> &'static [QueryKind] {
        self.supported
    }

    /// Whether this protocol supports a query kind.
    pub fn supports(&self, kind: QueryKind) -> bool {
        self.supported.contains(&kind)
    }

    /// Capability gate: `Err` with the full "supported: […]" message when
    /// this protocol cannot answer `kind` (frontends validate specs up
    /// front with it; [`Session::query`] reports the same message).
    pub fn require_support(&self, kind: QueryKind) -> Result<(), String> {
        if self.supports(kind) {
            Ok(())
        } else {
            Err(format!(
                "protocol {:?} does not support {kind} queries; supported: [{}]",
                self.protocol,
                self.supported
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    }

    /// Answer a subgraph query at node `at`, with zero communication.
    ///
    /// `Ok(Response::Inconsistent)` is a *valid* outcome (the structure is
    /// mid-update; retry after settling); `Err` means the question itself
    /// was unanswerable — unsupported by this protocol, malformed, or
    /// addressed outside the network.
    pub fn query(&self, at: NodeId, query: &Query) -> Result<Response<Answer>, String> {
        if at.index() >= self.n() {
            return Err(format!(
                "node v{} is outside the {}-node network",
                at.0,
                self.n()
            ));
        }
        self.sim.query(at, query).map_err(|e| match e {
            // A node may report Unsupported for a kind the protocol
            // *advertises* (capability-metadata drift in a downstream
            // Queryable impl); stay total and report the mismatch rather
            // than trusting supported_queries() to agree.
            QueryError::Unsupported => {
                self.require_support(query.kind()).err().unwrap_or_else(|| {
                    format!(
                        "protocol {:?} advertises {} queries but its Queryable impl \
                     does not answer them",
                        self.protocol,
                        query.kind()
                    )
                })
            }
            QueryError::Invalid(msg) => msg,
        })
    }

    /// Condense the meters into a [`RunSummary`] — valid mid-run or after
    /// the schedule ends. `seconds` is the cumulative wall-clock time
    /// spent stepping; `peak_rss_mb` is the process high-water mark
    /// *delta* since the session was opened.
    pub fn summary(&self) -> RunSummary {
        self.sim
            .summarize(self.protocol, self.busy_seconds, self.rss_baseline_mb)
    }

    /// This run's [`Fingerprint`], the value every differential compares.
    /// It is the underlying simulator's, so a typed run over the same
    /// schedule and configuration gives an equal one.
    pub fn fingerprint(&self) -> Fingerprint {
        self.sim.fingerprint()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("protocol", &self.protocol)
            .field("n", &self.sim.n())
            .field("round", &self.sim.round())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LocalEvent;
    use crate::ids::edge;
    use crate::message::{Flags, Outbox, Received};
    use crate::protocol::Node;

    /// Minimal queryable protocol: tracks incident edges, answers `Edge`
    /// queries about them, always consistent after one round.
    #[derive(Clone)]
    struct EdgeSet {
        id: NodeId,
        peers: Vec<NodeId>,
    }

    impl Node for EdgeSet {
        type Msg = ();
        fn new(id: NodeId, _n: usize) -> Self {
            EdgeSet {
                id,
                peers: Vec::new(),
            }
        }
        fn on_topology(&mut self, _round: Round, events: &[LocalEvent]) {
            for ev in events {
                if ev.inserted {
                    self.peers.push(ev.peer);
                } else {
                    self.peers.retain(|&p| p != ev.peer);
                }
            }
        }
        fn send(&mut self, _round: Round, _neighbors: &[NodeId]) -> Outbox<()> {
            let mut out = Outbox::quiet();
            out.flags = Flags {
                is_empty: true,
                neighbors_empty: true,
            };
            out
        }
        fn receive(&mut self, _round: Round, _inbox: &[Received<()>], _ns: &[NodeId]) {}
        fn is_consistent(&self) -> bool {
            true
        }
    }

    impl Queryable for EdgeSet {
        fn supported_queries() -> &'static [QueryKind] {
            &[QueryKind::Edge]
        }
        fn query(&self, query: &Query) -> Result<Response<Answer>, QueryError> {
            match query {
                Query::Edge(e) => Ok(Response::Answer(Answer::Bool(
                    e.touches(self.id) && self.peers.contains(&e.other(self.id)),
                ))),
                _ => Err(QueryError::Unsupported),
            }
        }
    }

    impl Checkpointable for EdgeSet {
        fn save_state(&self, w: &mut Writer) {
            // `peers` is in arrival order (observable via retain), so it is
            // captured verbatim, not sorted.
            w.object(|w| crate::checkpoint::write_ids(w.key("peers"), &self.peers));
        }
        fn load_state(id: NodeId, _n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
            let peers = r.object(|r| crate::checkpoint::read_ids(r.key("peers")?))?;
            Ok(EdgeSet { id, peers })
        }
    }

    fn sample_trace() -> crate::trace::Trace {
        let mut t = crate::trace::Trace::new(4);
        t.push(EventBatch::insert(edge(0, 1)));
        t.push(EventBatch::new());
        t.push(EventBatch::insert(edge(1, 2)));
        t
    }

    #[test]
    fn session_steps_and_answers_queries() {
        let mut s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        assert_eq!(s.protocol(), "edge-set");
        assert_eq!(s.round(), 0);
        s.drain(&mut sample_trace().replay());
        assert_eq!(s.round(), 3);
        assert_eq!(s.meter().changes(), 2);
        // EdgeSet uses the conservative `idle` default, so the sparse
        // engine keeps every node active.
        assert_eq!(s.active_nodes(), 4);
        assert_eq!(
            s.query(NodeId(1), &Query::Edge(edge(1, 2))).unwrap(),
            Response::Answer(Answer::Bool(true))
        );
        assert_eq!(
            s.query(NodeId(1), &Query::Edge(edge(1, 3))).unwrap(),
            Response::Answer(Answer::Bool(false))
        );
    }

    #[test]
    fn unsupported_queries_name_the_capabilities() {
        let s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        assert!(s.supports(QueryKind::Edge));
        assert!(!s.supports(QueryKind::ListTriangles));
        let err = s.query(NodeId(0), &Query::ListTriangles).unwrap_err();
        assert!(err.contains("edge-set"), "{err}");
        assert!(err.contains("list-triangles"), "{err}");
        assert!(err.contains("supported: [edge]"), "{err}");
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        let err = s.query(NodeId(9), &Query::Edge(edge(0, 1))).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn run_to_pads_with_quiet_rounds() {
        let trace = sample_trace();
        let mut s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        s.run_to(5, &mut trace.replay());
        assert_eq!(s.round(), 5);
        assert_eq!(s.meter().changes(), 2, "all recorded changes applied");
        // Already past round 2: no-op.
        s.run_to(2, &mut trace.replay());
        assert_eq!(s.round(), 5);
    }

    #[test]
    fn summary_is_available_mid_run() {
        let mut s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        s.step(&EventBatch::insert(edge(0, 1)));
        let mid = s.summary();
        assert_eq!(mid.rounds, 1);
        assert_eq!(mid.changes, 1);
        let trace = sample_trace();
        let mut rest = trace.replay();
        rest.next_batch(); // round 1 already stepped above
        s.drain(&mut rest);
        let done = s.summary();
        assert_eq!(done.rounds, 3);
        assert!(done.seconds >= mid.seconds);
    }

    #[test]
    fn checkpoint_restore_roundtrips_and_resumes_identically() {
        let trace = sample_trace();
        let mut a = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        let mut replay = trace.replay();
        a.run_to(2, &mut replay);
        let snap = a.checkpoint();
        assert_eq!(snap.header.protocol, "edge-set");
        assert_eq!(snap.header.round, 2);
        // Serialize to disk format and back: still restores.
        let snap = Snapshot::from_json(&snap.to_json()).unwrap();
        let mut b = Session::restore::<EdgeSet>("edge-set", &snap).unwrap();
        assert_eq!(b.round(), 2);
        // Continue both from the same point; all observables agree.
        a.run_to(3, &mut replay);
        let mut fresh = trace.replay();
        assert_eq!(fresh.skip_batches(2), 2);
        b.run_to(3, &mut fresh);
        assert_eq!(a.meter().changes(), b.meter().changes());
        for v in 0..4 {
            let q = Query::Edge(edge(1, 2));
            assert_eq!(a.query(NodeId(v), &q), b.query(NodeId(v), &q));
        }
    }

    #[test]
    fn restore_rejects_protocol_mismatch() {
        let s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        let snap = s.checkpoint();
        let err = Session::restore::<EdgeSet>("other", &snap).unwrap_err();
        assert!(
            matches!(err, RestoreError::ProtocolMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn settle_reports_quiet_rounds() {
        let mut s = Session::open::<EdgeSet>("edge-set", 4, SimConfig::default());
        s.step(&EventBatch::insert(edge(0, 1)));
        assert_eq!(s.settle(8), Some(0));
        assert!(s.all_consistent());
        assert!(s.node_consistent(NodeId(0)));
    }
}
