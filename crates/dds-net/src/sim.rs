//! The synchronous highly-dynamic network simulator.
//!
//! [`Simulator`] drives a population of protocol nodes through the round
//! structure of the model (topology change → react & send → receive &
//! update → query), routes messages only over edges of the *current* graph,
//! enforces the per-link bandwidth budget, and maintains the amortized
//! inconsistency meter.
//!
//! # The activity-driven round loop
//!
//! Both engines run the same loop; they differ only in *which nodes* the
//! per-node phases visit:
//!
//! - [`Engine::Sparse`] (the default) maintains a deterministic **active
//!   set**: a node is visited only while it has incident topology events,
//!   traffic in flight (a payload, or non-quiet flags from a neighbor),
//!   or pending internal work (`!`[`Node::idle`]). Round cost is
//!   O(churn + traffic + active), independent of `n` and the edge count —
//!   the simulator is finally as activity-proportional as the protocols it
//!   hosts.
//! - [`Engine::Dense`] forces the active set to all of `0..n` every round
//!   (the pre-sparse behavior, kept as an escape hatch and comparison
//!   baseline). Everything else — routing, inbox assembly, meters — is
//!   shared code, so the two engines are bit-identical by construction;
//!   the differential tests lock this down.
//!
//! Execution is deterministic: inboxes are sorted by sender, neighbor lists
//! are sorted, active/receiver sets are in ascending node order, and
//! protocols are required to be deterministic.
//!
//! # Sharded execution
//!
//! Each round, the active set is partitioned into `K` contiguous node-id
//! ranges ([`Shards`]); every shard runs phases 1–2 plus routing expansion
//! over its own nodes (writing only shard-local scratch and its own slice
//! of the flag array), then — after a short sequential exchange that
//! replays bandwidth charges in global sender order and merges the shards'
//! sorted traffic runs — every shard runs phases 3–4 over its receivers.
//! Because the exchange is a deterministic sorted merge on globally unique
//! `(receiver, sender)` keys, `shards = K` is **bit-identical** to
//! `shards = 1` and to the sequential engine by construction, for every
//! `K`. A round with one shard runs inline on the calling thread with no
//! allocation; a round with `K > 1` shards hands its tasks to the
//! persistent worker pool ([`crate::pool`]), which itself runs a job
//! inline when it has no workers, when the call is nested, or when
//! another job holds it.
//!
//! The cut points are **activity-proportional**: Region A splits the
//! active set by a deterministic prefix-sum over `1 + degree` weights,
//! and Region B independently splits the receiver list by `1 +
//! inbox-size` weights — both pure functions of round data, so skewed
//! (hub/hotspot) workloads get weight-balanced shards without any new
//! synchronization. The partition never affects results — only which
//! task computes them.

use crate::bandwidth::{BandwidthConfig, BandwidthMeter};
use crate::checkpoint::{self, Checkpointable, Writer};
use crate::event::EventBatch;
use crate::ids::{Edge, NodeId, Round};
use crate::message::{Addressed, BitSized, Flags, Received};
use crate::metrics::{AmortizedMeter, PerNodeMeter, RoundStats};
use crate::pool::Pool;
use crate::protocol::Node;
use crate::round::{LocalView, RecvParts, RoundBuffers, ShardParts, ShardScratch};
use crate::topology::Topology;
use serde::{Deserialize as _, Serialize as _, Value};
use std::sync::Mutex;

/// Which nodes the per-node phases visit each round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Visit every node in every phase: O(n + traffic) per round. The
    /// pre-sparse behavior; kept as an escape hatch and as the comparison
    /// baseline for the activity-proportionality benchmarks.
    Dense,
    /// Visit only *active* nodes — incident events, in-flight traffic, or
    /// pending internal work (`!`[`Node::idle`]): O(churn + traffic +
    /// active) per round, independent of `n` and the edge count.
    /// Bit-identical to [`Engine::Dense`].
    #[default]
    Sparse,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(Engine::Dense),
            "sparse" => Ok(Engine::Sparse),
            other => Err(format!(
                "unknown engine {other:?}; expected \"dense\" or \"sparse\""
            )),
        }
    }
}

impl Engine {
    /// The `FromStr` token for this engine — snapshot headers store config
    /// as the same strings the CLI accepts, so they round-trip.
    pub fn token(&self) -> &'static str {
        match self {
            Engine::Dense => "dense",
            Engine::Sparse => "sparse",
        }
    }
}

/// How many contiguous node-id-range shards the per-node phases run as
/// each round. Sharding is *structural*: `Fixed(K)` partitions the round
/// into `K` tasks even on a single thread, and the result is bit-identical
/// for every `K` (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Shards {
    /// Scale the shard count with the round's active-set size and the
    /// worker pool: 1 on single-core hosts, otherwise roughly one shard
    /// per 1024 active nodes, capped at `pool workers + 1`. Re-evaluated
    /// from the **current round's** active set on every `step`, so a run
    /// that goes quiet drops back to the `k = 1` no-alloc path instead of
    /// keeping the shard count of its busiest round.
    #[default]
    Auto,
    /// Exactly `K` shards per round (clamped to `1..=1024` and to the
    /// active-set size — so this too collapses to one shard on a quiet
    /// round).
    Fixed(usize),
}

impl std::str::FromStr for Shards {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(Shards::Auto);
        }
        match s.parse::<usize>() {
            Ok(k) if k >= 1 => Ok(Shards::Fixed(k)),
            _ => Err(format!(
                "unknown shard count {s:?}; expected \"auto\" or an integer >= 1"
            )),
        }
    }
}

impl Shards {
    /// The `FromStr` token for this policy (`"auto"` or the fixed count).
    pub fn token(&self) -> String {
        match self {
            Shards::Auto => "auto".to_string(),
            Shards::Fixed(k) => k.to_string(),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimConfig {
    /// Per-link bandwidth budget configuration.
    pub bandwidth: BandwidthConfig,
    /// Keep a per-round [`RoundStats`] log (costs memory on long runs).
    pub record_stats: bool,
    /// Which round engine to run (default: [`Engine::Sparse`]).
    pub engine: Engine,
    /// Shard-count policy (default: [`Shards::Auto`]).
    pub shards: Shards,
}

/// The simulator: topology + nodes + meters + reusable round scratch.
pub struct Simulator<N: Node> {
    topo: Topology,
    nodes: Vec<N>,
    round: Round,
    meter: AmortizedMeter,
    per_node: PerNodeMeter,
    bandwidth: BandwidthMeter,
    cfg: SimConfig,
    stats: Vec<RoundStats>,
    inconsistent_now: usize,
    last_active: usize,
    last_shards: usize,
    shard_peak_active: Vec<usize>,
    buffers: RoundBuffers<N::Msg>,
}

impl<N: Node> Simulator<N> {
    /// New simulator over an empty graph on `n` nodes with default config.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, SimConfig::default())
    }

    /// New simulator with explicit configuration.
    pub fn with_config(n: usize, cfg: SimConfig) -> Self {
        assert!(n >= 1, "need at least one node");
        let nodes: Vec<N> = (0..n as u32).map(|i| N::new(NodeId(i), n)).collect();
        let mut buffers = RoundBuffers::new(n);
        if cfg.engine == Engine::Sparse {
            // Seed the active set with every node that is born busy. For
            // protocols using the conservative `idle` default (always
            // `false`) this is all of them — dense behavior through the
            // sparse machinery.
            buffers.active.extend(
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, nd)| !nd.idle())
                    .map(|(i, _)| i as u32),
            );
        }
        Simulator {
            topo: Topology::new(n),
            nodes,
            round: 0,
            meter: AmortizedMeter::new(),
            per_node: PerNodeMeter::new(n),
            bandwidth: BandwidthMeter::new(n, cfg.bandwidth),
            cfg,
            stats: Vec::new(),
            inconsistent_now: 0,
            last_active: 0,
            last_shards: 0,
            shard_peak_active: Vec::new(),
            buffers,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.topo.n()
    }

    /// The current round number (0 before the first `step`).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Read access to a node's data structure, for queries.
    pub fn node(&self, v: NodeId) -> &N {
        &self.nodes[v.index()]
    }

    /// The simulator's ground-truth topology (not visible to protocols; use
    /// in tests and harnesses only).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The amortized-complexity meter (global changes, the paper's main
    /// definition).
    pub fn meter(&self) -> &AmortizedMeter {
        &self.meter
    }

    /// The per-node amortized meter (the paper's footnote variant: changes
    /// counted per node).
    pub fn per_node_meter(&self) -> &PerNodeMeter {
        &self.per_node
    }

    /// The bandwidth meter.
    pub fn bandwidth(&self) -> &BandwidthMeter {
        &self.bandwidth
    }

    /// Per-round stats log (empty unless `record_stats`).
    pub fn stats(&self) -> &[RoundStats] {
        &self.stats
    }

    /// Number of nodes inconsistent at the end of the last round.
    pub fn inconsistent_nodes(&self) -> usize {
        self.inconsistent_now
    }

    /// Number of nodes the engine processed in the last round's receive
    /// phase (the round's *activity*; always `n` under [`Engine::Dense`]).
    pub fn active_nodes(&self) -> usize {
        self.last_active
    }

    /// Shard count used in the most recent round (1 before the first
    /// `step`).
    pub fn shards(&self) -> usize {
        self.last_shards.max(1)
    }

    /// Per-shard peak receiver-set sizes observed over the whole run,
    /// indexed by shard (length = the largest shard count any round used).
    pub fn shard_peak_active(&self) -> &[usize] {
        &self.shard_peak_active
    }

    /// The configuration this simulator runs under.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// True when every node reported consistent at the end of the last round.
    pub fn all_consistent(&self) -> bool {
        self.inconsistent_now == 0
    }

    /// Run one quiet round (no topology changes).
    pub fn step_quiet(&mut self) {
        self.step(&EventBatch::new());
    }

    /// Run quiet rounds until every node is consistent, up to `max` rounds.
    /// Returns the number of quiet rounds executed, or `None` if the system
    /// did not stabilize within the budget.
    pub fn settle(&mut self, max: usize) -> Option<usize> {
        for i in 0..max {
            if self.round > 0 && self.all_consistent() {
                return Some(i);
            }
            self.step_quiet();
        }
        if self.all_consistent() {
            Some(max)
        } else {
            None
        }
    }
}

/// A clone is a *fork*: an independent simulator at the same round. It
/// copies everything [`Simulator::save_state`] captures, plus the sorted
/// adjacency, and starts the round scratch empty, exactly as
/// [`Simulator::restore_state`] does, so continuing a fork is
/// bit-identical to continuing a restore of the same state.
impl<N: Node + Clone> Clone for Simulator<N> {
    fn clone(&self) -> Self {
        Simulator {
            topo: self.topo.clone(),
            nodes: self.nodes.clone(),
            round: self.round,
            meter: self.meter.clone(),
            per_node: self.per_node.clone(),
            bandwidth: self.bandwidth.clone(),
            cfg: self.cfg,
            stats: self.stats.clone(),
            inconsistent_now: self.inconsistent_now,
            last_active: self.last_active,
            last_shards: self.last_shards,
            shard_peak_active: self.shard_peak_active.clone(),
            buffers: self.buffers.fork(),
        }
    }
}

impl<N: Node + Checkpointable> Simulator<N> {
    /// Write the full engine state as a snapshot body. Taken *between*
    /// rounds, after a `step` returns: round counter, timestamped edge
    /// set, every node's protocol state, both amortized meters, bandwidth
    /// counters, the per-round stats log, and the persistent round-buffer
    /// structures (active set, outbox flag column; the sorted adjacency is
    /// a pure function of the edge set and is rebuilt on restore). All
    /// maps are written sorted, so equal states produce equal bytes.
    pub fn save_state(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("round").u64(self.round);
            self.topo.save_state(w.key("topology"));
            w.key("nodes").array(|w| {
                for node in &self.nodes {
                    node.save_state(w);
                }
            });
            w.key("meter").value(&self.meter.to_value());
            w.key("per_node").value(&self.per_node.to_value());
            self.bandwidth.save_state(w.key("bandwidth"));
            w.key("stats").array(|w| {
                for round in &self.stats {
                    w.value(&round.to_value());
                }
            });
            w.key("inconsistent_now").u64(self.inconsistent_now as u64);
            w.key("last_active").u64(self.last_active as u64);
            w.key("last_shards").u64(self.last_shards as u64);
            w.key("shard_peak_active").array(|w| {
                for &x in &self.shard_peak_active {
                    w.u64(x as u64);
                }
            });
            w.key("active").array(|w| {
                for &v in &self.buffers.active {
                    w.u64(v as u64);
                }
            });
            w.key("out_flags").array(|w| {
                let flags = self.buffers.out_flags.iter().enumerate();
                for (i, f) in flags.filter(|(_, f)| **f != Flags::default()) {
                    w.array(|w| {
                        w.u64(i as u64).bool(f.is_empty).bool(f.neighbors_empty);
                    });
                }
            });
        });
    }

    /// Rebuild a simulator from the parsed text of
    /// [`Simulator::save_state`].
    /// Continuing the restored simulator is bit-identical to continuing
    /// the one that produced the capture (the differential suite in
    /// `tests/checkpoint_restore.rs` locks this).
    pub fn restore_state(n: usize, cfg: SimConfig, v: &Value) -> Result<Self, String> {
        if n == 0 {
            return Err("snapshot has n = 0".into());
        }
        let get_u64 = |k: &str| u64::from_value(checkpoint::field(v, k)?);
        let round = get_u64("round")?;
        let topo = Topology::load_state(n, checkpoint::field(v, "topology")?)?;
        let node_vals = checkpoint::field(v, "nodes")?
            .as_array()
            .ok_or("`nodes` is not an array")?;
        if node_vals.len() != n {
            return Err(format!(
                "snapshot holds {} node states for n = {n}",
                node_vals.len()
            ));
        }
        let nodes: Vec<N> = node_vals
            .iter()
            .enumerate()
            .map(|(i, nv)| {
                N::load_state(NodeId(i as u32), n, nv).map_err(|e| format!("node {i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let meter = AmortizedMeter::from_value(checkpoint::field(v, "meter")?)?;
        let per_node = PerNodeMeter::from_value(checkpoint::field(v, "per_node")?)?;
        let mut bandwidth = BandwidthMeter::new(n, cfg.bandwidth);
        bandwidth.load_counters(checkpoint::field(v, "bandwidth")?)?;
        let stats = Vec::<RoundStats>::from_value(checkpoint::field(v, "stats")?)?;
        let shard_peak_active = Vec::<u64>::from_value(checkpoint::field(v, "shard_peak_active")?)?
            .into_iter()
            .map(|x| x as usize)
            .collect();

        let mut nbrs = vec![Vec::new(); n];
        for e in topo.edges() {
            nbrs[e.lo().index()].push(e.hi());
            nbrs[e.hi().index()].push(e.lo());
        }
        for list in &mut nbrs {
            list.sort_unstable();
        }
        let mut active = Vec::new();
        for a in checkpoint::field(v, "active")?
            .as_array()
            .ok_or("`active` is not an array")?
        {
            let id = u32::from_value(a)?;
            if id as usize >= n {
                return Err(format!("active node {id} out of range for n = {n}"));
            }
            if active.last().is_some_and(|&p| p >= id) {
                return Err("active set is not strictly ascending".into());
            }
            active.push(id);
        }
        let mut out_flags = vec![Flags::default(); n];
        for entry in checkpoint::field(v, "out_flags")?
            .as_array()
            .ok_or("`out_flags` is not an array")?
        {
            let t = entry.as_array().ok_or("out_flags entry is not an array")?;
            if t.len() != 3 {
                return Err("out_flags entry must be [node, is_empty, neighbors_empty]".into());
            }
            let idx = u32::from_value(&t[0])? as usize;
            if idx >= n {
                return Err(format!("out_flags node {idx} out of range for n = {n}"));
            }
            out_flags[idx] = Flags {
                is_empty: bool::from_value(&t[1])?,
                neighbors_empty: bool::from_value(&t[2])?,
            };
        }
        let buffers = RoundBuffers::resume(nbrs, active, out_flags);

        Ok(Simulator {
            topo,
            nodes,
            round,
            meter,
            per_node,
            bandwidth,
            cfg,
            stats,
            inconsistent_now: get_u64("inconsistent_now")? as usize,
            last_active: get_u64("last_active")? as usize,
            last_shards: get_u64("last_shards")? as usize,
            shard_peak_active,
            buffers,
        })
    }
}

impl<N: Node> Simulator<N> {
    /// Execute one full round with the given batch of topology changes.
    ///
    /// # Panics
    /// Panics on invalid batches (inserting a present edge, deleting an
    /// absent one) and on bandwidth violations under the `Enforce` policy.
    pub fn step(&mut self, batch: &EventBatch) {
        self.round += 1;
        let round = self.round;
        let n = self.topo.n();

        if let Err(e) = self.topo.validate(batch) {
            panic!("invalid event batch at round {round}: {e}");
        }
        self.topo.apply(batch, round);
        self.buffers.apply_batch(batch);
        self.buffers.build_local(batch);

        // The engines differ only here: who is visited this round.
        match self.cfg.engine {
            Engine::Dense => self.buffers.activate_all(n),
            Engine::Sparse => self.buffers.activate_local(),
        }

        // Partition the active set into K contiguous id ranges. Both the
        // shard count and the boundaries are pure functions of the round's
        // data (plus config), never of thread schedule. The cuts are
        // weighted by `1 + degree` so a hub decile does not pile into one
        // shard.
        let k = self.effective_shards();
        self.last_shards = k;
        self.buffers.ensure_shards(k);
        let bounds = if k > 1 {
            let nbrs = &self.buffers.nbrs;
            weighted_ranges(&self.buffers.active, k, n, |_, id| {
                1 + nbrs[id as usize].len() as u64
            })
        } else {
            Vec::new()
        };

        // Region A — phases 1–2 plus routing expansion, one task per
        // shard: each task owns the nodes and flag slots of its id range
        // and writes traffic + bandwidth charges to its own scratch.
        {
            let ShardParts {
                nbrs,
                local,
                active,
                out_flags,
                scratch,
            } = self.buffers.shard_parts(k);
            if k == 1 {
                let mut task = TaskA {
                    lo: 0,
                    nodes: &mut self.nodes[..],
                    out_flags,
                    active,
                    nbrs,
                    local,
                    n,
                    round,
                    scratch: &mut scratch[0],
                };
                run_region_a(&mut task);
            } else {
                let mut tasks: Vec<Mutex<TaskA<'_, N>>> = Vec::with_capacity(k);
                let mut nodes_rest: &mut [N] = &mut self.nodes;
                let mut flags_rest = out_flags;
                let mut active_rest = active;
                let mut scratch_rest = scratch;
                let mut base = 0usize;
                for s in 0..k {
                    let hi = bounds[s + 1] as usize;
                    let (node_slice, nr) = nodes_rest.split_at_mut(hi - base);
                    let (flag_slice, fr) = flags_rest.split_at_mut(hi - base);
                    let cut = active_rest.partition_point(|&v| (v as usize) < hi);
                    let (active_slice, ar) = active_rest.split_at(cut);
                    let (scr, sr) = scratch_rest.split_at_mut(1);
                    tasks.push(Mutex::new(TaskA {
                        lo: base,
                        nodes: node_slice,
                        out_flags: flag_slice,
                        active: active_slice,
                        nbrs,
                        local,
                        n,
                        round,
                        scratch: &mut scr[0],
                    }));
                    nodes_rest = nr;
                    flags_rest = fr;
                    active_rest = ar;
                    scratch_rest = sr;
                    base = hi;
                }
                Pool::global().run(k, k, &|s| {
                    run_region_a(&mut tasks[s].lock().expect("shard task"));
                });
            }
        }

        // Sequential exchange: replay the bandwidth charge logs shard by
        // shard (= global ascending sender order, so `Enforce` panics and
        // meter totals are identical to the unsharded engine), then merge
        // the shards' sorted traffic runs and assemble the sparse inboxes.
        self.bandwidth.begin_round();
        for s in 0..k {
            for ci in 0..self.buffers.shard_scratch[s].charges.len() {
                let (from, to, bits) = self.buffers.shard_scratch[s].charges[ci];
                self.bandwidth.charge(from, to, Edge::new(from, to), bits);
            }
            self.buffers.shard_scratch[s].charges.clear();
        }
        self.buffers.merge_shard_traffic(k);
        self.buffers.assemble_inboxes(round);

        let messages_this_round = self.bandwidth.round_messages();
        let bits_this_round = self.bandwidth.round_bits();

        // Region B boundaries. The receiver list and its inbox CSR exist
        // now, so Region B cuts *them* directly — weighted by `1 + inbox
        // size` — rather than reusing Region A's sender-side cuts, which
        // skew badly when a hub's receivers span the whole id space.
        // Receivers are partitioned by disjoint ascending id ranges, so
        // the stitch order (= global ascending order) is unchanged.
        let bounds_b = if k > 1 {
            let off = &self.buffers.inbox_off;
            weighted_ranges(&self.buffers.recv_nodes, k, n, |pos, _| {
                1 + (off[pos + 1] - off[pos]) as u64
            })
        } else {
            Vec::new()
        };

        // Region B — phases 3–4 plus next-active collection, one task per
        // shard of the receiver list: receive, consistency scan, and
        // survivor collection are all node-local, so each receiver is
        // visited exactly once, in its owning shard.
        {
            let collect_next = self.cfg.engine == Engine::Sparse;
            let RecvParts {
                nbrs,
                recv_nodes,
                inbox,
                inbox_off,
                scratch,
            } = self.buffers.recv_parts(k);
            if k == 1 {
                let mut task = TaskB {
                    lo: 0,
                    pos0: 0,
                    nodes: &mut self.nodes[..],
                    recv: recv_nodes,
                    inbox,
                    inbox_off,
                    nbrs,
                    round,
                    collect_next,
                    scratch: &mut scratch[0],
                };
                run_region_b(&mut task);
            } else {
                let mut tasks: Vec<Mutex<TaskB<'_, N>>> = Vec::with_capacity(k);
                let mut nodes_rest: &mut [N] = &mut self.nodes;
                let mut recv_rest = recv_nodes;
                let mut scratch_rest = scratch;
                let mut pos0 = 0usize;
                let mut base = 0usize;
                for s in 0..k {
                    let hi = bounds_b[s + 1] as usize;
                    let (node_slice, nr) = nodes_rest.split_at_mut(hi - base);
                    let cut = recv_rest.partition_point(|&v| (v as usize) < hi);
                    let (recv_slice, rr) = recv_rest.split_at(cut);
                    let (scr, sr) = scratch_rest.split_at_mut(1);
                    tasks.push(Mutex::new(TaskB {
                        lo: base,
                        pos0,
                        nodes: node_slice,
                        recv: recv_slice,
                        inbox,
                        inbox_off,
                        nbrs,
                        round,
                        collect_next,
                        scratch: &mut scr[0],
                    }));
                    nodes_rest = nr;
                    recv_rest = rr;
                    scratch_rest = sr;
                    pos0 += recv_slice.len();
                    base = hi;
                }
                Pool::global().run(k, k, &|s| {
                    run_region_b(&mut tasks[s].lock().expect("shard task"));
                });
            }
        }

        // Stitch the shard outputs back together. Shards own disjoint
        // ascending id ranges, so concatenation in shard order *is* global
        // ascending order — no sort, no merge.
        self.buffers.inconsistent_idx.clear();
        if self.cfg.engine == Engine::Sparse {
            self.buffers.active.clear();
        }
        for s in 0..k {
            self.buffers
                .inconsistent_idx
                .extend_from_slice(&self.buffers.shard_scratch[s].inconsistent);
            self.buffers.shard_scratch[s].inconsistent.clear();
            if self.cfg.engine == Engine::Sparse {
                self.buffers
                    .active
                    .extend_from_slice(&self.buffers.shard_scratch[s].next_active);
            }
            self.buffers.shard_scratch[s].next_active.clear();
        }

        let inconsistent = self.buffers.inconsistent_idx.len();
        self.inconsistent_now = inconsistent;
        self.last_active = self.buffers.recv_nodes.len();
        if self.shard_peak_active.len() < k {
            self.shard_peak_active.resize(k, 0);
        }
        if k == 1 {
            self.shard_peak_active[0] = self.shard_peak_active[0].max(self.last_active);
        } else {
            let recv = &self.buffers.recv_nodes;
            let mut start = 0usize;
            for s in 0..k {
                let hi = bounds_b[s + 1] as usize;
                let cut = start + recv[start..].partition_point(|&v| (v as usize) < hi);
                self.shard_peak_active[s] = self.shard_peak_active[s].max(cut - start);
                start = cut;
            }
        }
        self.meter
            .record_round(batch.len() as u64, inconsistent > 0);
        self.per_node.record_round_sparse(
            &self.buffers.touched_changes,
            &self.buffers.inconsistent_idx,
        );
        if self.cfg.record_stats {
            self.stats.push(RoundStats {
                round,
                changes: batch.len() as u64,
                edges: self.topo.edge_count(),
                inconsistent_nodes: inconsistent,
                messages: messages_this_round,
                bits: bits_this_round,
                active_nodes: self.last_active,
                shards: k,
            });
        }
    }

    /// The shard count for this round: a pure function of the config, the
    /// active-set size and the (fixed) worker-pool size.
    fn effective_shards(&self) -> usize {
        let active = self.buffers.active.len();
        let k = match self.cfg.shards {
            Shards::Fixed(k) => k.clamp(1, 1024),
            Shards::Auto => {
                let workers = Pool::global().workers();
                if workers == 0 {
                    1
                } else {
                    (active / 1024).clamp(1, workers + 1)
                }
            }
        };
        k.min(active.max(1))
    }
}

/// `k + 1` non-decreasing node-id boundaries splitting the ascending id
/// list `ids` into `k` contiguous-id shards of near-equal total
/// `weight(position, id)` — a deterministic prefix-sum split: cut `s`
/// lands on the first id whose weight prefix reaches `s/k` of the total.
/// A pure function of `(ids, k, weight)`, so boundaries can never depend
/// on thread schedule. Requires `1 < k` and `ids` non-empty.
fn weighted_ranges(
    ids: &[u32],
    k: usize,
    n: usize,
    mut weight: impl FnMut(usize, u32) -> u64,
) -> Vec<u32> {
    let mut total: u64 = 0;
    for (pos, &id) in ids.iter().enumerate() {
        total += weight(pos, id);
    }
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0u32);
    let mut prefix: u64 = 0;
    let mut pos = 0usize;
    for s in 1..k {
        let target = ((total as u128 * s as u128) / k as u128) as u64;
        while pos < ids.len() && prefix < target {
            prefix += weight(pos, ids[pos]);
            pos += 1;
        }
        let candidate = if pos < ids.len() { ids[pos] } else { n as u32 };
        let prev = *bounds.last().expect("non-empty");
        bounds.push(candidate.max(prev));
    }
    bounds.push(n as u32);
    bounds
}

/// One shard's send-region task: disjoint mutable slices of the node and
/// flag arrays for its id range `[lo, lo + nodes.len())`, the id-range
/// slice of the active set, shared read-only round state, and the shard's
/// private scratch.
struct TaskA<'a, N: Node> {
    lo: usize,
    nodes: &'a mut [N],
    out_flags: &'a mut [Flags],
    active: &'a [u32],
    nbrs: &'a [Vec<NodeId>],
    local: LocalView<'a>,
    n: usize,
    round: Round,
    scratch: &'a mut ShardScratch<N::Msg>,
}

/// Phases 1–2 plus routing expansion for one shard, fused per node — the
/// phases are node-local, so visiting each active node once end-to-end is
/// bit-identical to the former phase-by-phase sweeps. Leaves the shard's
/// `staged`/`flag_stage` runs sorted by `(receiver, sender)` and its
/// charge log in ascending sender order, ready for the sequential merge.
fn run_region_a<N: Node>(t: &mut TaskA<'_, N>) {
    let TaskA {
        lo,
        nodes,
        out_flags,
        active,
        nbrs,
        local,
        n,
        round,
        scratch,
    } = t;
    let (lo, n, round) = (*lo, *n, *round);
    for &v in *active {
        let i = v as usize;
        let from = NodeId(v);
        let node = &mut nodes[i - lo];
        node.on_topology(round, local.of(i));
        let outbox = node.send(round, &nbrs[i]);
        out_flags[i - lo] = outbox.flags;
        if !outbox.flags.is_quiet() {
            let flag_bits = outbox.flags.bit_size(n);
            for &peer in &nbrs[i] {
                scratch.charges.push((from, peer, flag_bits));
                scratch.flag_stage.push((peer, from));
            }
        }
        let charges = &mut scratch.charges;
        let staged = &mut scratch.staged;
        expand_outbox(
            from,
            outbox.payloads,
            &nbrs[i],
            n,
            round,
            |to, msg, bits| {
                charges.push((from, to, bits));
                staged.push((to, from, msg));
            },
        );
    }
    scratch
        .staged
        .sort_unstable_by_key(|&(to, from, _)| (to, from));
    scratch.flag_stage.sort_unstable();
}

/// One shard's receive-region task: disjoint mutable access to its node
/// range, the id-range slice of the receiver list (starting at global
/// position `pos0`), the shared assembled inbox CSR, and private scratch.
struct TaskB<'a, N: Node> {
    lo: usize,
    pos0: usize,
    nodes: &'a mut [N],
    recv: &'a [u32],
    inbox: &'a [Received<N::Msg>],
    inbox_off: &'a [usize],
    nbrs: &'a [Vec<NodeId>],
    round: Round,
    collect_next: bool,
    scratch: &'a mut ShardScratch<N::Msg>,
}

/// Phases 3–4 plus next-active collection for one shard, fused per
/// receiver. Nodes outside the receiver set were idle (hence consistent)
/// and received nothing, so scanning the receivers counts every
/// inconsistent node and every next-round survivor.
fn run_region_b<N: Node>(t: &mut TaskB<'_, N>) {
    let TaskB {
        lo,
        pos0,
        nodes,
        recv,
        inbox,
        inbox_off,
        nbrs,
        round,
        collect_next,
        scratch,
    } = t;
    let (lo, pos0, round, collect_next) = (*lo, *pos0, *round, *collect_next);
    for (off, &v) in recv.iter().enumerate() {
        let i = v as usize;
        let node = &mut nodes[i - lo];
        let pos = pos0 + off;
        node.receive(round, &inbox[inbox_off[pos]..inbox_off[pos + 1]], &nbrs[i]);
        if !node.is_consistent() {
            scratch.inconsistent.push(v);
        }
        if collect_next && !node.idle() {
            scratch.next_active.push(v);
        }
    }
}

/// Expand one sender's addressed payloads into `(receiver, message, bits)`
/// routes, in payload order. Panics when a payload addresses a
/// non-neighbor; broadcasts draw their receivers from the neighbor slice
/// itself, so membership holds by construction and is not re-checked.
fn expand_outbox<M: BitSized + Clone>(
    from: NodeId,
    payloads: Vec<Addressed<M>>,
    neighbors: &[NodeId],
    n: usize,
    round: Round,
    mut sink: impl FnMut(NodeId, M, u64),
) {
    for addressed in payloads {
        match addressed {
            Addressed::To(peer, msg) => {
                assert!(
                    neighbors.binary_search(&peer).is_ok(),
                    "node {from:?} attempted to send to non-neighbor {peer:?} at round {round}"
                );
                let bits = msg.bit_size(n);
                sink(peer, msg, bits);
            }
            Addressed::Broadcast(msg) => {
                let bits = msg.bit_size(n);
                for &peer in neighbors {
                    sink(peer, msg.clone(), bits);
                }
            }
            Addressed::Multicast(peers, msg) => {
                let bits = msg.bit_size(n);
                for peer in peers {
                    assert!(
                        neighbors.binary_search(&peer).is_ok(),
                        "node {from:?} attempted to send to non-neighbor {peer:?} at round {round}"
                    );
                    sink(peer, msg.clone(), bits);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LocalEvent;
    use crate::fingerprint::{Claim, Fingerprint};
    use crate::ids::edge;
    use crate::message::{Outbox, Received};

    /// A toy protocol: every node keeps its current neighbor set as its
    /// "data structure" and broadcasts nothing. Always consistent and
    /// always idle — the sparse engine should skip it entirely on quiet
    /// rounds.
    struct NeighborSet {
        id: NodeId,
        neighbors: Vec<NodeId>,
    }

    impl Node for NeighborSet {
        type Msg = ();

        fn new(id: NodeId, _n: usize) -> Self {
            NeighborSet {
                id,
                neighbors: Vec::new(),
            }
        }

        fn on_topology(&mut self, _round: Round, events: &[LocalEvent]) {
            for ev in events {
                if ev.inserted {
                    self.neighbors.push(ev.peer);
                } else {
                    self.neighbors.retain(|&p| p != ev.peer);
                }
            }
        }

        fn send(&mut self, _round: Round, _neighbors: &[NodeId]) -> Outbox<()> {
            Outbox::quiet()
        }

        fn receive(&mut self, _round: Round, inbox: &[Received<()>], neighbors: &[NodeId]) {
            // Sparse-inbox contract: nobody transmits in this protocol, so
            // the inbox is empty; the neighbor slice is still complete.
            assert!(inbox.is_empty());
            assert!(!neighbors.contains(&self.id));
        }

        fn is_consistent(&self) -> bool {
            true
        }

        fn idle(&self) -> bool {
            true
        }
    }

    /// An echo protocol: on every incident insertion, unicast the new
    /// neighbor a greeting that costs `2 * node_bits` bits. Uses the
    /// conservative `idle` default (always active once constructed).
    #[derive(Clone)]
    struct Greeting(NodeId);
    impl BitSized for Greeting {
        fn bit_size(&self, n: usize) -> u64 {
            2 * crate::message::node_bits(n)
        }
    }
    struct Greeter {
        id: NodeId,
        pending: Vec<NodeId>,
        greeted_by: Vec<NodeId>,
    }
    impl Node for Greeter {
        type Msg = Greeting;

        fn new(id: NodeId, _n: usize) -> Self {
            Greeter {
                id,
                pending: Vec::new(),
                greeted_by: Vec::new(),
            }
        }

        fn on_topology(&mut self, _round: Round, events: &[LocalEvent]) {
            for ev in events {
                if ev.inserted {
                    self.pending.push(ev.peer);
                }
            }
        }

        fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<Greeting> {
            let mut out = Outbox::quiet();
            if let Some(peer) = self.pending.pop() {
                if neighbors.binary_search(&peer).is_ok() {
                    out.to(peer, Greeting(self.id));
                }
            }
            out.flags.is_empty = self.pending.is_empty();
            out
        }

        fn receive(&mut self, _round: Round, inbox: &[Received<Greeting>], _ns: &[NodeId]) {
            for r in inbox {
                if let Some(g) = &r.payload {
                    self.greeted_by.push(g.0);
                }
            }
        }

        fn is_consistent(&self) -> bool {
            self.pending.is_empty()
        }
    }

    #[test]
    fn neighbor_sets_track_topology() {
        let mut sim: Simulator<NeighborSet> = Simulator::new(5);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        sim.step(&b);
        assert_eq!(sim.node(NodeId(0)).neighbors.len(), 2);
        sim.step(&EventBatch::delete(edge(0, 1)));
        assert_eq!(sim.node(NodeId(0)).neighbors, vec![NodeId(2)]);
        assert_eq!(sim.topology().edge_count(), 1);
        assert_eq!(sim.meter().changes(), 3);
    }

    #[test]
    fn sparse_engine_skips_idle_nodes_on_quiet_rounds() {
        let cfg = SimConfig {
            record_stats: true,
            ..SimConfig::default()
        };
        assert_eq!(cfg.engine, Engine::Sparse);
        let mut sim: Simulator<NeighborSet> = Simulator::with_config(64, cfg);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(5, 9));
        sim.step(&b);
        // Churn round: exactly the four endpoints were visited.
        assert_eq!(sim.active_nodes(), 4);
        sim.step_quiet();
        // Idle protocol, quiet batch: nobody is visited at all.
        assert_eq!(sim.active_nodes(), 0);
        assert_eq!(sim.stats()[1].active_nodes, 0);
        assert!(sim.all_consistent());
    }

    #[test]
    fn dense_engine_visits_everyone() {
        let cfg = SimConfig {
            record_stats: true,
            engine: Engine::Dense,
            ..SimConfig::default()
        };
        let mut sim: Simulator<NeighborSet> = Simulator::with_config(16, cfg);
        sim.step_quiet();
        assert_eq!(sim.active_nodes(), 16);
        assert_eq!(sim.stats()[0].active_nodes, 16);
    }

    #[test]
    fn engine_parses_from_str() {
        assert_eq!("dense".parse::<Engine>(), Ok(Engine::Dense));
        assert_eq!("sparse".parse::<Engine>(), Ok(Engine::Sparse));
        assert!("frob".parse::<Engine>().is_err());
    }

    #[test]
    fn greetings_are_delivered_and_metered() {
        let mut sim: Simulator<Greeter> = Simulator::new(4);
        sim.step(&EventBatch::insert(edge(0, 1)));
        // Both endpoints greet each other in the same round.
        assert_eq!(sim.node(NodeId(0)).greeted_by, vec![NodeId(1)]);
        assert_eq!(sim.node(NodeId(1)).greeted_by, vec![NodeId(0)]);
        assert_eq!(sim.bandwidth().total_messages(), 2);
        assert!(sim.bandwidth().total_bits() > 0);
        assert!(sim.all_consistent());
    }

    #[test]
    fn messages_do_not_cross_deleted_edges() {
        let mut sim: Simulator<Greeter> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        sim.step(&b);
        // Delete and reinsert in consecutive rounds: a greeting queued for a
        // peer that is no longer a neighbor is silently dropped by the test
        // protocol (checked via neighbor binary_search), not mis-routed.
        sim.step(&EventBatch::delete(edge(0, 1)));
        assert!(sim.all_consistent());
    }

    #[test]
    fn settle_converges() {
        let mut sim: Simulator<Greeter> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(0, 3));
        sim.step(&b);
        // Node 0 queued three greetings and dequeues one per round.
        assert!(!sim.all_consistent());
        let quiet = sim.settle(10).expect("must stabilize");
        assert!(quiet <= 3, "took {quiet} quiet rounds");
    }

    /// The shared churn scenario of the equivalence tests below: the
    /// run's fingerprint, plus every node's greeting log.
    fn churn_run(cfg: SimConfig) -> (Fingerprint, Vec<Vec<NodeId>>) {
        let mut sim: Simulator<Greeter> = Simulator::with_config(16, cfg);
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut present: Vec<Edge> = Vec::new();
        for _ in 0..50 {
            let mut batch = EventBatch::new();
            // Simple xorshift-driven random batch, deterministic.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let u = (rng_state % 16) as u32;
            let w = ((rng_state >> 8) % 16) as u32;
            if u != w {
                let e = Edge::new(NodeId(u), NodeId(w));
                if let Some(pos) = present.iter().position(|&p| p == e) {
                    present.swap_remove(pos);
                    batch.push_delete(e);
                } else {
                    present.push(e);
                    batch.push_insert(e);
                }
            }
            sim.step(&batch);
        }
        let greeted = (0..sim.n())
            .map(|v| sim.node(NodeId(v as u32)).greeted_by.clone())
            .collect();
        (sim.fingerprint(), greeted)
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        let run = |engine: Engine| {
            churn_run(SimConfig {
                engine,
                record_stats: true,
                ..SimConfig::default()
            })
        };
        // The dense engine visits every node, so the claim covers the
        // outcome, plus all node state.
        let (sparse, sparse_nodes) = run(Engine::Sparse);
        let (dense, dense_nodes) = run(Engine::Dense);
        sparse.assert_same(&dense, Claim::Engine, "sparse vs dense");
        assert_eq!(sparse_nodes, dense_nodes);
    }

    /// Each fingerprint part moves when one of its fields does, and the
    /// mismatch names the part, the field and its round in the stats log.
    #[test]
    fn each_fingerprint_part_changes_with_its_fields() {
        let run = || {
            let cfg = SimConfig {
                record_stats: true,
                ..SimConfig::default()
            };
            let mut sim: Simulator<Greeter> = Simulator::with_config(8, cfg);
            sim.step(&EventBatch::insert(edge(0, 1)));
            sim.step_quiet();
            sim.step(&EventBatch::insert(edge(2, 3)));
            sim
        };
        let base = run().fingerprint();
        assert_eq!(base, run().fingerprint(), "a rerun is identical");
        for (case, message) in [
            "outcome: messages in round 2: 0 vs 1",
            "outcome: rounds: 3 vs 0",
            "outcome: inconsistent_nodes: 0 vs 1",
            "outcome: per-node changes digest",
            "outcome: stats log length: 3 vs 2",
            "activity: active_nodes in round 1: 8 vs 9",
            "shards: shards in round 3: 1 vs 2",
        ]
        .into_iter()
        .enumerate()
        {
            let mut s = run();
            match case {
                0 => s.stats[1].messages += 1,
                1 => s.meter = AmortizedMeter::new(),
                2 => s.inconsistent_now = 1,
                3 => s.per_node.record_round_sparse(&[(7, 1)], &[]),
                4 => drop(s.stats.remove(0)),
                5 => s.stats[0].active_nodes = 9,
                _ => s.stats[2].shards = 2,
            }
            let diff = base.first_difference(&s.fingerprint(), Claim::Same);
            let diff = diff.expect("a field moved");
            assert!(diff.starts_with(message), "{diff}");
        }
    }

    #[test]
    fn shards_parse_from_str() {
        assert_eq!("auto".parse::<Shards>(), Ok(Shards::Auto));
        assert_eq!("4".parse::<Shards>(), Ok(Shards::Fixed(4)));
        assert!("0".parse::<Shards>().is_err());
        assert!("many".parse::<Shards>().is_err());
    }

    /// Weighted cuts are a partition for any weight profile: ascending,
    /// bracketed by 0 and n, and heavy ids pull boundaries toward
    /// themselves without ever crossing.
    #[test]
    fn weighted_ranges_form_a_partition() {
        let ids: Vec<u32> = (0..100u32).collect();
        // Uniform weights reduce to near-equal-count cuts.
        let b = weighted_ranges(&ids, 4, 128, |_, _| 1);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&128));
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
        assert_eq!(b, vec![0, 25, 50, 75, 128]);
        // A hot first decile (like a hub workload) pushes every cut left.
        let hot = weighted_ranges(&ids, 4, 128, |_, id| if id < 10 { 100 } else { 1 });
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "{hot:?}");
        assert!(
            hot[1] < 10,
            "first cut must land inside the hot decile: {hot:?}"
        );
        // Degenerate: all weight on one id still yields a valid partition.
        let one = weighted_ranges(&ids, 4, 128, |_, id| u64::from(id == 7));
        assert_eq!(one.first(), Some(&0));
        assert_eq!(one.last(), Some(&128));
        assert!(one.windows(2).all(|w| w[0] <= w[1]), "{one:?}");
    }

    /// `Shards` policies are re-evaluated from the *current* round's
    /// active set: a run that goes quiet collapses back to one shard (the
    /// no-alloc path) instead of keeping its busiest round's count.
    #[test]
    fn quiet_rounds_collapse_to_one_shard() {
        let cfg = SimConfig {
            shards: Shards::Fixed(8),
            record_stats: true,
            ..SimConfig::default()
        };
        let mut sim: Simulator<NeighborSet> = Simulator::with_config(32, cfg);
        let mut b = EventBatch::new();
        for v in 0..16u32 {
            b.push_insert(edge(v, v + 16));
        }
        sim.step(&b);
        assert_eq!(sim.stats()[0].shards, 8, "busy round shards out");
        sim.step_quiet();
        let last = sim.stats().last().expect("recorded");
        assert_eq!(last.active_nodes, 0, "run went quiet");
        assert_eq!(last.shards, 1, "quiet round must collapse to one shard");
    }

    /// Structural sharding: `Fixed(K)` (pooled) must be bit-identical to
    /// `Fixed(1)` (inline) for every `K`: the outcome, the active set of
    /// every round, and all node state.
    #[test]
    fn sharded_matches_single_shard_bit_for_bit() {
        let run = |shards: Shards| {
            churn_run(SimConfig {
                shards,
                record_stats: true,
                ..SimConfig::default()
            })
        };
        let (base, base_nodes) = run(Shards::Fixed(1));
        for k in [2, 3, 8] {
            let (sharded, nodes) = run(Shards::Fixed(k));
            let ctx = format!("k={k}");
            base.assert_same(&sharded, Claim::ShardCount, &ctx);
            assert_eq!(base_nodes, nodes, "{ctx}");
        }
    }

    #[test]
    fn shard_peaks_are_tracked() {
        let cfg = SimConfig {
            shards: Shards::Fixed(2),
            ..SimConfig::default()
        };
        let mut sim: Simulator<Greeter> = Simulator::with_config(8, cfg);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(6, 7));
        sim.step(&b);
        assert_eq!(sim.shards(), 2);
        assert_eq!(sim.shard_peak_active().len(), 2);
        assert_eq!(sim.shard_peak_active().iter().sum::<usize>(), 8);
    }

    #[test]
    #[should_panic(expected = "invalid event batch")]
    fn invalid_batch_is_rejected() {
        let mut sim: Simulator<NeighborSet> = Simulator::new(3);
        sim.step(&EventBatch::delete(edge(0, 1)));
    }
}
