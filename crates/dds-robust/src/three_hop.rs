//! Robust 3-hop neighborhood listing (Theorem 6).
//!
//! Timestamps are not enough at distance 3 (the paper sketches why), so
//! each node `v` instead maintains, for every known edge `e`, the **set of
//! paths** `P_e` on which `e` was learned. An edge is considered present
//! exactly while some learning path survives; when a deletion severs every
//! path, the edge is forgotten.
//!
//! Propagation discipline (all items broadcast, one dequeue per round):
//!
//! - **Insertions** travel as rooted paths. An endpoint enqueues its new
//!   incident edge as the 1-edge path; a receiver prepends itself and
//!   re-broadcasts the result while it has at most 2 edges, so knowledge of
//!   an edge reaches exactly the nodes that see it at the end of a 2- or
//!   3-path — the Figure 3 patterns.
//! - **Deletions** travel as route-tagged notices: an endpoint broadcasts
//!   a first-hand (level 0) notice; non-endpoint receivers forward it once
//!   (level 1) tagged with its origin. A receiver purges exactly the
//!   learning paths matching the route the notice travelled, so notices
//!   and re-insertion paths of the same route stay FIFO-ordered end to
//!   end and stale echoes can never destroy another route's knowledge.
//! - **Consistency** needs a *two-round* quiet window and second-order
//!   flags: `AreNeighborsEmpty` tells a node that its 2-hop neighborhood's
//!   queues were empty a round ago, which is what the correctness proof
//!   needs for 3-hop information to have fully drained.
//!
//! When consistent, the surviving edge set `S̃_v` satisfies
//! `R^{v,3}_{i−1} ⊆ S̃_v ⊆ E^{v,2}_i ∪ E^{v,3}_{i−1}` — enough for 4-cycle
//! and 5-cycle listing (Theorem 5; see [`crate::cycle`]).

use crate::paths::{Path, MAX_PATH_NODES};
use dds_net::checkpoint::{self as ckpt, Checkpointable, Reader, Writer};
use dds_net::{
    Answer, BitSized, Edge, Flags, LocalEvent, Node, NodeId, Outbox, Query, QueryError, QueryKind,
    Queryable, Received, Response, Round,
};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// Maximum deletion propagation level. Every edge holder lies within
/// distance 2 of one of the edge's endpoints (stored paths have at most 3
/// edges and end at the stored edge), so deletions need the endpoints'
/// own broadcasts (level 0) plus one forwarding hop by non-endpoints
/// (level 1) — level-1 receivers purge without forwarding.
pub const MAX_DELETE_HOPS: u8 = 1;

/// Wire message of the robust 3-hop structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreeHopMsg {
    /// A learning path, rooted at the sender (first vertex == sender).
    InsertPath(Path),
    /// A deletion of `edge`. A level-0 notice comes first-hand from an
    /// endpoint; a level-1 notice is a forward and carries `via`: the
    /// endpoint whose level-0 notice is being forwarded. Receivers purge
    /// only learning paths matching the exact route the notice travelled
    /// (`sender`, then `via`), which makes every notice FIFO-ordered with
    /// the insertion paths of the same route, end to end.
    Delete {
        /// The deleted edge.
        edge: Edge,
        /// Hop counter `ℓ ∈ {0, 1}`.
        level: u8,
        /// For level-1 forwards: the endpoint that originated the notice.
        via: Option<NodeId>,
    },
}

impl BitSized for ThreeHopMsg {
    fn bit_size(&self, n: usize) -> u64 {
        let l = dds_net::node_bits(n);
        match self {
            // Up to 3 vertex ids (broadcast paths have ≤ 2 edges) + length
            // tag + mark.
            ThreeHopMsg::InsertPath(p) => p.num_nodes() as u64 * l + 3,
            // Edge + optional via id + level bit + mark.
            ThreeHopMsg::Delete { via, .. } => (2 + u64::from(via.is_some())) * l + 3,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum QueueItem {
    Insert(Path),
    Delete {
        edge: Edge,
        level: u8,
        via: Option<NodeId>,
    },
}

/// Per-node state of the robust 3-hop neighborhood data structure.
#[derive(Clone)]
pub struct ThreeHopNode {
    id: NodeId,
    /// Current incident peers.
    incident: FxHashSet<NodeId>,
    /// Known edges with their sets of learning paths `P_e`.
    s: FxHashMap<Edge, FxHashSet<Path>>,
    q: VecDeque<QueueItem>,
    /// Incident topology changes were applied this round. A local change
    /// makes the round unclean even when the queue drains immediately: an
    /// incident deletion can sever learning paths that `R^{v,3}_{i−1}`
    /// still requires, and no flag would otherwise cover that round (the
    /// ex-neighbor's signals no longer arrive).
    dirty_topology: bool,
    /// The previous round was quiet (empty queue, no busy flags heard).
    clean_prev: bool,
    consistent: bool,
    /// All neighbors reported `IsEmpty = true` at the end of the previous
    /// round (sent as this round's `AreNeighborsEmpty`).
    neighbors_were_empty: bool,
}

impl ThreeHopNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of edges with at least one surviving learning path.
    pub fn known_count(&self) -> usize {
        self.s.len()
    }

    /// The surviving edge set `S̃_v` (test/inspection helper).
    pub fn known_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.s.keys().copied()
    }

    /// The learning paths currently recorded for `e` (diagnostics).
    pub fn paths_of(&self, e: Edge) -> Option<&FxHashSet<Path>> {
        self.s.get(&e)
    }

    /// Depth of the pending update queue (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.q.len()
    }

    /// Robust 3-hop neighborhood listing query: is `e` known?
    ///
    /// When consistent, answers `true` for every edge of `R^{v,3}_{i−1}`
    /// and `false` for every edge outside `E^{v,3}_{i−1} ∪ E^{v,2}_i`.
    pub fn query_edge(&self, e: Edge) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        Response::Answer(self.s.contains_key(&e))
    }

    /// Adjacency over the known edge set (used by the cycle queries).
    pub(crate) fn known_adjacency(&self) -> FxHashMap<NodeId, Vec<NodeId>> {
        let mut adj: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for e in self.s.keys() {
            adj.entry(e.lo()).or_default().push(e.hi());
            adj.entry(e.hi()).or_default().push(e.lo());
        }
        for v in adj.values_mut() {
            v.sort_unstable();
        }
        adj
    }

    /// Whether the edge is known (no consistency gate; internal).
    pub(crate) fn knows_edge(&self, e: Edge) -> bool {
        self.s.contains_key(&e)
    }

    /// Whether the node currently believes itself consistent.
    pub fn consistent(&self) -> bool {
        self.consistent
    }

    /// Queue a deletion for (re-)broadcast. No deduplication: two distinct
    /// deletion events of the same edge must both keep their FIFO position
    /// relative to the re-insertion between them, otherwise a merged
    /// deletion lets the stale re-insertion broadcast last. The volume is
    /// bounded anyway: per deletion event a node enqueues at most one own
    /// announcement or two forwards (one per endpoint copy).
    fn enqueue_delete(&mut self, e: Edge, level: u8, via: Option<NodeId>) {
        if level <= MAX_DELETE_HOPS {
            self.q.push_back(QueueItem::Delete {
                edge: e,
                level,
                via,
            });
        }
    }

    /// Record all simple prefix subpaths of a rooted path.
    fn absorb_path(&mut self, p: Path) {
        debug_assert_eq!(p.first(), self.id);
        for (e, sub) in p.prefixes() {
            if sub.is_simple() {
                self.s.entry(e).or_default().insert(sub);
            }
        }
    }

    /// Remove every learning path that traverses `e`; drop edges whose path
    /// set becomes empty. Used for this node's *own* incident deletions
    /// (where `e`'s only possible position is the first edge of a path).
    fn purge_edge(&mut self, e: Edge) {
        self.s.retain(|_, paths| {
            paths.retain(|p| !p.contains_edge(e));
            !paths.is_empty()
        });
    }

    /// Route-specific purge: remove only the learning paths that traverse
    /// `e` AND match the route the deletion notice travelled — second
    /// vertex `hop1` (the notice's sender) and, when the notice is a
    /// forward, third vertex `hop2` (the endpoint it was forwarded from).
    /// Deletion notices must never touch paths learned over other routes:
    /// each route's notice/re-teach stream is FIFO-ordered end to end by
    /// its relays, while a stale notice from a slower route could
    /// otherwise destroy another route's already-repaired knowledge for
    /// good.
    fn purge_edge_via(&mut self, e: Edge, hop1: NodeId, hop2: Option<NodeId>) {
        self.s.retain(|_, paths| {
            paths.retain(|p| {
                let ns = p.nodes();
                let route_match =
                    ns[1] == hop1 && hop2.is_none_or(|h2| ns.len() > 2 && ns[2] == h2);
                !(route_match && p.contains_edge(e))
            });
            !paths.is_empty()
        });
    }

    /// Entry-time processing of a *received* deletion at level `level`:
    /// purge immediately, then schedule the next-level forward.
    ///
    /// Two rules keep stale deletion echoes from destroying fresh
    /// knowledge:
    ///
    /// - Effects are applied when an item *enters* the node (topology
    ///   event or receipt), never when it is dequeued for broadcast: a
    ///   purge executed at dequeue time could land behind a newer
    ///   re-insertion of the same edge in this node's own FIFO. Entry-time
    ///   processing applies events in arrival order, which respects each
    ///   sender's causal (per-queue FIFO) order — and each origin's fresh
    ///   re-insertion wave always trails its own deletion wave on every
    ///   route, repairing any cross-sender purge.
    /// - **Endpoints ignore received deletions of their own edges**: their
    ///   local topology events are authoritative, and forwarding a delayed
    ///   echo after a re-insertion would emit a causally stale deletion
    ///   *after* the fresh insertion in this node's outgoing stream — the
    ///   one reordering the FIFO argument cannot repair.
    fn process_delete(&mut self, e: Edge, level: u8, via: Option<NodeId>, from: NodeId) {
        if e.touches(self.id) {
            return;
        }
        debug_assert!(
            level > 0 || e.touches(from),
            "level-0 notices are first-hand"
        );
        self.purge_edge_via(e, from, via);
        if level < MAX_DELETE_HOPS {
            self.enqueue_delete(e, level + 1, Some(from));
        }
    }
}

impl Node for ThreeHopNode {
    type Msg = ThreeHopMsg;

    fn new(id: NodeId, _n: usize) -> Self {
        ThreeHopNode {
            id,
            incident: FxHashSet::default(),
            s: FxHashMap::default(),
            q: VecDeque::new(),
            dirty_topology: false,
            clean_prev: true,
            consistent: true,
            neighbors_were_empty: true,
        }
    }

    fn on_topology(&mut self, _round: Round, events: &[LocalEvent]) {
        if !events.is_empty() {
            self.dirty_topology = true;
        }
        for ev in events {
            if ev.inserted {
                self.incident.insert(ev.peer);
                let p = Path::from_nodes(&[self.id, ev.peer]);
                self.absorb_path(p);
                self.q.push_back(QueueItem::Insert(p));
            } else {
                self.incident.remove(&ev.peer);
                self.purge_edge(ev.edge);
                self.enqueue_delete(ev.edge, 0, None);
            }
        }
    }

    fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<ThreeHopMsg> {
        let was_empty = self.q.is_empty();
        let mut out = Outbox::quiet();
        out.flags = Flags {
            is_empty: was_empty,
            neighbors_empty: self.neighbors_were_empty,
        };
        // The queue is a pure forwarding buffer: all local effects were
        // applied when the item entered the node.
        if let Some(item) = self.q.pop_front() {
            match item {
                QueueItem::Insert(p) => {
                    if !neighbors.is_empty() {
                        out.broadcast(ThreeHopMsg::InsertPath(p));
                    }
                }
                QueueItem::Delete { edge, level, via } => {
                    if !neighbors.is_empty() {
                        out.broadcast(ThreeHopMsg::Delete { edge, level, via });
                    }
                }
            }
        }
        out
    }

    fn receive(&mut self, _round: Round, inbox: &[Received<ThreeHopMsg>], _neighbors: &[NodeId]) {
        let mut heard_busy = false;
        let mut all_neighbors_empty = true;
        for rec in inbox {
            if !rec.flags.is_empty {
                heard_busy = true;
                all_neighbors_empty = false;
            }
            if !rec.flags.neighbors_empty {
                heard_busy = true;
            }
            let Some(msg) = rec.payload else { continue };
            match msg {
                ThreeHopMsg::InsertPath(p) => {
                    debug_assert_eq!(p.first(), rec.from, "paths must be sender-rooted");
                    if p.num_edges() == 1 && p.contains_node(self.id) {
                        // Our own incident edge echoed by the other
                        // endpoint: already enqueued at topology time.
                        let rooted = Path::from_nodes(&[self.id, rec.from]);
                        self.absorb_path(rooted);
                    } else {
                        let rooted = p.prepend(self.id);
                        self.absorb_path(rooted);
                        if rooted.num_edges() == 2 {
                            self.q.push_back(QueueItem::Insert(rooted));
                        }
                    }
                }
                ThreeHopMsg::Delete { edge, level, via } => {
                    self.process_delete(edge, level, via, rec.from);
                }
            }
        }
        let clean_now = self.q.is_empty() && !heard_busy && !self.dirty_topology;
        self.dirty_topology = false;
        self.consistent = clean_now && self.clean_prev;
        self.clean_prev = clean_now;
        self.neighbors_were_empty = all_neighbors_empty;
    }

    fn is_consistent(&self) -> bool {
        self.consistent
    }

    fn idle(&self) -> bool {
        // A quiet round recomputes `clean_now = true`, leaves every flag
        // field at its current value and sends quiet flags — but only when
        // the two-round window has fully closed and the second-order flag
        // is back at its default. Each conjunct is part of the fixed point.
        self.q.is_empty()
            && self.consistent
            && self.clean_prev
            && !self.dirty_topology
            && self.neighbors_were_empty
    }
}

impl Queryable for ThreeHopNode {
    fn supported_queries() -> &'static [QueryKind] {
        &[QueryKind::Edge, QueryKind::Cycle, QueryKind::ListCycles]
    }

    fn query(&self, query: &Query) -> Result<Response<Answer>, QueryError> {
        match query {
            Query::Edge(e) => Ok(self.query_edge(*e).map(Answer::Bool)),
            Query::Cycle(vs) => {
                dds_net::query::require_member(vs, self.id, QueryKind::Cycle)?;
                Ok(self.query_cycle(vs).map(Answer::Bool))
            }
            Query::ListCycles(k) => {
                if *k < 3 {
                    return Err(QueryError::Invalid(
                        "cycles have at least 3 vertices".into(),
                    ));
                }
                Ok(self.list_cycles(*k).map(Answer::VertexSets))
            }
            _ => Err(QueryError::Unsupported),
        }
    }
}

/// Read a learning path from its vertex list, validating everything
/// [`Path::from_nodes`] would otherwise assert on, so corrupt snapshots
/// surface as errors instead of panics.
fn read_path(r: &mut Reader<'_>) -> Result<Path, String> {
    let ids = ckpt::read_ids(r)?;
    if !(2..=MAX_PATH_NODES).contains(&ids.len()) {
        return Err(format!("path: {} vertices (need 2..=4)", ids.len()));
    }
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("path: consecutive repeated vertex".into());
    }
    Ok(Path::from_nodes(&ids))
}

impl Checkpointable for ThreeHopNode {
    fn save_state(&self, w: &mut Writer) {
        let mut incident: Vec<NodeId> = self.incident.iter().copied().collect();
        incident.sort_unstable();
        let mut s: Vec<(Edge, Vec<Path>)> = self
            .s
            .iter()
            .map(|(&e, paths)| {
                let mut ps: Vec<Path> = paths.iter().copied().collect();
                ps.sort_unstable();
                (e, ps)
            })
            .collect();
        s.sort_unstable_by_key(|&(e, _)| e);
        w.object(|w| {
            ckpt::write_ids(w.key("incident"), &incident);
            w.key("s").array(|w| {
                for (e, ps) in s {
                    w.array(|w| {
                        ckpt::write_edge(w, e);
                        w.array(|w| {
                            for p in ps {
                                ckpt::write_ids(w, p.nodes());
                            }
                        });
                    });
                }
            });
            w.key("q").array(|w| {
                for item in &self.q {
                    w.array(|w| match *item {
                        QueueItem::Insert(p) => ckpt::write_ids(w.str("insert"), p.nodes()),
                        QueueItem::Delete { edge, level, via } => {
                            ckpt::write_edge(w.str("delete"), edge);
                            w.u64(level as u64);
                            match via {
                                Some(u) => w.u64(u.0 as u64),
                                None => w.null(),
                            };
                        }
                    });
                }
            });
            w.key("dirty_topology").bool(self.dirty_topology);
            w.key("clean_prev").bool(self.clean_prev);
            w.key("consistent").bool(self.consistent);
            w.key("neighbors_were_empty")
                .bool(self.neighbors_were_empty);
        });
    }

    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
        let mut node = <ThreeHopNode as Node>::new(id, n);
        r.object(|r| {
            for p in ckpt::read_ids(r.key("incident")?)? {
                if p == id || p.index() >= n {
                    return Err(format!("incident: bad peer {p:?}"));
                }
                if !node.incident.insert(p) {
                    return Err(format!("incident: duplicate peer {p:?}"));
                }
            }
            r.key("s")?.elements(|r| {
                r.array(|r| {
                    let e = ckpt::read_edge(r)?;
                    if e.hi().index() >= n {
                        return Err(format!("s: out-of-range edge {e:?}"));
                    }
                    let mut paths: FxHashSet<Path> = FxHashSet::default();
                    r.elements(|r| {
                        let p = read_path(r)?;
                        let ns = p.nodes();
                        if ns[0] != id || p.last_edge() != e {
                            return Err(format!(
                                "s: path {ns:?} is not rooted at {id:?} ending at {e:?}"
                            ));
                        }
                        if !paths.insert(p) {
                            return Err(format!("s: duplicate learning path {ns:?}"));
                        }
                        Ok(())
                    })?;
                    if paths.is_empty() {
                        return Err(format!("s: edge {e:?} stored with no learning path"));
                    }
                    if node.s.insert(e, paths).is_some() {
                        return Err(format!("s: duplicate edge {e:?}"));
                    }
                    Ok(())
                })
            })?;
            r.key("q")?.elements(|r| {
                r.array(|r| {
                    match &*r.str()? {
                        "insert" => {
                            let p = read_path(r)?;
                            if p.nodes().iter().any(|u| u.index() >= n) {
                                return Err("q: path vertex out of range".into());
                            }
                            node.q.push_back(QueueItem::Insert(p));
                        }
                        "delete" => {
                            let edge = ckpt::read_edge(r)?;
                            let level = r.u64()?;
                            if edge.hi().index() >= n || level > MAX_DELETE_HOPS as u64 {
                                return Err(format!("q: invalid delete notice for {edge:?}"));
                            }
                            let via = r.null_or(ckpt::read_id)?;
                            if (level == 0) != via.is_none() {
                                return Err("q: delete level/via disagree".into());
                            }
                            node.q.push_back(QueueItem::Delete {
                                edge,
                                level: level as u8,
                                via,
                            });
                        }
                        other => return Err(format!("q: unknown item tag {other:?}")),
                    }
                    Ok(())
                })
            })?;
            node.dirty_topology = r.key("dirty_topology")?.bool()?;
            node.clean_prev = r.key("clean_prev")?.bool()?;
            node.consistent = r.key("consistent")?.bool()?;
            node.neighbors_were_empty = r.key("neighbors_were_empty")?.bool()?;
            Ok(())
        })?;
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::{edge, EventBatch, Simulator};

    #[test]
    fn checkpoint_roundtrip_preserves_paths_and_flags() {
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(4);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        sim.step(&EventBatch::insert(edge(2, 3)));
        sim.step_quiet(); // mid-drain: insert paths still queued
        for i in 0..4u32 {
            let node = sim.node(NodeId(i));
            let saved = ckpt::state_text(node);
            let back: ThreeHopNode = ckpt::load_text(node.id, 4, &saved).unwrap();
            assert_eq!(ckpt::state_text(&back), saved, "node {i} roundtrip drifted");
            assert_eq!(back.s, node.s, "node {i} path sets");
            assert_eq!(back.q, node.q, "node {i} queue");
        }
    }

    #[test]
    fn corrupt_paths_error_instead_of_panicking() {
        let read = |text: &str| read_path(&mut Reader::new(text));
        assert!(read("[0]").is_err(), "1-vertex path must be refused");
        assert!(read("[0,0]").is_err(), "repeated vertex must be refused");
        assert!(
            read("[0,1,2,3,0]").is_err(),
            "5-vertex path must be refused"
        );
    }

    fn settle(sim: &mut Simulator<ThreeHopNode>) {
        sim.settle(128).expect("3-hop structure must stabilize");
    }

    /// Insert edges one per round, in order.
    fn staged(n: usize, order: &[(u32, u32)]) -> Simulator<ThreeHopNode> {
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(n);
        for &(u, w) in order {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        settle(&mut sim);
        sim
    }

    #[test]
    fn learns_pattern_a_and_b_paths() {
        // 0-1-2-3 inserted oldest-to-newest: all three edges robust for 0.
        let sim = staged(4, &[(0, 1), (1, 2), (2, 3)]);
        let node = sim.node(NodeId(0));
        for e in [edge(0, 1), edge(1, 2), edge(2, 3)] {
            assert_eq!(node.query_edge(e), Response::Answer(true), "missing {e:?}");
        }
    }

    #[test]
    fn reverse_insertion_order_is_not_robust_but_answers_stay_sound() {
        // 2-3 first, then 1-2, then 0-1: nothing beyond the incident edge
        // is *guaranteed*, but any `true` answer must still name an edge of
        // E^{0,3} (soundness); here we only check the guaranteed parts.
        let sim = staged(4, &[(2, 3), (1, 2), (0, 1)]);
        let node = sim.node(NodeId(0));
        assert_eq!(node.query_edge(edge(0, 1)), Response::Answer(true));
        // {2,3} lies in E^{0,3} so either answer is legal; it must however
        // not be *required*: R^{0,3} does not contain it. Just ensure the
        // query answers (consistency reached).
        assert!(!node.query_edge(edge(2, 3)).is_inconsistent());
    }

    #[test]
    fn far_edge_deletion_purges_paths_at_distance_3() {
        let mut sim = staged(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(2, 3)),
            Response::Answer(true)
        );
        sim.step(&EventBatch::delete(edge(2, 3)));
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(2, 3)),
            Response::Answer(false)
        );
    }

    #[test]
    fn middle_edge_deletion_severs_learning_paths() {
        let mut sim = staged(4, &[(0, 1), (1, 2), (2, 3)]);
        sim.step(&EventBatch::delete(edge(1, 2)));
        settle(&mut sim);
        let node = sim.node(NodeId(0));
        // {2,3} was only known via 0-1-2-3, which is now severed.
        assert_eq!(node.query_edge(edge(2, 3)), Response::Answer(false));
        assert_eq!(node.query_edge(edge(1, 2)), Response::Answer(false));
        assert_eq!(node.query_edge(edge(0, 1)), Response::Answer(true));
    }

    #[test]
    fn alternative_path_keeps_edge_alive() {
        // Diamond: 0-1, 0-2, then 1-3 and 2-3 (both newer). Node 0 learns
        // {1,3} via 0-1-3 and {2,3} via 0-2-3; deleting {0,1} severs the
        // path to {1,3}... but {1,3} can still be known via 0-2-3-1 if that
        // pattern exists. Here we check the simpler claim: {2,3} survives
        // the deletion of {0,1}.
        let mut sim = staged(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let node = sim.node(NodeId(0));
        assert_eq!(node.query_edge(edge(1, 3)), Response::Answer(true));
        assert_eq!(node.query_edge(edge(2, 3)), Response::Answer(true));
        sim.step(&EventBatch::delete(edge(0, 1)));
        settle(&mut sim);
        let node = sim.node(NodeId(0));
        assert_eq!(node.query_edge(edge(2, 3)), Response::Answer(true));
    }

    #[test]
    fn two_round_consistency_window() {
        // A single change dirties 3 rounds: the change round, the
        // IsEmpty=false echo, and the AreNeighborsEmpty=false echo; then
        // two clean rounds are required before C is raised again — this is
        // exactly the paper's "3 × changes" amortized charge.
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        assert!(!sim.node(NodeId(0)).consistent());
        sim.step_quiet();
        let after_one = sim.node(NodeId(0)).consistent();
        sim.step_quiet();
        let after_two = sim.node(NodeId(0)).consistent();
        sim.step_quiet();
        let after_three = sim.node(NodeId(0)).consistent();
        assert!(!after_one, "one quiet round must not be enough");
        assert!(!after_two, "the second-order flag echo dirties round 3");
        assert!(
            after_three,
            "three quiet rounds suffice for a single change"
        );
        assert_eq!(sim.meter().inconsistent_rounds(), 3);
    }

    #[test]
    fn contains_the_robust_two_hop_information() {
        // R^{v,2} ⊆ R^{v,3}: triangle with insertion order making {1,2}
        // robust for 0.
        let sim = staged(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );
    }

    #[test]
    fn amortized_stays_constant_under_path_churn() {
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(4);
        for _ in 0..20 {
            sim.step(&EventBatch::insert(edge(0, 1)));
            sim.step(&EventBatch::insert(edge(1, 2)));
            sim.step(&EventBatch::insert(edge(2, 3)));
            sim.step(&EventBatch::delete(edge(1, 2)));
            sim.step(&EventBatch::delete(edge(0, 1)));
            sim.step(&EventBatch::delete(edge(2, 3)));
        }
        sim.settle(128).unwrap();
        assert!(
            sim.meter().amortized() <= 4.0,
            "amortized = {}",
            sim.meter().amortized()
        );
    }

    #[test]
    fn flicker_of_incident_edges_cannot_fake_a_far_edge() {
        // The 3-hop analogue of §1.3: triangle 0-1-2, far edge {1,2}
        // deleted while both incident edges flicker. The path-set
        // mechanism must purge {1,2} at node 0.
        let mut sim: Simulator<ThreeHopNode> = Simulator::new(3);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(1, 2));
        sim.step(&b);
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );
        let mut b = EventBatch::new();
        b.push_delete(edge(1, 2));
        b.push_delete(edge(0, 1));
        b.push_delete(edge(0, 2));
        sim.step(&b);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        sim.step(&b);
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(false)
        );
    }
}
