//! Triangle membership listing (Theorem 1).
//!
//! Extends the robust 2-hop structure with the second temporal edge pattern
//! of Figure 2: node `v` also learns every edge `{u,w}` that closes a
//! triangle with `v` but was inserted *before both* of `v`'s edges `{v,u}`
//! and `{v,w}` (pattern (b)). Such an edge cannot be learned through the
//! robust mechanism — its endpoints would never push it over the younger
//! links — so a *common neighbor* relays it:
//!
//! when a node `x` (playing the role of the common neighbor) hears about a
//! freshly inserted edge `{v,w}` and notices that one of its own edges,
//! say `{x,v}`, is older than the other and no younger than the new edge,
//! it enqueues the directed hint "tell `w` about `{x,v}`" (mark (b)). The
//! receiver `w` stores the edge as a (b)-marked entry — semantically *older
//! than both incident edges*, which is what pattern (b) requires — so the
//! deletion cascade purges it whenever either incident edge goes away, and
//! explicit `BDel` notices with per-endpoint tombstones (DESIGN.md §6.5)
//! purge it when the far edge itself is deleted.
//!
//! When consistent, `S_v` equals `T^{v,2}` (the Figure 2 pattern set), and
//! `{v,u,w}` is a triangle iff all of `{v,u}`, `{v,w}`, `{u,w}` are in
//! `S_v` — giving exact membership listing, and by Corollary 1 exact
//! k-clique membership listing for every `k ≥ 3`.

use dds_net::checkpoint::{self as ckpt, Checkpointable, Reader, Writer};
use dds_net::{
    Answer, BitSized, Edge, Flags, LocalEvent, Node, NodeId, Outbox, Query, QueryError, QueryKind,
    Queryable, Received, Response, Round,
};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// Wire message of the triangle structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriMsg {
    /// Mark (a): an endpoint announces an incident edge change. Sent only
    /// over links not younger than the announced instance (`te ≥ t_link`),
    /// for insertions and deletions alike.
    A {
        /// The announced edge (incident to the sender).
        edge: Edge,
        /// `true` for insertion, `false` for deletion.
        insert: bool,
    },
    /// Mark (b): the sender relays one of *its own* incident edges to a
    /// common neighbor that cannot learn it through pattern (a).
    B {
        /// The relayed edge (incident to the sender; the other endpoint is
        /// the third corner of the triangle).
        edge: Edge,
    },
    /// Mark (b) deletion notice: the complement of the (a)-deletion — sent
    /// over links *younger* than the deleted instance (`te < t_link`),
    /// reaching exactly the neighbors that may hold the edge as a
    /// pattern-(b) entry. Receivers treat it as a per-endpoint tombstone.
    BDel {
        /// The deleted edge (incident to the sender).
        edge: Edge,
    },
}

impl BitSized for TriMsg {
    fn bit_size(&self, n: usize) -> u64 {
        // Two node ids + 2-bit mark + insert bit.
        2 * dds_net::node_bits(n) + 3
    }
}

/// A known non-incident edge entry: per-witness (a)-support marks plus
/// pattern-(b) book-keeping.
///
/// `via` bit 0 (resp. 1) is set iff the edge was taught by its `lo`
/// (resp. `hi`) endpoint over the *current incarnation* of the link to
/// that endpoint — set by filtered (a)-insertions, cleared by filtered
/// (a)-deletions from the same endpoint or by the deletion cascade when
/// the link itself dies. At quiescence, a mark is present exactly when
/// the edge is pattern-(a) robust via that endpoint.
///
/// `b_present` records a pattern-(b) relay; `tombstones` collects
/// (b)-deletion notices per endpoint. A (b)-entry dies only on *both*
/// tombstones (per-endpoint FIFO guarantees an endpoint's own deletion
/// notice precedes its own fresher relay, so a live edge can never
/// accumulate both) or when either connecting link dies (cascade).
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    via: u8,
    b_present: bool,
    tombstones: u8,
}

impl Entry {
    fn bit(edge: Edge, endpoint: NodeId) -> u8 {
        if edge.lo() == endpoint {
            0b01
        } else {
            debug_assert_eq!(edge.hi(), endpoint);
            0b10
        }
    }

    fn set_via(&mut self, edge: Edge, endpoint: NodeId) {
        self.via |= Self::bit(edge, endpoint);
    }

    fn clear_via(&mut self, edge: Edge, endpoint: NodeId) {
        self.via &= !Self::bit(edge, endpoint);
    }

    fn has_via(&self, edge: Edge, endpoint: NodeId) -> bool {
        self.via & Self::bit(edge, endpoint) != 0
    }

    fn tombstone(&mut self, edge: Edge, endpoint: NodeId) {
        self.tombstones |= Self::bit(edge, endpoint);
        if self.tombstones == 0b11 {
            self.b_present = false;
            self.tombstones = 0;
        }
    }

    fn relay_b(&mut self) {
        self.b_present = true;
        self.tombstones = 0;
    }

    fn is_dead(&self) -> bool {
        self.via == 0 && !self.b_present
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum QueueItem {
    A { edge: Edge, te: Round, insert: bool },
    B { edge: Edge, target: NodeId },
}

/// Per-node state of the triangle membership-listing data structure.
#[derive(Clone)]
pub struct TriangleNode {
    id: NodeId,
    /// Current incident edges: peer → true insertion timestamp.
    incident: FxHashMap<NodeId, Round>,
    /// Known non-incident edges (incident edges live in `incident`).
    s: FxHashMap<Edge, Entry>,
    q: VecDeque<QueueItem>,
    /// Pending mark-(b) hints, mirroring the queue for deduplication.
    pending_b: FxHashSet<(Edge, NodeId)>,
    /// An item was dequeued and transmitted this round. The transmission
    /// may trigger a mark-(b) relay at a common neighbor *within this
    /// round's update phase* — invisible to every flag until next round —
    /// so the sender must count itself inconsistent for this round; from
    /// the next round the relayer's own `IsEmpty = false` takes over.
    sent_this_round: bool,
    consistent: bool,
}

impl TriangleNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Snapshot of the known edge set (test/inspection helper).
    pub fn known_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let own = self.id;
        self.s
            .keys()
            .copied()
            .chain(self.incident.keys().map(move |&p| Edge::new(own, p)))
    }

    /// Number of edges currently known (incident + learned).
    pub fn known_count(&self) -> usize {
        self.s.len() + self.incident.len()
    }

    /// Depth of the pending update queue (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.q.len()
    }

    /// Whether the node currently believes itself consistent.
    pub fn consistent(&self) -> bool {
        self.consistent
    }

    /// Render the queue contents (diagnostics / debugging only).
    #[doc(hidden)]
    pub fn debug_queue(&self) -> Vec<String> {
        self.q.iter().map(|item| format!("{item:?}")).collect()
    }

    /// Whether the edge is known (no consistency gate; internal).
    pub(crate) fn knows_edge(&self, e: Edge) -> bool {
        if e.touches(self.id) {
            self.incident.contains_key(&e.other(self.id))
        } else {
            self.s.contains_key(&e)
        }
    }

    /// Query: does the edge `e` belong to `T^{v,2}` (equivalently: is it
    /// known to this node)?
    pub fn query_edge(&self, e: Edge) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        Response::Answer(self.knows_edge(e))
    }

    /// Triangle membership query `{v, u, w}` where `v` is this node.
    /// Answers `true` iff the triplet forms a triangle in the current
    /// graph, with no communication.
    pub fn query_triangle(&self, u: NodeId, w: NodeId) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        if u == w || u == self.id || w == self.id {
            return Response::Answer(false);
        }
        Response::Answer(
            self.knows_edge(Edge::new(self.id, u))
                && self.knows_edge(Edge::new(self.id, w))
                && self.knows_edge(Edge::new(u, w)),
        )
    }

    /// k-clique membership query (Corollary 1): `vertices` must contain
    /// this node; answers `true` iff the set forms a clique.
    pub fn query_clique(&self, vertices: &[NodeId]) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        assert!(
            vertices.contains(&self.id),
            "membership query must include the queried node"
        );
        let mut distinct: Vec<NodeId> = vertices.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != vertices.len() {
            return Response::Answer(false);
        }
        for (i, &a) in distinct.iter().enumerate() {
            for &b in &distinct[i + 1..] {
                if !self.knows_edge(Edge::new(a, b)) {
                    return Response::Answer(false);
                }
            }
        }
        Response::Answer(true)
    }

    /// List all triangles containing this node, as sorted triples.
    pub fn list_triangles(&self) -> Response<Vec<[NodeId; 3]>> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        let mut peers: Vec<NodeId> = self.incident.keys().copied().collect();
        peers.sort_unstable();
        let mut out = Vec::new();
        for (i, &u) in peers.iter().enumerate() {
            for &w in &peers[i + 1..] {
                if self.knows_edge(Edge::new(u, w)) {
                    let mut t = [self.id, u, w];
                    t.sort_unstable();
                    out.push(t);
                }
            }
        }
        Response::Answer(out)
    }

    fn enqueue_b(&mut self, edge: Edge, target: NodeId) {
        if self.pending_b.insert((edge, target)) {
            self.q.push_back(QueueItem::B { edge, target });
        }
    }

    fn handle_deletions(&mut self, events: &[LocalEvent]) {
        let mut deleted: Vec<(NodeId, Round)> = Vec::new();
        for ev in events.iter().filter(|ev| !ev.inserted) {
            let te = self
                .incident
                .remove(&ev.peer)
                .expect("deletion of unknown incident edge");
            deleted.push((ev.peer, te));
        }
        // Cascade: the dead link invalidates (a)-witnesses taught over it
        // and all (b)-support involving it (pattern (b) needs both links).
        for &(u, _) in &deleted {
            self.s.retain(|e, entry| {
                if e.touches(u) {
                    entry.clear_via(*e, u);
                    entry.b_present = false;
                    entry.tombstones = 0;
                }
                !entry.is_dead()
            });
        }
        for (peer, te) in deleted {
            self.q.push_back(QueueItem::A {
                edge: Edge::new(self.id, peer),
                te,
                insert: false,
            });
        }
    }

    fn handle_insertions(&mut self, round: Round, events: &[LocalEvent]) {
        for ev in events.iter().filter(|ev| ev.inserted) {
            self.incident.insert(ev.peer, round);
            self.q.push_back(QueueItem::A {
                edge: ev.edge,
                te: round,
                insert: true,
            });
        }
    }

    /// Record a deletion notice for `edge` from one of its endpoints.
    fn apply_deletion_notice(&mut self, edge: Edge, sender: NodeId, from_a_channel: bool) {
        let Some(entry) = self.s.get_mut(&edge) else {
            return;
        };
        if from_a_channel {
            // A filtered (a)-deletion clears exactly the sender's witness;
            // the other endpoint's support, if real, will be cleared by
            // that endpoint's own (filtered) notice or by the cascade.
            entry.clear_via(edge, sender);
        }
        // Both channels count towards the (b)-tombstones.
        entry.tombstone(edge, sender);
        if entry.is_dead() {
            self.s.remove(&edge);
        }
    }

    /// Pattern-(b) detection after learning the insertion of `e = {u, w}`
    /// (where `u` is the sender, `w` the far endpoint): if both endpoints
    /// of `e` are our neighbors and our *older* edge towards them is no
    /// younger than `t'_e`, the opposite endpoint cannot learn that older
    /// edge by itself — relay it.
    fn detect_pattern_b(&mut self, e: Edge) {
        let (a, b) = e.endpoints();
        let (Some(&ta), Some(&tb)) = (self.incident.get(&a), self.incident.get(&b)) else {
            return;
        };
        // The effective imaginary timestamp: the newest link over which
        // the edge is currently witnessed (witness marks are tied to the
        // current link incarnations, whose timestamps we know).
        let Some(entry) = self.s.get(&e) else { return };
        let mut t_prime = None;
        if entry.has_via(e, a) {
            t_prime = Some(ta);
        }
        if entry.has_via(e, b) {
            t_prime = Some(t_prime.map_or(tb, |t: Round| t.max(tb)));
        }
        let Some(t_prime) = t_prime else { return };
        if ta < tb && tb <= t_prime {
            // Our edge {v,a} is the old one; b must be told about it.
            self.enqueue_b(Edge::new(self.id, a), b);
        } else if tb < ta && ta <= t_prime {
            self.enqueue_b(Edge::new(self.id, b), a);
        }
    }
}

impl Node for TriangleNode {
    type Msg = TriMsg;

    fn new(id: NodeId, _n: usize) -> Self {
        TriangleNode {
            id,
            incident: FxHashMap::default(),
            s: FxHashMap::default(),
            q: VecDeque::new(),
            pending_b: FxHashSet::default(),
            sent_this_round: false,
            consistent: true,
        }
    }

    fn on_topology(&mut self, round: Round, events: &[LocalEvent]) {
        self.handle_deletions(events);
        self.handle_insertions(round, events);
    }

    fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<TriMsg> {
        let was_empty = self.q.is_empty();
        self.sent_this_round = !was_empty;
        let mut out = Outbox::quiet();
        out.flags = Flags {
            is_empty: was_empty,
            neighbors_empty: true, // unused by the triangle structure
        };
        if let Some(item) = self.q.pop_front() {
            match item {
                QueueItem::A { edge, te, insert } => {
                    // The (a) channel (insertions and deletions alike) uses
                    // the robustness filter `te ≥ t_link`; deletions
                    // additionally notify the complementary neighbors
                    // through the (b)-deletion channel, since those may
                    // hold the edge as a pattern-(b) entry.
                    let (a_targets, b_targets): (Vec<NodeId>, Vec<NodeId>) = neighbors
                        .iter()
                        .copied()
                        .filter(|u| self.incident.contains_key(u))
                        .partition(|u| te >= self.incident[u]);
                    if !a_targets.is_empty() {
                        out.multicast(a_targets, TriMsg::A { edge, insert });
                    }
                    if !insert && !b_targets.is_empty() {
                        out.multicast(b_targets, TriMsg::BDel { edge });
                    }
                }
                QueueItem::B { edge, target } => {
                    self.pending_b.remove(&(edge, target));
                    // The hint is only meaningful while the relayed edge is
                    // still ours and the target is still adjacent.
                    let peer = edge.other(self.id);
                    if self.incident.contains_key(&peer)
                        && self.incident.contains_key(&target)
                        && neighbors.binary_search(&target).is_ok()
                    {
                        out.to(target, TriMsg::B { edge });
                    }
                }
            }
        }
        out
    }

    fn receive(&mut self, _round: Round, inbox: &[Received<TriMsg>], _neighbors: &[NodeId]) {
        let mut any_nonempty = false;
        for rec in inbox {
            if !rec.flags.is_empty {
                any_nonempty = true;
            }
            let Some(msg) = rec.payload else { continue };
            match msg {
                TriMsg::A { edge, insert } => {
                    if edge.touches(self.id) {
                        // Echoes about our own incident edges carry no new
                        // information; local topology is authoritative.
                        continue;
                    }
                    debug_assert!(edge.touches(rec.from), "announcements are first-hand");
                    if insert {
                        self.s.entry(edge).or_default().set_via(edge, rec.from);
                        self.detect_pattern_b(edge);
                    } else {
                        self.apply_deletion_notice(edge, rec.from, true);
                    }
                }
                TriMsg::B { edge } => {
                    // `edge` is incident to the sender; the far endpoint is
                    // the triangle's third corner. Accept only while both of
                    // our connecting edges exist (pattern (b) requires it).
                    debug_assert!(edge.touches(rec.from));
                    let third = edge.other(rec.from);
                    if self.incident.contains_key(&rec.from) && self.incident.contains_key(&third) {
                        self.s.entry(edge).or_default().relay_b();
                    }
                }
                TriMsg::BDel { edge } => {
                    if !edge.touches(self.id) {
                        self.apply_deletion_notice(edge, rec.from, false);
                    }
                }
            }
        }
        self.consistent = self.q.is_empty() && !any_nonempty && !self.sent_this_round;
    }

    fn is_consistent(&self) -> bool {
        self.consistent
    }

    fn idle(&self) -> bool {
        // `consistent` implies the last dequeue already happened
        // (`!sent_this_round` at the computing receive); the explicit check
        // keeps the fixed-point argument local.
        self.q.is_empty() && self.consistent && !self.sent_this_round
    }
}

impl Queryable for TriangleNode {
    fn supported_queries() -> &'static [QueryKind] {
        &[
            QueryKind::Edge,
            QueryKind::Triangle,
            QueryKind::Clique,
            QueryKind::ListTriangles,
            QueryKind::ListCliques,
        ]
    }

    fn query(&self, query: &Query) -> Result<Response<Answer>, QueryError> {
        match query {
            Query::Edge(e) => Ok(self.query_edge(*e).map(Answer::Bool)),
            Query::Triangle(u, w) => Ok(self.query_triangle(*u, *w).map(Answer::Bool)),
            Query::Clique(vs) => {
                dds_net::query::require_member(vs, self.id, QueryKind::Clique)?;
                Ok(self.query_clique(vs).map(Answer::Bool))
            }
            Query::ListTriangles => Ok(self.list_triangles().map(Answer::Triangles)),
            Query::ListCliques(k) => {
                if *k < 1 {
                    return Err(QueryError::Invalid("clique size must be at least 1".into()));
                }
                Ok(self.list_cliques(*k).map(Answer::VertexSets))
            }
            _ => Err(QueryError::Unsupported),
        }
    }
}

impl Checkpointable for TriangleNode {
    fn save_state(&self, w: &mut Writer) {
        let mut incident: Vec<(NodeId, Round)> =
            self.incident.iter().map(|(&p, &t)| (p, t)).collect();
        incident.sort_unstable();
        let mut s: Vec<(Edge, Entry)> = self.s.iter().map(|(&e, &entry)| (e, entry)).collect();
        s.sort_unstable_by_key(|&(e, _)| e);
        // `pending_b` mirrors the queued B items exactly, so it is not
        // written; `load_state` rebuilds it from `q`.
        w.object(|w| {
            w.key("incident").array(|w| {
                for (p, t) in incident {
                    w.array(|w| {
                        w.u64(p.0 as u64).u64(t);
                    });
                }
            });
            w.key("s").array(|w| {
                for (e, entry) in s {
                    w.array(|w| {
                        ckpt::write_edge(w, e);
                        w.u64(entry.via as u64)
                            .bool(entry.b_present)
                            .u64(entry.tombstones as u64);
                    });
                }
            });
            w.key("q").array(|w| {
                for item in &self.q {
                    w.array(|w| match *item {
                        QueueItem::A { edge, te, insert } => {
                            ckpt::write_edge(w.str("a"), edge);
                            w.u64(te).bool(insert);
                        }
                        QueueItem::B { edge, target } => {
                            ckpt::write_edge(w.str("b"), edge);
                            w.u64(target.0 as u64);
                        }
                    });
                }
            });
            w.key("sent_this_round").bool(self.sent_this_round);
            w.key("consistent").bool(self.consistent);
        });
    }

    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
        let mut node = <TriangleNode as Node>::new(id, n);
        r.object(|r| {
            r.key("incident")?.elements(|r| {
                r.array(|r| {
                    let p = ckpt::read_id(r)?;
                    if p == id || p.index() >= n {
                        return Err(format!("incident: bad peer {p:?}"));
                    }
                    if node.incident.insert(p, r.u64()?).is_some() {
                        return Err(format!("incident: duplicate peer {p:?}"));
                    }
                    Ok(())
                })
            })?;
            r.key("s")?.elements(|r| {
                r.array(|r| {
                    let e = ckpt::read_edge(r)?;
                    if e.touches(id) || e.hi().index() >= n {
                        return Err(format!("s: invalid learned edge {e:?}"));
                    }
                    let (via, b_present, tombstones) = (r.u64()?, r.bool()?, r.u64()?);
                    if via > 3 || tombstones > 3 {
                        return Err(format!("s: mark bits out of range for {e:?}"));
                    }
                    let entry = Entry {
                        via: via as u8,
                        b_present,
                        tombstones: tombstones as u8,
                    };
                    if entry.is_dead() {
                        return Err(format!("s: dead entry stored for {e:?}"));
                    }
                    if node.s.insert(e, entry).is_some() {
                        return Err(format!("s: duplicate edge {e:?}"));
                    }
                    Ok(())
                })
            })?;
            r.key("q")?.elements(|r| {
                r.array(|r| {
                    match &*r.str()? {
                        "a" => {
                            let edge = ckpt::read_edge(r)?;
                            if !edge.touches(id) || edge.hi().index() >= n {
                                return Err(format!("q: non-incident (a) edge {edge:?}"));
                            }
                            let te = r.u64()?;
                            node.q.push_back(QueueItem::A {
                                edge,
                                te,
                                insert: r.bool()?,
                            });
                        }
                        "b" => {
                            let edge = ckpt::read_edge(r)?;
                            let target = ckpt::read_id(r)?;
                            if !edge.touches(id) || edge.hi().index() >= n || target.index() >= n {
                                return Err(format!("q: invalid (b) hint {edge:?} -> {target:?}"));
                            }
                            if !node.pending_b.insert((edge, target)) {
                                return Err(format!(
                                    "q: duplicate (b) hint {edge:?} -> {target:?}"
                                ));
                            }
                            node.q.push_back(QueueItem::B { edge, target });
                        }
                        other => return Err(format!("q: unknown item tag {other:?}")),
                    }
                    Ok(())
                })
            })?;
            node.sent_this_round = r.key("sent_this_round")?.bool()?;
            node.consistent = r.key("consistent")?.bool()?;
            Ok::<_, String>(())
        })?;
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::{edge, EventBatch, Simulator};

    #[test]
    fn checkpoint_roundtrip_rebuilds_pending_b_from_queue() {
        let mut sim: Simulator<TriangleNode> = Simulator::new(4);
        // Build a triangle in the (b)-pattern order, then stop mid-update so
        // queues (including pending (b)-hints) are non-trivial.
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(0, 2)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        sim.step_quiet();
        for i in 0..4u32 {
            let node = sim.node(NodeId(i));
            let saved = ckpt::state_text(node);
            let back: TriangleNode = ckpt::load_text(node.id, 4, &saved).unwrap();
            assert_eq!(ckpt::state_text(&back), saved, "node {i} roundtrip drifted");
            assert_eq!(back.pending_b, node.pending_b, "node {i} pending_b");
            assert_eq!(back.q.len(), node.q.len());
        }
    }

    #[test]
    fn entry_tombstones_need_both_endpoints() {
        let e = edge(2, 5);
        let mut entry = Entry::default();
        entry.relay_b();
        assert!(!entry.is_dead());
        entry.tombstone(e, NodeId(2));
        assert!(!entry.is_dead(), "one tombstone must not kill a (b)-entry");
        entry.tombstone(e, NodeId(5));
        assert!(entry.is_dead(), "both tombstones finish the entry");
    }

    #[test]
    fn fresh_relay_clears_tombstones() {
        let e = edge(2, 5);
        let mut entry = Entry::default();
        entry.relay_b();
        entry.tombstone(e, NodeId(2));
        entry.relay_b(); // the same endpoint's fresher relay follows in FIFO
        entry.tombstone(e, NodeId(5));
        assert!(!entry.is_dead(), "a cleared tombstone must not count");
    }

    #[test]
    fn via_marks_keep_entry_alive_independently_of_b_state() {
        let e = edge(2, 5);
        let mut entry = Entry::default();
        entry.set_via(e, NodeId(2));
        entry.relay_b();
        entry.tombstone(e, NodeId(2));
        entry.tombstone(e, NodeId(5)); // kills the (b)-support only
        assert!(!entry.is_dead(), "the (a)-witness still supports the edge");
        assert!(entry.has_via(e, NodeId(2)));
        entry.clear_via(e, NodeId(2));
        assert!(entry.is_dead());
    }

    fn settle(sim: &mut Simulator<TriangleNode>) {
        sim.settle(128).expect("triangle structure must stabilize");
    }

    /// Insert a triangle one edge per round, in the given order.
    fn staged(order: [(u32, u32); 3]) -> Simulator<TriangleNode> {
        let mut sim: Simulator<TriangleNode> = Simulator::new(3);
        for (u, w) in order {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        settle(&mut sim);
        sim
    }

    #[test]
    fn every_corner_lists_the_triangle_regardless_of_insertion_order() {
        let orders = [
            [(0, 1), (1, 2), (0, 2)],
            [(0, 1), (0, 2), (1, 2)],
            [(1, 2), (0, 2), (0, 1)],
            [(0, 2), (0, 1), (1, 2)],
            [(1, 2), (0, 1), (0, 2)],
            [(0, 2), (1, 2), (0, 1)],
        ];
        for order in orders {
            let sim = staged(order);
            for v in 0..3u32 {
                let others: Vec<NodeId> = (0..3u32).filter(|&x| x != v).map(NodeId).collect();
                assert_eq!(
                    sim.node(NodeId(v)).query_triangle(others[0], others[1]),
                    Response::Answer(true),
                    "corner v{v} misses the triangle for order {order:?}"
                );
            }
        }
    }

    #[test]
    fn simultaneous_insertion_also_works() {
        let mut sim: Simulator<TriangleNode> = Simulator::new(3);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(1, 2));
        b.push_insert(edge(0, 2));
        sim.step(&b);
        settle(&mut sim);
        for v in 0..3u32 {
            let others: Vec<NodeId> = (0..3u32).filter(|&x| x != v).map(NodeId).collect();
            assert_eq!(
                sim.node(NodeId(v)).query_triangle(others[0], others[1]),
                Response::Answer(true)
            );
        }
    }

    #[test]
    fn non_triangles_answer_false() {
        // Path 0-1-2 only.
        let mut sim: Simulator<TriangleNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        settle(&mut sim);
        for v in 0..3u32 {
            let others: Vec<NodeId> = (0..3u32).filter(|&x| x != v).map(NodeId).collect();
            assert_eq!(
                sim.node(NodeId(v)).query_triangle(others[0], others[1]),
                Response::Answer(false)
            );
        }
    }

    #[test]
    fn triangle_destroyed_by_far_edge_deletion() {
        let mut sim = staged([(0, 1), (1, 2), (0, 2)]);
        sim.step(&EventBatch::delete(edge(1, 2)));
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_triangle(NodeId(1), NodeId(2)),
            Response::Answer(false)
        );
        assert_eq!(
            sim.node(NodeId(0)).list_triangles(),
            Response::Answer(vec![])
        );
    }

    #[test]
    fn list_triangles_in_k4() {
        let mut sim: Simulator<TriangleNode> = Simulator::new(4);
        for (u, w) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        settle(&mut sim);
        let ts = sim
            .node(NodeId(0))
            .list_triangles()
            .expect_answer("consistent");
        assert_eq!(ts.len(), 3);
        // And the 4-clique query (Corollary 1).
        assert_eq!(
            sim.node(NodeId(0))
                .query_clique(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
            Response::Answer(true)
        );
    }

    #[test]
    fn clique_query_rejects_non_cliques_and_duplicates() {
        let mut sim: Simulator<TriangleNode> = Simulator::new(4);
        for (u, w) in [(0, 1), (0, 2), (1, 2), (0, 3)] {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        settle(&mut sim);
        let node = sim.node(NodeId(0));
        assert_eq!(
            node.query_clique(&[NodeId(0), NodeId(1), NodeId(2)]),
            Response::Answer(true)
        );
        assert_eq!(
            node.query_clique(&[NodeId(0), NodeId(1), NodeId(3)]),
            Response::Answer(false)
        );
        assert_eq!(
            node.query_clique(&[NodeId(0), NodeId(1), NodeId(1)]),
            Response::Answer(false)
        );
    }

    #[test]
    fn flicker_counterexample_is_defeated() {
        // Same scenario as the 2-hop test, but for the triangle structure:
        // pattern-(b) edges must also be purged when incident edges flicker.
        let mut sim: Simulator<TriangleNode> = Simulator::new(3);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(1, 2));
        sim.step(&b);
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_triangle(NodeId(1), NodeId(2)),
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
            sim.node(NodeId(0)).query_triangle(NodeId(1), NodeId(2)),
            Response::Answer(false)
        );
    }

    #[test]
    fn amortized_stays_constant_under_repeated_triangle_churn() {
        let mut sim: Simulator<TriangleNode> = Simulator::new(3);
        for _ in 0..25 {
            sim.step(&EventBatch::insert(edge(0, 1)));
            sim.step(&EventBatch::insert(edge(1, 2)));
            sim.step(&EventBatch::insert(edge(0, 2)));
            sim.step(&EventBatch::delete(edge(0, 2)));
            sim.step(&EventBatch::delete(edge(1, 2)));
            sim.step(&EventBatch::delete(edge(0, 1)));
        }
        sim.settle(64).unwrap();
        assert!(
            sim.meter().amortized() <= 3.0,
            "amortized = {}",
            sim.meter().amortized()
        );
    }
}
