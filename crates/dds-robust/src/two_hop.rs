//! Robust 2-hop neighborhood listing (Theorem 7, Appendix A).
//!
//! Each node `v` maintains a set `S_v` of edges such that, whenever the
//! consistency flag is raised, `S_v` equals the robust 2-hop neighborhood
//! `R^{v,2}`: all incident edges, plus every edge `{u,w}` with an endpoint
//! `u` adjacent to `v` whose latest insertion is no older than that of the
//! connecting edge `{v,u}`.
//!
//! Mechanics, following the paper with the refinements of DESIGN.md §6:
//!
//! - Every incident topology change is enqueued; one item is dequeued and
//!   transmitted per round (the `O(log n)` bandwidth discipline).
//! - Both insertion AND deletion items are sent only to neighbors `u` with
//!   `t_e ≥ t_{v,u}` (an edge instance is never announced over a *younger*
//!   link). Filtering deletions identically makes stale announcements from
//!   congested endpoints harmless: whatever a stale deletion can reach, the
//!   same endpoint's fresher re-insertion also reaches, later, in FIFO
//!   order.
//! - Instead of the paper's merged imaginary timestamp `t'`, a receiver
//!   keeps one `Witness` mark per edge endpoint: "taught over the current
//!   incarnation of my link to this endpoint". Marks carry the same
//!   information as `t'` (the relevant comparisons reduce to live link
//!   timestamps) but cannot conflate the two endpoints' support.
//! - On deletion of an incident edge `{v,u}`, `v` drops the via-`u` mark of
//!   every known edge `{u,z}`; an edge is forgotten when no witness
//!   survives — this is the rule that defeats the §1.3 flicker
//!   counterexample.
//! - `IsEmpty = false` is piggybacked whenever the queue was nonempty at
//!   the start of the send phase; a node is consistent iff its queue is
//!   empty and no neighbor signalled `IsEmpty = false` this round.

use dds_net::checkpoint::{self as ckpt, Checkpointable, Reader, Writer};
use dds_net::{
    Answer, BitSized, Edge, Flags, LocalEvent, Node, NodeId, Outbox, Query, QueryError, QueryKind,
    Queryable, Received, Response, Round,
};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// Wire message of the 2-hop structure: one edge with an insert/delete mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoHopMsg {
    /// The edge being announced.
    pub edge: Edge,
    /// `true` for insertion, `false` for deletion.
    pub insert: bool,
}

impl BitSized for TwoHopMsg {
    fn bit_size(&self, n: usize) -> u64 {
        // Two node ids + one mark bit.
        2 * dds_net::node_bits(n) + 1
    }
}

/// A queued announcement: the edge, the true timestamp captured at enqueue
/// time (used only for the send-side filter, never transmitted), and the
/// insert/delete mark.
#[derive(Clone, Copy, Debug)]
struct QueueItem {
    edge: Edge,
    te: Round,
    insert: bool,
}

/// Per-witness support marks for a known non-incident edge: bit 0 set iff
/// the edge was taught over the *current incarnation* of the link to its
/// `lo` endpoint, bit 1 for `hi`. A mark is dropped when the corresponding
/// endpoint reports the deletion (over the same still-alive link, which
/// the send filter guarantees is possible) or when the link itself dies
/// (the deletion cascade). An edge is known while some mark survives.
///
/// This replaces the paper's merged imaginary timestamp `t'`: with marks
/// tied to link incarnations, "taught via `x`" is exactly "robust via `x`"
/// once queues drain — and a stale re-teach from one endpoint can never
/// masquerade as support via the other, which a single merged `t'` allows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Witness(u8);

impl Witness {
    fn bit(edge: Edge, endpoint: NodeId) -> u8 {
        if edge.lo() == endpoint {
            0b01
        } else {
            debug_assert_eq!(edge.hi(), endpoint);
            0b10
        }
    }

    fn set(&mut self, edge: Edge, endpoint: NodeId) {
        self.0 |= Self::bit(edge, endpoint);
    }

    fn clear(&mut self, edge: Edge, endpoint: NodeId) {
        self.0 &= !Self::bit(edge, endpoint);
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Per-node state of the robust 2-hop neighborhood data structure.
#[derive(Clone)]
pub struct TwoHopNode {
    id: NodeId,
    /// Current incident edges: peer → true insertion timestamp.
    incident: FxHashMap<NodeId, Round>,
    /// Known non-incident edges with per-witness support marks.
    s: FxHashMap<Edge, Witness>,
    /// Current incident edges are authoritative and tracked separately in
    /// `incident`; `known_edges`/queries merge both views.
    q: VecDeque<QueueItem>,
    consistent: bool,
}

impl TwoHopNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of edges currently known (incident + learned).
    pub fn known_count(&self) -> usize {
        self.s.len() + self.incident.len()
    }

    /// Snapshot of the known edge set (test/inspection helper).
    pub fn known_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let own = self.id;
        self.s
            .keys()
            .copied()
            .chain(self.incident.keys().map(move |&p| Edge::new(own, p)))
    }

    /// Query: is `e` in the robust 2-hop neighborhood of this node?
    ///
    /// Answers without communication; returns
    /// [`Response::Inconsistent`] while the structure is updating.
    pub fn query_edge(&self, e: Edge) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        if e.touches(self.id) {
            return Response::Answer(self.incident.contains_key(&e.other(self.id)));
        }
        Response::Answer(self.s.contains_key(&e))
    }

    /// Depth of the pending update queue (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.q.len()
    }

    /// Render the queue contents (diagnostics / debugging only).
    #[doc(hidden)]
    pub fn debug_queue(&self) -> Vec<String> {
        self.q
            .iter()
            .map(|item| {
                format!(
                    "{}{:?}@{}",
                    if item.insert { "+" } else { "-" },
                    item.edge,
                    item.te
                )
            })
            .collect()
    }

    fn handle_deletions(&mut self, events: &[LocalEvent]) {
        // Pass 1: remove the deleted incident edges themselves, capturing
        // their timestamps for the queued announcements.
        let mut deleted: Vec<(NodeId, Round)> = Vec::new();
        for ev in events.iter().filter(|ev| !ev.inserted) {
            let te = self
                .incident
                .remove(&ev.peer)
                .expect("deletion of unknown incident edge");
            deleted.push((ev.peer, te));
        }
        // Pass 2: cascade — everything taught over a dead link loses that
        // witness; an edge is forgotten when no witness survives.
        for &(u, _) in &deleted {
            self.s.retain(|e, witness| {
                if e.touches(u) {
                    witness.clear(*e, u);
                }
                !witness.is_empty()
            });
        }
        for (peer, te) in deleted {
            self.q.push_back(QueueItem {
                edge: Edge::new(self.id, peer),
                te,
                insert: false,
            });
        }
    }

    fn handle_insertions(&mut self, round: Round, events: &[LocalEvent]) {
        for ev in events.iter().filter(|ev| ev.inserted) {
            self.incident.insert(ev.peer, round);
            self.q.push_back(QueueItem {
                edge: ev.edge,
                te: round,
                insert: true,
            });
        }
    }
}

impl Node for TwoHopNode {
    type Msg = TwoHopMsg;

    fn new(id: NodeId, _n: usize) -> Self {
        TwoHopNode {
            id,
            incident: FxHashMap::default(),
            s: FxHashMap::default(),
            q: VecDeque::new(),
            consistent: true,
        }
    }

    fn on_topology(&mut self, round: Round, events: &[LocalEvent]) {
        // Paper step 2: all deletions (with cascade) first, then insertions.
        self.handle_deletions(events);
        self.handle_insertions(round, events);
    }

    fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<TwoHopMsg> {
        let was_empty = self.q.is_empty();
        let mut out = Outbox::quiet();
        out.flags = Flags {
            is_empty: was_empty,
            neighbors_empty: true, // unused by the 2-hop structure
        };
        if let Some(item) = self.q.pop_front() {
            let msg = TwoHopMsg {
                edge: item.edge,
                insert: item.insert,
            };
            // Both insertions AND deletions go only to neighbors whose
            // connecting edge is not younger than the announced instance
            // (the paper's step 3, applied uniformly). Filtering deletions
            // identically to insertions is what makes stale announcements
            // from a congested endpoint harmless: a stale deletion can
            // only cross a link over which the same endpoint's fresher
            // re-insertion will also pass later in its FIFO queue, so the
            // final state converges. Links younger than the instance are
            // handled by the receiver's own deletion cascade instead.
            let targets: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|u| {
                    self.incident
                        .get(u)
                        .is_some_and(|&t_link| item.te >= t_link)
                })
                .collect();
            if !targets.is_empty() {
                out.multicast(targets, msg);
            }
        }
        out
    }

    fn receive(&mut self, _round: Round, inbox: &[Received<TwoHopMsg>], _neighbors: &[NodeId]) {
        let mut any_nonempty = false;
        for rec in inbox {
            if !rec.flags.is_empty {
                any_nonempty = true;
            }
            let Some(msg) = rec.payload else { continue };
            if msg.edge.touches(self.id) {
                // Echoes about our own incident edges carry no new
                // information; local topology events are authoritative.
                continue;
            }
            debug_assert!(msg.edge.touches(rec.from), "announcements are first-hand");
            let entry = self.s.entry(msg.edge).or_default();
            if msg.insert {
                entry.set(msg.edge, rec.from);
            } else {
                entry.clear(msg.edge, rec.from);
                if entry.is_empty() {
                    self.s.remove(&msg.edge);
                }
            }
        }
        self.consistent = self.q.is_empty() && !any_nonempty;
    }

    fn is_consistent(&self) -> bool {
        self.consistent
    }

    fn idle(&self) -> bool {
        // Fixed point of a quiet round: nothing queued to announce and the
        // consistency flag raised (which already implies the last send was
        // quiet — `consistent` is only set when no busy flag was heard and
        // the queue was empty).
        self.q.is_empty() && self.consistent
    }
}

impl Queryable for TwoHopNode {
    fn supported_queries() -> &'static [QueryKind] {
        &[QueryKind::Edge]
    }

    fn query(&self, query: &Query) -> Result<Response<Answer>, QueryError> {
        match query {
            Query::Edge(e) => Ok(self.query_edge(*e).map(Answer::Bool)),
            _ => Err(QueryError::Unsupported),
        }
    }
}

impl Checkpointable for TwoHopNode {
    fn save_state(&self, w: &mut Writer) {
        let mut incident: Vec<(NodeId, Round)> =
            self.incident.iter().map(|(&p, &t)| (p, t)).collect();
        incident.sort_unstable();
        let mut s: Vec<(Edge, u8)> = self.s.iter().map(|(&e, &w)| (e, w.0)).collect();
        s.sort_unstable();
        w.object(|w| {
            w.key("incident").array(|w| {
                for (p, t) in incident {
                    w.array(|w| {
                        w.u64(p.0 as u64).u64(t);
                    });
                }
            });
            w.key("s").array(|w| {
                for (e, witness) in s {
                    w.array(|w| {
                        ckpt::write_edge(w, e);
                        w.u64(witness as u64);
                    });
                }
            });
            w.key("q").array(|w| {
                for item in &self.q {
                    w.array(|w| {
                        ckpt::write_edge(w, item.edge);
                        w.u64(item.te).bool(item.insert);
                    });
                }
            });
            w.key("consistent").bool(self.consistent);
        });
    }

    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
        let mut node = <TwoHopNode as Node>::new(id, n);
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
                    let w = r.u64()?;
                    if !(1..=3).contains(&w) {
                        return Err(format!("s: witness bits {w} out of range"));
                    }
                    if node.s.insert(e, Witness(w as u8)).is_some() {
                        return Err(format!("s: duplicate edge {e:?}"));
                    }
                    Ok(())
                })
            })?;
            r.key("q")?.elements(|r| {
                r.array(|r| {
                    let edge = ckpt::read_edge(r)?;
                    if !edge.touches(id) || edge.hi().index() >= n {
                        return Err(format!("q: non-incident queued edge {edge:?}"));
                    }
                    let te = r.u64()?;
                    node.q.push_back(QueueItem {
                        edge,
                        te,
                        insert: r.bool()?,
                    });
                    Ok(())
                })
            })?;
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
    fn a_reordered_missing_or_unknown_key_is_an_error_naming_it() {
        let saved = ckpt::state_text(&<TwoHopNode as Node>::new(NodeId(0), 4));
        let load = |text: &str| match ckpt::load_text::<TwoHopNode>(NodeId(0), 4, text) {
            Ok(_) => panic!("{text} must not load"),
            Err(e) => e,
        };
        let reordered = saved.replacen(r#""s":[],"q":[]"#, r#""q":[],"s":[]"#, 1);
        assert_ne!(reordered, saved, "the keys moved");
        let err = load(&reordered);
        assert!(err.contains(r#"expected key "s", found key "q""#), "{err}");
        let (head, _) = saved.split_once(r#","consistent""#).expect("the last key");
        let err = load(&format!("{head}}}"));
        assert!(
            err.contains(r#"expected key "consistent", found the end"#),
            "{err}"
        );
        let err = load(&format!(
            "{}{}",
            &saved[..saved.len() - 1],
            r#","extra":1}"#
        ));
        assert!(err.contains(r#"unexpected key "extra""#), "{err}");
        // Nothing may follow the node's value either.
        assert!(ckpt::load_text::<TwoHopNode>(NodeId(0), 4, &format!("{saved} 7")).is_err());
        assert!(ckpt::load_text::<TwoHopNode>(NodeId(0), 4, &saved).is_ok());
    }

    #[test]
    fn checkpoint_roundtrip_preserves_every_field() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        sim.step(&b);
        sim.step(&EventBatch::insert(edge(1, 2)));
        // Mid-update: node 0 still has queued items.
        let node = sim.node(NodeId(0));
        let saved = ckpt::state_text(node);
        let back: TwoHopNode = ckpt::load_text(node.id, 4, &saved).unwrap();
        assert_eq!(ckpt::state_text(&back), saved);
        assert_eq!(back.incident, node.incident);
        assert_eq!(back.s, node.s);
        assert_eq!(back.consistent, node.consistent);
        assert_eq!(back.q.len(), node.q.len());
    }

    #[test]
    fn witness_bits_are_per_endpoint() {
        let e = edge(3, 7);
        let mut w = Witness::default();
        assert!(w.is_empty());
        w.set(e, NodeId(3));
        assert!(!w.is_empty());
        w.set(e, NodeId(7));
        w.clear(e, NodeId(3));
        assert!(!w.is_empty(), "the other endpoint's mark must survive");
        w.clear(e, NodeId(7));
        assert!(w.is_empty());
    }

    #[test]
    fn witness_clear_is_idempotent() {
        let e = edge(1, 2);
        let mut w = Witness::default();
        w.set(e, NodeId(1));
        w.clear(e, NodeId(2));
        w.clear(e, NodeId(2));
        assert!(!w.is_empty());
        w.clear(e, NodeId(1));
        assert!(w.is_empty());
    }

    fn settle(sim: &mut Simulator<TwoHopNode>) {
        sim.settle(64).expect("2-hop structure must stabilize");
    }

    #[test]
    fn learns_robust_edge_after_insertion() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        settle(&mut sim);
        // {1,2} inserted after {0,1}: robust for node 0.
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );
        // {0,1} inserted before {1,2}: NOT robust for node 2.
        assert_eq!(
            sim.node(NodeId(2)).query_edge(edge(0, 1)),
            Response::Answer(false)
        );
    }

    #[test]
    fn deletion_of_far_edge_propagates() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        settle(&mut sim);
        sim.step(&EventBatch::delete(edge(1, 2)));
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(false)
        );
    }

    #[test]
    fn cascade_forgets_unsupported_edges_on_incident_deletion() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );
        // Deleting {0,1} severs node 0 from the 2-hop edge {1,2}.
        sim.step(&EventBatch::delete(edge(0, 1)));
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(false)
        );
    }

    #[test]
    fn flicker_counterexample_is_defeated_by_timestamps() {
        // §1.3's bad case: triangle {v,u,w} = {0,1,2}; the far edge {1,2}
        // is deleted, and the two incident edges flicker exactly when the
        // endpoints announce the deletion, so node 0 never hears it.
        // The timestamp rule must still purge {1,2} at node 0.
        let mut sim: Simulator<TwoHopNode> = Simulator::new(3);
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
        // Delete the far edge; in the *same* round flicker both incident
        // edges down...
        let mut b = EventBatch::new();
        b.push_delete(edge(1, 2));
        b.push_delete(edge(0, 1));
        b.push_delete(edge(0, 2));
        sim.step(&b);
        // ...and bring them back while the deletion announcements of {1,2}
        // are being dequeued by 1 and 2.
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        sim.step(&b);
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(false),
            "node 0 must not believe the deleted edge {{1,2}} still exists"
        );
    }

    #[test]
    fn amortized_complexity_is_constant_on_this_scenario() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(3);
        for _ in 0..20 {
            sim.step(&EventBatch::insert(edge(0, 1)));
            sim.step(&EventBatch::delete(edge(0, 1)));
        }
        sim.settle(64).unwrap();
        assert!(
            sim.meter().amortized() <= 3.0,
            "amortized = {}",
            sim.meter().amortized()
        );
    }

    #[test]
    fn queries_report_inconsistent_while_updating() {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(0, 3));
        sim.step(&b);
        // Node 0 has 3 queued announcements; it must admit inconsistency.
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(0, 1)),
            Response::Inconsistent
        );
        settle(&mut sim);
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(0, 1)),
            Response::Answer(true)
        );
    }
}
