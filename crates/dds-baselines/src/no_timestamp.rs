//! The §1.3 strawman: 2-hop tracking **without timestamps** — provably
//! incorrect under edge flicker.
//!
//! This is the "at first glance easy" algorithm the paper dismantles:
//! every endpoint of an inserted edge enqueues it and pushes it to all
//! neighbors; deletions likewise; on losing the link to a neighbor `u`, a
//! node keeps an edge `{u, z}` as long as the *other* witness `{v, z}` is
//! still present. Without insertion-time comparisons this retention rule
//! is unsound: if the far edge `{u, w}` of a triangle is deleted while the
//! two incident edges flicker exactly when `u` and `w` announce the
//! deletion, node `v` never hears it and keeps a phantom edge **while
//! reporting itself consistent**. The failure-injection tests (and
//! experiment A1) reproduce this, which is precisely why Theorem 7 needs
//! the imaginary-timestamp machinery.

use dds_net::checkpoint::{self as ckpt, Checkpointable, Reader, Writer};
use dds_net::{
    Answer, BitSized, Edge, Flags, LocalEvent, Node, NodeId, Outbox, Query, QueryError, QueryKind,
    Queryable, Received, Response, Round,
};
use rustc_hash::FxHashSet;
use std::collections::VecDeque;

/// Wire message: an edge with an insert/delete mark (same as the sound
/// structure — the difference is purely in the local retention rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NaiveMsg {
    /// The announced edge.
    pub edge: Edge,
    /// `true` for insertion, `false` for deletion.
    pub insert: bool,
}

impl BitSized for NaiveMsg {
    fn bit_size(&self, n: usize) -> u64 {
        2 * dds_net::node_bits(n) + 1
    }
}

/// Per-node state of the unsound no-timestamp 2-hop tracker.
#[derive(Clone)]
pub struct NaiveTwoHopNode {
    id: NodeId,
    incident: FxHashSet<NodeId>,
    s: FxHashSet<Edge>,
    q: VecDeque<(Edge, bool)>,
    consistent: bool,
}

impl NaiveTwoHopNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// 2-hop edge query (unsound under flicker — see module docs).
    pub fn query_edge(&self, e: Edge) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        Response::Answer(self.s.contains(&e))
    }

    /// Snapshot of the believed edge set.
    pub fn known_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.s.iter().copied()
    }
}

impl Node for NaiveTwoHopNode {
    type Msg = NaiveMsg;

    fn new(id: NodeId, _n: usize) -> Self {
        NaiveTwoHopNode {
            id,
            incident: FxHashSet::default(),
            s: FxHashSet::default(),
            q: VecDeque::new(),
            consistent: true,
        }
    }

    fn on_topology(&mut self, _round: Round, events: &[LocalEvent]) {
        // The batch is atomic: apply all incident changes first, then
        // evaluate the retention rule against the post-batch neighborhood
        // ("forget edges I can no longer reach a witness for").
        let mut dropped_peers = Vec::new();
        for ev in events {
            if ev.inserted {
                self.incident.insert(ev.peer);
                self.s.insert(ev.edge);
            } else {
                self.incident.remove(&ev.peer);
                self.s.remove(&ev.edge);
                dropped_peers.push(ev.peer);
            }
        }
        // Timestamp-free retention: keep {u,z} iff z is still a neighbor.
        for u in dropped_peers {
            let incident = &self.incident;
            self.s.retain(|e| {
                if !e.touches(u) {
                    return true;
                }
                incident.contains(&e.other(u))
            });
        }
        for ev in events {
            self.q.push_back((ev.edge, ev.inserted));
        }
    }

    fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<NaiveMsg> {
        let was_empty = self.q.is_empty();
        let mut out = Outbox::quiet();
        out.flags = Flags {
            is_empty: was_empty,
            neighbors_empty: true,
        };
        if let Some((edge, insert)) = self.q.pop_front() {
            if !neighbors.is_empty() {
                out.broadcast(NaiveMsg { edge, insert });
            }
        }
        out
    }

    fn receive(&mut self, _round: Round, inbox: &[Received<NaiveMsg>], _neighbors: &[NodeId]) {
        let mut any_nonempty = false;
        for rec in inbox {
            if !rec.flags.is_empty {
                any_nonempty = true;
            }
            let Some(msg) = rec.payload else { continue };
            if msg.edge.touches(self.id) {
                continue; // own edges are authoritative locally
            }
            if msg.insert {
                self.s.insert(msg.edge);
            } else {
                self.s.remove(&msg.edge);
            }
        }
        self.consistent = self.q.is_empty() && !any_nonempty;
    }

    fn is_consistent(&self) -> bool {
        self.consistent
    }

    fn idle(&self) -> bool {
        self.q.is_empty() && self.consistent
    }
}

impl Queryable for NaiveTwoHopNode {
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

impl Checkpointable for NaiveTwoHopNode {
    fn save_state(&self, w: &mut Writer) {
        let mut incident: Vec<NodeId> = self.incident.iter().copied().collect();
        incident.sort_unstable();
        let mut s: Vec<Edge> = self.s.iter().copied().collect();
        s.sort_unstable();
        w.object(|w| {
            ckpt::write_ids(w.key("incident"), &incident);
            w.key("s").array(|w| {
                for e in s {
                    ckpt::write_edge(w, e);
                }
            });
            w.key("q").array(|w| {
                for &(e, ins) in &self.q {
                    w.array(|w| {
                        ckpt::write_edge(w, e);
                        w.bool(ins);
                    });
                }
            });
            w.key("consistent").bool(self.consistent);
        });
    }

    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
        let mut node = <NaiveTwoHopNode as Node>::new(id, n);
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
                let e = ckpt::read_edge(r)?;
                if e.hi().index() >= n {
                    return Err(format!("s: out-of-range edge {e:?}"));
                }
                if !node.s.insert(e) {
                    return Err(format!("s: duplicate edge {e:?}"));
                }
                Ok(())
            })?;
            r.key("q")?.elements(|r| {
                r.array(|r| {
                    let e = ckpt::read_edge(r)?;
                    if e.hi().index() >= n {
                        return Err(format!("q: out-of-range edge {e:?}"));
                    }
                    node.q.push_back((e, r.bool()?));
                    Ok(())
                })
            })?;
            node.consistent = r.key("consistent")?.bool()?;
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
    fn checkpoint_roundtrip_is_lossless() {
        let mut sim: Simulator<NaiveTwoHopNode> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(0, 3));
        sim.step(&b);
        sim.step(&EventBatch::insert(edge(1, 2)));
        assert!(
            (0..4u32).any(|i| !sim.node(NodeId(i)).q.is_empty()),
            "the test wants a queue mid-update"
        );
        for i in 0..4u32 {
            let node = sim.node(NodeId(i));
            let saved = ckpt::state_text(node);
            let back: NaiveTwoHopNode = ckpt::load_text(node.id, 4, &saved).unwrap();
            assert_eq!(ckpt::state_text(&back), saved, "node {i} roundtrip drifted");
            assert_eq!(back.q, node.q);
        }
    }

    #[test]
    fn works_on_the_easy_cases() {
        let mut sim: Simulator<NaiveTwoHopNode> = Simulator::new(3);
        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.step(&EventBatch::insert(edge(1, 2)));
        sim.settle(32).unwrap();
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );
        sim.step(&EventBatch::delete(edge(1, 2)));
        sim.settle(32).unwrap();
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(false)
        );
    }

    /// The paper's §1.3 counterexample, reproduced as a *positive* test of
    /// the failure: the strawman reports consistency while believing a
    /// deleted edge still exists.
    ///
    /// Timing (v = 0, u = 1, w = 2; congestion via the helper edge {1,3}
    /// staggers the two deletion announcements, `i_u ≠ i_w`):
    ///
    /// - round r: insert {1,3} (clogs u's queue), delete {1,2} and delete
    ///   {0,2} — w announces the far-edge deletion *this* round, while the
    ///   link v−w is down;
    /// - round r+1: reinsert {0,2}, delete {0,1} — u announces the
    ///   far-edge deletion *now*, while the link v−u is down;
    /// - round r+2: reinsert {0,1}.
    ///
    /// At every instant v has a live witness edge towards {1,2}, so the
    /// timestamp-free retention rule keeps the phantom forever.
    #[test]
    fn flicker_corrupts_the_naive_structure() {
        let mut sim: Simulator<NaiveTwoHopNode> = Simulator::new(4);
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 1));
        b.push_insert(edge(0, 2));
        b.push_insert(edge(1, 2));
        sim.step(&b);
        sim.settle(32).unwrap();
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true)
        );

        let mut b = EventBatch::new();
        b.push_insert(edge(1, 3)); // enqueued at node 1 before the deletion
        b.push_delete(edge(1, 2));
        b.push_delete(edge(0, 2));
        sim.step(&b);

        let mut b = EventBatch::new();
        b.push_insert(edge(0, 2));
        b.push_delete(edge(0, 1));
        sim.step(&b);

        sim.step(&EventBatch::insert(edge(0, 1)));
        sim.settle(32).unwrap();

        // The phantom edge: node 0 is consistent but wrong.
        assert!(sim.all_consistent());
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(1, 2)),
            Response::Answer(true),
            "the strawman is expected to be WRONG here; if this fails the \
             counterexample no longer demonstrates the bug"
        );
    }
}
