//! Full-topology flooding — the unbounded-bandwidth calibrator.
//!
//! Every node gossips every topology fact it learns to all neighbors,
//! forwarding each fact at most once. With unlimited per-link bandwidth
//! this converges in diameter-many rounds and gives every node the entire
//! graph; it exists to calibrate what the `O(log n)` restriction costs
//! (experiment A3) and as a knowledge upper bound in tests. Run it under
//! [`BandwidthPolicy::Observe`] — it deliberately ignores the budget.
//!
//! [`BandwidthPolicy::Observe`]: dds_net::BandwidthPolicy::Observe

use dds_net::checkpoint::{self as ckpt, Checkpointable, Reader, Writer};
use dds_net::{
    Answer, BitSized, Edge, Flags, LocalEvent, Node, NodeId, Outbox, Query, QueryError, QueryKind,
    Queryable, Received, Response, Round,
};
use rustc_hash::{FxHashMap, FxHashSet};

/// A topology fact: the `seq`-th change observed on `edge` was an
/// insertion (`insert`) at round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fact {
    /// The changed edge.
    pub edge: Edge,
    /// The round the change happened (also orders facts per edge).
    pub round: Round,
    /// `true` for insertion.
    pub insert: bool,
}

/// A bundle of facts (one message per link per round, arbitrarily big —
/// this is the point of the calibrator).
#[derive(Clone, Debug, Default)]
pub struct FactBundle(pub Vec<Fact>);

impl BitSized for FactBundle {
    fn bit_size(&self, n: usize) -> u64 {
        let l = dds_net::node_bits(n);
        // Each fact: edge + round (log of round fits in 64; charge 2L for
        // the edge + 64 for the round + 1 mark).
        self.0.len() as u64 * (2 * l + 65)
    }
}

/// Per-node state of the flooding calibrator.
#[derive(Clone)]
pub struct FloodNode {
    id: NodeId,
    /// Facts already seen (and therefore never broadcast again).
    seen: FxHashSet<Fact>,
    /// Facts waiting to be forwarded next round.
    outbox: Vec<Fact>,
    /// Catch-up transfers for freshly attached neighbors: the entire fact
    /// history is replayed to them once.
    catchup: FxHashMap<NodeId, Vec<Fact>>,
    /// Believed edge set: edge → (last change round, present?).
    belief: FxHashMap<Edge, (Round, bool)>,
    consistent: bool,
}

impl FloodNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of edges currently believed present.
    pub fn known_count(&self) -> usize {
        self.belief.values().filter(|(_, p)| *p).count()
    }

    /// Whole-graph edge query.
    pub fn query_edge(&self, e: Edge) -> Response<bool> {
        if !self.consistent {
            return Response::Inconsistent;
        }
        Response::Answer(self.belief.get(&e).is_some_and(|(_, p)| *p))
    }

    fn learn(&mut self, fact: Fact) {
        if !self.seen.insert(fact) {
            return;
        }
        self.outbox.push(fact);
        let entry = self.belief.entry(fact.edge).or_insert((0, false));
        // Later rounds win; within a round a deletion cannot coexist with
        // an insertion of the same edge (batch invariant).
        if fact.round >= entry.0 {
            *entry = (fact.round, fact.insert);
        }
    }
}

impl Node for FloodNode {
    type Msg = FactBundle;

    fn new(id: NodeId, _n: usize) -> Self {
        FloodNode {
            id,
            seen: FxHashSet::default(),
            outbox: Vec::new(),
            belief: FxHashMap::default(),
            catchup: FxHashMap::default(),
            consistent: true,
        }
    }

    fn on_topology(&mut self, round: Round, events: &[LocalEvent]) {
        for ev in events {
            if ev.inserted {
                // Replay our whole history to the new neighbor so it can
                // catch up on facts flooded before the link existed.
                let history: Vec<Fact> = self.seen.iter().copied().collect();
                if !history.is_empty() {
                    self.catchup.insert(ev.peer, history);
                }
            } else {
                self.catchup.remove(&ev.peer);
            }
            self.learn(Fact {
                edge: ev.edge,
                round,
                insert: ev.inserted,
            });
        }
    }

    fn send(&mut self, _round: Round, neighbors: &[NodeId]) -> Outbox<FactBundle> {
        let mut out = Outbox::quiet();
        out.flags = Flags {
            is_empty: self.outbox.is_empty() && self.catchup.is_empty(),
            neighbors_empty: true,
        };
        let fresh = std::mem::take(&mut self.outbox);
        let mut catchup = std::mem::take(&mut self.catchup);
        for &peer in neighbors {
            let mut bundle = catchup.remove(&peer).unwrap_or_default();
            bundle.extend(fresh.iter().copied());
            if !bundle.is_empty() {
                out.to(peer, FactBundle(bundle));
            }
        }
        // Catch-up entries for peers that are not (or no longer) neighbors
        // are dropped; the link never materialized.
        out
    }

    fn receive(&mut self, _round: Round, inbox: &[Received<FactBundle>], _neighbors: &[NodeId]) {
        let mut any_nonempty = false;
        for rec in inbox {
            if !rec.flags.is_empty {
                any_nonempty = true;
            }
            if let Some(bundle) = &rec.payload {
                for &fact in &bundle.0 {
                    self.learn(fact);
                }
            }
        }
        self.consistent = self.outbox.is_empty() && self.catchup.is_empty() && !any_nonempty;
    }

    fn is_consistent(&self) -> bool {
        self.consistent
    }

    fn idle(&self) -> bool {
        self.outbox.is_empty() && self.catchup.is_empty() && self.consistent
    }
}

impl Queryable for FloodNode {
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

fn write_fact(w: &mut Writer, f: Fact) {
    w.array(|w| {
        ckpt::write_edge(w, f.edge);
        w.u64(f.round).bool(f.insert);
    });
}

fn write_facts(w: &mut Writer, facts: impl IntoIterator<Item = Fact>) {
    w.array(|w| {
        for f in facts {
            write_fact(w, f);
        }
    });
}

fn read_fact(r: &mut Reader<'_>, n: usize) -> Result<Fact, String> {
    r.array(|r| {
        let edge = ckpt::read_edge(r)?;
        if edge.hi().index() >= n {
            return Err(format!("fact: out-of-range edge {edge:?}"));
        }
        Ok(Fact {
            edge,
            round: r.u64()?,
            insert: r.bool()?,
        })
    })
}

fn read_facts(r: &mut Reader<'_>, n: usize) -> Result<Vec<Fact>, String> {
    let mut facts = Vec::new();
    r.elements(|r| {
        facts.push(read_fact(r, n)?);
        Ok::<_, String>(())
    })?;
    Ok(facts)
}

impl Checkpointable for FloodNode {
    fn save_state(&self, w: &mut Writer) {
        // Sets/maps sorted; the `outbox` and catch-up history Vecs keep
        // their exact order (it feeds next round's bundles verbatim).
        let mut seen: Vec<Fact> = self.seen.iter().copied().collect();
        seen.sort_unstable_by_key(|f| (f.edge, f.round, f.insert));
        let mut catchup: Vec<(NodeId, &Vec<Fact>)> =
            self.catchup.iter().map(|(&p, h)| (p, h)).collect();
        catchup.sort_unstable_by_key(|&(p, _)| p);
        let mut belief: Vec<(Edge, (Round, bool))> =
            self.belief.iter().map(|(&e, &b)| (e, b)).collect();
        belief.sort_unstable_by_key(|&(e, _)| e);
        w.object(|w| {
            write_facts(w.key("seen"), seen);
            write_facts(w.key("outbox"), self.outbox.iter().copied());
            w.key("catchup").array(|w| {
                for (p, h) in catchup {
                    w.array(|w| write_facts(w.u64(p.0 as u64), h.iter().copied()));
                }
            });
            w.key("belief").array(|w| {
                for (e, (r, present)) in belief {
                    w.array(|w| {
                        ckpt::write_edge(w, e);
                        w.u64(r).bool(present);
                    });
                }
            });
            w.key("consistent").bool(self.consistent);
        });
    }

    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
        let mut node = <FloodNode as Node>::new(id, n);
        r.object(|r| {
            for f in read_facts(r.key("seen")?, n)? {
                if !node.seen.insert(f) {
                    return Err(format!("seen: duplicate fact {f:?}"));
                }
            }
            node.outbox = read_facts(r.key("outbox")?, n)?;
            r.key("catchup")?.elements(|r| {
                r.array(|r| {
                    let p = ckpt::read_id(r)?;
                    if p == id || p.index() >= n {
                        return Err(format!("catchup: bad peer {p:?}"));
                    }
                    let history = read_facts(r, n)?;
                    if node.catchup.insert(p, history).is_some() {
                        return Err(format!("catchup: duplicate peer {p:?}"));
                    }
                    Ok(())
                })
            })?;
            r.key("belief")?.elements(|r| {
                r.array(|r| {
                    let e = ckpt::read_edge(r)?;
                    if e.hi().index() >= n {
                        return Err(format!("belief: out-of-range edge {e:?}"));
                    }
                    let entry = (r.u64()?, r.bool()?);
                    if node.belief.insert(e, entry).is_some() {
                        return Err(format!("belief: duplicate edge {e:?}"));
                    }
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
    use dds_net::{edge, BandwidthConfig, BandwidthPolicy, EventBatch, SimConfig, Simulator};

    #[test]
    fn checkpoint_roundtrip_preserves_outbox_order() {
        let mut sim = flood_sim(5);
        for (u, w) in [(0, 1), (1, 2), (2, 3)] {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        sim.step(&EventBatch::insert(edge(3, 4)));
        let mut nodes: Vec<FloodNode> = (0..5u32).map(|i| sim.node(NodeId(i)).clone()).collect();
        assert!(
            nodes.iter().any(|v| !v.outbox.is_empty()),
            "the test wants an outbox"
        );
        // `send` hands every catch-up over in the round it is made, so
        // only a node stopped inside a round still holds one.
        let mut attached = nodes[2].clone();
        attached.on_topology(
            5,
            &[LocalEvent {
                edge: edge(0, 2),
                peer: NodeId(0),
                inserted: true,
            }],
        );
        assert!(!attached.catchup.is_empty(), "the test wants a catch-up");
        nodes.push(attached);
        for (i, node) in nodes.iter().enumerate() {
            let saved = ckpt::state_text(node);
            let back: FloodNode = ckpt::load_text(node.id, 5, &saved).unwrap();
            assert_eq!(ckpt::state_text(&back), saved, "node {i} roundtrip drifted");
            assert_eq!(back.outbox, node.outbox, "node {i} outbox order");
            assert_eq!(back.catchup, node.catchup, "node {i} catch-up order");
            assert_eq!(back.seen, node.seen);
            assert_eq!(back.belief, node.belief);
        }
    }

    fn flood_sim(n: usize) -> Simulator<FloodNode> {
        let cfg = SimConfig {
            bandwidth: BandwidthConfig {
                factor: 8,
                policy: BandwidthPolicy::Observe,
            },
            ..SimConfig::default()
        };
        Simulator::with_config(n, cfg)
    }

    #[test]
    fn everyone_learns_everything_on_a_path() {
        let mut sim = flood_sim(5);
        for (u, w) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        sim.settle(32).unwrap();
        // The far end knows the first edge — full topology knowledge.
        assert_eq!(
            sim.node(NodeId(4)).query_edge(edge(0, 1)),
            Response::Answer(true)
        );
        assert_eq!(sim.node(NodeId(4)).known_count(), 4);
    }

    #[test]
    fn deletions_are_gossiped_too() {
        let mut sim = flood_sim(4);
        for (u, w) in [(0, 1), (1, 2), (2, 3)] {
            sim.step(&EventBatch::insert(edge(u, w)));
        }
        sim.settle(32).unwrap();
        sim.step(&EventBatch::delete(edge(2, 3)));
        sim.settle(32).unwrap();
        assert_eq!(
            sim.node(NodeId(0)).query_edge(edge(2, 3)),
            Response::Answer(false)
        );
    }

    #[test]
    fn flooding_violates_the_congest_budget() {
        // The whole point of the calibrator: it is NOT a CONGEST algorithm.
        let mut sim = flood_sim(32);
        let mut b = EventBatch::new();
        for w in 1..32 {
            b.push_insert(edge(0, w));
        }
        sim.step(&b);
        sim.settle(64).unwrap();
        assert!(
            sim.bandwidth().violations() > 0,
            "expected observed budget violations"
        );
    }
}
