//! The simulator's view of the true network graph.
//!
//! This is *not* accessible to protocol nodes — it exists so the simulator
//! can route messages over edges of `G_i` and validate event batches. Nodes
//! only ever see their [`crate::event::LocalEvent`] notifications and
//! received messages, exactly as in the model.

use crate::event::{EventBatch, TopologyEvent};
use crate::ids::{Edge, NodeId, Round};
use rustc_hash::{FxHashMap, FxHashSet};

/// Adjacency structure of the current graph `G_i`, plus true insertion
/// timestamps (the analysis-only `t_e` of the paper).
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    adj: Vec<FxHashSet<NodeId>>,
    /// Current edges with their latest insertion round.
    edges: FxHashMap<Edge, Round>,
    /// Total number of applied topology changes.
    changes: u64,
}

impl Topology {
    /// Empty graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Topology {
            n,
            adj: vec![FxHashSet::default(); n],
            edges: FxHashMap::default(),
            changes: 0,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of current edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Cumulative number of topology changes applied.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Whether edge `e` currently exists.
    pub fn has_edge(&self, e: Edge) -> bool {
        self.edges.contains_key(&e)
    }

    /// Latest insertion round of a current edge.
    pub fn inserted_at(&self, e: Edge) -> Option<Round> {
        self.edges.get(&e).copied()
    }

    /// Current neighbors of `v` in unspecified order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Current neighbors of `v`, sorted (deterministic order for delivery).
    pub fn neighbors_sorted(&self, v: NodeId) -> Vec<NodeId> {
        let mut ns: Vec<NodeId> = self.adj[v.index()].iter().copied().collect();
        ns.sort_unstable();
        ns
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Whether `u` and `w` are currently adjacent.
    pub fn adjacent(&self, u: NodeId, w: NodeId) -> bool {
        self.adj[u.index()].contains(&w)
    }

    /// All current edges in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.keys().copied()
    }

    /// Validate a batch against the current graph: insertions must be of
    /// absent edges, deletions of present edges, and endpoints in range.
    /// This is the one home of those rules; the other batch rule, at most
    /// one event per edge, is [`EventBatch`]'s own invariant, so checking
    /// each event against the graph as it was before the batch is exact.
    pub fn validate(&self, batch: &EventBatch) -> Result<(), String> {
        for ev in batch.iter() {
            let e = ev.edge();
            if e.hi().index() >= self.n {
                return Err(format!("edge {e:?} out of range for n = {}", self.n));
            }
            match ev {
                TopologyEvent::Insert(e) if self.has_edge(e) => {
                    return Err(format!("insert of already-present edge {e:?}"));
                }
                TopologyEvent::Delete(e) if !self.has_edge(e) => {
                    return Err(format!("delete of absent edge {e:?}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Apply a validated batch at round `round`.
    ///
    /// # Panics
    /// Panics on invalid batches; call [`Topology::validate`] first if the
    /// batch source is untrusted.
    pub fn apply(&mut self, batch: &EventBatch, round: Round) {
        for ev in batch.iter() {
            let e = ev.edge();
            match ev {
                TopologyEvent::Insert(e2) => {
                    let prev = self.edges.insert(e2, round);
                    assert!(prev.is_none(), "insert of already-present edge {e:?}");
                    self.adj[e.lo().index()].insert(e.hi());
                    self.adj[e.hi().index()].insert(e.lo());
                }
                TopologyEvent::Delete(e2) => {
                    let prev = self.edges.remove(&e2);
                    assert!(prev.is_some(), "delete of absent edge {e:?}");
                    self.adj[e.lo().index()].remove(&e.hi());
                    self.adj[e.hi().index()].remove(&e.lo());
                }
            }
            self.changes += 1;
        }
    }

    /// Write for a snapshot: the timestamped edge set sorted by edge
    /// (canonical bytes), plus the cumulative change counter. The adjacency
    /// is derived state and is rebuilt by [`Topology::load_state`].
    pub(crate) fn save_state(&self, w: &mut crate::checkpoint::Writer) {
        let mut edges: Vec<(Edge, Round)> = self.edges.iter().map(|(&e, &r)| (e, r)).collect();
        edges.sort_unstable_by_key(|&(e, _)| (e.lo(), e.hi()));
        w.object(|w| {
            w.key("changes").u64(self.changes);
            w.key("edges").array(|w| {
                for (e, r) in edges {
                    w.array(|w| {
                        w.u64(e.lo().0 as u64).u64(e.hi().0 as u64).u64(r);
                    });
                }
            });
        });
    }

    /// Rebuild a topology (including the derived adjacency) from the
    /// parsed text of [`Topology::save_state`].
    pub(crate) fn load_state(n: usize, v: &serde::Value) -> Result<Topology, String> {
        use serde::Deserialize as _;
        let mut topo = Topology::new(n);
        topo.changes = u64::from_value(crate::checkpoint::field(v, "changes")?)?;
        let edges = crate::checkpoint::field(v, "edges")?
            .as_array()
            .ok_or("topology: `edges` is not an array")?;
        for entry in edges {
            let triple = entry
                .as_array()
                .ok_or("topology: edge entry not an array")?;
            if triple.len() != 3 {
                return Err(format!(
                    "topology: edge entry has {} fields, expected [lo, hi, round]",
                    triple.len()
                ));
            }
            let lo = u32::from_value(&triple[0])?;
            let hi = u32::from_value(&triple[1])?;
            let round = u64::from_value(&triple[2])?;
            if lo >= hi || hi as usize >= n {
                return Err(format!("topology: invalid edge {lo}-{hi} for n = {n}"));
            }
            let e = Edge::new(NodeId(lo), NodeId(hi));
            if topo.edges.insert(e, round).is_some() {
                return Err(format!("topology: duplicate edge {lo}-{hi}"));
            }
            topo.adj[lo as usize].insert(NodeId(hi));
            topo.adj[hi as usize].insert(NodeId(lo));
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    #[test]
    fn apply_insert_delete() {
        let mut t = Topology::new(4);
        t.apply(&EventBatch::insert(edge(0, 1)), 1);
        assert!(t.has_edge(edge(0, 1)));
        assert_eq!(t.inserted_at(edge(0, 1)), Some(1));
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.changes(), 1);
        t.apply(&EventBatch::delete(edge(0, 1)), 2);
        assert!(!t.has_edge(edge(0, 1)));
        assert_eq!(t.degree(NodeId(0)), 0);
        assert_eq!(t.changes(), 2);
    }

    #[test]
    fn reinsertion_updates_timestamp() {
        let mut t = Topology::new(4);
        t.apply(&EventBatch::insert(edge(0, 1)), 1);
        t.apply(&EventBatch::delete(edge(0, 1)), 5);
        t.apply(&EventBatch::insert(edge(0, 1)), 9);
        assert_eq!(t.inserted_at(edge(0, 1)), Some(9));
    }

    #[test]
    fn validate_rejects_bad_batches() {
        let mut t = Topology::new(4);
        t.apply(&EventBatch::insert(edge(0, 1)), 1);
        assert!(t.validate(&EventBatch::insert(edge(0, 1))).is_err());
        assert!(t.validate(&EventBatch::delete(edge(2, 3))).is_err());
        assert!(t.validate(&EventBatch::insert(edge(0, 9))).is_err());
        assert!(t.validate(&EventBatch::delete(edge(0, 1))).is_ok());
    }

    #[test]
    fn neighbors_sorted_is_deterministic() {
        let mut t = Topology::new(5);
        let mut b = EventBatch::new();
        b.push_insert(edge(2, 4));
        b.push_insert(edge(2, 0));
        b.push_insert(edge(2, 3));
        t.apply(&b, 1);
        assert_eq!(
            t.neighbors_sorted(NodeId(2)),
            vec![NodeId(0), NodeId(3), NodeId(4)]
        );
    }
}
