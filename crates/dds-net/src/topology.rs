//! The simulator's view of the true network graph.
//!
//! This is *not* accessible to protocol nodes — it exists so the simulator
//! can validate event batches and record each edge's insertion round.
//! Nodes only ever see their [`crate::event::LocalEvent`] notifications
//! and received messages, exactly as in the model. Routing reads the
//! simulator's one adjacency, the sorted neighbor lists of the round
//! buffers, which are maintained from the same batches.

use crate::event::{EventBatch, TopologyEvent};
use crate::ids::{Edge, Round};
use rustc_hash::FxHashMap;

/// The edge set of the current graph `G_i` with true insertion timestamps
/// (the analysis-only `t_e` of the paper).
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
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
            match ev {
                TopologyEvent::Insert(e) => {
                    let prev = self.edges.insert(e, round);
                    assert!(prev.is_none(), "insert of already-present edge {e:?}");
                }
                TopologyEvent::Delete(e) => {
                    let prev = self.edges.remove(&e);
                    assert!(prev.is_some(), "delete of absent edge {e:?}");
                }
            }
            self.changes += 1;
        }
    }

    /// Write for a snapshot: the timestamped edge set sorted by edge
    /// (canonical bytes), plus the cumulative change counter.
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

    /// Rebuild a topology by reading the text of [`Topology::save_state`].
    pub(crate) fn load_state(
        n: usize,
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<Topology, String> {
        use crate::checkpoint::read_id;
        let mut topo = Topology::new(n);
        r.object(|r| {
            topo.changes = r.key("changes")?.u64()?;
            r.key("edges")?.elements(|r| {
                r.array(|r| {
                    let (lo, hi) = (read_id(r)?, read_id(r)?);
                    let round = r.u64()?;
                    if lo >= hi || hi.index() >= n {
                        return Err(format!(
                            "topology: invalid edge {}-{} for n = {n}",
                            lo.0, hi.0
                        ));
                    }
                    if topo.edges.insert(Edge::new(lo, hi), round).is_some() {
                        return Err(format!("topology: duplicate edge {}-{}", lo.0, hi.0));
                    }
                    Ok(())
                })
            })
        })?;
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
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.changes(), 1);
        t.apply(&EventBatch::delete(edge(0, 1)), 2);
        assert!(!t.has_edge(edge(0, 1)));
        assert_eq!(t.edge_count(), 0);
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
    fn a_batch_inserts_every_edge_it_names() {
        let mut t = Topology::new(5);
        let mut b = EventBatch::new();
        b.push_insert(edge(2, 4));
        b.push_insert(edge(2, 0));
        b.push_insert(edge(2, 3));
        t.apply(&b, 1);
        assert!(t.has_edge(edge(0, 2)));
        assert!(t.has_edge(edge(2, 3)));
        assert!(t.has_edge(edge(2, 4)));
        assert!(!t.has_edge(edge(2, 1)));
        assert_eq!(t.edge_count(), 3);
    }
}
