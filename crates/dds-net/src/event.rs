//! Topology-change events.
//!
//! At the beginning of every round an arbitrary batch of edge insertions and
//! deletions is applied to the network (this is the defining feature of the
//! *highly dynamic* model: no bound on the number or location of changes).
//! Each node is locally notified only of changes *incident to it*.

use crate::ids::{Edge, NodeId};
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize, Value};

/// A single topology change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyEvent {
    /// Edge appears in the graph.
    Insert(Edge),
    /// Edge disappears from the graph.
    Delete(Edge),
}

impl TopologyEvent {
    /// The edge this event concerns.
    #[inline]
    pub fn edge(self) -> Edge {
        match self {
            TopologyEvent::Insert(e) | TopologyEvent::Delete(e) => e,
        }
    }

    /// True for insertions.
    #[inline]
    pub fn is_insert(self) -> bool {
        matches!(self, TopologyEvent::Insert(_))
    }

    /// True for deletions.
    #[inline]
    pub fn is_delete(self) -> bool {
        matches!(self, TopologyEvent::Delete(_))
    }
}

/// What a single node observes at the start of a round: the change type of an
/// incident edge, together with the other endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalEvent {
    /// The incident edge that changed.
    pub edge: Edge,
    /// The neighbor at the far end of the changed edge.
    pub peer: NodeId,
    /// `true` if the edge was inserted, `false` if deleted.
    pub inserted: bool,
}

/// A batch of topology changes applied at the beginning of one round.
///
/// An edge appears at most once per batch (the model applies one change per
/// edge per round; flicker within a single round is meaningless because the
/// graph `G_i` is a set). Every constructor keeps that invariant:
/// [`EventBatch::push`] panics on a repeat and deserialization returns an
/// error, so no `EventBatch` value ever holds one. Whether a batch fits the
/// current graph (endpoints in range, inserts absent, deletes present) is
/// [`Topology::validate`](crate::topology::Topology::validate)'s rule.
#[derive(Clone, Debug, Default)]
pub struct EventBatch {
    events: Vec<TopologyEvent>,
    /// Edges already touched by this batch, for O(1) duplicate detection
    /// once the batch outgrows [`TOUCHED_INDEX_THRESHOLD`] (large
    /// adversarial batches would otherwise make `push` quadratic). Small
    /// batches — the overwhelmingly common case — use a linear scan and
    /// keep this set empty and allocation-free. Not part of the serialized
    /// form or of equality.
    touched: FxHashSet<Edge>,
}

/// Batch size at which the hashed duplicate index takes over from the
/// linear scan. Below it, scanning a handful of events beats maintaining
/// a heap-allocated set per batch (materialized traces hold one batch per
/// round, so small-batch overhead is multiplied by run length).
const TOUCHED_INDEX_THRESHOLD: usize = 16;

impl PartialEq for EventBatch {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl Eq for EventBatch {}

// Hand-written (de)serialization so the JSON shape stays exactly what the
// derive produced before the `touched` index existed: `{"events": [...]}`.
// Deserialization enforces the at-most-once rule as an error rather than
// a panic: wire requests and trace files are untrusted input.
impl Serialize for EventBatch {
    fn to_value(&self) -> Value {
        Value::Obj(vec![("events".to_string(), self.events.to_value())])
    }
}

impl Deserialize for EventBatch {
    fn from_value(v: &Value) -> Result<Self, String> {
        let events = match v.get("events") {
            Some(evs) => Vec::<TopologyEvent>::from_value(evs)?,
            None => return Err("EventBatch: missing `events` field".to_string()),
        };
        let mut batch = EventBatch {
            events: Vec::with_capacity(events.len()),
            touched: FxHashSet::default(),
        };
        for ev in events {
            batch.try_push(ev)?;
        }
        Ok(batch)
    }
}

impl EventBatch {
    /// Empty batch (a "quiet" round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch with a single insertion.
    pub fn insert(e: Edge) -> Self {
        let mut b = Self::new();
        b.push(TopologyEvent::Insert(e));
        b
    }

    /// Batch with a single deletion.
    pub fn delete(e: Edge) -> Self {
        let mut b = Self::new();
        b.push(TopologyEvent::Delete(e));
        b
    }

    /// Append an event.
    ///
    /// # Panics
    /// Panics if the batch already contains an event for the same edge.
    pub fn push(&mut self, ev: TopologyEvent) {
        if let Err(e) = self.try_push(ev) {
            panic!("{e}");
        }
    }

    /// [`EventBatch::push`] returning the repeat as an error: the
    /// decoder's door for untrusted input.
    fn try_push(&mut self, ev: TopologyEvent) -> Result<(), String> {
        if self.touches(ev.edge()) {
            return Err(format!(
                "duplicate event for edge {:?} within one round",
                ev.edge()
            ));
        }
        if self.events.len() + 1 == TOUCHED_INDEX_THRESHOLD {
            // Crossing the threshold: index everything so far.
            self.touched = self.events.iter().map(|p| p.edge()).collect();
        }
        if self.events.len() + 1 >= TOUCHED_INDEX_THRESHOLD {
            self.touched.insert(ev.edge());
        }
        self.events.push(ev);
        Ok(())
    }

    /// Whether this batch already contains an event for edge `e`.
    pub fn touches(&self, e: Edge) -> bool {
        if self.events.len() < TOUCHED_INDEX_THRESHOLD {
            self.events.iter().any(|ev| ev.edge() == e)
        } else {
            self.touched.contains(&e)
        }
    }

    /// Append an insertion of `e`.
    pub fn push_insert(&mut self, e: Edge) {
        self.push(TopologyEvent::Insert(e));
    }

    /// Append a deletion of `e`.
    pub fn push_delete(&mut self, e: Edge) {
        self.push(TopologyEvent::Delete(e));
    }

    /// The events of this batch, in application order.
    pub fn events(&self) -> &[TopologyEvent] {
        &self.events
    }

    /// Number of topology changes in this batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the batch is a quiet round.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over the events.
    pub fn iter(&self) -> impl Iterator<Item = TopologyEvent> + '_ {
        self.events.iter().copied()
    }
}

impl FromIterator<TopologyEvent> for EventBatch {
    fn from_iter<I: IntoIterator<Item = TopologyEvent>>(iter: I) -> Self {
        let mut b = EventBatch::new();
        for ev in iter {
            b.push(ev);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    #[test]
    fn batch_collects_events() {
        let b: EventBatch = [
            TopologyEvent::Insert(edge(0, 1)),
            TopologyEvent::Delete(edge(1, 2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(b.len(), 2);
        assert!(b.events()[0].is_insert());
        assert!(b.events()[1].is_delete());
    }

    #[test]
    #[should_panic(expected = "duplicate event")]
    fn batch_rejects_duplicate_edge() {
        let mut b = EventBatch::insert(edge(0, 1));
        b.push_delete(edge(1, 0)); // same canonical edge
    }

    #[test]
    fn decoding_refuses_a_repeated_edge_at_every_size() {
        // Below and above the hashed-index threshold: the two scans differ.
        for len in [2, TOUCHED_INDEX_THRESHOLD + 4] {
            let mut events: Vec<TopologyEvent> = (1..len as u32)
                .map(|i| TopologyEvent::Insert(edge(0, i)))
                .collect();
            events.push(TopologyEvent::Delete(edge(len as u32 - 1, 0)));
            let doc = Value::Obj(vec![("events".to_string(), events.to_value())]);
            let err = EventBatch::from_value(&doc).unwrap_err();
            assert!(err.contains("duplicate event for edge"), "{len}: {err}");
            events.pop();
            let ok = EventBatch::from_value(&Value::Obj(vec![(
                "events".to_string(),
                events.to_value(),
            )]))
            .unwrap();
            assert_eq!(ok.len(), len - 1);
            assert!(ok.touches(edge(0, 1)));
        }
    }

    #[test]
    fn quiet_round() {
        assert!(EventBatch::new().is_empty());
        assert_eq!(EventBatch::new().len(), 0);
    }
}
