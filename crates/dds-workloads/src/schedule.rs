//! The `Workload` abstraction: a source of per-round event batches.
//!
//! A workload owns whatever state it needs (its own shadow of the current
//! edge set, RNG, phase counters) and yields one [`EventBatch`] per round;
//! `None` means the schedule is exhausted. Since every generator in this
//! crate produces batches lazily, `Workload` *is* the engine's streaming
//! [`TraceSource`](dds_net::TraceSource) trait — the simulator can drive a
//! live generator directly without a recorded [`Trace`] ever existing, and
//! [`record`] / [`TraceSource::materialize`](dds_net::TraceSource::materialize)
//! are the explicit escape hatches back to one.

use dds_net::{EventBatch, Trace};
use rustc_hash::FxHashSet;

/// A per-round schedule of topology changes: the engine's streaming
/// [`TraceSource`](dds_net::TraceSource) trait under its workload name.
/// Implement `n` and `next_batch` (plus `rounds_hint` where the total
/// length is known up front) and the generator both streams through the
/// engine and records into traces.
pub use dds_net::TraceSource as Workload;

/// Record up to `max_rounds` rounds of a workload into a trace.
pub fn record(mut w: impl Workload, max_rounds: usize) -> Trace {
    let mut trace = Trace::new(w.n());
    for _ in 0..max_rounds {
        match w.next_batch() {
            Some(b) => trace.push(b),
            None => break,
        }
    }
    debug_assert!(trace.validate().is_ok(), "workload produced invalid trace");
    trace
}

/// Book-keeping helper shared by generators: tracks the current edge set
/// so produced batches are always valid (no double inserts / phantom
/// deletes).
#[derive(Clone, Debug, Default)]
pub struct EdgeLedger {
    present: FxHashSet<dds_net::Edge>,
}

impl EdgeLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `e` is currently present.
    pub fn has(&self, e: dds_net::Edge) -> bool {
        self.present.contains(&e)
    }

    /// Number of present edges.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when no edges are present.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Iterate over present edges.
    pub fn iter(&self) -> impl Iterator<Item = dds_net::Edge> + '_ {
        self.present.iter().copied()
    }

    /// Add an insertion to `batch` if `e` is absent (and not already
    /// touched by the batch); returns whether it was added.
    pub fn insert(&mut self, batch: &mut EventBatch, e: dds_net::Edge) -> bool {
        if self.present.contains(&e) || batch.touches(e) {
            return false;
        }
        self.present.insert(e);
        batch.push_insert(e);
        true
    }

    /// Add a deletion to `batch` if `e` is present (and not already touched
    /// by the batch); returns whether it was added.
    pub fn delete(&mut self, batch: &mut EventBatch, e: dds_net::Edge) -> bool {
        if !self.present.contains(&e) || batch.touches(e) {
            return false;
        }
        self.present.remove(&e);
        batch.push_delete(e);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::edge;

    struct TwoRounds {
        i: usize,
    }
    impl Workload for TwoRounds {
        fn n(&self) -> usize {
            3
        }
        fn next_batch(&mut self) -> Option<EventBatch> {
            self.i += 1;
            match self.i {
                1 => Some(EventBatch::insert(edge(0, 1))),
                2 => Some(EventBatch::delete(edge(0, 1))),
                _ => None,
            }
        }
    }

    #[test]
    fn record_collects_until_exhaustion() {
        let t = record(TwoRounds { i: 0 }, 10);
        assert_eq!(t.rounds(), 2);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn ledger_prevents_invalid_operations() {
        let mut ledger = EdgeLedger::new();
        let mut b = EventBatch::new();
        assert!(ledger.insert(&mut b, edge(0, 1)));
        assert!(!ledger.insert(&mut b, edge(0, 1)), "double insert refused");
        assert!(
            !ledger.delete(&mut b, edge(0, 1)),
            "same-batch delete refused"
        );
        let mut b2 = EventBatch::new();
        assert!(ledger.delete(&mut b2, edge(0, 1)));
        assert!(!ledger.delete(&mut b2, edge(0, 1)));
    }
}
