//! Recorded executions: a trace is the full per-round sequence of event
//! batches, serializable with serde so that workloads (including adversarial
//! ones) can be stored, replayed, and shared between tests and benchmarks.
//!
//! A trace does not drive anything itself: [`Trace::replay`] turns it into a
//! [`TraceSource`](crate::source::TraceSource), the one input every driver
//! takes. Nor does it restate the batch rules: parsing enforces at most one
//! event per edge ([`EventBatch`]), and [`Trace::validate`] replays the
//! batches through [`Topology::validate`].

use crate::event::{EventBatch, TopologyEvent};
use crate::ids::{Edge, NodeId, Round};
use crate::topology::Topology;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

/// A complete recorded workload: `n` and the batch applied at each round.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of nodes in the network.
    pub n: usize,
    /// `batches[i]` is applied at the beginning of round `i + 1`.
    pub batches: Vec<EventBatch>,
}

impl Trace {
    /// Empty trace for `n` nodes.
    pub fn new(n: usize) -> Self {
        Trace {
            n,
            batches: Vec::new(),
        }
    }

    /// Append a round's batch.
    pub fn push(&mut self, batch: EventBatch) {
        self.batches.push(batch);
    }

    /// Total number of rounds.
    pub fn rounds(&self) -> usize {
        self.batches.len()
    }

    /// Replay this trace as a streaming [`TraceSource`](crate::source::TraceSource)
    /// (batches are cloned out one at a time): the one bridge from a
    /// recorded schedule to the drivers.
    pub fn replay(&self) -> crate::source::TraceReplay<'_> {
        crate::source::TraceReplay::new(self)
    }

    /// Total number of topology changes across all rounds.
    pub fn total_changes(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Validate the trace as a whole: replay it through
    /// [`Topology::validate`] and [`Topology::apply`] on the empty graph on
    /// `n` nodes, so every insertion must be of an absent edge, every
    /// deletion of a present one, and all endpoints `< n`. The error names
    /// the first failing round.
    pub fn validate(&self) -> Result<(), String> {
        let mut topo = Topology::new(self.n);
        for (i, batch) in self.batches.iter().enumerate() {
            let round = i as Round + 1;
            topo.validate(batch)
                .map_err(|e| format!("round {round}: {e}"))?;
            topo.apply(batch, round);
        }
        Ok(())
    }

    /// The set of edges present after the full trace has been applied.
    pub fn final_edges(&self) -> FxHashSet<Edge> {
        let mut present: FxHashSet<Edge> = FxHashSet::default();
        for batch in &self.batches {
            for ev in batch.iter() {
                match ev {
                    TopologyEvent::Insert(e) => {
                        present.insert(e);
                    }
                    TopologyEvent::Delete(e) => {
                        present.remove(&e);
                    }
                }
            }
        }
        present
    }

    /// Maximum node id actually used, if any edge exists.
    pub fn max_node(&self) -> Option<NodeId> {
        self.batches
            .iter()
            .flat_map(|b| b.iter())
            .map(|ev| ev.edge().hi())
            .max()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Parse from JSON, validating the event sequence. A batch that
    /// repeats an edge already fails the parse.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let t: Trace = serde_json::from_str(s).map_err(|e| e.to_string())?;
        t.validate()?;
        Ok(t)
    }

    /// Write to a file as JSON.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load and validate from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let s = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_json(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    fn sample() -> Trace {
        let mut t = Trace::new(4);
        t.push(EventBatch::insert(edge(0, 1)));
        let mut b = EventBatch::new();
        b.push_insert(edge(1, 2));
        b.push_delete(edge(0, 1));
        t.push(b);
        t
    }

    #[test]
    fn counts() {
        let t = sample();
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.total_changes(), 3);
        assert_eq!(t.max_node(), Some(NodeId(2)));
    }

    #[test]
    fn validation_accepts_good_traces() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validation_rejects_double_insert() {
        let mut t = Trace::new(4);
        t.push(EventBatch::insert(edge(0, 1)));
        t.push(EventBatch::insert(edge(0, 1)));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_rejects_phantom_delete() {
        let mut t = Trace::new(4);
        t.push(EventBatch::delete(edge(0, 1)));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_names_the_first_failing_round() {
        let mut t = sample();
        t.push(EventBatch::insert(edge(2, 9)));
        assert_eq!(
            t.validate().unwrap_err(),
            "round 3: edge {v2,v9} out of range for n = 4"
        );
    }

    #[test]
    fn a_repeated_edge_fails_the_parse() {
        let json =
            r#"{"n":4,"batches":[{"events":[{"Insert":{"a":0,"b":1}},{"Delete":{"a":0,"b":1}}]}]}"#;
        let err = Trace::from_json(json).unwrap_err();
        assert!(err.contains("duplicate event for edge"), "{err}");
    }

    #[test]
    fn final_edges_reflect_history() {
        let t = sample();
        let fin = t.final_edges();
        assert!(fin.contains(&edge(1, 2)));
        assert!(!fin.contains(&edge(0, 1)));
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_helpers_validate() {
        let t = sample();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
        // An invalid trace round-trips the parse but fails validation.
        let mut bad = Trace::new(4);
        bad.push(EventBatch::delete(edge(0, 1)));
        assert!(Trace::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("dds_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }
}
