//! Streaming trace sources: per-round event batches produced lazily.
//!
//! A [`Trace`] materializes a whole schedule up front, so memory — not the
//! engine — caps how large an `n` or how long a run can be. A
//! [`TraceSource`] instead yields one [`EventBatch`] at a time; the engine
//! ([`crate::engine::drive_source`]) holds exactly one batch in memory,
//! making run length and change volume independent of RAM.
//!
//! Every driver takes a `&mut dyn TraceSource` and nothing else: the
//! engine's [`drive_source`](crate::engine::drive_source), the registry's
//! `run_stream` and [`Session::drain`](crate::session::Session::drain) /
//! `run_to`. A recorded schedule reaches them through [`Trace::replay`].
//!
//! The contract every source must satisfy:
//!
//! - **Determinism / replayability**: a source is constructed from explicit
//!   parameters (including any RNG seed); two sources built from the same
//!   parameters yield bit-identical batch sequences. Replay = rebuild.
//! - **Validity**: starting from the empty graph on `n` nodes, every
//!   streamed batch must pass
//!   [`Topology::validate`](crate::topology::Topology::validate) against
//!   the graph the batches before it built (endpoints `< n`, no insert of a
//!   present edge, no delete of an absent one) — exactly what
//!   [`Trace::validate`] accepts. At most one event per edge within a batch
//!   holds by construction: [`EventBatch`] refuses a repeat.
//! - **Memory bound**: a source may keep whatever generator state it needs
//!   (its own shadow edge set, RNG, phase counters) but must not buffer
//!   future batches; [`TraceSource::materialize`] is the explicit escape
//!   hatch back to a fully recorded [`Trace`].

use crate::event::EventBatch;
use crate::trace::Trace;

/// A lazy, seeded, replayable producer of per-round event batches.
pub trait TraceSource {
    /// Number of nodes the schedule is defined over.
    fn n(&self) -> usize;

    /// The next round's batch, or `None` when the schedule ends.
    fn next_batch(&mut self) -> Option<EventBatch>;

    /// Total number of batches still to come, when known in advance
    /// (progress reporting and pre-allocation; `None` for open-ended or
    /// phase-structured sources).
    fn rounds_hint(&self) -> Option<usize> {
        None
    }

    /// Discard the next `rounds` batches, returning how many were actually
    /// skipped (fewer when the schedule ends first). This is the snapshot
    /// fast-forward: resuming a checkpoint taken at round R replays the
    /// *generator* over R batches — no simulation — so restore cost is the
    /// generator's, not the engine's. Works on any source, lazy or
    /// materialized, by construction.
    fn skip_batches(&mut self, rounds: usize) -> usize {
        let mut skipped = 0;
        while skipped < rounds {
            if self.next_batch().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }

    /// Drain the remaining schedule into a fully materialized [`Trace`] —
    /// the escape hatch for consumers that genuinely need random access
    /// (serialization, golden files, multi-pass analysis).
    fn materialize(&mut self) -> Trace
    where
        Self: Sized,
    {
        let mut trace = Trace::new(self.n());
        if let Some(r) = self.rounds_hint() {
            trace.batches.reserve(r);
        }
        while let Some(b) = self.next_batch() {
            trace.push(b);
        }
        trace
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn next_batch(&mut self) -> Option<EventBatch> {
        (**self).next_batch()
    }
    fn rounds_hint(&self) -> Option<usize> {
        (**self).rounds_hint()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn next_batch(&mut self) -> Option<EventBatch> {
        (**self).next_batch()
    }
    fn rounds_hint(&self) -> Option<usize> {
        (**self).rounds_hint()
    }
}

/// A boxed source, as the workload registries hand them out.
pub type BoxedSource = Box<dyn TraceSource + Send>;

/// Replays a recorded [`Trace`] as a source (batches are cloned out one at
/// a time), so materialized traces drive the same engine path as live
/// generators. Obtained via [`Trace::replay`].
#[derive(Clone, Debug)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceReplay<'a> {
    /// Replay `trace` from its first round.
    pub fn new(trace: &'a Trace) -> Self {
        TraceReplay { trace, next: 0 }
    }
}

impl TraceSource for TraceReplay<'_> {
    fn n(&self) -> usize {
        self.trace.n
    }

    fn next_batch(&mut self) -> Option<EventBatch> {
        let b = self.trace.batches.get(self.next)?.clone();
        self.next += 1;
        Some(b)
    }

    fn rounds_hint(&self) -> Option<usize> {
        Some(self.trace.batches.len() - self.next)
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
    fn replay_streams_the_recorded_batches() {
        let t = sample();
        let mut src = t.replay();
        assert_eq!(src.n(), 4);
        assert_eq!(src.rounds_hint(), Some(2));
        let mut got = Vec::new();
        while let Some(b) = src.next_batch() {
            got.push(b);
        }
        assert_eq!(got, t.batches);
        assert_eq!(src.rounds_hint(), Some(0));
        assert_eq!(src.next_batch(), None);
    }

    #[test]
    fn materialize_round_trips() {
        let t = sample();
        let back = t.replay().materialize();
        assert_eq!(back, t);
        assert_eq!(back.n, t.n);
    }

    #[test]
    fn boxed_and_borrowed_sources_delegate() {
        let t = sample();
        let mut boxed: Box<dyn TraceSource + '_> = Box::new(t.replay());
        assert_eq!(boxed.n(), 4);
        assert_eq!(boxed.rounds_hint(), Some(2));
        assert_eq!(boxed.materialize(), t);
    }
}
