//! One definition of "identical": a run's [`Fingerprint`].
//!
//! Every engine claim says two runs produce the same bits: sparse ≡
//! dense, K shards ≡ 1, resume ≡ uninterrupted, fork ≡ original, stream
//! ≡ replay. The fingerprint is what "the same" covers, in three parts,
//! and a [`Claim`] names the parts a comparison covers. Floats are held
//! as `f64::to_bits`: "close" is not identical. A mismatch names the
//! first field that differs, and its round when the field sits in the
//! stats log.

use crate::engine::{measured, RunSummary};
use crate::ids::Round;
use crate::protocol::Node;
use crate::sim::Simulator;
use std::fmt;

/// What two runs must share, split by the claims that compare it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// What the run computed: [`RunSummary::outcome`], the round counter,
    /// the inconsistent-node count, the worst per-node ratio, digests of
    /// the per-node change and inconsistency counters, and the per-round
    /// stats log without `active_nodes` and `shards`.
    pub outcome: Part,
    /// The active-node count of the last round and of each logged round.
    pub activity: Part,
    /// The shard count of the last round and of each logged round, and
    /// the per-shard peaks.
    pub shards: Part,
}

/// What a comparison claims two runs share; each claim covers the parts
/// of the ones before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Another round engine: the outcome (the dense engine visits every
    /// node, so the activity differs).
    Engine,
    /// Another shard count: the outcome and the activity.
    ShardCount,
    /// One configuration run again — resumed, forked, streamed, on other
    /// jobs: the whole value.
    Same,
}

impl Fingerprint {
    /// The first field, part by part, that differs from `other`'s within
    /// the parts `claim` covers.
    pub fn first_difference(&self, other: &Fingerprint, claim: Claim) -> Option<String> {
        let parts = [
            (&self.outcome, &other.outcome),
            (&self.activity, &other.activity),
            (&self.shards, &other.shards),
        ];
        parts[..=claim as usize]
            .iter()
            .find_map(|(ours, theirs)| ours.first_difference(theirs))
    }

    /// Panic with `ctx` and the first differing field unless the parts
    /// `claim` covers match.
    #[track_caller]
    pub fn assert_same(&self, other: &Fingerprint, claim: Claim, ctx: &str) {
        if let Some(diff) = self.first_difference(other, claim) {
            panic!("{ctx}: {diff}");
        }
    }
}

/// One part of a [`Fingerprint`]: named values in a fixed order, each
/// with its stats-log round where it has one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Part {
    name: &'static str,
    fields: Vec<(&'static str, Option<Round>, Value)>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Value {
    Int(u64),
    /// An `f64` by its bits.
    Float(u64),
    List(Vec<usize>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(bits) => write!(f, "{:?} (bits {bits:#018x})", f64::from_bits(*bits)),
            Value::List(v) => write!(f, "{v:?}"),
        }
    }
}

impl Part {
    fn new(name: &'static str) -> Part {
        Part {
            name,
            fields: Vec::new(),
        }
    }

    fn int(&mut self, field: &'static str, round: Option<Round>, value: u64) {
        self.fields.push((field, round, Value::Int(value)));
    }

    fn float(&mut self, field: &'static str, value: f64) {
        self.fields
            .push((field, None, Value::Float(value.to_bits())));
    }

    /// The first field that differs from `other`'s, described as
    /// `part: field [in round R]: ours vs theirs`, or `None` when equal.
    pub fn first_difference(&self, other: &Part) -> Option<String> {
        let at = |(field, round, _): &(&str, Option<Round>, Value)| match round {
            Some(r) => format!("{field} in round {r}"),
            None => field.to_string(),
        };
        let name = self.name;
        for (a, b) in self.fields.iter().zip(&other.fields) {
            if (a.0, a.1) != (b.0, b.1) {
                return Some(format!("{name}: {} vs {}", at(a), at(b)));
            }
            if a.2 != b.2 {
                return Some(format!("{name}: {}: {} vs {}", at(a), a.2, b.2));
            }
        }
        let (ours, theirs) = (self.fields.len(), other.fields.len());
        (ours != theirs).then(|| format!("{name}: {ours} vs {theirs} fields"))
    }

    /// Panic with `ctx` and the first differing field unless the parts
    /// match.
    #[track_caller]
    pub fn assert_same(&self, other: &Part, ctx: &str) {
        if let Some(diff) = self.first_difference(other) {
            panic!("{ctx}: {diff}");
        }
    }
}

impl RunSummary {
    /// Every deterministic field, floats as bits: the one list that
    /// summary-only comparisons use, and the head of
    /// [`Fingerprint::outcome`]. Left out are `protocol`, which labels the
    /// run (a typed simulator has none); `seconds`, `rounds_per_sec`,
    /// `peak_rss_mb` and `pool_workers`, which measure the machine; and
    /// `peak_round_active`, `shards` and `per_shard_peak_active`, which
    /// measure the engine and sit in the other parts.
    pub fn outcome(&self) -> Part {
        let mut p = Part::new("outcome");
        p.int("n", None, self.n as u64);
        p.int("rounds", None, self.rounds);
        p.int("changes", None, self.changes);
        p.int("inconsistent_rounds", None, self.inconsistent_rounds);
        p.float("amortized", self.amortized);
        p.float("footnote_amortized", self.footnote_amortized);
        p.int("messages", None, self.messages);
        p.int("bits", None, self.bits);
        p.int("budget_bits", None, self.budget_bits);
        p.int("violations", None, self.violations);
        p.int("final_edges", None, self.final_edges as u64);
        p.int("peak_round_messages", None, self.peak_round_messages);
        p.int("peak_round_bits", None, self.peak_round_bits);
        p
    }
}

impl<N: Node> Simulator<N> {
    /// This run's [`Fingerprint`]. A [`Session`](crate::Session) forwards
    /// to its simulator, so typed and erased runs give the same value.
    pub fn fingerprint(&self) -> Fingerprint {
        let per_node = self.per_node_meter();
        let mut outcome = measured(self).outcome();
        outcome.int("round", None, self.round());
        outcome.int("inconsistent_nodes", None, self.inconsistent_nodes() as u64);
        outcome.float("worst per-node amortized", per_node.worst_amortized());
        outcome.int("per-node changes digest", None, digest(per_node.changes()));
        let inconsistent = digest(per_node.inconsistent());
        outcome.int("per-node inconsistent rounds digest", None, inconsistent);
        outcome.int("stats log length", None, self.stats().len() as u64);
        let mut activity = Part::new("activity");
        activity.int("active_nodes", None, self.active_nodes() as u64);
        let mut shards = Part::new("shards");
        shards.int("shards", None, self.shards() as u64);
        let peaks = Value::List(self.shard_peak_active().to_vec());
        shards.fields.push(("per_shard_peak_active", None, peaks));
        for s in self.stats() {
            let r = Some(s.round);
            outcome.int("changes", r, s.changes);
            outcome.int("edges", r, s.edges as u64);
            outcome.int("inconsistent_nodes", r, s.inconsistent_nodes as u64);
            outcome.int("messages", r, s.messages);
            outcome.int("bits", r, s.bits);
            activity.int("active_nodes", r, s.active_nodes as u64);
            shards.int("shards", r, s.shards as u64);
        }
        Fingerprint {
            outcome,
            activity,
            shards,
        }
    }
}

/// A digest of a counter vector, so a fingerprint stays small at
/// n = 10⁶. Each step is a bijection of the running state for a fixed
/// input and of the input for a fixed state, so vectors that differ in
/// one element never share a digest.
fn digest(values: &[u64]) -> u64 {
    values.iter().fold(values.len() as u64, |h, &v| {
        (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_by_bits_and_print_both() {
        let mut summary = RunSummary::default();
        let base = summary.outcome();
        summary.amortized = f64::from_bits(1);
        let diff = base.first_difference(&summary.outcome()).unwrap();
        assert_eq!(
            diff,
            "outcome: amortized: 0.0 (bits 0x0000000000000000) \
             vs 5e-324 (bits 0x0000000000000001)"
        );
    }

    #[test]
    fn a_single_counter_always_moves_the_digest() {
        let base: Vec<u64> = (0..64).collect();
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] ^= 1 << i;
            assert_ne!(digest(&base), digest(&v), "element {i}");
        }
        assert_ne!(digest(&[0]), digest(&[0, 0]), "the length is digested");
    }
}
