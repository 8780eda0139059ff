//! Per-link bandwidth budget and global communication accounting.
//!
//! The CONGEST-style constraint: each link carries at most
//! `factor * ceil(log2 n)` bits per round. The simulator calls
//! [`BandwidthMeter::charge`] for every transmitted message and panics (in
//! `enforce` mode) or records an overflow (in `observe` mode) when a link's
//! per-round budget is exceeded. The meter also accumulates global totals so
//! experiments can report bits/round/link and total communication — the
//! quantities the paper's lower-bound arguments count.

use crate::ids::{Edge, NodeId};
use crate::message::node_bits;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// What to do when a message exceeds the per-link budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthPolicy {
    /// Panic — protocol bugs should be loud in tests.
    Enforce,
    /// Record the violation and keep going — used by baselines that
    /// intentionally exceed O(log n) (they must instead *chunk* their
    /// payloads; the snapshot baseline does, so violations still indicate
    /// bugs there, but the policy lets experiments measure hypothetical
    /// large-bandwidth algorithms).
    Observe,
}

/// Bandwidth configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthConfig {
    /// Multiplier `c` in the per-link budget `c * ceil(log2 n)` bits/round.
    pub factor: u64,
    /// Violation policy.
    pub policy: BandwidthPolicy,
}

impl Default for BandwidthConfig {
    fn default() -> Self {
        // Generous constant: a path of 4 node ids plus marks fits easily.
        BandwidthConfig {
            factor: 8,
            policy: BandwidthPolicy::Enforce,
        }
    }
}

impl BandwidthConfig {
    /// Per-link per-round budget in bits for a network on `n` nodes.
    #[inline]
    pub fn budget_bits(&self, n: usize) -> u64 {
        self.factor * node_bits(n)
    }
}

/// Tracks per-round, per-link usage and cumulative totals.
#[derive(Clone, Debug)]
pub struct BandwidthMeter {
    cfg: BandwidthConfig,
    n: usize,
    /// Bits sent this round keyed by (directed) link.
    this_round: FxHashMap<(NodeId, NodeId), u64>,
    /// Total bits ever sent.
    total_bits: u64,
    /// Total payload messages ever sent.
    total_messages: u64,
    /// Bits sent during the current round (all links).
    round_bits: u64,
    /// Payload messages sent during the current round.
    round_messages: u64,
    /// Number of budget violations observed (only grows under `Observe`).
    violations: u64,
    /// Largest single-message size seen, for reporting.
    max_message_bits: u64,
}

impl BandwidthMeter {
    /// New meter for a network of `n` nodes.
    pub fn new(n: usize, cfg: BandwidthConfig) -> Self {
        BandwidthMeter {
            cfg,
            n,
            this_round: FxHashMap::default(),
            total_bits: 0,
            total_messages: 0,
            round_bits: 0,
            round_messages: 0,
            violations: 0,
            max_message_bits: 0,
        }
    }

    /// Per-link budget in bits.
    #[inline]
    pub fn budget_bits(&self) -> u64 {
        self.cfg.budget_bits(self.n)
    }

    /// Begin a new round: per-link counters reset.
    pub fn begin_round(&mut self) {
        self.this_round.clear();
        self.round_bits = 0;
        self.round_messages = 0;
    }

    /// Charge `bits` for a message from `from` to `to` over their link.
    ///
    /// # Panics
    /// Under [`BandwidthPolicy::Enforce`], panics when the per-link,
    /// per-round budget is exceeded.
    pub fn charge(&mut self, from: NodeId, to: NodeId, bits: u64) {
        let budget = self.budget_bits();
        let used = self.this_round.entry((from, to)).or_insert(0);
        *used += bits;
        let used = *used;
        self.total_bits += bits;
        self.round_bits += bits;
        self.total_messages += 1;
        self.round_messages += 1;
        self.max_message_bits = self.max_message_bits.max(bits);
        if used > budget {
            match self.cfg.policy {
                BandwidthPolicy::Enforce => panic!(
                    "bandwidth violation on link {:?} ({from:?} -> {to:?}): \
                     {used} bits > budget {budget} bits (n = {})",
                    Edge::new(from, to),
                    self.n
                ),
                BandwidthPolicy::Observe => self.violations += 1,
            }
        }
    }

    /// Total bits transmitted over the whole execution.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Total payload messages transmitted over the whole execution.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Bits transmitted in the current round so far.
    pub fn round_bits(&self) -> u64 {
        self.round_bits
    }

    /// Payload messages transmitted in the current round so far.
    pub fn round_messages(&self) -> u64 {
        self.round_messages
    }

    /// Number of recorded violations (only under `Observe`).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Largest single message seen, in bits.
    pub fn max_message_bits(&self) -> u64 {
        self.max_message_bits
    }

    /// Write the cumulative counters for a snapshot. The per-link
    /// `this_round` map is *not* captured: checkpoints are taken between
    /// rounds, and `begin_round` clears it before any charge of the next
    /// round, so it is dead state at capture time.
    pub(crate) fn save_state(&self, w: &mut crate::checkpoint::Writer) {
        w.object(|w| {
            w.key("total_bits").u64(self.total_bits);
            w.key("total_messages").u64(self.total_messages);
            w.key("round_bits").u64(self.round_bits);
            w.key("round_messages").u64(self.round_messages);
            w.key("violations").u64(self.violations);
            w.key("max_message_bits").u64(self.max_message_bits);
        });
    }

    /// Restore the counters written by [`BandwidthMeter::save_state`]
    /// into a freshly constructed meter.
    pub(crate) fn load_counters(
        &mut self,
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<(), String> {
        r.object(|r| {
            self.total_bits = r.key("total_bits")?.u64()?;
            self.total_messages = r.key("total_messages")?.u64()?;
            self.round_bits = r.key("round_bits")?.u64()?;
            self.round_messages = r.key("round_messages")?.u64()?;
            self.violations = r.key("violations")?.u64()?;
            self.max_message_bits = r.key("max_message_bits")?.u64()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter(n: usize, factor: u64, policy: BandwidthPolicy) -> BandwidthMeter {
        BandwidthMeter::new(n, BandwidthConfig { factor, policy })
    }

    #[test]
    fn charges_accumulate() {
        let mut m = meter(1024, 8, BandwidthPolicy::Enforce);
        m.begin_round();
        m.charge(NodeId(0), NodeId(1), 30);
        m.charge(NodeId(0), NodeId(1), 30);
        assert_eq!(m.total_bits(), 60);
        assert_eq!(m.total_messages(), 2);
        m.begin_round();
        m.charge(NodeId(0), NodeId(1), 80); // fresh budget
        assert_eq!(m.total_bits(), 140);
    }

    #[test]
    #[should_panic(expected = "bandwidth violation")]
    fn enforce_panics_on_overflow() {
        let mut m = meter(1024, 1, BandwidthPolicy::Enforce); // budget = 10 bits
        m.begin_round();
        m.charge(NodeId(0), NodeId(1), 11);
    }

    #[test]
    fn observe_records_violations() {
        let mut m = meter(1024, 1, BandwidthPolicy::Observe);
        m.begin_round();
        m.charge(NodeId(0), NodeId(1), 11);
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn directions_have_separate_budgets() {
        let mut m = meter(1024, 1, BandwidthPolicy::Enforce); // 10 bits each way
        m.begin_round();
        m.charge(NodeId(0), NodeId(1), 10);
        m.charge(NodeId(1), NodeId(0), 10);
        assert_eq!(m.total_bits(), 20);
    }
}
