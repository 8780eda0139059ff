//! Persistent per-round scratch storage for the simulator's hot loop.
//!
//! [`RoundBuffers`] holds everything the round engine reuses between
//! rounds: the sorted adjacency (the simulator's only per-node neighbor
//! structure; [`Topology`](crate::topology::Topology) keeps only the
//! timestamped edge set), the sparse incident-event CSR, the staged
//! payload/flag traffic, the sparse inbox CSR and the **active set** that
//! makes round cost proportional to activity instead of `n + m`. On a
//! quiet round (empty event batch, empty active set) `Simulator::step`
//! performs no heap allocation at all on the sequential path.
//!
//! # Invariants
//!
//! After the corresponding build phase of round `i` (and until the next
//! round overwrites them):
//!
//! 1. `local_of(v)` is node `v`'s incident topology events, in batch order
//!    (the order `EventBatch` lists them); `local_nodes` are the nodes
//!    with at least one event this round, ascending, and
//!    `touched_changes` pairs them with their event counts (the per-node
//!    meter's sparse input).
//! 2. `nbrs[v]` is node `v`'s neighbor set in `G_i`, sorted ascending —
//!    the delivery order contract of [`crate::protocol::Node::receive`].
//!    It is updated **incrementally** from each round's batch delta; only
//!    a restore builds it whole, once, from the snapshot's edge list.
//! 3. `active` is the round's active set, ascending and duplicate-free: at
//!    the start of phase 1 it contains every node that was not
//!    [`idle`](crate::protocol::Node::idle) at the end of the previous
//!    round, merged with this round's batch-incident nodes. Only active
//!    nodes run phases 1–2. (The dense engine forces `active = 0..n`.)
//! 4. `out_flags[v]` holds node `v`'s flags for round `i` **for active
//!    `v`** — a flat struct-of-arrays slot, the only per-node send output
//!    kept around (payloads are expanded into shard-local `staged` runs at
//!    send time and never stored per node). Skipped nodes' flag slots are
//!    stale and never read: inbox assembly only dereferences senders that
//!    appear in `staged` or `flag_stage`, which active nodes alone can
//!    enter. Each shard task writes only the slots of the node-id range it
//!    owns, which is what makes the split-borrow fan-out sound.
//! 5. `staged` is sorted by `(receiver, sender)` after routing; each
//!    `(receiver, sender)` pair appears at most once (two payloads on one
//!    ordered link in one round is a protocol bug and panics).
//!    `flag_stage` lists `(receiver, sender)` for every delivered
//!    non-quiet flag broadcast, sorted the same way.
//! 6. `recv_nodes` (ascending) are the nodes processed in phase 3: the
//!    active set merged with every payload or flag receiver.
//!    `inbox_of_pos(k)` is the *k*-th such node's inbox: one
//!    [`Received`] entry per transmitting neighbor, sorted by sender, with
//!    flags copied straight out of `outboxes` — quiet, payload-free
//!    senders produce no entry (the sparse-inbox contract).
//! 7. `inconsistent_idx` lists the nodes reporting inconsistent at the end
//!    of the round, ascending.

use crate::event::{EventBatch, LocalEvent};
use crate::ids::{Edge, NodeId};
use crate::message::{Flags, Received};

/// Per-shard staging scratch, reused round to round. Each shard task
/// writes only here (plus its own node/flag sub-slices); the engine's
/// sequential middle merges the shards' sorted runs back together.
#[derive(Debug)]
pub(crate) struct ShardScratch<M> {
    /// Routed payloads `(receiver, sender, message)`, sorted by
    /// `(receiver, sender)` at the end of the shard task.
    pub(crate) staged: Vec<(NodeId, NodeId, M)>,
    /// Delivered non-quiet flag broadcasts `(receiver, sender)`, sorted.
    pub(crate) flag_stage: Vec<(NodeId, NodeId)>,
    /// Bandwidth charge log `(sender, receiver, bits)` in charge order —
    /// per sender: flag charges (neighbor ascending), then payload charges
    /// (payload order). Replayed sequentially shard-by-shard, which is
    /// exactly global ascending sender order.
    pub(crate) charges: Vec<(NodeId, NodeId, u64)>,
    /// Next round's active survivors from this shard, ascending.
    pub(crate) next_active: Vec<u32>,
    /// Inconsistent nodes found by this shard's phase 4 scan, ascending.
    pub(crate) inconsistent: Vec<u32>,
}

impl<M> Default for ShardScratch<M> {
    fn default() -> Self {
        ShardScratch {
            staged: Vec::new(),
            flag_stage: Vec::new(),
            charges: Vec::new(),
            next_active: Vec::new(),
            inconsistent: Vec::new(),
        }
    }
}

/// Read-only view of the incident-event CSR, cheap to hand to shard tasks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LocalView<'a> {
    local: &'a [LocalEvent],
    start: &'a [usize],
    len: &'a [u32],
}

impl LocalView<'_> {
    /// Node `v`'s incident events this round.
    #[inline]
    pub(crate) fn of(&self, v: usize) -> &[LocalEvent] {
        let len = self.len[v] as usize;
        if len == 0 {
            return &[];
        }
        &self.local[self.start[v]..self.start[v] + len]
    }
}

/// Split borrow for the sharded send region (phases 1–2 + routing
/// expansion): shared read-only round state plus disjoint mutable access
/// to the flag array and the per-shard scratch.
pub(crate) struct ShardParts<'a, M> {
    /// Sorted adjacency (shared across shards, read-only).
    pub(crate) nbrs: &'a [Vec<NodeId>],
    /// Incident-event CSR view (shared, read-only).
    pub(crate) local: LocalView<'a>,
    /// The full active set, ascending (shards take id-range sub-slices).
    pub(crate) active: &'a [u32],
    /// The flag SoA array, to be split at shard boundaries.
    pub(crate) out_flags: &'a mut [Flags],
    /// One scratch per shard.
    pub(crate) scratch: &'a mut [ShardScratch<M>],
}

/// Split borrow for the sharded receive region (phases 3–4 + next-active
/// collection): the assembled inbox CSR plus per-shard scratch.
pub(crate) struct RecvParts<'a, M> {
    /// Sorted adjacency (shared, read-only).
    pub(crate) nbrs: &'a [Vec<NodeId>],
    /// The phase-3 receiver list, ascending.
    pub(crate) recv_nodes: &'a [u32],
    /// Assembled inbox entries (CSR data, indexed via `inbox_off`).
    pub(crate) inbox: &'a [Received<M>],
    /// Inbox offsets, parallel to `recv_nodes` (length `recv + 1`).
    pub(crate) inbox_off: &'a [usize],
    /// One scratch per shard.
    pub(crate) scratch: &'a mut [ShardScratch<M>],
}

/// Flat, reusable per-round scratch space; one per [`crate::Simulator`].
#[derive(Debug)]
pub(crate) struct RoundBuffers<M> {
    /// Sorted adjacency of `G_i`, maintained incrementally (invariant 2).
    pub(crate) nbrs: Vec<Vec<NodeId>>,
    /// Incident topology events, CSR data (invariant 1).
    local: Vec<LocalEvent>,
    /// Nodes with incident events this round, ascending.
    pub(crate) local_nodes: Vec<u32>,
    /// Per-node CSR start into `local`; valid only for `local_nodes`.
    local_start: Vec<usize>,
    /// Per-node event count; zeroed for all nodes outside `local_nodes`.
    local_len: Vec<u32>,
    /// `(node, incident change count)` pairs, ascending by node — the
    /// sparse input of [`PerNodeMeter::record_round_sparse`].
    ///
    /// [`PerNodeMeter::record_round_sparse`]:
    ///     crate::metrics::PerNodeMeter::record_round_sparse
    pub(crate) touched_changes: Vec<(u32, u64)>,
    /// This round's flags, one slot per node, struct-of-arrays (invariant
    /// 4): the one per-node send output inbox assembly reads back, kept in
    /// a flat cache-linear array. Payloads never get a per-node slot —
    /// they are expanded into the shard's `staged` scratch at send time.
    pub(crate) out_flags: Vec<Flags>,
    /// Routed payloads as `(receiver, sender, message)` (invariant 5) —
    /// the cross-shard merge destination.
    pub(crate) staged: Vec<(NodeId, NodeId, M)>,
    /// Delivered non-quiet flag broadcasts as `(receiver, sender)`.
    pub(crate) flag_stage: Vec<(NodeId, NodeId)>,
    /// Assembled sparse inboxes, CSR data (invariant 6).
    inbox: Vec<Received<M>>,
    /// Inbox offsets, parallel to `recv_nodes` (length `recv + 1`).
    /// Crate-visible so the simulator can weight Region B's balanced
    /// shard cuts by per-receiver inbox size.
    pub(crate) inbox_off: Vec<usize>,
    /// Nodes processed in phase 3 this round, ascending (invariant 6).
    pub(crate) recv_nodes: Vec<u32>,
    /// Nodes inconsistent at the end of the round, ascending (invariant 7).
    pub(crate) inconsistent_idx: Vec<u32>,
    /// The active set (invariant 3), ascending.
    pub(crate) active: Vec<u32>,
    /// Per-shard staging scratch (grown on demand, never shrunk).
    pub(crate) shard_scratch: Vec<ShardScratch<M>>,
    /// Scratch for sorted-set merges.
    merge_tmp: Vec<u32>,
    /// Per-node write cursors for the local-event counting sort.
    cursor: Vec<usize>,
}

impl<M> RoundBuffers<M> {
    /// Buffers for a network on `n` nodes (empty graph, empty active set).
    pub(crate) fn new(n: usize) -> Self {
        Self::resume(vec![Vec::new(); n], Vec::new(), vec![Flags::default(); n])
    }

    /// Buffers resuming between rounds from the only state that outlives
    /// a round: the sorted adjacency (invariant 2), the active set
    /// (invariant 3) and the flag column (invariant 4). Everything else
    /// is per-round scratch and starts empty. Restore and fork both build
    /// through here, so a restored and a forked simulator start their
    /// next round from the same buffers.
    pub(crate) fn resume(nbrs: Vec<Vec<NodeId>>, active: Vec<u32>, out_flags: Vec<Flags>) -> Self {
        let n = nbrs.len();
        debug_assert_eq!(out_flags.len(), n, "one flag slot per node");
        RoundBuffers {
            nbrs,
            local: Vec::new(),
            local_nodes: Vec::new(),
            local_start: vec![0; n],
            local_len: vec![0; n],
            touched_changes: Vec::new(),
            out_flags,
            staged: Vec::new(),
            flag_stage: Vec::new(),
            inbox: Vec::new(),
            inbox_off: Vec::new(),
            recv_nodes: Vec::new(),
            inconsistent_idx: Vec::new(),
            active,
            shard_scratch: Vec::new(),
            merge_tmp: Vec::new(),
            cursor: vec![0; n],
        }
    }

    /// An independent copy for a forked simulator: the between-round
    /// state cloned, fresh scratch (see [`RoundBuffers::resume`]).
    pub(crate) fn fork(&self) -> Self {
        Self::resume(
            self.nbrs.clone(),
            self.active.clone(),
            self.out_flags.clone(),
        )
    }

    /// Make sure at least `k` shard scratches exist.
    pub(crate) fn ensure_shards(&mut self, k: usize) {
        while self.shard_scratch.len() < k {
            self.shard_scratch.push(ShardScratch::default());
        }
    }

    /// Split borrow for the sharded send region (first `k` scratches).
    pub(crate) fn shard_parts(&mut self, k: usize) -> ShardParts<'_, M> {
        ShardParts {
            nbrs: &self.nbrs,
            local: LocalView {
                local: &self.local,
                start: &self.local_start,
                len: &self.local_len,
            },
            active: &self.active,
            out_flags: &mut self.out_flags,
            scratch: &mut self.shard_scratch[..k],
        }
    }

    /// Split borrow for the sharded receive region (first `k` scratches).
    pub(crate) fn recv_parts(&mut self, k: usize) -> RecvParts<'_, M> {
        RecvParts {
            nbrs: &self.nbrs,
            recv_nodes: &self.recv_nodes,
            inbox: &self.inbox,
            inbox_off: &self.inbox_off,
            scratch: &mut self.shard_scratch[..k],
        }
    }

    /// Merge the `k` shards' sorted staging runs into the global `staged`
    /// and `flag_stage` buffers, draining the scratches. Each run is
    /// sorted by `(receiver, sender)` and the key sets are disjoint across
    /// shards (a `(receiver, sender)` link has exactly one sender, and
    /// each sender lives in exactly one shard), so the merged order is
    /// unique — independent of shard count and thread schedule. This is
    /// the cross-shard determinism argument.
    pub(crate) fn merge_shard_traffic(&mut self, k: usize) {
        self.flag_stage.clear();
        if k == 1 {
            // Single shard: the run *is* the global order; swap, no copy.
            std::mem::swap(&mut self.staged, &mut self.shard_scratch[0].staged);
            self.shard_scratch[0].staged.clear();
            std::mem::swap(&mut self.flag_stage, &mut self.shard_scratch[0].flag_stage);
            return;
        }
        let runs = &mut self.shard_scratch[..k];
        merge_sorted_runs(
            &mut self.staged,
            runs.iter_mut().map(|s| &mut s.staged).collect(),
            |&(to, from, _)| (to, from),
        );
        merge_sorted_runs(
            &mut self.flag_stage,
            runs.iter_mut().map(|s| &mut s.flag_stage).collect(),
            |&pair| pair,
        );
    }

    /// Apply one validated batch to the sorted adjacency (invariant 2) —
    /// O(Σ degree of touched endpoints), independent of `n` and `m`.
    pub(crate) fn apply_batch(&mut self, batch: &EventBatch) {
        for ev in batch.iter() {
            let e = ev.edge();
            for (at, peer) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let list = &mut self.nbrs[at.index()];
                match list.binary_search(&peer) {
                    Ok(pos) => {
                        debug_assert!(ev.is_delete(), "insert of present edge {e:?}");
                        list.remove(pos);
                    }
                    Err(pos) => {
                        debug_assert!(ev.is_insert(), "delete of absent edge {e:?}");
                        list.insert(pos, peer);
                    }
                }
            }
        }
    }

    /// Node `v`'s sorted neighbors in `G_i`.
    #[cfg(test)]
    pub(crate) fn neighbors_of(&self, v: usize) -> &[NodeId] {
        &self.nbrs[v]
    }

    /// Rebuild the sparse incident-event CSR (invariant 1) for this
    /// round's batch via a counting sort over the *touched* nodes only —
    /// O(prev batch + this batch), not O(n).
    pub(crate) fn build_local(&mut self, batch: &EventBatch) {
        for &v in &self.local_nodes {
            self.local_len[v as usize] = 0;
        }
        self.local_nodes.clear();
        self.local.clear();
        self.touched_changes.clear();
        if batch.is_empty() {
            return;
        }
        for ev in batch.iter() {
            let e = ev.edge();
            for v in [e.lo(), e.hi()] {
                let i = v.index();
                if self.local_len[i] == 0 {
                    self.local_nodes.push(v.0);
                }
                self.local_len[i] += 1;
            }
        }
        self.local_nodes.sort_unstable();
        let mut total = 0usize;
        for &v in &self.local_nodes {
            let i = v as usize;
            self.local_start[i] = total;
            self.cursor[i] = total;
            total += self.local_len[i] as usize;
            self.touched_changes.push((v, u64::from(self.local_len[i])));
        }
        let dummy = LocalEvent {
            edge: Edge::new(NodeId(0), NodeId(1)),
            peer: NodeId(0),
            inserted: false,
        };
        self.local.resize(total, dummy);
        for ev in batch.iter() {
            let e = ev.edge();
            let inserted = ev.is_insert();
            for (at, peer) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                self.local[self.cursor[at.index()]] = LocalEvent {
                    edge: e,
                    peer,
                    inserted,
                };
                self.cursor[at.index()] += 1;
            }
        }
    }

    /// Node `v`'s incident events this round.
    #[cfg(test)]
    pub(crate) fn local_of(&self, v: usize) -> &[LocalEvent] {
        let len = self.local_len[v] as usize;
        if len == 0 {
            return &[];
        }
        &self.local[self.local_start[v]..self.local_start[v] + len]
    }

    /// Force the active set to all of `0..n` (the dense engine's policy).
    pub(crate) fn activate_all(&mut self, n: usize) {
        self.active.clear();
        self.active.extend(0..n as u32);
    }

    /// Merge this round's batch-incident nodes (`local_nodes`) into the
    /// active set, keeping it sorted and duplicate-free.
    pub(crate) fn activate_local(&mut self) {
        if self.local_nodes.is_empty() {
            return;
        }
        self.merge_tmp.clear();
        let (mut ai, mut li) = (0usize, 0usize);
        loop {
            match (self.active.get(ai), self.local_nodes.get(li)) {
                (None, None) => break,
                (Some(&a), None) => {
                    self.merge_tmp.push(a);
                    ai += 1;
                }
                (None, Some(&l)) => {
                    self.merge_tmp.push(l);
                    li += 1;
                }
                (Some(&a), Some(&l)) => {
                    self.merge_tmp.push(a.min(l));
                    if a <= l {
                        ai += 1;
                    }
                    if l <= a {
                        li += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut self.active, &mut self.merge_tmp);
    }

    /// Assemble the sparse inboxes (invariant 6) and the phase-3 receiver
    /// list from the staged payloads, the staged flag deliveries and the
    /// active set. Returns nothing; read via `recv_nodes`/`inbox_of_pos`.
    ///
    /// Expects `staged` and `flag_stage` already globally sorted by
    /// `(receiver, sender)` — the per-shard sorts plus
    /// [`merge_shard_traffic`](Self::merge_shard_traffic) establish this —
    /// so the assembly itself is pure linear merging, never a function of
    /// `n` or the edge count.
    pub(crate) fn assemble_inboxes(&mut self, round: u64) {
        debug_assert!(
            self.staged
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "staged traffic not presorted"
        );
        debug_assert!(
            self.flag_stage.windows(2).all(|w| w[0] <= w[1]),
            "flag stage not presorted"
        );
        for w in self.staged.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "node {:?} received two payloads from {:?} in round {round}",
                w[0].0,
                w[0].1
            );
        }
        // Receivers: active ∪ payload receivers ∪ flag receivers, via a
        // sorted three-way merge (each source is already ascending;
        // `staged`/`flag_stage` receivers repeat and are deduplicated).
        self.merge_tmp.clear();
        {
            let staged_to = SortedToStream::new(self.staged.iter().map(|&(to, _, _)| to.0));
            let flags_to = SortedToStream::new(self.flag_stage.iter().map(|&(to, _)| to.0));
            merge_three_dedup(&mut self.merge_tmp, &self.active, staged_to, flags_to);
        }
        std::mem::swap(&mut self.recv_nodes, &mut self.merge_tmp);

        self.inbox.clear();
        self.inbox_off.clear();
        let mut staged = self.staged.drain(..).peekable();
        let mut fi = 0usize; // cursor into flag_stage
        for &v in &self.recv_nodes {
            self.inbox_off.push(self.inbox.len());
            let to = NodeId(v);
            // Both streams are contiguous per receiver and sorted by
            // sender within it: a linear two-way merge by sender id.
            loop {
                let s_from = match staged.peek() {
                    Some(&(t, f, _)) if t == to => Some(f),
                    _ => None,
                };
                let f_from = match self.flag_stage.get(fi) {
                    Some(&(t, f)) if t == to => Some(f),
                    _ => None,
                };
                let from = match (s_from, f_from) {
                    (None, None) => break,
                    (Some(s), None) => s,
                    (None, Some(f)) => f,
                    (Some(s), Some(f)) => s.min(f),
                };
                let payload = if s_from == Some(from) {
                    Some(staged.next().expect("peeked").2)
                } else {
                    None
                };
                if f_from == Some(from) {
                    fi += 1;
                }
                self.inbox.push(Received {
                    from,
                    payload,
                    flags: self.out_flags[from.index()],
                });
            }
        }
        self.inbox_off.push(self.inbox.len());
        debug_assert!(
            staged.peek().is_none(),
            "routed payload addressed outside the receiver set"
        );
        debug_assert_eq!(fi, self.flag_stage.len(), "flags routed to a non-receiver");
    }
}

/// K-way merge of ascending runs into `out` (cleared first), draining
/// every run. Ties are broken by the lowest run index, but the engine's
/// runs have globally unique keys (one sender per `(receiver, sender)`
/// link, one shard per sender), so the output order is a pure function of
/// the multiset of items — identical for any shard count or thread
/// schedule.
pub(crate) fn merge_sorted_runs<T, K: Ord, F: Fn(&T) -> K>(
    out: &mut Vec<T>,
    runs: Vec<&mut Vec<T>>,
    key: F,
) {
    out.clear();
    out.reserve(runs.iter().map(|r| r.len()).sum());
    let mut iters: Vec<_> = runs.into_iter().map(|r| r.drain(..).peekable()).collect();
    let mut heads: Vec<Option<K>> = iters.iter_mut().map(|it| it.peek().map(&key)).collect();
    loop {
        let mut best: Option<usize> = None;
        for (s, head) in heads.iter().enumerate() {
            if let Some(k) = head {
                let better = match best {
                    None => true,
                    Some(b) => k < heads[b].as_ref().expect("best head present"),
                };
                if better {
                    best = Some(s);
                }
            }
        }
        let Some(b) = best else { break };
        out.push(iters[b].next().expect("peeked head"));
        heads[b] = iters[b].peek().map(&key);
    }
}

/// A peekable ascending stream of receiver ids that skips duplicates.
struct SortedToStream<I: Iterator<Item = u32>> {
    iter: std::iter::Peekable<I>,
}

impl<I: Iterator<Item = u32>> SortedToStream<I> {
    fn new(iter: I) -> Self {
        SortedToStream {
            iter: iter.peekable(),
        }
    }

    fn peek(&mut self) -> Option<u32> {
        self.iter.peek().copied()
    }

    /// Advance past every occurrence of `v`.
    fn skip_value(&mut self, v: u32) {
        while self.iter.peek() == Some(&v) {
            self.iter.next();
        }
    }
}

/// Three-way merge of one sorted slice and two sorted streams into `out`,
/// ascending and duplicate-free.
fn merge_three_dedup<A, B>(
    out: &mut Vec<u32>,
    sorted: &[u32],
    mut a: SortedToStream<A>,
    mut b: SortedToStream<B>,
) where
    A: Iterator<Item = u32>,
    B: Iterator<Item = u32>,
{
    let mut si = 0usize;
    loop {
        let mut next: Option<u32> = sorted.get(si).copied();
        if let Some(v) = a.peek() {
            next = Some(next.map_or(v, |n| n.min(v)));
        }
        if let Some(v) = b.peek() {
            next = Some(next.map_or(v, |n| n.min(v)));
        }
        let Some(v) = next else { break };
        out.push(v);
        if sorted.get(si) == Some(&v) {
            si += 1;
        }
        a.skip_value(v);
        b.skip_value(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_local_merges_sorted_sets() {
        use crate::ids::edge;
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(10);
        buffers.active = vec![1, 3, 5];
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 3));
        b.push_insert(edge(5, 6));
        buffers.build_local(&b);
        buffers.activate_local();
        assert_eq!(buffers.active, vec![0, 1, 3, 5, 6]);
        // Quiet batch: the active set is untouched.
        buffers.build_local(&EventBatch::new());
        buffers.activate_local();
        assert_eq!(buffers.active, vec![0, 1, 3, 5, 6]);
    }

    #[test]
    fn three_way_merge_dedups_streams() {
        let mut out = Vec::new();
        let a = SortedToStream::new([2u32, 2, 4, 7].into_iter());
        let b = SortedToStream::new([0u32, 4, 4, 9].into_iter());
        merge_three_dedup(&mut out, &[1, 4, 8], a, b);
        assert_eq!(out, vec![0, 1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn incremental_adjacency_matches_topology() {
        use crate::ids::edge;
        use crate::topology::Topology;
        let n = 12usize;
        let mut topo = Topology::new(n);
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(n);
        let mut state = 0xdeadbeefu64;
        let mut present: Vec<crate::ids::Edge> = Vec::new();
        for round in 1..=120u64 {
            let mut batch = EventBatch::new();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state % n as u64) as u32;
                let w = ((state >> 16) % n as u64) as u32;
                if u == w {
                    continue;
                }
                let e = edge(u, w);
                if batch.touches(e) {
                    continue;
                }
                if let Some(pos) = present.iter().position(|&p| p == e) {
                    present.swap_remove(pos);
                    batch.push_delete(e);
                } else {
                    present.push(e);
                    batch.push_insert(e);
                }
            }
            topo.apply(&batch, round);
            buffers.apply_batch(&batch);
            for v in 0..n {
                let me = NodeId(v as u32);
                let mut expected: Vec<NodeId> = topo
                    .edges()
                    .filter(|e| e.touches(me))
                    .map(|e| e.other(me))
                    .collect();
                expected.sort_unstable();
                assert_eq!(
                    buffers.neighbors_of(v),
                    expected,
                    "adjacency of v{v} diverged at round {round}"
                );
            }
        }
    }

    /// The cross-shard merge must reproduce exact global `(receiver,
    /// sender)` order — i.e. preserve ascending sender order within every
    /// receiver — no matter how adversarially sender ids interleave
    /// across shard boundaries.
    #[test]
    fn cross_shard_merge_preserves_sender_order() {
        // Shard boundaries at ids 4 and 8; receivers deliberately get
        // senders from alternating shards so a naive concatenation would
        // interleave wrongly. Payload = (to, from) echo for tracking.
        let mk = |pairs: &[(u32, u32)]| -> Vec<(NodeId, NodeId, (u32, u32))> {
            pairs
                .iter()
                .map(|&(to, from)| (NodeId(to), NodeId(from), (to, from)))
                .collect()
        };
        // Each run sorted by (to, from), as a shard task leaves it.
        let mut run0 = mk(&[(0, 1), (2, 3), (5, 0), (5, 2), (9, 1)]);
        let mut run1 = mk(&[(0, 5), (2, 4), (5, 6), (9, 7)]);
        let mut run2 = mk(&[(0, 9), (2, 8), (5, 11), (9, 8), (9, 10)]);
        let mut expected: Vec<_> = run0
            .iter()
            .chain(&run1)
            .chain(&run2)
            .cloned()
            .collect::<Vec<_>>();
        expected.sort_unstable_by_key(|&(to, from, _)| (to, from));
        let mut out = Vec::new();
        merge_sorted_runs(
            &mut out,
            vec![&mut run0, &mut run1, &mut run2],
            |&(to, from, _)| (to, from),
        );
        assert_eq!(out, expected);
        assert!(run0.is_empty() && run1.is_empty() && run2.is_empty());
        // Per-receiver sender order is ascending — the delivery contract.
        for w in out.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "sender order broken at {w:?}");
            }
        }
    }

    /// Same property under a randomized adversary: random id interleavings
    /// split at random boundaries must merge back to the flat sort.
    #[test]
    fn cross_shard_merge_matches_flat_sort_under_random_interleavings() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..50 {
            let k = 1 + rand(6) as usize;
            let n = 64u64;
            // Unique (to, from) keys: sample without replacement.
            let mut keys: Vec<(u32, u32)> = Vec::new();
            for _ in 0..40 {
                let to = rand(n) as u32;
                let from = rand(n) as u32;
                if !keys.contains(&(to, from)) {
                    keys.push((to, from));
                }
            }
            // Shard by sender range: boundary ids ascending.
            let mut bounds: Vec<u32> = (1..k).map(|_| rand(n) as u32).collect();
            bounds.sort_unstable();
            bounds.push(n as u32);
            type Entry = (NodeId, NodeId, (u32, u32));
            let mut runs: Vec<Vec<Entry>> = vec![Vec::new(); k];
            for &(to, from) in &keys {
                let s = bounds.iter().position(|&b| from < b).expect("in range");
                runs[s].push((NodeId(to), NodeId(from), (to, from)));
            }
            for r in &mut runs {
                r.sort_unstable_by_key(|&(to, from, _)| (to, from));
            }
            let mut expected: Vec<_> = runs.iter().flatten().cloned().collect();
            expected.sort_unstable_by_key(|&(to, from, _)| (to, from));
            let mut out = Vec::new();
            merge_sorted_runs(&mut out, runs.iter_mut().collect(), |&(to, from, _)| {
                (to, from)
            });
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn sparse_local_events_cover_exactly_the_touched_nodes() {
        use crate::ids::edge;
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(8);
        let mut b = EventBatch::new();
        b.push_insert(edge(1, 5));
        b.push_insert(edge(5, 2));
        buffers.build_local(&b);
        assert_eq!(buffers.local_nodes, vec![1, 2, 5]);
        assert_eq!(buffers.touched_changes, vec![(1, 1), (2, 1), (5, 2)]);
        assert_eq!(buffers.local_of(5).len(), 2);
        assert_eq!(buffers.local_of(1).len(), 1);
        assert_eq!(buffers.local_of(0).len(), 0);
        // Next round resets the previous round's entries.
        buffers.build_local(&EventBatch::insert(edge(0, 3)));
        assert_eq!(buffers.local_nodes, vec![0, 3]);
        assert!(buffers.local_of(5).is_empty());
        assert!(buffers.local_of(1).is_empty());
    }
}
