//! Shard-count invariance: `SimConfig::shards` may change anything about
//! *how* a round executes — how many id-range tasks it is split into,
//! which pool thread runs each — but not a single output bit.
//!
//! Two differential layers:
//!
//! - **Fixed(K) vs Fixed(1)** for K ∈ {2, 3, 8} (K > 1 runs on the
//!   worker pool, or inline when the call is nested inside a pool
//!   job; K = 1 always inline): every registry protocol ×
//!   er/flicker/sliding/p2p/hotspot, stepped round by round through erased
//!   sessions. After *every* round, and again after settling, the
//!   fingerprints' `outcome` and `activity` parts must match: every
//!   deterministic summary field (floats by their bits), the per-node
//!   counters, the per-round stats log and the active-node count of each
//!   round, which holds across K. Only the `shards` part may differ.
//!   Every supported query kind must answer identically mid-run and after
//!   settling. A heavy-batch flicker variant stresses the cross-shard
//!   merge with large simultaneous event sets; the skewed-activity
//!   hotspot workload stresses the activity-weighted boundary
//!   computation. The lockstep comparison is `tests/common/mod.rs`'s
//!   `assert_lockstep` under `Claim::ShardCount`, shared with
//!   `tests/determinism.rs`.
//! - **proptests**: random (workload, n, rounds, seed, K) tuples through
//!   the typed robust 2-hop simulator, compared on the same two parts and
//!   on edge-query answers at every node.

mod common;

use common::{assert_lockstep, build};
use dynamic_subgraphs::net::{edge, engine, Claim, NodeId, Shards, SimConfig, Simulator, Trace};
use dynamic_subgraphs::robust::TwoHopNode;
use proptest::prelude::*;

const WORKLOADS: [&str; 5] = ["er", "flicker", "sliding", "p2p", "hotspot"];

fn cfg(shards: Shards) -> SimConfig {
    SimConfig {
        shards,
        record_stats: true,
        ..SimConfig::default()
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// Step a trace through one session per shard configuration, comparing
/// everything but the shards part against the single-shard run after
/// every round and after settling.
fn assert_shard_counts_identical(protocol: &str, trace: &Trace, label: &str) {
    let open = |k| {
        dds_bench::protocols()
            .open(protocol, trace.n, cfg(Shards::Fixed(k)))
            .expect("registered protocol")
    };
    let sharded = [2, 3, 8]
        .map(|k| (format!("{label}/{protocol} shards={k}"), open(k)))
        .into();
    assert_lockstep(open(1), sharded, trace, Claim::ShardCount);
}

/// Every registry protocol × every workload, `Fixed(K)` against `Fixed(1)`.
fn every_protocol_matrix() {
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        let trace = build(workload, 14, 36, 1311 + 41 * wi as u64);
        for spec in dds_bench::protocols().specs() {
            assert_shard_counts_identical(spec.name, &trace, workload);
        }
    }
}

/// K > 1 rounds submitted to the pool from the test thread, so their
/// shards fan out over the pool's workers.
#[test]
fn shard_count_is_invisible_for_every_protocol_pooled() {
    every_protocol_matrix();
}

/// The same matrix run as a task of a pool job, the way the sweep
/// scheduler runs a cell: every `Pool::run` the engine makes then finds
/// the pool busy and executes its K shards one after another on the
/// calling thread (the pool's nested-call inline fallback).
#[test]
fn shard_count_is_invisible_for_every_protocol_inline() {
    dds_bench::map_ordered(2, vec![true, false], |_, run| {
        if run {
            every_protocol_matrix();
        }
    });
}

#[test]
fn shard_count_is_invisible_under_heavy_batches() {
    // Flicker with many simultaneous events makes the staged traffic of a
    // round span several shards — the cross-shard sorted merge and the
    // charge-log replay are what this exercises.
    let trace = build("flicker", 22, 30, 5353);
    for spec in dds_bench::protocols().specs() {
        assert_shard_counts_identical(spec.name, &trace, "flicker-heavy");
    }
}

/// Every node's edge-query answers about a sample of the others.
fn edge_answers(sim: &Simulator<TwoHopNode>, n: usize) -> Vec<String> {
    (0..n as u32)
        .map(|v| {
            (0..n as u32)
                .step_by(3)
                .filter(|&u| u != v)
                .map(|u| format!("{:?}", sim.node(NodeId(v)).query_edge(edge(v, u))))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn two_hop_any_shard_count_matches_single(
        w in 0usize..5,
        n in 6usize..24,
        rounds in 20usize..50,
        seed in 0u64..1_000,
        k in 2usize..10,
    ) {
        let trace = build(WORKLOADS[w], n, rounds, seed);
        let one: Simulator<TwoHopNode> =
            engine::drive_source(&mut trace.replay(), cfg(Shards::Fixed(1)));
        let many: Simulator<TwoHopNode> =
            engine::drive_source(&mut trace.replay(), cfg(Shards::Fixed(k)));
        let diff = one.fingerprint().first_difference(&many.fingerprint(), Claim::ShardCount);
        prop_assert!(diff.is_none(), "k={}: {}", k, diff.unwrap_or_default());
        prop_assert_eq!(
            edge_answers(&one, n),
            edge_answers(&many, n),
            "query responses diverged (k={})",
            k
        );
    }
}
