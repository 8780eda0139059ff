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
//!   sessions — meters compared to `f64::to_bits` after *every* round,
//!   per-round stats (minus the engine-measuring `active_nodes` and
//!   `shards` fields; the active-node count is compared on its own, since
//!   it holds across K), and every supported query kind answered
//!   identically mid-run and after settling. A heavy-batch flicker variant
//!   stresses the cross-shard merge with large simultaneous event sets;
//!   the skewed-activity hotspot workload stresses the activity-weighted
//!   boundary computation. The comparison helpers are shared with
//!   `tests/determinism.rs` (`tests/common/mod.rs`).
//! - **proptests**: random (workload, n, rounds, seed, K) tuples through
//!   the robust 2-hop protocol, full-fingerprint compared.

mod common;

use common::{build, meter_bits, query_fingerprint, scrubbed_stats};
use dynamic_subgraphs::net::{edge, engine, NodeId, Session, Shards, SimConfig, Simulator, Trace};
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
/// everything observable after every round against the single-shard run.
fn assert_shard_counts_identical(protocol: &str, trace: &Trace, label: &str) {
    let open = |shards: Shards| {
        dds_bench::protocols()
            .open(protocol, trace.n, cfg(shards))
            .expect("registered protocol")
    };
    let mut base = open(Shards::Fixed(1));
    let mut sharded: Vec<(usize, Session)> = Vec::new();
    for &k in &[2usize, 3, 8] {
        sharded.push((k, open(Shards::Fixed(k))));
    }
    for (i, b) in trace.batches.iter().enumerate() {
        base.step(b);
        let round = i + 1;
        for (k, s) in &mut sharded {
            s.step(b);
            let ctx = format!("{label}/{protocol} shards={k} round {round}");
            assert_eq!(meter_bits(&base), meter_bits(s), "{ctx}: meters");
            assert_eq!(base.active_nodes(), s.active_nodes(), "{ctx}: active nodes");
            if round % 7 == 0 {
                assert_eq!(
                    query_fingerprint(&base, trace.n),
                    query_fingerprint(s, trace.n),
                    "{ctx}: mid-run query answers"
                );
            }
        }
    }
    let base_stats = scrubbed_stats(&base);
    let base_quiet = base.settle(256);
    let base_queries = query_fingerprint(&base, trace.n);
    let base_summary = base.summary();
    for (k, s) in &mut sharded {
        let ctx = format!("{label}/{protocol} shards={k}");
        assert_eq!(base_stats, scrubbed_stats(s), "{ctx}: per-round stats");
        assert_eq!(base_quiet, s.settle(256), "{ctx}: settle rounds");
        assert_eq!(
            base_queries,
            query_fingerprint(s, trace.n),
            "{ctx}: settled query answers"
        );
        let sm = s.summary();
        assert_eq!(
            base_summary.amortized.to_bits(),
            sm.amortized.to_bits(),
            "{ctx}: summary amortized"
        );
        assert_eq!(
            base_summary.footnote_amortized.to_bits(),
            sm.footnote_amortized.to_bits(),
            "{ctx}: summary footnote"
        );
        assert_eq!(
            base_summary.messages, sm.messages,
            "{ctx}: summary messages"
        );
        assert_eq!(base_summary.bits, sm.bits, "{ctx}: summary bits");
        assert_eq!(
            base_summary.final_edges, sm.final_edges,
            "{ctx}: summary edges"
        );
        assert_eq!(
            base_summary.peak_round_messages, sm.peak_round_messages,
            "{ctx}: summary peak messages"
        );
        assert_eq!(
            base_summary.peak_round_bits, sm.peak_round_bits,
            "{ctx}: summary peak bits"
        );
        assert_eq!(
            base_summary.peak_round_active, sm.peak_round_active,
            "{ctx}: summary peak active"
        );
    }
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

/// Full-run fingerprint of a driven simulator, for the proptests.
fn fingerprint(sim: &Simulator<TwoHopNode>, n: usize) -> (Vec<u64>, Vec<String>, Vec<String>) {
    let meters = vec![
        sim.meter().rounds(),
        sim.meter().changes(),
        sim.meter().inconsistent_rounds(),
        sim.bandwidth().total_messages(),
        sim.bandwidth().total_bits(),
        sim.bandwidth().violations(),
        sim.inconsistent_nodes() as u64,
        sim.meter().amortized().to_bits(),
        sim.per_node_meter().footnote_amortized().to_bits(),
    ];
    let stats = sim
        .stats()
        .iter()
        .map(|s| {
            let mut s = *s;
            s.shards = 0;
            format!("{s:?}")
        })
        .collect();
    let queries = (0..n as u32)
        .map(|v| {
            (0..n as u32)
                .step_by(3)
                .filter(|&u| u != v)
                .map(|u| format!("{:?}", sim.node(NodeId(v)).query_edge(edge(v, u))))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    (meters, stats, queries)
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
        let a = fingerprint(&one, n);
        let b = fingerprint(&many, n);
        prop_assert_eq!(&a.0, &b.0, "meters diverged (k={})", k);
        prop_assert_eq!(&a.1, &b.1, "per-round stats diverged (k={})", k);
        prop_assert_eq!(&a.2, &b.2, "query responses diverged (k={})", k);
    }
}
