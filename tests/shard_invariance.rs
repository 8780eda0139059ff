//! Shard-count invariance: `SimConfig::shards` may change anything about
//! *how* a round executes — how many id-range tasks it is split into,
//! whether they run inline or on the worker pool — but not a single
//! output bit.
//!
//! Two differential layers:
//!
//! - **Fixed(K) vs Fixed(1)** for K ∈ {2, 3, 8}, inline and pooled:
//!   every registry protocol × er/flicker/sliding/p2p/hotspot, stepped
//!   round by round through erased sessions — meters compared to
//!   `f64::to_bits` after *every* round, per-round stats (minus the
//!   engine-measuring `shards` field), and every supported query kind
//!   answered identically mid-run and after settling. A heavy-batch flicker variant stresses the
//!   cross-shard merge with large simultaneous event sets; the
//!   skewed-activity hotspot workload stresses the activity-weighted
//!   boundary computation.
//! - **proptests**: random (workload, n, rounds, seed, K, parallel)
//!   tuples through the robust 2-hop protocol, full-fingerprint compared.

use dynamic_subgraphs::net::{
    edge, engine, NodeId, Query, QueryKind, Session, Shards, SimConfig, Simulator, Trace,
};
use dynamic_subgraphs::robust::TwoHopNode;
use dynamic_subgraphs::workloads::{registry, Params};
use proptest::prelude::*;

const WORKLOADS: [&str; 5] = ["er", "flicker", "sliding", "p2p", "hotspot"];

fn build(workload: &str, n: usize, rounds: usize, seed: u64) -> Trace {
    registry::build_trace(
        workload,
        &Params::new()
            .with("n", n)
            .with("rounds", rounds)
            .with("seed", seed),
    )
    .expect("registered workload")
}

fn cfg(shards: Shards, parallel: bool) -> SimConfig {
    SimConfig {
        shards,
        parallel,
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

/// Every supported query kind of a session, asked at a deterministic
/// sample of nodes, rendered comparably. `Inconsistent` responses are part
/// of the fingerprint — mid-run the structures are often mid-update, and
/// every shard count must be mid-update *identically*.
fn query_fingerprint(session: &Session, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let wrap = |v: u32, off: u32| NodeId((v + off) % n as u32);
    for v in (0..n as u32).step_by(3) {
        let at = NodeId(v);
        for kind in session.supported_queries() {
            let queries: Vec<Query> = match kind {
                QueryKind::Edge => vec![Query::Edge(edge(v, (v + 1) % n as u32))],
                QueryKind::Triangle => vec![Query::Triangle(wrap(v, 1), wrap(v, 2))],
                QueryKind::Clique => vec![Query::Clique(vec![at, wrap(v, 1), wrap(v, 2)])],
                QueryKind::Cycle => {
                    vec![Query::Cycle(vec![at, wrap(v, 1), wrap(v, 2), wrap(v, 3)])]
                }
                QueryKind::Path3 => vec![Query::Path3 {
                    center: at,
                    a: wrap(v, 1),
                    b: wrap(v, 2),
                }],
                QueryKind::ListTriangles => vec![Query::ListTriangles],
                QueryKind::ListCliques => vec![Query::ListCliques(3)],
                QueryKind::ListCycles => vec![Query::ListCycles(4)],
            };
            for q in queries {
                out.push(format!("v{v} {kind}: {:?}", session.query(at, &q)));
            }
        }
    }
    out
}

/// Per-round stats with the engine-measuring `shards` column zeroed
/// (`Fixed(K)` is clamped to the active-set size, so the recorded count
/// legitimately differs between configurations).
fn scrubbed_stats(s: &Session) -> Vec<String> {
    s.stats()
        .iter()
        .map(|st| {
            let mut st = *st;
            st.shards = 0;
            format!("{st:?}")
        })
        .collect()
}

/// Step a trace through one session per shard configuration, comparing
/// everything observable after every round against the single-shard run.
fn assert_shard_counts_identical(protocol: &str, trace: &Trace, parallel: bool, label: &str) {
    let open = |shards: Shards| {
        dds_bench::protocols()
            .open(protocol, trace.n, cfg(shards, parallel))
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
            let ctx = format!("{label}/{protocol} shards={k} parallel={parallel} round {round}");
            assert_eq!(
                base.meter().changes(),
                s.meter().changes(),
                "{ctx}: changes"
            );
            assert_eq!(
                base.meter().inconsistent_rounds(),
                s.meter().inconsistent_rounds(),
                "{ctx}: inconsistent rounds"
            );
            assert_eq!(
                base.meter().amortized().to_bits(),
                s.meter().amortized().to_bits(),
                "{ctx}: amortized"
            );
            assert_eq!(
                base.per_node_meter().footnote_amortized().to_bits(),
                s.per_node_meter().footnote_amortized().to_bits(),
                "{ctx}: footnote amortized"
            );
            assert_eq!(
                base.bandwidth().total_messages(),
                s.bandwidth().total_messages(),
                "{ctx}: messages"
            );
            assert_eq!(
                base.bandwidth().total_bits(),
                s.bandwidth().total_bits(),
                "{ctx}: bits"
            );
            assert_eq!(
                base.bandwidth().violations(),
                s.bandwidth().violations(),
                "{ctx}: violations"
            );
            assert_eq!(
                base.inconsistent_nodes(),
                s.inconsistent_nodes(),
                "{ctx}: inconsistent nodes"
            );
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
        let ctx = format!("{label}/{protocol} shards={k} parallel={parallel}");
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

#[test]
fn shard_count_is_invisible_for_every_protocol_inline() {
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        let trace = build(workload, 14, 36, 1311 + 41 * wi as u64);
        for spec in dds_bench::protocols().specs() {
            assert_shard_counts_identical(spec.name, &trace, false, workload);
        }
    }
}

#[test]
fn shard_count_is_invisible_for_every_protocol_pooled() {
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        let trace = build(workload, 14, 36, 1311 + 41 * wi as u64);
        for spec in dds_bench::protocols().specs() {
            assert_shard_counts_identical(spec.name, &trace, true, workload);
        }
    }
}

#[test]
fn shard_count_is_invisible_under_heavy_batches() {
    // Flicker with many simultaneous events makes the staged traffic of a
    // round span several shards — the cross-shard sorted merge and the
    // charge-log replay are what this exercises.
    let trace = build("flicker", 22, 30, 5353);
    for spec in dds_bench::protocols().specs() {
        for parallel in [false, true] {
            assert_shard_counts_identical(spec.name, &trace, parallel, "flicker-heavy");
        }
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
        par in 0u32..2,
    ) {
        let parallel = par == 1;
        let trace = build(WORKLOADS[w], n, rounds, seed);
        let one: Simulator<TwoHopNode> = engine::drive(&trace, cfg(Shards::Fixed(1), false));
        let many: Simulator<TwoHopNode> = engine::drive(&trace, cfg(Shards::Fixed(k), parallel));
        let a = fingerprint(&one, n);
        let b = fingerprint(&many, n);
        prop_assert_eq!(&a.0, &b.0, "meters diverged (k={}, parallel={})", k, parallel);
        prop_assert_eq!(&a.1, &b.1, "per-round stats diverged (k={}, parallel={})", k, parallel);
        prop_assert_eq!(&a.2, &b.2, "query responses diverged (k={}, parallel={})", k, parallel);
    }
}
