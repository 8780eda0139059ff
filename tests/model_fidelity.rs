//! Model-fidelity integration tests: the paper's footnote metric, Remark 2
//! membership listing, hub stress under scale-free churn, and trace
//! round trips.

use dynamic_subgraphs::baselines::SnapshotNode;
use dynamic_subgraphs::net::{Edge, Node, NodeId, Response, Simulator, Trace};
use dynamic_subgraphs::oracle::DynamicGraph;
use dynamic_subgraphs::robust::{TriangleNode, TwoHopNode};
use dynamic_subgraphs::workloads::{
    record, ErChurn, ErChurnConfig, Preferential, PreferentialConfig,
};
use rustc_hash::FxHashSet;

/// The paper's footnote: the O(1) results also hold when the divisor is
/// the maximum number of changes at a single node, not the global count.
#[test]
fn footnote_metric_is_also_constant() {
    for n in [32usize, 64, 128] {
        let trace = record(
            ErChurn::new(ErChurnConfig {
                n,
                target_edges: 2 * n,
                changes_per_round: 3,
                rounds: 300,
                seed: 9000 + n as u64,
            }),
            usize::MAX,
        );
        let mut sim: Simulator<TriangleNode> = Simulator::new(n);
        for b in &trace.batches {
            sim.step(b);
        }
        let footnote = sim.per_node_meter().footnote_amortized();
        assert!(
            footnote <= 12.0,
            "footnote amortized {footnote} grew too large at n={n}"
        );
    }
}

/// Remark 2: the snapshot structure answers membership queries for any
/// diameter-2 pattern — here the "paw" (triangle + pendant), the star K1,3
/// and C4 with a chord (the "diamond"), checked against the oracle.
#[test]
fn remark2_two_diameter_membership_listing() {
    // Patterns as (k, edges); all have diameter ≤ 2.
    let paw = vec![(0usize, 1usize), (1, 2), (0, 2), (2, 3)];
    let star3 = vec![(0, 1), (0, 2), (0, 3)];
    let diamond = vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];

    let trace = record(
        ErChurn::new(ErChurnConfig {
            n: 18,
            target_edges: 40,
            changes_per_round: 2,
            rounds: 250,
            seed: 123,
        }),
        usize::MAX,
    );
    let mut sim: Simulator<SnapshotNode> = Simulator::new(trace.n);
    let mut g = DynamicGraph::new(trace.n);
    let mut audits = 0u64;
    for (i, b) in trace.batches.iter().enumerate() {
        sim.step(b);
        g.apply(b);
        if (i + 1) % 10 != 0 {
            continue;
        }
        for (pi, pattern) in [&paw, &star3, &diamond].into_iter().enumerate() {
            let k = pattern.iter().flat_map(|&(a, b)| [a, b]).max().unwrap() + 1;
            // Deterministic probe tuples.
            for probe in 0..6u32 {
                let mut vs: Vec<NodeId> = Vec::new();
                let mut x = (i as u32)
                    .wrapping_mul(31)
                    .wrapping_add(probe * 7)
                    .wrapping_add(pi as u32 * 3);
                while vs.len() < k {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    let v = NodeId(x % trace.n as u32);
                    if !vs.contains(&v) {
                        vs.push(v);
                    }
                }
                // The queried node must be a pattern vertex; require the
                // center (index 0) so diameter-2 reachability holds.
                let center = vs[0];
                let node = sim.node(center);
                let got = node.query_pattern(&vs, pattern);
                if got.is_inconsistent() {
                    continue;
                }
                let expected = pattern.iter().all(|&(a, b)| g.adjacent(vs[a], vs[b]));
                assert_eq!(
                    got,
                    Response::Answer(expected),
                    "pattern {pi} at {center:?} via {vs:?} round {}",
                    i + 1
                );
                audits += 1;
            }
        }
    }
    assert!(audits > 100, "too few pattern audits: {audits}");
}

/// Hub stress: scale-free churn concentrates traffic on hubs; the
/// amortized guarantee must survive and the structures stay exact.
#[test]
fn scale_free_hub_stress() {
    let trace = record(
        Preferential::new(PreferentialConfig {
            n: 64,
            attachments_per_round: 2,
            expiry_per_round: 1.4,
            rounds: 400,
            seed: 0x5CA1E,
        }),
        usize::MAX,
    );
    let mut sim: Simulator<TriangleNode> = Simulator::new(trace.n);
    let mut g = DynamicGraph::new(trace.n);
    let mut audits = 0u64;
    for (i, b) in trace.batches.iter().enumerate() {
        sim.step(b);
        g.apply(b);
        if (i + 1) % 20 != 0 {
            continue;
        }
        for v in (0..trace.n as u32).step_by(5) {
            let v = NodeId(v);
            let node = sim.node(v);
            if !node.is_consistent() {
                continue;
            }
            let have: FxHashSet<Edge> = node.known_edges().collect();
            assert_eq!(
                have,
                g.triangle_patterns(v),
                "hub-stress divergence at {v:?}"
            );
            audits += 1;
        }
    }
    assert!(audits > 50, "too few audits: {audits}");
    assert!(
        sim.meter().amortized() <= 3.0,
        "amortized {} under hub stress",
        sim.meter().amortized()
    );
}

/// Traces survive a JSON round trip and replay to identical executions.
#[test]
fn trace_roundtrip_replays_identically() {
    let trace = record(
        ErChurn::new(ErChurnConfig {
            n: 20,
            target_edges: 30,
            changes_per_round: 3,
            rounds: 100,
            seed: 777,
        }),
        usize::MAX,
    );
    let back = Trace::from_json(&trace.to_json()).expect("valid json");
    assert_eq!(trace, back);
    let run = |t: &Trace| {
        let mut sim: Simulator<TwoHopNode> = Simulator::new(t.n);
        for b in &t.batches {
            sim.step(b);
        }
        (
            sim.meter().inconsistent_rounds(),
            sim.bandwidth().total_bits(),
        )
    };
    assert_eq!(run(&trace), run(&back));
}
