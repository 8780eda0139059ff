//! Differential lockdown of the type-erased session/query layer.
//!
//! For **every** registered protocol, across er/flicker/p2p workloads and
//! seeds: drive a typed `Simulator<N>` and an erased [`Session`] (opened
//! purely by registry name) through the same trace, and assert that every
//! supported query kind answers **bit-identically** on both paths — at
//! sampled rounds mid-churn, per node, and again after settling. The
//! typed side calls the *native* query methods (`query_edge`,
//! `list_cliques`, …), not the `Queryable` adapter, so this suite pins
//! the erased path to the concrete implementations end to end. At each
//! sampled round the two paths must also share the whole `Fingerprint`.

use dynamic_subgraphs::baselines::{FloodNode, NaiveTwoHopNode, SnapshotNode};
use dynamic_subgraphs::net::{
    Answer, BandwidthConfig, BandwidthPolicy, Claim, Edge, NodeId, Query, Queryable, Response,
    SimConfig, Simulator,
};
use dynamic_subgraphs::robust::{ThreeHopNode, TriangleNode, TwoHopNode};
use dynamic_subgraphs::workloads::{registry, Params};

/// The workload × seed matrix every protocol is differenced over.
fn workload_matrix() -> Vec<(&'static str, Params)> {
    let mut out = Vec::new();
    for seed in [5u64, 23] {
        let base = Params::new()
            .with("n", 18)
            .with("rounds", 45)
            .with("seed", seed);
        out.push(("er", base.clone()));
        out.push(("flicker", base.clone()));
        out.push(("p2p", base.clone().with("triadic", true)));
    }
    out
}

/// Distinct node ids `v, v+1, …` (mod n) for building vertex-set probes.
fn offsets(v: NodeId, n: usize, count: usize) -> Vec<NodeId> {
    (0..count as u32)
        .map(|i| NodeId((v.0 + i) % n as u32))
        .collect()
}

fn probe_edge(v: NodeId, i: usize, n: usize) -> Edge {
    let w = NodeId((v.0 + 1 + (i as u32 % (n as u32 - 1))) % n as u32);
    assert_ne!(v, w);
    Edge::new(v, w)
}

/// Drive typed and erased side by side and compare `native` (the typed
/// query methods) against `Session::query` for every probe, at every
/// sampled round and node, plus once more after settling.
fn diff_protocol<N>(
    protocol: &str,
    typed_cfg: SimConfig,
    probes: &dyn Fn(NodeId, usize, usize) -> Vec<Query>,
    native: &dyn Fn(&N, &Query) -> Response<Answer>,
) where
    N: Queryable + 'static,
{
    for (workload, params) in workload_matrix() {
        let trace =
            registry::build_trace(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let n = trace.n;
        let mut typed: Simulator<N> = Simulator::with_config(n, typed_cfg);
        let mut session = dds_bench::protocols()
            .open(protocol, n, SimConfig::default())
            .expect("registered protocol");
        let compare_all =
            |typed: &Simulator<N>, session: &dynamic_subgraphs::net::Session, round: usize| {
                typed.fingerprint().assert_same(
                    &session.fingerprint(),
                    Claim::Same,
                    &format!("{protocol}/{workload} round {round}"),
                );
                for off in [0u32, 5, 11] {
                    let v = NodeId((round as u32 * 3 + off) % n as u32);
                    assert_eq!(
                        typed.node(v).is_consistent(),
                        session.node_consistent(v),
                        "{protocol}/{workload}: consistency diverged at v{} round {round}",
                        v.0
                    );
                    for q in probes(v, round, n) {
                        let want = native(typed.node(v), &q);
                        let got = session
                            .query(v, &q)
                            .unwrap_or_else(|e| panic!("{protocol}/{workload}: {q:?}: {e}"));
                        assert_eq!(
                            want, got,
                            "{protocol}/{workload}: {q:?} at v{} round {round} diverged",
                            v.0
                        );
                    }
                }
            };
        for (i, b) in trace.batches.iter().enumerate() {
            typed.step(b);
            session.step(b);
            if (i + 1) % 5 == 0 {
                compare_all(&typed, &session, i + 1);
            }
        }
        // Settle both and compare once more on a consistent structure.
        let typed_quiet = typed.settle(512);
        let session_quiet = session.settle(512);
        assert_eq!(
            typed_quiet, session_quiet,
            "{protocol}/{workload}: settling diverged"
        );
        compare_all(&typed, &session, trace.rounds() + 512);
    }
}

fn edge_probes(v: NodeId, i: usize, n: usize) -> Vec<Query> {
    vec![
        Query::Edge(probe_edge(v, i, n)),
        Query::Edge(probe_edge(v, i + 7, n)),
        Query::Edge(Edge::new(
            NodeId((i as u32 * 5 + 1) % n as u32),
            NodeId((i as u32 * 5 + 3) % n as u32),
        )),
    ]
}

#[test]
fn two_hop_erased_equals_typed() {
    diff_protocol::<TwoHopNode>(
        "two-hop",
        SimConfig::default(),
        &edge_probes,
        &|node, q| match q {
            Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
            other => panic!("unprobed kind {other:?}"),
        },
    );
}

#[test]
fn naive_erased_equals_typed() {
    diff_protocol::<NaiveTwoHopNode>(
        "naive",
        SimConfig::default(),
        &edge_probes,
        &|node, q| match q {
            Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
            other => panic!("unprobed kind {other:?}"),
        },
    );
}

#[test]
fn flood_erased_equals_typed() {
    // The registry preps flooding with the unbounded Observe policy; the
    // typed side must run under the identical config.
    let cfg = SimConfig {
        bandwidth: BandwidthConfig {
            factor: 8,
            policy: BandwidthPolicy::Observe,
        },
        ..SimConfig::default()
    };
    diff_protocol::<FloodNode>("flood", cfg, &edge_probes, &|node, q| match q {
        Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
        other => panic!("unprobed kind {other:?}"),
    });
}

#[test]
fn snapshot_erased_equals_typed() {
    diff_protocol::<SnapshotNode>(
        "snapshot",
        SimConfig::default(),
        &|v, i, n| {
            let mut qs = edge_probes(v, i, n);
            let vs = offsets(v, n, 3);
            qs.push(Query::Path3 {
                center: vs[0],
                a: vs[1],
                b: vs[2],
            });
            qs.push(Query::Path3 {
                center: vs[1],
                a: vs[0],
                b: vs[2],
            });
            qs
        },
        &|node, q| match q {
            Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
            Query::Path3 { center, a, b } => node.query_path3(*center, *a, *b).map(Answer::Bool),
            other => panic!("unprobed kind {other:?}"),
        },
    );
}

#[test]
fn triangle_erased_equals_typed() {
    diff_protocol::<TriangleNode>(
        "triangle",
        SimConfig::default(),
        &|v, i, n| {
            let mut qs = edge_probes(v, i, n);
            let vs = offsets(v, n, 4);
            qs.push(Query::Triangle(vs[1], vs[2]));
            qs.push(Query::Triangle(vs[1], vs[3]));
            qs.push(Query::Clique(vec![v, vs[1], vs[2]]));
            qs.push(Query::Clique(vec![v, vs[1], vs[2], vs[3]]));
            qs.push(Query::ListTriangles);
            qs.push(Query::ListCliques(3));
            qs.push(Query::ListCliques(4));
            qs
        },
        &|node, q| match q {
            Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
            Query::Triangle(u, w) => node.query_triangle(*u, *w).map(Answer::Bool),
            Query::Clique(vs) => node.query_clique(vs).map(Answer::Bool),
            Query::ListTriangles => node.list_triangles().map(Answer::Triangles),
            Query::ListCliques(k) => node.list_cliques(*k).map(Answer::VertexSets),
            other => panic!("unprobed kind {other:?}"),
        },
    );
}

#[test]
fn three_hop_erased_equals_typed() {
    diff_protocol::<ThreeHopNode>(
        "three-hop",
        SimConfig::default(),
        &|v, i, n| {
            let mut qs = edge_probes(v, i, n);
            let vs = offsets(v, n, 4);
            qs.push(Query::Cycle(vs.clone()));
            qs.push(Query::Cycle(vec![vs[0], vs[2], vs[1], vs[3]]));
            qs.push(Query::ListCycles(4));
            qs
        },
        &|node, q| match q {
            Query::Edge(e) => node.query_edge(*e).map(Answer::Bool),
            Query::Cycle(vs) => node.query_cycle(vs).map(Answer::Bool),
            Query::ListCycles(k) => node.list_cycles(*k).map(Answer::VertexSets),
            other => panic!("unprobed kind {other:?}"),
        },
    );
}

#[test]
fn session_summary_equals_registry_run_bitwise() {
    // The run-to-completion wrappers are sessions underneath; a manually
    // stepped session must produce the identical summary (meters compared
    // to the bit).
    for spec in dds_bench::protocols().specs() {
        let p = Params::new()
            .with("n", 14)
            .with("rounds", 30)
            .with("seed", 8);
        let trace = registry::build_trace("er", &p).unwrap();
        let via_run = spec.run_stream(&mut trace.replay(), SimConfig::default());
        let mut session = spec.open(trace.n, SimConfig::default());
        for b in &trace.batches {
            session.step(b);
        }
        via_run
            .outcome()
            .assert_same(&session.summary().outcome(), spec.name);
    }
}
