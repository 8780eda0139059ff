//! Comparison helpers shared by the engine differentials
//! (`determinism.rs`: sparse vs dense; `shard_invariance.rs`: `Fixed(K)`
//! vs `Fixed(1)`), so both define "identical" the same way.

use dynamic_subgraphs::net::{edge, NodeId, Query, QueryKind, Session, Trace};
use dynamic_subgraphs::workloads::{registry, Params};

/// A registered workload's trace at the given size, length and seed.
pub fn build(workload: &str, n: usize, rounds: usize, seed: u64) -> Trace {
    registry::build_trace(
        workload,
        &Params::new()
            .with("n", n)
            .with("rounds", rounds)
            .with("seed", seed),
    )
    .expect("registered workload")
}

/// Every supported query kind of a session, asked at a deterministic
/// sample of nodes, rendered comparably. `Inconsistent` and capability
/// errors are part of the fingerprint — mid-run the structures are often
/// mid-update, and both sides must be mid-update *identically*.
pub fn query_fingerprint(session: &Session, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let wrap = |v: u32, off: u32| NodeId((v + off) % n as u32);
    for v in (0..n as u32).step_by(3) {
        let at = NodeId(v);
        for kind in session.supported_queries() {
            let queries: Vec<Query> = match kind {
                QueryKind::Edge => vec![
                    Query::Edge(edge(v, (v + 1) % n as u32)),
                    Query::Edge(edge((v + 2) % n as u32, (v + 5) % n as u32)),
                ],
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
                QueryKind::ListCliques => vec![Query::ListCliques(3), Query::ListCliques(4)],
                QueryKind::ListCycles => vec![Query::ListCycles(4), Query::ListCycles(5)],
            };
            for q in queries {
                out.push(format!("v{v} {kind}: {:?}", session.query(at, &q)));
            }
        }
    }
    out
}

/// Every meter and counter a round can move, by name, floats as
/// `f64::to_bits` — "close" is not identical.
pub fn meter_bits(s: &Session) -> Vec<(&'static str, u64)> {
    vec![
        ("round", s.round()),
        ("changes", s.meter().changes()),
        ("inconsistent rounds", s.meter().inconsistent_rounds()),
        ("amortized", s.meter().amortized().to_bits()),
        (
            "footnote amortized",
            s.per_node_meter().footnote_amortized().to_bits(),
        ),
        (
            "worst per-node amortized",
            s.per_node_meter().worst_amortized().to_bits(),
        ),
        ("messages", s.bandwidth().total_messages()),
        ("bits", s.bandwidth().total_bits()),
        ("violations", s.bandwidth().violations()),
        ("inconsistent nodes", s.inconsistent_nodes() as u64),
        ("edges", s.topology().edge_count() as u64),
    ]
}

/// Per-round stats with the fields that measure the engine itself zeroed:
/// `active_nodes` (the dense engine visits everyone) and `shards`
/// (`Shards::Auto` follows the active-set size, `Fixed(K)` is clamped to
/// it).
pub fn scrubbed_stats(s: &Session) -> Vec<String> {
    s.stats()
        .iter()
        .map(|st| {
            let mut st = *st;
            st.active_nodes = 0;
            st.shards = 0;
            format!("{st:?}")
        })
        .collect()
}
