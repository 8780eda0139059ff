//! Helpers shared by the differential suites. What two runs must share
//! is the library's `Fingerprint` (`Session::fingerprint`), the one
//! definition of "identical" that the runners use too. The query answers
//! compared next to it are sampled here, because no runner compares
//! answers. Each suite uses a subset of the helpers.
#![allow(dead_code)]

use dynamic_subgraphs::net::{edge, Claim, NodeId, Query, QueryKind, Session, Trace};
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

/// Every supported query kind of a session, asked at every node,
/// rendered comparably. `Inconsistent` and capability errors are part of
/// the answers: mid-run the structures are often mid-update, and both
/// sides must be mid-update *identically*.
pub fn query_fingerprint(session: &Session, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let wrap = |v: u32, off: u32| NodeId((v + off) % n as u32);
    for v in 0..n as u32 {
        let at = NodeId(v);
        for kind in session.supported_queries() {
            let queries: Vec<Query> = match kind {
                QueryKind::Edge => vec![
                    Query::Edge(edge(v, (v + 1) % n as u32)),
                    Query::Edge(edge((v + 1) % n as u32, (v + 2) % n as u32)),
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

/// Step `trace` through `base` and every labelled session of `others` in
/// lockstep. After every round, and again after settling, each must share
/// `base`'s fingerprint within `claim`; every 7th round and after
/// settling, every supported query must answer alike at every node.
pub fn assert_lockstep(
    mut base: Session,
    mut others: Vec<(String, Session)>,
    trace: &Trace,
    claim: Claim,
) {
    let n = trace.n;
    for (i, batch) in trace.batches.iter().enumerate() {
        base.step(batch);
        let round = i + 1;
        let want = base.fingerprint();
        let answers = (round % 7 == 0).then(|| query_fingerprint(&base, n));
        for (label, s) in &mut others {
            s.step(batch);
            let ctx = format!("{label} at round {round}");
            want.assert_same(&s.fingerprint(), claim, &ctx);
            if let Some(answers) = &answers {
                assert_eq!(answers, &query_fingerprint(s, n), "{ctx}: query answers");
            }
        }
    }
    let quiet = base.settle(256);
    let (want, answers) = (base.fingerprint(), query_fingerprint(&base, n));
    for (label, s) in &mut others {
        assert_eq!(quiet, s.settle(256), "{label}: settle rounds");
        want.assert_same(&s.fingerprint(), claim, &format!("{label} settled"));
        assert_eq!(
            answers,
            query_fingerprint(s, n),
            "{label} settled: query answers"
        );
    }
}
