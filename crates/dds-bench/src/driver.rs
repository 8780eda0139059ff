//! The default protocol registry: every protocol implementation in the
//! workspace, registered once.
//!
//! `dds-bench` is the one crate that depends on every protocol crate
//! (`dds-robust` and `dds-baselines`), so the concrete
//! [`ProtocolRegistry`] lives here; the registry machinery itself is
//! `dds-net::engine`. The `dds` CLI, the experiment runners and the seed
//! sweeps all dispatch through [`protocols`] — protocol name lists are
//! derived from it, never hand-maintained.

use dds_net::{BandwidthConfig, BandwidthPolicy, ProtocolRegistry};
use std::sync::OnceLock;

/// The shared registry of every runnable protocol.
pub fn protocols() -> &'static ProtocolRegistry {
    static REGISTRY: OnceLock<ProtocolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = ProtocolRegistry::new();
        reg.register::<dds_robust::TwoHopNode>(
            "two-hop",
            "robust 2-hop neighborhood, O(1) amortized (Theorem 7)",
        );
        reg.register::<dds_robust::TriangleNode>(
            "triangle",
            "triangle / k-clique membership listing (Theorem 1, Corollary 1)",
        );
        reg.register::<dds_robust::ThreeHopNode>(
            "three-hop",
            "robust 3-hop neighborhood + 4-/5-cycle listing (Theorems 3, 5, 6)",
        );
        reg.register::<dds_baselines::SnapshotNode>(
            "snapshot",
            "Lemma 1 snapshot baseline: full 2-hop listing at Θ(n/log n)",
        );
        reg.register::<dds_baselines::NaiveTwoHopNode>(
            "naive",
            "no-timestamp strawman (unsound under the §1.3 flicker)",
        );
        // Flooding deliberately ignores the budget: observe, don't enforce.
        reg.register_with::<dds_baselines::FloodNode>(
            "flood",
            "unbounded-bandwidth flooding calibrator",
            |mut cfg| {
                cfg.bandwidth = BandwidthConfig {
                    factor: 8,
                    policy: BandwidthPolicy::Observe,
                };
                cfg
            },
        );
        reg
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::SimConfig;
    use dds_workloads::{registry, Params};

    #[test]
    fn every_protocol_runs_over_an_er_trace() {
        let trace = registry::build_trace(
            "er",
            &Params::new()
                .with("n", 16)
                .with("rounds", 60)
                .with("seed", 3),
        )
        .unwrap();
        for spec in protocols().specs() {
            let s = spec.run_stream(&mut trace.replay(), SimConfig::default());
            assert_eq!(s.rounds, 60, "{}", spec.name);
            assert_eq!(s.n, 16, "{}", spec.name);
            if spec.name != "flood" {
                assert_eq!(s.violations, 0, "{} broke the budget", spec.name);
            }
        }
    }

    #[test]
    fn capability_matrix_is_discoverable_per_protocol() {
        use dds_net::QueryKind;
        let expect: &[(&str, &[QueryKind])] = &[
            ("two-hop", &[QueryKind::Edge]),
            (
                "triangle",
                &[
                    QueryKind::Edge,
                    QueryKind::Triangle,
                    QueryKind::Clique,
                    QueryKind::ListTriangles,
                    QueryKind::ListCliques,
                ],
            ),
            (
                "three-hop",
                &[QueryKind::Edge, QueryKind::Cycle, QueryKind::ListCycles],
            ),
            ("snapshot", &[QueryKind::Edge, QueryKind::Path3]),
            ("naive", &[QueryKind::Edge]),
            ("flood", &[QueryKind::Edge]),
        ];
        assert_eq!(expect.len(), protocols().specs().len());
        for (name, kinds) in expect {
            let spec = protocols().resolve(name).unwrap();
            assert_eq!(&spec.supported_queries(), kinds, "{name}");
        }
        // Every registered protocol answers edge queries — the common
        // denominator the CLI's mid-run sampling relies on.
        for spec in protocols().specs() {
            assert!(
                spec.supported_queries().contains(&QueryKind::Edge),
                "{} lost edge queries",
                spec.name
            );
        }
    }

    #[test]
    fn every_protocol_is_queryable_by_name_through_a_session() {
        use dds_net::{edge, NodeId, Query};
        let trace = registry::build_trace(
            "er",
            &Params::new()
                .with("n", 12)
                .with("rounds", 30)
                .with("seed", 9),
        )
        .unwrap();
        for spec in protocols().specs() {
            let mut session = protocols()
                .open(spec.name, trace.n, SimConfig::default())
                .unwrap();
            session.drain(&mut trace.replay());
            session.settle(256).expect("settles");
            let resp = session
                .query(NodeId(0), &Query::Edge(edge(0, 1)))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                resp.answer().is_some(),
                "{}: settled session must answer",
                spec.name
            );
        }
    }

    #[test]
    fn names_are_stable_and_unique() {
        let names = protocols().names();
        assert!(names.contains(&"two-hop") && names.contains(&"flood"));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
