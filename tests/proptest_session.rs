//! Property: a type-erased [`Session`] stepped batch-by-batch under the
//! **sparse** engine is round-for-round identical to the typed
//! `drive_source` path under the **dense** engine on the same trace — one
//! differential covering both the erasure layer and the engine
//! equivalence, mid-run via `Session::step`.
//!
//! For arbitrary registry workloads (n, rounds, seed chosen by proptest)
//! and each of the paper's protocols: after **every** round, the session's
//! meters equal the typed simulator's — amortized measures compared via
//! `f64::to_bits`, i.e. bit-identical, not approximately — and the final
//! summaries agree with `drive_source` plus `engine::summarize` field for
//! field.

use dynamic_subgraphs::net::engine::summarize;
use dynamic_subgraphs::net::{
    drive_source, Engine, Queryable, RunSummary, SimConfig, Simulator, Trace,
};
use dynamic_subgraphs::robust::{ThreeHopNode, TriangleNode, TwoHopNode};
use dynamic_subgraphs::workloads::{registry, Params};
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["er", "flicker", "sliding"];

fn build(workload_idx: usize, n: u32, rounds: u16, seed: u64) -> Trace {
    let workload = WORKLOADS[workload_idx % WORKLOADS.len()];
    registry::build_trace(
        workload,
        &Params::new()
            .with("n", n)
            .with("rounds", rounds)
            .with("seed", seed),
    )
    .expect("registered workload")
}

/// Step typed (dense) and erased (sparse) in lockstep, comparing all
/// meters each round.
fn session_equals_drive<N: Queryable + 'static>(protocol: &str, trace: &Trace) {
    let cfg = SimConfig {
        engine: Engine::Dense,
        ..SimConfig::default()
    };
    let sparse_cfg = SimConfig {
        engine: Engine::Sparse,
        ..SimConfig::default()
    };
    let mut typed: Simulator<N> = Simulator::with_config(trace.n, cfg);
    let mut session = dds_bench::protocols()
        .open(protocol, trace.n, sparse_cfg)
        .expect("registered protocol");
    for (i, b) in trace.batches.iter().enumerate() {
        typed.step(b);
        session.step(b);
        let round = i + 1;
        assert_eq!(typed.round(), session.round(), "round counter at {round}");
        assert_eq!(
            typed.meter().changes(),
            session.meter().changes(),
            "changes at {round}"
        );
        assert_eq!(
            typed.meter().inconsistent_rounds(),
            session.meter().inconsistent_rounds(),
            "inconsistent rounds at {round}"
        );
        assert_eq!(
            typed.meter().amortized().to_bits(),
            session.meter().amortized().to_bits(),
            "amortized at {round}"
        );
        assert_eq!(
            typed.per_node_meter().footnote_amortized().to_bits(),
            session.per_node_meter().footnote_amortized().to_bits(),
            "footnote amortized at {round}"
        );
        assert_eq!(
            typed.bandwidth().total_messages(),
            session.bandwidth().total_messages(),
            "messages at {round}"
        );
        assert_eq!(
            typed.bandwidth().total_bits(),
            session.bandwidth().total_bits(),
            "bits at {round}"
        );
        assert_eq!(
            typed.inconsistent_nodes(),
            session.inconsistent_nodes(),
            "inconsistent nodes at {round}"
        );
        assert_eq!(
            typed.topology().edge_count(),
            session.topology().edge_count(),
            "edges at {round}"
        );
    }
    // And the condensed summaries agree with the typed one-shot driver.
    let driven: Simulator<N> = drive_source(&mut trace.replay(), cfg);
    let want: RunSummary = summarize(protocol, &driven, 0.0, 0.0);
    let got = session.summary();
    assert_eq!(want.rounds, got.rounds);
    assert_eq!(want.changes, got.changes);
    assert_eq!(want.inconsistent_rounds, got.inconsistent_rounds);
    assert_eq!(want.amortized.to_bits(), got.amortized.to_bits());
    assert_eq!(
        want.footnote_amortized.to_bits(),
        got.footnote_amortized.to_bits()
    );
    assert_eq!(want.messages, got.messages);
    assert_eq!(want.bits, got.bits);
    assert_eq!(want.violations, got.violations);
    assert_eq!(want.final_edges, got.final_edges);
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn two_hop_session_equals_drive(
        workload_idx in 0usize..3,
        n in 4u32..24,
        rounds in 1u16..50,
        seed in 0u64..u64::MAX,
    ) {
        let trace = build(workload_idx, n, rounds, seed);
        session_equals_drive::<TwoHopNode>("two-hop", &trace);
    }

    #[test]
    fn triangle_session_equals_drive(
        workload_idx in 0usize..3,
        n in 4u32..24,
        rounds in 1u16..50,
        seed in 0u64..u64::MAX,
    ) {
        let trace = build(workload_idx, n, rounds, seed);
        session_equals_drive::<TriangleNode>("triangle", &trace);
    }

    #[test]
    fn three_hop_session_equals_drive(
        workload_idx in 0usize..3,
        n in 4u32..24,
        rounds in 1u16..50,
        seed in 0u64..u64::MAX,
    ) {
        let trace = build(workload_idx, n, rounds, seed);
        session_equals_drive::<ThreeHopNode>("three-hop", &trace);
    }
}
