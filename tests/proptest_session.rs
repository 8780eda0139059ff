//! Property: a type-erased [`Session`] stepped batch-by-batch under the
//! **sparse** engine is round-for-round identical to the typed
//! `drive_source` path under the **dense** engine on the same trace — one
//! differential covering both the erasure layer and the engine
//! equivalence, mid-run via `Session::step`.
//!
//! For arbitrary registry workloads (n, rounds, seed chosen by proptest)
//! and each of the paper's protocols: after **every** round, the session's
//! fingerprint `outcome` equals the dense typed simulator's — amortized
//! measures by their bits, i.e. bit-identical, not approximately. The
//! engines differ, so that is the part they share. At the end the session
//! matches a typed `drive_source` run under its own sparse engine on the
//! whole fingerprint, and on the `engine::summarize` summary.

mod common;

use dynamic_subgraphs::net::engine::summarize;
use dynamic_subgraphs::net::{
    drive_source, Claim, Engine, Queryable, RunSummary, SimConfig, Simulator, Trace,
};
use dynamic_subgraphs::robust::{ThreeHopNode, TriangleNode, TwoHopNode};
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["er", "flicker", "sliding"];

/// Step typed (dense) and erased (sparse) in lockstep, comparing the
/// outcome each round, then the erased run against a typed sparse one.
fn session_equals_drive<N: Queryable + 'static>(protocol: &str, trace: &Trace) {
    let dense_cfg = SimConfig {
        engine: Engine::Dense,
        ..SimConfig::default()
    };
    let sparse_cfg = SimConfig {
        engine: Engine::Sparse,
        ..SimConfig::default()
    };
    let mut typed: Simulator<N> = Simulator::with_config(trace.n, dense_cfg);
    let mut session = dds_bench::protocols()
        .open(protocol, trace.n, sparse_cfg)
        .expect("registered protocol");
    for (i, b) in trace.batches.iter().enumerate() {
        typed.step(b);
        session.step(b);
        let ctx = format!(
            "{protocol}: dense typed vs sparse erased at round {}",
            i + 1
        );
        typed
            .fingerprint()
            .assert_same(&session.fingerprint(), Claim::Engine, &ctx);
    }
    // The erasure layer alone: a typed run under the session's own
    // configuration gives the whole value, and the same summary.
    let driven: Simulator<N> = drive_source(&mut trace.replay(), sparse_cfg);
    driven.fingerprint().assert_same(
        &session.fingerprint(),
        Claim::Same,
        &format!("{protocol}: typed vs erased"),
    );
    let want: RunSummary = summarize(protocol, &driven, 0.0, 0.0);
    want.outcome()
        .assert_same(&session.summary().outcome(), protocol);
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
        let trace = common::build(WORKLOADS[workload_idx], n as usize, rounds as usize, seed);
        session_equals_drive::<TwoHopNode>("two-hop", &trace);
    }

    #[test]
    fn triangle_session_equals_drive(
        workload_idx in 0usize..3,
        n in 4u32..24,
        rounds in 1u16..50,
        seed in 0u64..u64::MAX,
    ) {
        let trace = common::build(WORKLOADS[workload_idx], n as usize, rounds as usize, seed);
        session_equals_drive::<TriangleNode>("triangle", &trace);
    }

    #[test]
    fn three_hop_session_equals_drive(
        workload_idx in 0usize..3,
        n in 4u32..24,
        rounds in 1u16..50,
        seed in 0u64..u64::MAX,
    ) {
        let trace = common::build(WORKLOADS[workload_idx], n as usize, rounds as usize, seed);
        session_equals_drive::<ThreeHopNode>("three-hop", &trace);
    }
}
