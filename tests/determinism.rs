//! Engine determinism: `SimConfig::engine` may not change anything but
//! wall-clock.
//!
//! The **sparse vs dense** differential
//! (`sparse_engine_matches_dense_for_every_protocol`): every registry
//! protocol × er/flicker/sliding/p2p, stepped round by round through
//! erased sessions under both engines. After *every* round, and again
//! after settling, the fingerprints' `outcome` parts must match: every
//! deterministic summary field (floats by their bits), the per-node
//! counters and the per-round stats log. The dense engine visits every
//! node, so the `activity` and `shards` parts are not compared. Every
//! supported query kind must answer identically mid-run and at the end.
//!
//! Shard-count invariance has its own differential layer in
//! `tests/shard_invariance.rs`; both run `tests/common/mod.rs`'s
//! `assert_lockstep`, this one under `Claim::Engine`.

mod common;

use common::{assert_lockstep, build};
use dynamic_subgraphs::net::{Claim, Engine, SimConfig, Trace};

/// Step a trace through one session per engine, comparing everything
/// both engines compute after every round and after settling.
fn assert_engines_identical(protocol: &str, trace: &Trace, label: &str) {
    let open = |engine| {
        let cfg = SimConfig {
            engine,
            record_stats: true,
            ..SimConfig::default()
        };
        dds_bench::protocols()
            .open(protocol, trace.n, cfg)
            .expect("registered protocol")
    };
    let dense = vec![(format!("{label}/{protocol} dense"), open(Engine::Dense))];
    assert_lockstep(open(Engine::Sparse), dense, trace, Claim::Engine);
}

#[test]
fn sparse_engine_matches_dense_for_every_protocol() {
    for (wi, workload) in ["er", "flicker", "sliding", "p2p"].iter().enumerate() {
        let trace = build(workload, 14, 36, 911 + 37 * wi as u64);
        for spec in dds_bench::protocols().specs() {
            assert_engines_identical(spec.name, &trace, workload);
        }
    }
}

#[test]
fn sparse_engine_matches_dense_under_heavy_batches() {
    // Flicker with many simultaneous events stresses the active-set
    // merge paths; p2p with triadic closure stresses degree churn.
    let trace = build("flicker", 22, 30, 4242);
    for spec in dds_bench::protocols().specs() {
        assert_engines_identical(spec.name, &trace, "flicker-heavy");
    }
}
