//! Engine determinism: `SimConfig::engine` may not change anything but
//! wall-clock.
//!
//! The **sparse vs dense** differential
//! (`sparse_engine_matches_dense_for_every_protocol`): every registry
//! protocol × er/flicker/sliding/p2p, stepped round by round through
//! erased sessions under both engines — meters compared to `f64::to_bits`
//! after *every* round, per-round stats (minus the engine-measuring
//! `active_nodes`/`shards` fields), and every supported query kind
//! answered identically mid-run and at the end.
//!
//! Shard-count invariance has its own differential layer in
//! `tests/shard_invariance.rs`; both use the comparison helpers in
//! `tests/common/mod.rs`.

mod common;

use common::{build, meter_bits, query_fingerprint, scrubbed_stats};
use dynamic_subgraphs::net::{Engine, SimConfig, Trace};

/// Step a trace through one session per engine, comparing everything
/// observable after every round.
fn assert_engines_identical(protocol: &str, trace: &Trace, label: &str) {
    let open = |eng: Engine| {
        dds_bench::protocols()
            .open(
                protocol,
                trace.n,
                SimConfig {
                    engine: eng,
                    record_stats: true,
                    ..SimConfig::default()
                },
            )
            .expect("registered protocol")
    };
    let mut sparse = open(Engine::Sparse);
    let mut dense = open(Engine::Dense);
    for (i, b) in trace.batches.iter().enumerate() {
        sparse.step(b);
        dense.step(b);
        let round = i + 1;
        let ctx = format!("{label}/{protocol} at round {round}");
        assert_eq!(meter_bits(&sparse), meter_bits(&dense), "{ctx}: meters");
        // Inbox-visible behavior, mid-run: every supported query kind must
        // answer identically while the structures are still churning.
        if round % 7 == 0 {
            assert_eq!(
                query_fingerprint(&sparse, trace.n),
                query_fingerprint(&dense, trace.n),
                "{ctx}: mid-run query answers"
            );
        }
    }
    // Per-round stats, minus the fields that measure the engine itself
    // (`shards` under `Shards::Auto` follows the active-set size, which
    // legitimately differs between the engines on multi-core hosts).
    assert_eq!(
        scrubbed_stats(&sparse),
        scrubbed_stats(&dense),
        "{label}/{protocol}: per-round stats"
    );
    // Settle both and compare the final serving surface.
    let s_quiet = sparse.settle(256);
    let d_quiet = dense.settle(256);
    assert_eq!(s_quiet, d_quiet, "{label}/{protocol}: settle rounds");
    assert_eq!(
        query_fingerprint(&sparse, trace.n),
        query_fingerprint(&dense, trace.n),
        "{label}/{protocol}: settled query answers"
    );
    let (s, d) = (sparse.summary(), dense.summary());
    assert_eq!(s.amortized.to_bits(), d.amortized.to_bits());
    assert_eq!(
        s.footnote_amortized.to_bits(),
        d.footnote_amortized.to_bits()
    );
    assert_eq!(s.messages, d.messages);
    assert_eq!(s.bits, d.bits);
    assert_eq!(s.final_edges, d.final_edges);
    assert_eq!(s.peak_round_messages, d.peak_round_messages);
    assert_eq!(s.peak_round_bits, d.peak_round_bits);
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
