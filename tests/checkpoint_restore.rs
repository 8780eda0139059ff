//! Checkpoint/restore differential lockdown: resuming a session from a
//! snapshot must be **bit-identical** to never having stopped.
//!
//! For a grid of (protocol × workload × engine × shards) cells, this
//! suite runs the same trace twice — once straight through, once
//! checkpointed mid-run, serialized to JSON, parsed back, restored
//! through the registry, and continued — and compares everything
//! observable: round and topology counters, the full run summary (wall
//! clock and other volatile fields excluded), both amortized meters to
//! `f64::to_bits`, the per-round stats log, and every query kind the
//! protocol supports at every node.
//!
//! Golden snapshot fixtures under `tests/golden/snapshots/` additionally
//! freeze the serialized bytes per protocol, so format drift (field
//! renames, ordering changes, checksum changes) is caught at the byte
//! level. Regenerate after an *intentional* format change (with a
//! CHANGES.md note and a `SNAPSHOT_VERSION` bump if old files no longer
//! load):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test checkpoint_restore
//! ```

use dynamic_subgraphs::net::{
    Engine, NodeId, Query, QueryKind, RestoreError, Session, Shards, SimConfig, Snapshot, Trace,
};
use dynamic_subgraphs::workloads::{registry, Params};
use proptest::prelude::*;
use std::path::PathBuf;

/// The workload grid: distinct churn shapes (steady ER churn, adversarial
/// flicker, expiring windows, sessioned peers, degree hotspots).
const WORKLOADS: [&str; 5] = ["er", "flicker", "sliding", "p2p", "hotspot"];

fn params(workload: &str, n: u64, rounds: u64, seed: u64) -> Params {
    let p = Params::new()
        .with("n", n)
        .with("rounds", rounds)
        .with("seed", seed);
    match workload {
        // A short window keeps the expiry machinery busy within the run.
        "sliding" => p.with("window", 5),
        _ => p,
    }
}

/// One query per supported kind, parameterized on the queried node so the
/// sweep below touches different vertices: the structural state behind
/// every kind is compared, not just edge membership.
fn query_for(kind: QueryKind, v: NodeId, n: usize) -> Query {
    let at = |d: u32| NodeId((v.0 + d) % n as u32);
    match kind {
        QueryKind::Edge => Query::Edge(dynamic_subgraphs::net::edge(at(1).0, at(2).0)),
        QueryKind::Triangle => Query::Triangle(at(1), at(2)),
        QueryKind::Clique => Query::Clique(vec![v, at(1), at(2)]),
        QueryKind::Cycle => Query::Cycle(vec![v, at(1), at(2), at(3)]),
        QueryKind::Path3 => Query::Path3 {
            center: v,
            a: at(1),
            b: at(2),
        },
        QueryKind::ListTriangles => Query::ListTriangles,
        QueryKind::ListCliques => Query::ListCliques(3),
        QueryKind::ListCycles => Query::ListCycles(4),
    }
}

/// Assert two sessions are observably identical: meters, summary, stats
/// log, and every supported query at every node.
fn assert_sessions_match(a: &Session, b: &Session, ctx: &str) {
    assert_eq!(a.round(), b.round(), "{ctx}: round");
    assert_eq!(a.n(), b.n(), "{ctx}: n");
    assert_eq!(
        a.inconsistent_nodes(),
        b.inconsistent_nodes(),
        "{ctx}: inconsistent nodes"
    );
    assert_eq!(
        a.topology().edge_count(),
        b.topology().edge_count(),
        "{ctx}: edge count"
    );
    // Meters, compared at full bit precision — "close" is not resumed.
    assert_eq!(
        a.meter().amortized().to_bits(),
        b.meter().amortized().to_bits(),
        "{ctx}: amortized meter"
    );
    assert_eq!(
        a.per_node_meter().footnote_amortized().to_bits(),
        b.per_node_meter().footnote_amortized().to_bits(),
        "{ctx}: footnote meter"
    );
    assert_eq!(
        a.per_node_meter().changes(),
        b.per_node_meter().changes(),
        "{ctx}: per-node change counts"
    );
    assert_eq!(
        a.per_node_meter().inconsistent(),
        b.per_node_meter().inconsistent(),
        "{ctx}: per-node inconsistency counts"
    );
    // Full summary minus the volatile fields (wall clock, RSS, process-
    // global pool counters) — those measure the machine, not the run.
    let (sa, sb) = (a.summary(), b.summary());
    assert_eq!(sa.protocol, sb.protocol, "{ctx}: summary.protocol");
    assert_eq!(sa.rounds, sb.rounds, "{ctx}: summary.rounds");
    assert_eq!(sa.changes, sb.changes, "{ctx}: summary.changes");
    assert_eq!(
        sa.inconsistent_rounds, sb.inconsistent_rounds,
        "{ctx}: summary.inconsistent_rounds"
    );
    assert_eq!(
        sa.amortized.to_bits(),
        sb.amortized.to_bits(),
        "{ctx}: summary.amortized"
    );
    assert_eq!(
        sa.footnote_amortized.to_bits(),
        sb.footnote_amortized.to_bits(),
        "{ctx}: summary.footnote_amortized"
    );
    assert_eq!(sa.messages, sb.messages, "{ctx}: summary.messages");
    assert_eq!(sa.bits, sb.bits, "{ctx}: summary.bits");
    assert_eq!(sa.budget_bits, sb.budget_bits, "{ctx}: summary.budget_bits");
    assert_eq!(sa.violations, sb.violations, "{ctx}: summary.violations");
    assert_eq!(sa.final_edges, sb.final_edges, "{ctx}: summary.final_edges");
    assert_eq!(
        sa.peak_round_messages, sb.peak_round_messages,
        "{ctx}: summary.peak_round_messages"
    );
    assert_eq!(
        sa.peak_round_bits, sb.peak_round_bits,
        "{ctx}: summary.peak_round_bits"
    );
    assert_eq!(
        sa.peak_round_active, sb.peak_round_active,
        "{ctx}: summary.peak_round_active"
    );
    assert_eq!(sa.shards, sb.shards, "{ctx}: summary.shards");
    assert_eq!(
        sa.per_shard_peak_active, sb.per_shard_peak_active,
        "{ctx}: summary.per_shard_peak_active"
    );
    // Per-round stats log: the pre-checkpoint prefix comes out of the
    // snapshot, the suffix out of live execution — both must match the
    // uninterrupted log field for field.
    let (ta, tb) = (a.stats(), b.stats());
    assert_eq!(ta.len(), tb.len(), "{ctx}: stats length");
    for (ra, rb) in ta.iter().zip(tb) {
        let r = ra.round;
        assert_eq!(ra.round, rb.round, "{ctx}: stats[{r}].round");
        assert_eq!(ra.changes, rb.changes, "{ctx}: stats[{r}].changes");
        assert_eq!(ra.edges, rb.edges, "{ctx}: stats[{r}].edges");
        assert_eq!(
            ra.inconsistent_nodes, rb.inconsistent_nodes,
            "{ctx}: stats[{r}].inconsistent_nodes"
        );
        assert_eq!(ra.messages, rb.messages, "{ctx}: stats[{r}].messages");
        assert_eq!(ra.bits, rb.bits, "{ctx}: stats[{r}].bits");
        assert_eq!(
            ra.active_nodes, rb.active_nodes,
            "{ctx}: stats[{r}].active_nodes"
        );
        assert_eq!(ra.shards, rb.shards, "{ctx}: stats[{r}].shards");
    }
    // Every supported query kind, at every node.
    for kind in a.supported_queries() {
        for v in 0..a.n() as u32 {
            let v = NodeId(v);
            let q = query_for(*kind, v, a.n());
            let ra = a.query(v, &q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let rb = b.query(v, &q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(ra, rb, "{ctx}: {kind:?} at v{} diverged", v.0);
        }
    }
}

/// The core differential: run `trace` straight through vs checkpoint at
/// `ckpt_round` → serialize → parse → restore → continue, then compare.
/// Returns the restored session for further probing.
fn differential(protocol: &str, trace: &Trace, cfg: SimConfig, ckpt_round: usize) -> Session {
    let reg = dds_bench::protocols();
    let ctx = format!(
        "{protocol} ckpt@{ckpt_round}/{} ({:?}/{:?})",
        trace.rounds(),
        cfg.engine,
        cfg.shards
    );
    let mut continuous = reg
        .open(protocol, trace.n, cfg)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut stopped = reg.open(protocol, trace.n, cfg).unwrap();
    for batch in &trace.batches[..ckpt_round] {
        continuous.step(batch);
        stopped.step(batch);
    }
    // Through the full serialized form, not just the in-memory snapshot:
    // what the differential certifies is the *file* round trip.
    let json = stopped.checkpoint().to_json();
    drop(stopped);
    let snap = Snapshot::from_json(&json).unwrap_or_else(|e| panic!("{ctx}: reparse: {e}"));
    assert_eq!(snap.header.protocol, protocol, "{ctx}: header protocol");
    assert_eq!(snap.header.round, ckpt_round as u64, "{ctx}: header round");
    let mut resumed = reg
        .restore(&snap)
        .unwrap_or_else(|e| panic!("{ctx}: restore: {e}"));
    assert_sessions_match(&continuous, &resumed, &format!("{ctx} [at checkpoint]"));
    for batch in &trace.batches[ckpt_round..] {
        continuous.step(batch);
        resumed.step(batch);
    }
    assert_sessions_match(&continuous, &resumed, &format!("{ctx} [after continue]"));
    resumed
}

#[test]
fn resume_is_bit_identical_across_the_protocol_workload_matrix() {
    // Every protocol × every workload × both engines; shards cycle
    // through their values across cells, so each value runs against many
    // cells without the full 180-cell product.
    let shards = [Shards::Auto, Shards::Fixed(1), Shards::Fixed(3)];
    let mut cell = 0usize;
    for protocol in dds_bench::protocols().names() {
        for workload in WORKLOADS {
            let trace = registry::build_trace(workload, &params(workload, 16, 40, 11))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            for engine in [Engine::Sparse, Engine::Dense] {
                let cfg = SimConfig {
                    record_stats: true,
                    engine,
                    shards: shards[cell % shards.len()],
                    ..SimConfig::default()
                };
                cell += 1;
                differential(protocol, &trace, cfg, 24);
            }
        }
    }
}

/// The fork differential (the daemon publishes each write as a fork of
/// its writer): a fork taken at `fork_round` checkpoints to the
/// original's bytes, is independent of it — stepping only the original
/// leaves the fork's document unchanged, which readers holding a view
/// rely on — and still matches the original after both run the rest of
/// the trace.
fn fork_differential(protocol: &str, trace: &Trace, cfg: SimConfig, fork_round: usize) {
    let ctx = format!(
        "{protocol} fork@{fork_round}/{} ({:?}/{:?})",
        trace.rounds(),
        cfg.engine,
        cfg.shards
    );
    let mut original = dds_bench::protocols()
        .open(protocol, trace.n, cfg)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    for batch in &trace.batches[..fork_round] {
        original.step(batch);
    }
    let mut fork = original.fork();
    let at_fork = fork.checkpoint().to_json();
    assert_eq!(
        at_fork,
        original.checkpoint().to_json(),
        "{ctx}: the fork checkpoints different bytes"
    );
    assert_sessions_match(&original, &fork, &format!("{ctx} [at fork]"));
    // Timing is no part of the deterministic comparison; the fork carries
    // the original's busy time over so a published view reports the run.
    assert_eq!(
        fork.summary().seconds,
        original.summary().seconds,
        "{ctx}: the fork's busy seconds"
    );
    for batch in &trace.batches[fork_round..] {
        original.step(batch);
    }
    assert_eq!(
        fork.checkpoint().to_json(),
        at_fork,
        "{ctx}: stepping the original moved the fork"
    );
    for batch in &trace.batches[fork_round..] {
        fork.step(batch);
    }
    assert_sessions_match(&original, &fork, &format!("{ctx} [after continue]"));
}

#[test]
fn a_fork_matches_its_original_and_stays_independent_across_the_matrix() {
    // The resume matrix's cells: every protocol × every workload × both
    // engines, shards cycling across cells.
    let shards = [Shards::Auto, Shards::Fixed(1), Shards::Fixed(3)];
    let mut cell = 0usize;
    for protocol in dds_bench::protocols().names() {
        for workload in WORKLOADS {
            let trace = registry::build_trace(workload, &params(workload, 16, 40, 11))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            for engine in [Engine::Sparse, Engine::Dense] {
                let cfg = SimConfig {
                    record_stats: true,
                    engine,
                    shards: shards[cell % shards.len()],
                    ..SimConfig::default()
                };
                cell += 1;
                fork_differential(protocol, &trace, cfg, 24);
            }
        }
    }
}

#[test]
fn checkpoint_round_position_does_not_matter() {
    // Early, middle, late, and final-round checkpoints — including round
    // boundaries where the structure is mid-update (queues non-empty).
    let trace = registry::build_trace("flicker", &params("flicker", 14, 30, 3)).unwrap();
    for ckpt in [1, 7, 15, 29, 30] {
        for protocol in ["triangle", "three-hop", "snapshot", "flood"] {
            differential(protocol, &trace, SimConfig::default(), ckpt);
        }
    }
}

#[test]
fn a_resumed_session_checkpoints_the_same_bytes() {
    // Checkpoint-of-a-resume: snapshotting at round R2 must produce the
    // same bytes whether the session ran straight from 0 or was itself
    // restored at R1 — the property that makes checkpoint chains (and
    // resume-based bisection) trustworthy.
    let trace = registry::build_trace("er", &params("er", 16, 36, 9)).unwrap();
    let reg = dds_bench::protocols();
    for protocol in reg.names() {
        let mut straight = reg.open(protocol, trace.n, SimConfig::default()).unwrap();
        for batch in &trace.batches[..12] {
            straight.step(batch);
        }
        let first = straight.checkpoint().to_json();
        let mut resumed = reg.restore(&Snapshot::from_json(&first).unwrap()).unwrap();
        for batch in &trace.batches[12..24] {
            straight.step(batch);
            resumed.step(batch);
        }
        assert_eq!(
            straight.checkpoint().to_json(),
            resumed.checkpoint().to_json(),
            "{protocol}: second-generation snapshot bytes diverged"
        );
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // Random cells: workload, size, length, seed, and checkpoint position
    // all drawn at random; the differential must hold everywhere, not
    // just on the hand-picked grid.
    #[test]
    fn random_cells_resume_bit_identically(
        wi in 0usize..WORKLOADS.len(),
        pi in 0usize..6,
        n in 6u64..20,
        rounds in 8u64..36,
        seed in 0u64..1_000,
        at in 1u64..100,
    ) {
        let workload = WORKLOADS[wi];
        let protocols = dds_bench::protocols().names();
        let protocol = protocols[pi % protocols.len()];
        let trace = registry::build_trace(workload, &params(workload, n, rounds, seed))
            .expect("registry workloads build");
        // Map the free-ranging draw onto a valid 1..=rounds position.
        let ckpt = (at % rounds).max(1) as usize;
        differential(protocol, &trace, SimConfig::default(), ckpt);
    }
}

// ---------------------------------------------------------------------
// Golden snapshot fixtures: the serialized bytes themselves are frozen.
// ---------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshots")
}

/// The fixture point: the er golden-trace parameters (n=16, rounds=12,
/// seed=7 — the exact trace frozen in `tests/golden/er.json`),
/// checkpointed at round 8 with stats recording on, so the fixture
/// exercises meters, stats, and mid-update node state.
fn golden_snapshot_for(protocol: &str) -> Snapshot {
    let trace = registry::build_trace("er", &params("er", 16, 12, 7)).unwrap();
    let cfg = SimConfig {
        record_stats: true,
        ..SimConfig::default()
    };
    let mut session = dds_bench::protocols().open(protocol, trace.n, cfg).unwrap();
    for batch in &trace.batches[..8] {
        session.step(batch);
    }
    session.checkpoint()
}

#[test]
fn every_protocol_reproduces_its_golden_snapshot_byte_for_byte() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1");
    let mut missing = Vec::new();
    for protocol in dds_bench::protocols().names() {
        let produced = golden_snapshot_for(protocol).to_json();
        let path = golden_dir().join(format!("{protocol}.json"));
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &produced).unwrap();
            continue;
        }
        let Ok(committed) = std::fs::read_to_string(&path) else {
            missing.push(protocol);
            continue;
        };
        assert_eq!(
            produced,
            committed,
            "{protocol}: snapshot bytes drifted from {} \
             (an intentional format change needs GOLDEN_REGEN=1, a \
             CHANGES.md note, and a SNAPSHOT_VERSION bump if old \
             snapshots no longer load)",
            path.display()
        );
    }
    assert!(
        missing.is_empty(),
        "missing golden snapshots for {missing:?}; generate with GOLDEN_REGEN=1"
    );
}

#[test]
fn committed_golden_snapshots_still_restore_and_continue() {
    // Forward compatibility in the only direction that matters: files
    // written earlier must keep loading and resuming bit-identically.
    let trace = registry::build_trace("er", &params("er", 16, 12, 7)).unwrap();
    let cfg = SimConfig {
        record_stats: true,
        ..SimConfig::default()
    };
    let reg = dds_bench::protocols();
    for protocol in reg.names() {
        let path = golden_dir().join(format!("{protocol}.json"));
        let Ok(committed) = std::fs::read_to_string(&path) else {
            continue; // the byte-identity test reports the gap
        };
        let snap = Snapshot::from_json(&committed)
            .unwrap_or_else(|e| panic!("{protocol}: committed fixture no longer parses: {e}"));
        let mut resumed = reg
            .restore(&snap)
            .unwrap_or_else(|e| panic!("{protocol}: committed fixture no longer restores: {e}"));
        let mut continuous = reg.open(protocol, trace.n, cfg).unwrap();
        for batch in &trace.batches {
            continuous.step(batch);
        }
        for batch in &trace.batches[8..] {
            resumed.step(batch);
        }
        assert_sessions_match(
            &continuous,
            &resumed,
            &format!("{protocol} [golden resume]"),
        );
    }
}

#[test]
fn the_retired_scheduling_token_restores_and_unknown_tokens_are_corrupt() {
    // Documents written while the engine had a second shard scheduler
    // carry `"scheduling":"chunked"`. Outputs never depended on the token,
    // so they restore under the one scheduler and re-checkpoint to the
    // fixture's exact bytes; any other token is corrupt.
    let committed = std::fs::read_to_string(golden_dir().join("two-hop.json")).unwrap();
    let retag = |token: &str| {
        let doc = committed.replace(
            "\"scheduling\":\"balanced\"",
            &format!("\"scheduling\":\"{token}\""),
        );
        assert_ne!(doc, committed, "the fixture's scheduling token moved");
        doc
    };
    let snap = Snapshot::from_json(&retag("chunked")).expect("the retired token parses");
    let resumed = dds_bench::protocols()
        .restore(&snap)
        .expect("the retired token restores");
    assert_eq!(resumed.checkpoint().to_json(), committed);
    assert!(matches!(
        Snapshot::from_json(&retag("lifo")),
        Err(RestoreError::Corrupt(_))
    ));
    // Documents written while shard execution had a user switch between
    // inline and pooled may carry `"parallel":true`. Outputs never
    // depended on it either: such a document restores under the one
    // executor and re-checkpoints to the fixture's exact bytes, while a
    // non-boolean value is corrupt.
    let retag_parallel = |value: &str| {
        let doc = committed.replace("\"parallel\":false", &format!("\"parallel\":{value}"));
        assert_ne!(doc, committed, "the fixture's parallel field moved");
        doc
    };
    let snap = Snapshot::from_json(&retag_parallel("true")).expect("the retired switch parses");
    let resumed = dds_bench::protocols()
        .restore(&snap)
        .expect("the retired switch restores");
    assert_eq!(resumed.checkpoint().to_json(), committed);
    assert!(matches!(
        Snapshot::from_json(&retag_parallel("\"yes\"")),
        Err(RestoreError::Corrupt(_))
    ));
}

#[test]
fn golden_snapshot_fixtures_have_no_strays() {
    // Every fixture corresponds to a registered protocol — renaming or
    // removing a protocol means dealing with its frozen snapshot too.
    let names = dds_bench::protocols().names();
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden/snapshots exists") {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy();
        let stem = name.trim_end_matches(".json");
        assert!(
            names.contains(&stem),
            "stray golden snapshot {name} (no protocol of that name)"
        );
    }
}
