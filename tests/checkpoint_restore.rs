//! Checkpoint/restore differential lockdown: resuming a session from a
//! snapshot must be **bit-identical** to never having stopped.
//!
//! For a grid of (protocol × workload × engine × shards) cells, this
//! suite runs the same trace twice — once straight through, once
//! checkpointed mid-run, serialized to JSON, parsed back, restored
//! through the registry, and continued — and compares everything
//! observable: the whole `Fingerprint` (every deterministic summary field
//! with floats by their bits, the per-node counters, and the per-round
//! stats log with its active-node and shard columns), and every query
//! kind the protocol supports at every node.
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

mod common;

use common::query_fingerprint;
use dynamic_subgraphs::net::{
    Claim, Engine, RestoreError, Session, Shards, SimConfig, Snapshot, Trace,
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

/// Assert two sessions are observably identical: the whole fingerprint,
/// and every supported query at every node.
fn assert_sessions_match(a: &Session, b: &Session, ctx: &str) {
    assert_eq!(a.protocol(), b.protocol(), "{ctx}: protocol");
    a.fingerprint()
        .assert_same(&b.fingerprint(), Claim::Same, ctx);
    assert_eq!(
        query_fingerprint(a, a.n()),
        query_fingerprint(b, b.n()),
        "{ctx}: query answers"
    );
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

/// The snapshot writer against the tree renderer. `doc` is what a live
/// session wrote, straight from its state. Parsing its body into a tree
/// and rendering the tree must give the body's bytes; restoring the
/// parsed document and capturing again writes from live state once more,
/// and must give `doc`'s bytes.
fn assert_writer_matches_renderer(doc: &str, ctx: &str) {
    let differ_at = |one: &str, other: &str| {
        let at = one.bytes().zip(other.bytes()).position(|(a, b)| a != b);
        at.unwrap_or(one.len().min(other.len()))
    };
    let body = body_of(doc);
    let tree: serde::Value =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("{ctx}: body parse: {e}"));
    let rendered = serde_json::to_string(&tree).expect("json write is infallible");
    assert!(
        rendered == body,
        "{ctx}: the renderer differs from the writer at body byte {}",
        differ_at(body, &rendered)
    );
    let parsed = Snapshot::from_json(doc).unwrap_or_else(|e| panic!("{ctx}: reparse: {e}"));
    let restored = dds_bench::protocols()
        .restore(&parsed)
        .unwrap_or_else(|e| panic!("{ctx}: restore: {e}"));
    let again = restored.checkpoint().to_json();
    assert!(
        again == doc,
        "{ctx}: the restored session writes other bytes from byte {}",
        differ_at(doc, &again)
    );
}

/// The body of a document [`Snapshot::to_json`] wrote.
fn body_of(doc: &str) -> &str {
    let (_, body) = doc
        .split_once(",\"body\":")
        .expect("the header, then the body");
    body.strip_suffix("}\n")
        .expect("the body ends the document")
}

#[test]
fn the_snapshot_writer_matches_the_tree_renderer_across_the_matrix() {
    // The resume matrix's protocols, workloads and engines, with stats
    // recording on, written after the first round and every eighth.
    for protocol in dds_bench::protocols().names() {
        for workload in WORKLOADS {
            let trace = registry::build_trace(workload, &params(workload, 16, 40, 11))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            for engine in [Engine::Sparse, Engine::Dense] {
                let cfg = SimConfig {
                    record_stats: true,
                    engine,
                    ..SimConfig::default()
                };
                let mut session = dds_bench::protocols().open(protocol, trace.n, cfg).unwrap();
                for (i, batch) in trace.batches.iter().enumerate() {
                    session.step(batch);
                    let round = i + 1;
                    if round == 1 || round % 8 == 0 {
                        let ctx = format!("{protocol}/{workload}/{engine:?} round {round}");
                        assert_writer_matches_renderer(&session.checkpoint().to_json(), &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn the_snapshot_writer_matches_the_tree_renderer_at_benchmark_scale() {
    // A triangle state shaped like the repository benchmark's daemon:
    // n = 2 000, about 4 000 edges, stats recording on, written right
    // after a 16-change round while queues are still draining.
    use dynamic_subgraphs::net::{edge, EventBatch};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let n = 2_000u32;
    let mut rng = SmallRng::seed_from_u64(2_000);
    let mut live = Vec::new();
    let mut present = rustc_hash::FxHashSet::default();
    let mut fresh_edge = |present: &mut rustc_hash::FxHashSet<_>| loop {
        let (u, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != w && present.insert(edge(u, w)) {
            return edge(u, w);
        }
    };
    let cfg = SimConfig {
        record_stats: true,
        ..SimConfig::default()
    };
    let mut session = dds_bench::protocols()
        .open("triangle", n as usize, cfg)
        .unwrap();
    for _ in 0..40 {
        let mut batch = EventBatch::new();
        for _ in 0..100 {
            let e = fresh_edge(&mut present);
            live.push(e);
            batch.push_insert(e);
        }
        session.step(&batch);
    }
    for round in 0..6 {
        let mut batch = EventBatch::new();
        let gone: Vec<_> = (0..8)
            .map(|_| live.swap_remove((round * 131 + live.len() * 7) % live.len()))
            .collect();
        for &e in &gone {
            batch.push_delete(e);
        }
        // A deleted edge stays in `present` until the inserts are drawn,
        // so one round never names an edge twice.
        for _ in 0..8 {
            let e = fresh_edge(&mut present);
            live.push(e);
            batch.push_insert(e);
        }
        for e in &gone {
            present.remove(e);
        }
        session.step(&batch);
    }
    assert_eq!(session.topology().edge_count(), 4_000);
    assert!(!session.all_consistent(), "the state is mid-update");
    let doc = session.checkpoint().to_json();
    assert!(doc.len() > 500_000, "a {} B document", doc.len());
    assert_writer_matches_renderer(&doc, "triangle n=2000");
}

/// The dense engine visits every node in every round, but between rounds
/// its active set holds the same survivors as the sparse engine's, and
/// that set is what a snapshot stores. A dense snapshot that lists every
/// node instead (the form dense sessions were once written in) still
/// resumes bit-identically: the dense engine activates every node when
/// the next round starts, whatever the snapshot listed.
#[test]
fn a_dense_snapshot_stores_the_sparse_survivors_and_the_all_node_form_resumes() {
    let trace = registry::build_trace("er", &params("er", 16, 40, 11)).unwrap();
    let reg = dds_bench::protocols();
    let open = |engine| {
        let cfg = SimConfig {
            record_stats: true,
            engine,
            ..SimConfig::default()
        };
        reg.open("triangle", trace.n, cfg).unwrap()
    };
    let (mut dense, mut sparse) = (open(Engine::Dense), open(Engine::Sparse));
    let at = 24;
    for batch in &trace.batches[..at] {
        dense.step(batch);
        sparse.step(batch);
    }
    let body = |doc: &str| -> serde::Value {
        serde_json::from_str(body_of(doc)).expect("the body parses")
    };
    let active = |body: &serde::Value| body.get("active").expect("an active section").clone();
    let doc = dense.checkpoint().to_json();
    let survivors = active(&body(&sparse.checkpoint().to_json()));
    let listed = survivors.as_array().expect("an id list").len();
    assert!(
        0 < listed && listed < trace.n,
        "round {at} must have some survivors, not every node: {listed}"
    );
    assert_eq!(active(&body(&doc)), survivors, "dense vs sparse `active`");

    let mut all_nodes = body(&doc);
    let serde::Value::Obj(members) = &mut all_nodes else {
        panic!("the body is an object")
    };
    let (_, active) = members
        .iter_mut()
        .find(|(key, _)| key == "active")
        .expect("an active section");
    *active = serde::Value::Arr((0..trace.n as u64).map(serde::Value::U64).collect());
    let rendered = serde_json::to_string(&all_nodes).expect("json write is infallible");
    let old_form = Snapshot::from_json(&with_body(&doc, &rendered)).expect("re-checksummed");
    let mut resumed = reg.restore(&old_form).expect("the all-node form restores");
    for batch in &trace.batches[at..] {
        dense.step(batch);
        resumed.step(batch);
    }
    assert_sessions_match(&dense, &resumed, "triangle/er dense, all-node snapshot");
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
fn a_header_claiming_more_nodes_than_the_body_holds_is_corrupt() {
    // The checksum covers the body only, so a header's `n` is checked by
    // the body it claims to describe, before anything is sized by it.
    let committed = std::fs::read_to_string(golden_dir().join("two-hop.json")).unwrap();
    for n in [17u64, 1 << 40] {
        let doc = committed.replacen("\"n\":16,", &format!("\"n\":{n},"), 1);
        assert_ne!(doc, committed, "the fixture's n moved");
        let snap = Snapshot::from_json(&doc).expect("the header is well-formed");
        match dds_bench::protocols().restore(&snap) {
            Err(RestoreError::Corrupt(msg)) => {
                assert!(msg.contains("16 node states for n = "), "{msg}")
            }
            other => panic!("n = {n}: {:?}", other.map(|s| s.n())),
        }
    }
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

// ---------------------------------------------------------------------
// Hostile bodies: an `open` request can carry a snapshot inline, so the
// body reader parses untrusted input. Whatever the bytes, a restore is a
// typed error or a session, never a panic.
// ---------------------------------------------------------------------

/// `doc` with its body replaced by `body` and the header's checksum
/// re-stamped to match, so the body gets past the checksum to the reader.
fn with_body(doc: &str, body: &str) -> String {
    let (header, _) = doc
        .split_once(",\"body\":")
        .expect("the header, then the body");
    let (head, _) = header
        .rsplit_once("\"checksum\":")
        .expect("the checksum ends the header");
    let checksum = dynamic_subgraphs::net::checkpoint::fnv1a64(body.as_bytes());
    format!("{head}\"checksum\":{checksum}}},\"body\":{body}}}\n")
}

/// Paths (child indices from the root) to every value in `v` that `keep`
/// accepts, depth first.
fn paths_where(v: &serde::Value, keep: fn(&serde::Value) -> bool) -> Vec<Vec<usize>> {
    fn walk(
        v: &serde::Value,
        at: &mut Vec<usize>,
        keep: fn(&serde::Value) -> bool,
        out: &mut Vec<Vec<usize>>,
    ) {
        if keep(v) {
            out.push(at.clone());
        }
        let children: Vec<&serde::Value> = match v {
            serde::Value::Arr(items) => items.iter().collect(),
            serde::Value::Obj(members) => members.iter().map(|(_, m)| m).collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            walk(child, at, keep, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    walk(v, &mut Vec::new(), keep, &mut out);
    out
}

fn value_at<'a>(v: &'a mut serde::Value, path: &[usize]) -> &'a mut serde::Value {
    path.iter().fold(v, |v, &i| match v {
        serde::Value::Arr(items) => &mut items[i],
        serde::Value::Obj(members) => &mut members[i].1,
        _ => unreachable!("a path only descends into arrays and objects"),
    })
}

/// One way to damage a body.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    Cut,
    ReplaceByte,
    DropElement,
    DuplicateElement,
    RenameKey,
    Nest,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::Cut,
    Mutation::ReplaceByte,
    Mutation::DropElement,
    Mutation::DuplicateElement,
    Mutation::RenameKey,
    Mutation::Nest,
];

/// `body` damaged by `kind`, at a place `pick` and `sub` choose.
fn mutate(body: &str, kind: Mutation, pick: u64, sub: u64) -> String {
    use serde::Value;
    let (pick, sub) = (pick as usize, sub as usize);
    let mut tree: Value = serde_json::from_str(body).expect("the body parses");
    let pick_path = |keep: fn(&Value) -> bool, tree: &Value| {
        let paths = paths_where(tree, keep);
        paths[pick % paths.len()].clone()
    };
    match kind {
        Mutation::Cut => return body[..pick % body.len()].to_string(),
        Mutation::ReplaceByte => {
            let mut bytes = body.as_bytes().to_vec();
            let with = b"0123456789[]{},:\"-. aefnrtlsux";
            bytes[pick % body.len()] = with[sub % with.len()];
            return String::from_utf8(bytes).expect("ASCII in, ASCII out");
        }
        Mutation::DropElement | Mutation::DuplicateElement => {
            let path = pick_path(
                |v| matches!(v, Value::Arr(items) if !items.is_empty()),
                &tree,
            );
            let Value::Arr(items) = value_at(&mut tree, &path) else {
                unreachable!()
            };
            let at = sub % items.len();
            if kind == Mutation::DropElement {
                items.remove(at);
            } else {
                items.insert(at, items[at].clone());
            }
        }
        Mutation::RenameKey => {
            let path = pick_path(|v| matches!(v, Value::Obj(m) if !m.is_empty()), &tree);
            let Value::Obj(members) = value_at(&mut tree, &path) else {
                unreachable!()
            };
            let at = sub % members.len();
            members[at].0.push('_');
        }
        Mutation::Nest => {
            let path = pick_path(|_| true, &tree);
            let v = value_at(&mut tree, &path);
            for _ in 0..200 {
                *v = Value::Arr(vec![std::mem::replace(v, Value::Null)]);
            }
        }
    }
    serde_json::to_string(&tree).expect("json write is infallible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases() * 16))]

    // Each protocol's golden fixture with one random body mutation, its
    // checksum re-stamped: reading and restoring it must return a typed
    // error or a session, and a cut or over-deep body must be a parse
    // error.
    #[test]
    fn hostile_snapshot_bodies_are_typed_errors_never_panics(
        pi in 0usize..6,
        ki in 0usize..MUTATIONS.len(),
        pick in 0u64..u64::MAX,
        sub in 0u64..u64::MAX,
    ) {
        let protocols = dds_bench::protocols().names();
        let protocol = protocols[pi % protocols.len()];
        let golden = std::fs::read_to_string(golden_dir().join(format!("{protocol}.json")))
            .expect("golden snapshot");
        let body = body_of(&golden);
        prop_assert!(body.is_ascii(), "{protocol}: the fixture's body is ASCII");
        prop_assert_eq!(with_body(&golden, body), golden.clone());
        let kind = MUTATIONS[ki];
        let doc = with_body(&golden, &mutate(body, kind, pick, sub));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Snapshot::from_json(&doc).and_then(|snap| dds_bench::protocols().restore(&snap))
        }));
        let Ok(outcome) = outcome else {
            return Err(TestCaseError(format!("{protocol}: {kind:?} panicked")));
        };
        if matches!(kind, Mutation::Cut | Mutation::Nest) {
            prop_assert!(
                matches!(outcome, Err(RestoreError::Parse(_))),
                "{}: {:?} must be a parse error, got {:?}",
                protocol,
                kind,
                outcome.map(|s| s.round())
            );
        }
    }
}
