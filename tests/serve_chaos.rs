//! Chaos lockdown for the fail-stop serving contract: under seeded fault
//! injection — dropped, torn, and corrupted response frames, injected
//! daemon crashes before/after publish and mid-checkpoint — every client
//! interaction must yield either an answer **bit-identical** to a clean
//! local session at the reply's watermark, or a typed error. Never a
//! stale, torn, or silently corrupt answer. And a restarted daemon must
//! recover exactly the last durable watermark, byte-identically.
//!
//! Fault schedules are deterministic in the plan seed and the accept-order
//! connection id, so every failure found here replays exactly; one test
//! pins that replay identity itself.

use dynamic_subgraphs::net::serving::{
    recover_sessions, Client, ClientConfig, Durability, DurabilityOptions, FaultPlan, QueryOutcome,
    Server, ServerOptions, ServingSession, WriteFault,
};
use dynamic_subgraphs::net::{
    edge, Answer, EventBatch, NodeId, Query, Response, Session, SimConfig, Snapshot, Trace,
};
use dynamic_subgraphs::workloads::{registry, Params};
use proptest::prelude::*;
use std::path::Path;

fn trace_for(workload: &str, n: u64, rounds: u64, seed: u64) -> Trace {
    let params = Params::new()
        .with("n", n)
        .with("rounds", rounds)
        .with("seed", seed);
    registry::build_trace(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Boot an in-process daemon with explicit options; returns the address,
/// join handle, and a stop closure.
fn boot_with(options: ServerOptions) -> (String, std::thread::JoinHandle<()>, impl Fn()) {
    let server =
        Server::bind_with("127.0.0.1:0", dds_bench::protocols(), options).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, join, move || handle.stop())
}

/// The fixed probe set the truth vectors are computed for.
fn probe_set() -> Vec<(NodeId, Query)> {
    vec![
        (NodeId(0), Query::Edge(edge(0, 1))),
        (NodeId(3), Query::Edge(edge(3, 9))),
        (NodeId(7), Query::Edge(edge(7, 8))),
        (NodeId(2), Query::Edge(edge(2, 5))),
    ]
}

/// Local ground truth for the probe set at every round 0..=rounds.
fn truth_vectors(protocol: &str, trace: &Trace) -> (Session, Vec<Vec<Response<Answer>>>) {
    let probes = probe_set();
    let mut local = dds_bench::protocols()
        .open(protocol, trace.n, SimConfig::default())
        .expect("local open");
    let record = |s: &Session| {
        probes
            .iter()
            .map(|(at, q)| s.query(*at, q).expect("local query"))
            .collect::<Vec<_>>()
    };
    let mut truth = vec![record(&local)];
    for batch in &trace.batches {
        local.step(batch);
        truth.push(record(&local));
    }
    (local, truth)
}

fn assert_outcome_matches(served: &QueryOutcome, local: &Response<Answer>, context: &str) {
    match (served, local) {
        (QueryOutcome::Answer(a), Response::Answer(b)) => {
            assert_eq!(a, b, "{context}: answers diverge")
        }
        (QueryOutcome::Inconsistent, Response::Inconsistent) => {}
        other => panic!("{context}: outcome shape diverges: {other:?}"),
    }
}

/// Open a session through a faulty wire: the open verb is not idempotent
/// (a retried open races its own first attempt's server-side effect), so
/// tolerate "already open" as success and reconnect on transport damage.
fn open_resilient(addr: &str, name: &str, protocol: &str, n: usize) {
    for _ in 0..32 {
        let Ok(mut c) = Client::connect(addr) else {
            continue;
        };
        match c.open(name, protocol, n) {
            Ok(_) => return,
            Err(e) if e.contains("already open") => return,
            Err(_) => continue,
        }
    }
    panic!("could not open session {name:?} through the fault plan");
}

// ---- deterministic fault schedules ------------------------------------

#[test]
fn same_seed_fault_plans_replay_identically() {
    let spec = "seed=42,drop=0.2,torn=0.2,corrupt=0.1,delay-ms=1";
    let draw = |plan: &FaultPlan| -> Vec<Vec<WriteFault>> {
        (0..8)
            .map(|conn| {
                let mut stream = plan.connection(conn);
                (0..32).map(|_| stream.next_write()).collect()
            })
            .collect()
    };
    let a = draw(&FaultPlan::parse(spec).expect("parse"));
    let b = draw(&FaultPlan::parse(spec).expect("parse"));
    assert_eq!(a, b, "same spec, same schedule — always");

    let other = draw(&FaultPlan::parse("seed=43,drop=0.2,torn=0.2,corrupt=0.1").expect("parse"));
    assert_ne!(a, other, "a different seed draws a different schedule");

    // The spec round-trips through describe() → parse().
    let plan = FaultPlan::parse(spec).expect("parse");
    let redescribed = FaultPlan::parse(&plan.describe()).expect("describe reparses");
    assert_eq!(draw(&plan), draw(&redescribed));
}

// ---- the fail-stop differential under active chaos --------------------

/// One full chaos run: ingest a trace round by round through a tolerant
/// client while the daemon drops/tears/corrupts response frames, probing
/// after every round. Returns a replay fingerprint.
fn chaos_run(protocol: &str, spec: &str) -> (u64, u64, Vec<String>, String) {
    let plan = FaultPlan::parse(spec).expect("parse");
    let (addr, join, stop) = boot_with(ServerOptions {
        faults: Some(plan),
        ..ServerOptions::default()
    });
    let trace = trace_for("er", 16, 30, 11);
    let (local, truth) = truth_vectors(protocol, &trace);
    open_resilient(&addr, "chaos", protocol, trace.n);

    // Generous retry budget: the wire is unreliable by design here, and
    // this test asserts what gets *through* is exact, not that the wire
    // is reliable.
    let mut cfg = ClientConfig::tolerant(0xC0FFEE);
    cfg.retries = 16;
    let mut client = Client::connect_with(&addr, cfg).expect("connect");
    let probes = probe_set();
    let mut fingerprints = Vec::new();
    for (i, batch) in trace.batches.iter().enumerate() {
        let watermark = client
            .ingest("chaos", vec![batch.clone()])
            .unwrap_or_else(|e| panic!("ingest round {}: {e}", i + 1));
        assert_eq!(
            watermark,
            i as u64 + 1,
            "retried ingests must be applied exactly once"
        );
        let reply = client
            .query("chaos", probes.clone())
            .unwrap_or_else(|e| panic!("query at round {}: {e}", i + 1));
        let expected = &truth[reply.watermark as usize];
        for (p, served) in reply.outcomes.iter().enumerate() {
            let context = format!("{protocol} probe {p} at watermark {}", reply.watermark);
            assert_outcome_matches(served, &expected[p], &context);
        }
        fingerprints.push(format!("w{}:{:?}", reply.watermark, reply.outcomes));
    }
    assert!(
        client.retries() + client.reconnects() > 0,
        "the fault plan never fired — this run exercised nothing"
    );

    // The chaos-facing session must land bit-exactly where the clean
    // local session lands.
    let snap = client.checkpoint("chaos").expect("checkpoint");
    assert_eq!(
        snap.to_json(),
        local.checkpoint().to_json(),
        "{protocol}: chaos-served state diverged from the clean local run"
    );
    let fingerprint = (
        client.retries(),
        client.reconnects(),
        fingerprints,
        snap.to_json(),
    );
    drop(client);
    stop();
    join.join().expect("server thread");
    fingerprint
}

#[test]
fn chaos_answers_are_bit_identical_or_typed_errors() {
    let spec = "seed=7,drop=0.15,torn=0.1,corrupt=0.1";
    for protocol in ["two-hop", "triangle"] {
        let first = chaos_run(protocol, spec);
        let second = chaos_run(protocol, spec);
        assert_eq!(
            first, second,
            "{protocol}: the same fault spec must replay to the same retries, \
             reconnects, answers, and final state"
        );
    }
}

#[test]
fn fragile_clients_get_typed_errors_never_wrong_answers() {
    // No retries at all: every injected fault surfaces as an error to the
    // caller. The contract is that those errors are typed (non-empty,
    // descriptive) and that every reply that *does* arrive is exact.
    let plan = FaultPlan::parse("seed=3,drop=0.25,torn=0.15,corrupt=0.15").expect("parse");
    let (addr, join, stop) = boot_with(ServerOptions {
        faults: Some(plan),
        ..ServerOptions::default()
    });
    let trace = trace_for("er", 16, 20, 5);
    let (_, truth) = truth_vectors("two-hop", &trace);
    open_resilient(&addr, "fragile", "two-hop", trace.n);

    // Drive the watermark forward on a reliable-enough tolerant writer.
    let mut cfg = ClientConfig::tolerant(0xFEED);
    cfg.retries = 16;
    let mut writer = Client::connect_with(&addr, cfg).expect("connect writer");
    let probes = probe_set();
    let mut errors = 0u64;
    let mut answered = 0u64;
    let mut reader: Option<Client> = None;
    for (i, batch) in trace.batches.iter().enumerate() {
        writer
            .ingest("fragile", vec![batch.clone()])
            .unwrap_or_else(|e| panic!("ingest round {}: {e}", i + 1));
        let mut c = match reader.take() {
            Some(c) => c,
            None => match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => continue,
            },
        };
        match c.query("fragile", probes.clone()) {
            Ok(reply) => {
                answered += 1;
                let expected = &truth[reply.watermark as usize];
                for (p, served) in reply.outcomes.iter().enumerate() {
                    let context = format!("fragile probe {p} at watermark {}", reply.watermark);
                    assert_outcome_matches(served, &expected[p], &context);
                }
                reader = Some(c);
            }
            Err(e) => {
                errors += 1;
                assert!(!e.is_empty(), "errors must be typed, not blank");
                // A faulted connection is dead or desynced; drop it.
            }
        }
    }
    assert!(errors > 0, "the plan should have faulted some reads");
    assert!(answered > 0, "some reads should have survived");
    drop(writer);
    drop(reader);
    stop();
    join.join().expect("server thread");
}

// ---- durable checkpoints + crash recovery -----------------------------

/// Ingest `trace` rounds one write verb at a time (seq = round) against a
/// state-level durable session, expecting the `fail_at`-th write to fail
/// with `expect_err` under `plan`. Returns the session.
fn ingest_until_crash(
    session: &ServingSession,
    trace: &Trace,
    plan: &FaultPlan,
    fail_at: u64,
    expect_err: &str,
) {
    let registry = dds_bench::protocols();
    for (i, batch) in trace.batches.iter().enumerate() {
        let seq = i as u64 + 1;
        let got = session.ingest(registry, std::slice::from_ref(batch), Some(seq), Some(plan));
        if seq < fail_at {
            assert_eq!(got, Ok(seq), "write {seq} should be acked");
        } else {
            let err = got.expect_err("the scheduled crash must fail the write");
            assert!(err.contains(expect_err), "typed crash error, got: {err}");
            assert!(plan.crashed(), "the soft crash must be marked");
            return;
        }
    }
    panic!("crash never fired");
}

/// Local truth at round `r` of the trace.
fn local_at(protocol: &str, trace: &Trace, r: usize) -> Session {
    let mut local = dds_bench::protocols()
        .open(protocol, trace.n, SimConfig::default())
        .expect("local open");
    for batch in &trace.batches[..r] {
        local.step(batch);
    }
    local
}

#[test]
fn crash_before_publish_recovers_the_acked_prefix() {
    let registry = dds_bench::protocols();
    let dir = tempdir("crash-before-publish");
    let trace = trace_for("er", 16, 12, 21);
    let plan = FaultPlan::parse("crash=before-publish:5").expect("parse");
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: dir.clone(),
            every: 1,
        })
        .expect("enable durability");
    ingest_until_crash(&session, &trace, &plan, 5, "crashed before publish");
    assert_eq!(session.durable_round(), 4, "only acked writes are durable");
    drop(session);

    // Recover: exactly the acked prefix, byte-identical to a clean run.
    let (recovered, report) = recover_sessions(registry, &dir, "main").expect("recover");
    assert_eq!(report.sessions, vec![("main".to_string(), 4)]);
    assert!(
        report.skipped.is_empty(),
        "nothing torn: {:?}",
        report.skipped
    );
    let (session, _) = recovered.into_iter().next().expect("one session");
    assert_eq!(
        session.checkpoint().to_json(),
        local_at("two-hop", &trace, 4).checkpoint().to_json(),
        "recovered state must be byte-identical to the clean run at the durable watermark"
    );

    // The un-acked write 5 was lost — exactly fail-stop — so the client
    // re-sends it and the session continues to the full run.
    for (i, batch) in trace.batches.iter().enumerate().skip(4) {
        let seq = i as u64 + 1;
        assert_eq!(
            session.ingest(registry, std::slice::from_ref(batch), Some(seq), None),
            Ok(seq)
        );
    }
    let full = trace.batches.len();
    assert_eq!(
        session.checkpoint().to_json(),
        local_at("two-hop", &trace, full).checkpoint().to_json(),
        "post-recovery ingest must converge to the clean full run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_after_publish_dedups_the_retry_across_restart() {
    let registry = dds_bench::protocols();
    let dir = tempdir("crash-after-publish");
    let trace = trace_for("er", 16, 10, 31);
    let plan = FaultPlan::parse("crash=after-publish:4").expect("parse");
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: dir.clone(),
            every: 1,
        })
        .expect("enable durability");
    ingest_until_crash(&session, &trace, &plan, 4, "crashed after publish");
    // The crash happened *after* persist + publish: write 4 is durable
    // even though its ack never reached the client.
    assert_eq!(session.durable_round(), 4);
    drop(session);

    let (recovered, report) = recover_sessions(registry, &dir, "main").expect("recover");
    assert_eq!(report.sessions, vec![("main".to_string(), 4)]);
    let (session, _) = recovered.into_iter().next().expect("one session");
    let before_retry = session.checkpoint().to_json();

    // The client never saw the ack, so it retries write 4 against the
    // restarted daemon. meta.json seeded the dedup record: same seq, same
    // content — acknowledged without being applied twice.
    assert_eq!(
        session.ingest(
            registry,
            std::slice::from_ref(&trace.batches[3]),
            Some(4),
            None
        ),
        Ok(4),
        "the cross-restart retry must be deduplicated, not re-applied"
    );
    assert_eq!(
        session.checkpoint().to_json(),
        before_retry,
        "a deduplicated retry must not move the state"
    );

    for (i, batch) in trace.batches.iter().enumerate().skip(4) {
        let seq = i as u64 + 1;
        assert_eq!(
            session.ingest(registry, std::slice::from_ref(batch), Some(seq), None),
            Ok(seq)
        );
    }
    assert_eq!(
        session.checkpoint().to_json(),
        local_at("two-hop", &trace, trace.batches.len())
            .checkpoint()
            .to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_checkpoint_crash_leaves_a_torn_tmp_that_recovery_skips() {
    let registry = dds_bench::protocols();
    let dir = tempdir("crash-mid-checkpoint");
    let trace = trace_for("er", 16, 10, 41);
    let plan = FaultPlan::parse("crash=mid-checkpoint:5").expect("parse");
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: dir.clone(),
            every: 1,
        })
        .expect("enable durability");
    ingest_until_crash(&session, &trace, &plan, 5, "crashed mid-checkpoint");
    drop(session);

    // The crash left a half-written `.tmp` and never renamed it: by
    // construction no `checkpoint_*.json` is ever torn.
    let torn = dir.join("checkpoint_000005.tmp");
    assert!(torn.exists(), "the injected crash fabricates a torn tmp");
    assert!(!dir.join("checkpoint_000005.json").exists());

    let (recovered, report) = recover_sessions(registry, &dir, "main").expect("recover");
    assert_eq!(report.sessions, vec![("main".to_string(), 4)]);
    assert!(report.skipped.is_empty(), "a tmp orphan is not a candidate");
    let (session, _) = recovered.into_iter().next().expect("one session");
    assert_eq!(
        session.checkpoint().to_json(),
        local_at("two-hop", &trace, 4).checkpoint().to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_skips_corrupt_and_truncated_tails() {
    let registry = dds_bench::protocols();
    let dir = tempdir("corrupt-tails");
    let trace = trace_for("er", 16, 6, 51);
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: dir.clone(),
            every: 1,
        })
        .expect("enable durability");
    for (i, batch) in trace.batches.iter().enumerate() {
        session
            .ingest(
                registry,
                std::slice::from_ref(batch),
                Some(i as u64 + 1),
                None,
            )
            .expect("ingest");
    }
    drop(session);

    // Damage the tail two ways: truncate the newest snapshot mid-document
    // and plant a newer file of pure garbage.
    let newest = dir.join("checkpoint_000006.json");
    let bytes = std::fs::read(&newest).expect("read newest");
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).expect("truncate");
    std::fs::write(dir.join("checkpoint_000099.json"), b"{ not json").expect("plant garbage");

    let (recovered, report) = recover_sessions(registry, &dir, "main").expect("recover");
    assert_eq!(
        report.sessions,
        vec![("main".to_string(), 5)],
        "recovery walks back to the newest snapshot that validates"
    );
    assert_eq!(report.skipped.len(), 2, "both damaged tails are reported");
    let (session, _) = recovered.into_iter().next().expect("one session");
    assert_eq!(
        session.checkpoint().to_json(),
        local_at("two-hop", &trace, 5).checkpoint().to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovering_twice_without_a_write_leaves_the_directory_unchanged() {
    // Recovery reads a durable directory; it may not change it. Two
    // restarts in a row, with no write between them, must leave the same
    // files with the same inodes and bytes, checkpoints and meta.json
    // alike.
    let registry = dds_bench::protocols();
    let base = tempdir("recover-twice");
    let trace = trace_for("er", 16, 8, 71);
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: base.join("main"),
            every: 1,
        })
        .expect("enable durability");
    for (i, batch) in trace.batches.iter().enumerate() {
        let seq = i as u64 + 1;
        let ingested = session.ingest(registry, std::slice::from_ref(batch), Some(seq), None);
        assert_eq!(ingested, Ok(seq));
    }
    drop(session);
    let dir = base.join("main");
    let written = dir_bytes(&dir);
    let meta = written.iter().any(|(path, ..)| path.ends_with("meta.json"));
    assert!(meta, "sequenced writes leave a meta.json");
    let recover = || {
        let server = Server::bind_with(
            "127.0.0.1:0",
            registry,
            ServerOptions {
                durability: Some(DurabilityOptions {
                    base: base.clone(),
                    every: 1,
                }),
                ..ServerOptions::default()
            },
        )
        .expect("bind recovery server");
        let report = server.recover(&base, "main").expect("recover");
        assert_eq!(report.sessions, vec![("main".to_string(), 8)]);
        dir_bytes(&dir)
    };
    let first = recover();
    let second = recover();
    assert!(first == written, "the first recovery changed the directory");
    assert!(second == first, "the second recovery changed the directory");
    std::fs::remove_dir_all(&base).ok();
}

/// Every file in `dir` with its inode and bytes, in path order. The
/// inode shows a rewrite that put the same bytes back: an atomic write
/// renames a new file into place.
fn dir_bytes(dir: &Path) -> Vec<(std::path::PathBuf, u64, Vec<u8>)> {
    use std::os::unix::fs::MetadataExt;
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let inode = std::fs::metadata(&path).expect("stat file").ino();
            let bytes = std::fs::read(&path).expect("read file");
            (path, inode, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn recovery_leaves_a_legacy_header_as_it_is_until_the_next_write() {
    // Snapshots written while the engine had a second shard scheduler and
    // a switch for pooled shard execution carry `"scheduling":"chunked"`
    // and `"parallel":true`; both still restore. Recovery must leave such
    // a file as it is, and the next persisting write writes the current
    // header form. The checksum covers the body only, so the edited
    // header keeps the file valid.
    let registry = dds_bench::protocols();
    let base = tempdir("legacy-header");
    let dir = base.join("main");
    std::fs::create_dir_all(&dir).expect("create session dir");
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshots/two-hop.json");
    let golden = std::fs::read_to_string(golden_path).expect("read the golden snapshot");
    let legacy = golden
        .replace("\"scheduling\":\"balanced\"", "\"scheduling\":\"chunked\"")
        .replace("\"parallel\":false", "\"parallel\":true");
    assert!(
        legacy.contains("\"scheduling\":\"chunked\"") && legacy.contains("\"parallel\":true"),
        "the golden snapshot's header fields moved"
    );
    std::fs::write(dir.join("checkpoint_000008.json"), &legacy).expect("plant legacy snapshot");
    let planted = dir_bytes(&dir);

    let server = Server::bind_with(
        "127.0.0.1:0",
        registry,
        ServerOptions {
            durability: Some(DurabilityOptions {
                base: base.clone(),
                every: 1,
            }),
            ..ServerOptions::default()
        },
    )
    .expect("bind recovery server");
    let report = server.recover(&base, "main").expect("recover");
    assert_eq!(report.sessions, vec![("main".to_string(), 8)]);
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut local = registry
        .restore(&Snapshot::from_json(&golden).expect("the golden snapshot parses"))
        .expect("the golden snapshot restores");
    let mut client = Client::connect(&addr).expect("connect");
    let served = client.checkpoint("main").expect("checkpoint");
    assert_eq!(served.to_json(), local.checkpoint().to_json());
    assert!(
        dir_bytes(&dir) == planted,
        "recovery rewrote the legacy snapshot"
    );

    assert_eq!(client.step("main", 1), Ok(9));
    local.step_quiet();
    let next = std::fs::read_to_string(dir.join("checkpoint_000009.json"))
        .expect("the step persisted round 9");
    assert_eq!(next, local.checkpoint().to_json());
    assert!(next.contains("\"scheduling\":\"balanced\"") && next.contains("\"parallel\":false"));
    assert!(
        dir_bytes(&dir)[0] == planted[0],
        "the step rewrote the legacy snapshot"
    );
    drop(client);
    handle.stop();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn recovery_takes_the_round_from_the_header_and_skips_a_misnamed_file() {
    // An older snapshot saved under a newer round's name must not outrank
    // the honest newest file, and no round may be read off a file name:
    // recovery skips the misnamed file as corrupt, every time, so a write
    // acked after the first recovery survives the second.
    let registry = dds_bench::protocols();
    let base = tempdir("misnamed");
    let dir = base.join("main");
    let trace = trace_for("er", 16, 8, 81);
    let session = ServingSession::open(registry, "main", "two-hop", trace.n, SimConfig::default())
        .expect("open");
    session
        .enable_durability(Durability {
            dir: dir.clone(),
            every: 1,
        })
        .expect("enable durability");
    for (i, batch) in trace.batches.iter().enumerate() {
        let seq = i as u64 + 1;
        let ingested = session.ingest(registry, std::slice::from_ref(batch), Some(seq), None);
        assert_eq!(ingested, Ok(seq));
    }
    drop(session);
    let misnamed = dir.join("checkpoint_000010.json");
    std::fs::copy(dir.join("checkpoint_000006.json"), &misnamed).expect("plant misnamed file");

    let recover = || {
        let server = Server::bind_with(
            "127.0.0.1:0",
            registry,
            ServerOptions {
                durability: Some(DurabilityOptions {
                    base: base.clone(),
                    every: 1,
                }),
                ..ServerOptions::default()
            },
        )
        .expect("bind recovery server");
        let report = server.recover(&base, "main").expect("recover");
        (server, report)
    };
    let (server, report) = recover();
    assert_eq!(report.sessions, vec![("main".to_string(), 8)]);
    assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
    let (path, why) = &report.skipped[0];
    assert_eq!(path, &misnamed);
    assert!(
        why.contains("round 10") && why.contains("round 6"),
        "the skip names both rounds: {why}"
    );

    // One persisting write lands at round 9.
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.step("main", 1), Ok(9));
    drop(client);
    handle.stop();
    join.join().expect("server thread");
    let mut local = local_at("two-hop", &trace, 8);
    local.step_quiet();
    let written = std::fs::read_to_string(dir.join("checkpoint_000009.json"))
        .expect("the step persisted round 9");
    assert_eq!(written, local.checkpoint().to_json());

    // Recovering again lands on the acked round 9, not the misnamed file.
    let (server, report) = recover();
    assert_eq!(report.sessions, vec![("main".to_string(), 9)]);
    assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(&addr).expect("connect");
    let served = client.checkpoint("main").expect("checkpoint");
    assert_eq!(served.to_json(), written);
    drop(client);
    handle.stop();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn stats_times_each_write_stage_and_persists_every_other_write() {
    // Six sequenced writes under `every: 2`: each write waits for its
    // locks, steps and publishes; every second one also persists. The
    // `open` that makes the session durable persists too, but it is not
    // a write verb and has no stages.
    let writes = 6u64;
    let base = tempdir("write-stages");
    let (addr, join, stop) = boot_with(ServerOptions {
        durability: Some(DurabilityOptions {
            base: base.clone(),
            every: 2,
        }),
        ..ServerOptions::default()
    });
    let trace = trace_for("er", 16, writes, 91);
    let mut client = Client::connect(&addr).expect("connect");
    client.open("main", "triangle", trace.n).expect("open");
    for (i, batch) in trace.batches.iter().enumerate() {
        let round = client.ingest("main", vec![batch.clone()]).expect("ingest");
        assert_eq!(round, i as u64 + 1);
    }
    let stats = client.stats().expect("stats");
    let sessions = stats
        .get("sessions")
        .and_then(|v| v.as_array())
        .expect("sessions");
    let stages = sessions[0].get("write_stages_us").expect("write_stages_us");
    for (stage, count) in [
        ("lock_wait", writes),
        ("step", writes),
        ("persist", writes / 2),
        ("publish", writes),
    ] {
        let h = stages
            .get(stage)
            .unwrap_or_else(|| panic!("no {stage} stage"));
        let field = |k: &str| h.get(k).unwrap_or_else(|| panic!("{stage}: no {k}"));
        assert_eq!(field("count"), &serde::Value::U64(count), "{stage} count");
        let serde::Value::F64(mean) = field("mean") else {
            panic!("{stage}: the mean is a float")
        };
        assert!(*mean > 0.0, "{stage}: mean {mean}");
        for p in ["p50", "p90", "p99"] {
            assert!(matches!(field(p), serde::Value::F64(_)), "{stage}: {p}");
        }
    }
    // The query histogram keeps its path.
    let server = stats.get("server").expect("server");
    assert!(server
        .get("query_latency_us")
        .and_then(|h| h.get("count"))
        .is_some());
    drop(client);
    stop();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn server_level_kill_recover_continue_is_seamless() {
    // The full daemon path: durable server, ingest a prefix, soft-crash
    // it mid-ingest, boot a second daemon with --recover semantics, and
    // finish the trace through the wire. End state == clean local run.
    let base = tempdir("server-recover");
    let trace = trace_for("er", 16, 14, 61);
    let split = 6usize;

    let plan = FaultPlan::parse("crash=before-publish:7").expect("parse");
    let (addr, join, _stop) = boot_with(ServerOptions {
        faults: Some(plan),
        durability: Some(DurabilityOptions {
            base: base.clone(),
            every: 1,
        }),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.open("live", "two-hop", trace.n).expect("open");
    for batch in &trace.batches[..split] {
        client.ingest("live", vec![batch.clone()]).expect("ingest");
    }
    // Write 7 crashes the daemon before publish: no ack, daemon silent.
    let err = client
        .ingest("live", vec![trace.batches[split].clone()])
        .expect_err("the crashing write must not be acked");
    assert!(!err.is_empty());
    join.join().expect("crashed server thread exits its loop");

    // Second daemon: recover from the same base. The durable watermark is
    // the acked prefix.
    let server = Server::bind_with(
        "127.0.0.1:0",
        dds_bench::protocols(),
        ServerOptions {
            durability: Some(DurabilityOptions {
                base: base.clone(),
                every: 1,
            }),
            ..ServerOptions::default()
        },
    )
    .expect("bind recovery server");
    let report = server.recover(&base, "main").expect("recover");
    assert_eq!(report.sessions, vec![("live".to_string(), split as u64)]);
    let addr2 = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join2 = std::thread::spawn(move || server.run().expect("server run"));

    let mut client2 =
        Client::connect_with(&addr2, ClientConfig::tolerant(0xD00D)).expect("connect");
    for batch in &trace.batches[split..] {
        client2.ingest("live", vec![batch.clone()]).expect("ingest");
    }
    let snap = client2.checkpoint("live").expect("checkpoint");
    assert_eq!(
        snap.to_json(),
        local_at("two-hop", &trace, trace.batches.len())
            .checkpoint()
            .to_json(),
        "kill → recover → continue must converge to the clean run"
    );
    drop(client2);
    handle.stop();
    join2.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

/// The names `list` reports.
fn listed(client: &mut Client) -> Vec<String> {
    let listing = client.list().expect("list");
    let sessions = listing.get("sessions").and_then(|v| v.as_array());
    let name = |s: &serde::Value| s.get("session").and_then(|v| v.as_str()).map(String::from);
    sessions
        .expect("sessions")
        .iter()
        .filter_map(name)
        .collect()
}

#[test]
fn a_durable_open_that_cannot_persist_leaves_no_session() {
    // A regular file holds the name the session's checkpoint directory
    // needs, so its first snapshot cannot be written. The open fails, and
    // no session stays behind that could ack a write it never persists.
    let base = tempdir("open-cannot-persist");
    std::fs::write(base.join("x.json"), b"not a directory").expect("plant a file");
    let (addr, join, stop) = boot_with(ServerOptions {
        durability: Some(DurabilityOptions {
            base: base.clone(),
            every: 1,
        }),
        ..ServerOptions::default()
    });
    let mut client = deadline_client(&addr);
    let err = client
        .open("x.json", "two-hop", 8)
        .expect_err("a session that cannot persist must not open");
    assert!(err.contains("checkpoint dir"), "got: {err}");
    assert_eq!(listed(&mut client), Vec::<String>::new());
    let err = client
        .ingest("x.json", vec![EventBatch::insert(edge(0, 1))])
        .expect_err("no session may take the write");
    assert!(err.starts_with("no session named"), "got: {err}");
    drop(client);
    stop();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_write_that_reaches_a_failing_admission_is_refused() {
    // A FIFO sits where the first snapshot's temporary file goes. The
    // admission blocks opening it — the session already in the directory,
    // its writer lock held — until the test opens the read end, and then
    // fails, since a FIFO cannot be fsync'd. A write that found the
    // session meanwhile must be refused, never acked.
    use dynamic_subgraphs::net::serving::Directory;
    let base = tempdir("admission-race");
    let dir = base.join("s");
    std::fs::create_dir_all(&dir).expect("create session dir");
    let fifo = dir.join("checkpoint_000000.tmp");
    let made = std::process::Command::new("mkfifo").arg(&fifo).status();
    assert!(made.expect("run mkfifo").success(), "mkfifo failed");
    let directory = std::sync::Arc::new(Directory::default());
    let session = ServingSession::open(
        dds_bench::protocols(),
        "s",
        "two-hop",
        8,
        Default::default(),
    )
    .expect("open");
    let admitting = std::thread::spawn({
        let directory = std::sync::Arc::clone(&directory);
        move || directory.admit(session, Some(Durability { dir, every: 1 }))
    });
    let reached = loop {
        if let Ok(session) = directory.get("s") {
            break session;
        }
        assert!(!admitting.is_finished(), "the admission never blocked");
        std::thread::yield_now();
    };
    let writing = std::thread::spawn(move || reached.step_quiet(1, Some(1), None));
    let mut read_end = std::fs::File::open(&fifo).expect("open the FIFO's read end");
    std::io::copy(&mut read_end, &mut std::io::sink()).expect("drain the FIFO");
    let err = admitting
        .join()
        .expect("admission thread")
        .err()
        .expect("the first snapshot cannot be fsync'd");
    assert!(err.contains("persist checkpoint"), "got: {err}");
    let refused = writing
        .join()
        .expect("writer thread")
        .expect_err("a write to a session that is not on disk must not be acked");
    assert!(refused.contains("its open failed"), "got: {refused}");
    let err = directory
        .get("s")
        .err()
        .expect("the session left the directory");
    assert!(err.starts_with("no session named"), "got: {err}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn reopening_a_closed_durable_session_is_refused_and_writes_nothing() {
    // A closed session's snapshots stay in its directory. A fresh open
    // under its name would write rounds 0 and 1 next to the closed
    // session's round 3, and recovery would bring back the closed session
    // in place of the acked one. The open is refused and the directory is
    // left as it was: only recovery resumes it.
    let base = tempdir("reopen-closed");
    let (addr, join, stop) = boot_with(ServerOptions {
        durability: Some(DurabilityOptions {
            base: base.clone(),
            every: 1,
        }),
        ..ServerOptions::default()
    });
    let mut client = deadline_client(&addr);
    client.open("s", "two-hop", 8).expect("open");
    let rounds = vec![
        EventBatch::insert(edge(0, 1)),
        EventBatch::insert(edge(1, 2)),
        EventBatch::insert(edge(2, 3)),
    ];
    assert_eq!(client.ingest("s", rounds), Ok(3));
    // The name check comes first: a retried open whose reply was lost
    // still reads `already open`.
    let err = client
        .open("s", "triangle", 8)
        .expect_err("the name is taken");
    assert!(err.contains("already open"), "got: {err}");
    client.close("s").expect("close");
    let dir = base.join("s");
    let closed = dir_bytes(&dir);

    let err = client
        .open("s", "triangle", 8)
        .expect_err("an open over a closed session's snapshots must be refused");
    assert!(
        err.contains(&dir.display().to_string()) && err.contains("round 3"),
        "names the directory and its newest round: {err}"
    );
    assert!(dir_bytes(&dir) == closed, "the refused open wrote");
    assert_eq!(listed(&mut client), Vec::<String>::new());
    drop(client);
    stop();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&base).ok();
}

// ---- graceful degradation ---------------------------------------------

#[test]
fn overload_and_eviction_yield_typed_errors() {
    let (addr, join, stop) = boot_with(ServerOptions {
        max_sessions: 1,
        idle_timeout: Some(std::time::Duration::from_millis(200)),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.open("one", "two-hop", 8).expect("open");

    let err = client
        .open("two", "two-hop", 8)
        .expect_err("the cap must refuse a second session");
    assert!(err.starts_with("[overloaded]"), "typed code, got: {err}");

    // Idle past the timeout; the accept loop sweeps every 500ms.
    std::thread::sleep(std::time::Duration::from_millis(1_200));
    let err = client
        .query("one", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect_err("the idle session must have been evicted");
    assert!(err.starts_with("[evicted]"), "typed code, got: {err}");

    // Eviction freed capacity: reopening works and serves.
    client
        .open("one", "two-hop", 8)
        .expect("reopen after eviction");
    let reply = client
        .query("one", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after reopen");
    assert_eq!(reply.watermark, 0);
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn slow_loris_frames_are_cut_off_by_the_read_budget() {
    use std::io::{Read, Write};
    let (addr, join, stop) = boot_with(ServerOptions {
        frame_budget: std::time::Duration::from_millis(300),
        ..ServerOptions::default()
    });
    // A well-behaved client is unaffected.
    let mut client = Client::connect(&addr).expect("connect");
    client.open("ok", "two-hop", 8).expect("open");

    // The loris: start a frame, never finish it. The daemon must close
    // the connection once the per-frame budget lapses instead of pinning
    // a thread forever.
    let mut loris = std::net::TcpStream::connect(&addr).expect("loris connect");
    loris.write_all(&[0, 0, 1, 0, 9]).expect("partial header");
    loris.flush().ok();
    loris
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    let t0 = std::time::Instant::now();
    let n = loris.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the daemon must close, not answer, a stalled frame");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(8),
        "the close must come from the budget, not the test timeout"
    );

    // And the daemon is still fully alive for everyone else.
    let reply = client
        .query("ok", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after loris");
    assert_eq!(reply.watermark, 0);
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn an_idle_client_does_not_hold_up_the_stop() {
    let (addr, join, stop) = boot_with(ServerOptions::default());
    // One reply, then the client stays connected and says nothing: its
    // connection thread is blocked reading the next frame.
    let mut client = Client::connect(&addr).expect("connect");
    client.open("idle", "two-hop", 8).expect("open");
    let t0 = std::time::Instant::now();
    stop();
    join.join().expect("server thread");
    let took = t0.elapsed();
    assert!(
        took < std::time::Duration::from_millis(60),
        "the daemon took {took:?} to stop with an idle client connected"
    );
    drop(client);
}

#[test]
fn a_deeply_nested_request_is_a_typed_error_not_a_crash() {
    use dynamic_subgraphs::net::serving::wire;
    let (addr, join, stop) = boot_with(ServerOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.open("deep", "two-hop", 8).expect("open");

    // 40 KB of well-formed JSON in an intact, checksummed frame, nested
    // far deeper than any request: parsing it must stop at the depth
    // limit with an ordinary error instead of overflowing the connection
    // thread's stack and aborting the daemon.
    let payload = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let mut hostile = std::net::TcpStream::connect(&addr).expect("connect hostile");
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    wire::write_frame(&mut hostile, payload.as_bytes()).expect("send frame");
    let (reply, _) = wire::read_frame(&mut hostile)
        .expect("a reply frame")
        .expect("the daemon answers instead of closing");
    let reply: serde::Value =
        serde_json::from_str(std::str::from_utf8(&reply).expect("UTF-8 reply"))
            .expect("a JSON reply");
    let err = wire::check_response(&reply).expect_err("the request must be refused");
    assert!(
        err.starts_with("request is not JSON: "),
        "typed error, got: {err}"
    );
    assert!(
        err.contains("recursion limit"),
        "names the limit, got: {err}"
    );

    // Every other connection keeps being served.
    let mut other = Client::connect_with(
        &addr,
        ClientConfig {
            deadline: Some(std::time::Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .expect("connect after the hostile frame");
    let reply = other
        .query("deep", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after the hostile frame");
    assert_eq!(reply.watermark, 0);
    drop((client, other, hostile));
    stop();
    join.join().expect("server thread");
}

// ---- per-request caps --------------------------------------------------

/// A fail-fast client whose every request must be answered within 5 s, so
/// a wedged writer fails the test instead of hanging it.
fn deadline_client(addr: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            deadline: Some(std::time::Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

#[test]
fn an_unbounded_step_is_too_large_and_the_writer_stays_free() {
    use dynamic_subgraphs::net::serving::wire::MAX_STEP_ROUNDS;
    let (addr, join, stop) = boot_with(ServerOptions::default());
    let mut client = deadline_client(&addr);
    client.open("wedge", "two-hop", 8).expect("open");

    // Stepping `u64::MAX` quiet rounds under the writer lock would hold
    // it for good; the cap refuses the request before any round runs.
    let err = client
        .step("wedge", u64::MAX)
        .expect_err("an unbounded step must be refused");
    assert!(err.starts_with("[too-large]"), "typed code, got: {err}");
    let err = client
        .step("wedge", MAX_STEP_ROUNDS + 1)
        .expect_err("one round over the cap must be refused");
    assert!(err.starts_with("[too-large]"), "typed code, got: {err}");

    // The same session still takes a write and answers a read, at the
    // watermark the refused steps left alone.
    let watermark = client
        .ingest("wedge", vec![EventBatch::insert(edge(0, 1))])
        .expect("ingest after the refused step");
    assert_eq!(watermark, 1);
    let reply = client
        .query("wedge", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after the refused step");
    assert_eq!(reply.watermark, 1);
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn oversized_opens_and_ingests_are_too_large_and_change_nothing() {
    use dynamic_subgraphs::net::serving::wire::{MAX_INGEST_BATCHES, MAX_OPEN_N};
    let (addr, join, stop) = boot_with(ServerOptions::default());
    let mut client = deadline_client(&addr);

    // A fresh session one node over the cap, and a snapshot whose header
    // claims as much, are refused before anything is allocated.
    let err = client
        .open("huge", "two-hop", MAX_OPEN_N + 1)
        .expect_err("n over the cap must be refused");
    assert!(err.starts_with("[too-large]"), "typed code, got: {err}");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshots/two-hop.json"),
    )
    .expect("golden snapshot");
    let claimed = golden.replacen("\"n\":16,", &format!("\"n\":{},", MAX_OPEN_N + 1), 1);
    assert_ne!(claimed, golden, "the fixture's n moved");
    let snap = Snapshot::from_json(&claimed).expect("the header is well-formed");
    let err = client
        .open_from_snapshot("huge", &snap)
        .expect_err("a snapshot over the cap must be refused");
    assert!(err.starts_with("[too-large]"), "typed code, got: {err}");
    let err = client
        .query("huge", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect_err("no session was created");
    assert!(err.starts_with("no session named"), "got: {err}");

    // An ingest one batch over the cap applies none of them.
    client.open("busy", "two-hop", 8).expect("open");
    client
        .ingest("busy", vec![EventBatch::insert(edge(0, 1))])
        .expect("ingest");
    let err = client
        .ingest("busy", vec![EventBatch::new(); MAX_INGEST_BATCHES + 1])
        .expect_err("batches over the cap must be refused");
    assert!(err.starts_with("[too-large]"), "typed code, got: {err}");
    let reply = client
        .query("busy", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after the refused ingest");
    assert_eq!(reply.watermark, 1, "the refused ingest moved the watermark");
    drop(client);
    stop();
    join.join().expect("server thread");
}

#[test]
fn an_open_whose_snapshot_body_is_broken_is_a_typed_error() {
    use dynamic_subgraphs::net::checkpoint::fnv1a64;
    use dynamic_subgraphs::net::serving::wire::Request;
    let (addr, join, stop) = boot_with(ServerOptions::default());
    let mut client = deadline_client(&addr);
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshots/triangle.json"),
    )
    .expect("golden snapshot");
    let (header, body) = golden.split_once(",\"body\":").expect("header, then body");
    let body = body
        .strip_suffix("}\n")
        .expect("the body ends the document");
    let (head, _) = header
        .rsplit_once("\"checksum\":")
        .expect("the checksum ends the header");
    // Each broken body keeps a valid checksum, so only reading it can
    // refuse it: cut short, a key renamed, a node past n.
    let broken = [
        (body[..body.len() / 2].to_string(), "snapshot parse error"),
        (
            body.replacen("\"incident\"", "\"incidents\"", 1),
            "corrupt snapshot",
        ),
        (
            body.replacen("\"edges\":[", "\"edges\":[[0,99,1],", 1),
            "corrupt snapshot",
        ),
    ];
    for (body, typed) in broken {
        let checksum = fnv1a64(body.as_bytes());
        let doc = format!("{head}\"checksum\":{checksum}}},\"body\":{body}}}\n");
        let err = client
            .request(&Request::Open {
                session: "broken".into(),
                protocol: None,
                n: None,
                engine: None,
                shards: None,
                snapshot: Some(doc),
            })
            .expect_err("a broken body must be refused");
        assert!(err.contains(typed), "typed error, got: {err}");
    }
    let err = client
        .query("broken", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect_err("no session was created");
    assert!(err.starts_with("no session named"), "got: {err}");

    // The daemon still answers, and the intact document still opens.
    let snap = Snapshot::from_json(&golden).expect("the fixture parses");
    client
        .open_from_snapshot("intact", &snap)
        .expect("the intact document opens");
    let reply = client
        .query("intact", vec![(NodeId(0), Query::Edge(edge(0, 1)))])
        .expect("query after the refused opens");
    assert_eq!(reply.watermark, 8);
    drop(client);
    stop();
    join.join().expect("server thread");
}

// ---- batches that repeat an edge ----------------------------------------

#[test]
fn a_batch_repeating_an_edge_is_a_typed_error_and_the_session_stays_writable() {
    use dynamic_subgraphs::net::serving::wire;
    use serde::Deserialize as _;
    let (addr, join, stop) = boot_with(ServerOptions::default());
    let mut client = deadline_client(&addr);
    client.open("dup", "two-hop", 8).expect("open");

    // The client cannot build such a batch (`EventBatch::push` panics), so
    // the frames are written raw, all on one connection.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let mut send = |events: &str| -> Result<u64, String> {
        let payload = format!(
            "{{\"v\":1,\"verb\":\"ingest\",\"session\":\"dup\",\
             \"batches\":[{{\"events\":[{events}]}}]}}"
        );
        wire::write_frame(&mut raw, payload.as_bytes()).expect("send frame");
        let (reply, _) = wire::read_frame(&mut raw)
            .expect("a reply within the deadline")
            .expect("the daemon answers instead of closing");
        let reply: serde::Value =
            serde_json::from_str(std::str::from_utf8(&reply).expect("UTF-8 reply"))
                .expect("a JSON reply");
        let ok = wire::check_response(&reply)?;
        Ok(u64::from_value(ok.get("watermark").expect("watermark")).expect("a round"))
    };
    let insert = |a: u32, b: u32| format!("{{\"Insert\":{{\"a\":{a},\"b\":{b}}}}}");
    let delete = |a: u32, b: u32| format!("{{\"Delete\":{{\"a\":{a},\"b\":{b}}}}}");

    // Applying such a batch panics under the writer lock, which would
    // close the connection and poison the lock for every later write to
    // the session: the request must be refused before it gets there.
    let err = send(&format!("{},{}", insert(0, 1), insert(0, 1)))
        .expect_err("insert + insert of one edge must be refused");
    assert!(
        err.contains("duplicate event for edge {v0,v1}"),
        "names the duplicate, got: {err}"
    );
    assert_eq!(
        send(&insert(2, 3)),
        Ok(1),
        "a valid ingest on the same connection"
    );
    let err = send(&format!("{},{}", delete(2, 3), delete(2, 3)))
        .expect_err("delete + delete of one edge must be refused");
    assert!(
        err.contains("duplicate event for edge {v2,v3}"),
        "names the duplicate, got: {err}"
    );

    // The session still takes a write and answers a read.
    let watermark = client
        .ingest("dup", vec![EventBatch::insert(edge(0, 1))])
        .expect("ingest after the refused batches");
    assert_eq!(watermark, 2);
    let reply = client
        .query("dup", vec![(NodeId(2), Query::Edge(edge(2, 3)))])
        .expect("query after the refused batches");
    assert_eq!(reply.watermark, 2);
    drop((client, raw));
    stop();
    join.join().expect("server thread");
}

// ---- fail-fast clients after a timeout --------------------------------

#[test]
fn a_timed_out_reply_is_never_read_as_the_next_answer() {
    // Every reply leaves the daemon 400 ms late; the fragile client waits
    // 250 ms and never retries. The first query's reply still arrives on
    // its socket 150 ms after the client gave up, inside the next query's
    // wait. A client that kept that socket read it as the reply to the
    // next query.
    let plan = FaultPlan::parse("seed=1,delay-ms=400").expect("parse");
    let (addr, join, stop) = boot_with(ServerOptions {
        faults: Some(plan),
        ..ServerOptions::default()
    });
    let present = vec![(NodeId(0), Query::Edge(edge(0, 1)))];
    let absent = vec![(NodeId(2), Query::Edge(edge(2, 3)))];
    let mut patient = Client::connect(&addr).expect("connect");
    patient.open("desync", "two-hop", 8).expect("open");
    patient
        .ingest("desync", vec![EventBatch::insert(edge(0, 1))])
        .expect("ingest");
    patient.step("desync", 4).expect("settle");
    // The two answers differ, so a reply read against the wrong request
    // shows.
    let truth = |c: &mut Client, q: &Vec<(NodeId, Query)>| {
        c.query("desync", q.clone()).expect("query").outcomes
    };
    assert_eq!(
        truth(&mut patient, &present),
        [QueryOutcome::Answer(Answer::Bool(true))]
    );
    assert_eq!(
        truth(&mut patient, &absent),
        [QueryOutcome::Answer(Answer::Bool(false))]
    );

    let mut fragile = Client::connect_with(
        &addr,
        ClientConfig {
            deadline: Some(std::time::Duration::from_millis(250)),
            retries: 0,
            ..ClientConfig::default()
        },
    )
    .expect("connect fragile");
    let err = fragile
        .query("desync", present)
        .expect_err("a reply 400 ms late must miss a 250 ms deadline");
    assert!(!err.is_empty(), "errors must be typed");
    match fragile.query("desync", absent) {
        Ok(reply) => assert_eq!(
            reply.outcomes,
            [QueryOutcome::Answer(Answer::Bool(false))],
            "the late reply to the timed-out query was read as this one's"
        ),
        Err(e) => assert!(!e.is_empty(), "errors must be typed"),
    }
    drop(fragile);
    drop(patient);
    stop();
    join.join().expect("server thread");
}

// ---- property: no schedule produces a wrong non-error answer ----------

fn spec_from(seed: u64, drop: u16, torn: u16, corrupt: u16, crash_pick: usize) -> String {
    let crash = match crash_pick {
        1 => ",crash=before-publish:3",
        2 => ",crash=after-publish:3",
        3 => ",crash=mid-checkpoint:3",
        _ => "",
    };
    format!("seed={seed},drop=0.{drop:02},torn=0.{torn:02},corrupt=0.{corrupt:02}{crash}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn no_fault_schedule_panics_or_yields_wrong_answers(
        seed in 0u64..1_000_000,
        p_drop in 0u16..30,
        p_torn in 0u16..20,
        p_corrupt in 0u16..20,
        crash_pick in 0usize..4,
    ) {
        let spec = spec_from(seed, p_drop, p_torn, p_corrupt, crash_pick);
        let plan = FaultPlan::parse(&spec).expect("generated specs parse");
        let dir = tempdir(&format!("prop-{seed}-{p_drop}-{p_torn}-{p_corrupt}-{crash_pick}"));
        let (addr, join, stop) = boot_with(ServerOptions {
            faults: Some(plan),
            durability: Some(DurabilityOptions { base: dir.clone(), every: 1 }),
            ..ServerOptions::default()
        });
        let trace = trace_for("er", 12, 6, seed ^ 0xA5A5);
        let (_, truth) = truth_vectors("two-hop", &trace);
        open_resilient(&addr, "prop", "two-hop", trace.n);

        let mut cfg = ClientConfig::tolerant(seed);
        cfg.retries = 4;
        let mut client = Client::connect_with(&addr, cfg).expect("connect");
        let probes = probe_set();
        let mut reached = 0u64;
        for batch in &trace.batches {
            // Under an injected crash the daemon legitimately goes dark;
            // everything after that is typed errors, which is fine.
            match client.ingest("prop", vec![batch.clone()]) {
                Ok(w) => {
                    prop_assert_eq!(w, reached + 1, "no double-apply under retries");
                    reached = w;
                }
                Err(e) => {
                    prop_assert!(!e.is_empty(), "errors must be typed");
                    break;
                }
            }
            match client.query("prop", probes.clone()) {
                Ok(reply) => {
                    prop_assert!(reply.watermark <= reached);
                    let expected = &truth[reply.watermark as usize];
                    for (p, served) in reply.outcomes.iter().enumerate() {
                        match (served, &expected[p]) {
                            (QueryOutcome::Answer(a), Response::Answer(b)) => {
                                prop_assert_eq!(a, b, "wrong non-error answer at watermark {}", reply.watermark);
                            }
                            (QueryOutcome::Inconsistent, Response::Inconsistent) => {}
                            other => prop_assert!(false, "outcome shape diverges: {:?}", other),
                        }
                    }
                }
                Err(e) => prop_assert!(!e.is_empty(), "errors must be typed"),
            }
        }
        drop(client);
        stop();
        join.join().expect("server thread");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A unique temp directory under the target dir (kept out of the repo
/// tree; removed by each test on success).
fn tempdir(tag: &str) -> std::path::PathBuf {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("serve_chaos_{tag}"));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("create tempdir");
    base
}
