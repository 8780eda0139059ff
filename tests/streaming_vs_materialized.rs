//! Differential lockdown of the streaming trace layer.
//!
//! Three guarantees, for **every** workload in the registry:
//!
//! 1. the streamed batch sequence is bit-identical to the materialized
//!    [`Trace`] built from the same parameters (and replaying is cheap:
//!    rebuilding the source reproduces it);
//! 2. driving the engine from the stream produces exactly the
//!    `Fingerprint` and query responses the materialized replay produces
//!    — for every registered protocol;
//! 3. the batch scheduler's aggregation is worker-count-invariant:
//!    `--jobs 1` and `--jobs N` yield bit-identical result vectors (each
//!    summary's `outcome`, in the same positions).

mod common;

use common::query_fingerprint;
use dds_bench::scheduler;
use dynamic_subgraphs::net::{
    Claim, EventBatch, NodeId, Response, SimConfig, Simulator, TraceSource,
};
use dynamic_subgraphs::robust::TwoHopNode;
use dynamic_subgraphs::workloads::{registry, Params};

fn small_params() -> Params {
    Params::new()
        .with("n", 22)
        .with("rounds", 36)
        .with("seed", 11)
}

#[test]
fn every_workload_streams_bit_identical_batches() {
    for spec in registry::workloads() {
        let p = small_params();
        let trace =
            registry::build_trace(spec.name, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let mut src = spec.source(&p).unwrap();
        assert_eq!(src.n(), trace.n, "{}: n", spec.name);
        let mut streamed: Vec<EventBatch> = Vec::new();
        while let Some(b) = src.next_batch() {
            streamed.push(b);
        }
        assert_eq!(
            streamed, trace.batches,
            "{}: streamed batches diverge from the materialized trace",
            spec.name
        );
        // Replay = rebuild: a second source from equal params is identical.
        let again = spec.source(&p).unwrap().materialize();
        assert_eq!(again, trace, "{}: source is not replayable", spec.name);
    }
}

#[test]
fn engine_meters_match_across_stream_and_replay_for_every_protocol() {
    let reg = dds_bench::protocols();
    for spec in registry::workloads() {
        let p = small_params();
        let trace = registry::build_trace(spec.name, &p).unwrap();
        for proto in reg.specs() {
            let run = |src: &mut dyn TraceSource| {
                let mut session = proto.open(src.n(), SimConfig::default());
                session.drain(src);
                session.fingerprint()
            };
            let a = run(&mut trace.replay());
            let b = run(&mut *spec.source(&p).unwrap());
            let ctx = format!("{} over {}", proto.name, spec.name);
            a.assert_same(&b, Claim::Same, &ctx);
        }
    }
}

#[test]
fn query_responses_match_across_stream_and_replay() {
    // Drive the same workload twice — once batch-by-batch from the
    // materialized trace, once from a live stream — and compare the
    // fingerprint and every supported query at every node after every
    // round (an `Inconsistent` answer shows a node's consistency flag).
    let p = small_params();
    let trace = registry::build_trace("planted-clique", &p).unwrap();
    let mut src = registry::build_source("planted-clique", &p).unwrap();
    let open = || dds_bench::protocols().open("triangle", trace.n, SimConfig::default());
    let (mut from_trace, mut from_stream) = (open().unwrap(), open().unwrap());
    for (i, batch) in trace.batches.iter().enumerate() {
        from_trace.step(batch);
        from_stream.step(&src.next_batch().expect("stream keeps pace"));
        let ctx = format!("round {}", i + 1);
        from_trace
            .fingerprint()
            .assert_same(&from_stream.fingerprint(), Claim::Same, &ctx);
        assert_eq!(
            query_fingerprint(&from_trace, trace.n),
            query_fingerprint(&from_stream, trace.n),
            "{ctx}: query answers"
        );
    }
    assert!(src.next_batch().is_none(), "stream overran the trace");
}

#[test]
fn scheduler_results_are_jobs_invariant() {
    // seeds × sizes × protocols grid, --jobs 1 vs --jobs 4: bit-identical
    // summaries in identical (seed-ordered) positions.
    let points = scheduler::grid(
        &["two-hop", "triangle", "snapshot"],
        &[12, 18],
        &[1, 2, 3],
        "er",
        30,
    );
    let cfg = SimConfig::default();
    let one: Vec<_> = scheduler::run_points(points.clone(), cfg, 1)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let many: Vec<_> = scheduler::run_points(points, cfg, 4)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(one.len(), many.len());
    for (i, (a, b)) in one.iter().zip(&many).enumerate() {
        assert_eq!(a.protocol, b.protocol, "point {i}");
        a.outcome()
            .assert_same(&b.outcome(), &format!("point {i} ({})", a.protocol));
    }
}

#[test]
fn sweep_statistics_are_jobs_invariant() {
    let measure = |seed: u64| {
        let mut src = registry::build_source(
            "er",
            &Params::new()
                .with("n", 16)
                .with("rounds", 40)
                .with("seed", seed),
        )
        .unwrap();
        let sim: Simulator<TwoHopNode> =
            dynamic_subgraphs::net::drive_source(&mut src, SimConfig::default());
        sim.meter().amortized()
    };
    let a = dds_bench::sweep_jobs(7, 12, 1, measure);
    let b = dds_bench::sweep_jobs(7, 12, 5, measure);
    assert_eq!(a, b, "sweep stats depend on worker count");
}

#[test]
fn streamed_run_settles_to_the_same_answers() {
    // End-to-end: stream a workload, then settle and ask a query — same
    // verdicts as the materialized drive.
    let p = Params::new()
        .with("n", 14)
        .with("rounds", 50)
        .with("seed", 3);
    let trace = registry::build_trace("flicker", &p).unwrap();
    let mut via_trace: Simulator<TwoHopNode> =
        dynamic_subgraphs::net::drive_source(&mut trace.replay(), SimConfig::default());
    let mut src = registry::build_source("flicker", &p).unwrap();
    let mut via_stream: Simulator<TwoHopNode> =
        dynamic_subgraphs::net::drive_source(&mut src, SimConfig::default());
    via_trace.settle(256).expect("settles");
    via_stream.settle(256).expect("settles");
    for v in 0..14u32 {
        let v = NodeId(v);
        for w in 0..14u32 {
            if v.0 == w {
                continue;
            }
            let e = dynamic_subgraphs::net::edge(v.0, w);
            let a: Response<bool> = via_trace.node(v).query_edge(e);
            let b: Response<bool> = via_stream.node(v).query_edge(e);
            assert_eq!(a, b, "query_edge({e:?}) at v{} diverged", v.0);
        }
    }
}
