//! Experiment runners: one function per paper claim (see DESIGN.md's
//! per-experiment index). Each returns a [`Table`] that the `experiments`
//! binary prints.

use crate::scheduler;
use crate::table::{f2, f3, Table};
use dds_baselines::SnapshotNode;
use dds_net::engine::{drive, drive_source};
use dds_net::{BoxedSource, NodeId, Query, Response, Session, SimConfig, Simulator, Trace};
use dds_oracle::DynamicGraph;
use dds_robust::{listing_verdict, ThreeHopNode, TwoHopNode};
use dds_workloads::{bounds, registry, staggered_flicker_trace, Params, Thm4Adversary, Workload};
use rustc_hash::FxHashSet;

/// Standard problem sizes for the O(1)-amortized sweeps.
pub const SWEEP_NS: [usize; 4] = [64, 128, 256, 512];

/// Build a registered workload's trace, panicking on schema errors (the
/// experiment definitions are static, so a failure here is a bug).
fn trace_for(workload: &str, params: Params) -> Trace {
    registry::build_trace(workload, &params).unwrap_or_else(|e| panic!("workload {workload}: {e}"))
}

/// Build a registered workload's streaming source, panicking on schema
/// errors (static experiment definitions again).
fn source_for(workload: &str, params: Params) -> BoxedSource {
    registry::build_source(workload, &params).unwrap_or_else(|e| panic!("workload {workload}: {e}"))
}

/// Open an erased session of a registered protocol under the default
/// config, panicking on unknown names (the experiment definitions are
/// static, so a failure here is a bug).
fn open(protocol: &str, n: usize) -> Session {
    crate::driver::protocols()
        .open(protocol, n, SimConfig::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Ask one cycle query at every node of the candidate cycle through the
/// erased session — the paper's listing guarantee quantifies over all
/// participants, so verdicts come from [`listing_verdict`] on the lot.
fn cycle_responses(session: &Session, cyc: &[NodeId]) -> Vec<Response<bool>> {
    let q = Query::Cycle(cyc.to_vec());
    cyc.iter()
        .map(|&v| {
            session
                .query(v, &q)
                .expect("protocol answers cycle queries")
                .map(|a| a.as_bool().expect("membership verdict"))
        })
        .collect()
}

fn er_trace(n: usize, rounds: usize, seed: u64) -> Trace {
    trace_for(
        "er",
        Params::new()
            .with("n", n)
            .with("rounds", rounds)
            .with("seed", seed),
    )
}

fn run_on<N: dds_net::Node>(trace: &Trace) -> Simulator<N> {
    drive(trace, SimConfig::default())
}

/// E1 — Theorem 7: robust 2-hop maintenance has O(1) amortized complexity,
/// independent of n, across workloads.
pub fn e1_two_hop(rounds: usize) -> Table {
    e1_two_hop_sizes(&SWEEP_NS, rounds)
}

/// E1 over explicit sizes (reduced configs for CI smoke runs).
pub fn e1_two_hop_sizes(ns: &[usize], rounds: usize) -> Table {
    let mut t = Table::new(
        "E1 / Theorem 7 — robust 2-hop neighborhood: amortized rounds per change",
        &[
            "n",
            "workload",
            "changes",
            "inc.rounds",
            "amortized",
            "bits/link/round",
        ],
    );
    // One scheduler job per (size, workload) cell; every cell streams its
    // workload (nothing materialized) and rows aggregate in input order.
    // Cells run sequentially (jobs = 1): table-level parallelism belongs
    // to the experiments binary's --jobs fan-out, and sequential cells
    // keep per-table seconds comparable with the recorded BENCH_* runs.
    let mut cells: Vec<(usize, &'static str, String, Params)> = Vec::new();
    for &n in ns {
        let base = Params::new().with("n", n).with("rounds", rounds);
        cells.push((
            n,
            "er-churn",
            "er".into(),
            base.clone().with("seed", 17 + n as u64),
        ));
        cells.push((
            n,
            "flicker",
            "flicker".into(),
            base.clone().with("seed", 23 + n as u64),
        ));
        cells.push((
            n,
            "p2p",
            "p2p".into(),
            base.clone()
                .with("seed", 31 + n as u64)
                .with("triadic", true),
        ));
    }
    let rows = scheduler::map_ordered(1, cells, |_, (n, name, workload, params)| {
        let mut src = source_for(&workload, params);
        let sim: Simulator<TwoHopNode> = drive_source(&mut src, SimConfig::default());
        let m = sim.meter();
        let links = sim.topology().edge_count().max(1) as f64;
        vec![
            n.to_string(),
            name.into(),
            m.changes().to_string(),
            m.inconsistent_rounds().to_string(),
            f3(m.amortized()),
            f2(sim.bandwidth().total_bits() as f64 / m.rounds() as f64 / links),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note("paper: O(1) amortized (flat in n); budget = 8·ceil(log2 n) bits/link/round");
    t
}

/// E2 — Theorem 1: triangle membership listing, O(1) amortized and exact
/// against the ground truth. Dispatched through the erased session API —
/// the cell never names a node type, only the registry name.
pub fn e2_triangle(rounds: usize) -> Table {
    let mut t = Table::new(
        "E2 / Theorem 1 — triangle membership listing",
        &[
            "n",
            "changes",
            "amortized",
            "audits",
            "exact",
            "max tri/node",
        ],
    );
    for &n in &SWEEP_NS {
        let trace = trace_for(
            "planted-clique",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 71 + n as u64)
                .with("k", 3)
                .with("spacing", 6)
                .with("lifetime", 40)
                .with("noise", 2),
        );
        let mut session = open("triangle", n);
        let mut g = DynamicGraph::new(n);
        let mut audits = 0u64;
        let mut exact = 0u64;
        let mut max_tri = 0usize;
        for (i, b) in trace.batches.iter().enumerate() {
            session.step(b);
            g.apply(b);
            if (i + 1) % 10 != 0 {
                continue;
            }
            for off in 0..4u32 {
                let v = NodeId((i as u32 * 13 + off * 29) % n as u32);
                let resp = session
                    .query(v, &Query::ListTriangles)
                    .expect("triangle protocol lists triangles");
                if let Response::Answer(ans) = resp {
                    audits += 1;
                    let mut listed = ans.as_triangles().expect("triangle listing").to_vec();
                    listed.sort();
                    let mut truth = g.triangles_containing(v);
                    truth.sort();
                    if listed == truth {
                        exact += 1;
                    }
                    max_tri = max_tri.max(listed.len());
                }
            }
        }
        t.row(vec![
            n.to_string(),
            session.meter().changes().to_string(),
            f3(session.meter().amortized()),
            audits.to_string(),
            exact.to_string(),
            max_tri.to_string(),
        ]);
    }
    t.note("exact == audits required (membership listing is exact when consistent)");
    t
}

/// E3 — Corollary 1: k-clique membership listing for k ∈ {3,4,5,6}, O(1)
/// amortized, exact.
pub fn e3_cliques(rounds: usize) -> Table {
    let mut t = Table::new(
        "E3 / Corollary 1 — k-clique membership listing",
        &["k", "n", "amortized", "cliques verified", "errors"],
    );
    for k in [3usize, 4, 5, 6] {
        let n = 96;
        let trace = trace_for(
            "planted-clique",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 100 + k as u64)
                .with("k", k)
                .with("spacing", k * k)
                .with("lifetime", 60)
                .with("noise", 1),
        );
        let mut session = open("triangle", n);
        let mut g = DynamicGraph::new(n);
        let mut verified = 0u64;
        let mut errors = 0u64;
        for (i, b) in trace.batches.iter().enumerate() {
            session.step(b);
            g.apply(b);
            if (i + 1) % 15 != 0 {
                continue;
            }
            for v in (0..n as u32).step_by(11) {
                let v = NodeId(v);
                let resp = session
                    .query(v, &Query::ListCliques(k))
                    .expect("triangle protocol lists cliques");
                if let Response::Answer(ans) = resp {
                    let listed = ans.as_vertex_sets().expect("clique listing");
                    let truth: FxHashSet<Vec<NodeId>> =
                        g.cliques_containing(v, k).into_iter().collect();
                    let got: FxHashSet<Vec<NodeId>> = listed.iter().cloned().collect();
                    verified += truth.len() as u64;
                    if got != truth {
                        errors += 1;
                    }
                }
            }
        }
        t.row(vec![
            k.to_string(),
            n.to_string(),
            f3(session.meter().amortized()),
            verified.to_string(),
            errors.to_string(),
        ]);
    }
    t.note("amortized stays flat in k: one triangle structure serves every clique size");
    t
}

/// E4 — Theorem 2 / Corollary 2: full 2-hop listing on the Theorem-2
/// adversary costs Θ(n / log n) amortized (measured on the optimal
/// Lemma-1 snapshot algorithm), versus the flat robust structure.
pub fn e4_lower_bound_2hop_sizes(ns: &[usize]) -> Table {
    let mut t = Table::new(
        "E4 / Theorem 2 + Corollary 2 — the Ω(n/log n) wall for non-clique membership listing",
        &[
            "H",
            "n",
            "snapshot amortized",
            "bound n/log2 n",
            "meas/bound",
            "robust-2hop amortized",
        ],
    );
    for (pattern_name, pattern) in [("P3", "p3"), ("K4-e", "k4-e")] {
        for &n in ns {
            let trace = trace_for("thm2", Params::new().with("n", n).with("pattern", pattern));
            let snap: Simulator<SnapshotNode> = run_on(&trace);
            let robust: Simulator<TwoHopNode> = run_on(&trace);
            let bound = bounds::thm2_amortized_bound(n as u64);
            t.row(vec![
                pattern_name.into(),
                n.to_string(),
                f3(snap.meter().amortized()),
                f2(bound),
                f3(snap.meter().amortized() / bound),
                f3(robust.meter().amortized()),
            ]);
        }
    }
    t.note(
        "snapshot (= optimal full 2-hop listing) grows like n/log n; the robust subset stays O(1)",
    );
    t.note("the robust structure answers a weaker (but per Thm 1 sufficient) query — that is the paper's point");
    t
}

/// E4 with the standard size sweep.
pub fn e4_lower_bound_2hop() -> Table {
    e4_lower_bound_2hop_sizes(&[32, 64, 128, 256])
}

/// E5 — Theorem 6: robust 3-hop maintenance, O(1) amortized across sizes
/// and workloads.
pub fn e5_three_hop(rounds: usize) -> Table {
    e5_three_hop_sizes(&SWEEP_NS, rounds)
}

/// E5 over explicit sizes (reduced configs for CI smoke runs).
pub fn e5_three_hop_sizes(ns: &[usize], rounds: usize) -> Table {
    let mut t = Table::new(
        "E5 / Theorem 6 — robust 3-hop neighborhood: amortized rounds per change",
        &["n", "workload", "changes", "amortized", "bits/link/round"],
    );
    let mut cells: Vec<(usize, &'static str, String, Params)> = Vec::new();
    for &n in ns {
        let base = Params::new().with("n", n).with("rounds", rounds);
        cells.push((
            n,
            "er-churn",
            "er".into(),
            base.clone().with("seed", 41 + n as u64),
        ));
        cells.push((
            n,
            "flicker",
            "flicker".into(),
            base.clone().with("seed", 43 + n as u64),
        ));
    }
    let rows = scheduler::map_ordered(1, cells, |_, (n, name, workload, params)| {
        let mut src = source_for(&workload, params);
        let sim: Simulator<ThreeHopNode> = drive_source(&mut src, SimConfig::default());
        let m = sim.meter();
        let links = sim.topology().edge_count().max(1) as f64;
        vec![
            n.to_string(),
            name.into(),
            m.changes().to_string(),
            f3(m.amortized()),
            f2(sim.bandwidth().total_bits() as f64 / m.rounds() as f64 / links),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note("paper: O(1) amortized with constant ≈ 3 (+ flag echoes); flat in n");
    t
}

/// E6 — Theorems 3/5: 4- and 5-cycle listing coverage under churn.
pub fn e6_cycles(rounds: usize) -> Table {
    let mut t = Table::new(
        "E6 / Theorems 3+5 — 4-/5-cycle listing",
        &["k", "n", "amortized", "audits", "listed", "false positives"],
    );
    for k in [4usize, 5] {
        let n = 40;
        let raw = trace_for(
            "planted-cycle",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 200 + k as u64)
                .with("k", k)
                .with("spacing", 8)
                .with("lifetime", 50)
                .with("noise", 1),
        );
        // Give the 3-hop structure air between bursts.
        let mut trace = Trace::new(n);
        for b in &raw.batches {
            trace.push(b.clone());
            for _ in 0..4 {
                trace.push(dds_net::EventBatch::new());
            }
        }
        let mut session = open("three-hop", n);
        let mut g = DynamicGraph::new(n);
        let (mut audits, mut listed, mut false_pos) = (0u64, 0u64, 0u64);
        for (i, b) in trace.batches.iter().enumerate() {
            session.step(b);
            g.apply(b);
            if (i + 1) % 25 != 0 {
                continue;
            }
            for cyc in g.all_cycles(k) {
                let responses = cycle_responses(&session, &cyc);
                if responses.iter().any(|r| r.is_inconsistent()) {
                    continue;
                }
                audits += 1;
                if listing_verdict(&responses) == Some(true) {
                    listed += 1;
                }
            }
            // Phantom probes: shuffled non-cycles must never be claimed.
            for probe in 0..5u32 {
                let mut vs: Vec<NodeId> = (0..k as u32)
                    .map(|j| NodeId((i as u32 * 7 + probe * 13 + j * 17) % n as u32))
                    .collect();
                vs.sort_unstable();
                vs.dedup();
                if vs.len() < k || g.is_cycle(&vs) {
                    continue;
                }
                for r in cycle_responses(&session, &vs) {
                    if r == Response::Answer(true) {
                        false_pos += 1;
                    }
                }
            }
        }
        t.row(vec![
            k.to_string(),
            n.to_string(),
            f3(session.meter().amortized()),
            audits.to_string(),
            listed.to_string(),
            false_pos.to_string(),
        ]);
    }
    t.note("listed == audits required (every settled cycle caught); false positives must be 0");
    t
}

/// E7 — Theorem 4 (+ Figure 4): the Ω(√n/log n) wall at 6-cycles; the
/// O(1) structure demonstrably cannot list them.
pub fn e7_six_cycle_wall_rows(row_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E7 / Theorem 4 + Figure 4 — 6-cycle listing is not O(1)",
        &[
            "n",
            "t(rows)",
            "D",
            "bound √n/log2 n",
            "bits/merge Ω(D)",
            "6-cycles",
            "missed by O(1) struct",
        ],
    );
    for &rows in row_counts {
        let d = 3 * rows;
        let mut adv = Thm4Adversary::new(6, rows, d, 8, 0xE7 + rows as u64);
        let n = adv.n();
        let mut session = open("three-hop", n);
        let cutoff = adv.phase1_rounds() + 1;
        let mut steps = 0;
        while let Some(b) = adv.next_batch() {
            session.step(&b);
            steps += 1;
            if steps == cutoff {
                break;
            }
        }
        session.settle(4 * n + 64).expect("stabilizes");
        let shared: Vec<usize> = adv.subsets()[1]
            .iter()
            .copied()
            .filter(|j| adv.subsets()[0].contains(j))
            .collect();
        let mut missed = 0usize;
        for &j in &shared {
            let cyc = adv.merge_cycle6(1, 0, j);
            if listing_verdict(&cycle_responses(&session, &cyc)) != Some(true) {
                missed += 1;
            }
        }
        t.row(vec![
            n.to_string(),
            rows.to_string(),
            d.to_string(),
            f2(bounds::thm4_amortized_bound(n as u64)),
            f2(bounds::thm4_bits_per_merge(d as u64)),
            shared.len().to_string(),
            missed.to_string(),
        ]);
    }
    t.note("missed == 6-cycles required: the robust 3-hop structure (correct for 4-/5-cycles)");
    t.note("cannot see across the merge — exactly the information bottleneck Theorem 4 counts");
    t
}

/// E7 with the standard row sweep.
pub fn e7_six_cycle_wall() -> Table {
    e7_six_cycle_wall_rows(&[3, 4, 6])
}

/// E8 — Lemma 1: the snapshot algorithm's amortized cost grows Θ(n/log n)
/// on insertion-heavy workloads.
pub fn e8_snapshot_scaling() -> Table {
    let mut t = Table::new(
        "E8 / Lemma 1 — full 2-hop listing via snapshots: Θ(n/log n) amortized",
        &["n", "changes", "amortized", "n/log2 n", "meas/bound"],
    );
    for &n in &[64usize, 128, 256, 512] {
        // Insertion-heavy: a star center accumulating spokes forces ever
        // larger snapshot transfers. Each insertion is allowed to settle,
        // so the meter sees the full Θ(n/log n) drain (back-to-back
        // changes would cap the ratio at the wall clock).
        let mut sim: Simulator<SnapshotNode> = Simulator::new(n);
        for w in 1..n as u32 {
            sim.step(&dds_net::EventBatch::insert(dds_net::Edge::new(
                NodeId(0),
                NodeId(w),
            )));
            sim.settle(8 * n).expect("snapshot must drain");
        }
        let bound = bounds::thm2_amortized_bound(n as u64);
        t.row(vec![
            n.to_string(),
            sim.meter().changes().to_string(),
            f3(sim.meter().amortized()),
            f2(bound),
            f3(sim.meter().amortized() / bound),
        ]);
    }
    t.note("matching upper bound for Theorem 2 / Corollary 2: optimal up to constants");
    t
}

/// E9 — Remark 1: the √n/log n bound already applies to 3-path listing;
/// bound curve plus the measured cost of the only correct baseline.
pub fn e9_remark1() -> Table {
    let mut t = Table::new(
        "E9 / Remark 1 — 3-path listing lower bound",
        &["n", "t(rows)", "D", "bound √n/log2 n", "snapshot amortized"],
    );
    for rows in [4usize, 6, 8] {
        let d = 3 * rows;
        let trace = trace_for(
            "remark1",
            Params::new()
                .with("rows", rows)
                .with("d", d)
                .with("stabilize", 4 * d)
                .with("seed", 0xE9 + rows as u64),
        );
        let n = trace.n;
        let sim: Simulator<SnapshotNode> = run_on(&trace);
        t.row(vec![
            n.to_string(),
            rows.to_string(),
            d.to_string(),
            f2(bounds::thm4_amortized_bound(n as u64)),
            f3(sim.meter().amortized()),
        ]);
    }
    t.note("already 4-vertex subgraphs (3-edge paths) hit the √n/log n wall");
    t
}

/// F2/F3 — Figures 2 and 3 as data: what fraction of the full r-hop edge
/// set the robust subsets capture across workloads.
pub fn f23_coverage(rounds: usize) -> Table {
    let mut t = Table::new(
        "F2+F3 / Figures 2+3 — robust-set coverage of the full neighborhoods",
        &["workload", "|R2|/|E2|", "|T2|/|E2|", "|R3|/|E3|"],
    );
    let base = Params::new().with("n", 64).with("rounds", rounds);
    for (name, trace) in [
        ("er-churn", er_trace(64, rounds, 301)),
        (
            "p2p",
            trace_for("p2p", base.clone().with("seed", 303).with("triadic", true)),
        ),
        (
            "sliding",
            trace_for("sliding", base.clone().with("seed", 305)),
        ),
    ] {
        let mut g = DynamicGraph::new(trace.n);
        let (mut r2, mut t2, mut e2, mut r3, mut e3) = (0usize, 0usize, 0usize, 0usize, 0usize);
        for (i, b) in trace.batches.iter().enumerate() {
            g.apply(b);
            if (i + 1) % 25 != 0 {
                continue;
            }
            for v in (0..trace.n as u32).step_by(9) {
                let v = NodeId(v);
                r2 += g.robust_two_hop(v).len();
                t2 += g.triangle_patterns(v).len();
                e2 += g.r_hop_edges(v, 2).len();
                r3 += g.robust_three_hop(v).len();
                e3 += g.r_hop_edges(v, 3).len();
            }
        }
        t.row(vec![
            name.into(),
            f3(r2 as f64 / e2.max(1) as f64),
            f3(t2 as f64 / e2.max(1) as f64),
            f3(r3 as f64 / e3.max(1) as f64),
        ]);
    }
    t.note("the maintainable subsets are large fractions of the (unmaintainable) full sets");
    t
}

/// A1 — §1.3 ablation: removing timestamps breaks correctness under the
/// staggered flicker; the sound structure stays exact.
pub fn a1_timestamp_ablation() -> Table {
    let mut t = Table::new(
        "A1 / §1.3 ablation — timestamps removed ⇒ flicker corrupts the structure",
        &[
            "structure",
            "consistent?",
            "believes {u,w} exists?",
            "ground truth",
            "verdict",
        ],
    );
    let trace = staggered_flicker_trace();
    let probe = Query::Edge(dds_net::edge(1, 2));

    let mut naive = open("naive", trace.n);
    let mut sound = open("two-hop", trace.n);
    naive.run_trace(&trace);
    sound.run_trace(&trace);
    let ask = |s: &Session| -> Response<bool> {
        s.query(NodeId(0), &probe)
            .expect("every protocol answers edge queries")
            .map(|a| a.as_bool().expect("membership verdict"))
    };
    let naive_ans = ask(&naive);
    let sound_ans = ask(&sound);
    t.row(vec![
        "no-timestamp strawman".into(),
        naive.node_consistent(NodeId(0)).to_string(),
        format!("{naive_ans:?}"),
        "deleted".into(),
        if naive_ans == Response::Answer(true) {
            "WRONG (phantom edge)".into()
        } else {
            "unexpectedly correct".into()
        },
    ]);
    t.row(vec![
        "robust 2-hop (Thm 7)".into(),
        sound.node_consistent(NodeId(0)).to_string(),
        format!("{sound_ans:?}"),
        "deleted".into(),
        if sound_ans == Response::Answer(false) {
            "correct".into()
        } else {
            "REGRESSION".into()
        },
    ]);
    t.note("the staggered flicker of §1.3: far-edge deletion hidden by precisely-timed link flaps");
    t
}

/// A2 — ablation: 2-hop knowledge (even the full pattern set T^{v,2}) is
/// not enough for 4-/5-cycle listing; the 3-hop patterns are necessary.
pub fn a2_two_hop_insufficient(rounds: usize) -> Table {
    let mut t = Table::new(
        "A2 / ablation — cycle coverage by 2-hop vs 3-hop pattern sets (oracle-evaluated)",
        &[
            "k",
            "cycles seen",
            "covered by T^{v,2}",
            "covered by R^{v,3}",
        ],
    );
    for k in [4usize, 5] {
        let trace = trace_for(
            "planted-cycle",
            Params::new()
                .with("n", 32)
                .with("rounds", rounds)
                .with("seed", 500 + k as u64)
                .with("k", k)
                .with("spacing", 9)
                .with("lifetime", 40)
                .with("noise", 1),
        );
        let mut g = DynamicGraph::new(trace.n);
        let (mut seen, mut cov2, mut cov3) = (0u64, 0u64, 0u64);
        for (i, b) in trace.batches.iter().enumerate() {
            g.apply(b);
            if (i + 1) % 20 != 0 {
                continue;
            }
            for cyc in g.all_cycles(k) {
                seen += 1;
                let edges: Vec<dds_net::Edge> = (0..k)
                    .map(|i| dds_net::Edge::new(cyc[i], cyc[(i + 1) % k]))
                    .collect();
                if cyc.iter().any(|&v| {
                    let t2 = g.triangle_patterns(v);
                    edges.iter().all(|e| t2.contains(e))
                }) {
                    cov2 += 1;
                }
                if cyc.iter().any(|&v| {
                    let r3 = g.robust_three_hop(v);
                    edges.iter().all(|e| r3.contains(e))
                }) {
                    cov3 += 1;
                }
            }
        }
        t.row(vec![
            k.to_string(),
            seen.to_string(),
            cov2.to_string(),
            cov3.to_string(),
        ]);
    }
    t.note("R^{v,3} covers every cycle (Theorem 5's guarantee); T^{v,2} provably misses some");
    t
}

/// A3 — bandwidth: bits per link per round across algorithms on the same
/// workload; flooding as the unbounded-bandwidth calibrator.
pub fn a3_bandwidth(rounds: usize) -> Table {
    let mut t = Table::new(
        "A3 / bandwidth — bits per link-round on the same ER-churn workload (n=128)",
        &[
            "algorithm",
            "total bits",
            "bits/link/round",
            "budget",
            "violations",
        ],
    );
    let trace = er_trace(128, rounds, 777);

    // One registry dispatch per algorithm: the flood entry switches its own
    // bandwidth policy to `Observe`, everything else enforces.
    for (label, protocol) in [
        ("robust 2-hop", "two-hop"),
        ("triangle membership", "triangle"),
        ("robust 3-hop", "three-hop"),
        ("snapshot 2-hop (Lemma 1)", "snapshot"),
        ("flooding (calibrator)", "flood"),
    ] {
        let s = crate::driver::protocols()
            .run(protocol, &trace, SimConfig::default())
            .expect("registered protocol");
        let links = s.final_edges.max(1) as f64;
        t.row(vec![
            label.into(),
            s.bits.to_string(),
            f2(s.bits as f64 / s.rounds as f64 / links),
            s.budget_bits.to_string(),
            s.violations.to_string(),
        ]);
    }
    t.note("all CONGEST algorithms stay within budget (0 violations); flooding shows the cost of ignoring it");
    t
}

/// S1 — the streamed scenario tier: runs at sizes whose schedules would be
/// wasteful (or impossible) to hold in memory. Every row is driven from a
/// lazy [`TraceSource`](dds_net::TraceSource) — exactly one batch alive at
/// a time — through the batch scheduler, and reports the process peak RSS
/// next to an estimate of what the materialized trace alone would occupy
/// (events only, excluding per-batch overhead: a deliberate underestimate).
pub fn s1_streamed_tier(n: usize, rounds: usize, jobs: usize) -> Table {
    let mut t = Table::new(
        "S1 / streamed tier — large-n runs the materialized path cannot hold",
        &[
            "workload",
            "n",
            "rounds",
            "changes",
            "final edges",
            "rounds/s",
            "peak RSS MB",
            "est. trace MB",
        ],
    );
    // Rolling-window uniform churn (a rolling Erdős–Rényi: random pairs
    // arrive, expire after `window` rounds) and the flicker stress. Both
    // generators emit O(batch) state per round, so the streamed run's
    // memory is bounded by the simulator, not the schedule.
    let cells: Vec<(&'static str, &'static str, Params)> = vec![
        (
            "rolling-er (sliding)",
            "sliding",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0x51)
                .with("arrivals", (n / 25).max(1))
                .with("window", 10),
        ),
        (
            "flicker",
            "flicker",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0xF1)
                .with("flickering", n / 4)
                .with("period", 2),
        ),
    ];
    let rows = scheduler::map_ordered(jobs, cells, |_, (label, workload, params)| {
        let mut src = source_for(workload, params);
        let s = crate::driver::protocols()
            .run_stream("two-hop", &mut src, SimConfig::default())
            .expect("two-hop is registered");
        let est_mb = s.changes as f64 * std::mem::size_of::<dds_net::TopologyEvent>() as f64
            / (1024.0 * 1024.0);
        vec![
            label.to_string(),
            s.n.to_string(),
            s.rounds.to_string(),
            s.changes.to_string(),
            s.final_edges.to_string(),
            f2(s.rounds_per_sec),
            f2(s.peak_rss_mb),
            f2(est_mb),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note("driven end-to-end from lazy TraceSources: one batch in memory at any time");
    t.note(
        "peak RSS is the growth of the process high-water mark over the run (VmHWM minus a \
         baseline at run start) — if an earlier run in this process peaked higher, a row can \
         read 0; standalone runs (`dds simulate --stream`, CI perf-smoke) are the \
         authoritative measurement. est. trace = events only",
    );
    t
}

/// S2 — the large-n / **low-churn** tier: the regime where the paper's
/// O(1) recovery guarantees shine (huge network, a trickle of changes)
/// and where the round loop used to be simulation-bound at Ω(n + m) per
/// round regardless of batch size. Each workload runs twice — once per
/// round engine — on identical streamed schedules; `changes` and
/// `peak active` are deterministic and must agree row-for-row across
/// engines (the differential tests lock the full bit-identity), while
/// `rounds/s` and `speedup` are the wall-clock payoff: the sparse engine
/// does O(churn + traffic) work per round instead of visiting all `n`
/// nodes.
pub fn s2_low_churn_tier(n: usize, rounds: usize) -> Table {
    use dds_net::Engine;
    let mut t = Table::new(
        "S2 / low-churn tier — activity-proportional rounds: sparse vs dense engine",
        &[
            "workload",
            "engine",
            "n",
            "rounds",
            "changes",
            "peak active",
            "rounds/s",
            "speedup vs dense",
        ],
    );
    let cells: Vec<(&'static str, &'static str, Params)> = vec![
        (
            "rolling-er trickle",
            "sliding",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0x52)
                .with("arrivals", 8)
                .with("window", 10),
        ),
        (
            "er drizzle",
            "er",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0x52)
                .with("target-edges", (n / 10).max(8))
                .with("changes-per-round", 4),
        ),
    ];
    for (label, workload, params) in cells {
        let run = |engine: Engine| {
            let cfg = SimConfig {
                engine,
                record_stats: true,
                ..SimConfig::default()
            };
            let mut src = source_for(workload, params.clone());
            crate::driver::protocols()
                .run_stream("two-hop", &mut src, cfg)
                .expect("two-hop is registered")
        };
        let dense = run(Engine::Dense);
        let sparse = run(Engine::Sparse);
        for (engine, s) in [("dense", &dense), ("sparse", &sparse)] {
            t.row(vec![
                label.to_string(),
                engine.to_string(),
                s.n.to_string(),
                s.rounds.to_string(),
                s.changes.to_string(),
                s.peak_round_active.to_string(),
                f2(s.rounds_per_sec),
                if engine == "dense" {
                    "1.00".to_string()
                } else {
                    f2(s.rounds_per_sec / dense.rounds_per_sec.max(1e-9))
                },
            ]);
        }
    }
    t.note("identical streamed schedules per workload; changes must match across engines");
    t.note("rounds/s and speedup are wall-clock (machine-dependent); the acceptance bar is");
    t.note("sparse >= 5x dense at n = 100k — activity, not n, now prices a round");
    t
}

/// S3 — the sharded **million-node** tier: the regime the sharded engine
/// exists for (n ≥ 10⁶, a trickle of churn, streamed schedules). Each
/// workload runs twice on identical streamed low-churn schedules — one
/// shard inline vs K shards fanned over the worker pool — and every
/// deterministic output (meters bit-for-bit via `f64::to_bits`, traffic
/// totals, per-round peaks) is asserted identical *inside the runner*, so
/// a row only ever prints with `identical = yes`. Wall clock is the one
/// column allowed to differ: `speedup` is the multi-core payoff, and on a
/// single-core host (empty pool) it hovers near 1.
pub fn s3_sharded_tier(n: usize, rounds: usize) -> Table {
    use dds_net::Shards;
    let mut t = Table::new(
        "S3 / sharded tier — million-node rounds on worker shards, bit-identical to sequential",
        &[
            "workload",
            "mode",
            "n",
            "rounds",
            "changes",
            "peak active",
            "rounds/s",
            "speedup",
            "identical",
        ],
    );
    let shards = scheduler::available_jobs().max(2);
    let cells: Vec<(&'static str, &'static str, Params)> = vec![
        (
            "rolling-er trickle",
            "sliding",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0x53)
                .with("arrivals", (n / 2000).max(8))
                .with("window", 10),
        ),
        (
            "er drizzle",
            "er",
            Params::new()
                .with("n", n)
                .with("rounds", rounds)
                .with("seed", 0x53)
                .with("target-edges", (n / 10).max(8))
                .with("changes-per-round", 8),
        ),
    ];
    for (label, workload, params) in cells {
        let run = |shards: Shards| {
            let cfg = SimConfig {
                shards,
                record_stats: true,
                ..SimConfig::default()
            };
            let mut src = source_for(workload, params.clone());
            crate::driver::protocols()
                .run_stream("two-hop", &mut src, cfg)
                .expect("two-hop is registered")
        };
        // Untimed warm-up: the first run over a fresh million-node arena
        // pays every page fault; without it the second run's warmed heap
        // masquerades as a ~2x "speedup" even on one core.
        let warm = run(Shards::Fixed(1));
        let seq = run(Shards::Fixed(1));
        let shd = run(Shards::Fixed(shards));
        // Free extra determinism check: two identical runs, identical bits.
        assert_eq!(
            warm.amortized.to_bits(),
            seq.amortized.to_bits(),
            "{label}: repeat run diverged"
        );
        // The tier's contract, enforced at run time: sharded execution may
        // only change wall clock, never a single output bit.
        assert_eq!(seq.changes, shd.changes, "{label}: changes diverged");
        assert_eq!(
            seq.inconsistent_rounds, shd.inconsistent_rounds,
            "{label}: inconsistent rounds diverged"
        );
        assert_eq!(
            seq.amortized.to_bits(),
            shd.amortized.to_bits(),
            "{label}: amortized meter diverged"
        );
        assert_eq!(
            seq.footnote_amortized.to_bits(),
            shd.footnote_amortized.to_bits(),
            "{label}: footnote meter diverged"
        );
        assert_eq!(seq.messages, shd.messages, "{label}: messages diverged");
        assert_eq!(seq.bits, shd.bits, "{label}: bits diverged");
        assert_eq!(
            seq.final_edges, shd.final_edges,
            "{label}: final edges diverged"
        );
        assert_eq!(
            seq.peak_round_messages, shd.peak_round_messages,
            "{label}: peak round messages diverged"
        );
        assert_eq!(
            seq.peak_round_bits, shd.peak_round_bits,
            "{label}: peak round bits diverged"
        );
        assert_eq!(
            seq.peak_round_active, shd.peak_round_active,
            "{label}: peak round active diverged"
        );
        for (mode, s) in [
            ("1 shard, inline".to_string(), &seq),
            (format!("{} shards, pooled", shd.shards), &shd),
        ] {
            t.row(vec![
                label.to_string(),
                mode,
                s.n.to_string(),
                s.rounds.to_string(),
                s.changes.to_string(),
                s.peak_round_active.to_string(),
                f2(s.rounds_per_sec),
                f2(s.rounds_per_sec / seq.rounds_per_sec.max(1e-9)),
                "yes".to_string(),
            ]);
        }
    }
    t.note("identical streamed schedules; every deterministic column is asserted bit-identical");
    t.note("in-runner (meters compared via f64::to_bits) before a row is emitted");
    t.note("speedup is wall-clock (machine-dependent); the CI gate asks the best cell for >= 0.5x");
    t
}

/// S4 — the **skewed-activity** tier: hotspot (≥ 60 % of churn endpoints
/// in one id decile) and hub (a handful of ids on almost every change)
/// workloads, the load profiles where uniform shard boundaries put nearly
/// all work on one shard. Each cell runs twice on identical streamed
/// schedules — sequential, and balanced (activity-weighted boundaries on
/// the worker pool) — with every deterministic output asserted
/// bit-identical inside the runner. `speedup` is the balanced row's
/// wall clock over the 1-shard inline row, as in S3.
pub fn s4_skewed_tier(n: usize, rounds: usize) -> Table {
    use dds_net::Shards;
    let mut t = Table::new(
        "S4 / skewed tier — hotspot & hub churn, balanced boundaries on the pool vs sequential",
        &[
            "workload",
            "mode",
            "n",
            "rounds",
            "changes",
            "peak active",
            "rounds/s",
            "speedup",
            "identical",
        ],
    );
    let shards = scheduler::available_jobs().max(2);
    let hotspot_n = 100_000.min(n).max(2);
    let cells: Vec<(&'static str, Params)> = vec![
        (
            "hotspot decile",
            Params::new()
                .with("n", hotspot_n)
                .with("rounds", rounds)
                .with("seed", 0x54)
                .with("hot-ids", (hotspot_n / 10).max(1))
                .with("hot", 0.7)
                .with("target-edges", 2 * hotspot_n)
                .with("changes-per-round", (hotspot_n / 500).max(8)),
        ),
        (
            "hub handful",
            Params::new()
                .with("n", n.max(2))
                .with("rounds", rounds)
                .with("seed", 0x54)
                .with("hot-ids", 8)
                .with("hot", 0.8)
                .with("target-edges", (n / 4).max(64))
                .with("changes-per-round", (n / 1000).max(8)),
        ),
    ];
    for (label, params) in cells {
        let run = |shards: Shards| {
            let cfg = SimConfig {
                shards,
                record_stats: true,
                ..SimConfig::default()
            };
            let mut src = source_for("hotspot", params.clone());
            crate::driver::protocols()
                .run_stream("two-hop", &mut src, cfg)
                .expect("two-hop is registered")
        };
        // Untimed warm-up, as in S3: first touch of a fresh arena pays the
        // page faults and would otherwise inflate whichever mode runs last.
        let warm = run(Shards::Fixed(1));
        let seq = run(Shards::Fixed(1));
        let balanced = run(Shards::Fixed(shards));
        assert_eq!(
            warm.amortized.to_bits(),
            seq.amortized.to_bits(),
            "{label}: repeat run diverged"
        );
        // The tier's contract: the shard count may only move wall clock,
        // never an output bit.
        assert_eq!(seq.changes, balanced.changes, "{label}: changes diverged");
        assert_eq!(
            seq.inconsistent_rounds, balanced.inconsistent_rounds,
            "{label}: inconsistent rounds diverged"
        );
        assert_eq!(
            seq.amortized.to_bits(),
            balanced.amortized.to_bits(),
            "{label}: amortized meter diverged"
        );
        assert_eq!(
            seq.footnote_amortized.to_bits(),
            balanced.footnote_amortized.to_bits(),
            "{label}: footnote meter diverged"
        );
        assert_eq!(
            seq.messages, balanced.messages,
            "{label}: messages diverged"
        );
        assert_eq!(seq.bits, balanced.bits, "{label}: bits diverged");
        assert_eq!(
            seq.final_edges, balanced.final_edges,
            "{label}: final edges diverged"
        );
        assert_eq!(
            seq.peak_round_messages, balanced.peak_round_messages,
            "{label}: peak round messages diverged"
        );
        assert_eq!(
            seq.peak_round_bits, balanced.peak_round_bits,
            "{label}: peak round bits diverged"
        );
        assert_eq!(
            seq.peak_round_active, balanced.peak_round_active,
            "{label}: peak round active diverged"
        );
        for (mode, s) in [
            ("1 shard, inline".to_string(), &seq),
            (format!("{shards} shards, balanced"), &balanced),
        ] {
            t.row(vec![
                label.to_string(),
                mode,
                s.n.to_string(),
                s.rounds.to_string(),
                s.changes.to_string(),
                s.peak_round_active.to_string(),
                f2(s.rounds_per_sec),
                f2(s.rounds_per_sec / seq.rounds_per_sec.max(1e-9)),
                "yes".to_string(),
            ]);
        }
    }
    t.note("identical streamed hotspot schedules; deterministic columns asserted bit-identical");
    t.note("in-runner across sequential / balanced before any row is emitted");
    t.note("speedup is wall-clock over the 1-shard inline row (machine-dependent)");
    t
}

/// S5: the serving tier — a live `dds serve` daemon (real TCP, in-process,
/// ephemeral port) answering concurrent client queries *while* a dedicated
/// writer connection ingests churn round by round. Reports sustained QPS
/// and client-observed latency percentiles; the `identical` column is
/// earned by asserting, after the burst, that the daemon's checkpoint
/// document is byte-identical to a local session driven over the same
/// batches — serving must be observationally invisible.
pub fn s5_serving_tier(n: usize, rounds: usize) -> Table {
    use dds_net::serving::{loadgen, Client, LoadgenOptions, Server};

    // Every ingest verb republishes the settled view by forking the
    // writer's session, so the tier's cost scales with state size × churn
    // rounds; serving behavior, not raw scale, is what s5 measures.
    let n = n.clamp(16, 2_000);
    let churn_rounds = rounds.clamp(10, 150);
    let mut t = Table::new(
        "S5 / serving tier — dds serve: concurrent queries during ingest, serve-vs-local identity",
        &[
            "protocol",
            "n",
            "churn",
            "clients",
            "queries",
            "identical",
            "QPS",
            "latency p50 us",
            "latency p99 us",
        ],
    );
    let clients = scheduler::available_jobs().clamp(2, 4);
    let queries_per_client = 120;
    for protocol in ["two-hop", "triangle", "snapshot"] {
        let trace = er_trace(n, churn_rounds, 0x55);
        let server = Server::bind("127.0.0.1:0", crate::driver::protocols()).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        let mut admin = Client::connect(&addr).expect("connect");
        admin.open("bench", protocol, n).expect("open");

        let mix = loadgen::default_mix(n, clients * queries_per_client, &[]);
        let report = loadgen::run(
            &LoadgenOptions {
                addr,
                session: "bench".to_string(),
                clients,
                queries_per_client,
                tolerate: None,
            },
            &mix,
            &trace.batches,
        )
        .expect("loadgen run");
        assert_eq!(report.errors, 0, "{protocol}: query errors under load");
        assert_eq!(
            report.request_failures(),
            0,
            "{protocol}: failed requests under load: {:?}",
            report.first_error
        );
        assert_eq!(
            report.churn_rounds,
            trace.batches.len() as u64,
            "{protocol}: churn writer did not drain"
        );

        // The identity contract, asserted before the row is emitted: the
        // daemon spent the whole burst republishing snapshots under
        // concurrent reads, and must land bit-exactly where a plain local
        // session lands over the same schedule.
        let mut local = open(protocol, n);
        local.run_trace(&trace);
        let served = admin.checkpoint("bench").expect("served checkpoint");
        assert_eq!(
            served.to_json(),
            local.checkpoint().to_json(),
            "{protocol}: served state diverged from the local session"
        );

        handle.stop();
        thread.join().expect("server thread");

        let mut lats: Vec<f64> = report.latencies.clone();
        lats.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            if lats.is_empty() {
                return 0.0;
            }
            let idx = ((lats.len() as f64 - 1.0) * p).round() as usize;
            lats[idx]
        };
        t.row(vec![
            protocol.to_string(),
            n.to_string(),
            churn_rounds.to_string(),
            clients.to_string(),
            report.queries.to_string(),
            "yes".to_string(),
            f2(report.qps()),
            f2(pct(0.50) * 1e6),
            f2(pct(0.99) * 1e6),
        ]);
    }
    t.note("each row: a live daemon on an ephemeral port, N reader connections issuing a fixed");
    t.note("query count each while one writer ingests the er schedule round by round; zero query");
    t.note("errors and post-burst checkpoint byte-identity vs a local session asserted in-runner");
    t.note("QPS is read throughput: reader queries over the readers' own window (shared start to");
    t.note("the last reader's finish), not over the time the writer takes to drain its churn");
    t
}

/// S6: the resilience tier — the serving tier rerun under a seeded
/// fault-injection plan. A durable daemon serves the same churn-plus-query
/// burst twice: once clean (the baseline) and once with `--chaos`-style
/// drop/torn/corrupt faults armed, absorbed by the tolerant client's
/// retries. Both runs must end byte-identical to a local session; the
/// chaos row additionally reports how long warm recovery from the durable
/// checkpoint directory takes, which the runner gates under 100 ms; the
/// cost of re-simulating the whole schedule is recorded for comparison.
pub fn s6_resilience_tier(n: usize, rounds: usize) -> Table {
    use dds_net::serving::{
        loadgen, Client, ClientConfig, DurabilityOptions, FaultPlan, LoadgenOptions, Server,
        ServerOptions,
    };
    use std::time::Instant;

    let n = n.clamp(16, 1_000);
    let churn_rounds = rounds.clamp(10, 100);
    let mut t = Table::new(
        "S6 / resilience tier — dds serve under seeded faults: tolerant-client QPS vs clean, recovery vs re-simulation",
        &[
            "protocol",
            "n",
            "churn",
            "mode",
            "QPS",
            "retries",
            "reconnects",
            "recovery ms",
            "resim ms",
            "gate",
        ],
    );
    let clients = scheduler::available_jobs().clamp(2, 4);
    let queries_per_client = 80;
    // No crash points: the bench runs in-process and must finish; kill -9
    // recovery drills live in the chaos integration tests and CI job.
    let chaos_spec = "seed=13,drop=0.08,torn=0.05,corrupt=0.05";

    // Resilient session bootstrap: under chaos the open ack itself can be
    // dropped, and open carries no sequence number (it is not idempotent),
    // so a lost ack surfaces as "already open" on the retry — success.
    fn open_resilient(addr: &str, protocol: &str, n: usize) -> bool {
        use dds_net::serving::Client;
        for _ in 0..32 {
            let Ok(mut admin) = Client::connect(addr) else {
                continue;
            };
            match admin.open("bench", protocol, n) {
                Ok(_) => return true,
                Err(e) if e.contains("already open") => return true,
                Err(_) => continue,
            }
        }
        false
    }

    for protocol in ["two-hop", "triangle"] {
        let trace = er_trace(n, churn_rounds, 0x66);
        let mix = loadgen::default_mix(n, clients * queries_per_client, &[]);

        // Local truth — and the re-simulation cost recorded next to the
        // recovery time: what a cold start would have to pay.
        let resim_t = Instant::now();
        let mut local = open(protocol, n);
        local.run_trace(&trace);
        let resim_s = resim_t.elapsed().as_secs_f64();
        let truth_json = local.checkpoint().to_json();

        let mut chaos_dir = None;
        let mut chaos_row: Option<Vec<String>> = None;
        for mode in ["clean", "chaos"] {
            let dir = std::env::temp_dir()
                .join(format!("dds-s6-{}-{protocol}-{mode}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            // Both runs persist every write so the QPS delta isolates the
            // injected faults, not the durability cost.
            let options = ServerOptions {
                faults: (mode == "chaos")
                    .then(|| FaultPlan::parse(chaos_spec).expect("chaos spec")),
                durability: Some(DurabilityOptions {
                    base: dir.clone(),
                    every: 1,
                }),
                ..ServerOptions::default()
            };
            let server = Server::bind_with("127.0.0.1:0", crate::driver::protocols(), options)
                .expect("bind");
            let addr = server.local_addr().expect("local addr").to_string();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run().expect("server run"));
            assert!(
                open_resilient(&addr, protocol, n),
                "{protocol}/{mode}: open never succeeded"
            );

            let tolerate = (mode == "chaos").then(|| {
                let mut cfg = ClientConfig::tolerant(0xB0B);
                cfg.retries = 16;
                cfg
            });
            let report = loadgen::run(
                &LoadgenOptions {
                    addr: addr.clone(),
                    session: "bench".to_string(),
                    clients,
                    queries_per_client,
                    tolerate,
                },
                &mix,
                &trace.batches,
            )
            .expect("loadgen run");
            assert_eq!(report.errors, 0, "{protocol}/{mode}: query errors");
            assert_eq!(
                report.request_failures(),
                0,
                "{protocol}/{mode}: failed requests: {:?}",
                report.first_error
            );
            assert_eq!(
                report.churn_rounds,
                trace.batches.len() as u64,
                "{protocol}/{mode}: churn writer did not drain"
            );
            if mode == "chaos" {
                assert!(
                    report.retries + report.reconnects > 0,
                    "{protocol}: chaos plan never fired"
                );
            }

            // The resilience contract: even with every response at risk of
            // being dropped, torn, or corrupted, the daemon lands exactly
            // where the clean local session lands. Fetched through a
            // tolerant client — the checkpoint read is idempotent.
            let mut check =
                Client::connect_with(&addr, ClientConfig::tolerant(0xC0FFEE)).expect("connect");
            let served = check.checkpoint("bench").expect("served checkpoint");
            assert_eq!(
                served.to_json(),
                truth_json,
                "{protocol}/{mode}: served state diverged from the local session"
            );
            handle.stop();
            thread.join().expect("server thread");

            let row = vec![
                protocol.to_string(),
                n.to_string(),
                churn_rounds.to_string(),
                mode.to_string(),
                f2(report.qps()),
                report.retries.to_string(),
                report.reconnects.to_string(),
            ];
            if mode == "chaos" {
                chaos_dir = Some(dir);
                chaos_row = Some(row);
            } else {
                let mut row = row;
                row.extend(["-".into(), "-".into(), "-".into()]);
                t.row(row);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }

        // Recovery drill: warm-start a fresh daemon from the chaos run's
        // durable directory and time it to "serving" — bound by the first
        // checkpoint read answered, not just the directory scan.
        let dir = chaos_dir.expect("chaos mode ran");
        let rec_t = Instant::now();
        let server = Server::bind_with(
            "127.0.0.1:0",
            crate::driver::protocols(),
            ServerOptions {
                durability: Some(DurabilityOptions {
                    base: dir.clone(),
                    every: 1,
                }),
                ..ServerOptions::default()
            },
        )
        .expect("bind for recovery");
        let report = server.recover(&dir, "bench").expect("recover");
        assert_eq!(
            report.sessions,
            vec![("bench".to_string(), churn_rounds as u64)],
            "{protocol}: recovery missed the durable watermark"
        );
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        let mut probe = Client::connect(&addr).expect("connect recovered");
        let recovered = probe.checkpoint("bench").expect("recovered checkpoint");
        let recovery_s = rec_t.elapsed().as_secs_f64();
        assert_eq!(
            recovered.to_json(),
            truth_json,
            "{protocol}: recovered state diverged from the local session"
        );
        handle.stop();
        thread.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(
            recovery_s < 0.1,
            "{protocol}: recovery {recovery_s:.3}s breaches the 100 ms ceiling"
        );
        let mut row = chaos_row.expect("chaos mode ran");
        row.extend([f2(recovery_s * 1e3), f2(resim_s * 1e3), "pass".to_string()]);
        t.row(row);
    }
    t.note("each protocol twice through a durable daemon (persist every write): clean baseline,");
    t.note("then the same burst with seed=13 drop/torn/corrupt faults absorbed by the tolerant");
    t.note("client; both checkpoints asserted byte-identical to a local session. recovery ms =");
    t.note("bind + --recover scan + first checkpoint answered from the durable dir; gated in-");
    t.note("runner: recovery under 100 ms; re-simulation recorded for comparison");
    t.note("QPS is read throughput over the readers' own window, as in S5");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s5_serving_matches_local_at_reduced_scale() {
        // Identity and zero-error contracts are asserted inside the
        // runner; this exercises them at CI scale and pins the shape.
        let t = s5_serving_tier(200, 20);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[1], "200", "clamped n: {row:?}");
            assert_eq!(row[2], "20", "churn rounds: {row:?}");
            assert_eq!(row[5], "yes", "identity column: {row:?}");
            let queries: u64 = row[4].parse().unwrap();
            let clients: u64 = row[3].parse().unwrap();
            assert_eq!(queries, clients * 120, "fixed query count: {row:?}");
        }
    }

    #[test]
    fn s6_resilience_survives_chaos_and_gates_recovery_at_reduced_scale() {
        // Byte-identity under faults, zero failed requests, and the
        // 100 ms recovery gate are all asserted inside the runner; this
        // exercises them at CI scale and pins the shape.
        let t = s6_resilience_tier(120, 12);
        assert_eq!(t.rows.len(), 4, "two protocols x clean/chaos");
        for pair in t.rows.chunks(2) {
            let (clean, chaos) = (&pair[0], &pair[1]);
            assert_eq!(clean[3], "clean", "mode column: {clean:?}");
            assert_eq!(chaos[3], "chaos", "mode column: {chaos:?}");
            assert_eq!(clean[9], "-", "clean rows carry no gate: {clean:?}");
            assert_eq!(chaos[9], "pass", "gate column: {chaos:?}");
            let retries: u64 = chaos[5].parse().unwrap();
            let reconnects: u64 = chaos[6].parse().unwrap();
            assert!(
                retries + reconnects > 0,
                "chaos row absorbed no faults: {chaos:?}"
            );
        }
    }

    #[test]
    fn s2_engines_agree_on_deterministic_columns() {
        let t = s2_low_churn_tier(2000, 60);
        assert_eq!(t.rows.len(), 4);
        for pair in t.rows.chunks(2) {
            let (dense, sparse) = (&pair[0], &pair[1]);
            assert_eq!(dense[1], "dense");
            assert_eq!(sparse[1], "sparse");
            // Same schedule, same execution: changes agree bit-for-bit.
            assert_eq!(dense[4], sparse[4], "changes diverged: {pair:?}");
            // Dense visits everyone; sparse only the active frontier.
            assert_eq!(dense[5], "2000", "dense peak active: {pair:?}");
            let sparse_peak: usize = sparse[5].parse().unwrap();
            assert!(
                sparse_peak < 2000 / 2,
                "sparse engine visited too many nodes: {pair:?}"
            );
        }
    }

    #[test]
    fn s3_sharded_matches_sequential_at_reduced_scale() {
        // The bit-identity contract is asserted inside the runner; this
        // test exercises it at a CI-sized n and checks the table shape.
        let t = s3_sharded_tier(2000, 60);
        assert_eq!(t.rows.len(), 4);
        for pair in t.rows.chunks(2) {
            let (seq, shd) = (&pair[0], &pair[1]);
            assert_eq!(seq[1], "1 shard, inline");
            assert!(shd[1].ends_with("shards, pooled"), "mode: {shd:?}");
            assert_eq!(seq[4], shd[4], "changes diverged: {pair:?}");
            assert_eq!(seq[5], shd[5], "peak active diverged: {pair:?}");
            assert_eq!(seq[8], "yes");
            assert_eq!(shd[8], "yes");
        }
    }

    #[test]
    fn s4_skewed_modes_agree_at_reduced_scale() {
        // Bit-identity across modes is asserted inside the runner; this
        // exercises it at a CI-sized n and checks the shape.
        let t = s4_skewed_tier(2000, 60);
        assert_eq!(t.rows.len(), 4);
        for pair in t.rows.chunks(2) {
            let (seq, balanced) = (&pair[0], &pair[1]);
            assert_eq!(seq[1], "1 shard, inline");
            assert!(balanced[1].ends_with("shards, balanced"), "{balanced:?}");
            assert_eq!(seq[7], "1.00", "sequential is its own baseline");
            for row in pair {
                assert_eq!(row[4], seq[4], "changes diverged: {row:?}");
                assert_eq!(row[5], seq[5], "peak active diverged: {row:?}");
                assert_eq!(row[8], "yes");
            }
        }
    }

    #[test]
    fn s1_streams_at_reduced_scale() {
        let t = s1_streamed_tier(2000, 60, 2);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[2], "60", "all rounds executed: {row:?}");
            let changes: u64 = row[3].parse().unwrap();
            assert!(changes > 0, "streamed run saw changes: {row:?}");
        }
    }

    #[test]
    fn e1_rows_and_flat_amortized() {
        let t = e1_two_hop(60);
        assert_eq!(t.rows.len(), SWEEP_NS.len() * 3);
        for row in &t.rows {
            let amortized: f64 = row[4].parse().unwrap();
            assert!(
                amortized <= 3.0,
                "E1 amortized {amortized} too high: {row:?}"
            );
        }
    }

    #[test]
    fn e4_snapshot_grows_robust_flat() {
        let t = e4_lower_bound_2hop_sizes(&[32, 128]);
        // Rows come in (pattern, size) order; compare sizes per pattern.
        for pat in 0..2 {
            let first: f64 = t.rows[pat * 2][2].parse().unwrap();
            let last: f64 = t.rows[pat * 2 + 1][2].parse().unwrap();
            assert!(
                last >= 2.0 * first,
                "snapshot cost must grow with n for pattern {pat}"
            );
        }
        for row in &t.rows {
            let robust: f64 = row[5].parse().unwrap();
            assert!(robust <= 3.0, "robust amortized must stay flat");
        }
    }

    #[test]
    fn e6_no_false_positives_and_full_coverage() {
        let t = e6_cycles(120);
        for row in &t.rows {
            assert_eq!(row[3], row[4], "all audited cycles must be listed: {row:?}");
            assert_eq!(row[5], "0", "no phantom cycles");
        }
    }

    #[test]
    fn e7_all_six_cycles_missed() {
        let t = e7_six_cycle_wall_rows(&[3, 4]);
        for row in &t.rows {
            assert_eq!(row[5], row[6], "every 6-cycle must escape: {row:?}");
        }
    }

    #[test]
    fn a1_shows_the_divergence() {
        let t = a1_timestamp_ablation();
        assert!(t.rows[0][4].contains("WRONG"));
        assert_eq!(t.rows[1][4], "correct");
    }

    #[test]
    fn a2_r3_covers_everything() {
        let t = a2_two_hop_insufficient(150);
        for row in &t.rows {
            assert_eq!(row[1], row[3], "R3 must cover all cycles: {row:?}");
        }
    }
}
