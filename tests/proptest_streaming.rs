//! Property: each batch rule has one home, and the homes together judge a
//! schedule exactly as one validator checking every rule in one loop.
//!
//! For arbitrary event scripts — valid and invalid alike (duplicate edges
//! within a batch, double inserts, phantom deletes, out-of-range
//! endpoints):
//!
//! - the at-most-once-per-edge rule lives in `EventBatch`: a script's JSON
//!   fails to parse exactly when one of its batches repeats an edge;
//! - range, present and absent live in `Topology::validate`: for every
//!   other script — as drawn, repaired into a valid schedule, and repaired
//!   with one event switched between insert and delete — [`Trace::validate`]
//!   (which replays the batches through it) agrees with [`reference_judge`]
//!   (the all-in-one loop kept here as the specification) on the verdict,
//!   the first failing round and the offending edge.

use dynamic_subgraphs::net::{edge, EventBatch, TopologyEvent, Trace};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// One scripted event: endpoints (any order) and insert/delete.
type Op = (u32, u32, bool);

/// Render a script as trace JSON, exactly like untrusted `dds trace`
/// input, and parse it.
fn parse_script(n: u32, script: &[Vec<Op>]) -> Result<Trace, String> {
    let mut batches = Vec::new();
    for ops in script {
        let events: Vec<String> = ops
            .iter()
            .map(|&(a, b, insert)| {
                let kind = if insert { "Insert" } else { "Delete" };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                format!("{{\"{kind}\":{{\"a\":{lo},\"b\":{hi}}}}}")
            })
            .collect();
        batches.push(format!("{{\"events\":[{}]}}", events.join(",")));
    }
    let json = format!("{{\"n\":{n},\"batches\":[{}]}}", batches.join(","));
    serde_json::from_str(&json).map_err(|e| e.to_string())
}

fn canonical(&(a, b, _): &Op) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Whether some batch of the script names one edge twice.
fn repeats_an_edge(script: &[Vec<Op>]) -> bool {
    script.iter().any(|ops| {
        let mut seen = FxHashSet::default();
        !ops.iter().all(|op| seen.insert(canonical(op)))
    })
}

/// The script with every repeat of an edge within a batch dropped (the
/// first event for each edge stays).
fn without_repeats(script: &[Vec<Op>]) -> Vec<Vec<Op>> {
    script
        .iter()
        .map(|ops| {
            let mut seen = FxHashSet::default();
            ops.iter()
                .copied()
                .filter(|op| seen.insert(canonical(op)))
                .collect()
        })
        .collect()
}

/// The script with each event's kind set from its edge's presence so far
/// (insert when absent, delete when present): a schedule that is valid
/// whenever its endpoints are in range. Takes a script without repeats.
fn repaired(script: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let mut present = FxHashSet::default();
    script
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|&(a, b, _)| {
                    let insert = present.insert(canonical(&(a, b, true)));
                    if !insert {
                        present.remove(&canonical(&(a, b, true)));
                    }
                    (a, b, insert)
                })
                .collect()
        })
        .collect()
}

/// The script with event `k` (counted across batches, modulo the event
/// count) switched between insert and delete.
fn flipped(mut script: Vec<Vec<Op>>, k: usize) -> Vec<Vec<Op>> {
    let total: usize = script.iter().map(Vec::len).sum();
    if total > 0 {
        let mut k = k % total;
        for ops in &mut script {
            if k < ops.len() {
                ops[k].2 = !ops[k].2;
                break;
            }
            k -= ops.len();
        }
    }
    script
}

/// The specification: every batch rule checked in one loop over the
/// schedule, starting from the empty graph on `n` nodes. Returns the first
/// failing round (1-based) with its message.
fn reference_judge(trace: &Trace) -> Result<(), (usize, String)> {
    let mut present = FxHashSet::default();
    for (i, batch) in trace.batches.iter().enumerate() {
        let mut seen = FxHashSet::default();
        for ev in batch.iter() {
            let e = ev.edge();
            if e.hi().index() >= trace.n {
                return Err((i + 1, format!("edge {e:?} out of range")));
            }
            if !seen.insert(e) {
                return Err((i + 1, format!("duplicate event for {e:?}")));
            }
            match ev {
                TopologyEvent::Insert(_) => {
                    if !present.insert(e) {
                        return Err((i + 1, format!("insert of present {e:?}")));
                    }
                }
                TopologyEvent::Delete(_) => {
                    if !present.remove(&e) {
                        return Err((i + 1, format!("delete of absent {e:?}")));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The `{vA,vB}` edge a validation message names.
fn named_edge(msg: &str) -> &str {
    let start = msg.find('{').expect("message names an edge");
    let end = msg[start..].find('}').expect("edge is closed") + start;
    &msg[start..=end]
}

/// Whether [`Trace::validate`] and [`reference_judge`] agree on a script
/// without repeats: the same verdict and, on failure, the same first
/// failing round and offending edge.
fn agree(n: u32, script: &[Vec<Op>]) -> Result<(), String> {
    let trace = parse_script(n, script)?;
    match (trace.validate(), reference_judge(&trace)) {
        (Ok(()), Ok(())) => Ok(()),
        (Err(got), Err((round, want)))
            if got.starts_with(&format!("round {round}: "))
                && named_edge(&got) == named_edge(&want) =>
        {
            Ok(())
        }
        (got, want) => Err(format!(
            "validate says {got:?}, the reference judge {want:?}"
        )),
    }
}

/// Raw generated script: per batch, `((a, b), flag)` ops. Endpoints up to
/// 9 on n ∈ 4..9 nodes, so out-of-range endpoints occur; random
/// insert/delete flags, so double inserts and phantom deletes occur;
/// repeated pairs within a chunk, so in-batch duplicates occur.
type RawScript = Vec<Vec<((u32, u32), u32)>>;

fn script_strategy() -> impl Strategy<Value = RawScript> {
    prop::collection::vec(
        prop::collection::vec(((0u32..9, 0u32..9), 0u32..2), 0..6),
        1..10,
    )
}

/// Decode the raw script, dropping self-loops (rejected at `Edge`
/// construction, not validation, so unrepresentable anyway).
fn decode(raw: RawScript) -> Vec<Vec<Op>> {
    raw.into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .filter(|&((a, b), _)| a != b)
                .map(|((a, b), flag)| (a, b, flag == 0))
                .collect()
        })
        .collect()
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(192)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_script_parses_exactly_when_no_batch_repeats_an_edge(
        script in script_strategy(),
        n in 4u32..9,
    ) {
        let script = decode(script);
        match parse_script(n, &script) {
            Ok(trace) => {
                prop_assert!(!repeats_an_edge(&script), "a repeated edge parsed");
                prop_assert_eq!(trace.rounds(), script.len());
                prop_assert_eq!(trace.total_changes(), script.iter().map(Vec::len).sum::<usize>());
            }
            Err(err) => {
                prop_assert!(repeats_an_edge(&script), "a clean script failed to parse: {}", err);
                prop_assert!(err.contains("duplicate event for edge"), "{}", err);
            }
        }
    }

    #[test]
    fn trace_validate_agrees_with_the_reference_judge(
        script in script_strategy(),
        n in 4u32..10,
        flip in 0usize..64,
    ) {
        // The script as drawn (random kinds, so most fail early), repaired
        // into a schedule that fails only on an out-of-range endpoint, and
        // repaired with one event switched so it fails there.
        let drawn = without_repeats(&decode(script));
        let valid = repaired(&drawn);
        for candidate in [flipped(valid.clone(), flip), valid, drawn] {
            if let Err(e) = agree(n, &candidate) {
                prop_assert!(false, "{}: {:?}", e, candidate);
            }
        }
    }

    #[test]
    fn duplicate_edge_within_a_batch_is_rejected_by_both(
        a in 0u32..4,
        b in 4u32..8,
    ) {
        // Insert + insert and insert + delete of one edge in one round:
        // both doors into an `EventBatch` refuse both — parsing with an
        // error naming the edge, `push` with a panic.
        for second in [true, false] {
            let err = parse_script(8, &[vec![(a, b, true), (b, a, second)]])
                .expect_err("a repeated edge must not parse");
            prop_assert!(err.contains("duplicate event for edge"), "{}", err);
            prop_assert!(err.contains(&format!("{:?}", edge(a, b))), "{}", err);
            let pushed = std::panic::catch_unwind(|| {
                let mut batch = EventBatch::insert(edge(a, b));
                if second {
                    batch.push_insert(edge(b, a));
                } else {
                    batch.push_delete(edge(b, a));
                }
            });
            prop_assert!(pushed.is_err(), "push accepted a repeated edge");
        }
    }
}
