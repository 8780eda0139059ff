//! The batch scheduler: deterministic parallel execution of independent
//! sweep points.
//!
//! Sweep points (seeds × sizes × protocols) are independent simulations,
//! so they can run on any number of worker threads — but results must not
//! depend on scheduling. [`map_ordered`] guarantees that: workers claim
//! jobs from a shared queue (first-come, first-served), every job's result
//! is written back into its *input slot*, and the output vector is always
//! in input order. Aggregation over it is therefore bit-identical for
//! `jobs = 1` and `jobs = N`, for any `N` — the ordering guarantee the
//! differential tests lock down.
//!
//! [`SweepPoint`] + [`run_points`] put a workload/protocol grid on top:
//! each point builds a *streaming* source from the workload registry (no
//! trace is ever materialized) and runs it through the shared protocol
//! registry.

use dds_net::pool::Pool;
use dds_net::{RunSummary, SimConfig};
use dds_workloads::{registry, Params};
use std::sync::Mutex;

/// Worker count to use when the caller does not care: the persistent
/// pool's worker threads plus the submitting thread. The pool reads
/// `available_parallelism` exactly once at first use and caches it, so
/// repeated calls here (one per sweep, several per `experiments` run)
/// never re-query the OS.
pub fn available_jobs() -> usize {
    Pool::global().workers() + 1
}

/// Run `f` over every item on up to `jobs` threads of the workspace's
/// persistent worker [`Pool`] and return the results **in input order**,
/// regardless of completion order — every job's result is written back
/// into its input slot, so aggregation over the output is bit-identical
/// for `jobs = 1` and `jobs = N`, for any `N`. `f` must be pure per item
/// for the output to be independent of `jobs` (that property is what the
/// streaming differential tests assert).
///
/// The pool runs one fan-out at a time: a `map_ordered` issued from inside
/// another `map_ordered` job (or while the sharded round engine is mid
/// fan-out) executes inline on the calling thread — same results, no
/// nested oversubscription, no deadlock.
pub fn map_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    Pool::global().run(n, jobs, &|i| {
        let item = slots[i]
            .lock()
            .expect("slot lock")
            .take()
            .expect("each job claimed once");
        let r = f(i, item);
        *results[i].lock().expect("result lock") = Some(r);
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("every job completed")
        })
        .collect()
}

/// One schedulable unit of a sweep: a workload (with full parameters,
/// seed included) run under one protocol.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Protocol name in the shared registry.
    pub protocol: String,
    /// Workload name in the workload registry.
    pub workload: String,
    /// Workload parameters (`n`, `rounds`, `seed`, extras).
    pub params: Params,
}

impl SweepPoint {
    /// A point from names plus parameters.
    pub fn new(protocol: &str, workload: &str, params: Params) -> Self {
        SweepPoint {
            protocol: protocol.to_string(),
            workload: workload.to_string(),
            params,
        }
    }

    /// Run this point: build a streaming source and drive it through the
    /// protocol registry. Nothing is materialized.
    pub fn run(&self, cfg: SimConfig) -> Result<RunSummary, String> {
        let mut src = registry::build_source(&self.workload, &self.params)?;
        crate::driver::protocols().run_stream(&self.protocol, &mut src, cfg)
    }
}

/// The full grid protocols × sizes × seeds over one workload, in
/// deterministic order (protocol-major, then size, then seed — so
/// aggregation per (protocol, size) reads a contiguous, seed-ordered run
/// of results).
pub fn grid(
    protocols: &[&str],
    ns: &[usize],
    seeds: &[u64],
    workload: &str,
    rounds: usize,
) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(protocols.len() * ns.len() * seeds.len());
    for &p in protocols {
        for &n in ns {
            for &seed in seeds {
                points.push(SweepPoint::new(
                    p,
                    workload,
                    Params::new()
                        .with("n", n)
                        .with("rounds", rounds)
                        .with("seed", seed),
                ));
            }
        }
    }
    points
}

/// Run every point on `jobs` workers; results come back in point order
/// (seed-ordered within each protocol × size block when built by
/// [`grid`]), independent of `jobs`.
pub fn run_points(
    points: Vec<SweepPoint>,
    cfg: SimConfig,
    jobs: usize,
) -> Vec<Result<RunSummary, String>> {
    map_ordered(jobs, points, |_, p| p.run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_preserves_input_order() {
        let items: Vec<usize> = (0..50).collect();
        let seq = map_ordered(1, items.clone(), |i, x| (i, x * x));
        let par = map_ordered(8, items, |i, x| (i, x * x));
        assert_eq!(seq, par);
        assert_eq!(seq[17], (17, 17 * 17));
    }

    #[test]
    fn map_ordered_handles_empty_and_single() {
        assert_eq!(map_ordered(4, Vec::<u32>::new(), |_, x| x), vec![]);
        assert_eq!(map_ordered(4, vec![9u32], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn grid_is_seed_ordered_within_blocks() {
        let g = grid(&["two-hop", "triangle"], &[16, 32], &[1, 2, 3], "er", 50);
        assert_eq!(g.len(), 12);
        assert_eq!(g[0].protocol, "two-hop");
        assert_eq!(g[0].params.get("seed"), Some("1"));
        assert_eq!(g[2].params.get("seed"), Some("3"));
        assert_eq!(g[3].params.get("n"), Some("32"));
        assert_eq!(g[6].protocol, "triangle");
    }

    #[test]
    fn run_points_is_jobs_invariant() {
        let points = grid(&["two-hop"], &[12], &[1, 2, 3, 4], "er", 40);
        let cfg = SimConfig::default();
        let seq: Vec<_> = run_points(points.clone(), cfg, 1)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let par: Vec<_> = run_points(points, cfg, 4)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.changes, b.changes);
            assert_eq!(a.amortized.to_bits(), b.amortized.to_bits());
            assert_eq!(a.bits, b.bits);
            assert_eq!(a.final_edges, b.final_edges);
        }
    }

    #[test]
    fn bad_points_report_errors_in_place() {
        let points = vec![
            SweepPoint::new(
                "two-hop",
                "er",
                Params::new().with("n", 8).with("rounds", 5),
            ),
            SweepPoint::new("nope", "er", Params::new()),
            SweepPoint::new("two-hop", "nope", Params::new()),
        ];
        let rs = run_points(points, SimConfig::default(), 2);
        assert!(rs[0].is_ok());
        assert!(rs[1].as_ref().unwrap_err().contains("unknown protocol"));
        assert!(rs[2].as_ref().unwrap_err().contains("unknown workload"));
    }
}
