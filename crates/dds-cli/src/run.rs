//! Workload construction and protocol dispatch for the CLI — thin adapters
//! over the engine layer's registries.
//!
//! Workloads are built by `dds-workloads::registry` (name → parameter
//! schema → streaming source, or a recorded trace for `dds trace
//! generate`) and protocols run through the shared
//! [`dds_bench::driver::protocols`] registry, so the name lists printed by
//! `dds list` are derived, never hand-maintained here. Every run streams
//! its source through a live [`Session`]; nothing here materializes a
//! schedule to drive it.

use crate::args::Args;
use dds_net::{BoxedSource, RestoreError, Session, Snapshot, Trace};
use dds_workloads::registry;
use dds_workloads::Params;

/// Known protocol names, in registry order.
pub fn protocol_names() -> Vec<&'static str> {
    dds_bench::protocols().names()
}

/// Known workload names, in registry order.
pub fn workload_names() -> Vec<&'static str> {
    registry::names()
}

/// Convert parsed CLI options into registry parameters (the registry
/// ignores keys it does not declare, e.g. `--protocol` or `--json`).
fn params_from(args: &Args) -> Params {
    args.options
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

/// Build a recorded trace for the named workload from CLI options (what
/// `dds trace generate` writes).
pub fn build_workload(args: &Args) -> Result<Trace, String> {
    registry::build_trace(args.get_or("workload", "er"), &params_from(args))
}

/// Build a streaming source for the named workload from CLI options (no
/// trace is ever materialized).
pub fn build_workload_source(args: &Args) -> Result<BoxedSource, String> {
    registry::build_source(args.get_or("workload", "er"), &params_from(args))
}

/// Registry parameters for one seed of a `--seeds` sweep: the CLI options
/// with the seed overridden.
pub fn params_with_seed(args: &Args, seed: u64) -> Params {
    let mut p = params_from(args);
    p.set("seed", seed);
    p
}

/// Restore a live session from a `--resume FILE` snapshot. The registry
/// dispatches on the protocol name the header records; an *explicitly*
/// passed `--protocol` must agree with it (a mismatch is the typed
/// [`RestoreError::ProtocolMismatch`], never a silent override).
pub fn restore_session(args: &Args, path: &str) -> Result<Session, String> {
    let snap = Snapshot::read_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    if let Some(requested) = args.options.get("protocol") {
        if *requested != snap.header.protocol {
            return Err(RestoreError::ProtocolMismatch {
                expected: requested.clone(),
                found: snap.header.protocol.clone(),
            }
            .to_string());
        }
    }
    dds_bench::protocols()
        .restore(&snap)
        .map_err(|e| e.to_string())
}

/// Fast-forward a freshly built workload source to a restored session's
/// round: the generator replays its first `session.round()` batches (no
/// simulation), so the stream hands out exactly the batches the original
/// run had not yet consumed. Errors when the workload is shorter than the
/// snapshot round — the telltale of resuming against different workload
/// flags than the checkpoint was taken with.
pub fn fast_forward(src: &mut dyn dds_net::TraceSource, session: &Session) -> Result<(), String> {
    let want = session.round() as usize;
    let skipped = src.skip_batches(want);
    if skipped < want {
        return Err(format!(
            "--resume: the workload ends after {skipped} round(s), before the snapshot \
             round {want}; pass the same workload flags the checkpoint was taken with"
        ));
    }
    Ok(())
}

/// Round-engine selection from `--engine sparse|dense` (default: sparse).
pub fn engine_from(args: &Args) -> Result<dds_net::Engine, String> {
    args.get_or("engine", "sparse").parse()
}

/// Shard-count selection from `--shards auto|K` (default: auto). Sharding
/// is structural — `--shards K` partitions every round into K id-range
/// tasks even single-threaded, with bit-identical results for every K.
pub fn shards_from(args: &Args) -> Result<dds_net::Shards, String> {
    args.get_or("shards", "auto").parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn builds_every_workload() {
        for w in workload_names() {
            let a = args(&format!("x --workload {w} --n 24 --rounds 40 --seed 7"));
            let t = build_workload(&a).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(t.validate().is_ok(), "{w} trace invalid");
        }
    }

    fn run(protocol: &str, a: &Args) -> Result<dds_net::RunSummary, String> {
        let mut src = build_workload_source(a)?;
        dds_bench::protocols().run_stream(protocol, &mut src, dds_net::SimConfig::default())
    }

    #[test]
    fn runs_every_protocol() {
        let a = args("x --workload er --n 16 --rounds 60 --seed 3");
        for p in protocol_names() {
            let s = run(p, &a).unwrap_or_else(|e| panic!("{p}: {e}"));
            assert_eq!(s.rounds, 60, "{p}");
            if p != "flood" {
                assert_eq!(s.violations, 0, "{p} broke the budget");
            }
        }
    }

    #[test]
    fn unknown_names_error() {
        let a = args("x --workload nope");
        assert!(build_workload(&a).is_err());
        assert!(build_workload_source(&a).is_err());
        assert!(run("nope", &args("x --workload er --n 8 --rounds 5")).is_err());
    }

    #[test]
    fn engine_option_parses_and_defaults_to_sparse() {
        assert_eq!(engine_from(&args("x")).unwrap(), dds_net::Engine::Sparse);
        assert_eq!(
            engine_from(&args("x --engine dense")).unwrap(),
            dds_net::Engine::Dense
        );
        assert_eq!(
            engine_from(&args("x --engine sparse")).unwrap(),
            dds_net::Engine::Sparse
        );
        assert!(engine_from(&args("x --engine frob")).is_err());
    }

    #[test]
    fn shards_option_parses_and_defaults_to_auto() {
        assert_eq!(shards_from(&args("x")).unwrap(), dds_net::Shards::Auto);
        assert_eq!(
            shards_from(&args("x --shards auto")).unwrap(),
            dds_net::Shards::Auto
        );
        assert_eq!(
            shards_from(&args("x --shards 4")).unwrap(),
            dds_net::Shards::Fixed(4)
        );
        assert!(shards_from(&args("x --shards 0")).is_err());
        assert!(shards_from(&args("x --shards lots")).is_err());
    }

    #[test]
    fn registry_params_reach_the_builders() {
        // CLI options flow through params_from into the registry builders.
        let t = build_workload(&args("x --workload er --n 19 --rounds 12")).unwrap();
        assert_eq!(t.n, 19);
        assert_eq!(t.rounds(), 12);
    }
}
