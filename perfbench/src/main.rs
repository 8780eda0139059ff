//! The repository benchmark: `ingest` and `recover` workloads over the
//! public `dds-net` APIs.
//!
//! ```text
//! perfbench --workload ingest|recover --seed N --seconds S --trace 0|1 [--smoke] [--plant-wrong]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric,
//! derived from spans the benchmark records around its own calls into each
//! layer. The lines above it print each metric with its unit and sample
//! count, and operations attempted and failed per verb. A failed
//! correctness gate exits 1 and prints no result. `--smoke` runs a reduced
//! scale; `--plant-wrong` corrupts one expected answer, so the gate must
//! trip (both exist for the package's own test). See `NOTES.md`.

mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use inputs::Scale;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: every workload reports each, in its own terms (see
/// `NOTES.md` for what an operation is on each workload).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "op_p50_ms",
    "op_p90_ms",
];

/// Per-layer metrics, named after the modules they measure.
pub const PER_LAYER: [&str; 24] = [
    "workloads.gen_s",
    "engine.step_ms",
    "engine.active_nodes",
    "engine.messages_per_round",
    "engine.bits_per_round",
    "engine.shards",
    "checkpoint.capture_ms",
    "checkpoint.restore_ms",
    "checkpoint.encode_ms",
    "checkpoint.persist_ms",
    "checkpoint.decode_ms",
    "checkpoint.bytes",
    "state.ingest_ms",
    "state.unaccounted_ms",
    "state.recover_ms",
    "state.bytes_per_change",
    "query.answer_us",
    "query.answered_frac",
    "wire.read_overhead_us",
    "wire.write_overhead_ms",
    "wire.bytes_per_request",
    "wire.first_reply_ms",
    "server.query_us",
    "trace.overhead_us",
];

/// The session name every daemon the benchmark starts serves.
pub const SESSION: &str = "bench";

/// One reported number.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub what: String,
}

/// What a workload measured, plus its operation counts per verb.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
    /// verb → (attempted, failed)
    pub verbs: BTreeMap<&'static str, (u64, u64)>,
}

impl Report {
    pub fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        what: impl Into<String>,
    ) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                what: what.into(),
            },
        );
    }

    pub fn count(&mut self, verb: &'static str, attempted: u64, failed: u64) {
        let slot = self.verbs.entry(verb).or_default();
        slot.0 += attempted;
        slot.1 += failed;
    }
}

/// Run-wide settings and the main thread's tracer.
pub struct Ctx {
    pub scale: Scale,
    pub seed: u64,
    pub seconds: u64,
    pub plant: bool,
    pub tmp: PathBuf,
    pub tracer: Tracer,
    pub registry: &'static dds_net::ProtocolRegistry,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Measured-phase length.
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.seconds)
    }

    /// A measured phase that has not reached `min_ops` by this time gives
    /// up: its percentiles would rest on too few samples. A minute at
    /// least, so a slow host still reaches 100 recoveries; a run that hits
    /// it at the benchmark's window still ends well within three minutes.
    pub fn hard_cap(&self) -> std::time::Duration {
        std::time::Duration::from_secs((self.seconds * 3).max(60))
    }
}

/// Zero this process's `VmHWM`, so the next read measures the phase that
/// starts now rather than the process lifetime.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut plant) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--plant-wrong" => plant = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        plant,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let out_dir = PathBuf::from(".perfbench");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut ctx = Ctx {
        scale: if args.smoke {
            inputs::SMOKE
        } else {
            inputs::FULL
        },
        seed: args.seed,
        seconds: args.seconds,
        plant: args.plant,
        tmp: tmp.clone(),
        tracer: Tracer::new(args.trace, Instant::now()),
        registry: dds_bench::protocols(),
    };
    let result = match args.workload.as_str() {
        "ingest" => serve::run_ingest(&mut ctx),
        "recover" => serve::run_recover(&mut ctx),
        other => Err(format!("unknown workload {other:?} (ingest, recover)")),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if ctx.traced() {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    result
}

/// Print the report lines and the final JSON result line.
fn publish(args: &Args, report: &Report) -> Result<(), String> {
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (attempted, failed) = report
        .verbs
        .values()
        .fold((0, 0), |(a, f), &(va, vf)| (a + va, f + vf));
    if attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (verb, (a, f)) in &report.verbs {
        println!("  ops {verb:<14} attempted {a:>8} failed {f:>4}");
    }
    let mut json = Vec::new();
    for &name in names {
        let m = report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        println!(
            "  {name:<26} {:>14.6} {:<8} n={:<7} {}",
            m.value, m.unit, m.samples, m.what
        );
        json.push(format!(
            r#""{name}": {{"value": {}, "unit": "{}"}}"#,
            m.value, m.unit
        ));
    }
    println!(
        r#"{{"correct": true, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        json.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload ingest|recover --seed N --seconds S --trace 0|1 [--smoke] [--plant-wrong]");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|report| publish(&args, &report)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
