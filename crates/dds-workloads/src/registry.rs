//! The workload registry: name → parameter schema → streaming source.
//!
//! Every workload generator in this crate is registered here once, with a
//! declared parameter schema and a *source* builder. Frontends (the `dds`
//! CLI, the experiment runners, the seed sweeps) obtain lazy batch streams
//! through [`build_source`] — or a fully materialized [`Trace`] through
//! [`build_trace`], which is just `build_source(..).materialize()` — and
//! never hand-maintain their own `match` over workload names: adding a
//! workload means adding one [`WorkloadSpec`] entry, and every frontend
//! picks it up, including `dds list`.
//!
//! Parameters arrive as untyped key/value strings ([`Params`]) so the
//! registry stays independent of any particular argument parser; builders
//! apply typed defaults per the schema.

use crate::adversary::{HSpec, Remark1Adversary, Thm2Adversary, Thm4Adversary};
use crate::churn::{P2pChurn, P2pChurnConfig};
use crate::erdos::{ErChurn, ErChurnConfig};
use crate::flicker::{Flicker, FlickerConfig};
use crate::hotspot::{Hotspot, HotspotConfig};
use crate::planted::{Planted, PlantedConfig, Shape};
use crate::preferential::{Preferential, PreferentialConfig};
use crate::sliding::{SlidingWindow, SlidingWindowConfig};
use dds_net::{BoxedSource, Trace, TraceSource as _};
use std::collections::BTreeMap;

/// Untyped workload parameters: `--key value` pairs from any frontend.
#[derive(Clone, Debug, Default)]
pub struct Params {
    map: BTreeMap<String, String>,
}

impl Params {
    /// Empty parameter set (every builder falls back to its defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one parameter, builder-style.
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.set(key, value);
        self
    }

    /// Set one parameter in place.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.map.insert(key.to_string(), value.to_string());
    }

    /// Raw value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Parsed numeric parameter with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag (present and not `"false"` = true).
    pub fn flag(&self, key: &str) -> bool {
        self.map.get(key).is_some_and(|v| v != "false")
    }
}

impl<K: ToString, V: ToString> FromIterator<(K, V)> for Params {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut p = Params::new();
        for (k, v) in iter {
            p.set(&k.to_string(), v);
        }
        p
    }
}

/// One declared parameter of a workload: key, default (as the builder
/// applies it), and a one-line description.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter key (matches `--key` on the CLI).
    pub key: &'static str,
    /// Default value, rendered for help text (may depend on `n`).
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A named, buildable workload: the registry entry.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Registry name (what `--workload` matches).
    pub name: &'static str,
    /// One-line description for `dds list`.
    pub summary: &'static str,
    /// Declared parameters beyond the common `n` / `rounds` / `seed`.
    pub params: &'static [ParamSpec],
    source: fn(&Params) -> Result<BoxedSource, String>,
}

impl WorkloadSpec {
    /// Build a fresh streaming source from parameters. Sources are seeded
    /// and replayable: calling this twice with equal parameters yields two
    /// sources that stream bit-identical batch sequences.
    pub fn source(&self, p: &Params) -> Result<BoxedSource, String> {
        (self.source)(p)
    }
}

/// Common parameters shared by every workload.
pub const COMMON_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "n",
        default: "64",
        help: "number of nodes",
    },
    ParamSpec {
        key: "rounds",
        default: "300",
        help: "rounds to record",
    },
    ParamSpec {
        key: "seed",
        default: "42",
        help: "RNG seed",
    },
];

fn common(p: &Params) -> Result<(usize, usize, u64), String> {
    Ok((
        p.num_or("n", 64)?,
        p.num_or("rounds", 300)?,
        p.num_or("seed", 42)?,
    ))
}

fn source_er(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(ErChurn::new(ErChurnConfig {
        n,
        target_edges: p.num_or("target-edges", 2 * n)?,
        changes_per_round: p.num_or("changes-per-round", 4)?,
        rounds,
        seed,
    })))
}

fn source_p2p(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(P2pChurn::new(P2pChurnConfig {
        n,
        degree: p.num_or("degree", 3)?,
        triadic: p.flag("triadic"),
        rounds,
        seed,
        ..P2pChurnConfig::default()
    })))
}

fn source_flicker(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(Flicker::new(FlickerConfig {
        n,
        flickering: p.num_or("flickering", n / 4)?,
        period: p.num_or("period", 2)?,
        rounds,
        seed,
        ..FlickerConfig::default()
    })))
}

fn source_planted(p: &Params, cycle: bool) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    let k: usize = p.num_or("k", 3)?;
    let defaults = PlantedConfig::default();
    Ok(Box::new(Planted::new(PlantedConfig {
        n,
        shape: if cycle {
            Shape::Cycle(k)
        } else {
            Shape::Clique(k)
        },
        spacing: p.num_or("spacing", defaults.spacing)?,
        lifetime: p.num_or("lifetime", defaults.lifetime)?,
        noise_per_round: p.num_or("noise", defaults.noise_per_round)?,
        rounds,
        seed,
    })))
}

fn source_sliding(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(SlidingWindow::new(SlidingWindowConfig {
        n,
        window: p.num_or("window", 20)?,
        arrivals_per_round: p.num_or("arrivals", 3)?,
        rounds,
        seed,
    })))
}

fn source_hotspot(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(Hotspot::new(HotspotConfig {
        n,
        hot_ids: p.num_or("hot-ids", (n / 10).max(1))?,
        hot: p.num_or("hot", 0.7)?,
        target_edges: p.num_or("target-edges", 2 * n)?,
        changes_per_round: p.num_or("changes-per-round", 4)?,
        rounds,
        seed,
    })))
}

fn source_preferential(p: &Params) -> Result<BoxedSource, String> {
    let (n, rounds, seed) = common(p)?;
    Ok(Box::new(Preferential::new(PreferentialConfig {
        n,
        rounds,
        seed,
        ..PreferentialConfig::default()
    })))
}

fn source_thm2(p: &Params) -> Result<BoxedSource, String> {
    let (n, _rounds, _seed) = common(p)?;
    let pattern = match p.get("pattern").unwrap_or("p3") {
        "p3" => HSpec::path3(),
        "k4-e" => HSpec::k4_minus_edge(),
        other => return Err(format!("--pattern: unknown H {other:?} (p3 | k4-e)")),
    };
    Ok(Box::new(Thm2Adversary::new(
        pattern,
        n,
        p.num_or("stabilize", 2 * n)?,
    )))
}

fn source_thm4(p: &Params) -> Result<BoxedSource, String> {
    let (n, _rounds, seed) = common(p)?;
    Ok(Box::new(Thm4Adversary::with_n(
        p.num_or("k", 6usize)?.max(6),
        n,
        p.num_or("stabilize", 8)?,
        seed,
    )))
}

fn source_remark1(p: &Params) -> Result<BoxedSource, String> {
    let (_n, _rounds, seed) = common(p)?;
    let rows: usize = p.num_or("rows", 4)?;
    let d: usize = p.num_or("d", 3 * rows)?;
    Ok(Box::new(Remark1Adversary::new(
        rows,
        d,
        p.num_or("stabilize", 4 * d)?,
        seed,
    )))
}

/// Every registered workload, in listing order.
static WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "er",
        summary: "evolving Erdős–Rényi churn around a target edge count",
        params: &[
            ParamSpec {
                key: "target-edges",
                default: "2·n",
                help: "equilibrium edge count",
            },
            ParamSpec {
                key: "changes-per-round",
                default: "4",
                help: "topology changes per round",
            },
        ],
        source: source_er,
    },
    WorkloadSpec {
        name: "p2p",
        summary: "heavy-tailed peer session churn (the paper's motivating scenario)",
        params: &[
            ParamSpec {
                key: "degree",
                default: "3",
                help: "links per online peer",
            },
            ParamSpec {
                key: "triadic",
                default: "false",
                help: "prefer friend-of-friend links",
            },
        ],
        source: source_p2p,
    },
    WorkloadSpec {
        name: "flicker",
        summary: "ring backbone plus chords flapping on a short period",
        params: &[
            ParamSpec {
                key: "flickering",
                default: "n/4",
                help: "number of flickering chords",
            },
            ParamSpec {
                key: "period",
                default: "2",
                help: "rounds between flips",
            },
        ],
        source: source_flicker,
    },
    WorkloadSpec {
        name: "planted-clique",
        summary: "planted k-cliques appearing and dissolving under noise",
        params: PLANTED_PARAMS,
        source: |p| source_planted(p, false),
    },
    WorkloadSpec {
        name: "planted-cycle",
        summary: "planted k-cycles appearing and dissolving under noise",
        params: PLANTED_PARAMS,
        source: |p| source_planted(p, true),
    },
    WorkloadSpec {
        name: "sliding",
        summary: "sliding-window temporal graph (edges expire after a window)",
        params: &[
            ParamSpec {
                key: "window",
                default: "20",
                help: "edge lifetime in rounds",
            },
            ParamSpec {
                key: "arrivals",
                default: "3",
                help: "edge arrivals per round",
            },
        ],
        source: source_sliding,
    },
    WorkloadSpec {
        name: "hotspot",
        summary: "skewed-activity churn concentrated on a hot id range",
        params: &[
            ParamSpec {
                key: "hot-ids",
                default: "n/10",
                help: "size of the hot id range 0..hot-ids",
            },
            ParamSpec {
                key: "hot",
                default: "0.7",
                help: "probability an endpoint is drawn hot",
            },
            ParamSpec {
                key: "target-edges",
                default: "2·n",
                help: "equilibrium edge count",
            },
            ParamSpec {
                key: "changes-per-round",
                default: "4",
                help: "topology changes per round",
            },
        ],
        source: source_hotspot,
    },
    WorkloadSpec {
        name: "preferential",
        summary: "scale-free preferential attachment churn (hub stress)",
        params: &[],
        source: source_preferential,
    },
    WorkloadSpec {
        name: "thm2",
        summary: "Theorem 2 lower-bound adversary (n/log n wall)",
        params: &[
            ParamSpec {
                key: "pattern",
                default: "p3",
                help: "forbidden pattern H: p3 | k4-e",
            },
            ParamSpec {
                key: "stabilize",
                default: "2·n",
                help: "quiet rounds between phases",
            },
        ],
        source: source_thm2,
    },
    WorkloadSpec {
        name: "thm4",
        summary: "Theorem 4 / Figure 4 adversary (6-cycle merge bottleneck)",
        params: &[
            ParamSpec {
                key: "k",
                default: "6",
                help: "cycle length (≥ 6)",
            },
            ParamSpec {
                key: "stabilize",
                default: "8",
                help: "quiet rounds between phases",
            },
        ],
        source: source_thm4,
    },
    WorkloadSpec {
        name: "remark1",
        summary: "Remark 1 adversary: the √n/log n wall already at 3-paths",
        params: &[
            ParamSpec {
                key: "rows",
                default: "4",
                help: "grid rows t",
            },
            ParamSpec {
                key: "d",
                default: "3·rows",
                help: "degree parameter D",
            },
            ParamSpec {
                key: "stabilize",
                default: "4·d",
                help: "quiet rounds between phases",
            },
        ],
        source: source_remark1,
    },
];

const PLANTED_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "k",
        default: "3",
        help: "shape size",
    },
    ParamSpec {
        key: "spacing",
        default: "12",
        help: "rounds between plants",
    },
    ParamSpec {
        key: "lifetime",
        default: "30",
        help: "rounds before a plant dissolves",
    },
    ParamSpec {
        key: "noise",
        default: "2",
        help: "random edge toggles per round",
    },
];

/// All registered workloads, in listing order.
pub fn workloads() -> &'static [WorkloadSpec] {
    WORKLOADS
}

/// Registered workload names, in listing order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Look up one workload by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Build a fresh streaming source for the named workload, or report known
/// names. The returned source produces exactly the batch sequence that
/// [`build_trace`] would materialize from the same parameters.
pub fn build_source(name: &str, params: &Params) -> Result<BoxedSource, String> {
    match find(name) {
        Some(spec) => spec.source(params),
        None => Err(format!(
            "unknown workload {name:?}; expected one of {:?}",
            names()
        )),
    }
}

/// Build a recorded trace for the named workload (materializes
/// [`build_source`]), or report known names.
pub fn build_trace(name: &str, params: &Params) -> Result<Trace, String> {
    let trace = build_source(name, params)?.materialize();
    debug_assert!(trace.validate().is_ok(), "workload produced invalid trace");
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_workload_builds_a_valid_trace() {
        let p = Params::new()
            .with("n", 24)
            .with("rounds", 40)
            .with("seed", 7);
        for spec in workloads() {
            let t = build_trace(spec.name, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(t.validate().is_ok(), "{} trace invalid", spec.name);
            assert!(t.rounds() > 0, "{} produced an empty trace", spec.name);
        }
    }

    #[test]
    fn every_source_streams_what_build_trace_materializes() {
        let p = Params::new()
            .with("n", 20)
            .with("rounds", 30)
            .with("seed", 5);
        for spec in workloads() {
            let trace = build_trace(spec.name, &p).unwrap();
            let mut src = spec.source(&p).unwrap();
            assert_eq!(src.n(), trace.n, "{}", spec.name);
            for (i, want) in trace.batches.iter().enumerate() {
                let got = src.next_batch().unwrap_or_else(|| {
                    panic!("{}: stream ended early at round {}", spec.name, i + 1)
                });
                assert_eq!(&got, want, "{}: round {} diverged", spec.name, i + 1);
            }
            assert!(src.next_batch().is_none(), "{}: stream overran", spec.name);
        }
    }

    #[test]
    fn unknown_names_and_bad_params_error() {
        assert!(build_trace("nope", &Params::new()).is_err());
        assert!(build_source("nope", &Params::new()).is_err());
        let bad = Params::new().with("n", "twelve");
        assert!(build_trace("er", &bad).is_err());
        let bad_pattern = Params::new().with("pattern", "q9");
        assert!(build_trace("thm2", &bad_pattern).is_err());
    }

    #[test]
    fn params_respected() {
        let a = build_trace("er", &Params::new().with("n", 16).with("rounds", 25)).unwrap();
        assert_eq!(a.n, 16);
        assert_eq!(a.rounds(), 25);
        // Same params — same trace; different seed — different trace.
        let b = build_trace("er", &Params::new().with("n", 16).with("rounds", 25)).unwrap();
        assert_eq!(a, b);
        let c = build_trace(
            "er",
            &Params::new()
                .with("n", 16)
                .with("rounds", 25)
                .with("seed", 9),
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn names_match_specs() {
        let ns = names();
        assert!(ns.contains(&"er") && ns.contains(&"thm4") && ns.contains(&"remark1"));
        assert_eq!(ns.len(), workloads().len());
        for spec in workloads() {
            assert_eq!(find(spec.name).unwrap().name, spec.name);
        }
    }
}
