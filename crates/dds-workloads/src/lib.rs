//! # dds-workloads — workload generators and lower-bound adversaries
//!
//! Sources of per-round topology-change batches for the dynamic-subgraphs
//! suite:
//!
//! - [`erdos`]: evolving Erdős–Rényi churn (background noise);
//! - [`churn`]: heavy-tailed P2P session churn — the paper's motivating
//!   scenario;
//! - [`flicker`]: the §1.3 flicker counterexample and a repeating
//!   adversarial flicker stress;
//! - [`hotspot`]: skewed-activity churn (hot id decile / hub modes) for
//!   load-balance stress;
//! - [`planted`]: planted k-cliques / k-cycles for correctness-vs-oracle
//!   experiments;
//! - [`preferential`]: scale-free preferential-attachment churn (hub
//!   stress);
//! - [`sliding`]: sliding-window temporal graphs;
//! - [`adversary`]: the lower-bound constructions of Theorem 2,
//!   Theorem 4 (Figure 4) and Remark 1;
//! - [`bounds`]: numeric evaluation of the lower-bound curves;
//! - [`registry`]: the workload registry (name → parameter schema →
//!   streaming source / recorded trace) every frontend builds through.
//!
//! Everything is seeded and reproducible, and every generated trace is
//! valid by construction (guarded by [`schedule::EdgeLedger`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod bounds;
pub mod churn;
pub mod erdos;
pub mod flicker;
pub mod hotspot;
pub mod planted;
pub mod preferential;
pub mod registry;
pub mod schedule;
pub mod sliding;

pub use adversary::{HSpec, Remark1Adversary, Thm2Adversary, Thm4Adversary};
pub use churn::{P2pChurn, P2pChurnConfig};
pub use erdos::{ErChurn, ErChurnConfig};
pub use flicker::{staggered_flicker_trace, Flicker, FlickerConfig};
pub use hotspot::{Hotspot, HotspotConfig};
pub use planted::{Planted, PlantedConfig, Shape};
pub use preferential::{Preferential, PreferentialConfig};
pub use registry::{build_source, build_trace, ParamSpec, Params, WorkloadSpec};
pub use schedule::{record, EdgeLedger, Workload};
pub use sliding::{SlidingWindow, SlidingWindowConfig};
