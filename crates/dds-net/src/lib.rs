//! # dds-net — synchronous highly-dynamic network simulator
//!
//! The substrate for the SPAA 2021 paper *Finding Subgraphs in Highly
//! Dynamic Networks* (Censor-Hillel, Kolobov, Schwartzman). It implements
//! the paper's network model exactly:
//!
//! - a synchronous network that starts as the **empty graph on `n` nodes**;
//! - at the beginning of each round an **arbitrary batch** of edge
//!   insertions/deletions is applied, and each node is notified only of the
//!   changes incident to it;
//! - each node then sends at most **`O(log n)` bits per link**, receives,
//!   updates its local data structure, and can be **queried without
//!   communication** (it may answer `inconsistent`);
//! - the complexity measure is **amortized**: rounds with ≥ 1 inconsistent
//!   node divided by topology changes, maximized over all prefixes.
//!
//! Protocols implement the [`protocol::Node`] trait and run under
//! [`sim::Simulator`], which routes messages only over edges of the current
//! graph, enforces the bandwidth budget in bits, and keeps the
//! [`metrics::AmortizedMeter`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bandwidth;
pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod fingerprint;
pub mod ids;
pub mod message;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod query;
mod round;
pub mod serving;
pub mod session;
pub mod sim;
pub mod source;
pub mod topology;
pub mod trace;

pub use bandwidth::{BandwidthConfig, BandwidthMeter, BandwidthPolicy};
pub use checkpoint::{
    Checkpointable, RestoreError, Snapshot, SnapshotHeader, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
pub use engine::{drive_source, peak_rss_mb, ProtocolRegistry, ProtocolSpec, RunSummary};
pub use event::{EventBatch, LocalEvent, TopologyEvent};
pub use fingerprint::{Claim, Fingerprint, Part};
pub use ids::{edge, Edge, NodeId, Round, NEVER};
pub use message::{node_bits, Addressed, BitSized, Flags, Outbox, Received};
pub use metrics::PerNodeMeter;
pub use metrics::{AmortizedMeter, RoundStats};
pub use protocol::{Node, Response};
pub use query::{Answer, Query, QueryError, QueryKind, Queryable};
pub use session::Session;
pub use sim::{Engine, Shards, SimConfig, Simulator};
pub use source::{BoxedSource, TraceReplay, TraceSource};
pub use topology::Topology;
pub use trace::Trace;
