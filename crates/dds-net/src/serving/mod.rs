//! `dds serve` — the long-lived query-serving layer.
//!
//! The paper's data structures answer subgraph queries *while the network
//! churns*; this module is the process that makes that a service instead
//! of a one-shot CLI run. A daemon ([`Server`]) keeps many named sessions
//! live in a [`Directory`], ingests event batches, advances rounds, and
//! answers [`Query`](crate::query::Query) traffic concurrently — with
//! strict reader/writer separation (see [`state`]) so queries against the
//! settled prefix never block ingest.
//!
//! - [`wire`] — length-prefixed, checksummed JSON framing + the versioned
//!   verb envelope (`open`/`ingest`/`step`/`query`/`list`/`stats`/
//!   `checkpoint`/`close`/`shutdown`);
//! - [`state`] — per-session single-writer ownership, the published
//!   settled-watermark view readers query, durable checkpoints, and
//!   crash recovery;
//! - [`server`] — the `std::net` TCP accept loop (threads, no new
//!   dependencies) and verb dispatch;
//! - [`client`] — the blocking client every frontend talks through, with
//!   optional deadlines/retry/backoff for fault-tolerant callers;
//! - [`fault`] — deterministic, seeded fault injection (`--chaos`):
//!   dropped/torn/corrupted frames, delays, and crash points;
//! - [`metrics`] — lock-free counters/gauges behind the `stats` verb;
//! - [`loadgen`] — the N-client query-traffic generator.

pub mod client;
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod state;
pub mod wire;

pub use client::{Client, ClientConfig, QueryOutcome, QueryReply};
pub use fault::{ConnFaults, CrashPoint, FaultPlan, WriteFault};
pub use loadgen::{default_mix, FirstError, LoadgenOptions, LoadgenReport};
pub use metrics::{LatencyHistogram, ServerMetrics, WriteStages};
pub use server::{DurabilityOptions, Server, ServerHandle, ServerOptions, ServerState};
pub use state::{
    path_safe, recover_sessions, Directory, Durability, PublishedView, RecoveryReport,
    RecoveryStages, ServingSession,
};
pub use wire::{Request, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, WIRE_VERSION};
