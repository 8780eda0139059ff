//! Blocking wire-protocol client — the counterpart every frontend (CLI
//! subcommands, load generator, tests) talks through.
//!
//! # Resilience
//!
//! [`ClientConfig`] adds per-request deadlines (socket timeouts), a
//! bounded automatic-retry loop with deterministic exponential backoff
//! (splitmix64-jittered from the config seed), and reconnection. Retries
//! apply **only** to transport failures (send/recv errors, torn or
//! corrupt frames, undecodable responses) on **idempotent** requests:
//! reads always are; write verbs become idempotent by carrying a client
//! sequence number, which the client stamps automatically — the server
//! answers an exact duplicate from its record instead of re-applying it.
//! Server-side errors (a rejected ingest, an unknown session) are *typed
//! answers*, never retried.
//!
//! Every transport failure drops the connection, whether or not a retry
//! follows: a request that timed out may still be answered later, and a
//! reply carries no request id, so the next request on the same socket
//! would read the late reply as its own. The next exchange connects
//! afresh.
//!
//! Two clients writing the same session concurrently should use distinct
//! config seeds: sequence streams derive from the seed, and the dedup
//! record compares `(seq, content digest)`.

use super::fault::{splitmix64, splitmix64_mix};
use super::wire::{self, Request};
use crate::checkpoint::Snapshot;
use crate::event::EventBatch;
use crate::ids::{NodeId, Round};
use crate::query::{Answer, Query};
use serde::{Deserialize, Serialize, Value};
use std::net::TcpStream;
use std::time::Duration;

/// Outcome of one served query, the client-side decoding of a `results`
/// entry.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// A consistent answer.
    Answer(Answer),
    /// The structure was mid-update at the watermark; retry later.
    Inconsistent,
    /// The question itself was unanswerable (unsupported kind, bad node).
    Error(String),
}

impl QueryOutcome {
    /// Is this an error outcome?
    pub fn is_error(&self) -> bool {
        matches!(self, QueryOutcome::Error(_))
    }
}

/// A batch of query outcomes plus the settled watermark they were
/// answered at.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// The settled round the answers are frozen at.
    pub watermark: Round,
    /// One outcome per submitted query, in order.
    pub outcomes: Vec<QueryOutcome>,
}

/// Client resilience knobs. The default is the PR 9 behavior: no
/// deadline, no retries.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request socket deadline (read and write timeouts). A request
    /// that cannot complete within it fails as a transport error — which
    /// the retry loop then handles.
    pub deadline: Option<Duration>,
    /// Transport-failure retries per request (0 = fail fast).
    pub retries: u32,
    /// Base backoff before the first retry; doubles each attempt (capped
    /// at 64× the base so a large retry budget stays minutes, not hours,
    /// from a dead daemon), plus seeded jitter in `[0, base)`.
    pub backoff: Duration,
    /// Seed for backoff jitter and the write sequence stream.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(25),
            seed: 0x5eed,
        }
    }
}

impl ClientConfig {
    /// A tolerant profile for running against a faulty daemon or wire:
    /// 1s deadline, 5 retries from 10ms backoff, jitter/seq from `seed`.
    pub fn tolerant(seed: u64) -> ClientConfig {
        ClientConfig {
            deadline: Some(Duration::from_secs(1)),
            retries: 5,
            backoff: Duration::from_millis(10),
            seed,
        }
    }
}

/// A failed exchange, split by who failed: the transport (retryable) or
/// the server (a typed answer).
enum ExchangeError {
    Transport(String),
    Server(String),
}

/// One TCP connection speaking the serve wire protocol.
pub struct Client {
    /// `None` after a transport failure, until the next exchange
    /// reconnects.
    stream: Option<TcpStream>,
    addr: String,
    cfg: ClientConfig,
    /// Jitter stream state.
    rng: u64,
    /// Next write sequence number.
    seq: u64,
    retries: u64,
    reconnects: u64,
}

impl Client {
    /// Connect with default (fail-fast) config.
    pub fn connect(addr: &str) -> Result<Client, String> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit resilience config.
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> Result<Client, String> {
        let stream = open_stream(addr, &cfg)?;
        // Decorrelate the jitter and sequence streams from the raw seed.
        let rng = splitmix64_mix(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let seq = splitmix64_mix(cfg.seed);
        Ok(Client {
            stream: Some(stream),
            addr: addr.to_string(),
            cfg,
            rng,
            seq,
            retries: 0,
            reconnects: 0,
        })
    }

    /// Transport-failure retries performed over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections performed over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The next write sequence number (each call returns a fresh one).
    fn next_seq(&mut self) -> u64 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Send one request and return the validated response payload,
    /// retrying transport failures when the config and the request's
    /// idempotence allow it.
    pub fn request(&mut self, req: &Request) -> Result<Value, String> {
        let bytes = serde_json::to_string(&req.to_value())
            .expect("json write is infallible")
            .into_bytes();
        let attempts = if self.cfg.retries > 0 && req.idempotent() {
            self.cfg.retries + 1
        } else {
            1
        };
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                self.backoff_sleep(attempt);
            }
            match self.exchange(&bytes) {
                Ok(v) => return Ok(v),
                Err(ExchangeError::Server(e)) => return Err(e),
                Err(ExchangeError::Transport(e)) => {
                    // The stream is in an unknown framing state and may
                    // still deliver this request's late reply; only a
                    // fresh connection is safe for the next exchange.
                    self.stream = None;
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Deterministic exponential backoff: `base * 2^(attempt-1)` plus
    /// seeded jitter in `[0, base)`. The doubling is capped at `64 * base`
    /// so exhausting a generous retry budget against a dead daemon costs
    /// seconds, not the sum of an unbounded geometric series.
    fn backoff_sleep(&mut self, attempt: u32) {
        let base = self.cfg.backoff.as_nanos() as u64;
        if base == 0 {
            return;
        }
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(6));
        let jitter = splitmix64(&mut self.rng) % base;
        std::thread::sleep(Duration::from_nanos(exp.saturating_add(jitter)));
    }

    /// One raw request/response exchange on the current stream,
    /// connecting first when a transport failure dropped it.
    fn exchange(&mut self, bytes: &[u8]) -> Result<Value, ExchangeError> {
        let t = ExchangeError::Transport;
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = open_stream(&self.addr, &self.cfg).map_err(t)?;
                self.reconnects += 1;
                self.stream.insert(stream)
            }
        };
        wire::write_frame(stream, bytes).map_err(|e| t(format!("send: {e}")))?;
        let (payload, _) = wire::read_frame(stream)
            .map_err(|e| t(format!("recv: {e}")))?
            .ok_or_else(|| t("server closed the connection".into()))?;
        let text =
            std::str::from_utf8(&payload).map_err(|_| t("response frame is not UTF-8".into()))?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| t(format!("response is not JSON: {e}")))?;
        wire::check_response(&value).map_err(ExchangeError::Server)?;
        Ok(value)
    }

    /// Open a fresh session.
    pub fn open(&mut self, session: &str, protocol: &str, n: usize) -> Result<Value, String> {
        self.request(&Request::Open {
            session: session.to_string(),
            protocol: Some(protocol.to_string()),
            n: Some(n),
            engine: None,
            shards: None,
            snapshot: None,
        })
    }

    /// Open a session warm-started from a snapshot.
    pub fn open_from_snapshot(&mut self, session: &str, snap: &Snapshot) -> Result<Value, String> {
        self.request(&Request::Open {
            session: session.to_string(),
            protocol: None,
            n: None,
            engine: None,
            shards: None,
            snapshot: Some(snap.to_json()),
        })
    }

    /// Ingest batches (one round each); returns the new watermark. The
    /// request carries a fresh sequence number, so a transport-level
    /// retry is deduplicated server-side, never double-applied.
    pub fn ingest(&mut self, session: &str, batches: Vec<EventBatch>) -> Result<Round, String> {
        let seq = Some(self.next_seq());
        let v = self.request(&Request::Ingest {
            session: session.to_string(),
            batches,
            seq,
        })?;
        watermark_of(&v)
    }

    /// Advance quiet rounds; returns the new watermark. Sequence-numbered
    /// like [`Client::ingest`].
    pub fn step(&mut self, session: &str, rounds: u64) -> Result<Round, String> {
        let seq = Some(self.next_seq());
        let v = self.request(&Request::Step {
            session: session.to_string(),
            rounds,
            seq,
        })?;
        watermark_of(&v)
    }

    /// Answer queries against the session's settled view.
    pub fn query(
        &mut self,
        session: &str,
        queries: Vec<(NodeId, Query)>,
    ) -> Result<QueryReply, String> {
        let v = self.request(&Request::Query {
            session: session.to_string(),
            queries,
        })?;
        let watermark = watermark_of(&v)?;
        let results = v
            .get("results")
            .and_then(Value::as_array)
            .ok_or("query response has no `results` array")?;
        let outcomes = results
            .iter()
            .map(|r| {
                let status = r
                    .get("status")
                    .and_then(Value::as_str)
                    .ok_or("result entry has no `status`")?;
                match status {
                    "answer" => {
                        Answer::from_value(r.get("value").ok_or("answer result has no `value`")?)
                            .map(QueryOutcome::Answer)
                    }
                    "inconsistent" => Ok(QueryOutcome::Inconsistent),
                    "error" => Ok(QueryOutcome::Error(
                        r.get("error")
                            .and_then(Value::as_str)
                            .unwrap_or("unspecified query error")
                            .to_string(),
                    )),
                    other => Err(format!("unknown result status {other:?}")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(QueryReply {
            watermark,
            outcomes,
        })
    }

    /// Capture the session as a validated [`Snapshot`].
    pub fn checkpoint(&mut self, session: &str) -> Result<Snapshot, String> {
        let v = self.request(&Request::Checkpoint {
            session: session.to_string(),
        })?;
        let doc = v
            .get("snapshot")
            .and_then(Value::as_str)
            .ok_or("checkpoint response has no `snapshot` document")?;
        Snapshot::from_json(doc).map_err(|e| e.to_string())
    }

    /// Enumerate live sessions (raw payload; `sessions` array inside).
    pub fn list(&mut self) -> Result<Value, String> {
        self.request(&Request::List)
    }

    /// Fetch daemon counters/gauges (raw payload).
    pub fn stats(&mut self) -> Result<Value, String> {
        self.request(&Request::Stats)
    }

    /// Drop a session.
    pub fn close(&mut self, session: &str) -> Result<(), String> {
        self.request(&Request::Close {
            session: session.to_string(),
        })
        .map(|_| ())
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

fn open_stream(addr: &str, cfg: &ClientConfig) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    if let Some(deadline) = cfg.deadline {
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    Ok(stream)
}

fn watermark_of(v: &Value) -> Result<Round, String> {
    u64::from_value(
        v.get("watermark")
            .ok_or("response has no `watermark` field")?,
    )
    .map_err(|e| format!("watermark: {e}"))
}
