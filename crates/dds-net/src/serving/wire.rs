//! The serve wire protocol: length-prefixed, checksummed JSON frames and
//! the request/response envelope.
//!
//! Framing follows the same philosophy as the snapshot format (and the
//! SIP-003 peer protocol that inspired it): simple enough to re-implement
//! from this comment alone. One frame is
//!
//! ```text
//! [u32 big-endian payload length][u64 big-endian FNV-1a-64 of payload]
//! [payload: UTF-8 JSON, that many bytes]
//! ```
//!
//! The checksum is the fail-stop invariant's wire leg: a frame that was
//! corrupted in flight (or by fault injection) decodes to a *typed error*
//! on the receiver, never to a silently different answer. Truncation is
//! likewise always an error — a frame either arrives whole and intact or
//! not at all.
//!
//! Every request is an object `{"v": 1, "verb": "...", ...}` and every
//! response `{"v": 1, "ok": true, ...}` or
//! `{"v": 1, "ok": false, "error": "...", ["code": "..."]}` — the
//! optional `code` carries machine-readable failure classes
//! (`overloaded`, `evicted`). The version field is checked on both sides;
//! frames larger than [`MAX_FRAME_BYTES`] are refused before allocation
//! (a garbage length prefix must not OOM the daemon).
//!
//! Verbs: `open`, `ingest`, `step`, `query`, `list`, `stats`,
//! `checkpoint`, `close`, `shutdown` — see [`Request`] for each verb's
//! fields. `ingest` and `step` carry an optional client sequence number
//! so a retried write is deduplicated server-side instead of
//! double-applied.

use crate::checkpoint::fnv1a64;
use crate::event::EventBatch;
use crate::ids::NodeId;
use crate::query::Query;
use serde::{Deserialize, Serialize, Value};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Wire protocol version stamped into every frame's JSON envelope.
pub const WIRE_VERSION: u64 = 1;

/// Upper bound on one frame's payload (64 MiB). Checkpoints of large
/// sessions are the biggest legitimate frames; a corrupt length prefix
/// beyond this is rejected as a protocol error instead of an allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes of frame header on the wire: 4 length + 8 checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Write one frame: 4-byte big-endian length, 8-byte FNV-1a-64 payload
/// checksum, then the payload. Returns the total bytes put on the wire
/// (payload + [`FRAME_HEADER_BYTES`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the wire cap", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&fnv1a64(payload).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(payload.len() + FRAME_HEADER_BYTES)
}

/// Fault injection: write a deliberately *torn* frame — correct header
/// for the full payload, but only `cut` payload bytes, so the peer sees a
/// mid-frame EOF when the writer closes. `cut` is clamped below the
/// payload length.
pub fn write_torn_frame(w: &mut impl Write, payload: &[u8], cut: usize) -> io::Result<()> {
    let cut = cut.min(payload.len().saturating_sub(1));
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&fnv1a64(payload).to_be_bytes())?;
    w.write_all(&payload[..cut])?;
    w.flush()
}

/// Fault injection: write a complete frame whose payload has the byte at
/// `flip_at` inverted *after* the checksum was computed — framing stays
/// intact, but the receiver's checksum verification fails with a typed
/// error. This is exactly the corruption the checksum exists to catch.
pub fn write_corrupt_frame(w: &mut impl Write, payload: &[u8], flip_at: usize) -> io::Result<()> {
    if payload.is_empty() {
        return write_frame(w, payload).map(|_| ());
    }
    let mut damaged = payload.to_vec();
    let at = flip_at % damaged.len();
    damaged[at] ^= 0xFF;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&fnv1a64(payload).to_be_bytes())?;
    w.write_all(&damaged)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean end-of-stream (the peer closed
/// between frames); an EOF mid-frame or a checksum mismatch is an error.
/// The returned usize is the total bytes taken off the wire
/// (payload + [`FRAME_HEADER_BYTES`]).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(Vec<u8>, usize)>> {
    read_frame_inner(r, None, None)
}

/// Like [`read_frame`], but for sockets with a read timeout: timeouts
/// (`WouldBlock`/`TimedOut`) between frames poll `stop` and keep waiting,
/// and — crucially — a timeout *mid-frame* resumes from the partial bytes
/// already read instead of desynchronizing the stream. Returns `Ok(None)`
/// on clean close, or when `stop` fires between frames; a stop mid-frame
/// is an error (the peer went quiet halfway through a frame).
pub fn read_frame_poll(
    r: &mut impl Read,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<(Vec<u8>, usize)>> {
    read_frame_inner(r, Some(stop), None)
}

/// [`read_frame_poll`] with a per-frame read budget: once the first byte
/// of a frame arrives, the whole frame must complete within `budget` or
/// the read fails with `TimedOut`. This bounds how long a slow-loris peer
/// (one byte per poll interval, forever) can pin a connection thread —
/// the daemon closes *that* connection and keeps serving the rest. Idle
/// time between frames is not budgeted.
pub fn read_frame_budget(
    r: &mut impl Read,
    stop: &dyn Fn() -> bool,
    budget: Duration,
) -> io::Result<Option<(Vec<u8>, usize)>> {
    read_frame_inner(r, Some(stop), Some(budget))
}

fn read_frame_inner(
    r: &mut impl Read,
    stop: Option<&dyn Fn() -> bool>,
    budget: Option<Duration>,
) -> io::Result<Option<(Vec<u8>, usize)>> {
    // The budget clock starts at the first byte of the frame, checked
    // wherever the fill loops come up for air.
    let mut t0: Option<Instant> = None;
    let over_budget = |t0: &Option<Instant>| match (budget, t0) {
        (Some(b), Some(t)) => t.elapsed() > b,
        _ => false,
    };
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_BYTES {
        if over_budget(&t0) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "per-frame read budget exhausted mid-frame (slow peer)",
            ));
        }
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (inside the frame header)",
                ))
            }
            Ok(k) => {
                filled += k;
                t0.get_or_insert_with(Instant::now);
            }
            Err(e) if retryable(&e) => match stop {
                Some(stop) => {
                    if stop() {
                        if filled == 0 {
                            return Ok(None);
                        }
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server stopping with a partial frame in flight",
                        ));
                    }
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let expected = u64::from_be_bytes(header[4..].try_into().expect("8 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame, over the wire cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        if over_budget(&t0) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "per-frame read budget exhausted mid-frame (slow peer)",
            ));
        }
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (inside the payload)",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if retryable(&e) => match stop {
                Some(stop) => {
                    if stop() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server stopping with a partial frame in flight",
                        ));
                    }
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
    let actual = fnv1a64(&payload);
    if actual != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame checksum mismatch: header says {expected:#018x}, payload \
                 hashes to {actual:#018x} (corrupted in flight)"
            ),
        ));
    }
    Ok(Some((payload, len + FRAME_HEADER_BYTES)))
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// One client request, the typed form of the JSON envelope. Decoding is
/// total — wire input is untrusted, so every malformed shape is an `Err`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Create a named session: either fresh (`protocol` + `n` + engine
    /// options) or warm-started from an inline snapshot document.
    Open {
        /// Session name (directory key; must be new).
        session: String,
        /// Registry protocol name (ignored when `snapshot` is given — the
        /// snapshot header is authoritative, a mismatch is an error).
        protocol: Option<String>,
        /// Network size for a fresh session.
        n: Option<usize>,
        /// `sparse` / `dense` engine token.
        engine: Option<String>,
        /// `auto` / count shard token.
        shards: Option<String>,
        /// Full snapshot JSON document for a warm start.
        snapshot: Option<String>,
    },
    /// Advance the session one round per batch, in order.
    Ingest {
        /// Target session.
        session: String,
        /// The per-round topology change batches.
        batches: Vec<EventBatch>,
        /// Client sequence number: a retry of the last write with the same
        /// `seq` (and same content) is answered from the recorded result
        /// instead of re-applied.
        seq: Option<u64>,
    },
    /// Advance the session by quiet rounds (no topology changes).
    Step {
        /// Target session.
        session: String,
        /// How many quiet rounds.
        rounds: u64,
        /// Client sequence number (see [`Request::Ingest`]).
        seq: Option<u64>,
    },
    /// Answer queries against the session's published (settled) view.
    Query {
        /// Target session.
        session: String,
        /// `(at-node, query)` pairs, answered in order.
        queries: Vec<(NodeId, Query)>,
    },
    /// Enumerate live sessions with their positions and summaries.
    List,
    /// Export the daemon's counters and gauges.
    Stats,
    /// Capture the session as a snapshot document (returned inline).
    Checkpoint {
        /// Target session.
        session: String,
    },
    /// Drop a session from the directory.
    Close {
        /// Target session.
        session: String,
    },
    /// Stop the daemon (responds first, then the accept loop exits).
    Shutdown,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

impl Request {
    /// The verb token this request serializes under.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Ingest { .. } => "ingest",
            Request::Step { .. } => "step",
            Request::Query { .. } => "query",
            Request::List => "list",
            Request::Stats => "stats",
            Request::Checkpoint { .. } => "checkpoint",
            Request::Close { .. } => "close",
            Request::Shutdown => "shutdown",
        }
    }

    /// Is an automatic retry of this request safe? Reads always; writes
    /// only when sequence-numbered (the server deduplicates them).
    pub fn idempotent(&self) -> bool {
        match self {
            Request::Query { .. } | Request::List | Request::Stats | Request::Checkpoint { .. } => {
                true
            }
            Request::Ingest { seq, .. } | Request::Step { seq, .. } => seq.is_some(),
            Request::Open { .. } | Request::Close { .. } | Request::Shutdown => false,
        }
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let mut fields = vec![("v", Value::U64(WIRE_VERSION)), ("verb", s(self.verb()))];
        match self {
            Request::Open {
                session,
                protocol,
                n,
                engine,
                shards,
                snapshot,
            } => {
                fields.push(("session", s(session)));
                if let Some(p) = protocol {
                    fields.push(("protocol", s(p)));
                }
                if let Some(n) = n {
                    fields.push(("n", Value::U64(*n as u64)));
                }
                if let Some(e) = engine {
                    fields.push(("engine", s(e)));
                }
                if let Some(sh) = shards {
                    fields.push(("shards", s(sh)));
                }
                if let Some(snap) = snapshot {
                    fields.push(("snapshot", s(snap)));
                }
            }
            Request::Ingest {
                session,
                batches,
                seq,
            } => {
                fields.push(("session", s(session)));
                fields.push(("batches", batches.to_value()));
                if let Some(seq) = seq {
                    fields.push(("seq", Value::U64(*seq)));
                }
            }
            Request::Step {
                session,
                rounds,
                seq,
            } => {
                fields.push(("session", s(session)));
                fields.push(("rounds", Value::U64(*rounds)));
                if let Some(seq) = seq {
                    fields.push(("seq", Value::U64(*seq)));
                }
            }
            Request::Query { session, queries } => {
                fields.push(("session", s(session)));
                fields.push((
                    "queries",
                    Value::Arr(
                        queries
                            .iter()
                            .map(|(at, q)| {
                                obj(vec![
                                    ("at", Value::U64(at.0 as u64)),
                                    ("query", q.to_value()),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Request::Checkpoint { session } | Request::Close { session } => {
                fields.push(("session", s(session)));
            }
            Request::List | Request::Stats | Request::Shutdown => {}
        }
        obj(fields)
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, String> {
        let version = match v.get("v") {
            Some(ver) => u64::from_value(ver).map_err(|e| format!("request `v`: {e}"))?,
            None => return Err("request has no `v` version field".into()),
        };
        if version != WIRE_VERSION {
            return Err(format!(
                "request wire version {version} unsupported (this daemon speaks {WIRE_VERSION})"
            ));
        }
        let verb = v
            .get("verb")
            .and_then(Value::as_str)
            .ok_or("request has no string `verb` field")?;
        let session = || {
            v.get("session")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{verb} request needs a `session` name"))
        };
        let opt_str = |key: &str| -> Result<Option<String>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(val) => val
                    .as_str()
                    .map(|x| Some(x.to_string()))
                    .ok_or_else(|| format!("open request `{key}` must be a string")),
            }
        };
        let opt_seq = || -> Result<Option<u64>, String> {
            match v.get("seq") {
                None => Ok(None),
                Some(val) => u64::from_value(val)
                    .map(Some)
                    .map_err(|e| format!("{verb} `seq`: {e}")),
            }
        };
        match verb {
            "open" => Ok(Request::Open {
                session: session()?,
                protocol: opt_str("protocol")?,
                n: match v.get("n") {
                    None => None,
                    Some(n) => Some(usize::from_value(n).map_err(|e| format!("open `n`: {e}"))?),
                },
                engine: opt_str("engine")?,
                shards: opt_str("shards")?,
                snapshot: opt_str("snapshot")?,
            }),
            "ingest" => Ok(Request::Ingest {
                session: session()?,
                batches: match v.get("batches") {
                    Some(b) => Vec::<EventBatch>::from_value(b)
                        .map_err(|e| format!("ingest `batches`: {e}"))?,
                    None => return Err("ingest request needs `batches`".into()),
                },
                seq: opt_seq()?,
            }),
            "step" => Ok(Request::Step {
                session: session()?,
                rounds: match v.get("rounds") {
                    Some(r) => u64::from_value(r).map_err(|e| format!("step `rounds`: {e}"))?,
                    None => 1,
                },
                seq: opt_seq()?,
            }),
            "query" => {
                let entries = v
                    .get("queries")
                    .and_then(Value::as_array)
                    .ok_or("query request needs a `queries` array")?;
                let mut queries = Vec::with_capacity(entries.len());
                for (i, entry) in entries.iter().enumerate() {
                    let at = match entry.get("at") {
                        Some(a) => {
                            NodeId(u32::from_value(a).map_err(|e| format!("queries[{i}].at: {e}"))?)
                        }
                        None => return Err(format!("queries[{i}] has no `at` node")),
                    };
                    let q = entry
                        .get("query")
                        .ok_or_else(|| format!("queries[{i}] has no `query` value"))?;
                    queries.push((
                        at,
                        Query::from_value(q).map_err(|e| format!("queries[{i}]: {e}"))?,
                    ));
                }
                Ok(Request::Query {
                    session: session()?,
                    queries,
                })
            }
            "list" => Ok(Request::List),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint {
                session: session()?,
            }),
            "close" => Ok(Request::Close {
                session: session()?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown verb {other:?}; expected one of [open, ingest, step, query, \
                 list, stats, checkpoint, close, shutdown]"
            )),
        }
    }
}

/// Build a success response envelope around payload fields.
pub fn ok_response(payload: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![("v", Value::U64(WIRE_VERSION)), ("ok", Value::Bool(true))];
    fields.extend(payload);
    obj(fields)
}

/// Build a failure response envelope.
pub fn err_response(message: &str) -> Value {
    obj(vec![
        ("v", Value::U64(WIRE_VERSION)),
        ("ok", Value::Bool(false)),
        ("error", s(message)),
    ])
}

/// Build a failure response carrying a machine-readable `code`
/// (`overloaded`, `evicted`, …) alongside the human message. Clients
/// surface it as a `[code]` prefix on the error string.
pub fn err_response_coded(code: &str, message: &str) -> Value {
    obj(vec![
        ("v", Value::U64(WIRE_VERSION)),
        ("ok", Value::Bool(false)),
        ("code", s(code)),
        ("error", s(message)),
    ])
}

/// Validate a response envelope: version + `ok` flag. Returns the whole
/// value on success (payload fields live at the top level) or the peer's
/// error message — prefixed `[code] ` when the server classified the
/// failure.
pub fn check_response(v: &Value) -> Result<&Value, String> {
    match v.get("v") {
        Some(ver) => {
            let version = u64::from_value(ver).map_err(|e| format!("response `v`: {e}"))?;
            if version != WIRE_VERSION {
                return Err(format!("response wire version {version} unsupported"));
            }
        }
        None => return Err("response has no `v` version field".into()),
    }
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        Some(Value::Bool(false)) => {
            let message = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unspecified server error");
            Err(match v.get("code").and_then(Value::as_str) {
                Some(code) => format!("[{code}] {message}"),
                None => message.to_string(),
            })
        }
        _ => Err("response has no boolean `ok` field".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    #[test]
    fn frames_roundtrip_and_count_bytes() {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, b"{\"v\":1}").unwrap();
        assert_eq!(wrote, 7 + FRAME_HEADER_BYTES);
        let mut r = &buf[..];
        let (payload, took) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(payload, b"{\"v\":1}");
        assert_eq!(took, wrote);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_are_errors_not_hangs() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut inside the payload.
        let mut r = &buf[..buf.len() - 2];
        assert!(read_frame(&mut r).is_err());
        // Cut inside the header.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        let mut r = &buf[..7];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefixes_are_refused() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(b"x");
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_payloads_fail_the_frame_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"ok\":true,\"watermark\":7}").unwrap();
        for at in FRAME_HEADER_BYTES..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            let mut r = &bad[..];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
            assert!(err.to_string().contains("checksum"), "flip at {at}: {err}");
        }
    }

    #[test]
    fn torn_and_corrupt_writers_produce_detectable_damage() {
        let payload = b"{\"v\":1,\"ok\":true}";
        let mut torn = Vec::new();
        write_torn_frame(&mut torn, payload, 5).unwrap();
        let mut r = &torn[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut corrupt = Vec::new();
        write_corrupt_frame(&mut corrupt, payload, 3).unwrap();
        assert_eq!(corrupt.len(), payload.len() + FRAME_HEADER_BYTES);
        let mut r = &corrupt[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn read_budget_bounds_slow_frames_but_not_idle_waits() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A reader that yields WouldBlock forever after one header byte:
        // a slow-loris peer. The budget must cut it off.
        struct Loris(AtomicUsize);
        impl Read for Loris {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    buf[0] = 0;
                    return Ok(1);
                }
                std::thread::sleep(Duration::from_millis(1));
                Err(io::Error::new(io::ErrorKind::WouldBlock, "slow"))
            }
        }
        let stop = || false;
        let err = read_frame_budget(
            &mut Loris(AtomicUsize::new(0)),
            &stop,
            Duration::from_millis(20),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("budget"), "{err}");

        // An idle connection (no bytes at all) is not budgeted: the stop
        // poll decides, exactly as in read_frame_poll — even though the
        // idle wait far exceeds the budget.
        struct Idle;
        impl Read for Idle {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"))
            }
        }
        let t0 = Instant::now();
        let stop_late = move || t0.elapsed() > Duration::from_millis(50);
        let out = read_frame_budget(&mut Idle, &stop_late, Duration::from_millis(5)).unwrap();
        assert!(
            out.is_none(),
            "idle + stop is a clean None, not a budget error"
        );
    }

    #[test]
    fn requests_roundtrip_through_the_envelope() {
        let reqs = vec![
            Request::Open {
                session: "alpha".into(),
                protocol: Some("triangle".into()),
                n: Some(64),
                engine: Some("sparse".into()),
                shards: None,
                snapshot: None,
            },
            Request::Ingest {
                session: "alpha".into(),
                batches: vec![EventBatch::insert(edge(0, 1)), EventBatch::new()],
                seq: None,
            },
            Request::Ingest {
                session: "alpha".into(),
                batches: vec![EventBatch::delete(edge(0, 1))],
                seq: Some(41),
            },
            Request::Step {
                session: "alpha".into(),
                rounds: 3,
                seq: Some(42),
            },
            Request::Query {
                session: "alpha".into(),
                queries: vec![
                    (NodeId(0), Query::Edge(edge(0, 1))),
                    (NodeId(2), Query::ListTriangles),
                ],
            },
            Request::List,
            Request::Stats,
            Request::Checkpoint {
                session: "alpha".into(),
            },
            Request::Close {
                session: "alpha".into(),
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req.to_value()).unwrap();
            let back = Request::from_value(&serde_json::from_str(&json).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", req.verb()));
            assert_eq!(back, req);
        }
        // Fields are looked up by name: an `open` from an older client that
        // still sends a `scheduling` token decodes, the field ignored.
        let old = r#"{"v":1,"verb":"open","session":"a","protocol":"triangle","n":8,"scheduling":"balanced"}"#;
        assert!(matches!(
            Request::from_value(&serde_json::from_str(old).unwrap()),
            Ok(Request::Open { n: Some(8), .. })
        ));
    }

    #[test]
    fn idempotence_classification_matches_the_retry_contract() {
        let seqless = Request::Step {
            session: "a".into(),
            rounds: 1,
            seq: None,
        };
        let seqd = Request::Step {
            session: "a".into(),
            rounds: 1,
            seq: Some(9),
        };
        assert!(!seqless.idempotent(), "an unnumbered write must not retry");
        assert!(seqd.idempotent(), "a numbered write is dedup-safe");
        assert!(Request::List.idempotent());
        assert!(!Request::Shutdown.idempotent());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases = [
            (r#"{"verb":"list"}"#, "version"),
            (r#"{"v":99,"verb":"list"}"#, "version 99"),
            (r#"{"v":1}"#, "verb"),
            (r#"{"v":1,"verb":"frob"}"#, "unknown verb"),
            (r#"{"v":1,"verb":"ingest","session":"a"}"#, "batches"),
            (
                r#"{"v":1,"verb":"ingest","session":"a","batches":[],"seq":"x"}"#,
                "seq",
            ),
            (r#"{"v":1,"verb":"query","session":"a"}"#, "queries"),
            (r#"{"v":1,"verb":"open"}"#, "session"),
        ];
        for (json, needle) in cases {
            let err = Request::from_value(&serde_json::from_str(json).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{json} -> {err}");
        }
    }

    #[test]
    fn response_envelopes_check_version_and_ok() {
        let ok = ok_response(vec![("round", Value::U64(7))]);
        let v = check_response(&ok).unwrap();
        assert_eq!(v.get("round"), Some(&Value::U64(7)));
        let err = err_response("no such session");
        assert_eq!(check_response(&err).unwrap_err(), "no such session");
        let coded = err_response_coded("overloaded", "session cap reached");
        assert_eq!(
            check_response(&coded).unwrap_err(),
            "[overloaded] session cap reached"
        );
        let bad: Value = serde_json::from_str(r#"{"v":2,"ok":true}"#).unwrap();
        assert!(check_response(&bad).unwrap_err().contains("version"));
    }
}

/// Satellite: the frame decoder against adversarial bytes. Wire input is
/// untrusted; whatever a peer sends, `read_frame` must return a typed
/// result — never panic, never allocate unboundedly, never desync the
/// stream on the frames it does accept.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(192)
    }

    // The vendored proptest generates integers from half-open ranges;
    // bytes come out of `0u16..256` and get narrowed here.
    fn bytes(raw: &[u16]) -> Vec<u8> {
        raw.iter().map(|&b| b as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        // Arbitrary byte soup: never a panic, and any accepted frame is
        // internally consistent (checksum already verified) and accounts
        // for exactly its bytes.
        #[test]
        fn random_bytes_never_panic_the_decoder(raw in prop::collection::vec(0u16..256, 0..256)) {
            let soup = bytes(&raw);
            let mut r = &soup[..];
            match read_frame(&mut r) {
                Ok(None) => prop_assert!(soup.is_empty()),
                Ok(Some((payload, took))) => {
                    prop_assert_eq!(took, payload.len() + FRAME_HEADER_BYTES);
                    prop_assert_eq!(soup.len() - r.len(), took);
                }
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }

        // A valid frame truncated at every possible cut: complete at the
        // full length, clean-EOF at zero, a typed error everywhere in
        // between — and the poll-mode reader classifies identically.
        #[test]
        fn truncation_at_any_cut_is_total(raw in prop::collection::vec(0u16..256, 0..64), cut_seed in 0usize..4096) {
            let payload = bytes(&raw);
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            let cut = cut_seed % (buf.len() + 1);
            let mut r = &buf[..cut];
            let plain = read_frame(&mut r);
            if cut == 0 {
                prop_assert!(matches!(plain, Ok(None)));
            } else if cut == buf.len() {
                let (back, took) = plain.unwrap().unwrap();
                prop_assert_eq!(back, payload.clone());
                prop_assert_eq!(took, buf.len());
            } else {
                let err = plain.unwrap_err();
                prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            }
            let mut r = &buf[..cut];
            let stop = || false;
            match (cut, read_frame_poll(&mut r, &stop)) {
                (0, Ok(None)) => {}
                (c, Ok(Some((back, _)))) if c == buf.len() => prop_assert_eq!(back, payload.clone()),
                (c, Err(_)) if c > 0 && c < buf.len() => {}
                (c, other) => prop_assert!(false, "poll-mode diverged at cut {}: {:?}", c, other),
            }
        }

        // Oversize length headers are refused before allocation — any
        // announced length over the cap is `InvalidData`, regardless of
        // what bytes follow.
        #[test]
        fn oversize_lengths_are_always_refused(over in 1u64..4_227_858_432u64, raw_tail in prop::collection::vec(0u16..256, 0..32)) {
            let len = (MAX_FRAME_BYTES as u64 + over) as u32;
            let mut buf = len.to_be_bytes().to_vec();
            buf.extend_from_slice(&0u64.to_be_bytes());
            buf.extend_from_slice(&bytes(&raw_tail));
            let mut r = &buf[..];
            let err = read_frame(&mut r).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        // No desync: a stream of well-formed frames read back-to-back
        // yields each payload exactly once, in order, then a clean EOF.
        #[test]
        fn back_to_back_frames_never_desync(raws in prop::collection::vec(prop::collection::vec(0u16..256, 0..48), 1..6)) {
            let payloads: Vec<Vec<u8>> = raws.iter().map(|r| bytes(r)).collect();
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, p).unwrap();
            }
            let mut r = &buf[..];
            for p in &payloads {
                let (back, _) = read_frame(&mut r).unwrap().unwrap();
                prop_assert_eq!(&back, p);
            }
            prop_assert!(read_frame(&mut r).unwrap().is_none());
        }

        // Every single-byte corruption of a frame is caught: header
        // damage is a length/EOF/checksum error, payload damage is a
        // checksum error — never a silently different payload.
        #[test]
        fn single_byte_corruption_never_yields_a_wrong_payload(raw in prop::collection::vec(0u16..256, 1..64), at_seed in 0usize..4096, flip in 1u16..256) {
            let payload = bytes(&raw);
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            let at = at_seed % buf.len();
            buf[at] ^= flip as u8;
            let mut r = &buf[..];
            match read_frame(&mut r) {
                Ok(Some((back, _))) => {
                    // Only reachable if the flip produced a frame whose
                    // shorter/longer payload still matches the checksum
                    // bytes left in place — which only the original
                    // payload can do.
                    prop_assert_eq!(back, payload.clone(), "decoder accepted a damaged frame");
                }
                Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
                Err(_) => {}
            }
        }
    }
}
