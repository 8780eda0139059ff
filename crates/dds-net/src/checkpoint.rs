//! Versioned snapshots of a live simulation — checkpoint/restore with
//! bit-exact resume.
//!
//! A snapshot is one self-describing JSON document with two top-level
//! sections:
//!
//! - `header` — format name + version, the protocol name, `n`, the round
//!   the state was captured at, the full engine configuration
//!   (engine/shards/record_stats/bandwidth, as the same tokens the CLI
//!   accepts), and the FNV-1a 64 checksum of the body's bytes as they
//!   appear in the document. The header is everything needed to decide
//!   *how* to restore before touching the body. It also carries two
//!   retired fields at fixed values, so documents stay byte-identical to
//!   those written while the engine had a second shard scheduler and a
//!   user switch between inline and pooled shard execution:
//!   `"scheduling":"balanced"` (readers accept the retired `"chunked"`
//!   token too) and `"parallel":false` (readers accept either boolean).
//!   Outputs never depended on either.
//!
//!   The checksum exists only in the document: [`Snapshot::to_json`]
//!   hashes the body bytes it writes and [`Snapshot::from_json`] hashes
//!   the same bytes where it reads them, without re-encoding anything. A
//!   body reformatted to other bytes for the same value fails the check.
//!   No in-memory [`SnapshotHeader`] holds the checksum.
//! - `body` — the full engine state: topology (timestamped edge set),
//!   per-node protocol state (via [`Checkpointable`]), both amortized
//!   meters, bandwidth counters, the per-round stats log, and the
//!   persistent `RoundBuffers` structures (active set, outbox flag
//!   column; the sorted adjacency is rebuilt from the topology section,
//!   of which it is a pure function).
//!
//! # Capture is the encoding, restore is the decoding
//!
//! Capturing a snapshot writes the body's JSON text straight from the
//! live state, through one compact [`Writer`]: every [`Checkpointable`]
//! node, the topology, the meters and the simulator write their own
//! sections, and no value tree is built. [`Snapshot::to_json`] then
//! splices that text with the header and checksums exactly those bytes.
//!
//! Restoring goes the other way through one pull [`Reader`]: the same
//! sections read their text straight into live state, in the order they
//! wrote it, again with no tree. A [`Snapshot`] holds the body as text
//! either way. [`Snapshot::from_json`] reads the header, checks the
//! body's syntax without building anything, checksums its bytes and keeps
//! them, so a document read and written back is spliced, not re-encoded,
//! and keeps its bytes.
//!
//! Key order is part of the format: each section's reader expects its
//! members in the order its writer writes them, and a reordered, missing
//! or unknown key is [`RestoreError::Corrupt`] naming the key. Only the
//! document's two sections are found by name, in either order.
//!
//! # Determinism
//!
//! Snapshots are byte-stable: every hash map/set is serialized sorted by
//! key, every queue in its exact order, and floats go through the JSON
//! writer's shortest-roundtrip formatting (so `f64::to_bits` survives a
//! write/read cycle). Restoring a snapshot and continuing the run is
//! bit-identical to never having stopped — `tests/checkpoint_restore.rs`
//! locks this differentially, and golden fixtures under
//! `tests/golden/snapshots/` lock the format itself.

use crate::ids::{Edge, NodeId};
use std::fmt;
use std::path::Path as FsPath;

pub use serde::{Deserialize, Serialize, Value};
pub use serde_json::{Reader, Writer};
use std::time::{Duration, Instant};

/// Magic format name stored in every snapshot header.
pub const SNAPSHOT_FORMAT: &str = "dds-snapshot";

/// Current snapshot format version. Bump on any body/header layout
/// change; readers refuse versions from the future.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The header's `scheduling` tokens a reader accepts; writers emit the
/// first. See the module docs.
const SCHEDULING_TOKENS: [&str; 2] = ["balanced", "chunked"];

/// Protocol node state that can be written into and rebuilt from a
/// snapshot. Implementations must be *lossless and canonical*: writing
/// hash maps/sets sorted by key, queues in order — so equal states write
/// equal bytes and loading the text of `save_state(x)` gives back `x` in
/// every observable respect.
pub trait Checkpointable: Sized {
    /// Write this node's full state as one JSON value.
    fn save_state(&self, w: &mut Writer);

    /// Rebuild a node by reading the one value [`Checkpointable::save_state`]
    /// wrote, object keys in the order it wrote them. `id`/`n` are the
    /// same arguments the node was constructed with.
    fn load_state(id: NodeId, n: usize, r: &mut Reader<'_>) -> Result<Self, String>;
}

/// Typed failures of snapshot reading/restore. Every corruption mode the
/// loader can detect maps to a distinct variant so callers (and the CLI)
/// can report precisely what is wrong — none of these panic.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// Filesystem-level failure reading or writing the snapshot.
    Io(String),
    /// The file is not valid JSON (truncation lands here: a cut-off
    /// document fails to parse).
    Parse(String),
    /// Parsed, but structurally broken: missing/ill-typed fields, an
    /// unknown format name, or body contents that fail validation.
    Corrupt(String),
    /// The body does not match the header's checksum — bit rot or a
    /// hand-edited file.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed from the body.
        actual: u64,
    },
    /// Written by a newer format version than this binary understands.
    VersionFromFuture {
        /// Version found in the header (past `u32::MAX` too, which is never
        /// read as a smaller version).
        found: u64,
        /// Highest version this binary supports.
        supported: u32,
    },
    /// The snapshot was taken by a different protocol than the one asked
    /// to restore it.
    ProtocolMismatch {
        /// Protocol the caller asked for.
        expected: String,
        /// Protocol recorded in the header.
        found: String,
    },
    /// The header names a protocol absent from the registry.
    UnknownProtocol(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "snapshot io error: {e}"),
            RestoreError::Parse(e) => write!(f, "snapshot parse error (truncated or not JSON): {e}"),
            RestoreError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            RestoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, body hashes to {actual:#018x}"
            ),
            RestoreError::VersionFromFuture { found, supported } => write!(
                f,
                "snapshot version {found} is from the future (this build supports <= {supported})"
            ),
            RestoreError::ProtocolMismatch { expected, found } => write!(
                f,
                "snapshot protocol mismatch: asked to restore {expected:?} but the snapshot holds {found:?}"
            ),
            RestoreError::UnknownProtocol(p) => {
                write!(f, "snapshot names unknown protocol {p:?}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Snapshot header: everything needed to decide how to restore, without
/// reading the body.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotHeader {
    /// Format version ([`SNAPSHOT_VERSION`] when written by this build).
    pub version: u32,
    /// Registry name of the protocol whose nodes the body holds.
    pub protocol: String,
    /// Network size.
    pub n: usize,
    /// Round the state was captured at (between rounds: after round
    /// `round` completed, before round `round + 1` begins).
    pub round: u64,
    /// Engine token (`"sparse"`/`"dense"`), round-trips through `FromStr`.
    pub engine: String,
    /// Shard policy token (`"auto"` or a count).
    pub shards: String,
    /// Whether a per-round stats log was kept.
    pub record_stats: bool,
    /// Bandwidth budget configuration.
    pub bandwidth: crate::bandwidth::BandwidthConfig,
}

impl SnapshotHeader {
    /// Describe a live run: protocol + position + configuration.
    pub fn describe(protocol: &str, n: usize, round: u64, cfg: &crate::sim::SimConfig) -> Self {
        SnapshotHeader {
            version: SNAPSHOT_VERSION,
            protocol: protocol.to_string(),
            n,
            round,
            engine: cfg.engine.token().to_string(),
            shards: cfg.shards.token(),
            record_stats: cfg.record_stats,
            bandwidth: cfg.bandwidth,
        }
    }

    /// Reconstruct the engine configuration the snapshot was taken under
    /// (the tokens round-trip through the same `FromStr` impls the CLI
    /// uses).
    pub fn sim_config(&self) -> Result<crate::sim::SimConfig, RestoreError> {
        let corrupt = |e: String| RestoreError::Corrupt(format!("header: {e}"));
        Ok(crate::sim::SimConfig {
            bandwidth: self.bandwidth,
            record_stats: self.record_stats,
            engine: self.engine.parse().map_err(corrupt)?,
            shards: self.shards.parse().map_err(corrupt)?,
        })
    }
}

/// A validated (or freshly captured) snapshot: the header, and the body
/// as JSON text — the text a live session wrote, or the bytes
/// [`Snapshot::from_json`] checked.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The validated header.
    pub header: SnapshotHeader,
    body: String,
}

impl Snapshot {
    /// Pair a header with the body text a live session wrote.
    pub(crate) fn captured(header: SnapshotHeader, body: String) -> Self {
        Snapshot { header, body }
    }

    /// The engine-state section's JSON text.
    pub(crate) fn body(&self) -> &str {
        &self.body
    }

    /// Serialize to the on-disk JSON document. Compact (no whitespace):
    /// snapshot files are read far more often than eyeballed, and at
    /// production sizes (tens of MB) pretty-printing roughly doubles both
    /// the file and the restore-time parse — pipe through `python3 -m
    /// json.tool` when a human actually needs to look inside one.
    ///
    /// The document is the header and body spliced into
    /// `{"header":…,"body":…}`, the compact writer's rendering of that
    /// object, and the header's `checksum` field is the FNV-1a 64 of
    /// exactly the body bytes spliced in.
    pub fn to_json(&self) -> String {
        let body = &self.body;
        let h = &self.header;
        let mut header = Writer::new();
        header.object(|w| {
            w.key("format").str(SNAPSHOT_FORMAT);
            w.key("version").u64(h.version as u64);
            w.key("protocol").str(&h.protocol);
            w.key("n").u64(h.n as u64);
            w.key("round").u64(h.round);
            w.key("engine").str(&h.engine);
            w.key("shards").str(&h.shards);
            w.key("scheduling").str(SCHEDULING_TOKENS[0]);
            w.key("parallel").bool(false);
            w.key("record_stats").bool(h.record_stats);
            w.key("bandwidth").value(&h.bandwidth.to_value());
            w.key("checksum").u64(fnv1a64(body.as_bytes()));
        });
        let header = header.into_string();
        ["{\"header\":", &header, ",\"body\":", body, "}\n"].concat()
    }

    /// Read and validate an on-disk snapshot document: JSON syntax, format
    /// name, version (refusing the future), header fields, and the body
    /// checksum — in that order, so the most informative error wins.
    ///
    /// The text is read once. The `header` and `body` sections are found
    /// by name; the header is read as a small tree, and the body's syntax
    /// is checked without building anything. The checksum is taken over
    /// the body's bytes exactly as they appear in `s`, the bytes
    /// [`Snapshot::to_json`] hashed, and those bytes are what the
    /// snapshot keeps: restoring reads them straight into live state.
    pub fn from_json(s: &str) -> Result<Snapshot, RestoreError> {
        let parse = |e: serde_json::Error| RestoreError::Parse(e.to_string());
        let mut r = Reader::new(s);
        let (mut header, mut body) = (None, None);
        if s.trim_start_matches([' ', '\t', '\n', '\r'])
            .starts_with('{')
        {
            r.object(|r| {
                while let Some(name) = r.next_key()? {
                    match &*name {
                        "header" if header.is_none() => header = Some(r.value()?),
                        "body" if body.is_none() => body = Some(r.skip()?),
                        _ => drop(r.skip()?),
                    }
                }
                Ok::<_, serde_json::Error>(())
            })
            .map_err(parse)?;
        } else {
            // Any other JSON value has no sections.
            r.skip().map_err(parse)?;
        }
        r.end().map_err(parse)?;
        let missing = |name: &str| RestoreError::Corrupt(format!("missing `{name}` section"));
        let header = header.ok_or_else(|| missing("header"))?;
        match header.get("format").and_then(Value::as_str) {
            Some(SNAPSHOT_FORMAT) => {}
            Some(other) => {
                return Err(RestoreError::Corrupt(format!(
                    "format is {other:?}, expected {SNAPSHOT_FORMAT:?}"
                )))
            }
            None => return Err(RestoreError::Corrupt("header has no `format` field".into())),
        }
        let hfield = |k: &str| {
            header
                .get(k)
                .ok_or_else(|| RestoreError::Corrupt(format!("header missing `{k}`")))
        };
        let hu64 = |k: &str| {
            u64::from_value(hfield(k)?).map_err(|e| RestoreError::Corrupt(format!("header: {e}")))
        };
        let hstr = |k: &str| {
            String::from_value(hfield(k)?)
                .map_err(|e| RestoreError::Corrupt(format!("header: {e}")))
        };
        let hbool = |k: &str| {
            bool::from_value(hfield(k)?).map_err(|e| RestoreError::Corrupt(format!("header: {e}")))
        };
        let found = hu64("version")?;
        let version = u32::try_from(found)
            .ok()
            .filter(|&version| version <= SNAPSHOT_VERSION)
            .ok_or(RestoreError::VersionFromFuture {
                found,
                supported: SNAPSHOT_VERSION,
            })?;
        let scheduling = hstr("scheduling")?;
        if !SCHEDULING_TOKENS.contains(&scheduling.as_str()) {
            return Err(RestoreError::Corrupt(format!(
                "header: unknown scheduling {scheduling:?}; expected \"balanced\" or \"chunked\""
            )));
        }
        // The retired pool switch: still required to be a boolean, its
        // value ignored (see the module docs).
        hbool("parallel")?;
        let header = SnapshotHeader {
            version,
            protocol: hstr("protocol")?,
            n: hu64("n")? as usize,
            round: hu64("round")?,
            engine: hstr("engine")?,
            shards: hstr("shards")?,
            record_stats: hbool("record_stats")?,
            bandwidth: crate::bandwidth::BandwidthConfig::from_value(hfield("bandwidth")?)
                .map_err(|e| RestoreError::Corrupt(format!("header: {e}")))?,
        };
        let expected = hu64("checksum")?;
        let body = body.ok_or_else(|| missing("body"))?;
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(RestoreError::ChecksumMismatch { expected, actual });
        }
        Ok(Snapshot {
            header,
            body: body.to_string(),
        })
    }

    /// Write the snapshot to a file, atomically: a crash mid-write must
    /// never leave a truncated document under the final name (see
    /// [`write_bytes_atomic`]).
    pub fn write_file(&self, path: &FsPath) -> Result<(), RestoreError> {
        write_bytes_atomic(path, self.to_json().as_bytes())
    }

    /// Read and validate a snapshot file.
    pub fn read_file(path: &FsPath) -> Result<Snapshot, RestoreError> {
        Snapshot::from_json(&read_text(path)?)
    }
}

/// Atomically replace `path` with `bytes`: write a sibling `.tmp` file,
/// fsync it, then rename over the target. A crash at any point leaves
/// either the old file, or a `.tmp` orphan plus the old file — never a
/// truncated document under the final name. Recovery scans ignore `.tmp`
/// files by construction, so orphans are inert (and overwritten by the
/// next successful write).
pub fn write_bytes_atomic(path: &FsPath, bytes: &[u8]) -> Result<(), RestoreError> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let io = |at: &FsPath, e: std::io::Error| RestoreError::Io(format!("{}: {e}", at.display()));
    let mut f = std::fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io(&tmp, e))?;
    // The durability contract ("an acked write survives kill -9") needs
    // the data on disk before the rename makes it the current snapshot.
    f.sync_all().map_err(|e| io(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io(path, e))
}

/// A snapshot file's text.
fn read_text(path: &FsPath) -> Result<String, RestoreError> {
    std::fs::read_to_string(path).map_err(|e| RestoreError::Io(format!("{}: {e}", path.display())))
}

/// What a snapshot-directory scan found: the newest valid snapshot (if
/// any) and every newer candidate that had to be skipped, with the typed
/// reason.
#[derive(Debug, Default)]
pub struct SnapshotScan {
    /// `(path, snapshot)` of the newest valid checkpoint; its round is
    /// the header's, which the file name agrees with.
    pub latest: Option<(std::path::PathBuf, Snapshot)>,
    /// Candidates newer than `latest` that failed validation — a crash's
    /// corrupt/truncated tail, reported so operators see what was lost.
    pub skipped: Vec<(std::path::PathBuf, RestoreError)>,
    /// Wall time spent reading the candidate files the scan opened.
    pub read: Duration,
    /// Wall time spent validating them ([`Snapshot::from_json`]: header,
    /// body syntax and checksum).
    pub verify: Duration,
}

/// Scan a checkpoint directory for `checkpoint_NNNNNN.json` files and
/// return the newest (highest-round) one that validates, walking backwards
/// past corrupt or truncated tails. A file whose name and header name
/// different rounds does not validate: a misnamed older snapshot must not
/// outrank the honest newest one, so it is skipped as
/// [`RestoreError::Corrupt`]. `.tmp` orphans from interrupted atomic
/// writes and unrelated files are not candidates. Only files newer than
/// the chosen snapshot appear in `skipped` — older ones are not read at
/// all.
pub fn scan_snapshot_dir(dir: &FsPath) -> Result<SnapshotScan, RestoreError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| RestoreError::Io(format!("{}: {e}", dir.display())))?;
    let mut candidates: Vec<(u64, std::path::PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| RestoreError::Io(format!("{}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(round) = checkpoint_file_round(name) else {
            continue;
        };
        candidates.push((round, entry.path()));
    }
    // Newest first: recovery wants the highest durable watermark that
    // still validates.
    candidates.sort_by(|a, b| b.cmp(a));
    let mut scan = SnapshotScan::default();
    for (round, path) in candidates {
        let reading = Instant::now();
        let text = read_text(&path);
        let verifying = Instant::now();
        scan.read += verifying - reading;
        let read = text.and_then(|text| Snapshot::from_json(&text));
        scan.verify += verifying.elapsed();
        match read {
            Ok(snap) if snap.header.round == round => {
                scan.latest = Some((path, snap));
                break;
            }
            Ok(snap) => {
                let e = RestoreError::Corrupt(format!(
                    "the file name says round {round} but the header says round {}",
                    snap.header.round
                ));
                scan.skipped.push((path, e));
            }
            Err(e) => scan.skipped.push((path, e)),
        }
    }
    Ok(scan)
}

/// Parse the round out of a `checkpoint_NNNNNN.json` file name; `None`
/// for anything else (including `.tmp` orphans).
pub(crate) fn checkpoint_file_round(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint_")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// FNV-1a 64-bit hash — the snapshot content checksum. Stable, dependency
/// free, and fast enough to hash multi-megabyte bodies at restore time.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Canonical encoding helpers shared by the node `Checkpointable` impls.
// ---------------------------------------------------------------------------

/// One node's state as [`Checkpointable::save_state`] writes it.
pub fn state_text<N: Checkpointable>(node: &N) -> String {
    let mut w = Writer::new();
    node.save_state(&mut w);
    w.into_string()
}

/// Rebuild a node from [`state_text`]'s output, read by
/// [`Checkpointable::load_state`] as a restore reads it; nothing may
/// follow the node's value.
pub fn load_text<N: Checkpointable>(id: NodeId, n: usize, text: &str) -> Result<N, String> {
    let mut r = Reader::new(text);
    let node = N::load_state(id, n, &mut r)?;
    r.end()?;
    Ok(node)
}

/// Read a node id, which must fit a `u32`.
pub fn read_id(r: &mut Reader<'_>) -> Result<NodeId, String> {
    let id = r.u64()?;
    u32::try_from(id)
        .map(NodeId)
        .map_err(|_| format!("node id {id} out of range"))
}

/// Write an edge in its canonical encoding, `[lo, hi]`.
pub fn write_edge(w: &mut Writer, e: Edge) {
    w.array(|w| {
        w.u64(e.lo().0 as u64).u64(e.hi().0 as u64);
    });
}

/// Read an edge in its canonical `[lo, hi]` encoding.
pub fn read_edge(r: &mut Reader<'_>) -> Result<Edge, String> {
    r.array(|r| {
        let (a, b) = (read_id(r)?, read_id(r)?);
        if a == b {
            return Err(format!("edge: degenerate self-loop {}-{}", a.0, b.0));
        }
        Ok(Edge::new(a, b))
    })
}

/// Write a node-id list in order (callers pass them already sorted when
/// the source is a set).
pub fn write_ids(w: &mut Writer, ids: &[NodeId]) {
    w.array(|w| {
        for v in ids {
            w.u64(v.0 as u64);
        }
    });
}

/// Read a node-id list.
pub fn read_ids(r: &mut Reader<'_>) -> Result<Vec<NodeId>, String> {
    let mut ids = Vec::new();
    r.elements(|r| {
        ids.push(read_id(r)?);
        Ok::<_, String>(())
    })?;
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BandwidthConfig;
    use crate::ids::edge;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            version: SNAPSHOT_VERSION,
            protocol: "idle".into(),
            n: 4,
            round: 7,
            engine: "sparse".into(),
            shards: "auto".into(),
            record_stats: true,
            bandwidth: BandwidthConfig::default(),
        }
    }

    fn body() -> &'static str {
        r#"{"round":7}"#
    }

    fn snapshot(header: SnapshotHeader, body: &str) -> Snapshot {
        Snapshot::captured(header, body.into())
    }

    #[test]
    fn roundtrips_through_json() {
        let snap = snapshot(header(), two_field_body());
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.header, snap.header);
        // Both hold the body's text, and both splice it.
        assert_eq!(back.body(), two_field_body());
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn a_body_that_is_not_json_is_a_parse_error() {
        // Checksummed as written, so only the syntax check can catch it.
        let json = snapshot(header(), r#"{"round":[7}"#).to_json();
        assert!(matches!(
            Snapshot::from_json(&json),
            Err(RestoreError::Parse(_))
        ));
        // Not an object at all: valid JSON without sections is corrupt.
        for doc in ["[]", "7", " \"header\" "] {
            assert!(matches!(
                Snapshot::from_json(doc),
                Err(RestoreError::Corrupt(_))
            ));
        }
        assert!(matches!(
            Snapshot::from_json("[1,"),
            Err(RestoreError::Parse(_))
        ));
    }

    #[test]
    fn truncation_is_a_parse_error() {
        let json = snapshot(header(), body()).to_json();
        let cut = &json[..json.len() / 2];
        assert!(matches!(
            Snapshot::from_json(cut),
            Err(RestoreError::Parse(_))
        ));
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let json = snapshot(header(), body()).to_json();
        // Perturb the body without breaking JSON shape.
        let tampered = json.replace("\"round\":7", "\"round\":8");
        assert_ne!(tampered, json, "tamper target not found");
        assert!(matches!(
            Snapshot::from_json(&tampered),
            Err(RestoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_versions_are_refused_before_checksum_checks() {
        let json = snapshot(header(), body()).to_json();
        // Bump the version without fixing the checksum: the version check
        // must win (it runs first, so the error is the informative one).
        let future = json.replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            "\"version\":999",
        );
        assert!(matches!(
            Snapshot::from_json(&future),
            Err(RestoreError::VersionFromFuture {
                found: 999,
                supported: SNAPSHOT_VERSION
            })
        ));
        // 2^32 + 1 is version 1 once cut to 32 bits: it is from the future
        // all the same.
        let wrapping = json.replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            "\"version\":4294967297",
        );
        assert!(matches!(
            Snapshot::from_json(&wrapping),
            Err(RestoreError::VersionFromFuture {
                found: 4_294_967_297,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn missing_sections_are_corrupt_not_panics() {
        assert!(matches!(
            Snapshot::from_json("{}"),
            Err(RestoreError::Corrupt(_))
        ));
        assert!(matches!(
            Snapshot::from_json(r#"{"header": {"format": "other"}}"#),
            Err(RestoreError::Corrupt(_))
        ));
    }

    /// A body with a comma inside, as every real body has.
    fn two_field_body() -> &'static str {
        r#"{"round":7,"nodes":[1,2]}"#
    }

    #[test]
    fn the_checksum_covers_the_body_bytes_as_written() {
        let json = snapshot(header(), two_field_body()).to_json();
        assert!(Snapshot::from_json(&json).is_ok());
        // Same JSON value, one more byte: the checksum is over the bytes
        // `to_json` wrote, so a reformatted body no longer matches.
        let spaced = json.replacen("\"nodes\":[1,2]", "\"nodes\":[1, 2]", 1);
        assert_ne!(spaced, json, "reformat target not found");
        assert!(matches!(
            Snapshot::from_json(&spaced),
            Err(RestoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn sections_are_found_by_name_not_position() {
        let snap = snapshot(header(), two_field_body());
        let body = two_field_body();
        let json = snap.to_json();
        let header = json
            .strip_prefix("{\"header\":")
            .and_then(|rest| rest.strip_suffix(&format!(",\"body\":{body}}}\n")))
            .expect("to_json writes header then body");
        let swapped = format!("{{\"body\":{body},\"header\":{header}}}");
        let back = Snapshot::from_json(&swapped).unwrap();
        assert_eq!(back.header, snap.header);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn edge_codec_roundtrips_and_validates() {
        let e = edge(9, 2);
        let mut w = Writer::new();
        write_edge(&mut w, e);
        let written = w.into_string();
        assert_eq!(written, "[2,9]");
        assert_eq!(read_edge(&mut Reader::new(&written)).unwrap(), e);
        for bad in ["[3,3]", "3", "[1]", "[1,2,3]", "[1,4294967296]", "[-1,2]"] {
            assert!(read_edge(&mut Reader::new(bad)).is_err(), "{bad}");
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dds-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_writes_leave_no_tmp_and_replace_in_place() {
        let dir = scratch_dir("atomic");
        let path = dir.join("checkpoint_000007.json");
        let snap = snapshot(header(), body());
        snap.write_file(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        assert_eq!(Snapshot::read_file(&path).unwrap().header, snap.header);
        // Overwriting goes through the same tmp + rename path.
        write_bytes_atomic(&path, snap.to_json().as_bytes()).unwrap();
        assert!(Snapshot::read_file(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_picks_newest_valid_and_reports_the_skipped_tail() {
        let dir = scratch_dir("scan");
        let mut h5 = header();
        h5.round = 5;
        snapshot(h5, body())
            .write_file(&dir.join("checkpoint_000005.json"))
            .unwrap();
        let mut h9 = header();
        h9.round = 9;
        let nine = snapshot(h9, body());
        nine.write_file(&dir.join("checkpoint_000009.json"))
            .unwrap();
        // A truncated newer tail, a `.tmp` orphan, and an unrelated file:
        // the scan must skip the first with a typed error and never even
        // consider the other two.
        let json = nine.to_json();
        std::fs::write(dir.join("checkpoint_000012.json"), &json[..json.len() / 2]).unwrap();
        std::fs::write(dir.join("checkpoint_000015.tmp"), "garbage").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a checkpoint").unwrap();
        let scan = scan_snapshot_dir(&dir).unwrap();
        let (path, snap) = scan.latest.expect("a valid snapshot survives");
        assert_eq!(snap.header.round, 9);
        assert!(path.ends_with("checkpoint_000009.json"));
        assert_eq!(scan.skipped.len(), 1, "only the truncated tail is skipped");
        assert!(scan.skipped[0].0.ends_with("checkpoint_000012.json"));
        assert!(matches!(scan.skipped[0].1, RestoreError::Parse(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_a_deeply_nested_tail_as_unparseable() {
        let dir = scratch_dir("nested");
        snapshot(header(), body())
            .write_file(&dir.join("checkpoint_000007.json"))
            .unwrap();
        // Well-formed JSON nested far past the parser's depth limit: it
        // must be a typed skip, not a stack overflow that kills recovery.
        let deep = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
        std::fs::write(dir.join("checkpoint_000008.json"), deep).unwrap();
        let scan = scan_snapshot_dir(&dir).unwrap();
        assert_eq!(scan.latest.expect("round 7 survives").1.header.round, 7);
        assert_eq!(scan.skipped.len(), 1);
        assert!(matches!(scan.skipped[0].1, RestoreError::Parse(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_a_file_whose_name_and_header_disagree() {
        let dir = scratch_dir("misnamed");
        let at = |round: u64| {
            let mut h = header();
            h.round = round;
            snapshot(h, body())
        };
        // A round-8 snapshot saved under round 10's name, above the
        // honest newest file: the misnamed one must not win, and its round
        // must not be taken from its name.
        at(8)
            .write_file(&dir.join("checkpoint_000010.json"))
            .unwrap();
        at(9)
            .write_file(&dir.join("checkpoint_000009.json"))
            .unwrap();
        let scan = scan_snapshot_dir(&dir).unwrap();
        let latest = scan.latest.as_ref().map(|found| &found.0);
        assert!(
            latest.is_some_and(|p| p.ends_with("checkpoint_000009.json")),
            "{latest:?}"
        );
        assert_eq!(scan.skipped.len(), 1, "{:?}", scan.skipped);
        assert!(scan.skipped[0].0.ends_with("checkpoint_000010.json"));
        match &scan.skipped[0].1 {
            RestoreError::Corrupt(msg) => {
                assert!(msg.contains("round 10") && msg.contains("round 8"), "{msg}")
            }
            other => panic!("a misnamed file is corrupt, not {other:?}"),
        }
        // Alone, the misnamed file recovers nothing.
        std::fs::remove_file(dir.join("checkpoint_000009.json")).unwrap();
        let scan = scan_snapshot_dir(&dir).unwrap();
        assert!(scan.latest.is_none());
        assert_eq!(scan.skipped.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_of_an_empty_dir_finds_nothing() {
        let dir = scratch_dir("empty");
        let scan = scan_snapshot_dir(&dir).unwrap();
        assert!(scan.latest.is_none());
        assert!(scan.skipped.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_file_names_parse_strictly() {
        assert_eq!(checkpoint_file_round("checkpoint_000042.json"), Some(42));
        assert_eq!(checkpoint_file_round("checkpoint_1.json"), Some(1));
        assert_eq!(checkpoint_file_round("checkpoint_000042.tmp"), None);
        assert_eq!(checkpoint_file_round("checkpoint_.json"), None);
        assert_eq!(checkpoint_file_round("checkpoint_12a.json"), None);
        assert_eq!(checkpoint_file_round("snapshot_000042.json"), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
