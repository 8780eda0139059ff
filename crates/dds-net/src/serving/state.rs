//! Serving session state: single-writer ownership with a published
//! settled-round view for concurrent readers, plus the durability and
//! fault-tolerance machinery behind the fail-stop invariant.
//!
//! # The invariant
//!
//! Each named session has one write side and one published read side.
//! The write side is one mutex, the writer lock, over everything a write
//! verb reads or changes: the live [`Session`], the last sequenced write
//! and the durability cadence. Write verbs — `ingest`, `step` — run whole
//! under it, so the round loop runs exactly as it does locally:
//! determinism is untouched. After every write verb the writer
//! *publishes*: it forks the live session ([`Session::fork`] — an
//! in-memory copy, nothing serialized) into a fully independent
//! `Session`, then swaps the read side's `Arc` in under a second mutex.
//! The swap holds that view lock for the pointer exchange only; the
//! replaced view, often the last reference to a whole session, is freed
//! after the lock is released.
//!
//! Readers (`query` verbs) clone the current `Arc` — the only time they
//! hold any lock is for that pointer copy — and answer against an
//! immutable session frozen at the **settled watermark**: the last round
//! the writer had fully executed when it published. Hence:
//!
//! - readers never block ingest: the writer lock is not on the read path,
//!   and the publish swap holds the view lock only for a pointer swap;
//! - ingest never blocks readers: in-flight queries keep their `Arc` and
//!   finish against the old view while new queries see the new one;
//! - answers are bit-identical to a local session queried at the
//!   watermark round, because the published view *is* a fork of the
//!   writer at that round, and a fork is observably identical to its
//!   original and independent of it (`tests/checkpoint_restore.rs`
//!   checks both across the protocol × workload × engine matrix).
//!
//! # Durability and the fail-stop invariant
//!
//! When a session is durable, every `every`-th write verb also
//! *persists*, **before** the view swap. One routine does every persist:
//! it captures a [`Snapshot`] of the live session (the capture is the
//! encoding; no value tree is built) with the session's dedup record in
//! its header, writes that one file atomically (tmp + fsync + rename),
//! then advances the durable round. The ordering is the whole argument: a
//! write verb is acknowledged only after its state is durable *and*
//! published, so an acked round can always be recovered, and a crash at
//! any point loses at most un-acked work. [`CrashPoint`]s bracket exactly
//! the interesting moments — before persist+publish, after publish before
//! the reply, and midway through the snapshot file write.
//!
//! A session becomes durable on one of two paths.
//! [`ServingSession::enable_durability`] persists the current state at
//! once, so a session that is not yet on disk (a fresh `open`, `--resume`,
//! an `open` with a snapshot) is recoverable from the moment it exists.
//! [`Directory::admit`] holds such a session's writer lock from before it
//! enters the directory until that snapshot is on disk; if it cannot be
//! written, the session leaves the directory and every write that reached
//! it is refused. A directory that already holds a snapshot is refused: a
//! closed or evicted session's higher rounds would win recovery.
//! Recovery ([`recover_sessions`], then
//! [`Server::recover`](super::Server::recover)) persists nothing: the
//! newest snapshot in the directory already holds the restored state and
//! dedup record, its header's round is the durable round, and the file
//! stays as it is. A file whose name and header name different rounds is
//! skipped as corrupt (see [`scan_snapshot_dir`]). On both paths the next
//! persisting write comes `every` writes later.
//!
//! # Write stages
//!
//! Each write verb times its stages into the session's [`WriteStages`]:
//! waiting for the writer lock, the verb's own work, the persist (only on
//! persisting writes) and the publish. `stats` reports them per session;
//! they are wall-clock readings and stay out of every snapshot.
//!
//! # Retry deduplication
//!
//! A client that retries a write after a transport failure cannot know
//! whether the original applied. Write verbs therefore carry an optional
//! client sequence number; the session remembers the last sequenced
//! write's `(seq, content digest, result)` — under the writer lock, held
//! across the *entire* write, so a retry racing the original blocks until
//! the original's result is recorded — and answers an exact duplicate from
//! the record instead of re-applying it. The digest (FNV-1a-64 of the
//! verb + serialized content) keeps a colliding sequence number from a
//! different client from masquerading as a retry. Every persisted
//! snapshot carries the record in its header ([`WriteRecord`]), and a
//! recovered session starts with it, so deduplication survives a daemon
//! restart. A warm start ([`ServingSession::open_from_snapshot`]) is a new
//! session and starts with none.

use crate::checkpoint::{
    checkpoint_file_name, checkpoint_file_round, fnv1a64, scan_snapshot_dir, tmp_sibling,
    write_bytes_atomic, Snapshot, WriteRecord,
};
use crate::engine::ProtocolRegistry;
use crate::event::EventBatch;
use crate::ids::Round;
use crate::session::Session;
use crate::sim::SimConfig;

use super::fault::{CrashPoint, FaultPlan};
use super::metrics::WriteStages;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An immutable, fully settled view of a session at one round — what
/// every reader queries.
pub struct PublishedView {
    /// A fork of the writer (never stepped again).
    pub session: Session,
    /// The settled watermark: the round the view is frozen at.
    pub round: Round,
}

/// Durability configuration for one session: where its snapshots go and
/// how often they are taken.
#[derive(Clone, Debug)]
pub struct Durability {
    /// The session's own checkpoint directory: its `checkpoint_NNNNNN.json`
    /// files and nothing else, each header carrying the dedup record.
    pub dir: PathBuf,
    /// Persist after every `every`-th write verb (1 = every write; the
    /// durable watermark then always equals the acked watermark).
    pub every: u64,
}

/// Everything a write verb reads or changes, behind the one writer lock.
struct WriteSide {
    session: Session,
    last_write: Option<WriteRecord>,
    /// `None` while the session is not durable.
    durability: Option<Durability>,
    /// Write verbs since the last persisted snapshot.
    pending: u64,
    /// Set when the session's admission failed: the reply to every write
    /// that reached it anyway.
    refused: Option<String>,
}

/// One named session on the daemon: writer side + published view +
/// per-session gauges.
pub struct ServingSession {
    /// Directory key.
    pub name: String,
    writer: Mutex<WriteSide>,
    published: Mutex<Arc<PublishedView>>,
    /// The newest round with a fully persisted snapshot (0 when
    /// durability is off or nothing has been persisted yet). Written under
    /// the writer lock; `list` and `stats` read it without taking it.
    durable_round: AtomicU64,
    /// Rounds executed on this session since it was opened here (warm
    /// starts begin counting at the snapshot round).
    pub rounds_served: AtomicU64,
    /// Peak active-node count observed across served rounds.
    pub peak_active: AtomicU64,
    /// Latency of each stage of this session's write verbs.
    pub write_stages: WriteStages,
    /// Idle-tracking epoch; `touched_ms` is measured against it.
    epoch: Instant,
    touched_ms: AtomicU64,
}

impl ServingSession {
    /// Wrap a freshly opened (or restored) session and its dedup record,
    /// publishing its current state as the first view.
    fn new(name: &str, session: Session, last_write: Option<WriteRecord>) -> ServingSession {
        let view = PublishedView {
            session: session.fork(),
            round: session.round(),
        };
        ServingSession {
            name: name.to_string(),
            writer: Mutex::new(WriteSide {
                session,
                last_write,
                durability: None,
                pending: 0,
                refused: None,
            }),
            published: Mutex::new(Arc::new(view)),
            durable_round: AtomicU64::new(0),
            rounds_served: AtomicU64::new(0),
            peak_active: AtomicU64::new(0),
            write_stages: WriteStages::default(),
            epoch: Instant::now(),
            touched_ms: AtomicU64::new(0),
        }
    }

    /// Open a fresh session on an empty `n`-node network.
    pub fn open(
        registry: &'static ProtocolRegistry,
        name: &str,
        protocol: &str,
        n: usize,
        cfg: SimConfig,
    ) -> Result<ServingSession, String> {
        let session = registry.open(protocol, n, cfg)?;
        Ok(ServingSession::new(name, session, None))
    }

    /// Warm-start from a snapshot (the `--resume` / inline-snapshot path)
    /// with no dedup record, whatever the header holds: no client had a
    /// write in flight to the new session, so a copied record could only
    /// match a new client's write by accident and answer it unapplied.
    pub fn open_from_snapshot(
        registry: &'static ProtocolRegistry,
        name: &str,
        snap: &Snapshot,
    ) -> Result<ServingSession, String> {
        Ok(ServingSession::restore(registry, name, snap, None)?.0)
    }

    /// Build a session with dedup record `last_write` from a snapshot (a
    /// warm start or `--recover`), timing the restore and the publish.
    fn restore(
        registry: &'static ProtocolRegistry,
        name: &str,
        snap: &Snapshot,
        last_write: Option<WriteRecord>,
    ) -> Result<(ServingSession, Duration, Duration), String> {
        let restoring = Instant::now();
        let session = registry.restore(snap).map_err(|e| e.to_string())?;
        let publishing = Instant::now();
        let serving = ServingSession::new(name, session, last_write);
        Ok((serving, publishing - restoring, publishing.elapsed()))
    }

    /// The current settled view (an `Arc` clone; the lock is held only
    /// for the pointer copy).
    pub fn view(&self) -> Arc<PublishedView> {
        Arc::clone(&self.published.lock().expect("published view poisoned"))
    }

    /// Record client activity (any verb touching this session). Idle
    /// eviction measures from the last touch.
    pub fn touch(&self) {
        self.touched_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// How long since the last [`ServingSession::touch`].
    pub fn idle(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.touched_ms.load(Ordering::Relaxed)))
    }

    /// The newest round whose snapshot is fully on disk.
    pub fn durable_round(&self) -> Round {
        self.durable_round.load(Ordering::Acquire)
    }

    /// Turn on durability: create the directory, persist the current
    /// state immediately (so the session is recoverable from the moment
    /// it exists), and persist again after every `cfg.every`-th write
    /// verb. Returns the durable round.
    ///
    /// This is the path of every session that is not yet on disk: a
    /// fresh `open`, `--resume`, and an `open` with a snapshot. It refuses
    /// a directory that already holds a `checkpoint_*.json`, naming the
    /// directory and its newest round: only recovery resumes one.
    pub fn enable_durability(&self, cfg: Durability) -> Result<Round, String> {
        self.make_durable(&mut self.writer.lock().expect("writer lock poisoned"), cfg)
    }

    /// [`ServingSession::enable_durability`] under a writer lock the
    /// caller already holds.
    fn make_durable(&self, writer: &mut WriteSide, cfg: Durability) -> Result<Round, String> {
        let io = |e: std::io::Error| format!("checkpoint dir {}: {e}", cfg.dir.display());
        std::fs::create_dir_all(&cfg.dir).map_err(io)?;
        let newest = std::fs::read_dir(&cfg.dir)
            .map_err(io)?
            .filter_map(|entry| checkpoint_file_round(entry.ok()?.file_name().to_str()?))
            .max();
        if let Some(round) = newest {
            return Err(format!(
                "checkpoint dir {} already holds snapshots up to round {round}; only \
                 --recover resumes them",
                cfg.dir.display()
            ));
        }
        let round = self.persist(&writer.session, writer.last_write.clone(), &cfg.dir, None)?;
        writer.durability = Some(cfg);
        Ok(round)
    }

    /// Set the persisting cadence of a session [`recover_sessions`]
    /// restored from `cfg.dir`, before it is admitted. Nothing is written:
    /// the snapshot it came from is durable, and the next persisting write
    /// comes `cfg.every` writes from now.
    pub(crate) fn resume_durability(&mut self, cfg: Durability) {
        let writer = self.writer.get_mut().expect("writer lock poisoned");
        writer.durability = Some(cfg);
    }

    /// Capture `session` with `record` in its header and persist it into
    /// `dir` with one atomic file write, then advance the durable round.
    /// Every persist, the first one and the cadence's alike, comes through
    /// here. A scheduled mid-checkpoint crash leaves a torn `.tmp`, the
    /// artifact recovery must skip.
    fn persist(
        &self,
        session: &Session,
        record: Option<WriteRecord>,
        dir: &Path,
        faults: Option<&FaultPlan>,
    ) -> Result<Round, String> {
        let mut snap = session.checkpoint();
        snap.header.last_write = record;
        let round = snap.header.round;
        let path = dir.join(checkpoint_file_name(round));
        let bytes = snap.to_json().into_bytes();
        if let Some(plan) = faults {
            if plan.crash_due(CrashPoint::MidCheckpoint) {
                // A real crash mid-write leaves a partial tmp file; fabricate
                // exactly that, then die. The rename never happens, so no
                // checkpoint_*.json is ever torn.
                let _ = std::fs::write(tmp_sibling(&path), &bytes[..bytes.len() / 2]);
                plan.execute_crash();
                return Err("daemon crashed mid-checkpoint (injected)".into());
            }
        }
        write_bytes_atomic(&path, &bytes).map_err(|e| format!("persist checkpoint: {e}"))?;
        self.durable_round.store(round, Ordering::Release);
        Ok(round)
    }

    /// Run one write verb end to end under the writer lock: refuse it if
    /// the session's admission failed, answer an exact retry from the
    /// dedup record, else run `work`, persist when the cadence is due,
    /// publish a fork of the result as the new settled view, and record
    /// the result for dedup. Returns the watermark round. The publish
    /// happens even when `work` errors partway: the applied prefix is real,
    /// settled state that readers must see (the error goes back to the
    /// writer client only). Persist strictly precedes publish, and publish
    /// the (caller-written) reply: an acknowledged write is recoverable.
    fn write(
        &self,
        seq: Option<u64>,
        digest: impl FnOnce() -> u64,
        faults: Option<&FaultPlan>,
        work: impl FnOnce(&mut Session) -> Result<(), String>,
    ) -> Result<Round, String> {
        let stages = &self.write_stages;
        // Only a sequenced write is matched against or kept as a dedup
        // record, so only it pays for its content digest.
        let key = seq.map(|seq| (seq, digest()));
        let waiting = Instant::now();
        let mut guard = self.writer.lock().expect("writer lock poisoned");
        let writer = &mut *guard;
        if let Some(refusal) = &writer.refused {
            return Err(refusal.clone());
        }
        if let (Some((seq, digest)), Some(last)) = (key, &writer.last_write) {
            if last.seq == seq && last.digest == digest {
                return last.error.clone().map_or(Ok(writer.session.round()), Err);
            }
        }
        stages.lock_wait.record(waiting.elapsed().as_secs_f64());
        let stepping = Instant::now();
        let outcome = work(&mut writer.session);
        stages.step.record(stepping.elapsed().as_secs_f64());
        let round = writer.session.round();
        let record = |error: Option<&String>| {
            let error = error.cloned();
            key.map(|(seq, digest)| WriteRecord { seq, digest, error })
        };
        // Every result from here on, a crash or persist error too, is
        // recorded for dedup below.
        let result = (|| {
            if let Some(plan) = faults {
                if plan.crash_due(CrashPoint::BeforePublish) {
                    plan.execute_crash();
                    return Err("daemon crashed before publish (injected)".to_string());
                }
            }
            // Persist and fork under the writer lock (the state must not
            // advance under either), but *not* the view lock: readers keep
            // querying the old view the whole time.
            if let Some(cfg) = &writer.durability {
                writer.pending += 1;
                if writer.pending >= cfg.every {
                    let persisting = Instant::now();
                    let record = record(outcome.as_ref().err());
                    self.persist(&writer.session, record, &cfg.dir, faults)?;
                    writer.pending = 0;
                    stages.persist.record(persisting.elapsed().as_secs_f64());
                }
            }
            let publishing = Instant::now();
            let view = Arc::new(PublishedView {
                session: writer.session.fork(),
                round,
            });
            // The lock guard is a temporary of this statement, so the view
            // lock is held for the pointer swap only. The replaced view,
            // often the last reference to a whole session, is freed on the
            // next line, after the lock is released: readers never wait on
            // the free.
            let replaced = std::mem::replace(
                &mut *self.published.lock().expect("published view poisoned"),
                view,
            );
            drop(replaced);
            stages.publish.record(publishing.elapsed().as_secs_f64());
            if let Some(plan) = faults {
                if plan.crash_due(CrashPoint::AfterPublish) {
                    plan.execute_crash();
                    return Err("daemon crashed after publish (injected)".to_string());
                }
            }
            outcome.map(|()| round)
        })();
        writer.last_write = record(result.as_ref().err());
        result
    }

    /// Ingest: one round per batch, in order. Returns the new watermark.
    ///
    /// Each batch is validated against the current topology *before* it is
    /// applied: wire input is untrusted, and `Session::step` panics on
    /// invalid batches by contract. (A batch that names one edge twice
    /// never reaches here: decoding an [`EventBatch`] refuses it.) An
    /// invalid batch stops the ingest with
    /// an error naming the round and the offending event; the valid prefix
    /// stays applied and published (the client can re-sync from the
    /// returned error + a `list` of the session's round).
    ///
    /// `_registry` is unused — publishing forks the writer rather than
    /// restoring a snapshot through the registry — and stays so existing
    /// callers keep compiling.
    pub fn ingest(
        &self,
        _registry: &'static ProtocolRegistry,
        batches: &[EventBatch],
        seq: Option<u64>,
        faults: Option<&FaultPlan>,
    ) -> Result<Round, String> {
        let digest = || ingest_digest(batches);
        self.write(seq, digest, faults, |session| {
            for batch in batches {
                session.topology().validate(batch).map_err(|e| {
                    format!(
                        "ingest rejected at round {}: {e} (the batch must be \
                         consistent with the session's current topology — \
                         against a warm-started session, skip the rounds the \
                         snapshot already covers)",
                        session.round() + 1
                    )
                })?;
                session.step(batch);
                self.note_round(session);
            }
            Ok(())
        })
    }

    /// Advance by quiet rounds. Returns the new watermark.
    pub fn step_quiet(
        &self,
        rounds: u64,
        seq: Option<u64>,
        faults: Option<&FaultPlan>,
    ) -> Result<Round, String> {
        let digest = || step_digest(rounds);
        self.write(seq, digest, faults, |session| {
            for _ in 0..rounds {
                session.step_quiet();
                self.note_round(session);
            }
            Ok(())
        })
    }

    fn note_round(&self, session: &Session) {
        self.rounds_served.fetch_add(1, Ordering::Relaxed);
        self.peak_active
            .fetch_max(session.active_nodes() as u64, Ordering::Relaxed);
    }

    /// Capture the writer's state as a snapshot (written between rounds,
    /// like any checkpoint).
    pub fn checkpoint(&self) -> Snapshot {
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .session
            .checkpoint()
    }
}

/// Content digest of an ingest (verb-tagged so an `ingest` and a `step`
/// can never alias).
fn ingest_digest(batches: &[EventBatch]) -> u64 {
    let doc = serde_json::to_string(&batches).expect("json is infallible");
    fnv1a64(format!("ingest:{doc}").as_bytes())
}

/// Content digest of a quiet-step write.
fn step_digest(rounds: u64) -> u64 {
    fnv1a64(format!("step:{rounds}").as_bytes())
}

/// Is `name` usable as a checkpoint directory component? Conservative:
/// ASCII alphanumerics plus `.`, `_`, `-`, not empty, not dot-leading —
/// a session name must never traverse out of the checkpoint base.
pub fn path_safe(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// What `--recover` found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Recovered sessions as `(name, watermark round)`.
    pub sessions: Vec<(String, Round)>,
    /// How long each recovered session took, stage by stage: one entry
    /// per entry of `sessions`, in the same order.
    pub stages: Vec<RecoveryStages>,
    /// Corrupt or truncated candidates that were skipped, with the typed
    /// reason.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Wall time of each stage of one session's recovery. These are
/// measurements of this host, never part of a snapshot, a golden file or
/// a fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryStages {
    /// Reading every checkpoint file the directory scan opened.
    pub read: Duration,
    /// Validating them: header, body syntax and checksum.
    pub verify: Duration,
    /// Reading the chosen snapshot's body into a live session.
    pub restore: Duration,
    /// Publishing the session's first view, a fork of it.
    pub publish: Duration,
}

impl std::fmt::Display for RecoveryStages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "read {:.1} ms, verify {:.1} ms, restore {:.1} ms, publish {:.1} ms",
            ms(self.read),
            ms(self.verify),
            ms(self.restore),
            ms(self.publish)
        )
    }
}

/// Scan a checkpoint base directory and rebuild every recoverable
/// session from its newest valid snapshot.
///
/// Layout: each subdirectory of `base` is one session (named by the
/// directory); `checkpoint_*.json` files directly in `base` (the layout
/// `dds simulate --checkpoint-dir` produces) recover as one session
/// named `default_session`. Corrupt or truncated tails are skipped —
/// walking back to the newest snapshot that restores cleanly — and
/// reported, never fatal. Returns the recovered sessions paired with
/// their checkpoint directories (so the caller can keep persisting into
/// the same place).
pub fn recover_sessions(
    registry: &'static ProtocolRegistry,
    base: &Path,
    default_session: &str,
) -> Result<(Vec<(ServingSession, PathBuf)>, RecoveryReport), String> {
    fn recover_one(
        registry: &'static ProtocolRegistry,
        name: &str,
        dir: &Path,
        recovered: &mut Vec<(ServingSession, PathBuf)>,
        report: &mut RecoveryReport,
    ) {
        let scan = match scan_snapshot_dir(dir) {
            Ok(scan) => scan,
            Err(e) => {
                report.skipped.push((dir.to_path_buf(), e.to_string()));
                return;
            }
        };
        for (path, err) in scan.skipped {
            report.skipped.push((path, err.to_string()));
        }
        let Some((_path, snap)) = scan.latest else {
            return;
        };
        match ServingSession::restore(registry, name, &snap, snap.header.last_write.clone()) {
            Ok((mut session, restore, publish)) => {
                report.stages.push(RecoveryStages {
                    read: scan.read,
                    verify: scan.verify,
                    restore,
                    publish,
                });
                let round = snap.header.round;
                *session.durable_round.get_mut() = round;
                report.sessions.push((name.to_string(), round));
                recovered.push((session, dir.to_path_buf()));
            }
            Err(e) => report.skipped.push((dir.to_path_buf(), e)),
        }
    }
    let mut report = RecoveryReport::default();
    let mut recovered = Vec::new();
    // Flat checkpoint files in the base: the default session.
    recover_one(registry, default_session, base, &mut recovered, &mut report);
    // One subdirectory per named session.
    let entries =
        std::fs::read_dir(base).map_err(|e| format!("recover {}: {e}", base.display()))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|s| s.to_str()) else {
            continue;
        };
        if !path_safe(name) {
            continue;
        }
        if name == default_session && report.sessions.iter().any(|(n, _)| n == name) {
            continue;
        }
        recover_one(registry, name, &dir, &mut recovered, &mut report);
    }
    Ok((recovered, report))
}

/// The daemon's session directory: name → live session, with an optional
/// capacity cap and a memory of evicted names (so a client of an evicted
/// session gets a typed `[evicted]` error, not a confusing "no session").
#[derive(Default)]
pub struct Directory {
    sessions: Mutex<BTreeMap<String, Arc<ServingSession>>>,
    evicted: Mutex<BTreeSet<String>>,
    /// 0 = unlimited.
    cap: AtomicUsize,
}

impl Directory {
    /// Cap the number of live sessions (0 = unlimited). Admissions beyond
    /// the cap fail with a typed `[overloaded]` error.
    pub fn set_session_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// Admit a newly opened session: the one way a session enters the
    /// directory. Errors when the name is taken — sessions are
    /// single-writer, so a second opener must not silently share one — or
    /// when the session cap is reached.
    ///
    /// With `durability` (a session not yet on disk), its writer is locked
    /// before the insert and released only once
    /// [`ServingSession::enable_durability`] has its first snapshot on
    /// disk. If that fails, the session leaves the directory again and
    /// every write that reached it is refused.
    pub fn admit(
        &self,
        session: ServingSession,
        durability: Option<Durability>,
    ) -> Result<Arc<ServingSession>, String> {
        let session = Arc::new(session);
        let name = &session.name;
        let mut writer = session.writer.lock().expect("writer lock poisoned");
        let mut map = self.sessions.lock().expect("directory lock poisoned");
        if map.contains_key(name) {
            return Err(format!("session {name:?} is already open"));
        }
        let cap = self.cap.load(Ordering::Relaxed);
        if cap > 0 && map.len() >= cap {
            return Err(format!(
                "[overloaded] session cap of {cap} reached — close an idle session \
                 or raise --max-sessions"
            ));
        }
        session.touch();
        map.insert(name.clone(), Arc::clone(&session));
        drop(map);
        if let Some(cfg) = durability {
            if let Err(e) = session.make_durable(&mut writer, cfg) {
                writer.refused = Some(format!("no session named {name:?} (its open failed: {e})"));
                // A `close` may have raced the open and a new session taken
                // the name: only this session leaves.
                let mut map = self.sessions.lock().expect("directory lock poisoned");
                map.retain(|_, s| !Arc::ptr_eq(s, &session));
                return Err(e);
            }
        }
        drop(writer);
        // Reopening an evicted name is a fresh session, not a zombie.
        self.evicted
            .lock()
            .expect("evicted set poisoned")
            .remove(name);
        Ok(session)
    }

    /// Look up a session by name (marks it touched for idle eviction).
    pub fn get(&self, name: &str) -> Result<Arc<ServingSession>, String> {
        let found = self
            .sessions
            .lock()
            .expect("directory lock poisoned")
            .get(name)
            .cloned();
        match found {
            Some(arc) => {
                arc.touch();
                Ok(arc)
            }
            None => {
                if self
                    .evicted
                    .lock()
                    .expect("evicted set poisoned")
                    .contains(name)
                {
                    Err(format!(
                        "[evicted] session {name:?} was evicted after idling past the \
                         daemon's idle timeout — open it again to start fresh; a durable \
                         session's state comes back only when the daemon restarts with \
                         --recover"
                    ))
                } else {
                    Err(format!("no session named {name:?} (open it first)"))
                }
            }
        }
    }

    /// Remove a session. In-flight readers holding its view finish
    /// unaffected — the `Arc` keeps the state alive until they drop it.
    pub fn close(&self, name: &str) -> Result<(), String> {
        self.sessions
            .lock()
            .expect("directory lock poisoned")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| format!("no session named {name:?}"))
    }

    /// Remove every session (the daemon stopped). Their state is freed
    /// outside the directory lock, on the calling thread.
    pub(crate) fn close_all(&self) {
        let sessions = std::mem::take(&mut *self.sessions.lock().expect("directory lock poisoned"));
        drop(sessions);
    }

    /// Evict every session idle longer than `timeout`; returns the
    /// evicted names. Evicted names answer `[evicted]` until reopened.
    pub fn evict_idle(&self, timeout: Duration) -> Vec<String> {
        let mut map = self.sessions.lock().expect("directory lock poisoned");
        let stale: Vec<String> = map
            .iter()
            .filter(|(_, s)| s.idle() > timeout)
            .map(|(n, _)| n.clone())
            .collect();
        for name in &stale {
            map.remove(name);
        }
        drop(map);
        if !stale.is_empty() {
            let mut evicted = self.evicted.lock().expect("evicted set poisoned");
            for name in &stale {
                evicted.insert(name.clone());
            }
        }
        stale
    }

    /// All live sessions, in name order.
    pub fn all(&self) -> Vec<Arc<ServingSession>> {
        self.sessions
            .lock()
            .expect("directory lock poisoned")
            .values()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_safety_is_conservative() {
        for good in ["main", "er-16", "a.b_c-7", "X9"] {
            assert!(path_safe(good), "{good:?} should be path-safe");
        }
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "naïve"] {
            assert!(!path_safe(bad), "{bad:?} must not be path-safe");
        }
    }

    use crate::checkpoint::{Checkpointable, Reader, Writer};
    use crate::event::LocalEvent;
    use crate::ids::NodeId;
    use crate::message::{Outbox, Received};
    use crate::protocol::{Node, Response};
    use crate::query::{Answer, Query, QueryError, QueryKind, Queryable};
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// The session whose view lock a freed [`DropProbe`] looks at.
        static WATCHED: RefCell<Option<Arc<ServingSession>>> = const { RefCell::new(None) };
        /// Probe nodes freed, and how many of them with the view lock held.
        static FREED: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    }

    /// A node that notes, as it is freed, whether the watched session's
    /// view lock is held at that moment.
    #[derive(Clone)]
    struct DropProbe;

    impl Drop for DropProbe {
        fn drop(&mut self) {
            // Quiet when the watched session is itself being dropped out of
            // `WATCHED` (a failed assert leaves it there for thread exit).
            let _ = WATCHED.try_with(|watched| {
                if let Ok(Some(serving)) = watched.try_borrow().as_deref() {
                    let held = serving.published.try_lock().is_err();
                    let (freed, under_lock) = FREED.get();
                    FREED.set((freed + 1, under_lock + held as u32));
                }
            });
        }
    }

    impl Node for DropProbe {
        type Msg = ();
        fn new(_id: NodeId, _n: usize) -> Self {
            DropProbe
        }
        fn on_topology(&mut self, _round: Round, _events: &[LocalEvent]) {}
        fn send(&mut self, _round: Round, _neighbors: &[NodeId]) -> Outbox<()> {
            Outbox::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &[Received<()>], _ns: &[NodeId]) {}
        fn is_consistent(&self) -> bool {
            true
        }
    }

    impl Queryable for DropProbe {
        fn supported_queries() -> &'static [QueryKind] {
            &[]
        }
        fn query(&self, _query: &Query) -> Result<Response<Answer>, QueryError> {
            Err(QueryError::Unsupported)
        }
    }

    impl Checkpointable for DropProbe {
        fn save_state(&self, w: &mut Writer) {
            w.null();
        }
        fn load_state(_id: NodeId, _n: usize, r: &mut Reader<'_>) -> Result<Self, String> {
            r.skip()?;
            Ok(DropProbe)
        }
    }

    #[test]
    fn a_write_frees_the_replaced_view_after_releasing_the_view_lock() {
        let session = Session::open::<DropProbe>("drop-probe", 2, SimConfig::default());
        let serving = Arc::new(ServingSession::new("main", session, None));
        WATCHED.set(Some(Arc::clone(&serving)));
        // Each write replaces a view no reader holds, so the writer frees
        // its two nodes, and must do so with the view lock released.
        assert_eq!(serving.step_quiet(1, None, None), Ok(1));
        assert_eq!(
            FREED.get(),
            (2, 0),
            "(nodes freed, of them under the view lock)"
        );
        let reader = serving.view();
        assert_eq!(serving.step_quiet(1, None, None), Ok(2));
        assert_eq!(FREED.get(), (2, 0), "a view a reader holds is not freed");
        drop(reader);
        assert_eq!(FREED.get(), (4, 0));
        WATCHED.set(None);
    }

    #[test]
    fn only_a_sequenced_write_computes_its_digest() {
        let session = Session::open::<DropProbe>("drop-probe", 2, SimConfig::default());
        let serving = ServingSession::new("main", session, None);
        let digests = Cell::new(0);
        let digest = || {
            digests.set(digests.get() + 1);
            7
        };
        let step = |session: &mut Session| {
            session.step_quiet();
            Ok(())
        };
        assert_eq!(serving.write(None, digest, None, step), Ok(1));
        assert_eq!(digests.get(), 0, "an unsequenced write is never matched");
        assert_eq!(serving.write(Some(1), digest, None, step), Ok(2));
        assert_eq!(serving.write(Some(1), digest, None, step), Ok(2), "a retry");
        assert_eq!(digests.get(), 2);
    }

    #[test]
    fn digests_separate_verbs_and_contents() {
        use crate::ids::edge;
        let a = ingest_digest(&[EventBatch::insert(edge(0, 1))]);
        let b = ingest_digest(&[EventBatch::insert(edge(0, 2))]);
        let c = ingest_digest(&[EventBatch::insert(edge(0, 1))]);
        assert_ne!(a, b, "different contents, different digests");
        assert_eq!(a, c, "same contents, same digest");
        assert_ne!(step_digest(3), step_digest(4));
        assert_ne!(a, step_digest(1), "verbs never alias");
    }

    #[test]
    fn ingest_digest_is_pinned() {
        // Every persisted snapshot's header carries this digest, and a
        // restarted daemon compares retried writes against it, so its value
        // must never change.
        use crate::event::TopologyEvent;
        use crate::ids::edge;
        let mut second = EventBatch::new();
        second.push(TopologyEvent::Delete(edge(0, 1)));
        second.push(TopologyEvent::Insert(edge(4, 9)));
        let batches = [EventBatch::insert(edge(0, 1)), second];
        assert_eq!(ingest_digest(&batches), 0x24f5_a3c8_f855_3d94);
    }
}
