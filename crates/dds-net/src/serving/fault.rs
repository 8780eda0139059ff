//! Deterministic seeded fault injection for the serving stack.
//!
//! The paper's adversary controls the *topology*; this module gives the
//! test suite (and `dds serve --chaos SPEC`) an adversary over the
//! *systems* layer: dropped connections mid-frame, torn and corrupted
//! response frames, delayed writes, and process-crash points around the
//! durability boundary. Everything is splitmix64-seeded (the same
//! generator discipline as the PR 7 scheduler), so a fault schedule is a
//! pure function of `(seed, connection id, decision index)` — the same
//! plan replays identically, which is what lets `tests/serve_chaos.rs`
//! assert byte-level outcomes under chaos.
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` tokens:
//!
//! ```text
//! seed=7,drop=0.05,torn=0.02,corrupt=0.02,delay-ms=3,crash=after-publish:4
//! ```
//!
//! - `seed=U64` — the plan seed (default 1);
//! - `drop=P` / `torn=P` / `corrupt=P` — per-response probabilities in
//!   `[0, 1]`: close before writing, write a partial frame then close, or
//!   flip a payload byte (the frame checksum turns that into a typed
//!   client-side error, never a wrong answer);
//! - `delay-ms=N` — sleep N ms before every response write;
//! - `crash=POINT:K` — crash the daemon at the K-th (1-based) occurrence
//!   of `POINT`, one of `before-publish`, `after-publish`,
//!   `mid-checkpoint`. May be given more than once.
//!
//! Crashes are *hard* in the CLI (`std::process::abort`, kill -9
//! fidelity) and *soft* in-process (the plan records the crash, the
//! server goes silent and stops — recovery then reads only what is on
//! disk, exactly as after a real crash).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The splitmix64 output mixer as a pure function — also used by the
/// client to derive decorrelated jitter/sequence streams from one seed.
pub fn splitmix64_mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64: the one-word PRNG behind every fault decision and the
/// client's backoff jitter. Constants and shape match the reference
/// implementation (and the vendored rand shim's seeder).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64_mix(*state)
}

/// A uniform draw in `[0, 1)` from the top 53 bits (exactly representable
/// in an f64, so the comparison against a rate is deterministic).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A crash location in the write path — the three points where losing the
/// process exercises a distinct recovery obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the write verb ran but before anything was persisted or
    /// published: recovery must land on the *previous* durable watermark
    /// (the un-acked write is legitimately lost).
    BeforePublish,
    /// After the snapshot was persisted and the view published but before
    /// the reply: recovery must land on the *new* watermark, and the
    /// client's retry must be deduplicated, not double-applied.
    AfterPublish,
    /// Midway through writing the snapshot file itself: the atomic-write
    /// protocol must leave only a `.tmp` orphan, which recovery skips.
    MidCheckpoint,
}

impl CrashPoint {
    /// The spec token for this point.
    pub fn token(self) -> &'static str {
        match self {
            CrashPoint::BeforePublish => "before-publish",
            CrashPoint::AfterPublish => "after-publish",
            CrashPoint::MidCheckpoint => "mid-checkpoint",
        }
    }

    fn parse(s: &str) -> Result<CrashPoint, String> {
        match s {
            "before-publish" => Ok(CrashPoint::BeforePublish),
            "after-publish" => Ok(CrashPoint::AfterPublish),
            "mid-checkpoint" => Ok(CrashPoint::MidCheckpoint),
            other => Err(format!(
                "unknown crash point {other:?}; expected one of \
                 [before-publish, after-publish, mid-checkpoint]"
            )),
        }
    }
}

/// One scheduled crash: fire at the `at`-th occurrence of `point`.
#[derive(Debug)]
struct CrashSchedule {
    point: CrashPoint,
    at: u64,
    seen: AtomicU64,
}

/// A seeded fault-injection plan, shared by every connection of one
/// daemon. Decision streams are per-connection (seeded from the plan seed
/// and the accept-order connection id), so thread interleaving cannot
/// change which faults a given connection experiences.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    drop: f64,
    torn: f64,
    corrupt: f64,
    delay_ms: u64,
    crashes: Vec<CrashSchedule>,
    hard: bool,
    soft_crashed: AtomicBool,
}

/// What to do with one response frame, drawn from a connection's
/// decision stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Write the frame normally.
    Deliver,
    /// Close the connection without writing anything.
    Drop,
    /// Write a partial frame (correct length prefix, cut payload), then
    /// close — the client sees a mid-frame EOF.
    Torn,
    /// Write the full frame with one payload byte flipped *after* the
    /// frame checksum was computed — the client detects the mismatch.
    Corrupt,
}

/// The per-connection fault decision stream — deterministic in
/// `(plan seed, connection id)` alone.
#[derive(Debug)]
pub struct ConnFaults {
    state: u64,
    drop: f64,
    torn: f64,
    corrupt: f64,
    delay: Option<Duration>,
}

impl ConnFaults {
    /// Decide the fate of the next response frame.
    pub fn next_write(&mut self) -> WriteFault {
        let u = unit(&mut self.state);
        if u < self.drop {
            WriteFault::Drop
        } else if u < self.drop + self.torn {
            WriteFault::Torn
        } else if u < self.drop + self.torn + self.corrupt {
            WriteFault::Corrupt
        } else {
            WriteFault::Deliver
        }
    }

    /// A deterministic index in `[0, len)` (byte to corrupt, cut point).
    pub fn pick_index(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (splitmix64(&mut self.state) % len as u64) as usize
    }

    /// The fixed pre-write delay, when the plan schedules one.
    pub fn delay(&self) -> Option<Duration> {
        self.delay
    }
}

impl FaultPlan {
    /// Parse a `--chaos` spec (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos token {token:?} is not key=value"))?;
            let rate = |what: &str| -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("chaos {what}={value:?} is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos {what}={value} must be in [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("chaos seed={value:?} is not a u64"))?
                }
                "drop" => plan.drop = rate("drop")?,
                "torn" => plan.torn = rate("torn")?,
                "corrupt" => plan.corrupt = rate("corrupt")?,
                "delay-ms" => {
                    plan.delay_ms = value
                        .parse()
                        .map_err(|_| format!("chaos delay-ms={value:?} is not a u64"))?
                }
                "crash" => {
                    let (point, count) = value.split_once(':').ok_or_else(|| {
                        format!("chaos crash={value:?} must be POINT:K (e.g. after-publish:3)")
                    })?;
                    let at: u64 = count
                        .parse()
                        .map_err(|_| format!("chaos crash count {count:?} is not a u64"))?;
                    if at == 0 {
                        return Err("chaos crash count is 1-based; 0 never fires".into());
                    }
                    plan.crashes.push(CrashSchedule {
                        point: CrashPoint::parse(point)?,
                        at,
                        seen: AtomicU64::new(0),
                    });
                }
                other => {
                    return Err(format!(
                        "unknown chaos key {other:?}; expected one of \
                         [seed, drop, torn, corrupt, delay-ms, crash]"
                    ))
                }
            }
        }
        if plan.drop + plan.torn + plan.corrupt > 1.0 {
            return Err("chaos drop + torn + corrupt rates exceed 1.0".into());
        }
        Ok(plan)
    }

    /// Switch crash points to hard mode: `std::process::abort()`, the
    /// in-process equivalent of kill -9 (no destructors, no flushes).
    /// The CLI uses this; tests keep the default soft mode.
    pub fn hard(mut self) -> FaultPlan {
        self.hard = true;
        self
    }

    /// The plan seed (for banners and reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One human-readable line describing the plan.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        for (k, v) in [
            ("drop", self.drop),
            ("torn", self.torn),
            ("corrupt", self.corrupt),
        ] {
            if v > 0.0 {
                parts.push(format!("{k}={v}"));
            }
        }
        if self.delay_ms > 0 {
            parts.push(format!("delay-ms={}", self.delay_ms));
        }
        for c in &self.crashes {
            parts.push(format!("crash={}:{}", c.point.token(), c.at));
        }
        parts.join(",")
    }

    /// The decision stream for one connection. `conn_id` is the daemon's
    /// accept-order counter: per-connection streams make the schedule
    /// independent of thread interleaving.
    pub fn connection(&self, conn_id: u64) -> ConnFaults {
        // Decorrelate the per-connection seeds: hash the id through one
        // splitmix step before mixing with the plan seed.
        let mut s = conn_id.wrapping_add(0x6A09_E667_F3BC_C909);
        let state = self.seed ^ splitmix64(&mut s);
        ConnFaults {
            state,
            drop: self.drop,
            torn: self.torn,
            corrupt: self.corrupt,
            delay: (self.delay_ms > 0).then(|| Duration::from_millis(self.delay_ms)),
        }
    }

    /// Record one occurrence of `point`; true when a scheduled crash fires
    /// here. The caller performs any point-specific damage (e.g. the torn
    /// `.tmp` write of `mid-checkpoint`) and then calls
    /// [`FaultPlan::execute_crash`].
    pub fn crash_due(&self, point: CrashPoint) -> bool {
        let mut due = false;
        for c in &self.crashes {
            if c.point == point {
                let seen = c.seen.fetch_add(1, Ordering::Relaxed) + 1;
                due |= seen == c.at;
            }
        }
        due
    }

    /// Carry out a due crash: hard mode aborts the process (kill -9
    /// fidelity); soft mode marks the plan crashed — the server checks
    /// [`FaultPlan::crashed`] and goes silent, so recovery observes
    /// exactly the on-disk state a real crash would leave.
    pub fn execute_crash(&self) {
        if self.hard {
            std::process::abort();
        }
        self.soft_crashed.store(true, Ordering::Release);
    }

    /// Has a soft crash fired? After this, no response may leave the
    /// daemon — a crashed process does not talk.
    pub fn crashed(&self) -> bool {
        self.soft_crashed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_describe_roundtrips() {
        let plan = FaultPlan::parse(
            "seed=7,drop=0.05,torn=0.02,corrupt=0.01,delay-ms=3,crash=after-publish:4",
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        let desc = plan.describe();
        let again = FaultPlan::parse(&desc).unwrap();
        assert_eq!(again.describe(), desc, "describe() is a valid spec");
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for (spec, needle) in [
            ("drop", "key=value"),
            ("drop=nope", "not a number"),
            ("drop=1.5", "[0, 1]"),
            ("frob=1", "unknown chaos key"),
            ("crash=later", "POINT:K"),
            ("crash=sometime:3", "unknown crash point"),
            ("crash=after-publish:0", "1-based"),
            ("drop=0.6,torn=0.6", "exceed 1.0"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?} -> {err}");
        }
    }

    #[test]
    fn empty_spec_is_a_no_fault_plan() {
        let plan = FaultPlan::parse("").unwrap();
        let mut conn = plan.connection(0);
        for _ in 0..64 {
            assert_eq!(conn.next_write(), WriteFault::Deliver);
        }
        assert!(conn.delay().is_none());
        assert!(!plan.crash_due(CrashPoint::BeforePublish));
    }

    #[test]
    fn same_seed_same_connection_replays_identically() {
        let a = FaultPlan::parse("seed=42,drop=0.2,torn=0.2,corrupt=0.2").unwrap();
        let b = FaultPlan::parse("seed=42,drop=0.2,torn=0.2,corrupt=0.2").unwrap();
        for conn_id in 0..8 {
            let (mut ca, mut cb) = (a.connection(conn_id), b.connection(conn_id));
            let sa: Vec<WriteFault> = (0..128).map(|_| ca.next_write()).collect();
            let sb: Vec<WriteFault> = (0..128).map(|_| cb.next_write()).collect();
            assert_eq!(sa, sb, "conn {conn_id} diverged under the same seed");
        }
    }

    #[test]
    fn different_seeds_and_connections_decorrelate() {
        let a = FaultPlan::parse("seed=1,drop=0.3,torn=0.3,corrupt=0.3").unwrap();
        let b = FaultPlan::parse("seed=2,drop=0.3,torn=0.3,corrupt=0.3").unwrap();
        let seq = |plan: &FaultPlan, id: u64| -> Vec<WriteFault> {
            let mut c = plan.connection(id);
            (0..128).map(|_| c.next_write()).collect()
        };
        assert_ne!(seq(&a, 0), seq(&b, 0), "seeds must decorrelate");
        assert_ne!(seq(&a, 0), seq(&a, 1), "connections must decorrelate");
        // And every fault kind actually occurs at these rates.
        let s = seq(&a, 0);
        for kind in [WriteFault::Drop, WriteFault::Torn, WriteFault::Corrupt] {
            assert!(s.contains(&kind), "{kind:?} never drawn at rate 0.3");
        }
    }

    #[test]
    fn crash_schedules_fire_exactly_once_at_the_kth_occurrence() {
        let plan = FaultPlan::parse("crash=before-publish:3").unwrap();
        assert!(!plan.crash_due(CrashPoint::BeforePublish));
        assert!(
            !plan.crash_due(CrashPoint::AfterPublish),
            "other points never fire"
        );
        assert!(!plan.crash_due(CrashPoint::BeforePublish));
        assert!(
            plan.crash_due(CrashPoint::BeforePublish),
            "third occurrence fires"
        );
        assert!(
            !plan.crash_due(CrashPoint::BeforePublish),
            "and only the third"
        );
        assert!(!plan.crashed(), "crash_due alone does not mark the plan");
        plan.execute_crash();
        assert!(plan.crashed());
    }

    #[test]
    fn pick_index_stays_in_bounds() {
        let plan = FaultPlan::parse("seed=9").unwrap();
        let mut conn = plan.connection(3);
        for len in [1usize, 2, 7, 4096] {
            for _ in 0..32 {
                assert!(conn.pick_index(len) < len);
            }
        }
        assert_eq!(conn.pick_index(0), 0);
    }
}
