//! Daemon counters and gauges — the `stats` verb's backing store.
//!
//! Everything here is lock-free: plain relaxed atomics bumped on the hot
//! paths (frame codec, query answering, each stage of a write) and read
//! wholesale when a `stats` request assembles its snapshot. Latencies go
//! into log-linear histograms (each power of two split into equal
//! sub-buckets), so percentile reads are O(buckets) with no sample
//! storage — a long-lived daemon must not accumulate unbounded
//! per-request state. Timings stay here: none reaches a checkpoint or a
//! round's stats.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of powers of two covered: octave `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last one open-ended. 40 octaves
/// cover 1ns .. ~18 minutes.
const OCTAVES: usize = 40;

/// Linear sub-buckets per octave: sub-bucket `j` of octave `i` holds
/// `[2^i (8 + j) / 8, 2^i (9 + j) / 8)`, so its upper edge overstates any
/// of its samples by at most 1/8.
const SUB: usize = 8;

const BUCKETS: usize = OCTAVES * SUB;

/// A fixed log-linear latency histogram over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

// Hand-written: `[AtomicU64; 320]` has no derived `Default` (std only
// provides array defaults up to length 32).
impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one duration.
    pub fn record(&self, seconds: f64) {
        let ns = (seconds.max(0.0) * 1e9) as u64;
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`p` in 0..=100) in seconds: the upper edge
    /// of the sub-bucket holding the p-th sample, at most 12.5% above it.
    /// 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_edge_ns(i) / 1e9;
            }
        }
        upper_edge_ns(BUCKETS - 1) / 1e9
    }

    /// Mean latency in seconds (exact, unlike the bucketed percentiles).
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        self.total_ns.load(Ordering::Relaxed) as f64 / 1e9 / total as f64
    }

    /// The `stats` shape of a histogram: sample count, then mean, p50,
    /// p90 and p99 in microseconds (to the nanosecond).
    pub fn to_value_us(&self) -> Value {
        let us = |s: f64| Value::F64((s * 1e6 * 1000.0).round() / 1000.0);
        Value::Obj(vec![
            ("count".into(), Value::U64(self.count())),
            ("mean".into(), us(self.mean())),
            ("p50".into(), us(self.percentile(50.0))),
            ("p90".into(), us(self.percentile(90.0))),
            ("p99".into(), us(self.percentile(99.0))),
        ])
    }
}

/// The bucket of a sample of `ns` nanoseconds: its octave (the position of
/// its leading one) and, below that, the three bits that follow it.
fn bucket_of(ns: u64) -> usize {
    let ns = ns.max(1);
    let octave = 63 - ns.leading_zeros() as usize;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    // `8 ns / 2^octave` lies in [8, 16); its excess over 8 is the
    // sub-bucket. `ns < 2^40` here, so `8 ns` cannot overflow.
    let sub = ((ns * SUB as u64) >> octave) as usize - SUB;
    octave * SUB + sub
}

/// The upper edge of bucket `i` in nanoseconds, `2^octave (9 + sub) / 8`
/// (exact in an `f64`).
fn upper_edge_ns(i: usize) -> f64 {
    let (octave, sub) = (i / SUB, i % SUB);
    2f64.powi(octave as i32) * (SUB + sub + 1) as f64 / SUB as f64
}

/// Where one session's write verbs (`ingest`, `step`) spend their time,
/// stage by stage: `stats` reports it per session as `write_stages_us`.
#[derive(Debug, Default)]
pub struct WriteStages {
    /// Waiting for the session's write locks.
    pub lock_wait: LatencyHistogram,
    /// The verb's own work: validating and stepping its rounds.
    pub step: LatencyHistogram,
    /// Capturing and encoding the snapshot and writing it atomically;
    /// persisting writes only.
    pub persist: LatencyHistogram,
    /// Forking the new view, swapping it in and freeing the one it
    /// replaced.
    pub publish: LatencyHistogram,
}

impl WriteStages {
    /// The `stats` payload: one histogram per stage, in write order.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("lock_wait".into(), self.lock_wait.to_value_us()),
            ("step".into(), self.step.to_value_us()),
            ("persist".into(), self.persist.to_value_us()),
            ("publish".into(), self.publish.to_value_us()),
        ])
    }
}

/// Process-wide serving counters, shared by every connection thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted over the daemon's lifetime.
    pub connections: AtomicU64,
    /// Requests handled (all verbs).
    pub requests: AtomicU64,
    /// Requests that produced an error response.
    pub request_errors: AtomicU64,
    /// Wire bytes read (frames in, length prefixes included).
    pub bytes_in: AtomicU64,
    /// Wire bytes written (frames out, length prefixes included).
    pub bytes_out: AtomicU64,
    /// Individual queries received (a `query` frame may carry many).
    pub queries: AtomicU64,
    /// Queries answered consistently.
    pub answered: AtomicU64,
    /// Queries that reported `inconsistent` (a valid mid-churn outcome).
    pub inconsistent: AtomicU64,
    /// Queries rejected as unanswerable (unsupported kind, bad node, …).
    pub query_errors: AtomicU64,
    /// Rounds executed across all sessions (ingest batches + quiet steps).
    pub rounds: AtomicU64,
    /// Server-side per-query answering latency.
    pub latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Assemble the `stats` payload: every counter, plus derived latency
    /// percentiles in microseconds.
    pub fn to_value(&self, uptime_seconds: f64) -> Value {
        let c = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        Value::Obj(vec![
            ("uptime_seconds".into(), Value::F64(uptime_seconds)),
            ("connections".into(), c(&self.connections)),
            ("requests".into(), c(&self.requests)),
            ("request_errors".into(), c(&self.request_errors)),
            ("bytes_in".into(), c(&self.bytes_in)),
            ("bytes_out".into(), c(&self.bytes_out)),
            ("rounds".into(), c(&self.rounds)),
            (
                "queries".into(),
                Value::Obj(vec![
                    ("total".into(), c(&self.queries)),
                    ("answered".into(), c(&self.answered)),
                    ("inconsistent".into(), c(&self.inconsistent)),
                    ("errors".into(), c(&self.query_errors)),
                ]),
            ),
            ("query_latency_us".into(), self.latency.to_value_us()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(1e-6); // 1 us
        }
        for _ in 0..10 {
            h.record(1e-3); // 1 ms
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(50.0);
        assert!((1e-6..1e-4).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99.0);
        assert!((1e-3..1e-2).contains(&p99), "p99 = {p99}");
        let mean = h.mean();
        assert!((mean - (90.0 * 1e-6 + 10.0 * 1e-3) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn percentiles_resolve_within_one_power_of_two() {
        // 17 ms and 30 ms share the power-of-two bucket [16.8, 33.6) ms.
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(17e-3);
        }
        for _ in 0..100 {
            h.record(30e-3);
        }
        let (p25, p75) = (h.percentile(25.0), h.percentile(75.0));
        assert!(p25 < p75, "p25 = {p25}, p75 = {p75}");
        for (p, sample) in [(p25, 17e-3), (p75, 30e-3)] {
            assert!(
                (sample..=1.125 * sample).contains(&p),
                "{p} is not within 12.5% above {sample}"
            );
        }
    }

    #[test]
    fn each_upper_edge_is_within_an_eighth_above_its_samples() {
        for ns in (1..4096).chain([1 << 39, (1 << OCTAVES) - 1]) {
            let edge = upper_edge_ns(bucket_of(ns));
            let ns = ns as f64;
            assert!((ns..=1.125 * ns).contains(&edge), "{ns} ns reads {edge} ns");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn stats_payload_carries_every_counter() {
        let m = ServerMetrics::default();
        m.queries.fetch_add(5, Ordering::Relaxed);
        m.answered.fetch_add(4, Ordering::Relaxed);
        m.inconsistent.fetch_add(1, Ordering::Relaxed);
        m.latency.record(2e-6);
        let v = m.to_value(1.5);
        let q = v.get("queries").unwrap();
        assert_eq!(q.get("total"), Some(&Value::U64(5)));
        assert_eq!(q.get("answered"), Some(&Value::U64(4)));
        assert_eq!(q.get("inconsistent"), Some(&Value::U64(1)));
        assert_eq!(
            v.get("query_latency_us").unwrap().get("count"),
            Some(&Value::U64(1))
        );
    }
}
