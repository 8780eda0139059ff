//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records name, start, end, the enclosing span on the same
//! thread, and the request it belongs to. Each thread owns a [`Tracer`];
//! the workload merges them when its threads join and writes the whole
//! set out once, after every clock has stopped. A layer's self time is its
//! span's duration minus the time its child spans cover.

use dds_bench::report::median;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A per-thread span recorder. When off, `begin`/`end` read no clock and
/// record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, req);
        let out = f();
        self.end(span);
        out
    }

    /// Absorb another thread's spans (parent links are re-based).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A position in the span log; [`Tracer::self_secs_since`] reads only
    /// the spans recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self times, in seconds, of every span named `name`.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.self_secs_since(0, name)
    }

    /// Self times, in seconds, of the spans named `name` recorded after
    /// `mark`.
    pub fn self_secs_since(&self, mark: usize, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .skip(mark)
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9)
            .collect()
    }

    /// What one span (`begin` + `end`) costs the thread that records it,
    /// in seconds: the median over blocks of many spans on a scratch
    /// tracer, since one span takes about as long as reading the clock.
    pub fn span_cost_secs() -> f64 {
        const SPANS: usize = 200_000;
        let blocks: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = Tracer::new(true, Instant::now());
                let start = Instant::now();
                for i in 0..SPANS {
                    let span = t.begin("cost", i as u64);
                    t.end(span);
                }
                start.elapsed().as_secs_f64() / SPANS as f64
            })
            .collect();
        median(&blocks)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let outer = a.begin("outer", 0);
        a.time("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        a.end(outer);
        let outer_self = a.self_secs("outer")[0];
        let inner = a.self_secs("inner")[0];
        assert!(
            inner >= 0.005 && outer_self < inner,
            "{outer_self} vs {inner}"
        );

        let mut b = a.fork();
        let x = b.begin("outer", 1);
        b.time("inner", 1, || ());
        b.end(x);
        a.merge(b);
        assert_eq!(a.self_secs("inner").len(), 2);
        assert_eq!(a.spans[3].parent, Some(2));
    }

    #[test]
    fn a_span_costs_more_than_nothing_and_less_than_a_millisecond() {
        let cost = Tracer::span_cost_secs();
        assert!(cost > 0.0 && cost < 1e-3, "{cost}");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.time("x", 0, || ());
        assert!(t.self_secs("x").is_empty());
    }
}
