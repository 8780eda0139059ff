//! Seeded input generation. Everything a workload feeds the program is
//! built here, from the seed, before any clock starts.

use dds_net::{Edge, EventBatch, NodeId, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// How often a run repeats a short measurement (a cold start): at
/// least `min` times and for at least `secs` seconds, so that its median
/// samples the host over a stretch of time rather than at one moment.
#[derive(Clone, Copy, Debug)]
pub struct Repeat {
    pub min: usize,
    pub secs: f64,
}

impl Repeat {
    pub fn more(&self, done: usize, since: Instant) -> bool {
        done < self.min || since.elapsed().as_secs_f64() < self.secs
    }
}

/// Workload sizes. `FULL` is what the benchmark measures; `SMOKE` is the
/// reduced scale the package's own test runs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub serve_n: usize,
    pub serve_edges: usize,
    /// Stream writes applied, unrecorded, before the warm graph is taken,
    /// so the graph starts at the stream's stationary state.
    pub burn_in: usize,
    pub changes_per_write: usize,
    /// Generated writes per measured second: headroom over the observed
    /// rate, so a run is bounded by its clock, not its inputs.
    pub write_cap: usize,
    /// Daemon cold starts on each side of the measured phase; `setup_s`
    /// is the median of both sides.
    pub setups: Repeat,
    /// Persist every this many write verbs (`dds serve --checkpoint-every`).
    pub checkpoint_every: u64,
    /// Distinct reads in a mix; readers cycle through it.
    pub mix_size: usize,
    /// Least operations a percentile is read from: p90 then has at least
    /// ten samples beyond it.
    pub min_ops: usize,
    /// Writes the traced layer probe replays.
    pub probe_writes: usize,
}

pub const FULL: Scale = Scale {
    serve_n: 2_000,
    serve_edges: 4_000,
    burn_in: 2_000,
    changes_per_write: 16,
    write_cap: 500,
    setups: Repeat { min: 3, secs: 3.0 },
    checkpoint_every: 4,
    mix_size: 8_192,
    min_ops: 100,
    probe_writes: 24,
};

pub const SMOKE: Scale = Scale {
    serve_n: 150,
    serve_edges: 300,
    burn_in: 200,
    changes_per_write: 16,
    write_cap: 2_000,
    setups: Repeat { min: 2, secs: 0.0 },
    checkpoint_every: 4,
    mix_size: 512,
    min_ops: 100,
    probe_writes: 8,
};

/// A live edge set with O(1) uniform sampling and per-node adjacency.
struct EdgeSet {
    list: Vec<Edge>,
    index: FxHashMap<Edge, usize>,
    adj: Vec<Vec<NodeId>>,
}

impl EdgeSet {
    fn new(n: usize) -> EdgeSet {
        EdgeSet {
            list: Vec::new(),
            index: FxHashMap::default(),
            adj: vec![Vec::new(); n],
        }
    }

    fn contains(&self, e: Edge) -> bool {
        self.index.contains_key(&e)
    }

    fn insert(&mut self, e: Edge) {
        self.index.insert(e, self.list.len());
        self.list.push(e);
        let (a, b) = e.endpoints();
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
    }

    fn remove(&mut self, e: Edge) {
        let i = self.index.remove(&e).expect("removing a live edge");
        self.list.swap_remove(i);
        if let Some(&moved) = self.list.get(i) {
            self.index.insert(moved, i);
        }
        let (a, b) = e.endpoints();
        self.adj[a.index()].retain(|&x| x != b);
        self.adj[b.index()].retain(|&x| x != a);
    }

    fn apply(&mut self, batch: &EventBatch) {
        for ev in batch.iter() {
            if ev.is_insert() {
                self.insert(ev.edge());
            } else {
                self.remove(ev.edge());
            }
        }
    }
}

fn random_pair(rng: &mut SmallRng, n: usize) -> Edge {
    loop {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            return Edge::new(NodeId(a), NodeId(b));
        }
    }
}

/// Close a random wedge `a − v − b` into a triangle (`None` if the draw
/// found no open wedge).
fn triadic(rng: &mut SmallRng, g: &EdgeSet) -> Option<Edge> {
    let v = rng.gen_range(0..g.adj.len());
    let nbrs = &g.adj[v];
    if nbrs.len() < 2 {
        return None;
    }
    let a = nbrs[rng.gen_range(0..nbrs.len())];
    let b = nbrs[rng.gen_range(0..nbrs.len())];
    (a != b).then(|| Edge::new(a, b))
}

/// One write of the stationary stream: `changes / 2` deletions of live
/// edges and as many insertions, half closing wedges into triangles and
/// half uniform. The live-edge count never moves, and after the burn-in
/// neither do the degree and triangle distributions.
fn stream_write(rng: &mut SmallRng, g: &mut EdgeSet, changes: usize) -> EventBatch {
    let half = changes / 2;
    let mut batch = EventBatch::new();
    while batch.len() < half {
        let e = g.list[rng.gen_range(0..g.list.len())];
        if !batch.touches(e) {
            batch.push_delete(e);
        }
    }
    let mut inserted = 0;
    while inserted < half {
        let candidate = if inserted % 2 == 0 {
            triadic(rng, g)
        } else {
            Some(random_pair(rng, g.adj.len()))
        };
        if let Some(e) = candidate.filter(|&e| !g.contains(e) && !batch.touches(e)) {
            batch.push_insert(e);
            inserted += 1;
        }
    }
    g.apply(&batch);
    batch
}

/// Every workload's inputs: the warm graph (loaded as one bulk
/// ingest), the stationary write stream that continues from it, and the
/// read mix over it.
pub struct ServeInputs {
    pub n: usize,
    pub bulk: EventBatch,
    pub writes: Vec<EventBatch>,
    pub mix: Vec<(NodeId, Query)>,
}

pub fn serve_inputs(scale: &Scale, seed: u64, writes: usize) -> ServeInputs {
    let n = scale.serve_n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = EdgeSet::new(n);
    while g.list.len() < scale.serve_edges {
        let e = random_pair(&mut rng, n);
        if !g.contains(e) {
            g.insert(e);
        }
    }
    for _ in 0..scale.burn_in {
        stream_write(&mut rng, &mut g, scale.changes_per_write);
    }
    let mut warm = g.list.clone();
    warm.sort();
    let mut bulk = EventBatch::new();
    for &e in &warm {
        bulk.push_insert(e);
    }
    let mix = triangle_mix(&mut rng, &g, scale.mix_size);
    let writes = (0..writes)
        .map(|_| stream_write(&mut rng, &mut g, scale.changes_per_write))
        .collect();
    ServeInputs {
        n,
        bulk,
        writes,
        mix,
    }
}

/// Present edge (queried at an endpoint) or absent pair, half each.
fn edge_query(rng: &mut SmallRng, edges: &[Edge], n: usize) -> (NodeId, Query) {
    let e = if rng.gen_bool(0.5) {
        edges[rng.gen_range(0..edges.len())]
    } else {
        random_pair(rng, n)
    };
    (e.lo(), Query::Edge(e))
}

/// The `triangle` read mix: 50% edge membership (half present), 25%
/// triangle membership (half real), 25% `list-triangles` at a random node.
fn triangle_mix(rng: &mut SmallRng, g: &EdgeSet, size: usize) -> Vec<(NodeId, Query)> {
    let n = g.adj.len();
    let mut triangles = Vec::new();
    for &e in &g.list {
        let (a, b) = e.endpoints();
        for &c in &g.adj[a.index()] {
            if c > b && g.contains(Edge::new(b, c)) {
                triangles.push([a, b, c]);
            }
        }
    }
    triangles.sort();
    (0..size)
        .map(|_| match rng.gen_range(0..4u32) {
            0 | 1 => edge_query(rng, &g.list, n),
            2 if !triangles.is_empty() && rng.gen_bool(0.5) => {
                let t = triangles[rng.gen_range(0..triangles.len())];
                (t[0], Query::Triangle(t[1], t[2]))
            }
            2 => {
                let at = NodeId(rng.gen_range(0..n as u32));
                let u = NodeId(rng.gen_range(0..n as u32));
                let w = NodeId(rng.gen_range(0..n as u32));
                (at, Query::Triangle(u, w))
            }
            _ => (NodeId(rng.gen_range(0..n as u32)), Query::ListTriangles),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::Topology;

    #[test]
    fn stream_is_seeded_valid_and_keeps_the_edge_count() {
        let a = serve_inputs(&SMOKE, 7, 50);
        let b = serve_inputs(&SMOKE, 7, 50);
        assert_eq!(a.bulk, b.bulk);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.mix, b.mix);
        let mut topo = Topology::new(a.n);
        topo.validate(&a.bulk).expect("bulk load is valid");
        topo.apply(&a.bulk, 1);
        for (i, w) in a.writes.iter().enumerate() {
            topo.validate(w).expect("every write is valid in order");
            topo.apply(w, i as u64 + 2);
            assert_eq!(topo.edge_count(), SMOKE.serve_edges);
            assert_eq!(w.len(), SMOKE.changes_per_write);
        }
    }
}
