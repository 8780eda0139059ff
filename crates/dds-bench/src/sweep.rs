//! Multi-seed statistical sweeps, fanned out on the batch scheduler.
//!
//! A single seeded run shows a shape; a sweep across seeds shows that the
//! shape is not an artifact. [`sweep_jobs`] runs one measurement function
//! over many seeds in parallel (runs are independent simulations, so this
//! is embarrassingly parallel), and [`Stats`] reports mean, standard
//! deviation and extremes. Samples come back in **seed order** whatever
//! the worker count (see [`crate::scheduler::map_ordered`]), so the
//! statistics are bit-identical for `--jobs 1` and `--jobs N`.

use crate::scheduler;

/// Summary of one measured quantity across seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of runs.
    pub runs: usize,
    /// Mean value.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub sd: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Stats {
    /// Compute from raw samples.
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        Stats {
            runs: samples.len(),
            mean,
            sd: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `mean ± sd` rendering.
    pub fn pm(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.sd)
    }
}

/// Run `measure(seed)` for `seeds` different seeds on `jobs` workers and
/// return the samples in seed order, whatever `jobs` is, so statistics
/// over them are jobs-invariant. `measure` must be deterministic per seed.
pub fn sweep_jobs<T, F>(base_seed: u64, seeds: usize, jobs: usize, measure: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    assert!(seeds >= 1);
    let idx: Vec<u64> = (0..seeds as u64).collect();
    scheduler::map_ordered(jobs, idx, |_, i| {
        measure(base_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    })
}

/// E1/E5-style statistical table: amortized complexity of a protocol over
/// ER churn, mean ± sd across seeds, per network size — the evidence that
/// the O(1) claim is seed-independent.
pub fn amortized_sweep_table<N: dds_net::Node>(
    title: &str,
    ns: &[usize],
    seeds: usize,
    rounds: usize,
) -> crate::table::Table {
    let mut t = crate::table::Table::new(
        title,
        &[
            "n",
            "runs",
            "amortized mean±sd",
            "min",
            "max",
            "footnote mean±sd",
        ],
    );
    for &n in ns {
        // One simulation per seed yields both meters.
        let run = |seed: u64| -> (f64, f64) {
            let mut src = dds_workloads::registry::build_source(
                "er",
                &dds_workloads::Params::new()
                    .with("n", n)
                    .with("rounds", rounds)
                    .with("seed", seed),
            )
            .expect("er workload is registered");
            let sim: dds_net::Simulator<N> =
                dds_net::engine::drive_source(&mut src, dds_net::SimConfig::default());
            (
                sim.meter().amortized(),
                sim.per_node_meter().footnote_amortized(),
            )
        };
        let (amortized, footnote): (Vec<f64>, Vec<f64>) =
            sweep_jobs(n as u64, seeds, scheduler::available_jobs(), run)
                .into_iter()
                .unzip();
        let (amortized, footnote) = (
            Stats::from_samples(&amortized),
            Stats::from_samples(&footnote),
        );
        t.row(vec![
            n.to_string(),
            seeds.to_string(),
            amortized.pm(),
            format!("{:.3}", amortized.min),
            format!("{:.3}", amortized.max),
            footnote.pm(),
        ]);
    }
    t.note(format!(
        "{seeds} independent seeds per size; the paper's measure (global changes) is flat in n \
         and tight across seeds ⇒ the O(1) claim is seed-independent"
    ));
    t.note(
        "the footnote divisor (max changes at ONE node) shrinks relative to wall-clock on \
         spread-out workloads, so that column grows here; it flattens when churn concentrates \
         (cf. the hub-stress test)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.runs, 3);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert!((s.sd - 1.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn single_sample_has_zero_sd() {
        let s = Stats::from_samples(&[5.0]);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn sweep_is_deterministic_and_parallel_safe() {
        let jobs = scheduler::available_jobs();
        let a = Stats::from_samples(&sweep_jobs(7, 16, jobs, |seed| (seed % 10) as f64));
        let b = Stats::from_samples(&sweep_jobs(7, 16, jobs, |seed| (seed % 10) as f64));
        assert_eq!(a, b);
        assert_eq!(a.runs, 16);
    }

    #[test]
    fn amortized_sweep_stays_constant() {
        let t = amortized_sweep_table::<dds_robust::TriangleNode>("test sweep", &[16, 48], 6, 150);
        for row in &t.rows {
            let max: f64 = row[4].parse().unwrap();
            assert!(max <= 3.0, "amortized max {max} exceeded the constant");
        }
    }
}
