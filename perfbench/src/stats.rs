//! Order statistics over latency samples, with failures counted honestly
//! (medians come from `dds_bench::report::median`).

/// Nearest-rank percentile (`p` in 0..=100) over `ok` successful samples
/// plus `failed` operations that count as slower than any sample: a failed
/// or refused request misses every percentile. Returns `None` when the
/// percentile falls among the failures or there are no operations at all.
pub fn percentile(ok: &[f64], failed: u64, p: f64) -> Option<f64> {
    let total = ok.len() as u64 + failed;
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as usize;
    if rank > ok.len() {
        return None;
    }
    let mut sorted = ok.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_push_percentiles_out_of_reach() {
        let ok: Vec<f64> = (1..=90).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0, 50.0), Some(45.0));
        assert_eq!(percentile(&ok, 10, 90.0), Some(90.0));
        assert_eq!(percentile(&ok, 11, 90.0), None);
        assert_eq!(percentile(&[], 0, 50.0), None);
    }
}
