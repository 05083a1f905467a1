//! Order statistics for timing samples.

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Linear-interpolated percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of [`LADDER`] with at least ten of `n` samples
/// beyond it, so a tail figure never rests on a handful of points; `None`
/// under twenty samples, where not even the median qualifies.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// `a / b`, or 0 when `b` is 0, so ratios over layers a workload bypasses
/// stay finite.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
