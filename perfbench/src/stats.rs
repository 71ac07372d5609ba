//! Order statistics for the reports: a percentile that refuses to
//! extrapolate, medians, and the windowed latency summary every
//! workload shares.

use std::fmt;

/// Windows a timed phase is cut into for its medians.
pub const WINDOWS: usize = 5;

/// Fewest samples a reported percentile must leave beyond it.
pub const MIN_TAIL: usize = 10;

/// A percentile was asked of a sample too small to support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples leave only {} beyond the percentile (need {MIN_TAIL})",
            self.samples, self.beyond
        )
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of an ascending slice.
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_TAIL`] samples lie beyond the
/// rank, so a p99 needs at least 1000 samples.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    // The epsilon keeps 0.99 * 1000 from ceiling to 991.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts; 0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed operation: when it started (seconds into the timed phase)
/// and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Start offset from the beginning of the timed phase, seconds.
    pub at_s: f64,
    /// Wall-clock latency, milliseconds.
    pub ms: f64,
}

/// The three latency-derived end-to-end figures of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median over windows of ops per second of op time.
    pub ops_per_s: f64,
    /// Median over windows of the window's median latency.
    pub p50_ms: f64,
    /// 99th percentile over every op of the run.
    pub p99_ms: f64,
}

/// Summarises a run's samples. The timed phase is cut into `windows`
/// equal slices of `seconds` (later samples fall in the last); the
/// throughput and median are taken per window and the median window is
/// reported, so one burst of host steal moves at most one window. The
/// p99 pools every sample, because no window holds enough of them.
///
/// # Errors
///
/// [`TooFewSamples`] when the run is too short for its p99.
pub fn summarise(
    samples: &[Sample],
    seconds: f64,
    windows: usize,
) -> Result<LatencySummary, TooFewSamples> {
    let mut all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    all.sort_by(f64::total_cmp);
    let p99_ms = percentile(&all, 0.99)?;
    let width = seconds / windows as f64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.at_s / width) as usize).min(windows - 1);
        per[w].push(s.ms);
    }
    let filled: Vec<&Vec<f64>> = per.iter().filter(|w| !w.is_empty()).collect();
    let rates: Vec<f64> = filled
        .iter()
        .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    let medians: Vec<f64> = filled.iter().map(|w| median(w)).collect();
    Ok(LatencySummary {
        ops_per_s: median(&rates),
        p50_ms: median(&medians),
        p99_ms,
    })
}
