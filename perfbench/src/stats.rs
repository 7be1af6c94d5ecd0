//! Order statistics over measured samples.
//!
//! A timing is reported as a median and a high percentile. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it; with
//! fewer, one outlier would decide the value, so the helper refuses.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples ranked beyond the reported one.
    pub beyond: usize,
}

/// The nearest-rank `p`-percentile (`0 < p < 100`) of `samples`.
///
/// Refuses (returns `Err`) unless at least [`MIN_BEYOND`] samples rank
/// beyond the chosen one, so a p90 needs at least 100 samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { value: sorted[rank - 1], samples: n, beyond })
}

/// The fewest samples for which [`percentile`] reports the `p`-percentile
/// (100 for a p90).
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - ((p / 100.0 * n as f64).ceil() as usize).max(1) >= MIN_BEYOND)
        .expect("some count leaves enough samples beyond")
}

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The nearest-rank `q`-quantile (`0..=1`) of a small, fully known set, such
/// as the sessions of one served batch. Unlike [`percentile`] it does not
/// ask for samples beyond the result: the set is the population, not a
/// sample of one.
pub fn population_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
