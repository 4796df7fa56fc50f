//! Order statistics and the metric record every report line is made of.

use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample counts or provenance, printed next to the value.
    pub detail: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self { name: name.into(), unit, value, detail: String::new() }
    }

    pub fn with(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's position: how
/// many observations the reported tail rests on.
pub fn beyond(samples: &[u64], q: f64) -> usize {
    samples.len() - ((q * samples.len() as f64).ceil() as usize).min(samples.len())
}

/// A latency percentile in milliseconds, with its sample count.
pub fn percentile_ms(name: &str, samples_ns: &[u64], q: f64) -> Metric {
    Metric::new(name, "ms", quantile(samples_ns, q) as f64 / 1e6).with(format!(
        "n={} beyond={}",
        samples_ns.len(),
        beyond(samples_ns, q)
    ))
}

/// A tail percentile in milliseconds that one burst of host contention
/// cannot decide: the samples, in completion order, are cut into as many
/// consecutive windows as can each hold ten samples beyond the
/// percentile, and the result is the median of the windows' percentiles.
pub fn tail_ms(name: &str, samples_ns: &[u64], q: f64) -> Metric {
    let n = samples_ns.len();
    let windows = (n / (10.0 / (1.0 - q)).round() as usize).max(1);
    let window = |i: usize| &samples_ns[i * n / windows..(i + 1) * n / windows];
    let per_window: Vec<f64> = (0..windows).map(|i| quantile(window(i), q) as f64 / 1e6).collect();
    let fewest_beyond = (0..windows).map(|i| beyond(window(i), q)).min().unwrap_or(0);
    Metric::new(name, "ms", median(&per_window)).with(format!(
        "n={n} in {windows} windows, median of window p{:.0}s, >={fewest_beyond} beyond in each",
        q * 100.0
    ))
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of durations, in seconds.
pub fn median_s(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// `max / mean` of a load or busy-time profile (1.0 is perfectly even).
pub fn skew(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let max = values.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
