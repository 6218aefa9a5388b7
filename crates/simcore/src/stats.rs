//! Measurement helpers: time series, online summaries and histograms.
//!
//! The experiment harnesses (Δ-graph sweeps, throughput-per-iteration plots,
//! machine-wide efficiency metrics) all record their observations through
//! these types so that the bench binaries can print the same rows/series the
//! paper reports.

use crate::time::SimTime;

/// A `(time, value)` series, e.g. observed throughput per write iteration.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation at the given simulated time.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs(), value));
    }

    /// Appends an observation with an explicit x coordinate (e.g. `dt`).
    pub fn push_x(&mut self, x: f64, value: f64) {
        self.points.push((x, value));
    }

    /// The recorded `(x, value)` points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only, in insertion order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Mean of the recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }
}

/// Online summary statistics (count / mean / min / max / variance) using
/// Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A fixed-bin histogram over `[lo, hi)` with overflow/underflow buckets,
/// used for the job-size and concurrency distributions of Fig. 1.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<f64>,
    underflow: f64,
    overflow: f64,
    total_weight: f64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
            total_weight: 0.0,
        }
    }

    /// Records `x` with weight 1.
    pub fn record(&mut self, x: f64) {
        self.record_weighted(x, 1.0);
    }

    /// Records `x` with the given weight (e.g. job duration weighting).
    pub fn record_weighted(&mut self, x: f64, weight: f64) {
        self.total_weight += weight;
        if x < self.lo {
            self.underflow += weight;
        } else if x >= self.hi {
            self.overflow += weight;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += weight;
        }
    }

    /// Per-bin weights.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Per-bin fraction of the total weight.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total_weight <= 0.0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&b| b / self.total_weight).collect()
    }

    /// Cumulative distribution across bins (fraction of total weight at or
    /// below each bin's upper edge, including underflow).
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = self.underflow;
        let mut out = Vec::with_capacity(self.bins.len());
        for &b in &self.bins {
            acc += b;
            out.push(if self.total_weight > 0.0 {
                acc / self.total_weight
            } else {
                0.0
            });
        }
        out
    }

    /// Total recorded weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn time_series_basic_stats() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), None);
        ts.push(SimTime::from_secs(1.0), 10.0);
        ts.push(SimTime::from_secs(2.0), 20.0);
        ts.push_x(-3.0, 30.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), Some(20.0));
        assert_eq!(ts.min(), Some(10.0));
        assert_eq!(ts.max(), Some(30.0));
        assert_eq!(ts.points()[2].0, -3.0);
        assert_eq!(ts.values(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_bins_and_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 3.5, 9.5, -1.0, 11.0] {
            h.record(x);
        }
        assert_eq!(h.bins(), &[2.0, 2.0, 0.0, 0.0, 1.0]);
        assert!((h.total_weight() - 7.0).abs() < 1e-12);
        let cdf = h.cdf();
        assert!(
            (cdf[4] - 6.0 / 7.0).abs() < 1e-12,
            "overflow not included in cdf"
        );
        let norm = h.normalized();
        assert!((norm.iter().sum::<f64>() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_weighted_records() {
        let mut h = Histogram::new(0.0, 4.0, 2);
        h.record_weighted(1.0, 3.0);
        h.record_weighted(3.0, 1.0);
        assert_eq!(h.normalized(), vec![0.75, 0.25]);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_empty_range() {
        Histogram::new(1.0, 1.0, 4);
    }
}
