//! Machine-wide efficiency metrics and interference factors.
//!
//! The paper argues that per-request "fairness" is the wrong target and that
//! the scheduling strategy should instead be chosen to optimize a *machine
//! wide* efficiency metric. Section IV-D uses the total number of CPU hours
//! wasted in I/O, `f = Σ_X N_X · T_X`; Section III also mentions the sum of
//! interference factors `f = Σ_X I_X`. This module implements those metrics
//! plus the plain sum of I/O times, and the per-application interference
//! factor `I = T / T_alone` of Section II-C.

use pfs::AppId;

/// A machine-wide efficiency metric to minimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EfficiencyMetric {
    /// Σ_X T_X — the sum of observed I/O times over applications.
    TotalIoTime,
    /// Σ_X N_X · T_X — CPU·seconds wasted in I/O (the paper's Fig. 11
    /// metric): I/O time weighted by the number of cores the application
    /// occupies while it waits.
    CpuSecondsWasted,
    /// Σ_X I_X = Σ_X T_X / T_X(alone) — the sum of interference factors.
    SumInterferenceFactors,
}

impl EfficiencyMetric {
    /// All metrics, in the order they appear in the paper.
    pub const ALL: [EfficiencyMetric; 3] = [
        EfficiencyMetric::TotalIoTime,
        EfficiencyMetric::CpuSecondsWasted,
        EfficiencyMetric::SumInterferenceFactors,
    ];

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            EfficiencyMetric::TotalIoTime => "sum_io_time",
            EfficiencyMetric::CpuSecondsWasted => "cpu_seconds_wasted",
            EfficiencyMetric::SumInterferenceFactors => "sum_interference_factors",
        }
    }

    /// Parses a label produced by [`EfficiencyMetric::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|m| m.label() == label)
    }
}

/// Per-application observation used to evaluate a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppObservation {
    /// Which application.
    pub app: AppId,
    /// Number of cores the application runs on.
    pub procs: u32,
    /// Observed I/O time in seconds (including any time spent waiting for
    /// access).
    pub io_seconds: f64,
    /// I/O time the application would have needed alone, in seconds.
    pub alone_seconds: f64,
}

impl AppObservation {
    /// Interference factor `I = T / T_alone` (Section II-C). Returns 1 for
    /// a degenerate zero-length baseline.
    pub fn interference_factor(&self) -> f64 {
        interference_factor(self.io_seconds, self.alone_seconds)
    }
}

/// Interference factor `I = T / T_alone`, clamped below at 1 for numerical
/// noise (an application cannot be faster than alone in this model) and
/// returning 1 when the baseline is degenerate.
pub fn interference_factor(observed_seconds: f64, alone_seconds: f64) -> f64 {
    if alone_seconds <= 0.0 {
        return 1.0;
    }
    (observed_seconds / alone_seconds).max(1.0)
}

/// Evaluates a machine-wide metric over a set of application observations.
pub fn evaluate(metric: EfficiencyMetric, observations: &[AppObservation]) -> f64 {
    observations
        .iter()
        .map(|o| match metric {
            EfficiencyMetric::TotalIoTime => o.io_seconds,
            EfficiencyMetric::CpuSecondsWasted => o.procs as f64 * o.io_seconds,
            EfficiencyMetric::SumInterferenceFactors => o.interference_factor(),
        })
        .sum()
}

/// CPU·seconds wasted in I/O *per core*, the quantity plotted on the y axis
/// of Fig. 11: `Σ_X N_X · T_X / Σ_X N_X`.
pub fn cpu_seconds_wasted_per_core(observations: &[AppObservation]) -> f64 {
    let total_cores: f64 = observations.iter().map(|o| o.procs as f64).sum();
    if total_cores <= 0.0 {
        return 0.0;
    }
    evaluate(EfficiencyMetric::CpuSecondsWasted, observations) / total_cores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(procs: u32, io: f64, alone: f64) -> AppObservation {
        AppObservation {
            app: AppId(0),
            procs,
            io_seconds: io,
            alone_seconds: alone,
        }
    }

    #[test]
    fn interference_factor_basics() {
        assert_eq!(interference_factor(20.0, 10.0), 2.0);
        assert_eq!(interference_factor(5.0, 10.0), 1.0, "clamped at 1");
        assert_eq!(interference_factor(5.0, 0.0), 1.0, "degenerate baseline");
        assert_eq!(obs(8, 30.0, 10.0).interference_factor(), 3.0);
    }

    #[test]
    fn total_io_time_sums_times() {
        let observations = [obs(100, 10.0, 10.0), obs(200, 20.0, 15.0)];
        assert_eq!(evaluate(EfficiencyMetric::TotalIoTime, &observations), 30.0);
    }

    #[test]
    fn cpu_seconds_weights_by_cores() {
        let observations = [obs(2048, 10.0, 10.0), obs(2048, 30.0, 20.0)];
        assert_eq!(
            evaluate(EfficiencyMetric::CpuSecondsWasted, &observations),
            2048.0 * 40.0
        );
        assert_eq!(cpu_seconds_wasted_per_core(&observations), 20.0);
    }

    #[test]
    fn sum_interference_factors() {
        let observations = [obs(24, 28.0, 2.0), obs(744, 12.0, 10.0)];
        let f = evaluate(EfficiencyMetric::SumInterferenceFactors, &observations);
        assert!((f - (14.0 + 1.2)).abs() < 1e-12);
    }

    #[test]
    fn per_core_metric_is_zero_without_observations() {
        assert_eq!(cpu_seconds_wasted_per_core(&[]), 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = EfficiencyMetric::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }
}
