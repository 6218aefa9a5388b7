//! Concurrency analysis (Fig. 1b).
//!
//! Given a job trace, compute the time-weighted distribution of the number
//! of jobs running concurrently: for how large a fraction of the observed
//! time were exactly `n` jobs active? This is the distribution of the
//! random variable `X` used by the Section II-B probability model.

use crate::trace::JobTrace;

/// Time-weighted distribution of the number of concurrently running jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyDistribution {
    /// `probability[n]` is the fraction of time during which exactly `n`
    /// jobs were running.
    probability: Vec<f64>,
    /// Mean number of concurrently running jobs.
    mean: f64,
}

impl ConcurrencyDistribution {
    /// Builds the distribution from a trace by sweeping start/end events.
    pub fn from_trace(trace: &JobTrace) -> Self {
        if trace.is_empty() {
            return ConcurrencyDistribution {
                probability: vec![1.0],
                mean: 0.0,
            };
        }
        // Event sweep: +1 at each start, -1 at each end.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(trace.len() * 2);
        for job in trace.jobs() {
            events.push((job.start, 1));
            events.push((job.end(), -1));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });

        let mut time_at: Vec<f64> = Vec::new();
        let mut current: i64 = 0;
        let mut last_t = events[0].0;
        let mut total_time = 0.0;
        for (t, delta) in events {
            let dt = (t - last_t).max(0.0);
            if dt > 0.0 {
                let idx = current.max(0) as usize;
                if time_at.len() <= idx {
                    time_at.resize(idx + 1, 0.0);
                }
                time_at[idx] += dt;
                total_time += dt;
            }
            current += delta as i64;
            last_t = t;
        }

        if total_time <= 0.0 {
            return ConcurrencyDistribution {
                probability: vec![1.0],
                mean: 0.0,
            };
        }
        let probability: Vec<f64> = time_at.iter().map(|&t| t / total_time).collect();
        let mean = probability
            .iter()
            .enumerate()
            .map(|(n, p)| n as f64 * p)
            .sum();
        ConcurrencyDistribution { probability, mean }
    }

    /// Builds a distribution directly from probabilities (used in tests and
    /// by the probability model when published numbers are supplied).
    /// The probabilities are normalized.
    pub fn from_probabilities(probability: Vec<f64>) -> Self {
        let total: f64 = probability.iter().sum();
        let probability: Vec<f64> = if total > 0.0 {
            probability.iter().map(|p| p / total).collect()
        } else {
            vec![1.0]
        };
        let mean = probability
            .iter()
            .enumerate()
            .map(|(n, p)| n as f64 * p)
            .sum();
        ConcurrencyDistribution { probability, mean }
    }

    /// `P(X = n)`: fraction of time with exactly `n` running jobs.
    pub fn probability_of(&self, n: usize) -> f64 {
        self.probability.get(n).copied().unwrap_or(0.0)
    }

    /// The full probability vector, indexed by the number of running jobs.
    pub fn probabilities(&self) -> &[f64] {
        &self.probability
    }

    /// Largest observed concurrency level.
    pub fn max_concurrency(&self) -> usize {
        self.probability.len().saturating_sub(1)
    }

    /// Mean number of concurrently running jobs.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Job;

    fn job(id: u64, start: f64, run: f64) -> Job {
        Job {
            id,
            submit: start,
            start,
            run_time: run,
            procs: 1024,
        }
    }

    #[test]
    fn simple_overlap() {
        // Job 1: [0, 10), Job 2: [5, 15): concurrency 1 on [0,5)∪[10,15),
        // concurrency 2 on [5,10).
        let trace = JobTrace::new(vec![job(1, 0.0, 10.0), job(2, 5.0, 10.0)]);
        let dist = ConcurrencyDistribution::from_trace(&trace);
        assert!((dist.probability_of(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((dist.probability_of(2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(dist.probability_of(0), 0.0);
        assert_eq!(dist.max_concurrency(), 2);
        assert!((dist.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gap_counts_as_zero_concurrency() {
        let trace = JobTrace::new(vec![job(1, 0.0, 10.0), job(2, 20.0, 10.0)]);
        let dist = ConcurrencyDistribution::from_trace(&trace);
        assert!((dist.probability_of(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((dist.probability_of(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero_concurrency() {
        let dist = ConcurrencyDistribution::from_trace(&JobTrace::default());
        assert_eq!(dist.probability_of(0), 1.0);
        assert_eq!(dist.mean(), 0.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let trace = JobTrace::new(vec![
            job(1, 0.0, 100.0),
            job(2, 10.0, 30.0),
            job(3, 20.0, 60.0),
            job(4, 120.0, 5.0),
        ]);
        let dist = ConcurrencyDistribution::from_trace(&trace);
        let total: f64 = dist.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_probabilities_normalizes() {
        let dist = ConcurrencyDistribution::from_probabilities(vec![2.0, 2.0]);
        assert_eq!(dist.probability_of(0), 0.5);
        assert_eq!(dist.probability_of(1), 0.5);
        assert_eq!(dist.mean(), 0.5);
        let degenerate = ConcurrencyDistribution::from_probabilities(vec![]);
        assert_eq!(degenerate.probability_of(0), 1.0);
    }

    #[test]
    fn synthetic_trace_has_many_concurrent_jobs() {
        let cfg = crate::synthetic::SyntheticTraceConfig {
            jobs: 3_000,
            ..Default::default()
        };
        let trace = crate::synthetic::generate(&cfg);
        let dist = ConcurrencyDistribution::from_trace(&trace);
        assert!(
            dist.mean() > 4.0,
            "expected many concurrent jobs, mean was {}",
            dist.mean()
        );
    }
}
