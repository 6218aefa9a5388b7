//! Synthetic Intrepid-like job-trace generator.
//!
//! The original `ANL-Intrepid-2009-1` trace from the Parallel Workload
//! Archive cannot be redistributed with this repository, so Fig. 1 is
//! reproduced from a synthetic trace whose marginal distributions are
//! calibrated to the published plots: job sizes are powers of two between
//! 256 and 131072 cores with roughly half of the jobs (and half of the
//! machine time) at or below 2048 cores, and enough jobs run concurrently
//! that the machine hosts tens of jobs at any instant.

use crate::trace::{Job, JobTrace};
use simcore::DetRng;

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraceConfig {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Total machine size in cores (Intrepid: 163 840).
    pub machine_cores: u32,
    /// Mean inter-arrival time between job starts, in seconds.
    pub mean_interarrival_secs: f64,
    /// Log-normal run-time parameters (mean / sigma of the underlying
    /// normal, in log-seconds).
    pub runtime_log_mean: f64,
    /// Log-normal run-time sigma.
    pub runtime_log_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticTraceConfig {
    fn default() -> Self {
        SyntheticTraceConfig {
            jobs: 20_000,
            machine_cores: 163_840,
            // ~8 months of trace with 20k jobs → about 1000 s between starts;
            // shortened so the default generation stays fast while keeping
            // tens of concurrent jobs.
            mean_interarrival_secs: 600.0,
            runtime_log_mean: 8.6, // median ≈ 5.4 ks ≈ 1.5 h
            runtime_log_sigma: 1.3,
            seed: 42,
        }
    }
}

/// Job-size buckets (cores) and their probabilities, calibrated to the
/// histogram of Fig. 1(a): half of the jobs are at or below 2048 cores.
pub const SIZE_BUCKETS: [(u32, f64); 10] = [
    (256, 0.17),
    (512, 0.13),
    (1024, 0.11),
    (2048, 0.12),
    (4096, 0.16),
    (8192, 0.12),
    (16384, 0.09),
    (32768, 0.05),
    (65536, 0.03),
    (131072, 0.02),
];

/// Generates a synthetic Intrepid-like trace.
pub fn generate(cfg: &SyntheticTraceConfig) -> JobTrace {
    let mut rng = DetRng::new(cfg.seed);
    let mut jobs = Vec::with_capacity(cfg.jobs);
    let mut clock = 0.0_f64;
    let weights: Vec<f64> = SIZE_BUCKETS.iter().map(|&(_, w)| w).collect();

    for id in 0..cfg.jobs {
        // Poisson arrivals of job starts.
        clock += rng.exponential(cfg.mean_interarrival_secs);

        // Categorical job size.
        let procs = SIZE_BUCKETS[rng.weighted_index(&weights)]
            .0
            .min(cfg.machine_cores);

        // Log-normal run time, with larger jobs running somewhat longer
        // (weak positive correlation, as in production traces).
        let normal = rng.standard_normal();
        let size_boost = (procs as f64 / 2048.0).ln().max(0.0) * 0.15;
        let run_time = (cfg.runtime_log_mean + size_boost + cfg.runtime_log_sigma * normal).exp();
        let run_time = run_time.clamp(60.0, 7.0 * 86_400.0);

        jobs.push(Job {
            id: id as u64,
            submit: clock,
            start: clock,
            run_time,
            procs,
        });
    }
    JobTrace::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SyntheticTraceConfig {
        SyntheticTraceConfig {
            jobs: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_number_of_jobs() {
        let t = generate(&small_cfg());
        assert_eq!(t.len(), 5_000);
        assert!(t.span() > 0.0);
    }

    #[test]
    fn half_of_jobs_are_small() {
        // The paper: "half the jobs on this platform run on less than 2048
        // cores", and the same holds when weighting by duration.
        let t = generate(&small_cfg());
        let frac = t.fraction_of_jobs_at_most(2048);
        assert!((0.42..=0.62).contains(&frac), "fraction was {frac}");
        let tw = t.time_weighted_fraction_at_most(2048);
        assert!(
            (0.35..=0.65).contains(&tw),
            "time-weighted fraction was {tw}"
        );
    }

    #[test]
    fn sizes_are_valid_buckets() {
        let t = generate(&small_cfg());
        let valid: std::collections::BTreeSet<u32> = SIZE_BUCKETS.iter().map(|(s, _)| *s).collect();
        assert!(t.jobs().iter().all(|j| valid.contains(&j.procs)));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a, b);
        let c = generate(&SyntheticTraceConfig {
            seed: 7,
            ..small_cfg()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn run_times_are_bounded() {
        let t = generate(&small_cfg());
        assert!(t
            .jobs()
            .iter()
            .all(|j| j.run_time >= 60.0 && j.run_time <= 7.0 * 86_400.0));
    }

    #[test]
    fn bucket_weights_sum_to_one() {
        let total: f64 = SIZE_BUCKETS.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
