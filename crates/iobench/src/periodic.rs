//! Periodic writers and cache thrashing (Fig. 3).
//!
//! Two IOR instances write periodically (one every 10 s, the other every
//! 7 s) to a PVFS deployment whose storage backend has kernel caching
//! enabled. As long as only one instance writes, its burst is absorbed by
//! the cache and the observed throughput is network-speed; whenever the two
//! bursts coincide the cache saturates and the throughput of both collapses
//! to disk speed. This module runs that scenario and reports the observed
//! per-iteration throughput of the first instance, with and without the
//! interfering second instance.

use calciom::{Error, Scenario};
use mpiio::AppConfig;
use pfs::PfsConfig;

/// Configuration of the periodic-writer experiment.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// The shared file system (should have a cache for the Fig. 3 effect).
    pub pfs: PfsConfig,
    /// The observed application (periodic phases must be configured on it).
    pub app_a: AppConfig,
    /// The interfering application (periodic phases configured), if any.
    pub app_b: Option<AppConfig>,
}

/// Per-iteration observed throughput of the first application.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicResult {
    /// Observed throughput of each write iteration of application A, in
    /// bytes/s.
    pub a_throughputs: Vec<f64>,
    /// Observed throughput of each write iteration of application B (empty
    /// if B was not present).
    pub b_throughputs: Vec<f64>,
}

impl PeriodicResult {
    /// Mean throughput of application A over all iterations.
    pub fn a_mean(&self) -> f64 {
        if self.a_throughputs.is_empty() {
            return 0.0;
        }
        self.a_throughputs.iter().sum::<f64>() / self.a_throughputs.len() as f64
    }

    /// Smallest per-iteration throughput of application A (the collapsed
    /// iterations of Fig. 3b).
    pub fn a_min(&self) -> f64 {
        self.a_throughputs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest per-iteration throughput of application A.
    pub fn a_max(&self) -> f64 {
        self.a_throughputs.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs the periodic-writer scenario.
pub fn run_periodic(cfg: &PeriodicConfig) -> Result<PeriodicResult, Error> {
    let report = Scenario::builder(cfg.pfs.clone())
        .app(cfg.app_a.clone())
        .apps(cfg.app_b.clone())
        .build()?
        .run()?;
    let a_throughputs = report
        .app(cfg.app_a.id)
        .map(|a| a.phase_throughputs())
        .unwrap_or_default();
    let b_throughputs = cfg
        .app_b
        .as_ref()
        .and_then(|b| report.app(b.id))
        .map(|b| b.phase_throughputs())
        .unwrap_or_default();
    Ok(PeriodicResult {
        a_throughputs,
        b_throughputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::AccessPattern;
    use pfs::AppId;
    use simcore::SimDuration;

    const MB: f64 = 1.0e6;

    fn writer(id: usize, name: &str, period_secs: f64, iterations: u32) -> AppConfig {
        // The Fig. 3 workload: an IOR instance on 336 cores writing 16 MB
        // per process per iteration. Alone, each ~5.4 GB burst is absorbed
        // by the servers' write-back caches; when two instances' bursts
        // coincide, the caches saturate and both drop to disk speed.
        AppConfig::new(AppId(id), name, 336, AccessPattern::contiguous(16.0 * MB))
            .with_periodic_phases(iterations, SimDuration::from_secs(period_secs))
    }

    #[test]
    fn alone_throughput_is_cache_speed() {
        let cfg = PeriodicConfig {
            pfs: PfsConfig::grid5000_nancy(),
            app_a: writer(0, "A", 10.0, 5),
            app_b: None,
        };
        let result = run_periodic(&cfg).unwrap();
        assert_eq!(result.a_throughputs.len(), 5);
        assert!(result.b_throughputs.is_empty());
        // Every iteration should be absorbed by the cache: throughput close
        // to the client-side limit (336 × 12 MB/s ≈ 4 GB/s), far above the
        // 35 × 55 MB/s ≈ 1.9 GB/s disk-bound level.
        assert!(
            result.a_min() > 2.5e9,
            "min per-iteration throughput {}",
            result.a_min()
        );
    }

    #[test]
    fn interference_collapses_some_iterations() {
        let pfs = PfsConfig::grid5000_nancy();
        let alone = run_periodic(&PeriodicConfig {
            pfs: pfs.clone(),
            app_a: writer(0, "A", 10.0, 8),
            app_b: None,
        })
        .unwrap();
        let interfered = run_periodic(&PeriodicConfig {
            pfs,
            app_a: writer(0, "A", 10.0, 8),
            app_b: Some(writer(1, "B", 7.0, 8)),
        })
        .unwrap();
        // Alone, every iteration is fast; with the interfering writer the
        // worst iteration collapses well below the alone minimum (Fig. 3b).
        assert!(
            interfered.a_min() < 0.6 * alone.a_min(),
            "interfered min {} vs alone min {}",
            interfered.a_min(),
            alone.a_min()
        );
        // ...but not every iteration is hit: the best iterations stay close
        // to the alone throughput.
        assert!(
            interfered.a_max() > 0.7 * alone.a_max(),
            "interfered max {} vs alone max {}",
            interfered.a_max(),
            alone.a_max()
        );
    }
}
