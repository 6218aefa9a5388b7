//! Application model.
//!
//! An [`AppConfig`] describes one job as the paper's IOR-derived benchmark
//! does: how many processes it runs on, its per-process access pattern, how
//! many files it writes per I/O phase, when its first I/O phase starts
//! (the Δ-graph `dt` offset) and, for periodic workloads (Fig. 3), how many
//! phases it executes and at which period.

use crate::collective::CollectiveConfig;
use crate::error::ConfigError;
use crate::pattern::AccessPattern;
use crate::plan::IoPlan;
use pfs::{AppId, PfsConfig};
use simcore::time::{SimDuration, SimTime};

/// Static description of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppConfig {
    /// Application identity (shared with the PFS and CALCioM layers).
    pub id: AppId,
    /// Human-readable name used in experiment output ("App A", "App B").
    pub name: String,
    /// Number of processes (cores) the application runs on.
    pub procs: u32,
    /// Per-process, per-file access pattern.
    pub pattern: AccessPattern,
    /// Number of files written in each I/O phase.
    pub files: u32,
    /// Collective-buffering configuration.
    pub collective: CollectiveConfig,
    /// Start time of the first I/O phase.
    pub start: SimTime,
    /// Number of I/O phases (1 for the Δ-graph experiments, >1 for the
    /// periodic writers of Fig. 3).
    pub phases: u32,
    /// Period between the *starts* of consecutive I/O phases. If a phase
    /// takes longer than the period, the next phase starts immediately
    /// after it.
    pub phase_interval: SimDuration,
}

impl AppConfig {
    /// Creates an application with sensible defaults: one phase, one file,
    /// default collective-buffering settings, starting at t = 0.
    pub fn new(id: AppId, name: impl Into<String>, procs: u32, pattern: AccessPattern) -> Self {
        AppConfig {
            id,
            name: name.into(),
            procs,
            pattern,
            files: 1,
            collective: CollectiveConfig::default(),
            start: SimTime::ZERO,
            phases: 1,
            phase_interval: SimDuration::ZERO,
        }
    }

    /// Sets the number of files per phase.
    pub fn with_files(mut self, files: u32) -> Self {
        self.files = files;
        self
    }

    /// Sets the start time of the first phase.
    pub fn with_start(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Sets the start time in seconds (Δ-graph `dt` offsets; negative values
    /// clamp to zero — the convention used throughout the experiments is to
    /// shift the *other* application instead).
    pub fn starting_at_secs(mut self, secs: f64) -> Self {
        self.start = SimTime::from_secs(secs);
        self
    }

    /// Sets the collective-buffering configuration.
    pub fn with_collective(mut self, collective: CollectiveConfig) -> Self {
        self.collective = collective;
        self
    }

    /// Configures a periodic workload: `phases` I/O phases, one every
    /// `interval`.
    pub fn with_periodic_phases(mut self, phases: u32, interval: SimDuration) -> Self {
        self.phases = phases;
        self.phase_interval = interval;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.procs == 0 {
            return Err(ConfigError::ZeroProcs {
                app: self.name.clone(),
            });
        }
        if self.phases == 0 {
            return Err(ConfigError::ZeroPhases {
                app: self.name.clone(),
            });
        }
        self.pattern.validate()?;
        self.collective.validate()?;
        Ok(())
    }

    /// Builds the step plan for one I/O phase.
    pub fn plan(&self) -> IoPlan {
        IoPlan::build(&self.pattern, self.files, self.procs, &self.collective)
    }

    /// Total bytes written to the file system per I/O phase.
    pub fn bytes_per_phase(&self) -> f64 {
        self.pattern.total_bytes(self.procs) * self.files as f64
    }

    /// The write bandwidth this application can reach when running alone on
    /// the given file system: limited by its own client links and by the
    /// aggregate server bandwidth (cache absorb speed if a cache is
    /// present).
    pub fn alone_bandwidth(&self, pfs_cfg: &PfsConfig) -> f64 {
        let client = self.procs as f64 * pfs_cfg.process_link_bw;
        let servers = match &pfs_cfg.cache {
            Some(c) => c.absorb_bw * pfs_cfg.num_servers as f64,
            None => pfs_cfg.aggregate_server_bw(),
        };
        client.min(servers).min(pfs_cfg.interconnect_bw)
    }

    /// Fraction of the file system's aggregate bandwidth this application
    /// can drive on its own (its client-side demand), in `[0, 1]`. Two
    /// applications whose fractions sum to at most 1 barely interfere.
    pub fn pfs_demand_fraction(&self, pfs_cfg: &PfsConfig) -> f64 {
        let servers = match &pfs_cfg.cache {
            Some(c) => c.absorb_bw * pfs_cfg.num_servers as f64,
            None => pfs_cfg.aggregate_server_bw(),
        };
        if servers <= 0.0 {
            return 1.0;
        }
        (self.alone_bandwidth(pfs_cfg) / servers).clamp(0.0, 1.0)
    }

    /// Analytic estimate of the duration of one I/O phase when the
    /// application runs alone (used for "expected" curves and by the
    /// dynamic policy as `T_alone`).
    pub fn estimate_alone_seconds(&self, pfs_cfg: &PfsConfig) -> f64 {
        let bw = self.alone_bandwidth(pfs_cfg);
        let plan = self.plan();
        let mut total = 0.0;
        for step in plan.steps() {
            total += match step.kind {
                crate::plan::StepKind::Comm { seconds } => seconds,
                crate::plan::StepKind::Write { bytes } => {
                    if bw > 0.0 {
                        bytes / bw
                    } else {
                        0.0
                    }
                }
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    fn rennes() -> PfsConfig {
        PfsConfig::grid5000_rennes()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let app = AppConfig::new(AppId(0), "App A", 336, AccessPattern::contiguous(16.0 * MB))
            .with_files(4)
            .starting_at_secs(5.0)
            .with_periodic_phases(10, SimDuration::from_secs(10.0));
        assert_eq!(app.files, 4);
        assert_eq!(app.start, SimTime::from_secs(5.0));
        assert_eq!(app.phases, 10);
        assert_eq!(app.phase_interval, SimDuration::from_secs(10.0));
        app.validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_procs_or_phases() {
        let app = AppConfig::new(AppId(0), "x", 0, AccessPattern::contiguous(MB));
        assert!(app.validate().is_err());
        let mut app = AppConfig::new(AppId(0), "x", 4, AccessPattern::contiguous(MB));
        app.phases = 0;
        assert!(app.validate().is_err());
    }

    #[test]
    fn bytes_per_phase_counts_files() {
        let app =
            AppConfig::new(AppId(0), "A", 2048, AccessPattern::contiguous(4.0 * MB)).with_files(4);
        assert_eq!(app.bytes_per_phase(), 2048.0 * 4.0 * MB * 4.0);
    }

    #[test]
    fn alone_bandwidth_is_min_of_client_and_servers() {
        let cfg = rennes(); // 12 × 70 MB/s = 840 MB/s servers; 12 MB/s per-proc links
        let small = AppConfig::new(AppId(0), "small", 24, AccessPattern::contiguous(16.0 * MB));
        assert!((small.alone_bandwidth(&cfg) - 24.0 * 12.0e6).abs() < 1.0);
        let big = AppConfig::new(AppId(1), "big", 744, AccessPattern::contiguous(16.0 * MB));
        assert!((big.alone_bandwidth(&cfg) - 840.0e6).abs() < 1.0);
    }

    #[test]
    fn estimate_alone_seconds_matches_hand_computation() {
        let cfg = rennes();
        let app = AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0 * MB));
        // 336 × 16 MB = 5.376 GB at 840 MB/s (server-limited: client would be
        // 4.03 GB/s) → 6.4 s.
        let t = app.estimate_alone_seconds(&cfg);
        assert!((t - 5376.0e6 / 840.0e6).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn estimate_includes_comm_time_for_strided_patterns() {
        let cfg = rennes();
        let contiguous = AppConfig::new(AppId(0), "c", 512, AccessPattern::contiguous(16.0 * MB));
        let strided = AppConfig::new(AppId(0), "s", 512, AccessPattern::strided(2.0 * MB, 8));
        assert!(strided.estimate_alone_seconds(&cfg) > contiguous.estimate_alone_seconds(&cfg));
    }
}
