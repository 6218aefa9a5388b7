//! Collective-buffering (two-phase I/O) model.
//!
//! ROMIO's collective write of a strided pattern proceeds in *rounds*: in
//! each round the processes first shuffle their data to a subset of
//! aggregator processes over the compute interconnect (the *communication
//! phase*), then the aggregators issue one large contiguous write per round
//! to the file system (the *write phase*). Only the write phase contends
//! for the parallel file system; the communication phase is almost immune
//! to cross-application I/O interference — this asymmetry is exactly what
//! Fig. 8(b) of the paper shows.

use crate::error::ConfigError;
use crate::pattern::AccessPattern;

/// Configuration of the collective-buffering algorithm for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveConfig {
    /// Number of aggregator processes (ROMIO `cb_nodes`). 0 means "one
    /// aggregator per 64 processes, at least 1".
    pub aggregators: u32,
    /// Collective buffer size per aggregator in bytes (ROMIO
    /// `cb_buffer_size`, typically 4–16 MB).
    pub buffer_bytes: f64,
    /// Aggregate bandwidth of the data-shuffle phase over the compute
    /// interconnect, in bytes/s (per application; not contended by the
    /// file system traffic).
    pub shuffle_bw: f64,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            aggregators: 0,
            buffer_bytes: 16.0e6,
            shuffle_bw: 8.0e9,
        }
    }
}

impl CollectiveConfig {
    /// Effective number of aggregators for an application with `procs`
    /// processes.
    pub fn effective_aggregators(&self, procs: u32) -> u32 {
        if self.aggregators > 0 {
            self.aggregators.min(procs.max(1))
        } else {
            (procs / 64).max(1)
        }
    }

    /// Bytes written to the file system in one collective-buffering round.
    pub fn round_bytes(&self, procs: u32) -> f64 {
        self.effective_aggregators(procs) as f64 * self.buffer_bytes
    }

    /// Number of rounds needed to drain one file's worth of data for the
    /// given pattern. Contiguous patterns that do not need aggregation are
    /// written in a single round (ROMIO bypasses the buffering).
    pub fn rounds_for(&self, pattern: &AccessPattern, procs: u32) -> u32 {
        let total = pattern.total_bytes(procs);
        if total <= 0.0 {
            return 0;
        }
        if !pattern.needs_aggregation() {
            return 1;
        }
        let per_round = self.round_bytes(procs).max(1.0);
        (total / per_round).ceil() as u32
    }

    /// Duration in seconds of the communication (shuffle) phase of one
    /// round moving `round_bytes` bytes. Zero for patterns that need no
    /// aggregation.
    pub fn comm_seconds(&self, pattern: &AccessPattern, round_bytes: f64) -> f64 {
        if !pattern.needs_aggregation() || round_bytes <= 0.0 {
            return 0.0;
        }
        round_bytes / self.shuffle_bw.max(1.0)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_bytes <= 0.0 {
            return Err(ConfigError::NonPositiveBufferBytes);
        }
        if self.shuffle_bw <= 0.0 {
            return Err(ConfigError::NonPositiveShuffleBw);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    #[test]
    fn default_aggregator_heuristic() {
        let cfg = CollectiveConfig::default();
        assert_eq!(cfg.effective_aggregators(2048), 32);
        assert_eq!(cfg.effective_aggregators(64), 1);
        assert_eq!(cfg.effective_aggregators(8), 1);
        assert_eq!(cfg.effective_aggregators(0), 1);
    }

    #[test]
    fn explicit_aggregators_clamped_to_procs() {
        let cfg = CollectiveConfig {
            aggregators: 128,
            ..Default::default()
        };
        assert_eq!(cfg.effective_aggregators(64), 64);
        assert_eq!(cfg.effective_aggregators(2048), 128);
    }

    #[test]
    fn strided_pattern_needs_multiple_rounds() {
        // Fig. 8 workload: 2048 processes, 16 MB each as 16 × 1 MB blocks.
        let cfg = CollectiveConfig::default();
        let pattern = AccessPattern::strided(1.0 * MB, 16);
        let total = pattern.total_bytes(2048); // 32.768 GB
        let per_round = cfg.round_bytes(2048); // 32 aggr × 16 MB = 512 MB
        let rounds = cfg.rounds_for(&pattern, 2048);
        assert_eq!(rounds, (total / per_round).ceil() as u32);
        assert!(rounds >= 2, "expected multiple rounds, got {rounds}");
    }

    #[test]
    fn contiguous_pattern_is_single_round_with_no_comm() {
        let cfg = CollectiveConfig::default();
        let pattern = AccessPattern::contiguous(32.0 * MB);
        assert_eq!(cfg.rounds_for(&pattern, 2048), 1);
        assert_eq!(cfg.comm_seconds(&pattern, 512.0 * MB), 0.0);
    }

    #[test]
    fn zero_data_means_zero_rounds() {
        let cfg = CollectiveConfig::default();
        let pattern = AccessPattern::contiguous(0.0);
        assert_eq!(cfg.rounds_for(&pattern, 128), 0);
    }

    #[test]
    fn comm_seconds_scale_with_round_size() {
        let cfg = CollectiveConfig {
            shuffle_bw: 1.0e9,
            ..Default::default()
        };
        let pattern = AccessPattern::strided(1.0 * MB, 16);
        let t = cfg.comm_seconds(&pattern, 512.0 * MB);
        assert!((t - 0.512).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        CollectiveConfig::default().validate().unwrap();
        assert!(CollectiveConfig {
            buffer_bytes: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CollectiveConfig {
            shuffle_bw: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
