//! Typed configuration errors for the file system model.
//!
//! Every public constructor and validator in this crate reports problems
//! through [`ConfigError`] instead of bare strings, so that callers (the
//! `calciom` session layer, the `iobench` harness) can match on the exact
//! failure and wrap it into their own error types without parsing text.

/// A problem found while validating a [`PfsConfig`](crate::PfsConfig).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_servers` was zero; a file system needs at least one server.
    NoServers,
    /// `num_servers` exceeded [`MAX_SERVERS`](crate::config::MAX_SERVERS).
    TooManyServers {
        /// The rejected server count.
        num_servers: usize,
    },
    /// A bandwidth or capacity field was NaN, zero, or negative.
    NonPositive {
        /// Name of the offending field (e.g. `"server_bw"`).
        field: &'static str,
    },
    /// The locality-breakage penalty γ was outside `(0, 1]`.
    GammaOutOfRange {
        /// The rejected value.
        gamma: f64,
    },
    /// The cache's drain bandwidth exceeded its absorb bandwidth, which
    /// would make the cache slower than the disks it fronts.
    CacheDrainExceedsAbsorb {
        /// Configured background drain bandwidth (bytes/s).
        drain_bw: f64,
        /// Configured ingest bandwidth (bytes/s).
        absorb_bw: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoServers => write!(f, "num_servers must be at least 1"),
            ConfigError::TooManyServers { num_servers } => write!(
                f,
                "num_servers must be at most {}, got {num_servers}",
                crate::config::MAX_SERVERS
            ),
            ConfigError::NonPositive { field } => write!(f, "{field} must be positive"),
            ConfigError::GammaOutOfRange { gamma } => {
                write!(f, "interference_gamma must be in (0, 1], got {gamma}")
            }
            ConfigError::CacheDrainExceedsAbsorb {
                drain_bw,
                absorb_bw,
            } => write!(
                f,
                "cache drain_bw ({drain_bw}) must not exceed absorb_bw ({absorb_bw})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}
