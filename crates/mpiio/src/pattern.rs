//! Application access patterns.
//!
//! The paper's IOR-derived benchmark controls each application's pattern:
//! *contiguous* (each process writes one large block) or *strided* (each
//! process writes `block_count` blocks of `block_size` bytes interleaved
//! with the other processes' blocks). A strided collective write triggers
//! ROMIO's collective-buffering (two-phase I/O) optimization, which is what
//! Fig. 8 decomposes into communication and write phases.

use crate::error::ConfigError;

/// Per-process file access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Each process writes a single contiguous block of `bytes_per_proc`.
    Contiguous {
        /// Bytes written by each process.
        bytes_per_proc: f64,
    },
    /// Each process writes `block_count` blocks of `block_size` bytes at a
    /// stride, interleaved with other processes (e.g. "16 MB per process as
    /// 8 strides of 2 MB" in Fig. 6).
    Strided {
        /// Size of one block in bytes.
        block_size: f64,
        /// Number of blocks written by each process.
        block_count: u32,
    },
}

impl AccessPattern {
    /// Convenience constructor for a contiguous pattern.
    pub fn contiguous(bytes_per_proc: f64) -> Self {
        AccessPattern::Contiguous { bytes_per_proc }
    }

    /// Convenience constructor for a strided pattern.
    pub fn strided(block_size: f64, block_count: u32) -> Self {
        AccessPattern::Strided {
            block_size,
            block_count,
        }
    }

    /// Bytes written by one process in one file.
    pub fn bytes_per_proc(&self) -> f64 {
        match *self {
            AccessPattern::Contiguous { bytes_per_proc } => bytes_per_proc,
            AccessPattern::Strided {
                block_size,
                block_count,
            } => block_size * block_count as f64,
        }
    }

    /// Total bytes written by `procs` processes in one file.
    pub fn total_bytes(&self, procs: u32) -> f64 {
        self.bytes_per_proc() * procs as f64
    }

    /// Whether this pattern is non-contiguous in the file and therefore
    /// triggers the collective-buffering (two-phase I/O) optimization with
    /// a data-shuffle communication step per round.
    pub fn needs_aggregation(&self) -> bool {
        matches!(self, AccessPattern::Strided { .. })
    }

    /// Validates the pattern parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            AccessPattern::Contiguous { bytes_per_proc } => {
                if bytes_per_proc < 0.0 {
                    return Err(ConfigError::NegativeBytesPerProc);
                }
            }
            AccessPattern::Strided {
                block_size,
                block_count,
            } => {
                if block_size < 0.0 {
                    return Err(ConfigError::NegativeBlockSize);
                }
                if block_count == 0 {
                    return Err(ConfigError::ZeroBlockCount);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    #[test]
    fn contiguous_sizes() {
        let p = AccessPattern::contiguous(16.0 * MB);
        assert_eq!(p.bytes_per_proc(), 16.0 * MB);
        assert_eq!(p.total_bytes(336), 336.0 * 16.0 * MB);
        assert!(!p.needs_aggregation());
        p.validate().unwrap();
    }

    #[test]
    fn strided_sizes() {
        // Fig. 6: 16 MB per process as 8 strides of 2 MB.
        let p = AccessPattern::strided(2.0 * MB, 8);
        assert_eq!(p.bytes_per_proc(), 16.0 * MB);
        assert_eq!(p.total_bytes(24), 24.0 * 16.0 * MB);
        assert!(p.needs_aggregation());
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(AccessPattern::contiguous(-1.0).validate().is_err());
        assert!(AccessPattern::strided(-1.0, 4).validate().is_err());
        assert!(AccessPattern::strided(MB, 0).validate().is_err());
        assert!(AccessPattern::contiguous(0.0).validate().is_ok());
    }
}
