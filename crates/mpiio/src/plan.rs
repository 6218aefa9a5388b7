//! I/O phase plans.
//!
//! An [`IoPlan`] is the fully expanded sequence of steps that one I/O phase
//! of one application will execute: for every file, for every
//! collective-buffering round, a communication (shuffle) step followed by a
//! write step. The CALCioM session walks this plan step by step; the
//! positions where coordination calls (`Inform`/`Check`/`Release`) are
//! issued — and therefore where the application can be interrupted — are
//! the plan's *yield points*, whose density depends on the chosen
//! granularity (Fig. 10 compares file-level and round-level interruption).

use crate::adio::Granularity;
use crate::collective::CollectiveConfig;
use crate::pattern::AccessPattern;

/// What a single step does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepKind {
    /// Data shuffle to the aggregators over the compute interconnect; does
    /// not touch the file system.
    Comm {
        /// Duration of the shuffle in seconds.
        seconds: f64,
    },
    /// One atomic collective write of `bytes` to the file system.
    Write {
        /// Bytes written to the PFS in this step.
        bytes: f64,
    },
}

/// One step of an I/O phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoStep {
    /// File index within the phase (0-based).
    pub file: u32,
    /// Collective-buffering round within the file (0-based).
    pub round: u32,
    /// The action performed.
    pub kind: StepKind,
}

/// The expanded sequence of steps for one I/O phase.
#[derive(Debug, Clone, PartialEq)]
pub struct IoPlan {
    steps: Vec<IoStep>,
    total_write_bytes: f64,
    files: u32,
}

impl IoPlan {
    /// Builds the plan for one I/O phase of an application writing `files`
    /// files with the given per-file pattern, using collective buffering
    /// configured by `collective`.
    pub fn build(
        pattern: &AccessPattern,
        files: u32,
        procs: u32,
        collective: &CollectiveConfig,
    ) -> IoPlan {
        let mut steps = Vec::new();
        let mut total_write_bytes = 0.0;
        let per_file_bytes = pattern.total_bytes(procs);
        let rounds = collective.rounds_for(pattern, procs);
        let round_bytes = collective.round_bytes(procs);

        for file in 0..files {
            let mut remaining = per_file_bytes;
            for round in 0..rounds {
                let write_bytes = if pattern.needs_aggregation() {
                    remaining.min(round_bytes)
                } else {
                    // Contiguous collective writes go out in one piece.
                    remaining
                };
                let comm_seconds = collective.comm_seconds(pattern, write_bytes);
                if comm_seconds > 0.0 {
                    steps.push(IoStep {
                        file,
                        round,
                        kind: StepKind::Comm {
                            seconds: comm_seconds,
                        },
                    });
                }
                steps.push(IoStep {
                    file,
                    round,
                    kind: StepKind::Write { bytes: write_bytes },
                });
                total_write_bytes += write_bytes;
                remaining -= write_bytes;
                if remaining <= 0.0 {
                    break;
                }
            }
        }
        IoPlan {
            steps,
            total_write_bytes,
            files,
        }
    }

    /// All steps in execution order.
    pub fn steps(&self) -> &[IoStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the phase does nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Step at the given index.
    pub fn step(&self, idx: usize) -> Option<&IoStep> {
        self.steps.get(idx)
    }

    /// Total bytes this phase writes to the file system.
    pub fn total_write_bytes(&self) -> f64 {
        self.total_write_bytes
    }

    /// Number of files the phase writes.
    pub fn files(&self) -> u32 {
        self.files
    }

    /// Bytes still to be written when the application is about to execute
    /// step `idx` (i.e. excluding everything before `idx`).
    pub fn remaining_write_bytes_from(&self, idx: usize) -> f64 {
        self.steps[idx.min(self.steps.len())..]
            .iter()
            .map(|s| match s.kind {
                StepKind::Write { bytes } => bytes,
                StepKind::Comm { .. } => 0.0,
            })
            .sum()
    }

    /// Whether index `idx` is a *yield point* for the given coordination
    /// granularity: a place where the application issues coordination calls
    /// and can be asked to wait before proceeding.
    ///
    /// Index 0 (the start of the phase) is always a yield point; the end of
    /// the plan is never one.
    pub fn is_yield_point(&self, idx: usize, granularity: Granularity) -> bool {
        if idx >= self.steps.len() {
            return false;
        }
        if idx == 0 {
            return true;
        }
        let cur = &self.steps[idx];
        let prev = &self.steps[idx - 1];
        match granularity {
            Granularity::Phase => false,
            Granularity::File => cur.file != prev.file,
            Granularity::Round => cur.file != prev.file || cur.round != prev.round,
        }
    }

    /// Indices of all yield points for the given granularity.
    pub fn yield_points(&self, granularity: Granularity) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| self.is_yield_point(i, granularity))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    fn collective() -> CollectiveConfig {
        CollectiveConfig {
            aggregators: 32,
            buffer_bytes: 16.0 * MB,
            shuffle_bw: 8.0e9,
        }
    }

    #[test]
    fn contiguous_single_file_is_one_write() {
        let pattern = AccessPattern::contiguous(32.0 * MB);
        let plan = IoPlan::build(&pattern, 1, 2048, &collective());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.files(), 1);
        match plan.step(0).unwrap().kind {
            StepKind::Write { bytes } => assert_eq!(bytes, 2048.0 * 32.0 * MB),
            _ => panic!("expected a write step"),
        }
        assert_eq!(plan.total_write_bytes(), 2048.0 * 32.0 * MB);
    }

    #[test]
    fn contiguous_multi_file_has_one_write_per_file() {
        // Fig. 10: application A writes 4 files of 4 MB per process.
        let pattern = AccessPattern::contiguous(4.0 * MB);
        let plan = IoPlan::build(&pattern, 4, 2048, &collective());
        assert_eq!(plan.len(), 4);
        let files: Vec<u32> = plan.steps().iter().map(|s| s.file).collect();
        assert_eq!(files, vec![0, 1, 2, 3]);
    }

    #[test]
    fn strided_pattern_alternates_comm_and_write() {
        // 2048 procs × 16 MB strided; 32 aggregators × 16 MB = 512 MB/round
        // → 64 rounds of (comm, write).
        let pattern = AccessPattern::strided(1.0 * MB, 16);
        let plan = IoPlan::build(&pattern, 1, 2048, &collective());
        assert_eq!(plan.len(), 2 * 64);
        assert!(matches!(plan.step(0).unwrap().kind, StepKind::Comm { .. }));
        assert!(matches!(plan.step(1).unwrap().kind, StepKind::Write { .. }));
        let total: f64 = plan.total_write_bytes();
        assert!((total - 2048.0 * 16.0 * MB).abs() < 1.0);
    }

    #[test]
    fn last_round_carries_the_remainder() {
        // 3 procs × 10 MB with 1 aggregator × 16 MB rounds → rounds of
        // 16, 14 MB.
        let cfg = CollectiveConfig {
            aggregators: 1,
            buffer_bytes: 16.0 * MB,
            shuffle_bw: 8.0e9,
        };
        let pattern = AccessPattern::strided(1.0 * MB, 10);
        let plan = IoPlan::build(&pattern, 1, 3, &cfg);
        let writes: Vec<f64> = plan
            .steps()
            .iter()
            .filter_map(|s| match s.kind {
                StepKind::Write { bytes } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(writes.len(), 2);
        assert!((writes[0] - 16.0 * MB).abs() < 1.0);
        assert!((writes[1] - 14.0 * MB).abs() < 1.0);
        assert!((plan.total_write_bytes() - 30.0 * MB).abs() < 1.0);
    }

    #[test]
    fn yield_points_by_granularity() {
        let pattern = AccessPattern::contiguous(4.0 * MB);
        let plan = IoPlan::build(&pattern, 4, 2048, &collective());
        assert_eq!(plan.yield_points(Granularity::Phase), vec![0]);
        assert_eq!(plan.yield_points(Granularity::File), vec![0, 1, 2, 3]);
        assert_eq!(plan.yield_points(Granularity::Round), vec![0, 1, 2, 3]);

        let strided = AccessPattern::strided(1.0 * MB, 16);
        let plan = IoPlan::build(&strided, 1, 2048, &collective());
        assert_eq!(plan.yield_points(Granularity::Phase), vec![0]);
        assert_eq!(plan.yield_points(Granularity::File), vec![0]);
        // One yield point per round = every other step (before each Comm).
        let rounds = plan.yield_points(Granularity::Round);
        assert_eq!(rounds.len(), 64);
        assert!(rounds.iter().all(|i| i % 2 == 0));
    }

    #[test]
    fn remaining_bytes_from_counts_only_writes() {
        let pattern = AccessPattern::contiguous(4.0 * MB);
        let plan = IoPlan::build(&pattern, 4, 1024, &collective());
        let per_file = 1024.0 * 4.0 * MB;
        assert!((plan.remaining_write_bytes_from(0) - 4.0 * per_file).abs() < 1.0);
        assert!((plan.remaining_write_bytes_from(2) - 2.0 * per_file).abs() < 1.0);
        assert_eq!(plan.remaining_write_bytes_from(99), 0.0);
    }

    #[test]
    fn empty_plan_for_zero_files() {
        let pattern = AccessPattern::contiguous(4.0 * MB);
        let plan = IoPlan::build(&pattern, 0, 1024, &collective());
        assert!(plan.is_empty());
        assert_eq!(plan.total_write_bytes(), 0.0);
        assert!(!plan.is_yield_point(0, Granularity::Round));
    }
}
