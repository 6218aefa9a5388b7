//! Job traces.
//!
//! The paper motivates cross-application interference with eight months of
//! job-scheduler traces from Argonne's Intrepid (`ANL-Intrepid-2009-1` from
//! the Parallel Workload Archive), showing that half of the jobs use at
//! most 2048 cores and that many jobs run concurrently at any instant
//! (Fig. 1). This module provides the trace representation, a parser for
//! the Standard Workload Format (SWF) used by the archive, and the derived
//! statistics.

/// A problem found while parsing a Standard Workload Format document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// A non-comment line had fewer than the five mandatory SWF fields.
    TooFewFields {
        /// 1-based line number of the offending line.
        line: usize,
        /// Number of fields actually present.
        got: usize,
    },
    /// A field could not be parsed as a number.
    InvalidNumber {
        /// 1-based line number of the offending line.
        line: usize,
        /// The unparsable field text.
        value: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::TooFewFields { line, got } => {
                write!(f, "line {line}: expected at least 5 SWF fields, got {got}")
            }
            TraceParseError::InvalidNumber { line, value } => {
                write!(f, "line {line}: invalid number '{value}'")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// One job from a scheduler trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Job identifier.
    pub id: u64,
    /// Submission time in seconds since the start of the trace.
    pub submit: f64,
    /// Start time in seconds since the start of the trace.
    pub start: f64,
    /// Wall-clock run time in seconds.
    pub run_time: f64,
    /// Number of allocated processors (cores).
    pub procs: u32,
}

impl Job {
    /// End time of the job.
    pub fn end(&self) -> f64 {
        self.start + self.run_time
    }
}

/// A collection of jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTrace {
    jobs: Vec<Job>,
}

impl JobTrace {
    /// Creates a trace from a list of jobs.
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        JobTrace { jobs }
    }

    /// The jobs, sorted by start time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total core-seconds consumed by the trace.
    pub fn core_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.procs as f64 * j.run_time).sum()
    }

    /// Time span covered by the trace (first start to last end).
    pub fn span(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let first = self
            .jobs
            .iter()
            .map(|j| j.start)
            .fold(f64::INFINITY, f64::min);
        let last = self.jobs.iter().map(|j| j.end()).fold(0.0, f64::max);
        (last - first).max(0.0)
    }

    /// Fraction of jobs with at most `procs` processors.
    pub fn fraction_of_jobs_at_most(&self, procs: u32) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.procs <= procs).count() as f64 / self.jobs.len() as f64
    }

    /// Fraction of machine time (job duration weighted) used by jobs with
    /// at most `procs` processors — the paper notes that half of Intrepid's
    /// machine time goes to jobs of at most 2048 cores.
    pub fn time_weighted_fraction_at_most(&self, procs: u32) -> f64 {
        let total: f64 = self.jobs.iter().map(|j| j.run_time).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.jobs
            .iter()
            .filter(|j| j.procs <= procs)
            .map(|j| j.run_time)
            .sum::<f64>()
            / total
    }

    /// Parses a Standard Workload Format (SWF) document. Lines starting
    /// with `;` are comments. Fields (whitespace separated, 1-based as in
    /// the SWF specification): 1 job id, 2 submit time, 3 wait time, 4 run
    /// time, 5 allocated processors. Jobs with non-positive run time or
    /// processor count are skipped (failed/cancelled entries).
    pub fn parse_swf(text: &str) -> Result<JobTrace, TraceParseError> {
        let mut jobs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 5 {
                return Err(TraceParseError::TooFewFields {
                    line: lineno + 1,
                    got: fields.len(),
                });
            }
            let parse = |idx: usize| -> Result<f64, TraceParseError> {
                fields[idx]
                    .parse::<f64>()
                    .map_err(|_| TraceParseError::InvalidNumber {
                        line: lineno + 1,
                        value: fields[idx].to_string(),
                    })
            };
            let id = parse(0)? as u64;
            let submit = parse(1)?;
            let wait = parse(2)?.max(0.0);
            let run_time = parse(3)?;
            let procs = parse(4)?;
            if run_time <= 0.0 || procs <= 0.0 {
                continue;
            }
            jobs.push(Job {
                id,
                submit,
                start: submit + wait,
                run_time,
                procs: procs as u32,
            });
        }
        Ok(JobTrace::new(jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> JobTrace {
        JobTrace::new(vec![
            Job {
                id: 1,
                submit: 0.0,
                start: 0.0,
                run_time: 100.0,
                procs: 256,
            },
            Job {
                id: 2,
                submit: 10.0,
                start: 20.0,
                run_time: 50.0,
                procs: 2048,
            },
            Job {
                id: 3,
                submit: 30.0,
                start: 60.0,
                run_time: 200.0,
                procs: 8192,
            },
            Job {
                id: 4,
                submit: 40.0,
                start: 90.0,
                run_time: 10.0,
                procs: 512,
            },
        ])
    }

    #[test]
    fn basic_statistics() {
        let t = sample_trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.span(), 260.0);
        assert_eq!(
            t.core_seconds(),
            256.0 * 100.0 + 2048.0 * 50.0 + 8192.0 * 200.0 + 512.0 * 10.0
        );
    }

    #[test]
    fn job_size_fractions() {
        let t = sample_trace();
        assert_eq!(t.fraction_of_jobs_at_most(2048), 0.75);
        assert_eq!(t.fraction_of_jobs_at_most(100), 0.0);
        let tw = t.time_weighted_fraction_at_most(2048);
        assert!((tw - 160.0 / 360.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = JobTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.span(), 0.0);
        assert_eq!(t.fraction_of_jobs_at_most(1024), 0.0);
        assert_eq!(t.time_weighted_fraction_at_most(1024), 0.0);
    }

    #[test]
    fn parses_swf_with_comments_and_skips_invalid_jobs() {
        let text = "\
; UnixStartTime: 1231135224
; MaxNodes: 40960
1 0 5 3600 1024 0 0 0 0 0 1 1 1 0 0 0 0 0
2 100 0 -1 512 0 0 0 0 0 0 1 1 0 0 0 0 0
3 200 10 120 0 0 0 0 0 0 1 1 1 0 0 0 0 0
4 300 60 7200 16384 0 0 0 0 0 1 1 1 0 0 0 0 0
";
        let t = JobTrace::parse_swf(text).unwrap();
        assert_eq!(t.len(), 2, "jobs 2 (failed) and 3 (zero procs) skipped");
        assert_eq!(t.jobs()[0].id, 1);
        assert_eq!(t.jobs()[0].start, 5.0);
        assert_eq!(t.jobs()[1].procs, 16384);
        assert_eq!(t.jobs()[1].start, 360.0);
    }

    #[test]
    fn swf_parser_reports_errors() {
        assert!(JobTrace::parse_swf("1 2 3").is_err());
        assert!(JobTrace::parse_swf("a b c d e").is_err());
        assert!(JobTrace::parse_swf("").unwrap().is_empty());
    }
}
