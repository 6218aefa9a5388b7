//! Δ-graph sweeps.
//!
//! The paper's main experimental device (Section II-C): application A starts
//! its I/O phase at the reference date t = 0, application B starts at
//! t = dt, and the observed write time (or interference factor) of each is
//! plotted against dt. Negative dt means B starts first; the Δ-graph of
//! (A, B) is then the mirror of (B, A). A sweep runs one simulation per dt
//! value (in parallel) plus the two stand-alone baselines.

use crate::baseline::alone_time_cached;
use crate::expected::expected_times;
use crate::parallel::run_scenarios;
use calciom::{
    cpu_seconds_wasted_per_core, AppObservation, DynamicPolicy, EfficiencyMetric, Error,
    Granularity, Scenario, SessionError, SessionReport, Strategy,
};
use mpiio::AppConfig;
use pfs::PfsConfig;
use simcore::SimTime;

/// Configuration of a Δ-graph sweep for one strategy.
#[derive(Debug, Clone)]
pub struct DeltaSweepConfig {
    /// The shared file system.
    pub pfs: PfsConfig,
    /// Application A (its configured start time is ignored; it starts at
    /// the reference date).
    pub app_a: AppConfig,
    /// Application B (start time ignored; it starts at `dt`).
    pub app_b: AppConfig,
    /// The dt values to sweep, in seconds (may be negative).
    pub dts: Vec<f64>,
    /// Scheduling strategy in force.
    pub strategy: Strategy,
    /// Coordination granularity.
    pub granularity: Granularity,
    /// Dynamic policy (used when `strategy` is `Dynamic`).
    pub policy: DynamicPolicy,
    /// Worker threads for the sweep (0 = all cores).
    pub threads: usize,
}

impl DeltaSweepConfig {
    /// Creates a sweep over the given dt values with the interfering
    /// (uncoordinated) strategy.
    pub fn new(pfs: PfsConfig, app_a: AppConfig, app_b: AppConfig, dts: Vec<f64>) -> Self {
        DeltaSweepConfig {
            pfs,
            app_a,
            app_b,
            dts,
            strategy: Strategy::Interfere,
            granularity: Granularity::Round,
            policy: DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
            threads: 0,
        }
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the dynamic policy.
    pub fn with_policy(mut self, policy: DynamicPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One point of a Δ-graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPoint {
    /// Start offset of B relative to A, in seconds.
    pub dt: f64,
    /// Observed write time of A.
    pub a_io_time: f64,
    /// Observed write time of B.
    pub b_io_time: f64,
    /// Interference factor of A (`T / T_alone`).
    pub a_factor: f64,
    /// Interference factor of B.
    pub b_factor: f64,
    /// Expected write time of A under proportional sharing.
    pub a_expected: f64,
    /// Expected write time of B under proportional sharing.
    pub b_expected: f64,
    /// CPU·seconds wasted in I/O per core over the pair (Fig. 11 metric).
    pub cpu_seconds_per_core: f64,
    /// Time A spent in communication (collective-buffering shuffle) steps.
    pub a_comm_seconds: f64,
    /// Time A spent with a write in flight.
    pub a_write_seconds: f64,
}

/// The result of a Δ-graph sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSweepResult {
    /// Strategy that was swept.
    pub strategy: Strategy,
    /// Stand-alone write time of A.
    pub a_alone: f64,
    /// Stand-alone write time of B.
    pub b_alone: f64,
    /// One point per dt, in the order the dts were given.
    pub points: Vec<DeltaPoint>,
}

impl DeltaSweepResult {
    /// Maximum interference factor observed for B across the sweep (the
    /// headline number of Fig. 6b is ≈ 14 for a 24-core application).
    pub fn max_b_factor(&self) -> f64 {
        self.points.iter().map(|p| p.b_factor).fold(1.0, f64::max)
    }

    /// Maximum interference factor observed for A.
    pub fn max_a_factor(&self) -> f64 {
        self.points.iter().map(|p| p.a_factor).fold(1.0, f64::max)
    }

    /// The point at the given dt, if it was part of the sweep.
    pub fn at(&self, dt: f64) -> Option<&DeltaPoint> {
        self.points.iter().find(|p| (p.dt - dt).abs() < 1e-9)
    }
}

/// Builds an inclusive range of dt values with the given step.
pub fn dt_range(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "dt step must be positive");
    let mut out = Vec::new();
    let mut x = lo;
    while x <= hi + 1e-9 {
        out.push((x * 1e6).round() / 1e6);
        x += step;
    }
    out
}

/// Runs a Δ-graph sweep: one simulation per dt plus the two stand-alone
/// baselines. The per-dt sessions are fanned out across worker threads
/// over the shared transport (see [`run_scenarios`]); the simulation is
/// deterministic, so the result is identical to a sequential sweep. The
/// baselines come from the process-wide
/// [`BaselineCache`](crate::BaselineCache), so repeated sweeps over the
/// same application pair (one per strategy, typically) simulate each
/// baseline only once.
pub fn run_delta_sweep(cfg: &DeltaSweepConfig) -> Result<DeltaSweepResult, Error> {
    let a_alone = alone_time_cached(&cfg.app_a, &cfg.pfs)?;
    let b_alone = alone_time_cached(&cfg.app_b, &cfg.pfs)?;

    let scenarios = cfg
        .dts
        .iter()
        .map(|&dt| scenario_at(cfg, dt))
        .collect::<Result<Vec<_>, Error>>()?;
    let reports = run_scenarios(&scenarios, cfg.threads)?;

    let points = cfg
        .dts
        .iter()
        .zip(&reports)
        .map(|(&dt, report)| delta_point(cfg, dt, a_alone, b_alone, report))
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(DeltaSweepResult {
        strategy: cfg.strategy,
        a_alone,
        b_alone,
        points,
    })
}

/// Builds the scenario for one dt value. A starts at the reference date, B
/// at dt; negative dt shifts A instead so that simulated time stays
/// non-negative.
fn scenario_at(cfg: &DeltaSweepConfig, dt: f64) -> Result<Scenario, Error> {
    let (a_start, b_start) = if dt >= 0.0 { (0.0, dt) } else { (-dt, 0.0) };
    let mut app_a = cfg.app_a.clone();
    let mut app_b = cfg.app_b.clone();
    app_a.start = SimTime::from_secs(a_start);
    app_b.start = SimTime::from_secs(b_start);
    Ok(Scenario::builder(cfg.pfs.clone())
        .apps([app_a, app_b])
        .strategy(cfg.strategy)
        .granularity(cfg.granularity)
        .policy(cfg.policy)
        .build()?)
}

fn delta_point(
    cfg: &DeltaSweepConfig,
    dt: f64,
    a_alone: f64,
    b_alone: f64,
    report: &SessionReport,
) -> Result<DeltaPoint, Error> {
    let a = report
        .app(cfg.app_a.id)
        .ok_or(SessionError::MissingApp(cfg.app_a.id))?;
    let b = report
        .app(cfg.app_b.id)
        .ok_or(SessionError::MissingApp(cfg.app_b.id))?;
    let a_phase = a.first_phase();
    let b_phase = b.first_phase();
    let a_io_time = a_phase.io_time();
    let b_io_time = b_phase.io_time();

    let expected = expected_times(
        a_alone,
        b_alone,
        dt,
        cfg.app_a.procs as f64,
        cfg.app_b.procs as f64,
    );
    let observations = [
        AppObservation {
            app: cfg.app_a.id,
            procs: cfg.app_a.procs,
            io_seconds: a_io_time,
            alone_seconds: a_alone,
        },
        AppObservation {
            app: cfg.app_b.id,
            procs: cfg.app_b.procs,
            io_seconds: b_io_time,
            alone_seconds: b_alone,
        },
    ];

    Ok(DeltaPoint {
        dt,
        a_io_time,
        b_io_time,
        a_factor: calciom::interference_factor(a_io_time, a_alone),
        b_factor: calciom::interference_factor(b_io_time, b_alone),
        a_expected: expected.a,
        b_expected: expected.b,
        cpu_seconds_per_core: cpu_seconds_wasted_per_core(&observations),
        a_comm_seconds: a_phase.comm_seconds,
        a_write_seconds: a_phase.write_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::AccessPattern;
    use pfs::AppId;

    const MB: f64 = 1.0e6;

    fn sweep_cfg(strategy: Strategy) -> DeltaSweepConfig {
        let a = AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0 * MB));
        let b = AppConfig::new(AppId(1), "B", 336, AccessPattern::contiguous(16.0 * MB));
        DeltaSweepConfig::new(
            PfsConfig::grid5000_rennes(),
            a,
            b,
            vec![-10.0, -5.0, 0.0, 5.0, 10.0],
        )
        .with_strategy(strategy)
    }

    #[test]
    fn dt_range_is_inclusive() {
        assert_eq!(dt_range(-2.0, 2.0, 1.0), vec![-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert_eq!(dt_range(0.0, 0.5, 0.25), vec![0.0, 0.25, 0.5]);
    }

    #[test]
    #[should_panic]
    fn dt_range_rejects_non_positive_step() {
        dt_range(0.0, 1.0, 0.0);
    }

    #[test]
    fn interfering_sweep_shows_delta_shape() {
        // Fig. 2: with equal applications the first to arrive is favored and
        // the worst case for both is dt = 0.
        let result = run_delta_sweep(&sweep_cfg(Strategy::Interfere)).unwrap();
        assert_eq!(result.points.len(), 5);
        let at0 = result.at(0.0).unwrap();
        let at10 = result.at(10.0).unwrap();
        assert!(at0.a_factor > 1.5, "dt=0 should hurt A: {}", at0.a_factor);
        assert!(at0.b_factor > 1.5, "dt=0 should hurt B: {}", at0.b_factor);
        // When B arrives late, A (who arrived first) is favored over B.
        assert!(at10.a_io_time <= at10.b_io_time + 1e-6);
        // Mirror symmetry between (A,B) at +dt and -dt.
        let plus = result.at(5.0).unwrap();
        let minus = result.at(-5.0).unwrap();
        assert!((plus.a_io_time - minus.b_io_time).abs() < 0.3);
        assert!((plus.b_io_time - minus.a_io_time).abs() < 0.3);
    }

    #[test]
    fn fcfs_sweep_protects_the_first_arriver() {
        let result = run_delta_sweep(&sweep_cfg(Strategy::FcfsSerialize)).unwrap();
        let at5 = result.at(5.0).unwrap();
        // A arrived first: it keeps (approximately) its alone time.
        assert!(
            (at5.a_io_time - result.a_alone).abs() / result.a_alone < 0.05,
            "a={} alone={}",
            at5.a_io_time,
            result.a_alone
        );
        // B is delayed by A's remaining time.
        assert!(at5.b_io_time > result.b_alone * 1.2);
    }

    #[test]
    fn expected_times_bracket_reasonably() {
        let result = run_delta_sweep(&sweep_cfg(Strategy::Interfere)).unwrap();
        let at0 = result.at(0.0).unwrap();
        // With equal applications at dt=0 the expectation is 2× alone; the
        // measured value should be within ~40% of it (the locality penalty
        // makes it a bit worse).
        assert!((at0.a_expected - 2.0 * result.a_alone).abs() < 1e-6);
        assert!(at0.a_io_time >= at0.a_expected * 0.9);
        assert!(at0.a_io_time <= at0.a_expected * 1.6);
    }
}
