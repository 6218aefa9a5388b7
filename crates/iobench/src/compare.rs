//! Side-by-side comparison of scheduling strategies on one scenario.
//!
//! Figures 9–11 of the paper plot the same workload under several
//! strategies (interfering, FCFS, interruption, CALCioM's dynamic choice).
//! This module runs one scenario once per strategy, measures the
//! stand-alone baselines, and exposes the per-application interference
//! factors and machine-wide metrics for each strategy.

use crate::baseline::alone_time_cached;
use crate::parallel::run_scenarios;
use calciom::{
    AppObservation, DynamicPolicy, EfficiencyMetric, Error, Granularity, PolicySpec, Scenario,
    SessionReport, Strategy,
};
use mpiio::AppConfig;
use pfs::{AppId, PfsConfig};
use std::collections::BTreeMap;

/// Result of running one scenario under one strategy.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// The strategy.
    pub strategy: Strategy,
    /// The full session report.
    pub report: SessionReport,
}

impl StrategyRun {
    /// Observed first-phase I/O time of the given application.
    pub fn io_time(&self, app: AppId) -> Option<f64> {
        self.report.app(app).map(|a| a.first_phase().io_time())
    }
}

/// A full comparison: stand-alone baselines plus one run per strategy.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// Stand-alone I/O time per application.
    pub alone: BTreeMap<AppId, f64>,
    /// One run per strategy, in the order requested.
    pub runs: Vec<StrategyRun>,
}

impl StrategyComparison {
    /// The run for a given strategy. Strategies compare structurally, so
    /// two `Delay` strategies with different bounds are distinct runs.
    pub fn run(&self, strategy: Strategy) -> Option<&StrategyRun> {
        self.runs.iter().find(|r| r.strategy == strategy)
    }

    /// Interference factor of `app` under `strategy`.
    pub fn factor(&self, strategy: Strategy, app: AppId) -> Option<f64> {
        let run = self.run(strategy)?;
        let io = run.io_time(app)?;
        let alone = self.alone.get(&app)?;
        Some(calciom::interference_factor(io, *alone))
    }

    /// Machine-wide metric value under `strategy`.
    pub fn metric(&self, strategy: Strategy, metric: EfficiencyMetric) -> Option<f64> {
        let run = self.run(strategy)?;
        Some(run.report.metric(metric, &self.alone))
    }

    /// Observations (procs, observed, alone) for `strategy`, e.g. to feed
    /// [`calciom::cpu_seconds_wasted_per_core`].
    pub fn observations(&self, strategy: Strategy) -> Option<Vec<AppObservation>> {
        let run = self.run(strategy)?;
        Some(run.report.observations(&self.alone))
    }
}

/// Measures each application's stand-alone I/O time on the given file
/// system, answering repeated requests from the process-wide
/// [`BaselineCache`](crate::BaselineCache).
pub fn alone_times(pfs: &PfsConfig, apps: &[AppConfig]) -> Result<BTreeMap<AppId, f64>, Error> {
    let mut alone = BTreeMap::new();
    for app in apps {
        alone.insert(app.id, alone_time_cached(app, pfs)?);
    }
    Ok(alone)
}

/// Runs the scenario once per strategy — concurrently, one session per
/// worker thread (see [`run_scenarios`]) — and collects the
/// comparison. Sessions are deterministic, so the parallel grid produces
/// the same reports a sequential loop would.
pub fn compare_strategies(
    pfs: &PfsConfig,
    apps: &[AppConfig],
    strategies: &[Strategy],
    granularity: Granularity,
    policy: DynamicPolicy,
) -> Result<StrategyComparison, Error> {
    let alone = alone_times(pfs, apps)?;
    let scenarios = strategies
        .iter()
        .map(|&strategy| {
            Ok(Scenario::builder(pfs.clone())
                .apps(apps.to_vec())
                .strategy(strategy)
                .granularity(granularity)
                .policy(policy)
                .build()?)
        })
        .collect::<Result<Vec<Scenario>, Error>>()?;
    let runs = strategies
        .iter()
        .zip(run_scenarios(&scenarios, 0)?)
        .map(|(&strategy, report)| StrategyRun { strategy, report })
        .collect();
    Ok(StrategyComparison { alone, runs })
}

/// Result of running one scenario under one named arbitration policy.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// The policy spec that was in force.
    pub spec: PolicySpec,
    /// The full session report (its
    /// [`policy_label`](SessionReport::policy_label) is the spec's text).
    pub report: SessionReport,
}

impl PolicyRun {
    /// Observed first-phase I/O time of the given application.
    pub fn io_time(&self, app: AppId) -> Option<f64> {
        self.report.app(app).map(|a| a.first_phase().io_time())
    }
}

/// A full policy comparison: stand-alone baselines plus one run per
/// [`PolicySpec`] — the policy-layer generalization of
/// [`StrategyComparison`], able to sweep schedules the [`Strategy`] enum
/// cannot express (`priority(w=cores)`, `srpf`, `rr(10s)`, …).
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Stand-alone I/O time per application.
    pub alone: BTreeMap<AppId, f64>,
    /// One run per spec, in the order requested.
    pub runs: Vec<PolicyRun>,
}

impl PolicyComparison {
    /// The run for a given spec. Specs compare structurally, so `rr(5s)`
    /// and `rr(10s)` are distinct runs.
    pub fn run(&self, spec: &PolicySpec) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| &r.spec == spec)
    }

    /// The run whose spec text equals `label` (e.g. `"delay(30s)"`).
    pub fn run_labelled(&self, label: &str) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| r.spec.to_text() == label)
    }

    /// Interference factor of `app` under `spec`.
    pub fn factor(&self, spec: &PolicySpec, app: AppId) -> Option<f64> {
        let run = self.run(spec)?;
        let io = run.io_time(app)?;
        let alone = self.alone.get(&app)?;
        Some(calciom::interference_factor(io, *alone))
    }

    /// Machine-wide metric value under `spec`.
    pub fn metric(&self, spec: &PolicySpec, metric: EfficiencyMetric) -> Option<f64> {
        let run = self.run(spec)?;
        Some(run.report.metric(metric, &self.alone))
    }

    /// Observations (procs, observed, alone) for `spec`, e.g. to feed
    /// [`calciom::cpu_seconds_wasted_per_core`].
    pub fn observations(&self, spec: &PolicySpec) -> Option<Vec<AppObservation>> {
        let run = self.run(spec)?;
        Some(run.report.observations(&self.alone))
    }
}

/// Runs the scenario once per policy spec — concurrently, one session
/// per worker thread (see [`run_scenarios`]) — and collects the
/// comparison. Every spec is resolved through the standard
/// [`calciom::PolicyRegistry`]; an unknown name or bad argument surfaces
/// as a typed configuration error before any simulation starts.
pub fn compare_policies(
    pfs: &PfsConfig,
    apps: &[AppConfig],
    specs: &[PolicySpec],
    granularity: Granularity,
    policy: DynamicPolicy,
) -> Result<PolicyComparison, Error> {
    let alone = alone_times(pfs, apps)?;
    let scenarios = specs
        .iter()
        .map(|spec| {
            Ok(Scenario::builder(pfs.clone())
                .apps(apps.to_vec())
                .arbitration(spec.clone())
                .granularity(granularity)
                .policy(policy)
                .build()?)
        })
        .collect::<Result<Vec<Scenario>, Error>>()?;
    let runs = specs
        .iter()
        .zip(run_scenarios(&scenarios, 0)?)
        .map(|(spec, report)| PolicyRun {
            spec: spec.clone(),
            report,
        })
        .collect();
    Ok(PolicyComparison { alone, runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::AccessPattern;

    const MB: f64 = 1.0e6;

    fn scenario() -> (PfsConfig, Vec<AppConfig>) {
        // A big application with a long strided I/O phase (many
        // collective-buffering rounds → many interruption points) and a
        // small one with very different I/O requirements arriving 2 s later
        // (the Fig. 9(a)/(b) situation).
        let pfs = PfsConfig::grid5000_rennes();
        let a = AppConfig::new(AppId(0), "A", 720, AccessPattern::strided(2.0 * MB, 8));
        let b = AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(8.0 * MB))
            .starting_at_secs(2.0);
        (pfs, vec![a, b])
    }

    #[test]
    fn comparison_covers_all_strategies_and_baselines() {
        let (pfs, apps) = scenario();
        let strategies = [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ];
        let cmp = compare_strategies(
            &pfs,
            &apps,
            &strategies,
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap();
        assert_eq!(cmp.runs.len(), 4);
        assert_eq!(cmp.alone.len(), 2);
        for s in strategies {
            assert!(cmp.run(s).is_some());
            assert!(cmp.factor(s, AppId(0)).unwrap() >= 1.0);
            assert!(cmp.metric(s, EfficiencyMetric::TotalIoTime).unwrap() > 0.0);
            assert_eq!(cmp.observations(s).unwrap().len(), 2);
        }
    }

    #[test]
    fn small_app_suffers_most_under_fcfs_and_least_under_interrupt() {
        // Fig. 9(b): when a small application arrives after a big one, FCFS
        // is the worst option for it and interruption the best.
        let (pfs, apps) = scenario();
        let cmp = compare_strategies(
            &pfs,
            &apps,
            &[
                Strategy::Interfere,
                Strategy::FcfsSerialize,
                Strategy::Interrupt,
            ],
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap();
        let b = AppId(1);
        let fcfs = cmp.factor(Strategy::FcfsSerialize, b).unwrap();
        let interrupt = cmp.factor(Strategy::Interrupt, b).unwrap();
        let interfere = cmp.factor(Strategy::Interfere, b).unwrap();
        assert!(
            interrupt < interfere && interfere < fcfs,
            "interrupt={interrupt} interfere={interfere} fcfs={fcfs}"
        );
    }

    #[test]
    fn delay_strategies_with_different_bounds_are_distinct_runs() {
        // The lookup is structural (`Strategy: PartialEq`), not label
        // based: two bounded-delay runs with different budgets must not
        // shadow each other.
        let (pfs, apps) = scenario();
        let short = Strategy::Delay { max_wait_secs: 1.0 };
        let long = Strategy::Delay {
            max_wait_secs: 30.0,
        };
        let cmp = compare_strategies(
            &pfs,
            &apps,
            &[short, long],
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap();
        let b = AppId(1);
        assert_eq!(cmp.run(short).unwrap().strategy, short);
        assert_eq!(cmp.run(long).unwrap().strategy, long);
        assert!(cmp.run(Strategy::Delay { max_wait_secs: 2.0 }).is_none());
        // The budgets genuinely differ: the long delay serializes B behind
        // A for longer than the short one.
        let io = |s: Strategy| cmp.run(s).unwrap().io_time(b).unwrap();
        assert!(io(long) >= io(short));
    }

    #[test]
    fn policy_comparison_mixes_legacy_and_extended_policies() {
        // The policy-keyed sweep runs built-in and enum-inexpressible
        // policies side by side on one scenario, one session per spec.
        let (pfs, apps) = scenario();
        let specs = [
            PolicySpec::new("interfering"),
            PolicySpec::new("fcfs"),
            PolicySpec::with_arg("priority", "w=cores"),
            PolicySpec::new("srpf"),
            PolicySpec::with_arg("rr", "2s"),
        ];
        let cmp = compare_policies(
            &pfs,
            &apps,
            &specs,
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap();
        assert_eq!(cmp.runs.len(), specs.len());
        for spec in &specs {
            let run = cmp.run(spec).unwrap();
            assert_eq!(run.report.policy_label, spec.to_text());
            assert_eq!(cmp.run_labelled(&spec.to_text()).unwrap().spec, *spec);
            assert!(cmp.factor(spec, AppId(0)).unwrap() >= 1.0);
            assert!(cmp.metric(spec, EfficiencyMetric::TotalIoTime).unwrap() > 0.0);
            assert_eq!(cmp.observations(spec).unwrap().len(), 2);
        }
        // Differently-parameterized specs are distinct runs.
        assert!(cmp.run(&PolicySpec::with_arg("rr", "9s")).is_none());
        // An unknown policy is a typed configuration error.
        let err = compare_policies(
            &pfs,
            &apps,
            &[PolicySpec::new("warp")],
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Config(calciom::ConfigError::Policy(_))
        ));
    }

    #[test]
    fn alone_times_are_positive_and_size_dependent() {
        let (pfs, apps) = scenario();
        let alone = alone_times(&pfs, &apps).unwrap();
        // The small application writes less data but is client-limited: its
        // stand-alone time is longer per byte; both must be positive.
        assert!(alone[&AppId(0)] > 0.0);
        assert!(alone[&AppId(1)] > 0.0);
    }
}
