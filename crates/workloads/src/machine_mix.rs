//! Machine-level application mixes: N concurrent applications on one PFS.
//!
//! The paper's evaluation coordinates 2–4 applications, but its premise —
//! a parallel file system shares bandwidth per request stream, so
//! coordination pays off machine-wide — only becomes a *systems* question
//! when dozens to hundreds of applications contend. [`MachineMix`] turns
//! the Section II workload analysis into runnable scenarios: it draws N
//! applications with seeded-random sizes (the Fig. 1(a)
//! [`SIZE_BUCKETS`] marginal), per-process
//! write volumes, periodic phase structure, and start jitter, and packages
//! them as a [`Scenario`] ready for any [`Strategy`].
//!
//! Generation is deterministic per seed, so a mix is a reproducible
//! experiment input: the same configuration always yields the same
//! scenario, the same simulation, the same report.
//!
//! ```
//! use workloads::machine_mix::MachineMix;
//! use calciom::Strategy;
//!
//! let mix = MachineMix {
//!     apps: 32,
//!     seed: 7,
//!     ..MachineMix::default()
//! };
//! let scenario = mix.scenario(Strategy::FcfsSerialize);
//! assert_eq!(scenario.apps.len(), 32);
//! let report = scenario.run().unwrap();
//! assert_eq!(report.apps.len(), 32);
//! ```

use crate::synthetic::SIZE_BUCKETS;
use crate::trace::{Job, JobTrace};
use calciom::{PolicySpec, Scenario, SharingModel, Strategy};
use mpiio::{AccessPattern, AppConfig};
use pfs::{AppId, PfsConfig};
use simcore::time::SimDuration;
use simcore::DetRng;

/// Generator of N-application machine mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineMix {
    /// Number of applications.
    pub apps: usize,
    /// RNG seed; the whole mix is a pure function of the configuration.
    pub seed: u64,
    /// The shared file system.
    pub pfs: PfsConfig,
    /// Cap on the per-application process count (the Fig. 1(a) size
    /// buckets reach 131 072 cores; a mix usually caps lower so no single
    /// job dwarfs the file system).
    pub max_procs: u32,
    /// Per-process write volume range in bytes, sampled log-uniformly.
    pub bytes_per_proc: (f64, f64),
    /// Every application runs `1..=max_phases` periodic I/O phases.
    pub max_phases: u32,
    /// Phase period range in seconds, sampled uniformly.
    pub period_secs: (f64, f64),
    /// Applications start uniformly at random inside this window
    /// (seconds) — the paper's `dt` offset generalized to N arrivals.
    pub start_window_secs: f64,
    /// The bandwidth-sharing medium the scenarios run on. The default
    /// exact max-min solver re-rates a whole component per flow mutation;
    /// machine-scale mixes (tens of thousands of applications) switch to
    /// [`SharingModel::FairFast`] for `O(log n)` mutations.
    pub medium: SharingModel,
}

impl Default for MachineMix {
    /// Grid'5000 Rennes sizing, with one machine-scale adjustment: the
    /// locality-breakage penalty γ is disabled (γ = 1). The penalty
    /// compounds per concurrent request stream (`server_bw × γ^(k−1)`) and
    /// is calibrated on the paper's 2–4-application experiments; at
    /// machine-level concurrency it collapses server bandwidth to zero
    /// (0.85³¹ ≈ 0.006 at N = 32) and the uncoordinated schedule stops
    /// being simulable. Request-stream-proportional sharing — the paper's
    /// primary interference mechanism — is unaffected. Callers studying
    /// locality effects at small N can put γ back via the `pfs` field.
    fn default() -> Self {
        MachineMix {
            apps: 32,
            seed: 2014,
            pfs: PfsConfig {
                interference_gamma: 1.0,
                ..PfsConfig::grid5000_rennes()
            },
            max_procs: 2048,
            bytes_per_proc: (1.0e6, 8.0e6),
            max_phases: 2,
            period_secs: (20.0, 60.0),
            start_window_secs: 30.0,
            medium: SharingModel::default(),
        }
    }
}

impl MachineMix {
    /// The generated applications, in id order. Deterministic per
    /// configuration.
    pub fn applications(&self) -> Vec<AppConfig> {
        let mut rng = DetRng::new(self.seed);
        let weights: Vec<f64> = SIZE_BUCKETS.iter().map(|&(_, w)| w).collect();
        let (lo, hi) = self.bytes_per_proc;
        assert!(lo > 0.0 && hi >= lo, "bytes_per_proc must be positive");

        (0..self.apps)
            .map(|i| {
                // Job size: the Fig. 1(a) categorical, capped for the mix.
                let procs = SIZE_BUCKETS[rng.weighted_index(&weights)]
                    .0
                    .min(self.max_procs)
                    .max(1);
                // Per-process volume: log-uniform across the range.
                let bytes = lo * (hi / lo).powf(rng.next_f64());
                let phases = 1 + rng.below(u64::from(self.max_phases.max(1))) as u32;
                let period = rng.uniform(self.period_secs.0, self.period_secs.1);
                let start = rng.uniform(0.0, self.start_window_secs);

                AppConfig::new(
                    AppId(i),
                    format!("mix-{i}"),
                    procs,
                    AccessPattern::contiguous(bytes),
                )
                .starting_at_secs(start)
                .with_periodic_phases(phases, SimDuration::from_secs(period))
            })
            .collect()
    }

    /// Packages the mix as a runnable [`Scenario`] under the given
    /// strategy. The horizon is sized from the analytic stand-alone
    /// estimates so even a fully serialized N-application schedule fits.
    pub fn scenario(&self, strategy: Strategy) -> Scenario {
        let mut scenario = self.base_scenario();
        scenario.strategy = strategy;
        scenario
    }

    /// Packages the mix as a runnable [`Scenario`] under a *named*
    /// arbitration policy ([`PolicySpec`]) — the machine-scale testbed
    /// for schedules the [`Strategy`] enum cannot express (the
    /// `fig14_policies` experiment feeds these). The applications and
    /// horizon are identical to [`MachineMix::scenario`]'s, so a policy
    /// comparison varies nothing but the arbitration.
    pub fn scenario_with_policy(&self, spec: PolicySpec) -> Scenario {
        let mut scenario = self.base_scenario();
        scenario.arbitration = Some(spec);
        scenario
    }

    fn base_scenario(&self) -> Scenario {
        let apps = self.applications();
        let total_alone: f64 = apps
            .iter()
            .map(|a| a.estimate_alone_seconds(&self.pfs) * a.phases.max(1) as f64)
            .sum();
        let longest_period: f64 = apps
            .iter()
            .map(|a| a.phase_interval.as_secs() * a.phases.max(1) as f64)
            .fold(0.0, f64::max);
        let horizon = self.start_window_secs + longest_period + total_alone * 4.0 + 3600.0;
        let mut scenario = Scenario::new(self.pfs.clone(), apps);
        scenario.horizon = SimDuration::from_secs(horizon);
        scenario.medium = self.medium;
        scenario
    }

    /// The mix viewed as a scheduler trace (arrival = start jitter,
    /// run time = analytic stand-alone I/O estimate), so the Section II
    /// concurrency analysis
    /// ([`ConcurrencyDistribution`](crate::ConcurrencyDistribution),
    /// [`probability_concurrent_io`](crate::probability_concurrent_io))
    /// applies to generated mixes as well as to archived traces.
    pub fn as_job_trace(&self) -> JobTrace {
        let jobs = self
            .applications()
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let run_time =
                    (a.estimate_alone_seconds(&self.pfs) * a.phases.max(1) as f64).max(1.0);
                Job {
                    id: i as u64,
                    submit: a.start.as_secs(),
                    start: a.start.as_secs(),
                    run_time,
                    procs: a.procs,
                }
            })
            .collect();
        JobTrace::new(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::ConcurrencyDistribution;
    use pfs::PfsConfig;

    fn mix(apps: usize, seed: u64) -> MachineMix {
        MachineMix {
            apps,
            seed,
            ..MachineMix::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = mix(64, 1).applications();
        let b = mix(64, 1).applications();
        assert_eq!(a, b);
        let c = mix(64, 2).applications();
        assert_ne!(a, c);
    }

    #[test]
    fn generates_valid_scenarios_at_scale() {
        let scenario = mix(256, 3).scenario(Strategy::Interfere);
        assert_eq!(scenario.apps.len(), 256);
        scenario.validate().expect("mix scenarios validate");
        // Ids are unique and in order; sizes respect the cap.
        for (i, app) in scenario.apps.iter().enumerate() {
            assert_eq!(app.id, AppId(i));
            assert!(app.procs >= 1 && app.procs <= 2048);
            assert!(app.phases >= 1 && app.phases <= 2);
            assert!(app.start.as_secs() < 30.0);
        }
    }

    #[test]
    fn draws_sizes_from_the_fig1_buckets() {
        let apps = mix(512, 4).applications();
        let valid: std::collections::BTreeSet<u32> =
            SIZE_BUCKETS.iter().map(|(s, _)| (*s).min(2048)).collect();
        assert!(apps.iter().all(|a| valid.contains(&a.procs)));
        // The cap folds the heavy tail onto 2048, so at least the capped
        // bucket and a couple of smaller ones must appear.
        let distinct: std::collections::BTreeSet<u32> = apps.iter().map(|a| a.procs).collect();
        assert!(distinct.len() >= 3, "degenerate size draw: {distinct:?}");
    }

    #[test]
    fn small_mix_runs_under_coordination() {
        let mix = mix(8, 5);
        let interfering = mix.scenario(Strategy::Interfere).run().unwrap();
        let fcfs = mix.scenario(Strategy::FcfsSerialize).run().unwrap();
        assert_eq!(interfering.apps.len(), 8);
        assert_eq!(fcfs.apps.len(), 8);
        assert!(fcfs.coordination_messages > 0);
        // Serialization trades concurrency for per-app protection: the
        // machine-wide CPU waste must not explode versus interference.
        let alone = std::collections::BTreeMap::new();
        let waste = |r: &calciom::SessionReport| {
            r.metric(calciom::EfficiencyMetric::CpuSecondsWasted, &alone)
        };
        assert!(waste(&fcfs).is_finite() && waste(&interfering).is_finite());
    }

    #[test]
    fn policy_scenarios_share_the_applications_and_run() {
        let mix = mix(8, 5);
        let by_strategy = mix.scenario(Strategy::FcfsSerialize);
        let by_policy = mix.scenario_with_policy(PolicySpec::with_arg("rr", "5s"));
        assert_eq!(
            by_strategy.apps, by_policy.apps,
            "only the arbitration may differ"
        );
        assert_eq!(by_strategy.horizon, by_policy.horizon);
        assert_eq!(by_policy.policy_label(), "rr(5s)");
        let report = by_policy.run().unwrap();
        assert_eq!(report.apps.len(), 8);
        assert_eq!(report.policy_label, "rr(5s)");
        assert!(report.apps.iter().all(|a| !a.phases.is_empty()));
    }

    #[test]
    fn mix_runs_on_the_virtual_time_medium() {
        // The machine-scale medium drives the same coordination machinery;
        // on the mix's near-equal-share topology its schedule lands within
        // a few percent of the exact solver's.
        let base = mix(8, 5);
        let fair = MachineMix {
            medium: SharingModel::FairFast,
            ..base.clone()
        };
        let scenario = fair.scenario(Strategy::FcfsSerialize);
        assert!(
            scenario.to_text().contains("medium = fair-fast"),
            "the medium must survive the scenario codec"
        );
        let exact = base.scenario(Strategy::FcfsSerialize).run().unwrap();
        let quick = scenario.run().unwrap();
        assert_eq!(quick.apps.len(), 8);
        let (a, b) = (exact.makespan.as_secs(), quick.makespan.as_secs());
        assert!(
            (a - b).abs() / a < 0.05,
            "makespans diverged: max-min {a} vs fair-fast {b}"
        );
    }

    #[test]
    fn job_trace_bridge_feeds_the_concurrency_analysis() {
        let mix = mix(128, 6);
        let trace = mix.as_job_trace();
        assert_eq!(trace.len(), 128);
        let dist = ConcurrencyDistribution::from_trace(&trace);
        // A 30 s start window with ~second-long jobs keeps several in
        // flight at once — the Section II premise holds for the mix.
        assert!(dist.mean() > 1.0, "mean concurrency {}", dist.mean());
    }

    #[test]
    fn scenario_horizon_fits_a_fully_serialized_schedule() {
        let mix = mix(96, 7);
        let scenario = mix.scenario(Strategy::FcfsSerialize);
        let total_alone: f64 = scenario
            .apps
            .iter()
            .map(|a| a.estimate_alone_seconds(&mix.pfs) * a.phases as f64)
            .sum();
        assert!(scenario.horizon.as_secs() > total_alone * 2.0);
    }

    #[test]
    fn default_pfs_is_rennes_without_the_compounding_locality_penalty() {
        let pfs = MachineMix::default().pfs;
        assert_eq!(pfs.interference_gamma, 1.0, "γ compounds per stream");
        assert_eq!(
            PfsConfig {
                interference_gamma: PfsConfig::grid5000_rennes().interference_gamma,
                ..pfs
            },
            PfsConfig::grid5000_rennes()
        );
    }
}
