//! Parallel execution of experiment sweeps.
//!
//! A Δ-graph is a sweep of dozens of independent simulations (one per `dt`
//! value per strategy); running them on all available cores keeps the full
//! figure-reproduction suite fast. Two layers are provided:
//!
//! * [`parallel_map_owned`] — the one order-preserving, panic-propagating
//!   scoped-thread fan-out (one worker per contiguous chunk of the work
//!   list) — and [`parallel_map`], its by-reference form;
//! * [`run_scenarios`] and its traced and sharded variants — the sweep
//!   primitives. Every scenario is validated on the calling thread, so a
//!   misconfigured one fails the sweep before a single simulation starts;
//!   each session is then built and executed by [`Scenario::run_with`] on
//!   the worker thread that runs it. The simulation is deterministic, so
//!   the reports are bit-identical to a sequential run.

use crate::baseline::BaselineCache;
use calciom::{
    ClusterStats, Error, NullObserver, Scenario, SessionReport, Trace, TraceRecorder, Work,
};
use pfs::AppId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;

/// Applies `f` to every item of `items`, distributing the work over up to
/// `max_threads` worker threads (or the number of available cores if 0),
/// and returns the results in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_owned(items.iter().collect(), max_threads, f)
}

/// By-value variant of [`parallel_map`]: each item is *moved* into the
/// worker thread that processes it, so items need only be `Send`.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(max_threads, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }

    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let chunk = n.div_ceil(workers);

    thread::scope(|scope| {
        let mut remaining_items: &mut [Option<T>] = &mut items;
        let mut remaining_results: &mut [Option<R>] = &mut results;
        let f = &f;
        while !remaining_items.is_empty() {
            let take = chunk.min(remaining_items.len());
            let (item_chunk, rest_items) = remaining_items.split_at_mut(take);
            let (result_chunk, rest_results) = remaining_results.split_at_mut(take);
            remaining_items = rest_items;
            remaining_results = rest_results;
            scope.spawn(move || {
                for (slot, item) in result_chunk.iter_mut().zip(item_chunk) {
                    // simlint: allow(R4, disjoint split_at_mut chunks visit each item exactly once)
                    *slot = Some(f(item.take().expect("each item visited once")));
                }
            });
        }
    });

    results
        .into_iter()
        // simlint: allow(R4, scope joins every worker and each worker fills its whole chunk)
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Validates every scenario on the calling thread — the sweeps' "no
/// simulation starts if any scenario is misconfigured" contract.
fn validate_all(scenarios: &[Scenario]) -> Result<(), Error> {
    for scenario in scenarios {
        scenario.validate()?;
    }
    Ok(())
}

/// Runs a batch of independent scenarios concurrently and returns their
/// reports in input order (`max_threads` as in [`parallel_map`]; 0 means
/// all cores). A configuration error in *any* scenario is reported before
/// a single simulation starts.
pub fn run_scenarios(
    scenarios: &[Scenario],
    max_threads: usize,
) -> Result<Vec<SessionReport>, Error> {
    validate_all(scenarios)?;
    parallel_map_owned(scenarios.iter().collect(), max_threads, Scenario::run)
        .into_iter()
        .collect()
}

/// [`run_scenarios`] with observation: each worker records its session
/// with a [`TraceRecorder`] and returns the report *and* the recorded
/// [`Trace`]. Traces are deterministic like the reports — the recorded
/// stream is identical to what a sequential run would produce.
pub fn run_scenarios_traced(
    scenarios: &[Scenario],
    max_threads: usize,
) -> Result<Vec<(SessionReport, Trace)>, Error> {
    validate_all(scenarios)?;
    parallel_map_owned(scenarios.iter().collect(), max_threads, |scenario| {
        let mut recorder = TraceRecorder::for_scenario(scenario);
        let (report, ..) = scenario.run_with(&mut recorder)?;
        Ok((report, recorder.into_trace()))
    })
    .into_iter()
    .collect()
}

/// The outcome of one scenario of a sharded sweep: the report, the
/// `T_alone` baseline of every application (served through the sweep's
/// [`BaselineCache`]), and the [`Work`] the session did.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The session report.
    pub report: SessionReport,
    /// Stand-alone first-phase I/O time per application — the baselines
    /// machine-wide metrics need ([`SessionReport::metric`]).
    pub alone: BTreeMap<AppId, f64>,
    /// Kernel events and medium visits of the session (excludes baseline
    /// lookups) — the scale experiments' cost signal.
    pub work: Work,
    /// Hierarchical-arbitration message accounting, for scenarios that
    /// ran over a [`ClusterTransport`](calciom::ClusterTransport)
    /// (`scenario.cluster` set); `None` for flat runs.
    pub cluster: Option<ClusterStats>,
}

/// [`run_scenarios`] for machine-scale sweeps: the scenario list is split
/// into `shards` contiguous batches, each batch executes on its own worker
/// thread, and every run also resolves its applications' `T_alone`
/// baselines through `cache`. The materialized form of
/// [`run_scenarios_sharded_streamed`].
///
/// Passing [`BaselineCache::global`] (or any one cache) shares baselines
/// across all shards — concurrent lookups of the same `(app, pfs)` pair
/// are safe and keep the hit/miss counters consistent (see
/// [`BaselineCache`]'s concurrency contract). Passing a fresh cache per
/// call isolates sweeps instead. Every field is deterministic either
/// way.
pub fn run_scenarios_sharded(
    scenarios: &[Scenario],
    shards: usize,
    cache: &BaselineCache,
) -> Result<Vec<ShardedRun>, Error> {
    let mut runs = Vec::with_capacity(scenarios.len());
    run_scenarios_sharded_streamed(scenarios, shards, cache, |run| runs.push(run))?;
    Ok(runs)
}

/// [`run_scenarios_sharded`] with incremental delivery: results are
/// handed to `sink` **in input order**, each as soon as it (and every
/// earlier one) has finished, instead of materializing the full result
/// vector. This is what lets `calciom-serve` stream a machine-scale
/// `/v1/batch` response while later shards are still simulating.
///
/// Every scenario is validated up front, so a configuration error in
/// *any* scenario returns `Err` before `sink` sees a single result. A
/// runtime [`Error`] aborts the stream: `sink` has then been called for
/// exactly the runs before the first failing one, in input order, and
/// that run's error is returned. Each delivered [`ShardedRun`] is
/// bit-identical to a sequential run of the same scenario.
pub fn run_scenarios_sharded_streamed(
    scenarios: &[Scenario],
    shards: usize,
    cache: &BaselineCache,
    mut sink: impl FnMut(ShardedRun),
) -> Result<(), Error> {
    validate_all(scenarios)?;
    let (tx, rx) = mpsc::channel::<(usize, Result<ShardedRun, Error>)>();
    // Set once the receiver has stopped listening (a run failed): the
    // remaining runs are skipped rather than simulated for nobody.
    let abandoned = AtomicBool::new(false);
    thread::scope(|scope| {
        let abandoned = &abandoned;
        // The fan-out runs off this thread, so the sink (which need not
        // be `Send`) is fed here while later shards are still simulating.
        scope.spawn(move || {
            let indexed: Vec<(usize, &Scenario)> = scenarios.iter().enumerate().collect();
            parallel_map_owned(indexed, shards, |(index, scenario)| {
                if abandoned.load(Ordering::Relaxed) {
                    return;
                }
                if tx.send((index, run_sharded(scenario, cache))).is_err() {
                    abandoned.store(true, Ordering::Relaxed);
                }
            });
        });

        let mut done: BTreeMap<usize, Result<ShardedRun, Error>> = BTreeMap::new();
        let mut next = 0usize;
        for (index, result) in rx {
            done.insert(index, result);
            while let Some(result) = done.remove(&next) {
                sink(result?);
                next += 1;
            }
        }
        Ok(())
    })
}

/// Runs one scenario of a sharded sweep and resolves its baselines.
fn run_sharded(scenario: &Scenario, cache: &BaselineCache) -> Result<ShardedRun, Error> {
    let (report, cluster, work) = scenario.run_with(&mut NullObserver)?;
    let mut alone = BTreeMap::new();
    for app in &scenario.apps {
        alone.insert(app.id, cache.alone_time(app, &scenario.pfs)?);
    }
    Ok(ShardedRun {
        report,
        alone,
        work,
        cluster,
    })
}

fn worker_count(max_threads: usize, items: usize) -> usize {
    let workers = if max_threads == 0 {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        max_threads
    };
    workers.min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::{Session, Strategy};
    use mpiio::{AccessPattern, AppConfig};
    use pfs::{AppId, PfsConfig};
    use std::sync::Mutex;

    #[test]
    fn preserves_order_and_values() {
        let input: Vec<u64> = (0..257).collect();
        let out = parallel_map(input.clone(), 0, |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_with_one_thread_and_empty_input() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| *x);
        assert!(empty.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(vec![10, 20], 16, |x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn panics_propagate() {
        parallel_map(vec![1, 2, 3], 2, |x| {
            if *x == 2 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    fn owned_map_moves_non_clone_values_and_preserves_order() {
        struct NotClone(u64);
        let input: Vec<NotClone> = (0..100).map(NotClone).collect();
        let out = parallel_map_owned(input, 4, |x| x.0 * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        let empty: Vec<u8> = parallel_map_owned(Vec::<NotClone>::new(), 4, |x| x.0 as u8);
        assert!(empty.is_empty());
    }

    fn scenario_grid() -> Vec<Scenario> {
        let pattern = AccessPattern::contiguous(8.0e6);
        [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ]
        .into_iter()
        .map(|strategy| {
            Scenario::builder(PfsConfig::grid5000_rennes())
                .app(AppConfig::new(AppId(0), "A", 336, pattern))
                .app(AppConfig::new(AppId(1), "B", 48, pattern).starting_at_secs(1.0))
                .strategy(strategy)
                .build()
                .unwrap()
        })
        .collect()
    }

    #[test]
    fn parallel_scenario_reports_are_bit_identical_to_sequential() {
        let scenarios = scenario_grid();
        let sequential: Vec<_> = scenarios.iter().map(|s| s.run().unwrap()).collect();
        let parallel = run_scenarios(&scenarios, 4).unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn run_scenarios_uses_at_least_two_threads() {
        // Record which threads execute the sessions: with 4 scenarios and
        // 4 requested workers, at least two distinct worker threads must
        // participate.
        let scenarios: Vec<Scenario> = scenario_grid().into_iter().chain(scenario_grid()).collect();
        // A Vec of distinct ids, not a hash set: `ThreadId` is not `Ord`,
        // and a linear scan over a handful of workers is plenty.
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let reports: Result<Vec<_>, Error> =
            parallel_map_owned(scenarios.iter().collect(), 4, |scenario: &Scenario| {
                let id = std::thread::current().id();
                let mut ids = seen.lock().unwrap();
                if !ids.contains(&id) {
                    ids.push(id);
                }
                drop(ids);
                scenario.run()
            })
            .into_iter()
            .collect();
        assert_eq!(reports.unwrap().len(), scenarios.len());
        assert!(
            seen.lock().unwrap().len() >= 2,
            "expected the sweep to fan out over at least two threads"
        );
    }

    #[test]
    fn run_scenarios_surfaces_configuration_errors_before_running() {
        let mut scenarios = scenario_grid();
        scenarios[2].apps.clear();
        let err = run_scenarios(&scenarios, 2).unwrap_err();
        assert_eq!(err, Error::Config(calciom::ConfigError::NoApplications));
    }

    #[test]
    fn sharded_sweep_matches_sequential_and_fills_baselines() {
        let scenarios = scenario_grid();
        let cache = BaselineCache::new();
        let runs = run_scenarios_sharded(&scenarios, 2, &cache).unwrap();
        assert_eq!(runs.len(), scenarios.len());

        for (scenario, run) in scenarios.iter().zip(&runs) {
            assert_eq!(
                run.report,
                scenario.run().unwrap(),
                "reports stay deterministic"
            );
            // Every application got a baseline, served through the cache.
            assert_eq!(run.alone.len(), scenario.apps.len());
            for app in &scenario.apps {
                let expected = Session::run_alone(app.clone(), scenario.pfs.clone()).unwrap();
                assert_eq!(run.alone[&app.id], expected);
            }
        }
        // The grid reuses two applications across four strategies: the
        // shared cache collapses 8 baseline requests onto 2 simulations
        // (give or take races between the two shards on first touch).
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert!(cache.misses() >= 2 && cache.misses() <= 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_sweep_dispatches_cluster_scenarios_to_the_arbiter_tree() {
        use calciom::{ClusterSpec, MachineSpec};
        use simcore::SimDuration;

        // A 2-machine, 1-slot tree alongside flat scenarios in one sweep:
        // the flat runs carry no cluster stats, the tree run reports its
        // root traffic, and the tree run matches `Scenario::run`'s
        // dispatch bit for bit.
        let mut scenarios = scenario_grid();
        let mut clustered = scenarios[1].clone();
        clustered.cluster = Some(ClusterSpec::new(
            1,
            vec![
                MachineSpec {
                    latency: SimDuration::from_millis(1.0),
                    apps: vec![AppId(0)],
                },
                MachineSpec {
                    latency: SimDuration::from_millis(1.0),
                    apps: vec![AppId(1)],
                },
            ],
        ));
        scenarios.push(clustered.clone());

        let cache = BaselineCache::new();
        let runs = run_scenarios_sharded(&scenarios, 2, &cache).unwrap();
        assert!(runs[..4].iter().all(|r| r.cluster.is_none()));
        let tree = runs[4].cluster.as_ref().expect("cluster stats recorded");
        assert_eq!(tree.machines, 2);
        assert!(tree.escalations > 0, "two contending machines escalate");
        assert_eq!(runs[4].report, clustered.run().unwrap());
        assert_eq!(runs[4].alone.len(), 2);
    }

    #[test]
    fn sharded_sweep_surfaces_configuration_errors_before_running() {
        let mut scenarios = scenario_grid();
        scenarios[1].apps.clear();
        let cache = BaselineCache::new();
        let err = run_scenarios_sharded(&scenarios, 2, &cache).unwrap_err();
        assert_eq!(err, Error::Config(calciom::ConfigError::NoApplications));
        assert!(cache.is_empty(), "nothing runs when building fails");
    }
}
