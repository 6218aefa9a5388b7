//! Machine-level mixes: 64 applications share one parallel file system,
//! uncoordinated vs coordinated, with `T_alone` baselines served by the
//! shared cache of the sharded sweep runner.
//!
//! Run with `cargo run --release --example machine_mix`.

use calciom::{EfficiencyMetric, Error, SessionReport, Strategy};
use iobench::{run_scenarios_sharded, BaselineCache};
use workloads::{ConcurrencyDistribution, MachineMix};

fn main() -> Result<(), Error> {
    // A seeded 64-application mix: sizes from the Fig. 1(a) marginal,
    // randomized write volumes, periodic phases, start jitter. Same seed,
    // same mix — the experiment is reproducible.
    let mix = MachineMix {
        apps: 64,
        seed: 7,
        ..MachineMix::default()
    };

    // Section II premise, quantified for this very mix: how many
    // applications are in flight at once if nobody coordinates?
    let concurrency = ConcurrencyDistribution::from_trace(&mix.as_job_trace());
    println!(
        "mean concurrent applications (uncoordinated): {:.1}",
        concurrency.mean()
    );

    // The same mix under three strategies, one worker thread per
    // strategy, baselines shared through one cache.
    let strategies = [
        Strategy::Interfere,
        Strategy::FcfsSerialize,
        Strategy::Dynamic,
    ];
    let scenarios: Vec<_> = strategies.iter().map(|s| mix.scenario(*s)).collect();
    let cache = BaselineCache::new();
    let runs = run_scenarios_sharded(&scenarios, strategies.len(), &cache)?;

    let waste = |report: &SessionReport, alone: &std::collections::BTreeMap<_, _>| {
        report.metric(EfficiencyMetric::CpuSecondsWasted, alone) / 1e6
    };
    for (strategy, run) in strategies.iter().zip(&runs) {
        println!(
            "{:<16} makespan {:7.1}s   CPU·s wasted {:6.2} M   ({} kernel events, {} medium visits)",
            strategy.label(),
            run.report.makespan.as_secs(),
            waste(&run.report, &run.alone),
            run.work.kernel_events(),
            run.work.medium_visits(),
        );
    }
    println!(
        "baseline cache: {} distinct applications, {} hits / {} misses across shards",
        cache.len(),
        cache.hits(),
        cache.misses()
    );

    // The machine-wide story at N = 64: coordination beats interference.
    let interfering = waste(&runs[0].report, &runs[0].alone);
    let fcfs = waste(&runs[1].report, &runs[1].alone);
    assert!(
        fcfs <= interfering,
        "serialization should not waste more CPU than interference"
    );
    Ok(())
}
