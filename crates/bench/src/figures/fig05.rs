//! Figure 5 — instantaneous-bandwidth timeline of a two-app contention
//! window.
//!
//! The paper's evaluation argues about *when* each application holds the
//! file system, not just about aggregate write times. This experiment
//! makes that temporal story visible: a big strided writer (many
//! collective-buffering rounds, hence many interruption points) is joined
//! two seconds in by a small contiguous writer, and the same workload is
//! played under no coordination, FCFS serialization, and interruption. For
//! each strategy the session is recorded through a [`TraceRecorder`] and
//! the instantaneous
//! per-application write bandwidth (a [`TimelineAggregator`] fold of the
//! same stream) is sampled onto a common grid — the bandwidth-vs-time
//! curves that show serialization moving B's I/O *after* A's and
//! interruption punching a hole into A's plateau.

use super::{FigureOutput, MB};
use crate::experiment::{Experiment, ExperimentOutput, Flag, RunOptions};
use calciom::{
    AccessPattern, AppConfig, AppId, Error, Granularity, PfsConfig, Scenario, Session,
    SessionReport, Strategy, Timeline, TimelineAggregator, Trace, TraceRecorder,
};
use iobench::{FigureData, Series};
use simcore::SimTime;

/// Registry entry for this figure.
pub struct Fig05;

impl Experiment for Fig05 {
    fn name(&self) -> &'static str {
        "fig05_timeline"
    }

    fn description(&self) -> &'static str {
        "Timeline of instantaneous bandwidth under no-coordination / FCFS / interrupt (Fig. 5)"
    }

    fn run(&self, quick: bool) -> Result<FigureOutput, Error> {
        Ok(self.run_with(&RunOptions::new(quick))?.figure)
    }

    fn flags(&self) -> &'static [Flag] {
        &[Flag::Trace, Flag::Timeline]
    }

    fn run_with(&self, opts: &RunOptions) -> Result<ExperimentOutput, Error> {
        run_with(opts)
    }
}

/// The contended workload: a big strided writer joined by a small
/// contiguous one after `dt` = 2 s.
fn scenario(strategy: Strategy) -> Result<Scenario, Error> {
    let a = AppConfig::new(AppId(0), "App A", 720, AccessPattern::strided(2.0 * MB, 8));
    let b = AppConfig::new(AppId(1), "App B", 48, AccessPattern::contiguous(8.0 * MB))
        .starting_at_secs(2.0);
    Ok(Scenario::builder(PfsConfig::grid5000_rennes())
        .apps([a, b])
        .strategy(strategy)
        .granularity(Granularity::Round)
        .build()?)
}

/// One observed run: report, recorded trace, derived timeline. The
/// timeline is deliberately built by *replaying* the trace — the recorded
/// stream, not session internals, is the source of truth.
fn observed_run(strategy: Strategy) -> Result<(SessionReport, Trace, Timeline), Error> {
    let scenario = scenario(strategy)?;
    let mut recorder = TraceRecorder::for_scenario(&scenario);
    let report = Session::new(&scenario)?.execute_with(&mut recorder)?;
    let trace = recorder.into_trace();
    debug_assert_eq!(trace.replay_report(), report, "replay must agree");
    let mut aggregator = TimelineAggregator::new();
    trace.replay_into(&mut aggregator);
    Ok((report, trace, aggregator.finish()))
}

/// Runs the experiment.
pub fn run(quick: bool) -> Result<FigureOutput, Error> {
    Ok(run_with(&RunOptions::new(quick))?.figure)
}

/// Runs the experiment, attaching traces/timelines as requested.
pub fn run_with(opts: &RunOptions) -> Result<ExperimentOutput, Error> {
    let strategies = [
        Strategy::Interfere,
        Strategy::FcfsSerialize,
        Strategy::Interrupt,
    ];

    let mut runs = Vec::new();
    for strategy in strategies {
        runs.push((strategy, observed_run(strategy)?));
    }

    let horizon = runs
        .iter()
        .map(|(_, (report, _, _))| report.makespan)
        .max()
        .unwrap_or(SimTime::ZERO);
    let step = if opts.quick { 0.5 } else { 0.1 };

    let mut out = FigureOutput::new(
        "Figure 5 — instantaneous write bandwidth under contention (A joined by B at dt = 2 s)",
    );
    for (strategy, (report, _, timeline)) in &runs {
        let mut fig = FigureData::new(
            format!("Figure 5 — {}", strategy.label()),
            "t (sec)",
            "write bandwidth (MB/s)",
        );
        for app in [AppId(0), AppId(1)] {
            let name = &report.app(app).expect("both apps ran").name;
            let mut series = Series::new(name.clone());
            let mut t = 0.0;
            while t <= horizon.as_secs() + 1e-9 {
                let rate = timeline.bandwidth_at(app, SimTime::from_secs(t));
                series.push((t * 1e6).round() / 1e6, rate / MB);
                t += step;
            }
            fig.add_series(series);
        }
        out.figures.push(fig);
        out.notes.push(format!(
            "{}: makespan {:.2}s; A wrote {:.2}s, waited {:.2}s, interrupted {:.2}s; \
             B wrote {:.2}s, waited {:.2}s",
            strategy.label(),
            report.makespan.as_secs(),
            timeline.activity_seconds(AppId(0), calciom::Activity::Writing),
            timeline.activity_seconds(AppId(0), calciom::Activity::Waiting),
            timeline.activity_seconds(AppId(0), calciom::Activity::Interrupted),
            timeline.activity_seconds(AppId(1), calciom::Activity::Writing),
            timeline.activity_seconds(AppId(1), calciom::Activity::Waiting),
        ));
    }

    let mut output = ExperimentOutput::figure_only(out);
    for (strategy, (_, trace, timeline)) in runs {
        if opts.trace {
            output.traces.push((strategy.label().to_string(), trace));
        }
        if opts.timeline {
            output
                .timelines
                .push((strategy.label().to_string(), timeline));
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::Activity;

    #[test]
    fn timelines_tell_the_three_strategy_stories() {
        let (_, _, interfere) = observed_run(Strategy::Interfere).unwrap();
        let (_, _, fcfs) = observed_run(Strategy::FcfsSerialize).unwrap();
        let (_, _, interrupt) = observed_run(Strategy::Interrupt).unwrap();
        let a = AppId(0);
        let b = AppId(1);

        // Uncoordinated: both write concurrently shortly after B arrives.
        let t3 = SimTime::from_secs(3.0);
        assert!(interfere.bandwidth_at(a, t3) > 0.0);
        assert!(interfere.bandwidth_at(b, t3) > 0.0);

        // FCFS: B queues behind A — no overlap at t = 3 s.
        assert!(fcfs.bandwidth_at(a, t3) > 0.0);
        assert_eq!(fcfs.bandwidth_at(b, t3), 0.0);
        assert!(fcfs.activity_seconds(b, Activity::Waiting) > 1.0);

        // Interrupt: A's plateau gets a hole while B writes.
        assert!(interrupt.activity_seconds(a, Activity::Interrupted) > 0.0);
    }

    #[test]
    fn figure_covers_both_apps_under_every_strategy() {
        let out = run(true).unwrap();
        assert_eq!(out.figures.len(), 3);
        for fig in &out.figures {
            let a = fig.series("App A").unwrap();
            let b = fig.series("App B").unwrap();
            assert!(a.max_y().unwrap() > 0.0);
            assert!(b.max_y().unwrap() > 0.0);
            assert_eq!(a.points.len(), b.points.len());
        }
        assert_eq!(out.notes.len(), 3);
    }
}
