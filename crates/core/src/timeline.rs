//! Gantt and instantaneous-bandwidth views of a session.
//!
//! The [`TimelineAggregator`] is a [`SimObserver`] that folds the event
//! stream into a [`Timeline`]: per-application Gantt intervals (waiting /
//! interrupted / communicating / writing) and a per-application
//! instantaneous-bandwidth step function sampled from
//! [`SimEvent::TransferProgress`]. It can observe a live
//! [`Session::execute_with`](crate::Session::execute_with) run or be fed
//! after the fact from a recorded trace via
//! [`Trace::replay_into`](crate::Trace::replay_into) — both produce the
//! same timeline, because both consume the same stream.

use crate::observe::{SimEvent, SimObserver};
use pfs::AppId;
use simcore::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What an application was doing over a Gantt interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Activity {
    /// Blocked before its first grant of the phase (arbiter queue or
    /// bounded delay).
    Waiting,
    /// Preempted mid-phase by the interruption strategy.
    Interrupted,
    /// A collective-buffering communication step in flight.
    Comm,
    /// A write transfer in flight.
    Writing,
}

impl Activity {
    /// Stable label used in rendered timelines.
    pub fn label(&self) -> &'static str {
        match self {
            Activity::Waiting => "waiting",
            Activity::Interrupted => "interrupted",
            Activity::Comm => "comm",
            Activity::Writing => "writing",
        }
    }
}

/// One bar of the Gantt chart: `app` did `activity` from `start` to `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanttInterval {
    /// The application.
    pub app: AppId,
    /// What it was doing.
    pub activity: Activity,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

impl GanttInterval {
    /// Length of the interval in seconds.
    pub fn seconds(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs()
    }
}

/// One sample of an application's instantaneous write bandwidth: the rate
/// holds from [`BandwidthPoint::time`] until the next sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Sample time.
    pub time: SimTime,
    /// Aggregate write rate across all servers, in bytes/s.
    pub rate: f64,
}

/// The derived timeline of one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Gantt intervals, in closing order.
    pub intervals: Vec<GanttInterval>,
    /// Per-application bandwidth step functions (consecutive duplicate
    /// rates are merged).
    pub bandwidth: BTreeMap<AppId, Vec<BandwidthPoint>>,
    /// Time at which the session ended.
    pub makespan: SimTime,
}

impl Timeline {
    /// The Gantt intervals of one application, in closing order.
    pub fn app_intervals(&self, app: AppId) -> impl Iterator<Item = &GanttInterval> {
        self.intervals.iter().filter(move |i| i.app == app)
    }

    /// Total seconds `app` spent in `activity` (0 when it never did).
    pub fn activity_seconds(&self, app: AppId, activity: Activity) -> f64 {
        // fold, not sum: an empty f64 `sum()` is -0.0, which would leak
        // a "-0.00s" into rendered reports.
        self.app_intervals(app)
            .filter(|i| i.activity == activity)
            .fold(0.0, |acc, i| acc + i.seconds())
    }

    /// Instantaneous write bandwidth of `app` at time `t` (step function:
    /// the most recent sample at or before `t`; 0 before the first
    /// sample).
    pub fn bandwidth_at(&self, app: AppId, t: SimTime) -> f64 {
        let Some(points) = self.bandwidth.get(&app) else {
            return 0.0;
        };
        match points.partition_point(|p| p.time <= t) {
            0 => 0.0,
            n => points[n - 1].rate,
        }
    }

    /// Applications appearing in the timeline, in id order.
    pub fn apps(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self.intervals.iter().map(|i| i.app).collect();
        apps.extend(self.bandwidth.keys().copied());
        apps.sort_unstable();
        apps.dedup();
        apps
    }

    /// Renders a compact plain-text view: per-application activity totals
    /// followed by the Gantt bars (capped per application to keep output
    /// bounded for long strided runs).
    pub fn render_text(&self) -> String {
        const MAX_BARS: usize = 12;
        let mut out = String::new();
        let _ = writeln!(out, "timeline (makespan {:.3}s)", self.makespan.as_secs());
        for app in self.apps() {
            let totals: Vec<String> = [
                Activity::Waiting,
                Activity::Interrupted,
                Activity::Comm,
                Activity::Writing,
            ]
            .iter()
            .map(|&a| format!("{} {:.3}s", a.label(), self.activity_seconds(app, a)))
            .collect();
            let _ = writeln!(out, "{app}: {}", totals.join(", "));
            let bars: Vec<&GanttInterval> = self.app_intervals(app).collect();
            for bar in bars.iter().take(MAX_BARS) {
                let _ = writeln!(
                    out,
                    "  [{:>9.3}s – {:>9.3}s] {}",
                    bar.start.as_secs(),
                    bar.end.as_secs(),
                    bar.activity.label()
                );
            }
            if bars.len() > MAX_BARS {
                let _ = writeln!(out, "  … {} more intervals", bars.len() - MAX_BARS);
            }
            let samples = self.bandwidth.get(&app).map(Vec::len).unwrap_or(0);
            let _ = writeln!(out, "  bandwidth samples: {samples}");
        }
        out
    }
}

/// Observer deriving a [`Timeline`] from the event stream.
#[derive(Debug, Clone, Default)]
pub struct TimelineAggregator {
    open: BTreeMap<AppId, (Activity, SimTime)>,
    timeline: Timeline,
}

impl TimelineAggregator {
    /// A fresh aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes aggregation and returns the timeline. Intervals still open
    /// (a session aborted mid-run) are closed at the last seen time.
    pub fn finish(mut self) -> Timeline {
        let at = self.timeline.makespan;
        let open = std::mem::take(&mut self.open);
        for (app, (activity, start)) in open {
            self.close(app, activity, start, at);
        }
        self.timeline
    }

    fn open(&mut self, app: AppId, activity: Activity, at: SimTime) {
        if let Some((prev, start)) = self.open.insert(app, (activity, at)) {
            // Defensive: a new bar implicitly closes the previous one.
            self.close(app, prev, start, at);
        }
    }

    fn close_current(&mut self, app: AppId, at: SimTime) {
        if let Some((activity, start)) = self.open.remove(&app) {
            self.close(app, activity, start, at);
        }
    }

    fn close(&mut self, app: AppId, activity: Activity, start: SimTime, end: SimTime) {
        if end > start {
            self.timeline.intervals.push(GanttInterval {
                app,
                activity,
                start,
                end,
            });
        }
    }

    fn sample(&mut self, app: AppId, at: SimTime, rate: f64) {
        let points = self.timeline.bandwidth.entry(app).or_default();
        match points.last() {
            // Same plateau: nothing new to record.
            Some(last) if last.rate == rate => return,
            // Same instant, new rate: the later sample wins.
            Some(last) if last.time == at => {
                points.pop();
            }
            _ => {}
        }
        // Re-check after a pop: if the rate now matches the previous
        // plateau, that plateau simply continues.
        if points.last().map(|p| p.rate == rate).unwrap_or(false) {
            return;
        }
        points.push(BandwidthPoint { time: at, rate });
    }
}

impl SimObserver for TimelineAggregator {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        if at > self.timeline.makespan {
            self.timeline.makespan = at;
        }
        match *event {
            SimEvent::AccessRequested { app } => self.open(app, Activity::Waiting, at),
            SimEvent::Interrupted { app } => self.open(app, Activity::Interrupted, at),
            SimEvent::AccessGranted { app, .. } | SimEvent::Resumed { app } => {
                self.close_current(app, at)
            }
            SimEvent::CommStarted { app, .. } => self.open(app, Activity::Comm, at),
            SimEvent::CommCompleted { app } => self.close_current(app, at),
            SimEvent::TransferStarted { app, .. } => self.open(app, Activity::Writing, at),
            SimEvent::TransferCompleted { app, .. } => {
                self.close_current(app, at);
                self.sample(app, at, 0.0);
            }
            SimEvent::TransferProgress { app, rate, .. } => self.sample(app, at, rate),
            SimEvent::SessionEnded { makespan, .. } => {
                self.timeline.makespan = makespan;
            }
            SimEvent::PhaseStarted { .. }
            | SimEvent::PhaseFinished { .. }
            | SimEvent::DelayBounded { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::session::Session;
    use crate::strategy::Strategy;
    use crate::trace::TraceRecorder;
    use mpiio::{AccessPattern, AppConfig};
    use pfs::PfsConfig;

    const MB: f64 = 1.0e6;

    fn scenario(strategy: Strategy) -> Scenario {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "A",
                336,
                AccessPattern::strided(2.0 * MB, 8),
            ))
            .app(
                AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(8.0 * MB))
                    .starting_at_secs(2.0),
            )
            .strategy(strategy)
            .build()
            .unwrap()
    }

    fn timeline(strategy: Strategy) -> Timeline {
        let scenario = scenario(strategy);
        let mut agg = TimelineAggregator::new();
        Session::new(&scenario)
            .unwrap()
            .execute_with(&mut agg)
            .unwrap();
        agg.finish()
    }

    #[test]
    fn fcfs_timeline_shows_b_waiting_then_writing() {
        let tl = timeline(Strategy::FcfsSerialize);
        let b = AppId(1);
        assert!(tl.activity_seconds(b, Activity::Waiting) > 1.0, "B queued");
        assert!(tl.activity_seconds(b, Activity::Writing) > 0.0);
        // A was never preempted under FCFS.
        assert_eq!(tl.activity_seconds(AppId(0), Activity::Interrupted), 0.0);
        // Bars are well-formed and bounded by the makespan.
        for bar in &tl.intervals {
            assert!(bar.start < bar.end);
            assert!(bar.end <= tl.makespan);
        }
    }

    #[test]
    fn interrupt_timeline_preempts_the_big_writer() {
        let tl = timeline(Strategy::Interrupt);
        let a = AppId(0);
        assert!(
            tl.activity_seconds(a, Activity::Interrupted) > 0.0,
            "A must show an interrupted bar"
        );
        // While A is interrupted its bandwidth is zero and B's is positive.
        let bar = tl
            .app_intervals(a)
            .find(|i| i.activity == Activity::Interrupted)
            .copied()
            .unwrap();
        let mid = SimTime::from_ticks((bar.start.ticks() + bar.end.ticks()) / 2);
        assert_eq!(tl.bandwidth_at(a, mid), 0.0);
        assert!(tl.bandwidth_at(AppId(1), mid) > 0.0);
    }

    #[test]
    fn bandwidth_step_function_is_queryable() {
        let tl = timeline(Strategy::Interfere);
        let a = AppId(0);
        assert_eq!(
            tl.bandwidth_at(a, SimTime::ZERO),
            0.0,
            "before first sample"
        );
        let points = &tl.bandwidth[&a];
        assert!(!points.is_empty());
        // Consecutive samples never repeat a rate (plateaus are merged).
        assert!(points.windows(2).all(|w| w[0].rate != w[1].rate));
        // The last sample of a finished app is the zero plateau.
        assert_eq!(points.last().unwrap().rate, 0.0);
        assert_eq!(tl.bandwidth_at(a, tl.makespan), 0.0);
    }

    #[test]
    fn replaying_a_trace_builds_the_same_timeline() {
        let scenario = scenario(Strategy::Interrupt);
        let mut recorder = TraceRecorder::for_scenario(&scenario);
        let mut live = TimelineAggregator::new();
        // Observe live and record simultaneously via two runs (the
        // simulation is deterministic, so the streams are identical).
        Session::new(&scenario)
            .unwrap()
            .execute_with(&mut live)
            .unwrap();
        Session::new(&scenario)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        let mut replayed = TimelineAggregator::new();
        recorder.into_trace().replay_into(&mut replayed);
        assert_eq!(replayed.finish(), live.finish());
    }

    #[test]
    fn render_text_is_compact_and_labelled() {
        let tl = timeline(Strategy::FcfsSerialize);
        let text = tl.render_text();
        assert!(text.contains("app0"));
        assert!(text.contains("app1"));
        assert!(text.contains("waiting"));
        assert!(text.contains("writing"));
        assert!(text.lines().count() < 60, "rendering stays bounded");
    }

    #[test]
    fn apps_and_defaults_behave() {
        let tl = Timeline::default();
        assert!(tl.apps().is_empty());
        assert_eq!(tl.bandwidth_at(AppId(0), SimTime::ZERO), 0.0);
        assert!(tl.render_text().contains("timeline"));
    }
}
