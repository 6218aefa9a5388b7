//! The streaming observation API: simulation events and observers.
//!
//! [`Session::execute_with`](crate::Session::execute_with) narrates the
//! whole simulation as a typed, time-stamped stream of [`SimEvent`]s:
//! phase boundaries, coordination decisions taken by the
//! [`Arbiter`](crate::Arbiter) (grants, interruptions, bounded delays),
//! and the PFS transfer layer's starts/progress/completions. Anything
//! implementing [`SimObserver`] can subscribe:
//!
//! * [`NullObserver`] — the default; ignores everything and reports
//!   [`SimObserver::wants_progress`]` == false`, so the session skips even
//!   the *computation* of progress samples — observing nothing costs
//!   nothing;
//! * [`TraceRecorder`](crate::TraceRecorder) — records the stream into a
//!   replayable, serializable [`Trace`](crate::Trace);
//! * [`TimelineAggregator`](crate::TimelineAggregator) — derives per-app
//!   Gantt intervals and instantaneous-bandwidth series;
//! * [`ReportBuilder`] — folds the stream into the
//!   [`SessionReport`]; the session builds its own
//!   report this way, so the aggregate view and a recorded trace can never
//!   disagree: they are two folds of the same stream.
//!
//! ## Example: counting interruptions
//!
//! ```
//! use calciom::{Scenario, SimEvent, SimObserver, Strategy};
//! use calciom::{AccessPattern, AppConfig, AppId, Granularity, PfsConfig};
//! use simcore::SimTime;
//!
//! /// An observer that counts how often the arbiter preempted an access.
//! #[derive(Default)]
//! struct InterruptCounter {
//!     interruptions: u32,
//! }
//!
//! impl SimObserver for InterruptCounter {
//!     fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
//!         if matches!(event, SimEvent::Interrupted { .. }) {
//!             self.interruptions += 1;
//!         }
//!     }
//! }
//!
//! let scenario = Scenario::builder(PfsConfig::grid5000_rennes())
//!     .app(AppConfig::new(AppId(0), "big", 336, AccessPattern::strided(2.0e6, 8)))
//!     .app(AppConfig::new(AppId(1), "small", 48, AccessPattern::contiguous(8.0e6))
//!         .starting_at_secs(2.0))
//!     .strategy(Strategy::Interrupt)
//!     .granularity(Granularity::Round)
//!     .build()
//!     .unwrap();
//!
//! let mut counter = InterruptCounter::default();
//! let report = calciom::Session::new(&scenario)
//!     .unwrap()
//!     .execute_with(&mut counter)
//!     .unwrap();
//! assert!(counter.interruptions > 0, "the big writer was preempted");
//! assert_eq!(report.apps.len(), 2);
//! ```

use crate::scenario::Scenario;
use crate::session::{AppReport, PhaseResult, SessionReport};
use crate::strategy::Strategy;
use pfs::{AppId, TransferId};
use simcore::time::SimTime;
use std::collections::BTreeMap;

/// Why an application was granted access to the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantKind {
    /// Granted at request time (nobody was in the way, or the strategy
    /// tolerates concurrent access).
    Immediate,
    /// Granted after waiting in the arbiter's queue (FCFS / interrupt /
    /// dynamic serialization).
    AfterWait,
    /// The bounded-delay budget expired and the application proceeded,
    /// overlapping with the current accessor ([`Strategy::Delay`]).
    DelayElapsed,
}

impl GrantKind {
    /// Stable label used by the trace codec.
    pub fn label(&self) -> &'static str {
        match self {
            GrantKind::Immediate => "immediate",
            GrantKind::AfterWait => "after-wait",
            GrantKind::DelayElapsed => "delay-elapsed",
        }
    }

    /// Parses a label produced by [`GrantKind::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "immediate" => Some(GrantKind::Immediate),
            "after-wait" => Some(GrantKind::AfterWait),
            "delay-elapsed" => Some(GrantKind::DelayElapsed),
            _ => None,
        }
    }
}

/// One event of the simulation's observable stream.
///
/// Events are emitted in simulated-time order; several events may share a
/// time stamp (their relative order is the deterministic execution order
/// of the session loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// An application entered an I/O phase (at its requested start time).
    PhaseStarted {
        /// The application.
        app: AppId,
        /// 0-based phase index.
        phase: u32,
    },
    /// The application asked the arbiter for access to the file system.
    AccessRequested {
        /// The application.
        app: AppId,
    },
    /// The application was granted access and proceeds with its I/O.
    AccessGranted {
        /// The application.
        app: AppId,
        /// Strategy-specific detail: how the grant came about.
        grant: GrantKind,
    },
    /// The arbiter answered "wait, but at most this long" — the
    /// bounded-delay strategy's outcome.
    DelayBounded {
        /// The application.
        app: AppId,
        /// The wait budget, in seconds.
        max_wait_secs: f64,
    },
    /// The application yielded at a coordination point after an
    /// interruption request (its I/O is paused).
    Interrupted {
        /// The application.
        app: AppId,
    },
    /// A previously interrupted application was re-granted access and
    /// resumes its I/O.
    Resumed {
        /// The application.
        app: AppId,
    },
    /// A collective-buffering communication (shuffle) step began.
    CommStarted {
        /// The application.
        app: AppId,
        /// Duration of the shuffle step, in seconds.
        seconds: f64,
    },
    /// The in-flight communication step completed.
    CommCompleted {
        /// The application.
        app: AppId,
    },
    /// An atomic write was submitted to the parallel file system.
    TransferStarted {
        /// The owning application.
        app: AppId,
        /// PFS handle of the transfer.
        transfer: TransferId,
        /// Bytes the transfer will write.
        bytes: f64,
    },
    /// Periodic progress sample of an in-flight transfer (emitted at every
    /// event-loop step while an observer wants progress, capturing each
    /// piecewise-constant bandwidth plateau).
    TransferProgress {
        /// The owning application.
        app: AppId,
        /// PFS handle of the transfer.
        transfer: TransferId,
        /// Bytes written so far.
        transferred: f64,
        /// Current aggregate rate across all servers, in bytes/s.
        rate: f64,
    },
    /// The transfer wrote its last byte.
    TransferCompleted {
        /// The owning application.
        app: AppId,
        /// PFS handle of the transfer.
        transfer: TransferId,
        /// Bytes the transfer wrote.
        bytes: f64,
    },
    /// The application finished an I/O phase (all steps executed).
    PhaseFinished {
        /// The application.
        app: AppId,
        /// 0-based phase index.
        phase: u32,
        /// Bytes the phase wrote to the file system.
        bytes: f64,
    },
    /// The whole session completed.
    SessionEnded {
        /// Time at which the last application finished.
        makespan: SimTime,
        /// Coordination messages exchanged over the whole run.
        coordination_messages: u64,
    },
}

impl SimEvent {
    /// The application the event concerns, if any ([`SimEvent::SessionEnded`]
    /// is the only session-wide event).
    pub fn app(&self) -> Option<AppId> {
        match *self {
            SimEvent::PhaseStarted { app, .. }
            | SimEvent::AccessRequested { app }
            | SimEvent::AccessGranted { app, .. }
            | SimEvent::DelayBounded { app, .. }
            | SimEvent::Interrupted { app }
            | SimEvent::Resumed { app }
            | SimEvent::CommStarted { app, .. }
            | SimEvent::CommCompleted { app }
            | SimEvent::TransferStarted { app, .. }
            | SimEvent::TransferProgress { app, .. }
            | SimEvent::TransferCompleted { app, .. }
            | SimEvent::PhaseFinished { app, .. } => Some(app),
            SimEvent::SessionEnded { .. } => None,
        }
    }

    /// Stable kind label used by the trace codec and log output.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::PhaseStarted { .. } => "phase-started",
            SimEvent::AccessRequested { .. } => "access-requested",
            SimEvent::AccessGranted { .. } => "access-granted",
            SimEvent::DelayBounded { .. } => "delay-bounded",
            SimEvent::Interrupted { .. } => "interrupted",
            SimEvent::Resumed { .. } => "resumed",
            SimEvent::CommStarted { .. } => "comm-started",
            SimEvent::CommCompleted { .. } => "comm-completed",
            SimEvent::TransferStarted { .. } => "transfer-started",
            SimEvent::TransferProgress { .. } => "transfer-progress",
            SimEvent::TransferCompleted { .. } => "transfer-completed",
            SimEvent::PhaseFinished { .. } => "phase-finished",
            SimEvent::SessionEnded { .. } => "session-ended",
        }
    }
}

/// A consumer of the simulation's event stream.
///
/// Implementations receive every event, in emission order, with the
/// simulated time at which it happened. See the [module docs](self) for a
/// complete worked example and the shipped observers.
pub trait SimObserver {
    /// Called for every emitted event.
    fn on_event(&mut self, at: SimTime, event: &SimEvent);

    /// Whether the session should compute and emit
    /// [`SimEvent::TransferProgress`] samples. Sampling queries the fluid
    /// network at every event-loop step; observers that ignore progress
    /// (like [`NullObserver`]) opt out so the session skips the work
    /// entirely.
    fn wants_progress(&self) -> bool {
        true
    }
}

impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        (**self).on_event(at, event);
    }
    fn wants_progress(&self) -> bool {
        (**self).wants_progress()
    }
}

/// The do-nothing observer: the default of
/// [`Session::execute`](crate::Session::execute). Every callback is an
/// empty inline function
/// and [`SimObserver::wants_progress`] is `false`, so observing with it
/// compiles down to the unobserved session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    #[inline(always)]
    fn on_event(&mut self, _at: SimTime, _event: &SimEvent) {}

    #[inline(always)]
    fn wants_progress(&self) -> bool {
        false
    }
}

/// Static description of one application as seen by the observation layer:
/// the report fields that do not come from the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSeed {
    /// The application.
    pub app: AppId,
    /// Display name.
    pub name: String,
    /// Number of processes.
    pub procs: u32,
    /// Analytic stand-alone estimate for one phase, in seconds.
    pub alone_estimate_secs: f64,
}

impl AppSeed {
    /// Seeds for every application of a scenario, in scenario order.
    pub fn for_scenario(scenario: &Scenario) -> Vec<AppSeed> {
        scenario
            .apps
            .iter()
            .map(|a| AppSeed {
                app: a.id,
                name: a.name.clone(),
                procs: a.procs,
                alone_estimate_secs: a.estimate_alone_seconds(&scenario.pfs),
            })
            .collect()
    }
}

/// Per-application, per-phase accumulator of the report fold.
#[derive(Debug, Clone, Default)]
struct PhaseAccum {
    requested_start: Option<SimTime>,
    io_start: Option<SimTime>,
    comm_secs: f64,
    write_secs: f64,
    wait_secs: f64,
    wait_from: Option<SimTime>,
    write_from: BTreeMap<TransferId, SimTime>,
}

/// Folds the event stream into a [`SessionReport`].
///
/// This is how [`Session::execute_with`](crate::Session::execute_with)
/// itself produces its report — the aggregate is *derived* from the same
/// stream any other observer sees, so a recorded
/// [`Trace`](crate::Trace) replayed through a fresh `ReportBuilder`
/// reproduces the original report bit for bit.
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    strategy: Strategy,
    policy_label: String,
    seeds: Vec<AppSeed>,
    accums: BTreeMap<AppId, PhaseAccum>,
    results: BTreeMap<AppId, Vec<PhaseResult>>,
    makespan: SimTime,
    coordination_messages: u64,
}

impl ReportBuilder {
    /// A builder for the given scenario (strategy, policy label and
    /// per-app metadata are taken from it; everything else comes from the
    /// events).
    pub fn new(scenario: &Scenario) -> Self {
        ReportBuilder::seeded(
            scenario.strategy,
            scenario.policy_label(),
            AppSeed::for_scenario(scenario),
        )
    }

    /// A builder from explicit metadata — the entry point trace replay
    /// uses, where no `Scenario` is at hand.
    pub fn seeded(strategy: Strategy, policy_label: String, seeds: Vec<AppSeed>) -> Self {
        ReportBuilder {
            strategy,
            policy_label,
            seeds,
            accums: BTreeMap::new(),
            results: BTreeMap::new(),
            makespan: SimTime::ZERO,
            coordination_messages: 0,
        }
    }

    /// Finishes the fold and returns the report. Applications appear in
    /// seed (scenario) order.
    pub fn finish(self) -> SessionReport {
        let mut results = self.results;
        SessionReport {
            strategy: self.strategy,
            policy_label: self.policy_label,
            apps: self
                .seeds
                .into_iter()
                .map(|seed| AppReport {
                    app: seed.app,
                    name: seed.name,
                    procs: seed.procs,
                    alone_estimate_secs: seed.alone_estimate_secs,
                    phases: results.remove(&seed.app).unwrap_or_default(),
                })
                .collect(),
            coordination_messages: self.coordination_messages,
            makespan: self.makespan,
        }
    }

    fn accum(&mut self, app: AppId) -> &mut PhaseAccum {
        self.accums.entry(app).or_default()
    }
}

impl SimObserver for ReportBuilder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::PhaseStarted { app, .. } => {
                let acc = self.accum(app);
                *acc = PhaseAccum {
                    requested_start: Some(at),
                    ..PhaseAccum::default()
                };
            }
            SimEvent::AccessRequested { app } | SimEvent::Interrupted { app } => {
                self.accum(app).wait_from = Some(at);
            }
            SimEvent::AccessGranted { app, .. } | SimEvent::Resumed { app } => {
                let acc = self.accum(app);
                if let Some(from) = acc.wait_from.take() {
                    acc.wait_secs += at.saturating_since(from).as_secs();
                }
            }
            SimEvent::DelayBounded { .. } => {}
            SimEvent::CommStarted { app, seconds } => {
                let acc = self.accum(app);
                acc.io_start.get_or_insert(at);
                acc.comm_secs += seconds;
            }
            SimEvent::CommCompleted { .. } => {}
            SimEvent::TransferStarted { app, transfer, .. } => {
                let acc = self.accum(app);
                acc.io_start.get_or_insert(at);
                acc.write_from.insert(transfer, at);
            }
            SimEvent::TransferProgress { .. } => {}
            SimEvent::TransferCompleted { app, transfer, .. } => {
                let acc = self.accum(app);
                if let Some(from) = acc.write_from.remove(&transfer) {
                    acc.write_secs += at.saturating_since(from).as_secs();
                }
            }
            SimEvent::PhaseFinished { app, phase, bytes } => {
                // No shape assertions here: this fold also replays decoded
                // traces, whose event sequences are syntax-checked but not
                // semantically validated. A stream that genuinely came
                // from a session always nests phase events; anything else
                // gets a best-effort report rather than a panic.
                let acc = std::mem::take(self.accum(app));
                self.results.entry(app).or_default().push(PhaseResult {
                    app,
                    phase,
                    requested_start: acc.requested_start.unwrap_or(at),
                    io_start: acc.io_start.unwrap_or(at),
                    end: at,
                    bytes,
                    comm_seconds: acc.comm_secs,
                    write_seconds: acc.write_secs,
                    wait_seconds: acc.wait_secs,
                });
            }
            SimEvent::SessionEnded {
                makespan,
                coordination_messages,
            } => {
                self.makespan = makespan;
                self.coordination_messages = coordination_messages;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn null_observer_opts_out_of_progress() {
        let mut null = NullObserver;
        assert!(!null.wants_progress());
        // And forwarding through a mutable reference preserves the answer.
        let forwarded: &mut NullObserver = &mut null;
        assert!(!SimObserver::wants_progress(&forwarded));
        null.on_event(t(1.0), &SimEvent::AccessRequested { app: AppId(0) });
    }

    #[test]
    fn event_accessors_cover_every_variant() {
        let events = [
            SimEvent::PhaseStarted {
                app: AppId(1),
                phase: 0,
            },
            SimEvent::AccessRequested { app: AppId(1) },
            SimEvent::AccessGranted {
                app: AppId(1),
                grant: GrantKind::Immediate,
            },
            SimEvent::DelayBounded {
                app: AppId(1),
                max_wait_secs: 2.0,
            },
            SimEvent::Interrupted { app: AppId(1) },
            SimEvent::Resumed { app: AppId(1) },
            SimEvent::CommStarted {
                app: AppId(1),
                seconds: 0.5,
            },
            SimEvent::CommCompleted { app: AppId(1) },
            SimEvent::TransferStarted {
                app: AppId(1),
                transfer: TransferId(0),
                bytes: 1.0,
            },
            SimEvent::TransferProgress {
                app: AppId(1),
                transfer: TransferId(0),
                transferred: 0.5,
                rate: 1.0,
            },
            SimEvent::TransferCompleted {
                app: AppId(1),
                transfer: TransferId(0),
                bytes: 1.0,
            },
            SimEvent::PhaseFinished {
                app: AppId(1),
                phase: 0,
                bytes: 1.0,
            },
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for e in &events {
            assert_eq!(e.app(), Some(AppId(1)), "{}", e.kind());
            kinds.insert(e.kind());
        }
        let ended = SimEvent::SessionEnded {
            makespan: t(1.0),
            coordination_messages: 3,
        };
        assert_eq!(ended.app(), None);
        kinds.insert(ended.kind());
        assert_eq!(kinds.len(), 13, "kind labels are distinct");
    }

    #[test]
    fn grant_kind_labels_round_trip() {
        for kind in [
            GrantKind::Immediate,
            GrantKind::AfterWait,
            GrantKind::DelayElapsed,
        ] {
            assert_eq!(GrantKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(GrantKind::from_label("nope"), None);
    }

    #[test]
    fn report_builder_folds_a_minimal_stream() {
        let seeds = vec![AppSeed {
            app: AppId(0),
            name: "A".into(),
            procs: 8,
            alone_estimate_secs: 2.0,
        }];
        let mut builder = ReportBuilder::seeded(Strategy::FcfsSerialize, "fcfs".to_string(), seeds);
        let app = AppId(0);
        let tid = TransferId(0);
        builder.on_event(t(1.0), &SimEvent::PhaseStarted { app, phase: 0 });
        builder.on_event(t(1.0), &SimEvent::AccessRequested { app });
        builder.on_event(
            t(3.0),
            &SimEvent::AccessGranted {
                app,
                grant: GrantKind::AfterWait,
            },
        );
        builder.on_event(t(3.0), &SimEvent::CommStarted { app, seconds: 0.5 });
        builder.on_event(t(3.5), &SimEvent::CommCompleted { app });
        builder.on_event(
            t(3.5),
            &SimEvent::TransferStarted {
                app,
                transfer: tid,
                bytes: 100.0,
            },
        );
        builder.on_event(
            t(5.5),
            &SimEvent::TransferCompleted {
                app,
                transfer: tid,
                bytes: 100.0,
            },
        );
        builder.on_event(
            t(5.5),
            &SimEvent::PhaseFinished {
                app,
                phase: 0,
                bytes: 100.0,
            },
        );
        builder.on_event(
            t(5.5),
            &SimEvent::SessionEnded {
                makespan: t(5.5),
                coordination_messages: 7,
            },
        );
        let report = builder.finish();
        assert_eq!(report.strategy, Strategy::FcfsSerialize);
        assert_eq!(report.coordination_messages, 7);
        assert_eq!(report.makespan, t(5.5));
        let phase = report.apps[0].first_phase();
        assert_eq!(phase.requested_start, t(1.0));
        assert_eq!(phase.io_start, t(3.0));
        assert_eq!(phase.end, t(5.5));
        assert_eq!(phase.wait_seconds, 2.0);
        assert_eq!(phase.comm_seconds, 0.5);
        assert_eq!(phase.write_seconds, 2.0);
        assert_eq!(phase.bytes, 100.0);
    }

    #[test]
    fn report_builder_tolerates_apps_without_events() {
        let seeds = vec![AppSeed {
            app: AppId(3),
            name: "silent".into(),
            procs: 4,
            alone_estimate_secs: 1.0,
        }];
        let report =
            ReportBuilder::seeded(Strategy::Interfere, "interfering".to_string(), seeds).finish();
        assert_eq!(report.apps.len(), 1);
        assert!(report.apps[0].phases.is_empty());
        assert_eq!(report.makespan, SimTime::ZERO);
    }
}
