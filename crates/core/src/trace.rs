//! Replayable, serializable execution traces.
//!
//! A [`Trace`] is the complete record of one session's observable event
//! stream (see [`SimEvent`]) plus the small amount of static metadata the
//! report needs (strategy, per-application name/procs/alone-estimate). It
//! is produced by a [`TraceRecorder`] attached to
//! [`Session::execute_with`](crate::Session::execute_with) and round-trips
//! through a plain-text codec in the same `key = value` style as the
//! scenario codec ([`Trace::to_text`] /
//! [`Trace::from_text`]).
//!
//! Because the [`SessionReport`] is itself a fold of
//! the event stream (see [`ReportBuilder`]),
//! **replaying a trace reproduces the originating report bit for bit**:
//!
//! ```
//! use calciom::{Scenario, Session, Trace, TraceRecorder, Strategy};
//! use calciom::{AccessPattern, AppConfig, AppId, PfsConfig};
//!
//! let scenario = Scenario::builder(PfsConfig::grid5000_rennes())
//!     .app(AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0e6)))
//!     .app(AppConfig::new(AppId(1), "B", 336, AccessPattern::contiguous(16.0e6))
//!         .starting_at_secs(2.0))
//!     .strategy(Strategy::FcfsSerialize)
//!     .build()
//!     .unwrap();
//!
//! let mut recorder = TraceRecorder::for_scenario(&scenario);
//! let report = Session::new(&scenario).unwrap().execute_with(&mut recorder).unwrap();
//!
//! let trace = recorder.into_trace();
//! let decoded = Trace::from_text(&trace.to_text()).unwrap();
//! assert_eq!(decoded.replay_report(), report);
//! ```

use crate::arbitration::PolicySpec;
use crate::error::TraceParseError;
use crate::observe::{AppSeed, GrantKind, ReportBuilder, SimEvent, SimObserver};
use crate::scenario::{self, invalid, parse_num, reject_leftovers, take, Scenario};
use crate::session::SessionReport;
use crate::strategy::Strategy;
use pfs::{AppId, TransferId};
use simcore::observe::{EventLog, Stamped};
use simcore::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Header line of the textual trace encoding.
const HEADER: &str = "calciom-trace v1";

/// The recorded event stream of one session, with the metadata needed to
/// replay it into a [`SessionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Strategy that was in force.
    pub strategy: Strategy,
    /// The named arbitration policy in force, when the session ran one
    /// ([`Scenario::arbitration`]); `None` for legacy strategy runs —
    /// whose text encoding is then byte-identical to the
    /// pre-policy-layer format (the `kernel_golden` hashes pin this).
    pub policy: Option<PolicySpec>,
    /// Per-application metadata, in scenario order.
    pub apps: Vec<AppSeed>,
    /// The events, in emission order.
    pub events: Vec<Stamped<SimEvent>>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Streams the recorded events through any observer, in emission
    /// order. This is the replay primitive: feed a fresh
    /// [`ReportBuilder`] to re-derive the report, or a
    /// [`TimelineAggregator`](crate::TimelineAggregator) to build Gantt
    /// and bandwidth views after the fact.
    pub fn replay_into<O: SimObserver>(&self, observer: &mut O) {
        for e in &self.events {
            observer.on_event(e.time, &e.event);
        }
    }

    /// Re-derives the [`SessionReport`] of the recorded session. The
    /// simulation's own report is folded from the same stream, so this
    /// reproduces it bit for bit.
    pub fn replay_report(&self) -> SessionReport {
        let label = match &self.policy {
            Some(spec) => spec.to_text(),
            None => self.strategy.label(),
        };
        let mut builder = ReportBuilder::seeded(self.strategy, label, self.apps.clone());
        self.replay_into(&mut builder);
        builder.finish()
    }

    /// Serializes the trace to the plain-text encoding (same conventions
    /// as the [`Scenario`] codec: a header line,
    /// `[section]`s of `key = value` pairs, `#` comments; events are one
    /// `<tick> <kind> <args…>` record per line inside `[events]`).
    ///
    /// Floating-point fields use Rust's shortest round-trip
    /// representation, so [`Trace::from_text`] reconstructs exact values.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        let _ = writeln!(
            out,
            "strategy = {}",
            scenario::strategy_to_text(self.strategy)
        );
        // Optional key: absent for legacy strategy runs, keeping their
        // encoding byte-identical to the pre-policy-layer format.
        if let Some(spec) = &self.policy {
            let _ = writeln!(out, "policy = {}", spec.to_text());
        }
        for app in &self.apps {
            out.push_str("\n[app]\n");
            let _ = writeln!(out, "id = {}", app.app.0);
            let _ = writeln!(out, "name = {}", scenario::quote(&app.name));
            let _ = writeln!(out, "procs = {}", app.procs);
            let _ = writeln!(out, "alone_estimate_secs = {:?}", app.alone_estimate_secs);
        }
        out.push_str("\n[events]\n");
        for e in &self.events {
            let _ = write!(out, "{} {}", e.time.ticks(), e.event.kind());
            match e.event {
                SimEvent::PhaseStarted { app, phase } => {
                    let _ = write!(out, " {} {}", app.0, phase);
                }
                SimEvent::AccessRequested { app }
                | SimEvent::Interrupted { app }
                | SimEvent::Resumed { app }
                | SimEvent::CommCompleted { app } => {
                    let _ = write!(out, " {}", app.0);
                }
                SimEvent::AccessGranted { app, grant } => {
                    let _ = write!(out, " {} {}", app.0, grant.label());
                }
                SimEvent::DelayBounded { app, max_wait_secs } => {
                    let _ = write!(out, " {} {max_wait_secs:?}", app.0);
                }
                SimEvent::CommStarted { app, seconds } => {
                    let _ = write!(out, " {} {seconds:?}", app.0);
                }
                SimEvent::TransferStarted {
                    app,
                    transfer,
                    bytes,
                }
                | SimEvent::TransferCompleted {
                    app,
                    transfer,
                    bytes,
                } => {
                    let _ = write!(out, " {} {} {bytes:?}", app.0, transfer.0);
                }
                SimEvent::TransferProgress {
                    app,
                    transfer,
                    transferred,
                    rate,
                } => {
                    let _ = write!(out, " {} {} {transferred:?} {rate:?}", app.0, transfer.0);
                }
                SimEvent::PhaseFinished { app, phase, bytes } => {
                    let _ = write!(out, " {} {} {bytes:?}", app.0, phase);
                }
                SimEvent::SessionEnded {
                    makespan,
                    coordination_messages,
                } => {
                    let _ = write!(out, " {} {}", makespan.ticks(), coordination_messages);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the encoding produced by [`Trace::to_text`].
    pub fn from_text(text: &str) -> Result<Trace, TraceParseError> {
        #[derive(PartialEq, Clone, Copy)]
        enum Section {
            Top,
            App,
            Events,
        }

        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == HEADER => {}
            _ => return Err(TraceParseError::BadHeader),
        }

        let mut section = Section::Top;
        let mut top: BTreeMap<String, String> = BTreeMap::new();
        let mut apps: Vec<BTreeMap<String, String>> = Vec::new();
        let mut events: Vec<Stamped<SimEvent>> = Vec::new();
        for (lineno, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name {
                    "app" => {
                        apps.push(BTreeMap::new());
                        Section::App
                    }
                    "events" => Section::Events,
                    other => return Err(TraceParseError::UnknownSection(other.to_string())),
                };
                continue;
            }
            if section == Section::Events {
                events.push(parse_event(line, lineno + 1)?);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(TraceParseError::Malformed { line: lineno + 1 })?;
            let map = match section {
                Section::Top => &mut top,
                // simlint: allow(R4, section only becomes App when a header pushed an entry)
                Section::App => apps.last_mut().expect("entered [app] section"),
                // simlint: allow(R4, the Events arm continues before reaching the key-value path)
                Section::Events => unreachable!("handled above"),
            };
            let key = key.trim().to_string();
            if map.insert(key.clone(), value.trim().to_string()).is_some() {
                return Err(TraceParseError::DuplicateKey(key));
            }
        }

        let strategy = {
            let v = take(&mut top, "strategy")?;
            scenario::strategy_from_text(&v).map_err(|_| invalid("strategy", &v))?
        };
        let policy = top
            .remove("policy")
            .map(|v| PolicySpec::from_text(&v).map_err(|_| invalid("policy", &v)))
            .transpose()?;
        reject_leftovers(top)?;
        let apps = apps
            .into_iter()
            .map(|mut map| {
                let seed = AppSeed {
                    app: AppId(parse_num(&mut map, "id")?),
                    name: {
                        let v = take(&mut map, "name")?;
                        scenario::unquote(&v).map_err(|_| invalid("name", &v))?
                    },
                    procs: parse_num(&mut map, "procs")?,
                    alone_estimate_secs: parse_num(&mut map, "alone_estimate_secs")?,
                };
                reject_leftovers(map)?;
                Ok(seed)
            })
            .collect::<Result<Vec<_>, TraceParseError>>()?;
        Ok(Trace {
            strategy,
            policy,
            apps,
            events,
        })
    }
}

fn parse_event(line: &str, lineno: usize) -> Result<Stamped<SimEvent>, TraceParseError> {
    let bad = || TraceParseError::BadEvent { line: lineno };
    let mut tokens = line.split_whitespace();
    let time = SimTime::from_ticks(tokens.next().ok_or_else(bad)?.parse().map_err(|_| bad())?);
    let kind = tokens.next().ok_or_else(bad)?;
    let rest: Vec<&str> = tokens.collect();

    fn num<T: std::str::FromStr>(token: &str, lineno: usize) -> Result<T, TraceParseError> {
        token
            .parse()
            .map_err(|_| TraceParseError::BadEvent { line: lineno })
    }
    let app = |token: &str| -> Result<AppId, TraceParseError> { Ok(AppId(num(token, lineno)?)) };

    let event = match (kind, rest.as_slice()) {
        ("phase-started", [a, phase]) => SimEvent::PhaseStarted {
            app: app(a)?,
            phase: num(phase, lineno)?,
        },
        ("access-requested", [a]) => SimEvent::AccessRequested { app: app(a)? },
        ("access-granted", [a, grant]) => SimEvent::AccessGranted {
            app: app(a)?,
            grant: GrantKind::from_label(grant).ok_or_else(bad)?,
        },
        ("delay-bounded", [a, secs]) => SimEvent::DelayBounded {
            app: app(a)?,
            max_wait_secs: num(secs, lineno)?,
        },
        ("interrupted", [a]) => SimEvent::Interrupted { app: app(a)? },
        ("resumed", [a]) => SimEvent::Resumed { app: app(a)? },
        ("comm-started", [a, secs]) => SimEvent::CommStarted {
            app: app(a)?,
            seconds: num(secs, lineno)?,
        },
        ("comm-completed", [a]) => SimEvent::CommCompleted { app: app(a)? },
        ("transfer-started", [a, tid, bytes]) => SimEvent::TransferStarted {
            app: app(a)?,
            transfer: TransferId(num(tid, lineno)?),
            bytes: num(bytes, lineno)?,
        },
        ("transfer-progress", [a, tid, transferred, rate]) => SimEvent::TransferProgress {
            app: app(a)?,
            transfer: TransferId(num(tid, lineno)?),
            transferred: num(transferred, lineno)?,
            rate: num(rate, lineno)?,
        },
        ("transfer-completed", [a, tid, bytes]) => SimEvent::TransferCompleted {
            app: app(a)?,
            transfer: TransferId(num(tid, lineno)?),
            bytes: num(bytes, lineno)?,
        },
        ("phase-finished", [a, phase, bytes]) => SimEvent::PhaseFinished {
            app: app(a)?,
            phase: num(phase, lineno)?,
            bytes: num(bytes, lineno)?,
        },
        ("session-ended", [makespan, messages]) => SimEvent::SessionEnded {
            makespan: SimTime::from_ticks(num(makespan, lineno)?),
            coordination_messages: num(messages, lineno)?,
        },
        (
            "phase-started" | "access-requested" | "access-granted" | "delay-bounded"
            | "interrupted" | "resumed" | "comm-started" | "comm-completed" | "transfer-started"
            | "transfer-progress" | "transfer-completed" | "phase-finished" | "session-ended",
            _,
        ) => return Err(bad()),
        (other, _) => {
            return Err(TraceParseError::UnknownEvent {
                line: lineno,
                kind: other.to_string(),
            })
        }
    };
    Ok(Stamped::new(time, event))
}

impl scenario::CodecError for TraceParseError {
    fn missing_key(key: &'static str) -> Self {
        TraceParseError::MissingKey(key)
    }
    fn invalid_value(key: &str, value: &str) -> Self {
        TraceParseError::InvalidValue {
            key: key.to_string(),
            value: value.to_string(),
        }
    }
    fn unknown_key(key: String) -> Self {
        TraceParseError::UnknownKey(key)
    }
}

/// An observer that records the full event stream into a [`Trace`].
///
/// Create it from the scenario about to run (the recorder captures the
/// replay metadata up front), pass it to
/// [`Session::execute_with`](crate::Session::execute_with), then take the
/// trace out:
///
/// see the [module docs](self) for a complete example.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    strategy: Strategy,
    policy: Option<PolicySpec>,
    apps: Vec<AppSeed>,
    log: EventLog<SimEvent>,
}

impl TraceRecorder {
    /// A recorder for a run of the given scenario.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        TraceRecorder {
            strategy: scenario.strategy,
            policy: scenario.arbitration.clone(),
            apps: AppSeed::for_scenario(scenario),
            log: EventLog::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True while nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Consumes the recorder and returns the trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            strategy: self.strategy,
            policy: self.policy,
            apps: self.apps,
            events: self.log.into_events(),
        }
    }

    /// A snapshot of the trace recorded so far.
    pub fn trace(&self) -> Trace {
        self.clone().into_trace()
    }
}

impl SimObserver for TraceRecorder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.log.push(at, *event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use mpiio::{AccessPattern, AppConfig};
    use pfs::PfsConfig;

    const MB: f64 = 1.0e6;

    fn scenario(strategy: Strategy) -> Scenario {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "App A",
                336,
                AccessPattern::strided(2.0 * MB, 8),
            ))
            .app(
                AppConfig::new(AppId(1), "App B", 48, AccessPattern::contiguous(8.0 * MB))
                    .starting_at_secs(2.0),
            )
            .strategy(strategy)
            .build()
            .unwrap()
    }

    fn record(scenario: &Scenario) -> (SessionReport, Trace) {
        let mut recorder = TraceRecorder::for_scenario(scenario);
        let report = Session::new(scenario)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        (report, recorder.into_trace())
    }

    #[test]
    fn recorded_trace_replays_the_report_bit_for_bit() {
        for strategy in [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
            Strategy::Delay { max_wait_secs: 1.5 },
        ] {
            let scenario = scenario(strategy);
            let (report, trace) = record(&scenario);
            assert!(!trace.is_empty());
            assert_eq!(
                trace.replay_report(),
                report,
                "{strategy:?}: replay must reproduce the report"
            );
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let scenario = scenario(Strategy::Interrupt);
        let (report, trace) = record(&scenario);
        let text = trace.to_text();
        let decoded = Trace::from_text(&text).unwrap();
        assert_eq!(decoded, trace, "decoded trace differs");
        // Encoding is stable…
        assert_eq!(decoded.to_text(), text);
        // …and the decoded trace still replays the exact report.
        assert_eq!(decoded.replay_report(), report);
    }

    #[test]
    fn policy_runs_record_their_spec_and_round_trip() {
        // A named-policy session's trace carries the spec, survives the
        // codec, and replays to the exact report — while a legacy run's
        // trace has no `policy` line at all (golden-hash compatibility).
        let mut s = scenario(Strategy::Interfere);
        s.arbitration = Some(PolicySpec::with_arg("rr", "1s"));
        let (report, trace) = record(&s);
        assert_eq!(trace.policy, s.arbitration);
        let text = trace.to_text();
        assert!(text.contains("policy = rr(1s)"));
        let decoded = Trace::from_text(&text).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.replay_report(), report);
        assert_eq!(report.policy_label, "rr(1s)");

        let (_, legacy) = record(&scenario(Strategy::FcfsSerialize));
        assert_eq!(legacy.policy, None);
        assert!(!legacy.to_text().contains("policy ="));

        // A malformed policy line is rejected.
        let broken = text.replace("policy = rr(1s)", "policy = rr(1s");
        assert!(matches!(
            Trace::from_text(&broken),
            Err(TraceParseError::InvalidValue { .. })
        ));
    }

    #[test]
    fn recording_does_not_change_the_report() {
        let scenario = scenario(Strategy::FcfsSerialize);
        let unobserved = scenario.run().unwrap();
        let (observed, _) = record(&scenario);
        assert_eq!(observed, unobserved);
    }

    #[test]
    fn trace_contains_the_interesting_event_kinds() {
        let (_, trace) = record(&scenario(Strategy::Interrupt));
        let kinds: std::collections::BTreeSet<&str> =
            trace.events.iter().map(|e| e.event.kind()).collect();
        for expected in [
            "phase-started",
            "access-requested",
            "access-granted",
            "transfer-started",
            "transfer-progress",
            "transfer-completed",
            "phase-finished",
            "session-ended",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // The small app preempts the big one under Interrupt.
        assert!(kinds.contains("interrupted"));
        assert!(kinds.contains("resumed"));
        // Events are stamped in non-decreasing time order.
        assert!(trace.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn delay_bound_and_grants_survive_the_codec() {
        let (_, trace) = record(&scenario(Strategy::Delay { max_wait_secs: 1.5 }));
        let decoded = Trace::from_text(&trace.to_text()).unwrap();
        let bounded = decoded.events.iter().find_map(|e| match e.event {
            SimEvent::DelayBounded { max_wait_secs, .. } => Some(max_wait_secs),
            _ => None,
        });
        assert_eq!(bounded, Some(1.5));
        assert!(decoded.events.iter().any(|e| matches!(
            e.event,
            SimEvent::AccessGranted {
                grant: GrantKind::DelayElapsed,
                ..
            }
        )));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert_eq!(
            Trace::from_text("nonsense"),
            Err(TraceParseError::BadHeader)
        );
        let (_, trace) = record(&scenario(Strategy::FcfsSerialize));
        let text = trace.to_text();
        let broken = text.replace("strategy = fcfs", "strategy = warp");
        assert!(matches!(
            Trace::from_text(&broken),
            Err(TraceParseError::InvalidValue { .. })
        ));
        let unknown_kind = format!("{text}999 teleported 0\n");
        assert!(matches!(
            Trace::from_text(&unknown_kind),
            Err(TraceParseError::UnknownEvent { .. })
        ));
        let bad_arity = format!("{text}999 access-requested\n");
        assert!(matches!(
            Trace::from_text(&bad_arity),
            Err(TraceParseError::BadEvent { .. })
        ));
        let bad_section = format!("{text}\n[warp]\n");
        assert!(matches!(
            Trace::from_text(&bad_section),
            Err(TraceParseError::UnknownSection(_))
        ));
        let missing = text.replace("procs = 336\n", "");
        assert_eq!(
            Trace::from_text(&missing),
            Err(TraceParseError::MissingKey("procs"))
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (_, trace) = record(&scenario(Strategy::Interfere));
        let text = trace
            .to_text()
            .replace("[events]", "# the stream\n\n[events]");
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn hostile_app_names_survive_the_codec() {
        let mut s = scenario(Strategy::Interfere);
        s.apps[0].name = "multi\nline [app] \"q\"".to_string();
        let (_, trace) = record(&s);
        let decoded = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(decoded.apps[0].name, s.apps[0].name);
    }
}
