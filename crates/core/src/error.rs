//! Typed errors for the coordination layer and everything built on it.
//!
//! [`enum@Error`] is the single error surface of the `calciom` crate (and,
//! via re-export, of the `iobench` harness): configuration problems from
//! the substrate crates are wrapped into [`ConfigError`], runtime failures
//! of a simulation into [`SessionError`], and problems decoding a
//! serialized [`Scenario`](crate::Scenario), a recorded
//! [`Trace`](crate::Trace), or an exchanged `MPI_Info` payload into
//! [`ScenarioParseError`] / [`TraceParseError`] / [`InfoError`]. Every
//! variant is matchable — no caller ever needs to parse an error message.

use crate::arbitration::PolicyError;
use pfs::{AppId, TransferId};
use simcore::time::SimDuration;

/// A problem found while validating a scenario or one of its parts.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The file system configuration was invalid.
    Pfs(pfs::ConfigError),
    /// An application configuration was invalid.
    App(mpiio::ConfigError),
    /// The scenario had no applications at all.
    NoApplications,
    /// Two applications shared the same identifier.
    DuplicateApp(AppId),
    /// The scenario named an arbitration policy the registry could not
    /// resolve or instantiate.
    Policy(PolicyError),
    /// The scenario's cluster topology was invalid.
    Cluster(ClusterConfigError),
    /// The scenario carries a cluster topology but the session was built
    /// on a flat (single-arbiter) transport that would silently ignore
    /// it; run it through a cluster-aware transport instead.
    ClusterUnsupported,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Pfs(e) => write!(f, "file system configuration: {e}"),
            ConfigError::App(e) => write!(f, "application configuration: {e}"),
            ConfigError::NoApplications => {
                write!(f, "a scenario needs at least one application")
            }
            ConfigError::DuplicateApp(app) => write!(f, "duplicate application id {app}"),
            ConfigError::Policy(e) => write!(f, "arbitration policy: {e}"),
            ConfigError::Cluster(e) => write!(f, "cluster topology: {e}"),
            ConfigError::ClusterUnsupported => {
                write!(
                    f,
                    "scenario has a cluster topology but the transport is flat; \
                     use a cluster-aware transport (e.g. ClusterTransport)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Pfs(e) => Some(e),
            ConfigError::App(e) => Some(e),
            ConfigError::Policy(e) => Some(e),
            ConfigError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

/// A problem found while validating a scenario's cluster topology
/// ([`ClusterSpec`](crate::ClusterSpec)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// The topology listed no machines.
    NoMachines,
    /// The root arbiter was given zero shared-PFS slots.
    NoSlots,
    /// A scenario application was assigned to no machine.
    UnassignedApp(AppId),
    /// An application was assigned to more than one machine (or twice to
    /// the same machine).
    DuplicateAssignment(AppId),
    /// A machine listed an application the scenario does not run.
    UnknownApp(AppId),
}

impl std::fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterConfigError::NoMachines => {
                write!(f, "a cluster needs at least one machine")
            }
            ClusterConfigError::NoSlots => {
                write!(f, "the root arbiter needs at least one shared-PFS slot")
            }
            ClusterConfigError::UnassignedApp(app) => {
                write!(f, "application {app} is assigned to no machine")
            }
            ClusterConfigError::DuplicateAssignment(app) => {
                write!(f, "application {app} is assigned to more than one machine")
            }
            ClusterConfigError::UnknownApp(app) => {
                write!(f, "machine lists unknown application {app}")
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

impl From<ClusterConfigError> for ConfigError {
    fn from(e: ClusterConfigError) -> Self {
        ConfigError::Cluster(e)
    }
}

impl From<ClusterConfigError> for Error {
    fn from(e: ClusterConfigError) -> Self {
        Error::Config(ConfigError::Cluster(e))
    }
}

impl From<PolicyError> for ConfigError {
    fn from(e: PolicyError) -> Self {
        ConfigError::Policy(e)
    }
}

impl From<pfs::ConfigError> for ConfigError {
    fn from(e: pfs::ConfigError) -> Self {
        ConfigError::Pfs(e)
    }
}

impl From<mpiio::ConfigError> for ConfigError {
    fn from(e: mpiio::ConfigError) -> Self {
        ConfigError::App(e)
    }
}

/// The run state of one application inside a session, as reported by
/// deadlock diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppRunState {
    /// Waiting for the scheduled start of the next phase.
    Idle,
    /// Requested access at phase start; waiting to be granted.
    WantAccess,
    /// Yielded mid-phase after an interruption request; waiting to resume.
    Parked,
    /// A communication (shuffle) step is in flight.
    Comm,
    /// A write transfer is in flight.
    Writing,
    /// All phases completed.
    Done,
}

impl AppRunState {
    /// Stable, greppable label.
    pub fn label(&self) -> &'static str {
        match self {
            AppRunState::Idle => "idle",
            AppRunState::WantAccess => "want-access",
            AppRunState::Parked => "parked",
            AppRunState::Comm => "comm",
            AppRunState::Writing => "writing",
            AppRunState::Done => "done",
        }
    }

    /// The event the application is waiting for in this state — the
    /// "pending event" column of a deadlock report.
    pub fn pending_event(&self) -> &'static str {
        match self {
            AppRunState::Idle => "phase-start",
            AppRunState::WantAccess => "grant",
            AppRunState::Parked => "resume",
            AppRunState::Comm => "comm-completion",
            AppRunState::Writing => "transfer-completion",
            AppRunState::Done => "nothing",
        }
    }
}

impl std::fmt::Display for AppRunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One application's situation at the moment a deadlock was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockApp {
    /// The application.
    pub app: AppId,
    /// Its run state.
    pub state: AppRunState,
    /// Whether the arbiter currently counts it as an accessor.
    pub granted: bool,
}

impl std::fmt::Display for DeadlockApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} state={} pending={} granted={}",
            self.app,
            self.state,
            self.state.pending_event(),
            if self.granted { "yes" } else { "no" }
        )
    }
}

/// A failure while executing a simulation session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No events are pending but some application has not finished — a
    /// coordination deadlock (should be unreachable for valid scenarios).
    Deadlock {
        /// The situation of every unfinished application, in id order.
        apps: Vec<DeadlockApp>,
    },
    /// Simulated time exceeded the configured horizon (guards against
    /// configuration mistakes such as an unreachable bandwidth).
    HorizonExceeded {
        /// The horizon that was exceeded.
        horizon: SimDuration,
    },
    /// A report was requested for an application the session did not run.
    MissingApp(AppId),
    /// One or more in-flight transfers sit at zero bandwidth with no
    /// pending event that could ever raise it — the flows are starved
    /// (e.g. by a zero-capacity constraint) and the session would never
    /// advance. Distinguished from [`SessionError::Deadlock`] so a
    /// mis-sized file system surfaces as "starved transfer", not as a
    /// coordination bug.
    StalledTransfer {
        /// The starved transfers as `(owner, transfer)`, in id order.
        transfers: Vec<(AppId, TransferId)>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Deadlock { apps } => {
                write!(
                    f,
                    "deadlock: no pending events but applications are not done "
                )?;
                write_bounded_list(f, apps, |f, app| write!(f, "{app}"))
            }
            SessionError::HorizonExceeded { horizon } => {
                write!(f, "simulation exceeded the configured horizon of {horizon}")
            }
            SessionError::MissingApp(app) => write!(f, "no report for application {app}"),
            SessionError::StalledTransfer { transfers } => {
                write!(
                    f,
                    "stalled: transfers at zero bandwidth with no way to progress "
                )?;
                write_bounded_list(f, transfers, |f, (app, tid)| {
                    write!(f, "{app} transfer={}", tid.0)
                })
            }
        }
    }
}

/// How many entries a listing inside an error message shows. A stalled
/// mix of thousands of applications must not become a megabyte error
/// body; the error value itself keeps every entry.
const MAX_LISTED: usize = 16;

/// Writes `[a; b; …]` with at most [`MAX_LISTED`] entries, ending in
/// `; … and K more]` when some were left out.
fn write_bounded_list<T>(
    f: &mut std::fmt::Formatter<'_>,
    items: &[T],
    mut entry: impl FnMut(&mut std::fmt::Formatter<'_>, &T) -> std::fmt::Result,
) -> std::fmt::Result {
    write!(f, "[")?;
    for (i, item) in items.iter().take(MAX_LISTED).enumerate() {
        if i > 0 {
            write!(f, "; ")?;
        }
        entry(f, item)?;
    }
    if items.len() > MAX_LISTED {
        write!(f, "; … and {} more", items.len() - MAX_LISTED)?;
    }
    write!(f, "]")
}

impl std::error::Error for SessionError {}

/// A problem decoding the textual form of a [`Scenario`](crate::Scenario).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioParseError {
    /// The document did not start with the expected header line.
    BadHeader,
    /// A line was not a section header or a `key = value` pair.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown `[section]` header.
    UnknownSection(String),
    /// A key that does not belong to its section.
    UnknownKey(String),
    /// The same key appeared twice in one section.
    DuplicateKey(String),
    /// A required key was absent from its section.
    MissingKey(&'static str),
    /// A value could not be parsed.
    InvalidValue {
        /// The key whose value was rejected.
        key: String,
        /// The rejected text.
        value: String,
    },
}

impl std::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioParseError::BadHeader => {
                write!(f, "missing or unsupported scenario header")
            }
            ScenarioParseError::Malformed { line } => {
                write!(f, "line {line}: expected `key = value` or `[section]`")
            }
            ScenarioParseError::UnknownSection(s) => write!(f, "unknown section [{s}]"),
            ScenarioParseError::UnknownKey(k) => write!(f, "unknown key '{k}'"),
            ScenarioParseError::DuplicateKey(k) => write!(f, "duplicate key '{k}'"),
            ScenarioParseError::MissingKey(k) => write!(f, "missing key '{k}'"),
            ScenarioParseError::InvalidValue { key, value } => {
                write!(f, "invalid value for '{key}': {value}")
            }
        }
    }
}

impl std::error::Error for ScenarioParseError {}

/// A problem decoding the flat `(key, value)` representation of an
/// [`IoInfo`](crate::IoInfo) (the paper's `MPI_Info` payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InfoError {
    /// A required key was absent.
    MissingKey(String),
    /// A value could not be parsed.
    InvalidValue {
        /// The key whose value was rejected.
        key: String,
        /// The rejected text.
        value: String,
    },
    /// An unknown granularity label.
    UnknownGranularity(String),
}

impl std::fmt::Display for InfoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfoError::MissingKey(k) => write!(f, "missing key '{k}'"),
            InfoError::InvalidValue { key, value } => {
                write!(f, "invalid value for '{key}': {value}")
            }
            InfoError::UnknownGranularity(g) => write!(f, "unknown granularity '{g}'"),
        }
    }
}

impl std::error::Error for InfoError {}

/// A problem decoding the textual form of a [`Trace`](crate::Trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The document did not start with the expected header line.
    BadHeader,
    /// A line was not a section header, a `key = value` pair, or (inside
    /// `[events]`) an event record.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown `[section]` header.
    UnknownSection(String),
    /// A key that does not belong to its section.
    UnknownKey(String),
    /// The same key appeared twice in one section.
    DuplicateKey(String),
    /// A required key was absent from its section.
    MissingKey(&'static str),
    /// A value could not be parsed.
    InvalidValue {
        /// The key whose value was rejected.
        key: String,
        /// The rejected text.
        value: String,
    },
    /// An event record named a kind the codec does not know.
    UnknownEvent {
        /// 1-based line number.
        line: usize,
        /// The unknown kind token.
        kind: String,
    },
    /// An event record had the wrong number or shape of arguments.
    BadEvent {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadHeader => write!(f, "missing or unsupported trace header"),
            TraceParseError::Malformed { line } => {
                write!(
                    f,
                    "line {line}: expected `key = value`, `[section]` or an event record"
                )
            }
            TraceParseError::UnknownSection(s) => write!(f, "unknown section [{s}]"),
            TraceParseError::UnknownKey(k) => write!(f, "unknown key '{k}'"),
            TraceParseError::DuplicateKey(k) => write!(f, "duplicate key '{k}'"),
            TraceParseError::MissingKey(k) => write!(f, "missing key '{k}'"),
            TraceParseError::InvalidValue { key, value } => {
                write!(f, "invalid value for '{key}': {value}")
            }
            TraceParseError::UnknownEvent { line, kind } => {
                write!(f, "line {line}: unknown event kind '{kind}'")
            }
            TraceParseError::BadEvent { line } => {
                write!(f, "line {line}: malformed event record")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// The error type of every fallible public operation in the CALCioM stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A scenario (or one of its parts) failed validation.
    Config(ConfigError),
    /// A simulation session failed at runtime.
    Session(SessionError),
    /// A serialized scenario could not be decoded.
    Scenario(ScenarioParseError),
    /// An exchanged `MPI_Info` payload could not be decoded.
    Info(InfoError),
    /// A serialized trace could not be decoded.
    Trace(TraceParseError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(e) => e.fmt(f),
            Error::Session(e) => e.fmt(f),
            Error::Scenario(e) => e.fmt(f),
            Error::Info(e) => e.fmt(f),
            Error::Trace(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Session(e) => Some(e),
            Error::Scenario(e) => Some(e),
            Error::Info(e) => Some(e),
            Error::Trace(e) => Some(e),
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Self {
        Error::Session(e)
    }
}

impl From<ScenarioParseError> for Error {
    fn from(e: ScenarioParseError) -> Self {
        Error::Scenario(e)
    }
}

impl From<InfoError> for Error {
    fn from(e: InfoError) -> Self {
        Error::Info(e)
    }
}

impl From<TraceParseError> for Error {
    fn from(e: TraceParseError) -> Self {
        Error::Trace(e)
    }
}

impl From<pfs::ConfigError> for Error {
    fn from(e: pfs::ConfigError) -> Self {
        Error::Config(ConfigError::Pfs(e))
    }
}

impl From<mpiio::ConfigError> for Error {
    fn from(e: mpiio::ConfigError) -> Self {
        Error::Config(ConfigError::App(e))
    }
}

impl From<PolicyError> for Error {
    fn from(e: PolicyError) -> Self {
        Error::Config(ConfigError::Policy(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_the_wrapped_detail() {
        let e = Error::from(pfs::ConfigError::NoServers);
        assert!(e.to_string().contains("num_servers"));
        let e = Error::from(ConfigError::DuplicateApp(AppId(3)));
        assert!(e.to_string().contains("app3"));
        let e = Error::from(SessionError::HorizonExceeded {
            horizon: SimDuration::from_secs(10.0),
        });
        assert!(e.to_string().contains("horizon"));
    }

    #[test]
    fn sources_chain_to_the_substrate_error() {
        use std::error::Error as _;
        let e = Error::from(mpiio::ConfigError::ZeroBlockCount);
        assert!(e.source().is_some());
        assert!(e.source().unwrap().source().is_some());
    }

    #[test]
    fn deadlock_message_is_structured_and_greppable() {
        let e = SessionError::Deadlock {
            apps: vec![
                DeadlockApp {
                    app: AppId(0),
                    state: AppRunState::WantAccess,
                    granted: false,
                },
                DeadlockApp {
                    app: AppId(1),
                    state: AppRunState::Writing,
                    granted: true,
                },
            ],
        };
        // The rendering is stable: one `<app> state=<s> pending=<e>
        // granted=<yes|no>` clause per application, `;`-separated.
        assert_eq!(
            e.to_string(),
            "deadlock: no pending events but applications are not done \
             [app0 state=want-access pending=grant granted=no; \
             app1 state=writing pending=transfer-completion granted=yes]"
        );
    }

    #[test]
    fn stalled_transfer_message_is_structured_and_greppable() {
        let e = SessionError::StalledTransfer {
            transfers: vec![(AppId(0), TransferId(3)), (AppId(1), TransferId(7))],
        };
        assert_eq!(
            e.to_string(),
            "stalled: transfers at zero bandwidth with no way to progress \
             [app0 transfer=3; app1 transfer=7]"
        );
    }

    #[test]
    fn deadlock_message_lists_at_most_sixteen_apps() {
        let apps: Vec<DeadlockApp> = (0..50_000)
            .map(|i| DeadlockApp {
                app: AppId(i),
                state: AppRunState::WantAccess,
                granted: false,
            })
            .collect();
        let message = SessionError::Deadlock { apps }.to_string();
        assert!(message.len() <= 2048, "{} bytes", message.len());
        assert!(message.contains("app15 state="), "{message}");
        assert!(!message.contains("app16 state="), "{message}");
        assert!(message.ends_with("; … and 49984 more]"), "{message}");
    }

    #[test]
    fn stalled_transfer_message_lists_at_most_sixteen_transfers() {
        let transfers: Vec<(AppId, TransferId)> = (0..50_000u64)
            .map(|i| (AppId(i as usize), TransferId(i)))
            .collect();
        let message = SessionError::StalledTransfer { transfers }.to_string();
        assert!(message.len() <= 2048, "{} bytes", message.len());
        assert!(message.contains("app15 transfer=15"), "{message}");
        assert!(!message.contains("app16 "), "{message}");
        assert!(message.ends_with("; … and 49984 more]"), "{message}");
    }

    #[test]
    fn run_state_labels_and_pending_events_are_distinct() {
        let states = [
            AppRunState::Idle,
            AppRunState::WantAccess,
            AppRunState::Parked,
            AppRunState::Comm,
            AppRunState::Writing,
            AppRunState::Done,
        ];
        let labels: std::collections::BTreeSet<&str> = states.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), states.len());
        for s in states {
            assert!(!s.pending_event().is_empty());
        }
    }

    #[test]
    fn trace_parse_error_displays_its_location() {
        let e = Error::from(TraceParseError::UnknownEvent {
            line: 12,
            kind: "warp".into(),
        });
        assert!(e.to_string().contains("line 12"));
        assert!(e.to_string().contains("warp"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
