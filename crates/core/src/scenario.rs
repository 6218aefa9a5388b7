//! Serializable scenario descriptions.
//!
//! A [`Scenario`] is the complete, self-contained description of one
//! simulated experiment: the shared file system, the applications, the
//! coordination strategy/granularity/policy, and the overheads. It runs
//! itself ([`Scenario::run_with`] picks the flat or the hierarchical
//! coordination transport), it is the unit the `iobench` sweeps fan out
//! across threads, and it is the thing the experiment registry stores —
//! one description type shared by every reproduced figure.
//!
//! Scenarios are built fluently with [`ScenarioBuilder`] and round-trip
//! through a plain-text `key = value` encoding ([`Scenario::to_text`] /
//! [`Scenario::from_text`]). The simulation is deterministic (integer-tick
//! clock, no randomness), so a decoded scenario reproduces its original's
//! [`SessionReport`] bit for bit — the property the
//! top-level round-trip tests assert.

use crate::api::LocalTransport;
use crate::arbitration::{PolicyRegistry, PolicySpec};
use crate::cluster::{ClusterSpec, ClusterStats, ClusterTransport};
use crate::error::{ConfigError, Error, ScenarioParseError};
use crate::metrics::EfficiencyMetric;
use crate::observe::{NullObserver, SimObserver};
use crate::policy::DynamicPolicy;
use crate::session::{Session, SessionReport};
use crate::strategy::Strategy;
use mpiio::{AccessPattern, AppConfig, CollectiveConfig, Granularity};
use pfs::{AppId, CacheConfig, PfsConfig, SharePolicy};
use simcore::fair::SharingModel;
use simcore::time::{SimDuration, SimTime};
use simcore::Work;
use std::collections::BTreeMap;

/// Header line of the textual scenario encoding.
const HEADER: &str = "calciom-scenario v1";

/// Full description of one simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The shared parallel file system.
    pub pfs: PfsConfig,
    /// The applications running concurrently.
    pub apps: Vec<AppConfig>,
    /// The coordination strategy in force (ignored when
    /// [`Scenario::arbitration`] names a policy).
    pub strategy: Strategy,
    /// Free-form arbitration policy, resolved by name through the
    /// standard [`PolicyRegistry`] at session-build time. `None` (the
    /// default, and what every legacy scenario decodes to) means "use
    /// [`Scenario::strategy`]'s built-in policy".
    pub arbitration: Option<PolicySpec>,
    /// Which bandwidth-sharing medium the file system simulates flows on.
    /// [`SharingModel::MaxMin`] (the default, and what every legacy
    /// scenario decodes to) is the exact max-min fluid solver;
    /// [`SharingModel::FairFast`] is the `O(log n)` virtual-time model.
    pub medium: SharingModel,
    /// Hierarchical multi-machine topology: per-machine leaf arbiters
    /// under a slot-owning root (see [`ClusterTransport`]). `None` (the
    /// default, and what every legacy scenario decodes to) runs the flat,
    /// single-arbiter code path.
    pub cluster: Option<ClusterSpec>,
    /// How often applications issue coordination calls (interruption
    /// granularity).
    pub granularity: Granularity,
    /// Dynamic-selection policy (consulted only when `strategy` is
    /// [`Strategy::Dynamic`]).
    pub policy: DynamicPolicy,
    /// Latency of one coordination exchange (grant/resume notification).
    pub coordination_overhead: SimDuration,
    /// Hard bound on simulated time; exceeding it aborts the run with an
    /// error (guards against configuration mistakes).
    pub horizon: SimDuration,
}

impl Scenario {
    /// Creates a scenario with the default strategy (interfering, i.e. no
    /// coordination), round-level granularity, and the CPU·seconds dynamic
    /// policy.
    pub fn new(pfs: PfsConfig, apps: Vec<AppConfig>) -> Self {
        Scenario {
            pfs,
            apps,
            strategy: Strategy::Interfere,
            arbitration: None,
            medium: SharingModel::default(),
            cluster: None,
            granularity: Granularity::Round,
            policy: DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
            coordination_overhead: SimDuration::from_millis(1.0),
            horizon: SimDuration::from_secs(86_400.0),
        }
    }

    /// Starts a fluent builder for a scenario on the given file system.
    pub fn builder(pfs: PfsConfig) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario::new(pfs, Vec::new()),
        }
    }

    /// Display label of the arbitration in force: the named policy's
    /// spec text when [`Scenario::arbitration`] is set, the strategy's
    /// parameter-carrying label otherwise. This is the string that ends
    /// up in [`SessionReport::policy_label`](crate::SessionReport),
    /// figure series and trace headers.
    pub fn policy_label(&self) -> String {
        match &self.arbitration {
            Some(spec) => spec.to_text(),
            None => self.strategy.label(),
        }
    }

    /// Resolves the arbitration in force into a boxed policy: the named
    /// registry policy when [`Scenario::arbitration`] is set, the legacy
    /// strategy's built-in otherwise. This is the *single* resolution
    /// path — [`Session`] construction installs exactly what this
    /// returns, and [`Scenario::validate`] goes through it too, so a typo
    /// in a policy name surfaces as a validation error.
    pub fn build_policy(
        &self,
    ) -> Result<Box<dyn crate::arbitration::ArbitrationPolicy>, ConfigError> {
        match &self.arbitration {
            None => Ok(crate::arbitration::builtin_policy(
                self.strategy,
                self.policy,
            )),
            Some(spec) => PolicyRegistry::standard()
                .build(spec, &self.policy)
                .map_err(ConfigError::Policy),
        }
    }

    /// Validates the whole configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_workload()?;
        self.build_policy().map(drop)
    }

    /// The policy-free half of [`Scenario::validate`]: file system and
    /// application checks. Session construction uses this plus one
    /// [`Scenario::build_policy`] call, so the policy is resolved exactly
    /// once per session.
    pub(crate) fn validate_workload(&self) -> Result<(), ConfigError> {
        self.pfs.validate()?;
        if self.apps.is_empty() {
            return Err(ConfigError::NoApplications);
        }
        let mut seen = std::collections::BTreeSet::new();
        for app in &self.apps {
            app.validate()?;
            if !seen.insert(app.id) {
                return Err(ConfigError::DuplicateApp(app.id));
            }
        }
        if let Some(cluster) = &self.cluster {
            cluster
                .validate(self.apps.iter().map(|a| a.id))
                .map_err(ConfigError::Cluster)?;
        }
        Ok(())
    }

    /// Runs the scenario to completion, unobserved: [`Scenario::run_with`]
    /// without the observer or the arbiter tree's message accounting.
    pub fn run(&self) -> Result<SessionReport, Error> {
        self.run_with(&mut NullObserver).map(|(report, ..)| report)
    }

    /// Runs the scenario to completion, streaming every
    /// [`SimEvent`](crate::SimEvent) to `observer` — the one place that
    /// picks the coordination transport. Flat scenarios run on the
    /// in-process [`LocalTransport`]; scenarios carrying a
    /// [`ClusterSpec`] run on the hierarchical [`ClusterTransport`], whose
    /// message accounting comes back as the [`ClusterStats`] (`None` for
    /// flat runs), followed by the [`Work`] the session did. The session
    /// is built and executed on the calling thread.
    pub fn run_with<O: SimObserver>(
        &self,
        observer: &mut O,
    ) -> Result<(SessionReport, Option<ClusterStats>, Work), Error> {
        if self.cluster.is_some() {
            let session = Session::<ClusterTransport>::with_transport(self)?;
            // Transports are shared handles: this clone outlives the
            // session `execute_counted` consumes, so the stats survive it.
            let tree = session.transport().clone();
            let (report, work) = session.execute_counted(observer)?;
            Ok((report, Some(tree.stats()), work))
        } else {
            let (report, work) =
                Session::<LocalTransport>::with_transport(self)?.execute_counted(observer)?;
            Ok((report, None, work))
        }
    }

    /// Serializes the scenario to the plain-text `key = value` encoding.
    ///
    /// Floating-point fields are written with Rust's shortest round-trip
    /// representation, so [`Scenario::from_text`] reconstructs the exact
    /// same values (and therefore the exact same simulation).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let kv = |out: &mut String, k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        out.push_str(HEADER);
        out.push('\n');
        kv(&mut out, "strategy", strategy_to_text(self.strategy));
        // Optional key: legacy documents (and every scenario without a
        // named policy) neither emit nor require it, so their encoding is
        // byte-identical to the pre-policy-layer format.
        if let Some(spec) = &self.arbitration {
            kv(&mut out, "arbitration", spec.to_text());
        }
        // Same optional-key convention: only non-default media are
        // written, so legacy (max-min) scenarios stay byte-identical.
        if self.medium != SharingModel::default() {
            kv(&mut out, "medium", self.medium.label().to_string());
        }
        // Optional key again: flat scenarios (the default) emit nothing,
        // so pre-cluster documents stay byte-identical.
        if let Some(cluster) = &self.cluster {
            kv(&mut out, "cluster", cluster.to_text());
        }
        kv(
            &mut out,
            "granularity",
            self.granularity.label().to_string(),
        );
        kv(
            &mut out,
            "coordination_overhead_ticks",
            self.coordination_overhead.ticks().to_string(),
        );
        kv(&mut out, "horizon_ticks", self.horizon.ticks().to_string());

        out.push_str("\n[policy]\n");
        kv(&mut out, "metric", self.policy.metric.label().to_string());
        kv(
            &mut out,
            "consider_interference",
            self.policy.consider_interference.to_string(),
        );
        kv(
            &mut out,
            "interference_gamma",
            format!("{:?}", self.policy.interference_gamma),
        );

        out.push_str("\n[pfs]\n");
        kv(&mut out, "num_servers", self.pfs.num_servers.to_string());
        kv(&mut out, "server_bw", format!("{:?}", self.pfs.server_bw));
        kv(
            &mut out,
            "cache",
            match &self.pfs.cache {
                None => "none".to_string(),
                Some(c) => format!("{:?} {:?} {:?}", c.capacity_bytes, c.absorb_bw, c.drain_bw),
            },
        );
        kv(
            &mut out,
            "interference_gamma",
            format!("{:?}", self.pfs.interference_gamma),
        );
        kv(
            &mut out,
            "process_link_bw",
            format!("{:?}", self.pfs.process_link_bw),
        );
        kv(
            &mut out,
            "interconnect_bw",
            format!("{:?}", self.pfs.interconnect_bw),
        );
        kv(
            &mut out,
            "share_policy",
            match self.pfs.share_policy {
                SharePolicy::ProportionalToProcesses => "proportional-to-processes",
                SharePolicy::EqualPerApplication => "equal-per-application",
            }
            .to_string(),
        );

        for app in &self.apps {
            out.push_str("\n[app]\n");
            kv(&mut out, "id", app.id.0.to_string());
            kv(&mut out, "name", quote(&app.name));
            kv(&mut out, "procs", app.procs.to_string());
            kv(
                &mut out,
                "pattern",
                match app.pattern {
                    AccessPattern::Contiguous { bytes_per_proc } => {
                        format!("contiguous {bytes_per_proc:?}")
                    }
                    AccessPattern::Strided {
                        block_size,
                        block_count,
                    } => format!("strided {block_size:?} {block_count}"),
                },
            );
            kv(&mut out, "files", app.files.to_string());
            kv(
                &mut out,
                "aggregators",
                app.collective.aggregators.to_string(),
            );
            kv(
                &mut out,
                "buffer_bytes",
                format!("{:?}", app.collective.buffer_bytes),
            );
            kv(
                &mut out,
                "shuffle_bw",
                format!("{:?}", app.collective.shuffle_bw),
            );
            kv(&mut out, "start_ticks", app.start.ticks().to_string());
            kv(&mut out, "phases", app.phases.to_string());
            kv(
                &mut out,
                "phase_interval_ticks",
                app.phase_interval.ticks().to_string(),
            );
        }
        out
    }

    /// Parses the encoding produced by [`Scenario::to_text`].
    pub fn from_text(text: &str) -> Result<Scenario, ScenarioParseError> {
        #[derive(PartialEq, Clone, Copy)]
        enum Section {
            Top,
            Policy,
            Pfs,
            App,
        }

        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == HEADER => {}
            _ => return Err(ScenarioParseError::BadHeader),
        }

        let mut section = Section::Top;
        let mut top = BTreeMap::new();
        let mut policy = BTreeMap::new();
        let mut pfs = BTreeMap::new();
        let mut apps: Vec<BTreeMap<String, String>> = Vec::new();
        for (lineno, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name {
                    "policy" => Section::Policy,
                    "pfs" => Section::Pfs,
                    "app" => {
                        apps.push(BTreeMap::new());
                        Section::App
                    }
                    other => return Err(ScenarioParseError::UnknownSection(other.to_string())),
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ScenarioParseError::Malformed { line: lineno + 1 })?;
            let map = match section {
                Section::Top => &mut top,
                Section::Policy => &mut policy,
                Section::Pfs => &mut pfs,
                // simlint: allow(R4, section only becomes App when a header pushed an entry)
                Section::App => apps.last_mut().expect("entered [app] section"),
            };
            let key = key.trim().to_string();
            if map.insert(key.clone(), value.trim().to_string()).is_some() {
                // Last-wins would silently drop a hand-edited line; be as
                // strict about duplicates as about unknown keys.
                return Err(ScenarioParseError::DuplicateKey(key));
            }
        }

        let scenario = Scenario {
            strategy: strategy_from_text(&take(&mut top, "strategy")?)?,
            arbitration: top
                .remove("arbitration")
                .map(|v| PolicySpec::from_text(&v).map_err(|_| invalid("arbitration", &v)))
                .transpose()?,
            medium: top
                .remove("medium")
                .map(|v| SharingModel::from_label(&v).ok_or_else(|| invalid("medium", &v)))
                .transpose()?
                .unwrap_or_default(),
            cluster: top
                .remove("cluster")
                .map(|v| ClusterSpec::from_text(&v))
                .transpose()?,
            granularity: {
                let v = take(&mut top, "granularity")?;
                Granularity::from_label(&v).ok_or_else(|| invalid("granularity", &v))?
            },
            coordination_overhead: SimDuration::from_ticks(parse_num(
                &mut top,
                "coordination_overhead_ticks",
            )?),
            horizon: SimDuration::from_ticks(parse_num(&mut top, "horizon_ticks")?),
            policy: DynamicPolicy {
                metric: {
                    let v = take(&mut policy, "metric")?;
                    EfficiencyMetric::from_label(&v).ok_or_else(|| invalid("metric", &v))?
                },
                consider_interference: parse_num(&mut policy, "consider_interference")?,
                interference_gamma: parse_num(&mut policy, "interference_gamma")?,
            },
            pfs: PfsConfig {
                num_servers: parse_num(&mut pfs, "num_servers")?,
                server_bw: parse_num(&mut pfs, "server_bw")?,
                cache: {
                    let v = take(&mut pfs, "cache")?;
                    parse_cache(&v)?
                },
                interference_gamma: parse_num(&mut pfs, "interference_gamma")?,
                process_link_bw: parse_num(&mut pfs, "process_link_bw")?,
                interconnect_bw: parse_num(&mut pfs, "interconnect_bw")?,
                share_policy: {
                    let v = take(&mut pfs, "share_policy")?;
                    match v.as_str() {
                        "proportional-to-processes" => SharePolicy::ProportionalToProcesses,
                        "equal-per-application" => SharePolicy::EqualPerApplication,
                        _ => return Err(invalid("share_policy", &v)),
                    }
                },
            },
            apps: apps
                .into_iter()
                .map(|mut map| {
                    let app = AppConfig {
                        id: AppId(parse_num(&mut map, "id")?),
                        name: unquote(&take(&mut map, "name")?)?,
                        procs: parse_num(&mut map, "procs")?,
                        pattern: {
                            let v = take(&mut map, "pattern")?;
                            parse_pattern(&v)?
                        },
                        files: parse_num(&mut map, "files")?,
                        collective: CollectiveConfig {
                            aggregators: parse_num(&mut map, "aggregators")?,
                            buffer_bytes: parse_num(&mut map, "buffer_bytes")?,
                            shuffle_bw: parse_num(&mut map, "shuffle_bw")?,
                        },
                        start: SimTime::from_ticks(parse_num(&mut map, "start_ticks")?),
                        phases: parse_num(&mut map, "phases")?,
                        phase_interval: SimDuration::from_ticks(parse_num(
                            &mut map,
                            "phase_interval_ticks",
                        )?),
                    };
                    reject_leftovers(map)?;
                    Ok(app)
                })
                .collect::<Result<Vec<_>, ScenarioParseError>>()?,
        };
        for map in [top, policy, pfs] {
            reject_leftovers(map)?;
        }
        Ok(scenario)
    }
}

/// Fluent constructor for [`Scenario`] — the one place experiments,
/// examples and tests assemble their configuration.
///
/// ```
/// use calciom::{Scenario, Strategy};
/// use mpiio::{AccessPattern, AppConfig};
/// use pfs::{AppId, PfsConfig};
///
/// let scenario = Scenario::builder(PfsConfig::grid5000_rennes())
///     .app(AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0e6)))
///     .app(AppConfig::new(AppId(1), "B", 336, AccessPattern::contiguous(16.0e6)))
///     .strategy(Strategy::FcfsSerialize)
///     .build()
///     .unwrap();
/// let report = scenario.run().unwrap();
/// assert_eq!(report.apps.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Adds one application.
    pub fn app(mut self, app: AppConfig) -> Self {
        self.scenario.apps.push(app);
        self
    }

    /// Adds several applications.
    pub fn apps(mut self, apps: impl IntoIterator<Item = AppConfig>) -> Self {
        self.scenario.apps.extend(apps);
        self
    }

    /// Sets the coordination strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.scenario.strategy = strategy;
        self
    }

    /// Selects the arbitration policy by [`PolicySpec`] — any name the
    /// standard [`PolicyRegistry`] knows, including the extended policies
    /// no [`Strategy`] variant expresses (`priority(w=cores)`, `srpf`,
    /// `rr(10s)`). Overrides [`ScenarioBuilder::strategy`]. The name is
    /// resolved (and a bad spec rejected) at [`ScenarioBuilder::build`]
    /// time.
    pub fn arbitration(mut self, spec: PolicySpec) -> Self {
        self.scenario.arbitration = Some(spec);
        self
    }

    /// Places the applications on a hierarchical multi-machine topology:
    /// one leaf arbiter per machine under a slot-owning root, with
    /// modeled cross-arbiter message latency (see [`ClusterTransport`]).
    /// The topology is validated against the application list at
    /// [`ScenarioBuilder::build`] time.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.scenario.cluster = Some(spec);
        self
    }

    /// Selects the bandwidth-sharing medium the file system runs on.
    /// Defaults to [`SharingModel::MaxMin`]; [`SharingModel::FairFast`]
    /// trades exactness on unequal-share topologies for `O(log n)`
    /// flow mutations (the machine-scale sweeps use it).
    pub fn medium(mut self, medium: SharingModel) -> Self {
        self.scenario.medium = medium;
        self
    }

    /// Sets the coordination granularity.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.scenario.granularity = granularity;
        self
    }

    /// Sets the dynamic policy.
    pub fn policy(mut self, policy: DynamicPolicy) -> Self {
        self.scenario.policy = policy;
        self
    }

    /// Sets the coordination message latency.
    pub fn coordination_overhead(mut self, overhead: SimDuration) -> Self {
        self.scenario.coordination_overhead = overhead;
        self
    }

    /// Sets the simulated-time horizon.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.scenario.horizon = horizon;
        self
    }

    /// Validates and returns the scenario.
    pub fn build(self) -> Result<Scenario, ConfigError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

pub(crate) fn strategy_to_text(strategy: Strategy) -> String {
    match strategy {
        Strategy::Delay { max_wait_secs } => format!("delay {max_wait_secs:?}"),
        other => other.label(),
    }
}

pub(crate) fn strategy_from_text(text: &str) -> Result<Strategy, ScenarioParseError> {
    let mut tokens = text.split_whitespace();
    let strategy = match (tokens.next(), tokens.next()) {
        (Some("interfering"), None) => Strategy::Interfere,
        (Some("fcfs"), None) => Strategy::FcfsSerialize,
        (Some("interrupt"), None) => Strategy::Interrupt,
        (Some("calciom-dynamic"), None) => Strategy::Dynamic,
        (Some("delay"), Some(secs)) => Strategy::Delay {
            max_wait_secs: secs.parse().map_err(|_| invalid("strategy", text))?,
        },
        _ => return Err(invalid("strategy", text)),
    };
    if tokens.next().is_some() {
        return Err(invalid("strategy", text));
    }
    Ok(strategy)
}

fn parse_pattern(text: &str) -> Result<AccessPattern, ScenarioParseError> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    match tokens.as_slice() {
        ["contiguous", bytes] => Ok(AccessPattern::Contiguous {
            bytes_per_proc: bytes.parse().map_err(|_| invalid("pattern", text))?,
        }),
        ["strided", size, count] => Ok(AccessPattern::Strided {
            block_size: size.parse().map_err(|_| invalid("pattern", text))?,
            block_count: count.parse().map_err(|_| invalid("pattern", text))?,
        }),
        _ => Err(invalid("pattern", text)),
    }
}

fn parse_cache(text: &str) -> Result<Option<CacheConfig>, ScenarioParseError> {
    if text == "none" {
        return Ok(None);
    }
    let tokens: Vec<&str> = text.split_whitespace().collect();
    match tokens.as_slice() {
        [capacity, absorb, drain] => {
            let num = |s: &str| s.parse::<f64>().map_err(|_| invalid("cache", text));
            Ok(Some(CacheConfig {
                capacity_bytes: num(capacity)?,
                absorb_bw: num(absorb)?,
                drain_bw: num(drain)?,
            }))
        }
        _ => Err(invalid("cache", text)),
    }
}

/// Encodes a free-form string (application names) as a double-quoted,
/// backslash-escaped token, so that whitespace survives the parser's value
/// trimming and newlines / `[app]`-like content cannot break the
/// line-based format.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Decodes the encoding produced by [`quote`].
pub(crate) fn unquote(text: &str) -> Result<String, ScenarioParseError> {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| invalid("name", text))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(invalid("name", text)),
        }
    }
    Ok(out)
}

/// The error shape shared by the crate's two text codecs (scenario and
/// trace), so the `key = value` helpers below exist exactly once.
pub(crate) trait CodecError: Sized {
    /// A required key was absent from its section.
    fn missing_key(key: &'static str) -> Self;
    /// A value could not be parsed.
    fn invalid_value(key: &str, value: &str) -> Self;
    /// A key that does not belong to its section.
    fn unknown_key(key: String) -> Self;
}

impl CodecError for ScenarioParseError {
    fn missing_key(key: &'static str) -> Self {
        ScenarioParseError::MissingKey(key)
    }
    fn invalid_value(key: &str, value: &str) -> Self {
        ScenarioParseError::InvalidValue {
            key: key.to_string(),
            value: value.to_string(),
        }
    }
    fn unknown_key(key: String) -> Self {
        ScenarioParseError::UnknownKey(key)
    }
}

pub(crate) fn invalid<E: CodecError>(key: &str, value: &str) -> E {
    E::invalid_value(key, value)
}

pub(crate) fn take<E: CodecError>(
    map: &mut BTreeMap<String, String>,
    key: &'static str,
) -> Result<String, E> {
    map.remove(key).ok_or_else(|| E::missing_key(key))
}

pub(crate) fn parse_num<T: std::str::FromStr, E: CodecError>(
    map: &mut BTreeMap<String, String>,
    key: &'static str,
) -> Result<T, E> {
    let value = take::<E>(map, key)?;
    value.parse().map_err(|_| invalid(key, &value))
}

pub(crate) fn reject_leftovers<E: CodecError>(map: BTreeMap<String, String>) -> Result<(), E> {
    match map.into_keys().next() {
        Some(key) => Err(E::unknown_key(key)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    fn sample() -> Scenario {
        Scenario::builder(PfsConfig::grid5000_nancy())
            .app(AppConfig::new(
                AppId(0),
                "App A",
                336,
                AccessPattern::strided(2.0 * MB, 8),
            ))
            .app(
                AppConfig::new(AppId(1), "App B", 48, AccessPattern::contiguous(16.0 * MB))
                    .starting_at_secs(2.5)
                    .with_periodic_phases(3, SimDuration::from_secs(10.0)),
            )
            .strategy(Strategy::Delay { max_wait_secs: 4.0 })
            .granularity(Granularity::File)
            .policy(DynamicPolicy {
                metric: EfficiencyMetric::TotalIoTime,
                consider_interference: true,
                interference_gamma: 0.9,
            })
            .coordination_overhead(SimDuration::from_millis(2.0))
            .horizon(SimDuration::from_secs(3600.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            Scenario::builder(PfsConfig::grid5000_rennes())
                .build()
                .unwrap_err(),
            ConfigError::NoApplications
        );
        let dup = Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "A",
                8,
                AccessPattern::contiguous(MB),
            ))
            .app(AppConfig::new(
                AppId(0),
                "B",
                8,
                AccessPattern::contiguous(MB),
            ))
            .build();
        assert_eq!(dup.unwrap_err(), ConfigError::DuplicateApp(AppId(0)));
        let bad_pfs = Scenario::builder(PfsConfig {
            num_servers: 0,
            ..PfsConfig::default()
        })
        .app(AppConfig::new(
            AppId(0),
            "A",
            8,
            AccessPattern::contiguous(MB),
        ))
        .build();
        assert!(matches!(bad_pfs.unwrap_err(), ConfigError::Pfs(_)));
    }

    #[test]
    fn text_round_trip_is_exact() {
        let scenario = sample();
        let text = scenario.to_text();
        let back = Scenario::from_text(&text).unwrap();
        assert_eq!(back, scenario);
        // Stability: re-encoding yields the same document.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn infinite_bandwidth_survives_the_round_trip() {
        let mut scenario = sample();
        scenario.pfs.interconnect_bw = f64::INFINITY;
        let back = Scenario::from_text(&scenario.to_text()).unwrap();
        assert_eq!(back.pfs.interconnect_bw, f64::INFINITY);
    }

    #[test]
    fn every_strategy_round_trips() {
        for strategy in [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
            Strategy::Delay {
                max_wait_secs: 0.125,
            },
        ] {
            let mut scenario = sample();
            scenario.strategy = strategy;
            let back = Scenario::from_text(&scenario.to_text()).unwrap();
            assert_eq!(back.strategy, strategy);
        }
    }

    #[test]
    fn hostile_app_names_round_trip_exactly() {
        // Names are free-form: whitespace, quotes, backslashes, newlines
        // and even section-header look-alikes must survive the text
        // encoding byte for byte.
        for name in [
            "App A ",
            " leading",
            "quo\"te",
            "back\\slash",
            "multi\nline",
            "[app]",
            "key = value",
            "",
        ] {
            let mut scenario = sample();
            scenario.apps[0].name = name.to_string();
            let back = Scenario::from_text(&scenario.to_text()).unwrap();
            assert_eq!(back, scenario, "name {name:?} must round-trip");
        }
    }

    #[test]
    fn named_arbitration_round_trips_and_validates() {
        let mut scenario = sample();
        scenario.arbitration = Some(PolicySpec::with_arg("rr", "10s"));
        scenario.validate().unwrap();
        assert_eq!(scenario.policy_label(), "rr(10s)");
        let text = scenario.to_text();
        assert!(text.contains("arbitration = rr(10s)"));
        let back = Scenario::from_text(&text).unwrap();
        assert_eq!(back, scenario);

        // Legacy scenarios emit no arbitration key at all: their encoding
        // is byte-identical to the pre-policy-layer format and the label
        // falls back to the strategy's.
        let legacy = sample();
        assert!(!legacy.to_text().contains("arbitration"));
        assert_eq!(legacy.policy_label(), "delay(4s)");

        // An unknown policy name fails *validation*, not session build.
        let mut bogus = sample();
        bogus.arbitration = Some(PolicySpec::new("warp"));
        assert!(matches!(
            bogus.validate().unwrap_err(),
            ConfigError::Policy(_)
        ));
        // And a malformed spec text fails decoding.
        let broken = text.replace("arbitration = rr(10s)", "arbitration = rr(10s");
        assert!(matches!(
            Scenario::from_text(&broken),
            Err(ScenarioParseError::InvalidValue { .. })
        ));
    }

    #[test]
    fn medium_round_trips_and_legacy_text_is_unchanged() {
        // Default (max-min) scenarios emit no medium key: their encoding
        // is byte-identical to the pre-fair-medium format.
        let legacy = sample();
        assert_eq!(legacy.medium, SharingModel::MaxMin);
        assert!(!legacy.to_text().contains("medium"));

        let mut fair = sample();
        fair.medium = SharingModel::FairFast;
        let text = fair.to_text();
        assert!(text.contains("medium = fair-fast"));
        let back = Scenario::from_text(&text).unwrap();
        assert_eq!(back, fair);
        assert_eq!(back.to_text(), text);

        // An unknown medium label fails decoding.
        let broken = text.replace("medium = fair-fast", "medium = psychic");
        assert!(matches!(
            Scenario::from_text(&broken),
            Err(ScenarioParseError::InvalidValue { .. })
        ));
    }

    #[test]
    fn cluster_round_trips_and_legacy_text_is_unchanged() {
        use crate::cluster::{ClusterSpec, MachineSpec};
        use simcore::time::SimDuration;

        // Flat scenarios emit no cluster key: their encoding is
        // byte-identical to the pre-hierarchy format.
        let legacy = sample();
        assert!(legacy.cluster.is_none());
        assert!(!legacy.to_text().contains("cluster"));

        let mut clustered = sample();
        clustered.cluster = Some(ClusterSpec::new(
            1,
            vec![
                MachineSpec {
                    latency: SimDuration::from_ticks(2_000),
                    apps: vec![AppId(0)],
                },
                MachineSpec {
                    latency: SimDuration::ZERO,
                    apps: vec![AppId(1)],
                },
            ],
        ));
        clustered.validate().unwrap();
        let text = clustered.to_text();
        assert!(text.contains("cluster = slots=1"));
        let back = Scenario::from_text(&text).unwrap();
        assert_eq!(back, clustered);
        assert_eq!(back.to_text(), text);

        // A topology that does not match the application list fails
        // validation with the typed cluster error.
        let mut orphan = clustered.clone();
        // simlint: allow(R4, the cluster was assigned five lines above)
        orphan.cluster.as_mut().unwrap().machines.pop();
        assert!(matches!(
            orphan.validate().unwrap_err(),
            ConfigError::Cluster(crate::error::ClusterConfigError::UnassignedApp(AppId(1)))
        ));
        // And a malformed cluster value fails decoding.
        let broken = text.replace("cluster = slots=1", "cluster = slots=zero");
        assert!(matches!(
            Scenario::from_text(&broken),
            Err(ScenarioParseError::InvalidValue { .. })
        ));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let text = sample().to_text();
        let duplicated = text.replace(
            "granularity = file",
            "granularity = file\ngranularity = round",
        );
        assert_eq!(
            Scenario::from_text(&duplicated),
            Err(ScenarioParseError::DuplicateKey("granularity".into()))
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert_eq!(
            Scenario::from_text("nonsense"),
            Err(ScenarioParseError::BadHeader)
        );
        let text = sample().to_text();
        let broken = text.replace("strategy = delay 4.0", "strategy = warp 9");
        assert!(matches!(
            Scenario::from_text(&broken),
            Err(ScenarioParseError::InvalidValue { .. })
        ));
        let missing = text.replace("num_servers = 35\n", "");
        assert_eq!(
            Scenario::from_text(&missing),
            Err(ScenarioParseError::MissingKey("num_servers"))
        );
        let unknown = format!("{text}\nbogus_key = 1\n");
        assert!(matches!(
            Scenario::from_text(&unknown),
            Err(ScenarioParseError::UnknownKey(_))
        ));
        let bad_section = format!("{text}\n[warp]\n");
        assert!(matches!(
            Scenario::from_text(&bad_section),
            Err(ScenarioParseError::UnknownSection(_))
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = sample().to_text();
        let with_noise = text.replace("[pfs]", "# the file system\n\n[pfs]");
        assert_eq!(Scenario::from_text(&with_noise).unwrap(), sample());
    }
}
