//! The open arbitration layer: pluggable scheduling policies.
//!
//! The paper separates *mechanisms* (interference, FCFS serialization,
//! interruption — Section III-A) from the *policy* that chooses among them
//! (Section IV-D), and explicitly leaves richer policies as future work.
//! This module is that seam: the [`Arbiter`](crate::Arbiter) is a pure
//! mechanism engine (grant/park/interrupt/resume bookkeeping and message
//! accounting) and delegates every *decision* to an [`ArbitrationPolicy`]:
//!
//! * a newcomer arrives while others hold the file system —
//!   [`ArbitrationPolicy::on_request`] returns a [`RequestDecision`];
//! * an accessor reaches a coordination point —
//!   [`ArbitrationPolicy::on_yield`] returns a [`YieldDecision`];
//! * the file system frees up after a release or a yield —
//!   [`ArbitrationPolicy::select_next`] picks the next grantee;
//! * a bounded-delay budget expires —
//!   [`ArbitrationPolicy::on_delay_expired`] returns a
//!   [`TimeoutDecision`].
//!
//! Policies observe the arbiter through a read-only [`ArbiterView`]: the
//! active and parked sets, the pending interruption requests, the latest
//! [`IoInfo`] every application shared, and the simulated clock. The five
//! legacy [`Strategy`] variants are built-in policies
//! (constructed by [`builtin_policy`]) and reproduce the closed-enum
//! arbiter bit for bit — the `kernel_golden` trace hashes pin this.
//!
//! Policies are *named*: [`PolicySpec`] is the serializable
//! `name(arg)` description and [`PolicyRegistry`] turns specs into boxed
//! policies, so scenarios, sweeps, and the bench CLI can select policies
//! by string.
//!
//! ## Writing a policy
//!
//! A policy is usually well under 30 lines. This one serializes accessors
//! but lets *tiny* applications (≤ 64 processes) overlap freely:
//!
//! ```
//! use calciom::arbitration::{
//!     ArbitrationPolicy, ArbiterView, PolicySpec, RequestDecision,
//! };
//! use calciom::{Arbiter, Scenario, AccessPattern, AppConfig, AppId, PfsConfig};
//!
//! #[derive(Debug, Clone)]
//! struct SmallJobsOverlap;
//!
//! impl ArbitrationPolicy for SmallJobsOverlap {
//!     fn spec(&self) -> PolicySpec {
//!         PolicySpec::new("small-jobs-overlap")
//!     }
//!     fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision {
//!         match view.info_for(app) {
//!             Some(info) if info.procs <= 64 => RequestDecision::Admit,
//!             _ => RequestDecision::Queue,
//!         }
//!     }
//!     fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
//!         Box::new(self.clone())
//!     }
//! }
//!
//! // Drive it through the raw mechanism engine…
//! let mut arb = Arbiter::with_policy(Box::new(SmallJobsOverlap));
//! assert_eq!(arb.policy_label(), "small-jobs-overlap");
//! ```
//!
//! To make a policy usable *by name* from scenarios and the CLI, register
//! it in a [`PolicyRegistry`] and attach its [`PolicySpec`] to the
//! scenario with
//! [`ScenarioBuilder::arbitration`](crate::ScenarioBuilder::arbitration).

use crate::info::IoInfo;
use crate::metrics::EfficiencyMetric;
use crate::policy::{DynDecision, DynamicPolicy};
use crate::strategy::Strategy;
use pfs::AppId;
use simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Why a parked application is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkReason {
    /// Waiting for its first grant of the current phase.
    Waiting,
    /// Was accessing, yielded after an interruption request.
    Interrupted,
}

/// The engine's parked queue: arrival order plus `O(log n)` membership,
/// removal, and earliest-by-reason lookup, so no mechanism operation
/// scans the whole queue (at machine scale it holds tens of thousands of
/// waiting applications and park/release/grant run once per phase each).
#[derive(Debug, Clone, Default)]
pub(crate) struct ParkedQueue {
    /// Arrival order: sequence number → entry.
    order: BTreeMap<u64, (AppId, ParkReason)>,
    /// Per-reason arrival order (`[Waiting, Interrupted]`).
    by_reason: [BTreeSet<(u64, AppId)>; 2],
    /// Membership: application → its live entry.
    index: BTreeMap<AppId, (u64, ParkReason)>,
    /// Next arrival sequence number (never reused).
    next_seq: u64,
}

impl ParkedQueue {
    fn slot(reason: ParkReason) -> usize {
        match reason {
            ParkReason::Waiting => 0,
            ParkReason::Interrupted => 1,
        }
    }

    /// Appends an application, keeping the earliest entry on duplicates.
    /// Returns whether it was actually inserted.
    pub(crate) fn push_back(&mut self, app: AppId, reason: ParkReason) -> bool {
        if self.index.contains_key(&app) {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, (app, reason));
        self.by_reason[Self::slot(reason)].insert((seq, app));
        self.index.insert(app, (seq, reason));
        true
    }

    /// Drops an application's entry; returns whether it was present.
    pub(crate) fn remove(&mut self, app: AppId) -> bool {
        let Some((seq, reason)) = self.index.remove(&app) else {
            return false;
        };
        self.order.remove(&seq);
        self.by_reason[Self::slot(reason)].remove(&(seq, app));
        true
    }

    pub(crate) fn contains(&self, app: AppId) -> bool {
        self.index.contains_key(&app)
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Entries in arrival order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (AppId, ParkReason)> + '_ {
        self.order.values().copied()
    }

    /// The earliest-parked application, if any.
    pub(crate) fn first(&self) -> Option<AppId> {
        self.order.values().next().map(|(a, _)| *a)
    }

    /// The earliest-parked application with the given reason, if any.
    pub(crate) fn first_with(&self, reason: ParkReason) -> Option<AppId> {
        self.by_reason[Self::slot(reason)].first().map(|(_, a)| *a)
    }

    /// Number of parked applications with the given reason — `O(1)`, no
    /// queue scan.
    pub(crate) fn len_with(&self, reason: ParkReason) -> usize {
        self.by_reason[Self::slot(reason)].len()
    }
}

/// Read-only snapshot of the arbiter's state, handed to every policy
/// decision point.
///
/// The view borrows the arbiter's own structures — building it costs
/// nothing — and exposes exactly what a distributed implementation could
/// know: who holds the file system, who is queued (and why), which
/// accessors have been asked to yield, the latest [`IoInfo`] each
/// application shared, and the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterView<'a> {
    pub(crate) active: &'a BTreeSet<AppId>,
    pub(crate) parked: &'a ParkedQueue,
    pub(crate) interrupt_requested: &'a BTreeSet<AppId>,
    pub(crate) info: &'a BTreeMap<AppId, IoInfo>,
    pub(crate) now: SimTime,
    pub(crate) messages: u64,
}

impl ArbiterView<'_> {
    /// Applications currently granted access, in id order.
    pub fn active(&self) -> impl Iterator<Item = AppId> + '_ {
        self.active.iter().copied()
    }

    /// Number of applications currently granted access.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Parked applications with the reason they parked, in queue
    /// (arrival) order.
    pub fn parked(&self) -> impl Iterator<Item = (AppId, ParkReason)> + '_ {
        self.parked.iter()
    }

    /// Number of parked applications.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// The earliest-parked application with the given reason, if any —
    /// `O(log n)`, no queue scan.
    pub fn parked_first_with(&self, reason: ParkReason) -> Option<AppId> {
        self.parked.first_with(reason)
    }

    /// Number of parked applications with the given reason — the queue
    /// depth a load-aware policy (or the hierarchical root arbiter)
    /// reads on every decision, so it avoids the [`parked`](Self::parked)
    /// scan.
    pub fn parked_len_with(&self, reason: ParkReason) -> usize {
        self.parked.len_with(reason)
    }

    /// Whether the given accessor has a pending interruption request (it
    /// will be asked to yield at its next coordination point under the
    /// default [`ArbitrationPolicy::on_yield`]).
    pub fn interrupt_requested(&self, app: AppId) -> bool {
        self.interrupt_requested.contains(&app)
    }

    /// Latest information the application shared, if any.
    pub fn info_for(&self, app: AppId) -> Option<&IoInfo> {
        self.info.get(&app)
    }

    /// The shared information of every *active* application that provided
    /// any, in id order — the "current accessors" input of the paper's
    /// dynamic decision.
    pub fn accessor_infos(&self) -> Vec<IoInfo> {
        self.active
            .iter()
            .filter_map(|a| self.info.get(a).cloned())
            .collect()
    }

    /// The simulated clock at the moment of the decision.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Coordination messages exchanged so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// What to do with an application that asked for access while others hold
/// (or wait for) the file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestDecision {
    /// Let it in immediately, overlapping the current accessors
    /// (interference).
    Admit,
    /// Park it until a release or yield hands it the slot (FCFS-style
    /// serialization).
    Queue,
    /// Park it, but promise a grant after at most this many seconds (the
    /// bounded-delay trade-off; the driver arms a timeout that ends in
    /// [`ArbitrationPolicy::on_delay_expired`]).
    QueueWithTimeout {
        /// Maximum seconds the newcomer is willing to wait.
        max_wait_secs: f64,
    },
    /// Park it and ask every current accessor to yield at its next
    /// coordination point (interruption-based serialization).
    QueueAndInterrupt,
}

/// What an accessor should do at a coordination point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldDecision {
    /// Keep going.
    Continue,
    /// Pause here; the application is parked as
    /// [`ParkReason::Interrupted`] and resumed by a later grant.
    Yield,
}

/// Why the arbiter is about to hand the freed slot to a parked
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantTrigger {
    /// An accessor yielded at a coordination point.
    Yielded,
    /// An accessor released at the end of its phase.
    Released,
}

/// What to do when a bounded-delay budget expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutDecision {
    /// Force the grant through: the application proceeds, overlapping the
    /// current accessors.
    ForceGrant,
    /// Keep the application queued after all (the promise is withdrawn;
    /// it will be granted by a later release/yield).
    KeepWaiting,
}

/// A cross-application I/O arbitration policy: the pluggable brain of the
/// [`Arbiter`](crate::Arbiter).
///
/// The mechanism engine calls the policy at every decision point with a
/// read-only [`ArbiterView`]; the policy answers with a typed decision and
/// the engine performs the bookkeeping (parking, interrupt flags, grants,
/// message accounting). Policies may keep internal state (`&mut self`);
/// [`ArbitrationPolicy::on_grant`] notifies them of every grant so
/// stateful schedules (quanta, histories) stay in sync.
///
/// See the [module docs](self) for a complete ≤ 30-line example.
pub trait ArbitrationPolicy: std::fmt::Debug + Send {
    /// The serializable name-plus-parameters description of this policy.
    /// [`ArbitrationPolicy::label`] (derived from it) is used in figure
    /// series, trace headers and experiment output.
    fn spec(&self) -> PolicySpec;

    /// Display label carrying the parameters, e.g. `delay(30s)` or
    /// `priority(w=cores)`. Defaults to the spec's text form.
    fn label(&self) -> String {
        self.spec().to_text()
    }

    /// Whether the policy requires cross-application coordination (only
    /// plain interference does not).
    fn needs_coordination(&self) -> bool {
        true
    }

    /// A newcomer asked for access while the file system is not free.
    /// (When nobody is active *and* nobody is parked the engine grants
    /// immediately without consulting the policy.)
    fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision;

    /// An active application reached a coordination point. The default
    /// honours the pending interruption requests raised by
    /// [`RequestDecision::QueueAndInterrupt`]; time-sliced policies
    /// override this to preempt on their own schedule.
    fn on_yield(&mut self, app: AppId, view: &ArbiterView<'_>) -> YieldDecision {
        if view.interrupt_requested(app) {
            YieldDecision::Yield
        } else {
            YieldDecision::Continue
        }
    }

    /// The file system is free and parked applications wait: pick who goes
    /// next. Returning `None` (or an application that is not parked)
    /// falls back to the default order. The default implements the
    /// paper's rule: a yield hands the slot to the earliest *waiting*
    /// newcomer, a release resumes the earliest *interrupted* application
    /// first.
    fn select_next(&mut self, trigger: GrantTrigger, view: &ArbiterView<'_>) -> Option<AppId> {
        let prefer = match trigger {
            GrantTrigger::Yielded => ParkReason::Waiting,
            GrantTrigger::Released => ParkReason::Interrupted,
        };
        view.parked_first_with(prefer)
            .or_else(|| view.parked().next().map(|(a, _)| a))
    }

    /// A [`RequestDecision::QueueWithTimeout`] budget expired while the
    /// application is still parked. The default forces the grant through.
    fn on_delay_expired(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> TimeoutDecision {
        TimeoutDecision::ForceGrant
    }

    /// Notification: `app` was just granted access (immediately, from the
    /// queue, or by force). Stateful policies update their bookkeeping
    /// here; the default does nothing.
    fn on_grant(&mut self, _app: AppId, _view: &ArbiterView<'_>) {}

    /// Clones the policy behind the trait object (the `Arbiter` is
    /// `Clone`). Implement as `Box::new(self.clone())`.
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy>;
}

impl Clone for Box<dyn ArbitrationPolicy> {
    fn clone(&self) -> Self {
        self.clone_policy()
    }
}

/// A problem naming, parsing, or instantiating an arbitration policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The spec text was not `name` or `name(arg)`.
    Malformed(String),
    /// No registered policy has this name.
    Unknown(String),
    /// The argument was rejected by the named policy's codec.
    InvalidArg {
        /// The policy name.
        name: String,
        /// The rejected argument text.
        arg: String,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Malformed(text) => {
                write!(
                    f,
                    "malformed policy spec '{text}' (expected name or name(arg))"
                )
            }
            PolicyError::Unknown(name) => write!(f, "unknown policy '{name}'"),
            PolicyError::InvalidArg { name, arg } => {
                write!(f, "invalid argument '{arg}' for policy '{name}'")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Serializable `name(arg)` description of a policy — the unit the
/// [`PolicyRegistry`] instantiates, the [`Scenario`](crate::Scenario)
/// codec stores, and the bench CLI's `--policy` flag parses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolicySpec {
    /// Registered policy name (e.g. `fcfs`, `rr`).
    pub name: String,
    /// Optional argument text (the part inside parentheses), interpreted
    /// by the policy's own codec.
    pub arg: Option<String>,
}

impl PolicySpec {
    /// A spec with no argument.
    pub fn new(name: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            arg: None,
        }
    }

    /// A spec with an argument.
    pub fn with_arg(name: impl Into<String>, arg: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            arg: Some(arg.into()),
        }
    }

    /// The canonical text form: `name` or `name(arg)`.
    pub fn to_text(&self) -> String {
        match &self.arg {
            None => self.name.clone(),
            Some(arg) => format!("{}({arg})", self.name),
        }
    }

    /// Parses the form produced by [`PolicySpec::to_text`]. The name may
    /// contain letters, digits and dashes; the argument is everything
    /// between the outer parentheses (no nesting).
    pub fn from_text(text: &str) -> Result<PolicySpec, PolicyError> {
        let text = text.trim();
        let malformed = || PolicyError::Malformed(text.to_string());
        let valid_name =
            |n: &str| !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '-');
        match text.split_once('(') {
            None => {
                if !valid_name(text) {
                    return Err(malformed());
                }
                Ok(PolicySpec::new(text))
            }
            Some((name, rest)) => {
                let arg = rest.strip_suffix(')').ok_or_else(malformed)?;
                if !valid_name(name) || arg.contains('(') || arg.contains(')') {
                    return Err(malformed());
                }
                Ok(PolicySpec::with_arg(name, arg))
            }
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Formats a number of seconds as the `<secs>s` argument used by the
/// time-parameterized policy codecs (shortest float representation:
/// `delay(30s)`, `rr(0.5s)`).
pub fn secs_to_arg(secs: f64) -> String {
    format!("{secs}s")
}

/// Parses a `<secs>s` (or bare `<secs>`) argument.
pub fn arg_to_secs(arg: &str) -> Option<f64> {
    let digits = arg.strip_suffix('s').unwrap_or(arg);
    let secs: f64 = digits.trim().parse().ok()?;
    (secs.is_finite() && secs >= 0.0).then_some(secs)
}

// ---------------------------------------------------------------------------
// Built-in policies: the five legacy strategies.
// ---------------------------------------------------------------------------

/// No coordination: every newcomer is admitted immediately
/// ([`Strategy::Interfere`]).
#[derive(Debug, Clone, Default)]
pub struct Interfere;

impl ArbitrationPolicy for Interfere {
    fn spec(&self) -> PolicySpec {
        PolicySpec::new("interfering")
    }
    fn needs_coordination(&self) -> bool {
        false
    }
    fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
        RequestDecision::Admit
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// First-come-first-served serialization ([`Strategy::FcfsSerialize`]).
#[derive(Debug, Clone, Default)]
pub struct FcfsSerialize;

impl ArbitrationPolicy for FcfsSerialize {
    fn spec(&self) -> PolicySpec {
        PolicySpec::new("fcfs")
    }
    fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
        RequestDecision::Queue
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// Interruption-based serialization: every newcomer preempts the current
/// accessors at their next coordination point ([`Strategy::Interrupt`]).
#[derive(Debug, Clone, Default)]
pub struct Interrupt;

impl ArbitrationPolicy for Interrupt {
    fn spec(&self) -> PolicySpec {
        PolicySpec::new("interrupt")
    }
    fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
        RequestDecision::QueueAndInterrupt
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// Bounded delay: wait for the accessor, but at most `max_wait_secs`,
/// then overlap ([`Strategy::Delay`], Fig. 12).
#[derive(Debug, Clone)]
pub struct BoundedDelay {
    /// Maximum seconds a newcomer waits before overlapping.
    pub max_wait_secs: f64,
}

impl ArbitrationPolicy for BoundedDelay {
    fn spec(&self) -> PolicySpec {
        PolicySpec::with_arg("delay", secs_to_arg(self.max_wait_secs))
    }
    fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
        RequestDecision::QueueWithTimeout {
            max_wait_secs: self.max_wait_secs,
        }
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// The paper's dynamic choice: minimize the extra cost each option adds
/// to a machine-wide efficiency metric, computed from the exchanged
/// [`IoInfo`] ([`Strategy::Dynamic`], wrapping [`DynamicPolicy`]).
#[derive(Debug, Clone)]
pub struct DynamicMinCost {
    /// The cost model (metric + interference-estimate configuration).
    pub policy: DynamicPolicy,
}

impl ArbitrationPolicy for DynamicMinCost {
    fn spec(&self) -> PolicySpec {
        // The canonical configuration (CPU·seconds, no interference
        // estimate) keeps the historical argument-less name so legacy
        // labels and series stay stable.
        if self.policy == DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted) {
            PolicySpec::new("calciom-dynamic")
        } else {
            PolicySpec::with_arg("calciom-dynamic", self.policy.metric.label())
        }
    }
    fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision {
        let Some(requester) = view.info_for(app).cloned() else {
            // Without information, fall back to FCFS — the conservative
            // choice.
            return RequestDecision::Queue;
        };
        match self.policy.decide(&requester, &view.accessor_infos()) {
            DynDecision::Interfere => RequestDecision::Admit,
            DynDecision::WaitFcfs => RequestDecision::Queue,
            DynDecision::InterruptAccessors => RequestDecision::QueueAndInterrupt,
        }
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// New policies the closed enum could not express.
// ---------------------------------------------------------------------------

/// Weighted priority: an application's priority is its core count. A
/// newcomer that outweighs every current accessor preempts them; the
/// freed slot always goes to the heaviest parked application (earliest
/// arrival breaks ties). Inexpressible with the closed enum: the
/// decision is a function of the exchanged core counts, not of a fixed
/// serialization rule.
#[derive(Debug, Clone, Default)]
pub struct WeightedPriority;

impl WeightedPriority {
    fn procs(view: &ArbiterView<'_>, app: AppId) -> u32 {
        view.info_for(app).map(|i| i.procs).unwrap_or(0)
    }
}

impl ArbitrationPolicy for WeightedPriority {
    fn spec(&self) -> PolicySpec {
        PolicySpec::with_arg("priority", "w=cores")
    }
    fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision {
        let mine = Self::procs(view, app);
        let heaviest_accessor = view.active().map(|a| Self::procs(view, a)).max();
        match heaviest_accessor {
            Some(theirs) if mine > theirs => RequestDecision::QueueAndInterrupt,
            _ => RequestDecision::Queue,
        }
    }
    fn select_next(&mut self, _trigger: GrantTrigger, view: &ArbiterView<'_>) -> Option<AppId> {
        // Heaviest parked application; the queue position (arrival order)
        // breaks ties — `Reverse(idx)` makes the earliest arrival win
        // among equal weights under `max_by_key`'s last-wins tie rule.
        view.parked()
            .enumerate()
            .max_by_key(|&(idx, (a, _))| (Self::procs(view, a), std::cmp::Reverse(idx)))
            .map(|(_, (a, _))| a)
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// Shortest-remaining-phase-first: clairvoyant from the exchanged
/// [`IoInfo`] stand-alone estimates. A newcomer whose whole phase is
/// shorter than every accessor's *remaining* work preempts; the freed
/// slot goes to the parked application with the least remaining work.
/// Inexpressible with the closed enum: it orders the queue by a live,
/// exchanged quantity.
#[derive(Debug, Clone, Default)]
pub struct ShortestRemainingFirst;

impl ShortestRemainingFirst {
    fn remaining(view: &ArbiterView<'_>, app: AppId) -> f64 {
        view.info_for(app)
            .map(|i| i.est_alone_remaining_secs)
            .unwrap_or(f64::INFINITY)
    }
}

impl ArbitrationPolicy for ShortestRemainingFirst {
    fn spec(&self) -> PolicySpec {
        PolicySpec::new("srpf")
    }
    fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision {
        let mine = view
            .info_for(app)
            .map(|i| i.est_alone_total_secs)
            .unwrap_or(f64::INFINITY);
        let preempts = view
            .active()
            .all(|a| mine < Self::remaining(view, a) && mine.is_finite());
        if preempts {
            RequestDecision::QueueAndInterrupt
        } else {
            RequestDecision::Queue
        }
    }
    fn select_next(&mut self, _trigger: GrantTrigger, view: &ArbiterView<'_>) -> Option<AppId> {
        view.parked().map(|(a, _)| a).min_by(|&x, &y| {
            Self::remaining(view, x)
                .total_cmp(&Self::remaining(view, y))
                .then(x.0.cmp(&y.0))
        })
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// Round-robin quantum serialization: accessors run one at a time, but an
/// accessor that has held the file system longer than the quantum yields
/// at its next coordination point whenever somebody is queued; the queue
/// is served strictly in FIFO order, and a preempted application goes to
/// the back. Inexpressible with the closed enum: yields are driven by
/// the clock, not by interruption requests.
#[derive(Debug, Clone)]
pub struct RoundRobinQuantum {
    /// The time slice, in seconds.
    pub quantum_secs: f64,
    granted_at: BTreeMap<AppId, SimTime>,
}

impl RoundRobinQuantum {
    /// A round-robin policy with the given time slice.
    pub fn new(quantum_secs: f64) -> Self {
        RoundRobinQuantum {
            quantum_secs,
            granted_at: BTreeMap::new(),
        }
    }
}

impl ArbitrationPolicy for RoundRobinQuantum {
    fn spec(&self) -> PolicySpec {
        PolicySpec::with_arg("rr", secs_to_arg(self.quantum_secs))
    }
    fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
        RequestDecision::Queue
    }
    fn on_yield(&mut self, app: AppId, view: &ArbiterView<'_>) -> YieldDecision {
        if view.parked_len() == 0 {
            return YieldDecision::Continue;
        }
        let held = match self.granted_at.get(&app) {
            Some(&since) => view.now().saturating_since(since).as_secs(),
            None => 0.0,
        };
        if held >= self.quantum_secs {
            YieldDecision::Yield
        } else {
            YieldDecision::Continue
        }
    }
    fn select_next(&mut self, _trigger: GrantTrigger, view: &ArbiterView<'_>) -> Option<AppId> {
        // Strict FIFO: preempted applications re-queue at the back.
        view.parked().next().map(|(a, _)| a)
    }
    fn on_grant(&mut self, app: AppId, view: &ArbiterView<'_>) {
        self.granted_at.insert(app, view.now());
    }
    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

/// Builds the built-in policy corresponding to a legacy [`Strategy`] —
/// the compatibility shim [`Arbiter::new`](crate::Arbiter::new) and the
/// scenario runner use. `dynamic` configures [`DynamicMinCost`] and is
/// ignored by the other strategies.
pub fn builtin_policy(strategy: Strategy, dynamic: DynamicPolicy) -> Box<dyn ArbitrationPolicy> {
    match strategy {
        Strategy::Interfere => Box::new(Interfere),
        Strategy::FcfsSerialize => Box::new(FcfsSerialize),
        Strategy::Interrupt => Box::new(Interrupt),
        Strategy::Delay { max_wait_secs } => Box::new(BoundedDelay { max_wait_secs }),
        Strategy::Dynamic => Box::new(DynamicMinCost { policy: dynamic }),
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

type PolicyBuilder =
    fn(&PolicySpec, &DynamicPolicy) -> Result<Box<dyn ArbitrationPolicy>, PolicyError>;

struct RegistryEntry {
    name: &'static str,
    description: &'static str,
    build: PolicyBuilder,
}

/// Name-indexed factory of [`ArbitrationPolicy`] instances, in the same
/// spirit as the experiment registry: scenarios, sweeps and the bench CLI
/// resolve policies by [`PolicySpec`] through one of these.
///
/// [`PolicyRegistry::standard`] knows the five built-in (legacy) policies
/// and the three extended ones; [`PolicyRegistry::register`] adds custom
/// entries.
pub struct PolicyRegistry {
    entries: Vec<RegistryEntry>,
}

fn no_arg(spec: &PolicySpec) -> Result<(), PolicyError> {
    match &spec.arg {
        None => Ok(()),
        Some(arg) => Err(PolicyError::InvalidArg {
            name: spec.name.clone(),
            arg: arg.clone(),
        }),
    }
}

fn secs_arg(spec: &PolicySpec, default: f64) -> Result<f64, PolicyError> {
    match &spec.arg {
        None => Ok(default),
        Some(arg) => arg_to_secs(arg).ok_or_else(|| PolicyError::InvalidArg {
            name: spec.name.clone(),
            arg: arg.clone(),
        }),
    }
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PolicyRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry: the five built-in policies under their
    /// legacy names plus the three extended ones.
    pub fn standard() -> Self {
        let mut registry = PolicyRegistry::new();
        registry.register(
            "interfering",
            "no coordination: concurrent access (the paper's baseline)",
            |spec, _| {
                no_arg(spec)?;
                Ok(Box::new(Interfere))
            },
        );
        registry.register(
            "fcfs",
            "first-come-first-served serialization",
            |spec, _| {
                no_arg(spec)?;
                Ok(Box::new(FcfsSerialize))
            },
        );
        registry.register(
            "interrupt",
            "newcomers preempt accessors at their next coordination point",
            |spec, _| {
                no_arg(spec)?;
                Ok(Box::new(Interrupt))
            },
        );
        registry.register(
            "delay",
            "bounded delay: wait at most <secs>s, then overlap (delay(30s))",
            |spec, _| {
                Ok(Box::new(BoundedDelay {
                    max_wait_secs: secs_arg(spec, 30.0)?,
                }))
            },
        );
        registry.register(
            "calciom-dynamic",
            "paper's dynamic min-cost choice; optional metric argument",
            |spec, dynamic| {
                let policy = match &spec.arg {
                    None => *dynamic,
                    Some(arg) => DynamicPolicy {
                        metric: EfficiencyMetric::from_label(arg).ok_or_else(|| {
                            PolicyError::InvalidArg {
                                name: spec.name.clone(),
                                arg: arg.clone(),
                            }
                        })?,
                        ..*dynamic
                    },
                };
                Ok(Box::new(DynamicMinCost { policy }))
            },
        );
        registry.register(
            "priority",
            "weighted priority: bigger jobs (more cores) preempt (priority(w=cores))",
            |spec, _| match spec.arg.as_deref() {
                None | Some("w=cores") => Ok(Box::new(WeightedPriority)),
                Some(arg) => Err(PolicyError::InvalidArg {
                    name: spec.name.clone(),
                    arg: arg.to_string(),
                }),
            },
        );
        registry.register(
            "srpf",
            "shortest-remaining-phase-first, clairvoyant from the exchanged IoInfo",
            |spec, _| {
                no_arg(spec)?;
                Ok(Box::new(ShortestRemainingFirst))
            },
        );
        registry.register(
            "rr",
            "round-robin quantum serialization with FIFO requeue (rr(10s))",
            |spec, _| Ok(Box::new(RoundRobinQuantum::new(secs_arg(spec, 10.0)?))),
        );
        registry
    }

    /// Registers a named policy builder. Panics on a duplicate name —
    /// names are the lookup key of the codec.
    pub fn register(
        &mut self,
        name: &'static str,
        description: &'static str,
        build: PolicyBuilder,
    ) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "duplicate policy name '{name}'"
        );
        self.entries.push(RegistryEntry {
            name,
            description,
            build,
        });
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// One-line description of a registered policy.
    pub fn description(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.description)
    }

    /// Instantiates the policy a spec names. `dynamic` is the cost-model
    /// context `calciom-dynamic` inherits when the spec does not override
    /// the metric (scenarios pass their `policy` field here).
    pub fn build(
        &self,
        spec: &PolicySpec,
        dynamic: &DynamicPolicy,
    ) -> Result<Box<dyn ArbitrationPolicy>, PolicyError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == spec.name)
            .ok_or_else(|| PolicyError::Unknown(spec.name.clone()))?;
        (entry.build)(spec, dynamic)
    }

    /// Parses a spec string and instantiates it in one step — the entry
    /// point of the bench CLI's `--policy` flag.
    pub fn build_text(
        &self,
        text: &str,
        dynamic: &DynamicPolicy,
    ) -> Result<Box<dyn ArbitrationPolicy>, PolicyError> {
        self.build(&PolicySpec::from_text(text)?, dynamic)
    }

    /// Canonical example specs, one per registered policy, with the
    /// time-parameterized ones at representative values. Round-tripping
    /// these through [`PolicyRegistry::build`] + [`ArbitrationPolicy::spec`]
    /// is the codec property the test suite pins.
    pub fn canonical_specs(&self) -> Vec<PolicySpec> {
        self.entries
            .iter()
            .map(|e| match e.name {
                "delay" => PolicySpec::with_arg("delay", "30s"),
                "rr" => PolicySpec::with_arg("rr", "10s"),
                "priority" => PolicySpec::with_arg("priority", "w=cores"),
                name => PolicySpec::new(name),
            })
            .collect()
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        PolicyRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_text_round_trips() {
        for spec in [
            PolicySpec::new("fcfs"),
            PolicySpec::with_arg("delay", "30s"),
            PolicySpec::with_arg("priority", "w=cores"),
            PolicySpec::with_arg("rr", "0.5s"),
        ] {
            assert_eq!(PolicySpec::from_text(&spec.to_text()).unwrap(), spec);
        }
    }

    #[test]
    fn parked_queue_depths_are_tracked_per_reason() {
        let mut parked = ParkedQueue::default();
        parked.push_back(AppId(0), ParkReason::Waiting);
        parked.push_back(AppId(1), ParkReason::Interrupted);
        parked.push_back(AppId(2), ParkReason::Waiting);
        let active = BTreeSet::new();
        let interrupts = BTreeSet::new();
        let info = BTreeMap::new();
        let view = ArbiterView {
            active: &active,
            parked: &parked,
            interrupt_requested: &interrupts,
            info: &info,
            now: SimTime::ZERO,
            messages: 0,
        };
        assert_eq!(view.parked_len(), 3);
        assert_eq!(view.parked_len_with(ParkReason::Waiting), 2);
        assert_eq!(view.parked_len_with(ParkReason::Interrupted), 1);
        parked.remove(AppId(1));
        assert_eq!(parked.len_with(ParkReason::Interrupted), 0);
        assert_eq!(parked.len_with(ParkReason::Waiting), 2);
    }

    #[test]
    fn spec_parse_rejects_malformed_text() {
        for bad in ["", "delay(30s", "delay)30s(", "a b", "x((y))", "n(a)b"] {
            assert!(
                matches!(PolicySpec::from_text(bad), Err(PolicyError::Malformed(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn secs_codec_round_trips_shortest_repr() {
        for secs in [0.0, 0.125, 2.0, 30.0, 1e6] {
            assert_eq!(arg_to_secs(&secs_to_arg(secs)), Some(secs));
        }
        assert_eq!(arg_to_secs("5"), Some(5.0));
        assert_eq!(arg_to_secs("-1s"), None);
        assert_eq!(arg_to_secs("NaNs"), None);
        assert_eq!(arg_to_secs("soon"), None);
    }

    #[test]
    fn registry_builds_every_canonical_spec() {
        let registry = PolicyRegistry::standard();
        assert_eq!(registry.names().len(), 8);
        let dynamic = DynamicPolicy::default();
        for spec in registry.canonical_specs() {
            let policy = registry.build(&spec, &dynamic).unwrap_or_else(|e| {
                panic!("canonical spec {spec} must build: {e}");
            });
            assert_eq!(policy.spec(), spec, "spec must round-trip through build");
            assert_eq!(policy.label(), spec.to_text());
            assert!(
                registry.description(&spec.name).is_some(),
                "{spec}: missing description"
            );
        }
    }

    #[test]
    fn registry_rejects_unknown_names_and_bad_args() {
        let registry = PolicyRegistry::standard();
        let dynamic = DynamicPolicy::default();
        assert_eq!(
            registry
                .build(&PolicySpec::new("warp"), &dynamic)
                .unwrap_err(),
            PolicyError::Unknown("warp".into())
        );
        for (name, arg) in [
            ("fcfs", "x"),
            ("delay", "soon"),
            ("rr", "fast"),
            ("priority", "w=bytes"),
            ("calciom-dynamic", "warp-metric"),
        ] {
            assert!(
                matches!(
                    registry.build(&PolicySpec::with_arg(name, arg), &dynamic),
                    Err(PolicyError::InvalidArg { .. })
                ),
                "{name}({arg}) must be rejected"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate policy name")]
    fn duplicate_registration_panics() {
        let mut registry = PolicyRegistry::standard();
        registry.register("fcfs", "again", |spec, _| {
            no_arg(spec)?;
            Ok(Box::new(FcfsSerialize))
        });
    }

    #[test]
    fn builtin_policies_match_their_strategies() {
        let dynamic = DynamicPolicy::default();
        for (strategy, name) in [
            (Strategy::Interfere, "interfering"),
            (Strategy::FcfsSerialize, "fcfs"),
            (Strategy::Interrupt, "interrupt"),
            (Strategy::Delay { max_wait_secs: 2.0 }, "delay"),
            (Strategy::Dynamic, "calciom-dynamic"),
        ] {
            let policy = builtin_policy(strategy, dynamic);
            assert_eq!(policy.spec().name, name);
            assert_eq!(policy.needs_coordination(), strategy.needs_coordination());
            assert_eq!(policy.label(), strategy.label());
        }
        assert_eq!(
            builtin_policy(Strategy::Delay { max_wait_secs: 2.0 }, dynamic).label(),
            "delay(2s)"
        );
    }

    #[test]
    fn dynamic_min_cost_spec_reflects_the_metric() {
        let canonical = DynamicMinCost {
            policy: DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        };
        assert_eq!(canonical.spec(), PolicySpec::new("calciom-dynamic"));
        let total = DynamicMinCost {
            policy: DynamicPolicy::new(EfficiencyMetric::TotalIoTime),
        };
        assert_eq!(
            total.spec(),
            PolicySpec::with_arg("calciom-dynamic", EfficiencyMetric::TotalIoTime.label())
        );
    }
}
