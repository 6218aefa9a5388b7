//! Coupled simulation of applications + CALCioM + parallel file system.
//!
//! A [`Session`] takes a [`Scenario`] — a set of applications (described
//! by [`mpiio::AppConfig`]), a file system configuration, and a CALCioM
//! [`Strategy`] — and plays out the whole run: each application walks its
//! I/O plan, issues coordination calls at its yield points, and submits
//! atomic writes to the shared [`pfs::Pfs`]. The result is a
//! [`SessionReport`] with per-application, per-phase timings from which the
//! experiment harnesses compute write times, interference factors, and
//! machine-wide efficiency metrics.
//!
//! Execution is founded on the [`simcore::Kernel`]: the kernel owns the
//! simulated clock, couples the session's discrete events (phase arrivals,
//! communication completions, resume notifications, delay-budget expiries)
//! with the file system's continuous evolution (transfer completions,
//! cache transitions — [`Pfs`] is the kernel's
//! [`Medium`](simcore::Medium)), and hands each decision point back to the
//! session's event handlers. Arbiter decisions are taken inside those
//! handlers; nothing outside the kernel advances time.
//!
//! The session reaches the shared [`Arbiter`] through a
//! [`CoordinationTransport`]: [`LocalTransport`] (the default) for flat
//! scenarios, [`ClusterTransport`](crate::ClusterTransport) for scenarios
//! carrying an arbiter tree — [`Scenario::run_with`] picks between the
//! two, and parallel drivers (the `iobench` sweeps) call it on the thread
//! that runs each session. The simulation itself is deterministic —
//! integer-tick clock, no randomness — so the transport never changes the
//! report.
//!
//! Execution is *observable*: [`Session::execute_with`] streams every
//! [`SimEvent`] (phase boundaries, arbiter decisions, transfer
//! starts/progress/completions) to a [`SimObserver`], and the
//! [`SessionReport`] itself is folded from that very stream by a
//! [`ReportBuilder`] — a recorded
//! [`Trace`](crate::Trace) therefore replays to the exact same report.

use crate::api::{CoordinationTransport, LocalTransport};
use crate::arbiter::Arbiter;
use crate::error::{AppRunState, DeadlockApp, Error, SessionError};
use crate::info::IoInfo;
use crate::metrics::{AppObservation, EfficiencyMetric};
use crate::observe::{GrantKind, NullObserver, ReportBuilder, SimEvent, SimObserver};
use crate::scenario::Scenario;
use crate::strategy::{AccessOutcome, Strategy, YieldOutcome};
use mpiio::{AppConfig, Granularity, IoPlan, StepKind};
use pfs::{AppId, Pfs, PfsConfig, TransferId};
use simcore::fair::SharingModel;
use simcore::kernel::Kernel;
use simcore::time::{SimDuration, SimTime};
use simcore::Work;
use std::collections::{BTreeMap, BTreeSet};

/// Timing of one I/O phase of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseResult {
    /// Which application.
    pub app: AppId,
    /// Phase index (0-based).
    pub phase: u32,
    /// When the application wanted to start the phase.
    pub requested_start: SimTime,
    /// When it actually executed its first step (after any waiting).
    pub io_start: SimTime,
    /// When the phase completed.
    pub end: SimTime,
    /// Bytes written to the file system in this phase.
    pub bytes: f64,
    /// Time spent in collective-buffering communication steps.
    pub comm_seconds: f64,
    /// Time spent with a write transfer in flight.
    pub write_seconds: f64,
    /// Time spent blocked by coordination (waiting or interrupted).
    pub wait_seconds: f64,
}

impl PhaseResult {
    /// Observed I/O time of the phase: from the moment the application
    /// wanted to do I/O until the phase completed. This is the quantity the
    /// paper plots as "write time" (a serialized application's wait counts
    /// against it).
    pub fn io_time(&self) -> f64 {
        self.end.saturating_since(self.requested_start).as_secs()
    }

    /// Time from the first executed step to completion (excludes the
    /// initial wait).
    pub fn active_time(&self) -> f64 {
        self.end.saturating_since(self.io_start).as_secs()
    }

    /// Observed throughput over the phase (bytes / io_time).
    pub fn throughput(&self) -> f64 {
        let t = self.io_time();
        if t <= 0.0 {
            0.0
        } else {
            self.bytes / t
        }
    }
}

/// All phases of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Which application.
    pub app: AppId,
    /// Its display name.
    pub name: String,
    /// Number of processes it runs on.
    pub procs: u32,
    /// Analytic stand-alone estimate for one phase (seconds).
    pub alone_estimate_secs: f64,
    /// Per-phase results, in phase order.
    pub phases: Vec<PhaseResult>,
}

impl AppReport {
    /// Total observed I/O time across phases.
    pub fn total_io_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.io_time()).sum()
    }

    /// The first phase (most experiments use exactly one phase).
    pub fn first_phase(&self) -> &PhaseResult {
        &self.phases[0]
    }

    /// Throughput of each phase, in phase order (Fig. 3's per-iteration
    /// series).
    pub fn phase_throughputs(&self) -> Vec<f64> {
        self.phases.iter().map(|p| p.throughput()).collect()
    }
}

/// The outcome of a session run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Strategy that was in force (the scenario's `strategy` field; see
    /// [`SessionReport::policy_label`] for the authoritative description
    /// when a named arbitration policy was used instead).
    pub strategy: Strategy,
    /// Parameter-carrying label of the arbitration in force (e.g.
    /// `delay(30s)`, `rr(10s)`) — [`Scenario::policy_label`] of the
    /// originating scenario.
    pub policy_label: String,
    /// Per-application reports, in the order the applications were given.
    pub apps: Vec<AppReport>,
    /// Number of coordination messages exchanged.
    pub coordination_messages: u64,
    /// Time at which the last application finished all of its phases.
    pub makespan: SimTime,
}

impl SessionReport {
    /// Report for a specific application.
    pub fn app(&self, id: AppId) -> Option<&AppReport> {
        self.apps.iter().find(|a| a.app == id)
    }

    /// Builds metric observations, one per application, using externally
    /// measured stand-alone times (first phase only).
    ///
    /// Degenerate inputs are well-defined rather than panics:
    ///
    /// * an application missing from `alone_seconds` falls back to its
    ///   analytic [`AppReport::alone_estimate_secs`];
    /// * a zero-duration first phase yields `io_seconds == 0.0` (and an
    ///   interference factor of 1, see
    ///   [`interference_factor`](crate::interference_factor));
    /// * an application that never completed a phase (possible only for
    ///   reports replayed from a truncated trace) is skipped.
    pub fn observations(&self, alone_seconds: &BTreeMap<AppId, f64>) -> Vec<AppObservation> {
        self.apps
            .iter()
            .filter_map(|a| {
                Some(AppObservation {
                    app: a.app,
                    procs: a.procs,
                    io_seconds: a.phases.first()?.io_time(),
                    alone_seconds: alone_seconds
                        .get(&a.app)
                        .copied()
                        .unwrap_or(a.alone_estimate_secs),
                })
            })
            .collect()
    }

    /// Evaluates a machine-wide metric over the first phase of every
    /// application. Degenerate inputs follow the conventions of
    /// [`SessionReport::observations`]; with no completed phases at all
    /// every metric evaluates to `0.0` (an empty sum).
    pub fn metric(&self, metric: EfficiencyMetric, alone_seconds: &BTreeMap<AppId, f64>) -> f64 {
        crate::metrics::evaluate(metric, &self.observations(alone_seconds))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtState {
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

impl RtState {
    /// The public mirror used by deadlock diagnostics.
    fn public(self) -> AppRunState {
        match self {
            RtState::Idle => AppRunState::Idle,
            RtState::WantAccess => AppRunState::WantAccess,
            RtState::Parked => AppRunState::Parked,
            RtState::Comm => AppRunState::Comm,
            RtState::Writing => AppRunState::Writing,
            RtState::Done => AppRunState::Done,
        }
    }
}

/// The session's event fan-out: every emission feeds the internal
/// [`ReportBuilder`] (the report *is* a fold of the stream) and the
/// caller-supplied observer.
struct Emitter<'a, O: SimObserver> {
    builder: ReportBuilder,
    observer: &'a mut O,
}

impl<O: SimObserver> Emitter<'_, O> {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        self.builder.on_event(at, &event);
        self.observer.on_event(at, &event);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    PhaseStart(AppId),
    CommDone(AppId),
    Resume(AppId),
    /// The bounded-delay budget of the given *phase*'s request expired.
    /// Tagging the phase keeps a stale timer (request granted normally,
    /// phase finished, next phase queued again) from force-granting a
    /// later request before its own budget.
    DelayExpired(AppId, u32),
}

struct AppRuntime {
    cfg: AppConfig,
    plan: IoPlan,
    phase: u32,
    step: usize,
    state: RtState,
    requested_start: SimTime,
    started: bool,
}

impl AppRuntime {
    fn new(cfg: AppConfig) -> Self {
        let plan = cfg.plan();
        let requested_start = cfg.start;
        AppRuntime {
            cfg,
            plan,
            phase: 0,
            step: 0,
            state: RtState::Idle,
            requested_start,
            started: false,
        }
    }

    fn reset_phase_accounting(&mut self, requested_start: SimTime) {
        self.step = 0;
        self.requested_start = requested_start;
        self.started = false;
    }

    fn current_io_info(&self, pfs_cfg: &PfsConfig, granularity: Granularity) -> IoInfo {
        // One derivation for every driver: the phase-start payload comes
        // from `IoInfo::at_phase_start` (the same constructor Coordinator
        // embeddings use), and only the mid-phase progress fields are
        // overwritten here.
        let bytes_remaining = self.plan.remaining_write_bytes_from(self.step);
        let alone_bw = self.cfg.alone_bandwidth(pfs_cfg).max(1.0);
        IoInfo {
            bytes_remaining,
            est_alone_remaining_secs: bytes_remaining / alone_bw,
            ..IoInfo::at_phase_start(&self.cfg, pfs_cfg, granularity)
        }
    }
}

/// The coupled simulator, generic over how it reaches the arbiter.
///
/// `Session<LocalTransport>` (the default) stays on its creating thread
/// and avoids the lock; [`Scenario::run_with`] builds the right session
/// for a scenario on the thread that executes it.
pub struct Session<T: CoordinationTransport = LocalTransport> {
    cfg: Scenario,
    transport: T,
    /// The discrete-event kernel: owns the clock, the event queue, and the
    /// file system (the continuous [`simcore::Medium`] it drives).
    kernel: Kernel<Event, Pfs>,
    apps: BTreeMap<AppId, AppRuntime>,
    transfer_owner: BTreeMap<TransferId, AppId>,
    /// Applications currently in `WantAccess`/`Parked` — the candidates
    /// [`Session::notify_granted`] must wake. Kept in sync with the
    /// per-app state by [`Session::set_state`].
    waiting: BTreeSet<AppId>,
    /// Applications that have not yet finished all of their phases.
    live_apps: usize,
}

impl Session<LocalTransport> {
    /// Builds a session from a validated scenario on the in-process
    /// transport.
    pub fn new(scenario: &Scenario) -> Result<Self, Error> {
        Session::with_transport(scenario)
    }

    /// Convenience: build and run in one call.
    pub fn run(scenario: &Scenario) -> Result<SessionReport, Error> {
        Session::new(scenario)?.execute()
    }

    /// Runs a single application alone on the given file system and returns
    /// the observed I/O time of its first phase — the `T_alone` baseline of
    /// the interference factor.
    pub fn run_alone(app: AppConfig, pfs_cfg: PfsConfig) -> Result<f64, Error> {
        let mut app = app;
        app.start = SimTime::ZERO;
        let report = Session::run(&Scenario::new(pfs_cfg, vec![app]))?;
        Ok(report.apps[0].first_phase().io_time())
    }
}

impl<T: CoordinationTransport> Session<T> {
    /// Builds a session from a validated scenario on an explicit transport
    /// type (e.g. [`ClusterTransport`](crate::ClusterTransport) for an
    /// arbiter tree).
    pub fn with_transport(scenario: &Scenario) -> Result<Self, Error> {
        scenario.validate_workload()?;
        let cfg = scenario.clone();
        let pfs = Pfs::with_medium(cfg.pfs.clone(), cfg.medium)?;
        // The one policy resolution of this session, for legacy
        // strategies and named policies alike.
        let arbiter = Arbiter::with_policy(cfg.build_policy()?);
        let transport = T::for_scenario(&cfg, arbiter)?;
        let mut kernel = Kernel::new(pfs);
        let mut apps = BTreeMap::new();
        for app_cfg in &cfg.apps {
            let rt = AppRuntime::new(app_cfg.clone());
            kernel.schedule(rt.requested_start, Event::PhaseStart(app_cfg.id));
            apps.insert(app_cfg.id, rt);
        }
        let live_apps = apps.len();
        Ok(Session {
            cfg,
            transport,
            kernel,
            apps,
            transfer_owner: BTreeMap::new(),
            waiting: BTreeSet::new(),
            live_apps,
        })
    }

    /// The transport this session coordinates through — e.g. to read a
    /// [`ClusterTransport`](crate::ClusterTransport)'s message-accounting
    /// stats after cloning it out (transports are shared handles).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Executes the scenario to completion, unobserved (the
    /// [`NullObserver`] short-circuits every observation hook).
    pub fn execute(self) -> Result<SessionReport, Error> {
        self.execute_with(&mut NullObserver)
    }

    /// Executes the scenario to completion, streaming every [`SimEvent`]
    /// to `observer` as it happens.
    ///
    /// The returned report is folded from the very same event stream by an
    /// internal [`ReportBuilder`], so whatever the observer recorded (a
    /// [`Trace`](crate::Trace), a timeline, …) can never disagree with the
    /// aggregate view.
    pub fn execute_with<O: SimObserver>(self, observer: &mut O) -> Result<SessionReport, Error> {
        self.execute_counted(observer).map(|(report, _)| report)
    }

    /// [`Session::execute_with`] that also returns the [`Work`] the
    /// session's kernel and file-system medium did — deterministic counts
    /// kept next to the report, not inside it, so report equality does
    /// not depend on them.
    pub fn execute_counted<O: SimObserver>(
        mut self,
        observer: &mut O,
    ) -> Result<(SessionReport, Work), Error> {
        // The default medium promises max-min results. The virtual-time
        // medium reproduces every discrete event bit for bit where it is
        // exact, but not the last ulps of the f64 progress samples, so a
        // run that samples progress goes to the max-min solver.
        if self.cfg.medium == SharingModel::Auto && observer.wants_progress() {
            let exact = self.kernel.medium_mut().use_max_min();
            debug_assert!(exact, "no write is submitted before execution");
        }
        let mut em = Emitter {
            builder: ReportBuilder::new(&self.cfg),
            observer,
        };
        let horizon = SimTime::ZERO + self.cfg.horizon;
        while self.live_apps > 0 {
            // The kernel owns time: the next decision point is the
            // earliest of its queue head (phase arrival, communication
            // completion, resume notification, delay-budget expiry), the
            // file system's next internal change (transfer completion,
            // cache transition), and the transport's own wakeup (an
            // in-flight cross-arbiter message arriving — `None` for flat
            // transports).
            let next = match (self.kernel.peek_next_time(), self.transport.next_wakeup()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
            let Some(next) = next else {
                // No decision point on either axis. If in-flight transfers
                // are starved at zero bandwidth (e.g. a zero-capacity
                // constraint), report that specifically: it is a file
                // system sizing problem, not a coordination deadlock.
                let stalled = self.kernel.medium_mut().stalled_transfers();
                if !stalled.is_empty() {
                    return Err(SessionError::StalledTransfer { transfers: stalled }.into());
                }
                let apps = self
                    .apps
                    .values()
                    .filter(|a| a.state != RtState::Done)
                    .map(|a| DeadlockApp {
                        app: a.cfg.id,
                        state: a.state.public(),
                        granted: self.transport.is_granted(a.cfg.id),
                    })
                    .collect();
                return Err(SessionError::Deadlock { apps }.into());
            };
            if next > horizon {
                return Err(SessionError::HorizonExceeded {
                    horizon: self.cfg.horizon,
                }
                .into());
            }

            self.kernel.advance_to(next);
            let now = self.kernel.now();

            // Handle write completions first: they may release the arbiter
            // slot that a queued event's application is waiting for.
            for tid in self.kernel.medium_mut().poll_completed() {
                if let Some(app) = self.transfer_owner.remove(&tid) {
                    self.on_write_complete(tid, app, now, &mut em);
                }
            }

            // Deliver cross-arbiter messages that have arrived by now (a
            // no-op for flat transports): applications granted end-to-end
            // by an arriving slot grant get their resume notifications
            // queued for this very step.
            for app in self.transport.deliver_due(now, &self.waiting) {
                self.kernel.schedule(now, Event::Resume(app));
            }

            // Handle all queued events due now (including events handlers
            // schedule at the present).
            while let Some(event) = self.kernel.pop_due() {
                self.on_event(event, now, &mut em);
            }

            // Sample in-flight transfers once the step settled: rates are
            // piecewise constant between loop iterations, so these samples
            // capture every bandwidth plateau.
            if em.observer.wants_progress() {
                for (&tid, &app) in &self.transfer_owner {
                    if let Some(p) = self.kernel.medium_mut().progress(tid) {
                        em.emit(
                            now,
                            SimEvent::TransferProgress {
                                app,
                                transfer: tid,
                                transferred: p.transferred,
                                rate: p.rate,
                            },
                        );
                    }
                }
            }
        }

        let makespan = self.kernel.now();
        em.emit(
            makespan,
            SimEvent::SessionEnded {
                makespan,
                coordination_messages: self.transport.message_count(),
            },
        );
        Ok((em.builder.finish(), self.kernel.work()))
    }

    /// The runtime of a registered application — the single justified
    /// panic behind every per-app lookup: ids only enter the event queue
    /// and the transfer-owner map from the scenario's own application
    /// list, which `with_transport` materialized into `apps`, and entries
    /// are never removed (a finished app parks as `RtState::Done`).
    fn rt_mut(&mut self, app: AppId) -> &mut AppRuntime {
        // simlint: allow(R4, ids originate from the scenario app list that populated the map and entries are never removed)
        self.apps.get_mut(&app).expect("known app")
    }

    fn on_event<O: SimObserver>(&mut self, event: Event, now: SimTime, em: &mut Emitter<'_, O>) {
        match event {
            Event::PhaseStart(app) => {
                let rt = self.rt_mut(app);
                if rt.state != RtState::Idle {
                    return;
                }
                em.emit(
                    now,
                    SimEvent::PhaseStarted {
                        app,
                        phase: rt.phase,
                    },
                );
                let rt = self.rt_mut(app);
                if rt.plan.is_empty() {
                    self.finish_phase(app, now, em);
                    return;
                }
                self.advance_app(app, now, em);
            }
            Event::CommDone(app) => {
                let rt = self.rt_mut(app);
                if rt.state != RtState::Comm {
                    return;
                }
                em.emit(now, SimEvent::CommCompleted { app });
                let rt = self.rt_mut(app);
                rt.step += 1;
                self.advance_app(app, now, em);
            }
            Event::Resume(app) => {
                let rt = self.rt_mut(app);
                if rt.state != RtState::WantAccess && rt.state != RtState::Parked {
                    return;
                }
                let was_parked = rt.state == RtState::Parked;
                if !self.transport.is_granted(app) {
                    return;
                }
                em.emit(
                    now,
                    if was_parked {
                        SimEvent::Resumed { app }
                    } else {
                        SimEvent::AccessGranted {
                            app,
                            grant: GrantKind::AfterWait,
                        }
                    },
                );
                self.execute_step(app, now, em);
            }
            Event::DelayExpired(app, phase) => {
                let rt = self.rt_mut(app);
                if rt.state != RtState::WantAccess || rt.phase != phase {
                    return;
                }
                // The timeout decision belongs to the policy: built-in
                // bounded delay always forces the grant through, but a
                // policy may keep the request queued instead — then the
                // application simply continues waiting for an ordinary
                // grant and no event is emitted.
                let proceed = self.transport.with_app(app, |arb| {
                    arb.set_now(now);
                    arb.delay_expired(app)
                });
                if !proceed {
                    return;
                }
                // A hierarchical transport may accept the forced grant at
                // the leaf while the machine still lacks its shared-PFS
                // slot: the application keeps waiting and resumes when the
                // slot arrives (flat transports are always granted here).
                if !self.transport.is_granted(app) {
                    return;
                }
                em.emit(
                    now,
                    SimEvent::AccessGranted {
                        app,
                        grant: GrantKind::DelayElapsed,
                    },
                );
                self.execute_step(app, now, em);
            }
        }
    }

    fn on_write_complete<O: SimObserver>(
        &mut self,
        tid: TransferId,
        app: AppId,
        now: SimTime,
        em: &mut Emitter<'_, O>,
    ) {
        let rt = self.rt_mut(app);
        if rt.state != RtState::Writing {
            return;
        }
        // simlint: allow(R4, a Writing app entered that state from execute_step on this very step)
        let bytes = match rt.plan.step(rt.step).copied().expect("step exists").kind {
            StepKind::Write { bytes } => bytes,
            // simlint: allow(R4, the Writing state is only entered from a Write step)
            StepKind::Comm { .. } => unreachable!("a writing app sits on a write step"),
        };
        em.emit(
            now,
            SimEvent::TransferCompleted {
                app,
                transfer: tid,
                bytes,
            },
        );
        let rt = self.rt_mut(app);
        rt.step += 1;
        self.advance_app(app, now, em);
    }

    /// Moves an application forward from its current step: issues the
    /// coordination calls attached to the step's position, then either
    /// executes the step, parks the application, or finishes the phase.
    fn advance_app<O: SimObserver>(&mut self, app: AppId, now: SimTime, em: &mut Emitter<'_, O>) {
        let granularity = self.cfg.granularity;
        let (step, plan_len, is_yield, started) = {
            let rt = self.rt_mut(app);
            (
                rt.step,
                rt.plan.len(),
                rt.plan.is_yield_point(rt.step, granularity),
                rt.started,
            )
        };

        if step >= plan_len {
            self.finish_phase(app, now, em);
            return;
        }

        if is_yield {
            // Share fresh information with the other applications
            // (Prepare + Inform).
            let info = {
                let rt = &self.apps[&app];
                rt.current_io_info(&self.cfg.pfs, self.cfg.granularity)
            };

            if !started {
                // Start of the phase: ask for access (Inform + Check/Wait).
                em.emit(now, SimEvent::AccessRequested { app });
                let outcome = self.transport.with_app(app, |arb| {
                    arb.set_now(now);
                    arb.update_info(info);
                    arb.request_access(app)
                });
                match outcome {
                    AccessOutcome::Granted => {
                        // The leaf arbiter admitted the application, but a
                        // hierarchical transport may still be waiting for
                        // its machine's shared-PFS slot; park until the
                        // grant is end-to-end (always true when flat).
                        if !self.transport.is_granted(app) {
                            self.set_state(app, RtState::WantAccess);
                            return;
                        }
                        em.emit(
                            now,
                            SimEvent::AccessGranted {
                                app,
                                grant: GrantKind::Immediate,
                            },
                        );
                    }
                    AccessOutcome::MustWait => {
                        self.set_state(app, RtState::WantAccess);
                        return;
                    }
                    AccessOutcome::MustWaitAtMost(secs) => {
                        em.emit(
                            now,
                            SimEvent::DelayBounded {
                                app,
                                max_wait_secs: secs,
                            },
                        );
                        self.set_state(app, RtState::WantAccess);
                        let phase = self.apps[&app].phase;
                        self.kernel.schedule(
                            now + SimDuration::from_secs(secs),
                            Event::DelayExpired(app, phase),
                        );
                        return;
                    }
                }
            } else {
                // Mid-phase coordination point (Release/Inform between
                // rounds or files): check whether we must yield.
                let outcome = self.transport.with_app(app, |arb| {
                    arb.set_now(now);
                    arb.update_info(info);
                    arb.yield_point(app)
                });
                match outcome {
                    YieldOutcome::Continue => {}
                    YieldOutcome::YieldNow => {
                        em.emit(now, SimEvent::Interrupted { app });
                        self.set_state(app, RtState::Parked);
                        self.notify_granted(now);
                        return;
                    }
                }
            }
        }

        self.execute_step(app, now, em);
    }

    /// Executes the application's current step (communication or write).
    fn execute_step<O: SimObserver>(&mut self, app: AppId, now: SimTime, em: &mut Emitter<'_, O>) {
        let past_end = {
            let rt = &self.apps[&app];
            rt.step >= rt.plan.len()
        };
        if past_end {
            // Can happen when a Resume lands after the plan advanced.
            self.finish_phase(app, now, em);
            return;
        }
        let (kind, procs) = {
            let rt = self.rt_mut(app);
            rt.started = true;
            (
                // simlint: allow(R4, the past_end guard above established step < plan.len)
                rt.plan.step(rt.step).copied().expect("step exists").kind,
                rt.cfg.procs,
            )
        };

        match kind {
            StepKind::Comm { seconds } => {
                em.emit(now, SimEvent::CommStarted { app, seconds });
                self.set_state(app, RtState::Comm);
                self.kernel
                    .schedule(now + SimDuration::from_secs(seconds), Event::CommDone(app));
            }
            StepKind::Write { bytes } => {
                let tid = self.kernel.medium_mut().submit_write(app, bytes, procs);
                em.emit(
                    now,
                    SimEvent::TransferStarted {
                        app,
                        transfer: tid,
                        bytes,
                    },
                );
                self.set_state(app, RtState::Writing);
                self.transfer_owner.insert(tid, app);
                // Zero-byte writes complete immediately; pick them up on the
                // next loop iteration via poll_completed.
            }
        }
    }

    /// Closes the current phase of `app`, releases its coordination slot,
    /// and schedules the next phase (or marks the application done).
    fn finish_phase<O: SimObserver>(&mut self, app: AppId, now: SimTime, em: &mut Emitter<'_, O>) {
        let (more_phases, next_start) = {
            let rt = self.rt_mut(app);
            em.emit(
                now,
                SimEvent::PhaseFinished {
                    app,
                    phase: rt.phase,
                    bytes: rt.plan.total_write_bytes(),
                },
            );
            rt.phase += 1;
            let more = rt.phase < rt.cfg.phases;
            let next_start = if more {
                let scheduled = rt.cfg.start
                    + SimDuration::from_secs(rt.cfg.phase_interval.as_secs() * rt.phase as f64);
                scheduled.max(now)
            } else {
                now
            };
            (more, next_start)
        };

        self.transport.with_app(app, |arb| {
            arb.set_now(now);
            arb.release(app);
        });
        self.notify_granted(now);

        if more_phases {
            let rt = self.rt_mut(app);
            rt.reset_phase_accounting(next_start);
            self.set_state(app, RtState::Idle);
            self.kernel.schedule(next_start, Event::PhaseStart(app));
        } else {
            self.set_state(app, RtState::Done);
            self.live_apps -= 1;
        }
    }

    /// Writes an application's state and keeps the waiting index in sync:
    /// apps enter it on `WantAccess`/`Parked` and leave it on anything else.
    fn set_state(&mut self, app: AppId, state: RtState) {
        let rt = self.rt_mut(app);
        rt.state = state;
        if matches!(state, RtState::WantAccess | RtState::Parked) {
            self.waiting.insert(app);
        } else {
            self.waiting.remove(&app);
        }
    }

    /// Schedules a resume notification (with the coordination latency) for
    /// every parked application that the transport reports granted
    /// end-to-end ([`CoordinationTransport::resumable`] — the flat
    /// granted ∩ waiting intersection, further gated on shared-PFS slots
    /// for hierarchical transports).
    fn notify_granted(&mut self, now: SimTime) {
        let overhead = self.cfg.coordination_overhead;
        for app in self.transport.resumable(&self.waiting) {
            self.kernel.schedule(now + overhead, Event::Resume(app));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SharedTransport;
    use crate::error::ConfigError;
    use mpiio::AccessPattern;
    use simcore::fair::SharingModel;

    const MB: f64 = 1.0e6;

    fn rennes() -> PfsConfig {
        PfsConfig::grid5000_rennes()
    }

    fn app(id: usize, name: &str, procs: u32, mb_per_proc: f64, start_secs: f64) -> AppConfig {
        AppConfig::new(
            AppId(id),
            name,
            procs,
            AccessPattern::contiguous(mb_per_proc * MB),
        )
        .starting_at_secs(start_secs)
    }

    #[test]
    fn single_app_matches_alone_estimate() {
        let a = app(0, "A", 336, 16.0, 0.0);
        let estimate = a.estimate_alone_seconds(&rennes());
        let measured = Session::run_alone(a, rennes()).unwrap();
        assert!(
            (measured - estimate).abs() / estimate < 0.05,
            "measured {measured}, estimate {estimate}"
        );
    }

    #[test]
    fn interference_slows_both_apps() {
        let scenario = Scenario::builder(rennes())
            .app(app(0, "A", 336, 16.0, 0.0))
            .app(app(1, "B", 336, 16.0, 0.0))
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        let alone = Session::run_alone(app(0, "A", 336, 16.0, 0.0), rennes()).unwrap();
        let ta = report.app(AppId(0)).unwrap().first_phase().io_time();
        let tb = report.app(AppId(1)).unwrap().first_phase().io_time();
        assert!(ta > 1.5 * alone, "ta={ta} alone={alone}");
        assert!(tb > 1.5 * alone, "tb={tb} alone={alone}");
    }

    #[test]
    fn fcfs_impacts_only_the_second_application() {
        let alone = Session::run_alone(app(0, "A", 336, 16.0, 0.0), rennes()).unwrap();
        let scenario = Scenario::builder(rennes())
            .app(app(0, "A", 336, 16.0, 0.0))
            .app(app(1, "B", 336, 16.0, 2.0))
            .strategy(Strategy::FcfsSerialize)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        let ta = report.app(AppId(0)).unwrap().first_phase().io_time();
        let tb = report.app(AppId(1)).unwrap().first_phase().io_time();
        // A is barely impacted; B waits for A's remaining time then writes.
        assert!((ta - alone).abs() / alone < 0.05, "ta={ta} alone={alone}");
        let expected_b = (alone - 2.0) + alone;
        assert!(
            (tb - expected_b).abs() / expected_b < 0.10,
            "tb={tb} expected≈{expected_b}"
        );
    }

    #[test]
    fn interrupt_impacts_only_the_first_application() {
        // A big (many files), B small; B arrives later and interrupts A.
        let a =
            AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0 * MB)).with_files(4);
        let b = app(1, "B", 336, 16.0, 3.0);
        let alone_a = Session::run_alone(a.clone(), rennes()).unwrap();
        let alone_b = Session::run_alone(b.clone(), rennes()).unwrap();
        let scenario = Scenario::builder(rennes())
            .apps([a, b])
            .strategy(Strategy::Interrupt)
            .granularity(Granularity::File)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        let ta = report.app(AppId(0)).unwrap().first_phase().io_time();
        let tb = report.app(AppId(1)).unwrap().first_phase().io_time();
        // B should be close to its alone time (it had to wait at most for
        // the current file of A to finish).
        assert!(
            tb < alone_b + alone_a / 4.0 + 0.5,
            "tb={tb} alone_b={alone_b} alone_a={alone_a}"
        );
        // A pays roughly B's write time on top of its own.
        assert!(ta > alone_a + 0.5 * alone_b, "ta={ta} alone_a={alone_a}");
        assert!(ta < alone_a + 2.0 * alone_b, "ta={ta} alone_a={alone_a}");
    }

    #[test]
    fn serialization_beats_interference_in_aggregate() {
        let apps = vec![app(0, "A", 384, 16.0, 0.0), app(1, "B", 384, 16.0, 1.0)];
        let interfering = Scenario::new(rennes(), apps.clone()).run().unwrap();
        let fcfs = Scenario::builder(rennes())
            .apps(apps)
            .strategy(Strategy::FcfsSerialize)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let sum =
            |r: &SessionReport| -> f64 { r.apps.iter().map(|a| a.first_phase().io_time()).sum() };
        assert!(
            sum(&fcfs) < sum(&interfering),
            "fcfs={} interfering={}",
            sum(&fcfs),
            sum(&interfering)
        );
    }

    #[test]
    fn dynamic_never_worse_than_both_fixed_choices() {
        // Fig. 11 setup (scaled down): equal core counts, A writes 4× B.
        let a =
            AppConfig::new(AppId(0), "A", 512, AccessPattern::contiguous(16.0 * MB)).with_files(4);
        let b = app(1, "B", 512, 16.0, 4.0);
        let alone: BTreeMap<AppId, f64> = [
            (AppId(0), Session::run_alone(a.clone(), rennes()).unwrap()),
            (AppId(1), Session::run_alone(b.clone(), rennes()).unwrap()),
        ]
        .into_iter()
        .collect();
        let run = |strategy: Strategy| -> f64 {
            Scenario::builder(rennes())
                .apps([a.clone(), b.clone()])
                .strategy(strategy)
                .granularity(Granularity::File)
                .build()
                .unwrap()
                .run()
                .unwrap()
                .metric(EfficiencyMetric::CpuSecondsWasted, &alone)
        };
        let dynamic = run(Strategy::Dynamic);
        let fcfs = run(Strategy::FcfsSerialize);
        let interrupt = run(Strategy::Interrupt);
        let tolerance = 1.05;
        assert!(
            dynamic <= fcfs.min(interrupt) * tolerance,
            "dynamic={dynamic} fcfs={fcfs} interrupt={interrupt}"
        );
    }

    #[test]
    fn periodic_phases_report_one_result_each() {
        let a = app(0, "A", 64, 4.0, 0.0).with_periodic_phases(5, SimDuration::from_secs(10.0));
        let report = Scenario::new(rennes(), vec![a]).run().unwrap();
        let phases = &report.apps[0].phases;
        assert_eq!(phases.len(), 5);
        // Starts are 10 s apart.
        for (i, p) in phases.iter().enumerate() {
            assert!((p.requested_start.as_secs() - 10.0 * i as f64).abs() < 1e-6);
            assert!(p.io_time() > 0.0);
        }
    }

    #[test]
    fn delay_strategy_bounds_the_wait() {
        let a = app(0, "A", 336, 64.0, 0.0); // long write
        let b = app(1, "B", 336, 16.0, 1.0);
        let report = Scenario::builder(rennes())
            .apps([a, b])
            .strategy(Strategy::Delay { max_wait_secs: 2.0 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let b_phase = report.app(AppId(1)).unwrap().first_phase();
        assert!(
            (b_phase.wait_seconds - 2.0).abs() < 0.1,
            "waited {}",
            b_phase.wait_seconds
        );
    }

    #[test]
    fn stale_delay_timer_does_not_force_grant_a_later_phase() {
        // B's first request is granted normally (A releases) long before
        // its 15 s delay budget expires, so the budget timer is still
        // queued when B's *second* phase is waiting behind A's second
        // phase. The stale timer must not force that later request
        // through early: it belongs to phase 0, not phase 1.
        let a = app(0, "A", 336, 16.0, 0.0) // 6.4 s per phase
            .with_periodic_phases(2, SimDuration::from_secs(12.0));
        let b = app(1, "B", 48, 8.0, 1.0) // ~0.7 s alone
            .with_periodic_phases(2, SimDuration::from_secs(12.0));
        let report = Scenario::builder(rennes())
            .apps([a, b])
            .strategy(Strategy::Delay {
                max_wait_secs: 15.0,
            })
            .build()
            .unwrap()
            .run()
            .unwrap();

        let b_phases = &report.app(AppId(1)).unwrap().phases;
        // Phase 0: granted when A releases at ~6.4 s → waited ~5.4 s,
        // well under the budget (the timer at t = 16 s stays queued).
        assert!(
            (b_phases[0].wait_seconds - 5.4).abs() < 0.5,
            "phase 0 waited {}",
            b_phases[0].wait_seconds
        );
        // Phase 1 requests at t = 13 s while A's second phase (12 → 18.4)
        // holds the file system. The stale phase-0 timer fires at 16 s;
        // B must keep waiting for A's release (~18.4 s), not be
        // force-granted at 16 s.
        assert!(
            b_phases[1].io_start.as_secs() > 17.0,
            "phase 1 started at {} — force-granted by a stale timer",
            b_phases[1].io_start.as_secs()
        );
        assert!(
            (b_phases[1].wait_seconds - 5.4).abs() < 0.5,
            "phase 1 waited {}",
            b_phases[1].wait_seconds
        );
    }

    #[test]
    fn report_accessors_and_metrics() {
        let apps = vec![app(0, "A", 336, 16.0, 0.0), app(1, "B", 48, 16.0, 0.0)];
        let report = Scenario::new(rennes(), apps).run().unwrap();
        assert!(report.app(AppId(0)).is_some());
        assert!(report.app(AppId(9)).is_none());
        assert!(report.makespan > SimTime::ZERO);
        assert!(report.coordination_messages > 0);
        let alone = BTreeMap::new();
        let obs = report.observations(&alone);
        assert_eq!(obs.len(), 2);
        assert!(report.metric(EfficiencyMetric::TotalIoTime, &alone) > 0.0);
        assert!(
            report.metric(EfficiencyMetric::CpuSecondsWasted, &alone)
                > report.metric(EfficiencyMetric::TotalIoTime, &alone)
        );
    }

    #[test]
    fn observations_survive_missing_baselines_and_zero_duration_phases() {
        // The documented degenerate behaviors of `observations`/`metric`:
        // a missing `alone_seconds` entry falls back to the analytic
        // estimate, a zero-duration phase contributes zero I/O time (and
        // an interference factor clamped to 1), and an app without phases
        // is skipped rather than panicking.
        let zero_phase = PhaseResult {
            app: AppId(0),
            phase: 0,
            requested_start: SimTime::from_secs(1.0),
            io_start: SimTime::from_secs(1.0),
            end: SimTime::from_secs(1.0),
            bytes: 0.0,
            comm_seconds: 0.0,
            write_seconds: 0.0,
            wait_seconds: 0.0,
        };
        let report = SessionReport {
            strategy: Strategy::Interfere,
            policy_label: "interfering".into(),
            apps: vec![
                AppReport {
                    app: AppId(0),
                    name: "zero".into(),
                    procs: 16,
                    alone_estimate_secs: 2.5,
                    phases: vec![zero_phase],
                },
                AppReport {
                    app: AppId(1),
                    name: "phaseless".into(),
                    procs: 8,
                    alone_estimate_secs: 1.0,
                    phases: Vec::new(),
                },
            ],
            coordination_messages: 0,
            makespan: SimTime::from_secs(1.0),
        };

        let alone = BTreeMap::new();
        let obs = report.observations(&alone);
        assert_eq!(obs.len(), 1, "phaseless app is skipped");
        assert_eq!(obs[0].io_seconds, 0.0);
        assert_eq!(
            obs[0].alone_seconds, 2.5,
            "missing baseline falls back to the analytic estimate"
        );
        assert_eq!(obs[0].interference_factor(), 1.0);

        for metric in EfficiencyMetric::ALL {
            let value = report.metric(metric, &alone);
            assert!(value.is_finite(), "{metric:?} must stay finite: {value}");
        }
        assert_eq!(report.metric(EfficiencyMetric::TotalIoTime, &alone), 0.0);
        assert_eq!(
            report.metric(EfficiencyMetric::SumInterferenceFactors, &alone),
            1.0
        );

        // An explicit zero baseline is equally safe (documented: factor 1).
        let zero_alone: BTreeMap<AppId, f64> = [(AppId(0), 0.0)].into_iter().collect();
        let obs = report.observations(&zero_alone);
        assert_eq!(obs[0].interference_factor(), 1.0);

        // No completed phases at all: every metric is the empty sum.
        let empty = SessionReport {
            apps: vec![report.apps[1].clone()],
            ..report.clone()
        };
        assert!(empty.observations(&alone).is_empty());
        for metric in EfficiencyMetric::ALL {
            assert_eq!(empty.metric(metric, &alone), 0.0);
        }
    }

    #[test]
    fn validation_errors_are_typed() {
        let scenario = Scenario::new(rennes(), vec![]);
        assert_eq!(
            Session::run(&scenario).unwrap_err(),
            Error::Config(ConfigError::NoApplications)
        );
        let scenario = Scenario::new(
            rennes(),
            vec![app(0, "A", 336, 16.0, 0.0), app(0, "B", 48, 16.0, 0.0)],
        );
        assert_eq!(
            Session::run(&scenario).unwrap_err(),
            Error::Config(ConfigError::DuplicateApp(AppId(0)))
        );
        let mut scenario = Scenario::new(rennes(), vec![app(0, "A", 336, 16.0, 0.0)]);
        scenario.pfs.server_bw = -1.0;
        assert!(matches!(
            Session::run(&scenario).unwrap_err(),
            Error::Config(ConfigError::Pfs(_))
        ));
    }

    #[test]
    fn horizon_exceeded_is_typed() {
        let scenario = Scenario::builder(rennes())
            .app(app(0, "A", 336, 16.0, 0.0))
            .horizon(SimDuration::from_secs(0.5))
            .build()
            .unwrap();
        assert!(matches!(
            scenario.run().unwrap_err(),
            Error::Session(SessionError::HorizonExceeded { .. })
        ));
    }

    #[test]
    fn starved_transfers_surface_as_stalled_not_deadlock() {
        // A zero-capacity interconnect pins every write at zero bandwidth:
        // the session must fail fast with the structured stalled-transfer
        // error (a file system sizing problem), not hang to the horizon or
        // misreport a coordination deadlock — on either sharing medium.
        for medium in [SharingModel::MaxMin, SharingModel::FairFast] {
            let scenario = Scenario::builder(rennes())
                .app(app(0, "A", 336, 16.0, 0.0))
                .medium(medium)
                .build()
                .unwrap();
            let mut session = Session::<LocalTransport>::with_transport(&scenario).unwrap();
            session.kernel.medium_mut().throttle_interconnect(0.0);
            let err = session.execute().unwrap_err();
            match &err {
                Error::Session(SessionError::StalledTransfer { transfers }) => {
                    assert!(
                        transfers.iter().any(|&(a, _)| a == AppId(0)),
                        "{medium:?}: the starved app is named"
                    );
                }
                other => panic!("{medium:?}: expected StalledTransfer, got {other:?}"),
            }
            assert!(err.to_string().contains("stalled"));
        }
    }

    #[test]
    fn default_medium_keeps_a_mutation_made_before_execution() {
        // Moving a default-medium file system to max-min for a progress
        // observer (a trace recorder) keeps an earlier throttle: the
        // write still starves.
        let scenario = Scenario::builder(rennes())
            .app(app(0, "A", 336, 16.0, 0.0))
            .build()
            .unwrap();
        let mut session = Session::new(&scenario).unwrap();
        session.kernel.medium_mut().throttle_interconnect(0.0);
        let mut recorder = crate::trace::TraceRecorder::for_scenario(&scenario);
        let err = session.execute_with(&mut recorder).unwrap_err();
        assert!(matches!(
            err,
            Error::Session(SessionError::StalledTransfer { .. })
        ));
    }

    #[test]
    fn fair_fast_medium_runs_sessions_end_to_end() {
        // The virtual-time medium drives the same coordination machinery:
        // a two-application mix runs to completion under every strategy,
        // and on this equal-share workload the serialized makespan matches
        // the exact max-min medium's to within a tick-rounding sliver.
        let apps = || [app(0, "A", 336, 16.0, 0.0), app(1, "B", 336, 16.0, 0.5)];
        for strategy in [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ] {
            let fair = Scenario::builder(rennes())
                .apps(apps())
                .strategy(strategy)
                .medium(SharingModel::FairFast)
                .build()
                .unwrap()
                .run()
                .unwrap();
            let exact = Scenario::builder(rennes())
                .apps(apps())
                .strategy(strategy)
                .medium(SharingModel::MaxMin)
                .build()
                .unwrap()
                .run()
                .unwrap();
            let (f, e) = (fair.makespan.as_secs(), exact.makespan.as_secs());
            assert!(
                (f - e).abs() / e < 0.02,
                "{strategy:?}: fair-fast makespan {f} vs max-min {e}"
            );
        }
    }

    #[test]
    fn named_policies_run_sessions_end_to_end() {
        use crate::arbitration::PolicySpec;
        let apps = || [app(0, "A", 336, 16.0, 0.0), app(1, "B", 512, 16.0, 2.0)];
        // A legacy strategy and its registry twin produce the same report
        // (only the label provenance differs, and even that matches).
        let by_strategy = Scenario::builder(rennes())
            .apps(apps())
            .strategy(Strategy::FcfsSerialize)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let by_spec = Scenario::builder(rennes())
            .apps(apps())
            .arbitration(PolicySpec::new("fcfs"))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(by_spec.policy_label, "fcfs");
        assert_eq!(by_spec.apps, by_strategy.apps);
        assert_eq!(
            by_spec.coordination_messages,
            by_strategy.coordination_messages
        );

        // A policy the Strategy enum cannot express runs to completion:
        // under priority(w=cores), the bigger B preempts A.
        let report = Scenario::builder(rennes())
            .apps(apps())
            .arbitration(PolicySpec::with_arg("priority", "w=cores"))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.policy_label, "priority(w=cores)");
        assert_eq!(report.apps.len(), 2);
        assert!(report.apps.iter().all(|a| !a.phases.is_empty()));

        // Round-robin quantum time-slices: both finish, and A (preempted
        // mid-phase by the quantum) pays waiting time.
        let rr = Scenario::builder(rennes())
            .apps(apps())
            .arbitration(PolicySpec::with_arg("rr", "1s"))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(rr.policy_label, "rr(1s)");
        assert!(rr.apps.iter().all(|a| !a.phases.is_empty()));
    }

    #[test]
    fn shared_transport_reproduces_the_local_report_exactly() {
        // The determinism convention of DESIGN.md: same scenario, same
        // report, bit for bit — whichever transport carries the
        // coordination traffic.
        let scenario = Scenario::builder(rennes())
            .app(app(0, "A", 336, 16.0, 0.0))
            .app(app(1, "B", 48, 16.0, 2.0))
            .strategy(Strategy::Interrupt)
            .build()
            .unwrap();
        let local = scenario.run().unwrap();
        let shared = Session::<SharedTransport>::with_transport(&scenario)
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(local, shared);
        // And a Session<SharedTransport> built here survives being moved
        // to another thread before executing.
        let session = Session::<SharedTransport>::with_transport(&scenario).unwrap();
        let remote = std::thread::spawn(move || session.execute().unwrap())
            .join()
            .expect("worker thread");
        assert_eq!(local, remote);
    }

    #[test]
    fn phase_decomposition_accounts_comm_and_write() {
        let a = AppConfig::new(AppId(0), "A", 512, AccessPattern::strided(2.0 * MB, 8));
        let report = Scenario::new(rennes(), vec![a]).run().unwrap();
        let phase = report.apps[0].first_phase();
        assert!(phase.comm_seconds > 0.0, "strided pattern has comm time");
        assert!(phase.write_seconds > 0.0);
        assert!(phase.wait_seconds == 0.0, "alone app never waits");
        // Total accounted time is close to the active time.
        let accounted = phase.comm_seconds + phase.write_seconds;
        assert!(
            (accounted - phase.active_time()).abs() < 0.05 * phase.active_time(),
            "accounted {accounted} vs active {}",
            phase.active_time()
        );
    }
}
