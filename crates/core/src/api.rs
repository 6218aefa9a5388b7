//! The CALCioM application-facing API and its coordination transports.
//!
//! Section III-C of the paper defines the calls an application (or the I/O
//! library / MPI-IO layer acting on its behalf) makes on its *coordinator*
//! process:
//!
//! | Paper call        | [`Coordinator`] method       |
//! |-------------------|------------------------------|
//! | `Prepare(info)`   | [`Coordinator::prepare`]     |
//! | `Inform()`        | [`Coordinator::inform`]      |
//! | `Check(&auth)`    | [`Coordinator::check`]       |
//! | `Wait()`          | [`Coordinator::wait`] (semantics: spin on `check` in the simulation, see below) |
//! | `Release()`       | [`Coordinator::release`]     |
//! | `Complete()`      | [`Coordinator::complete`]    |
//!
//! In the paper the coordinator is rank 0 of the application and the calls
//! exchange MPI messages with the other applications' coordinators. In this
//! reproduction the message exchange is replaced by a
//! [`CoordinationTransport`] that serializes access to the shared
//! [`Arbiter`] — the *information exchanged* and the *decisions taken* are
//! the same. Two transports are provided:
//!
//! * [`LocalTransport`] — `Rc<RefCell<Arbiter>>`, zero-overhead for
//!   single-threaded drivers (the default of [`Session`](crate::Session));
//! * [`SharedTransport`] — `Arc<Mutex<Arbiter>>`, `Send + Sync`, for
//!   coordinators shared between threads.
//!
//! [`Session`](crate::Session) never builds a `Coordinator`: it shares the
//! [`CoordinationTransport`] seam but drives the transport itself, from its
//! own event handlers. The standalone `Coordinator` exists so that library
//! users can embed CALCioM coordination in their own drivers.

use crate::arbiter::Arbiter;
use crate::error::ConfigError;
use crate::info::IoInfo;
use crate::observe::{GrantKind, NullObserver, SimEvent, SimObserver};
use crate::scenario::Scenario;
use crate::strategy::{AccessOutcome, YieldOutcome};
use pfs::AppId;
use simcore::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// How coordinators reach the shared coordination state.
///
/// The paper's API is transport-agnostic ("the decisions can be taken by
/// the applications themselves or enforced by a system-provided entity");
/// this trait is the seam where an MPI transport would plug in. Every
/// operation is expressed as an exclusive visit to the [`Arbiter`], which
/// keeps the protocol identical across transports.
///
/// The provided methods form the *topology seam*: a flat transport (one
/// arbiter shared by every application) inherits the defaults, while a
/// hierarchical transport such as
/// [`ClusterTransport`](crate::ClusterTransport) overrides them to route
/// each visit to the owning machine's leaf arbiter and to surface the
/// simulated-time message traffic between arbiters. The defaults are
/// written so that a flat transport's behavior is *bit-identical* to the
/// pre-hierarchy code path — the golden trace hashes pin this.
pub trait CoordinationTransport: Clone {
    /// Wraps a fresh arbiter.
    fn new(arbiter: Arbiter) -> Self;

    /// Runs `f` with exclusive access to the arbiter and returns its
    /// result.
    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R;

    /// Builds the transport for a validated scenario, consuming the
    /// session's freshly resolved arbiter. Flat transports reject
    /// scenarios carrying a cluster topology (the topology would be
    /// silently ignored otherwise); a cluster-aware transport instead
    /// builds its arbiter tree from [`Scenario::cluster`].
    fn for_scenario(scenario: &Scenario, arbiter: Arbiter) -> Result<Self, ConfigError> {
        if scenario.cluster.is_some() {
            return Err(ConfigError::ClusterUnsupported);
        }
        Ok(Self::new(arbiter))
    }

    /// Runs `f` with exclusive access to the arbiter responsible for
    /// `app` — the routing point of hierarchical transports. Flat
    /// transports have exactly one arbiter, so the default ignores the
    /// application.
    fn with_app<R>(&self, _app: AppId, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        self.with(f)
    }

    /// Whether `app` currently holds end-to-end access to the file
    /// system. For a flat transport this is the arbiter's grant; a
    /// hierarchical transport additionally requires the application's
    /// machine to hold a shared-PFS slot.
    fn is_granted(&self, app: AppId) -> bool {
        self.with(|arb| arb.is_granted(app))
    }

    /// Total coordination messages exchanged so far — for a tree, the sum
    /// over every arbiter plus the cross-arbiter traffic.
    fn message_count(&self) -> u64 {
        self.with(|arb| arb.message_count())
    }

    /// The waiting applications that are granted end-to-end right now —
    /// the set a driver should wake. The default is the flat
    /// granted ∩ waiting intersection; serialising schedules keep the
    /// granted side tiny while thousands wait, overlap-heavy ones are the
    /// reverse, so the walk takes whichever side is smaller. Both sides
    /// iterate the same intersection in ascending id order, so the result
    /// — and therefore the simulation — does not depend on the side
    /// chosen.
    fn resumable(&self, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        self.with(|arb| {
            if arb.active_count() <= waiting.len() {
                arb.active()
                    .into_iter()
                    .filter(|app| waiting.contains(app))
                    .collect()
            } else {
                waiting
                    .iter()
                    .copied()
                    .filter(|app| arb.is_granted(*app))
                    .collect()
            }
        })
    }

    /// The next simulated time at which the transport itself has work to
    /// do (an in-flight cross-arbiter message arriving, a slot rotation
    /// falling due). `None` for flat transports: all their state changes
    /// happen inside driver-initiated visits.
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }

    /// Advances the transport's clock to `now`, delivers every
    /// cross-arbiter message that has arrived by then, and returns the
    /// waiting applications that became granted end-to-end as a result
    /// (the driver schedules their resume notifications). A no-op for
    /// flat transports.
    fn deliver_due(&self, _now: SimTime, _waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        Vec::new()
    }
}

/// In-process, single-threaded transport (`Rc<RefCell<Arbiter>>`).
#[derive(Debug, Clone)]
pub struct LocalTransport {
    inner: Rc<RefCell<Arbiter>>,
}

impl CoordinationTransport for LocalTransport {
    fn new(arbiter: Arbiter) -> Self {
        LocalTransport {
            inner: Rc::new(RefCell::new(arbiter)),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

/// Thread-safe transport (`Arc<Mutex<Arbiter>>`): `Send + Sync`, so
/// coordinators (and sessions) built on it can move across threads.
#[derive(Debug, Clone)]
pub struct SharedTransport {
    inner: Arc<Mutex<Arbiter>>,
}

impl CoordinationTransport for SharedTransport {
    fn new(arbiter: Arbiter) -> Self {
        SharedTransport {
            inner: Arc::new(Mutex::new(arbiter)),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        // The arbiter is a plain state machine; a panic while holding the
        // lock cannot leave it half-updated in a way later calls would
        // misread, so a poisoned lock is still usable.
        f(&mut self.inner.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Per-application facade over the CALCioM coordination protocol, exposing
/// the API of Section III-C of the paper over any
/// [`CoordinationTransport`].
///
/// A coordinator is *observable*: build it with
/// [`Coordinator::with_observer`] and every protocol decision (requests,
/// grants, interruptions, delay bounds) is streamed to the observer as
/// [`SimEvent`]s, stamped with the coordinator's clock (advanced by the
/// embedding driver through [`Coordinator::set_now`]). The default
/// observer is the zero-cost [`NullObserver`].
#[derive(Clone)]
pub struct Coordinator<T: CoordinationTransport = LocalTransport, O: SimObserver = NullObserver> {
    app: AppId,
    transport: T,
    prepared: Vec<IoInfo>,
    observer: O,
    now: SimTime,
    blocked: Option<Blocked>,
}

/// Why an observed coordinator is currently blocked (drives which grant
/// event a successful [`Coordinator::wait`] emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Queued in the arbiter since `inform()`.
    Queued,
    /// Preempted at a yield point.
    Interrupted,
}

impl<T: CoordinationTransport> Coordinator<T, NullObserver> {
    /// Creates the coordinator for application `app`, attached to the
    /// shared coordination state, with no observer.
    pub fn new(app: AppId, transport: T) -> Self {
        Coordinator::with_observer(app, transport, NullObserver)
    }
}

impl<T: CoordinationTransport, O: SimObserver> Coordinator<T, O> {
    /// Creates an observed coordinator: every protocol decision is
    /// streamed to `observer` (stamped with the clock set through
    /// [`Coordinator::set_now`]).
    pub fn with_observer(app: AppId, transport: T, observer: O) -> Self {
        Coordinator {
            app,
            transport,
            prepared: Vec::new(),
            observer,
            now: SimTime::ZERO,
            blocked: None,
        }
    }

    /// The application this coordinator speaks for.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The transport this coordinator communicates through.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Advances the coordinator's clock: subsequent observed events are
    /// stamped with `now`, and the shared [`Arbiter`]'s clock is advanced
    /// too, so time-aware arbitration policies (e.g. round-robin quanta)
    /// observe the driver's time. The clock never goes backwards.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
        let now = self.now;
        self.transport.with(|arb| arb.set_now(now));
    }

    /// The coordinator's current clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the coordinator, returning its observer (e.g. to take a
    /// recorded trace out).
    pub fn into_observer(self) -> O {
        self.observer
    }

    fn emit(&mut self, event: SimEvent) {
        self.observer.on_event(self.now, &event);
    }

    /// `Prepare(MPI_Info info)`: stacks information about the upcoming I/O
    /// accesses. A later [`Coordinator::complete`] unstacks it.
    pub fn prepare(&mut self, info: IoInfo) {
        self.prepared.push(info);
    }

    /// `Complete()`: unstacks the most recent prepared information.
    pub fn complete(&mut self) -> Option<IoInfo> {
        self.prepared.pop()
    }

    /// `Inform()`: sends the currently prepared information to the other
    /// running applications and registers this application's desire to
    /// access the file system. Returns the immediate outcome.
    ///
    /// Observed as [`SimEvent::AccessRequested`] followed by
    /// [`SimEvent::AccessGranted`] (immediate grant) or
    /// [`SimEvent::DelayBounded`] (bounded-delay refusal); a plain
    /// `MustWait` emits only the request — the grant is observed when
    /// [`Coordinator::wait`] later succeeds.
    pub fn inform(&mut self) -> AccessOutcome {
        let app = self.app;
        let info = self.prepared.last().cloned();
        self.emit(SimEvent::AccessRequested { app });
        let outcome = self.transport.with(|arb| {
            if let Some(info) = info {
                arb.update_info(info);
            }
            arb.request_access(app)
        });
        match outcome {
            AccessOutcome::Granted => {
                self.blocked = None;
                self.emit(SimEvent::AccessGranted {
                    app,
                    grant: GrantKind::Immediate,
                });
            }
            AccessOutcome::MustWait => self.blocked = Some(Blocked::Queued),
            AccessOutcome::MustWaitAtMost(secs) => {
                self.blocked = Some(Blocked::Queued);
                self.emit(SimEvent::DelayBounded {
                    app,
                    max_wait_secs: secs,
                });
            }
        }
        outcome
    }

    /// `Check(int* authorized)`: non-blocking query of whether this
    /// application is currently allowed to access the file system.
    ///
    /// A pure query: it does not conclude an observed wait. A driver that
    /// spins on `check` should call [`Coordinator::wait`] (or
    /// [`Coordinator::delay_elapsed`] on budget expiry) once it sees
    /// `true`, so the grant is emitted to the observer.
    pub fn check(&self) -> bool {
        self.transport.with(|arb| arb.is_granted(self.app))
    }

    /// Whether this application's access request is queued in the arbiter,
    /// waiting for a grant.
    pub fn pending(&self) -> bool {
        self.transport.with(|arb| arb.is_pending(self.app))
    }

    /// `Wait()`: in the paper this blocks until the other applications
    /// agree that this application should do its I/O. In the discrete-event
    /// reproduction, blocking is expressed by the caller re-invoking
    /// [`Coordinator::check`] as simulated time advances; `wait` therefore
    /// only reports whether the grant has arrived yet.
    ///
    /// **Pending-grant invariant**: a `wait` that returns `false` always
    /// corresponds to a request still queued in the arbiter — "not yet",
    /// never "lost". The grant is guaranteed to arrive once the current
    /// accessor(s) release or yield, so spinning on `check` terminates.
    /// Calling `wait` without a preceding [`Coordinator::inform`] is a
    /// protocol violation and trips a debug assertion.
    pub fn wait(&mut self) -> bool {
        let app = self.app;
        let granted = self.transport.with(|arb| {
            let granted = arb.is_granted(app);
            debug_assert!(
                granted || arb.is_pending(app),
                "wait() for {app} without a queued request: call inform() first"
            );
            granted
        });
        if granted {
            match self.blocked.take() {
                Some(Blocked::Queued) => self.emit(SimEvent::AccessGranted {
                    app,
                    grant: GrantKind::AfterWait,
                }),
                Some(Blocked::Interrupted) => self.emit(SimEvent::Resumed { app }),
                None => {}
            }
        }
        granted
    }

    /// Coordination point between two atomic accesses (the ADIO-level
    /// `Release(); Inform(); Check()` sequence): refreshes the shared
    /// information and asks whether the application should yield.
    /// Observed as [`SimEvent::Interrupted`] when the answer is
    /// [`YieldOutcome::YieldNow`]; the later re-grant surfaces as
    /// [`SimEvent::Resumed`] from the [`Coordinator::wait`] that sees it.
    pub fn yield_point(&mut self, refreshed: Option<IoInfo>) -> YieldOutcome {
        let app = self.app;
        let info = refreshed.or_else(|| self.prepared.last().cloned());
        let outcome = self.transport.with(|arb| {
            if let Some(info) = info {
                arb.update_info(info);
            }
            arb.yield_point(app)
        });
        if outcome == YieldOutcome::YieldNow {
            self.blocked = Some(Blocked::Interrupted);
            self.emit(SimEvent::Interrupted { app });
        }
        outcome
    }

    /// The bounded-delay budget announced by a
    /// [`SimEvent::DelayBounded`] answer has expired: ask the arbitration
    /// policy ([`Arbiter::delay_expired`]) whether to force the queued
    /// request through and proceed, overlapping the current accessor —
    /// the [`Strategy::Delay`](crate::Strategy) trade-off. Returns
    /// whether a pending request was actually forced (`false` when the
    /// grant had already arrived, nothing was pending, or the policy
    /// withdrew the promise and kept the request queued — in the last
    /// case the request *stays* pending and a later
    /// [`Coordinator::wait`] concludes it normally).
    ///
    /// Forcing goes through [`Arbiter::force_grant`], whose contract
    /// guarantees the queue entry is cleared along with the grant: the
    /// pending request is concluded and observed exactly once.
    ///
    /// Observed as [`SimEvent::AccessGranted`]: with
    /// [`GrantKind::DelayElapsed`] when the request really had to be
    /// forced — the same vocabulary [`Session`](crate::Session) uses when
    /// its internal delay timer fires — or with [`GrantKind::AfterWait`]
    /// when the arbiter had already handed the slot over within the
    /// budget (an ordinary queue handover the driver just had not
    /// observed yet).
    pub fn delay_elapsed(&mut self) -> bool {
        enum Outcome {
            AlreadyGranted,
            Forced,
            KeptWaiting,
        }
        let app = self.app;
        if self.blocked.is_none() {
            return false;
        }
        let outcome = self.transport.with(|arb| {
            if arb.is_granted(app) {
                Outcome::AlreadyGranted
            } else if arb.delay_expired(app) {
                Outcome::Forced
            } else {
                Outcome::KeptWaiting
            }
        });
        let grant = match outcome {
            // The policy kept the request queued: nothing to observe yet,
            // the pending-grant invariant still holds.
            Outcome::KeptWaiting => return false,
            Outcome::AlreadyGranted => GrantKind::AfterWait,
            Outcome::Forced => GrantKind::DelayElapsed,
        };
        self.blocked = None;
        self.emit(SimEvent::AccessGranted { app, grant });
        matches!(grant, GrantKind::DelayElapsed)
    }

    /// `Release()` at the end of the I/O phase: gives up the access slot,
    /// re-evaluates the global strategy and lets the next application in.
    pub fn release(&mut self) {
        let app = self.app;
        self.transport.with(|arb| arb.release(app));
    }
}

impl<T: CoordinationTransport, O: SimObserver> std::fmt::Debug for Coordinator<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("app", &self.app)
            .field("prepared", &self.prepared.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EfficiencyMetric;
    use crate::policy::DynamicPolicy;
    use crate::strategy::Strategy;
    use mpiio::Granularity;

    fn info(app: usize, procs: u32, total: f64, remaining: f64) -> IoInfo {
        IoInfo {
            app: AppId(app),
            procs,
            files_total: 1,
            rounds_total: 4,
            bytes_total: total * 1e9,
            bytes_remaining: remaining * 1e9,
            est_alone_total_secs: total,
            est_alone_remaining_secs: remaining,
            pfs_share: 1.0,
            granularity: Granularity::Round,
        }
    }

    fn arbiter(strategy: Strategy) -> Arbiter {
        Arbiter::new(
            strategy,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
    }

    fn pair(strategy: Strategy) -> (Coordinator, Coordinator) {
        let transport = LocalTransport::new(arbiter(strategy));
        (
            Coordinator::new(AppId(0), transport.clone()),
            Coordinator::new(AppId(1), transport),
        )
    }

    #[test]
    fn prepare_and_complete_stack_info() {
        let (mut a, _) = pair(Strategy::FcfsSerialize);
        assert!(a.complete().is_none());
        a.prepare(info(0, 64, 10.0, 10.0));
        a.prepare(info(0, 64, 10.0, 5.0));
        assert_eq!(a.complete().unwrap().est_alone_remaining_secs, 5.0);
        assert_eq!(a.complete().unwrap().est_alone_remaining_secs, 10.0);
        assert!(a.complete().is_none());
    }

    #[test]
    fn fcfs_protocol_through_the_api() {
        let (mut a, mut b) = pair(Strategy::FcfsSerialize);
        a.prepare(info(0, 336, 12.0, 12.0));
        assert_eq!(a.inform(), AccessOutcome::Granted);
        assert!(a.check());

        b.prepare(info(1, 336, 12.0, 12.0));
        assert_eq!(b.inform(), AccessOutcome::MustWait);
        assert!(!b.check());
        assert!(!b.wait());

        // A's mid-phase coordination points do not preempt it under FCFS.
        assert_eq!(a.yield_point(None), YieldOutcome::Continue);

        a.release();
        assert!(b.check(), "B is granted once A releases");
        assert!(b.wait());
    }

    #[test]
    fn interrupt_protocol_through_the_api() {
        let (mut a, mut b) = pair(Strategy::Interrupt);
        a.prepare(info(0, 2048, 28.0, 28.0));
        a.inform();
        b.prepare(info(1, 2048, 7.0, 7.0));
        assert_eq!(b.inform(), AccessOutcome::MustWait);

        // A discovers the interruption request at its next yield point and
        // refreshes its remaining-work information while doing so.
        assert_eq!(
            a.yield_point(Some(info(0, 2048, 28.0, 21.0))),
            YieldOutcome::YieldNow
        );
        assert!(!a.check());
        assert!(b.check());

        // When B releases, A is granted again and resumes.
        b.release();
        assert!(a.check());
        a.release();
    }

    #[test]
    fn pending_grant_invariant_false_wait_means_queued_request() {
        // The satellite invariant: whenever wait() reports false, the
        // request is still queued in the arbiter — it was parked, not
        // dropped — and releasing the accessor eventually grants it.
        for strategy in [
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
            Strategy::Delay { max_wait_secs: 5.0 },
        ] {
            let (mut a, mut b) = pair(strategy);
            a.prepare(info(0, 336, 12.0, 12.0));
            a.inform();
            b.prepare(info(1, 336, 12.0, 12.0));
            b.inform();
            if !b.wait() {
                assert!(
                    b.pending(),
                    "{strategy:?}: a false wait() must leave the request queued"
                );
                a.release();
                assert!(
                    b.wait(),
                    "{strategy:?}: the queued request must be granted on release"
                );
                assert!(!b.pending());
            }
        }
    }

    #[test]
    fn shared_transport_runs_the_protocol_across_threads() {
        // The same FCFS handshake, with each coordinator living on its own
        // thread — possible because SharedTransport (and thus the
        // coordinators built on it) is Send + Sync.
        let transport = SharedTransport::new(arbiter(Strategy::FcfsSerialize));
        let mut a = Coordinator::new(AppId(0), transport.clone());
        let mut b = Coordinator::new(AppId(1), transport);
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    a.prepare(info(0, 336, 12.0, 12.0));
                    assert_eq!(a.inform(), AccessOutcome::Granted);
                    a.release();
                })
                .join()
                .expect("coordinator thread");
            scope
                .spawn(move || {
                    b.prepare(info(1, 336, 12.0, 12.0));
                    assert_eq!(b.inform(), AccessOutcome::Granted);
                    b.release();
                })
                .join()
                .expect("coordinator thread");
        });
    }

    #[test]
    fn coordinator_is_debug_and_reports_app() {
        let (a, _) = pair(Strategy::Interfere);
        assert_eq!(a.app(), AppId(0));
        let dbg = format!("{a:?}");
        assert!(dbg.contains("Coordinator"));
    }

    #[test]
    fn delay_elapsed_forces_the_grant_and_reports_it() {
        let (mut a, mut b) = pair(Strategy::Delay { max_wait_secs: 2.0 });
        a.prepare(info(0, 336, 12.0, 12.0));
        assert_eq!(a.inform(), AccessOutcome::Granted);
        b.prepare(info(1, 336, 12.0, 12.0));
        assert_eq!(b.inform(), AccessOutcome::MustWaitAtMost(2.0));
        assert!(!b.wait());
        // The driver's budget timer fires: B proceeds, overlapping A.
        assert!(b.delay_elapsed());
        assert!(b.check() && a.check(), "both overlap after the budget");
        // Idempotent: nothing is pending the second time.
        assert!(!b.delay_elapsed());
        // Without a preceding refusal the call is a no-op.
        assert!(!a.delay_elapsed());
    }

    #[test]
    fn observed_coordinator_streams_the_protocol() {
        use simcore::observe::EventLog;

        /// Collects the coordination stream for inspection.
        #[derive(Default, Clone)]
        struct Collector(EventLog<SimEvent>);
        impl SimObserver for Collector {
            fn on_event(&mut self, at: SimTime, event: &SimEvent) {
                self.0.push(at, *event);
            }
        }

        let transport = LocalTransport::new(arbiter(Strategy::Interrupt));
        let mut a = Coordinator::with_observer(AppId(0), transport.clone(), Collector::default());
        let mut b = Coordinator::with_observer(AppId(1), transport, Collector::default());

        a.prepare(info(0, 2048, 28.0, 28.0));
        a.inform();
        b.set_now(SimTime::from_secs(2.0));
        b.prepare(info(1, 2048, 7.0, 7.0));
        assert_eq!(b.inform(), AccessOutcome::MustWait);
        assert!(!b.wait());

        a.set_now(SimTime::from_secs(3.0));
        assert_eq!(
            a.yield_point(Some(info(0, 2048, 28.0, 21.0))),
            YieldOutcome::YieldNow
        );
        b.set_now(SimTime::from_secs(3.0));
        assert!(b.wait(), "B granted after A yields");
        b.set_now(SimTime::from_secs(9.0));
        b.release();
        a.set_now(SimTime::from_secs(9.0));
        assert!(a.wait(), "A resumes after B releases");

        let kinds = |c: &Coordinator<LocalTransport, Collector>| -> Vec<&'static str> {
            c.observer().0.iter().map(|e| e.event.kind()).collect()
        };
        assert_eq!(
            kinds(&a),
            vec![
                "access-requested",
                "access-granted",
                "interrupted",
                "resumed"
            ]
        );
        assert_eq!(kinds(&b), vec!["access-requested", "access-granted"]);
        // Events carry the driver-advanced clock.
        let b_events = b.into_observer().0;
        assert_eq!(b_events.events()[0].time, SimTime::from_secs(2.0));
        assert_eq!(b_events.last_time(), Some(SimTime::from_secs(3.0)));
        // B's grant arrived after waiting, not immediately.
        assert!(matches!(
            b_events.events()[1].event,
            SimEvent::AccessGranted {
                grant: GrantKind::AfterWait,
                ..
            }
        ));
    }
}
