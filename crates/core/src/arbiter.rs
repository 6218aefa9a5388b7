//! The coordination arbiter: the arbitration *mechanism engine*.
//!
//! The paper leaves open whether decisions are taken "by the applications
//! themselves or enforced by a system-provided entity"; what matters is the
//! information exchanged and the resulting schedule. The [`Arbiter`] is that
//! decision point: coordinators forward the `Inform` / `Check` / `Wait` /
//! `Release` calls of their application to it, and it tracks who currently
//! holds access to the file system, who is waiting, and who has been
//! interrupted.
//!
//! The arbiter owns only the *mechanisms* — granting, parking, interrupt
//! flags, resume ordering, message accounting. Every *decision* (admit or
//! queue a newcomer, preempt an accessor, pick the next grantee, honour a
//! delay timeout) is delegated to a boxed
//! [`ArbitrationPolicy`], which
//! observes the state through a read-only
//! [`ArbiterView`]. The legacy
//! [`Strategy`] enum survives as a constructor shim ([`Arbiter::new`])
//! that installs the corresponding built-in policy.
//!
//! The arbiter is purely a state machine over application identifiers and
//! exchanged [`IoInfo`]; it never touches the simulated file system, which
//! makes it directly reusable outside the simulation (e.g. behind an actual
//! MPI transport).

use crate::arbitration::{
    builtin_policy, ArbiterView, ArbitrationPolicy, GrantTrigger, ParkReason, ParkedQueue,
    RequestDecision, TimeoutDecision, YieldDecision,
};
use crate::info::IoInfo;
use crate::policy::DynamicPolicy;
use crate::strategy::{AccessOutcome, Strategy, YieldOutcome};
use pfs::AppId;
use simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Builds the read-only policy view from the engine's fields without
/// borrowing the policy itself (the policy is called `&mut` while the
/// view borrows the rest of the state).
macro_rules! view {
    ($self:ident) => {
        ArbiterView {
            active: &$self.active,
            parked: &$self.parked,
            interrupt_requested: &$self.interrupt_requested,
            info: &$self.info,
            now: $self.now,
            messages: $self.messages,
        }
    };
}

/// The global coordination state shared by all applications.
#[derive(Debug, Clone)]
pub struct Arbiter {
    /// The pluggable decision maker.
    policy: Box<dyn ArbitrationPolicy>,
    /// Applications currently allowed to access the file system.
    active: BTreeSet<AppId>,
    /// Parked applications in arrival order, with the reason they parked.
    parked: ParkedQueue,
    /// Active applications that have been asked to yield at their next
    /// coordination point.
    interrupt_requested: BTreeSet<AppId>,
    /// Latest information shared by each application (`Prepare`/`Inform`).
    info: BTreeMap<AppId, IoInfo>,
    /// Count of coordination messages exchanged (for accounting/ablations).
    messages: u64,
    /// Simulated clock, advanced by the driver ([`Arbiter::set_now`]) so
    /// time-aware policies can observe it.
    now: SimTime,
}

impl Arbiter {
    /// Creates an arbiter applying the given legacy strategy — a
    /// compatibility shim over [`Arbiter::with_policy`] installing the
    /// corresponding built-in policy. The dynamic policy configures the
    /// cost model and is only consulted when the strategy is
    /// [`Strategy::Dynamic`].
    pub fn new(strategy: Strategy, policy: DynamicPolicy) -> Self {
        Arbiter::with_policy(builtin_policy(strategy, policy))
    }

    /// Creates an arbiter driven by an arbitrary [`ArbitrationPolicy`] —
    /// the open entry point of the arbitration layer.
    pub fn with_policy(policy: Box<dyn ArbitrationPolicy>) -> Self {
        Arbiter {
            policy,
            active: BTreeSet::new(),
            parked: ParkedQueue::default(),
            interrupt_requested: BTreeSet::new(),
            info: BTreeMap::new(),
            messages: 0,
            now: SimTime::ZERO,
        }
    }

    /// Display label of the installed policy (e.g. `fcfs`, `delay(30s)`,
    /// `rr(10s)`).
    pub fn policy_label(&self) -> String {
        self.policy.label()
    }

    /// Advances the arbiter's clock so time-aware policies (quanta,
    /// deadlines) can observe simulated time. Monotone: the clock never
    /// goes backwards. Not a coordination message.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// Records (or refreshes) the information an application shared about
    /// its I/O activity. This is the effect of `Prepare` + `Inform`.
    pub fn update_info(&mut self, info: IoInfo) {
        self.messages += 1;
        self.info.insert(info.app, info);
    }

    /// Latest information shared by an application, if any.
    pub fn info_for(&self, app: AppId) -> Option<&IoInfo> {
        self.info.get(&app)
    }

    /// Latest information shared by every application, in id order — the
    /// source a hierarchical arbiter aggregates into per-machine rollups
    /// (read-only; sharing information stays a coordinator-driven act).
    pub fn infos(&self) -> impl Iterator<Item = &IoInfo> {
        self.info.values()
    }

    /// The arbiter's current simulated clock (last [`Arbiter::set_now`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Applications currently granted access, in id order.
    pub fn active(&self) -> Vec<AppId> {
        self.active.iter().copied().collect()
    }

    /// Number of applications currently granted access.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Applications currently parked (waiting or interrupted), in queue
    /// order.
    pub fn parked(&self) -> Vec<AppId> {
        self.parked.iter().map(|(a, _)| a).collect()
    }

    /// Number of applications currently parked — the arbiter's queue
    /// depth, without materializing the queue (load-aware callers such as
    /// the hierarchical root poll this on every visit).
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Whether the given application currently holds access.
    pub fn is_granted(&self, app: AppId) -> bool {
        self.active.contains(&app)
    }

    /// Whether the given application has a request queued (parked waiting
    /// for its first grant, or interrupted and waiting to resume). Together
    /// with [`Arbiter::is_granted`] this is the *pending-grant invariant*
    /// of the API: an application that asked for access and was refused is
    /// always either granted or pending — never forgotten.
    pub fn is_pending(&self, app: AppId) -> bool {
        self.parked.contains(app)
    }

    /// Number of coordination messages exchanged so far.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// An application asks for access to the file system at the start of an
    /// I/O phase (`Inform` followed by `Check`). Returns whether it may
    /// proceed; if not it is queued and [`Arbiter::is_granted`] will become
    /// true once access is granted.
    ///
    /// When the file system is completely free (nobody active, nobody
    /// parked) the engine grants without consulting the policy; every
    /// contended arrival is a policy decision
    /// ([`ArbitrationPolicy::on_request`]).
    pub fn request_access(&mut self, app: AppId) -> AccessOutcome {
        self.messages += 1;
        if self.active.contains(&app) {
            return AccessOutcome::Granted;
        }
        if self.active.is_empty() && self.parked.is_empty() {
            self.grant(app);
            return AccessOutcome::Granted;
        }
        let decision = self.policy.on_request(app, &view!(self));
        match decision {
            RequestDecision::Admit => {
                self.grant(app);
                AccessOutcome::Granted
            }
            RequestDecision::Queue => {
                self.park(app, ParkReason::Waiting);
                AccessOutcome::MustWait
            }
            RequestDecision::QueueWithTimeout { max_wait_secs } => {
                self.park(app, ParkReason::Waiting);
                AccessOutcome::MustWaitAtMost(max_wait_secs)
            }
            RequestDecision::QueueAndInterrupt => {
                for a in &self.active {
                    self.interrupt_requested.insert(*a);
                }
                self.park(app, ParkReason::Waiting);
                AccessOutcome::MustWait
            }
        }
    }

    /// An active application reached a coordination point between two
    /// atomic accesses (`Release` + `Inform` + `Check` in the ADIO layer).
    /// The policy decides ([`ArbitrationPolicy::on_yield`]) whether the
    /// caller pauses here; a yielded application is parked as
    /// [`ParkReason::Interrupted`] and must stop issuing I/O until
    /// re-granted.
    pub fn yield_point(&mut self, app: AppId) -> YieldOutcome {
        self.messages += 1;
        if !self.active.contains(&app) {
            // Not an accessor (e.g. running under Interfere without a
            // grant); nothing to do.
            return YieldOutcome::Continue;
        }
        match self.policy.on_yield(app, &view!(self)) {
            YieldDecision::Continue => YieldOutcome::Continue,
            YieldDecision::Yield => {
                self.interrupt_requested.remove(&app);
                self.active.remove(&app);
                self.park(app, ParkReason::Interrupted);
                // The whole point of yielding is to let a parked
                // application in.
                self.grant_next(GrantTrigger::Yielded);
                YieldOutcome::YieldNow
            }
        }
    }

    /// The application finished its I/O phase (`Release` at phase end /
    /// `Complete`). Frees its slot and grants the next parked application
    /// (chosen by [`ArbitrationPolicy::select_next`]).
    pub fn release(&mut self, app: AppId) {
        self.messages += 1;
        self.active.remove(&app);
        self.interrupt_requested.remove(&app);
        // Also drop it from the parked queue if it had been re-queued.
        self.parked.remove(app);
        self.grant_next(GrantTrigger::Released);
    }

    /// Forces a parked application to be granted access even though others
    /// are active (used by the bounded-delay strategy when the wait budget
    /// expires).
    ///
    /// **Contract with pending delay timeouts**: a force-granted
    /// application always leaves the parked queue — its pending entry is
    /// cleared here, so a later release can never hand it a second,
    /// spurious grant, and [`Arbiter::is_pending`] turns false the moment
    /// the force lands. Callers driving their own delay timers (see
    /// [`Coordinator::delay_elapsed`](crate::Coordinator::delay_elapsed))
    /// rely on exactly this to conclude the pending request once.
    pub fn force_grant(&mut self, app: AppId) {
        if self.active.contains(&app) {
            return;
        }
        self.parked.remove(app);
        self.grant(app);
        self.messages += 1;
        debug_assert!(
            !self.is_pending(app),
            "force_grant must clear {app}'s pending entry"
        );
    }

    /// A bounded-delay budget expired for `app`'s queued request: asks the
    /// policy ([`ArbitrationPolicy::on_delay_expired`]) whether to force
    /// the grant through. Returns whether the application may now proceed
    /// (`true` when it was already granted in the meantime or the policy
    /// forced the grant; `false` when the policy keeps it queued).
    pub fn delay_expired(&mut self, app: AppId) -> bool {
        if self.active.contains(&app) {
            return true;
        }
        match self.policy.on_delay_expired(app, &view!(self)) {
            TimeoutDecision::ForceGrant => {
                self.force_grant(app);
                true
            }
            TimeoutDecision::KeepWaiting => false,
        }
    }

    fn park(&mut self, app: AppId, reason: ParkReason) {
        self.parked.push_back(app, reason);
    }

    /// Inserts `app` into the active set and notifies the policy — every
    /// grant, however it came about, flows through here.
    fn grant(&mut self, app: AppId) {
        self.active.insert(app);
        self.policy.on_grant(app, &view!(self));
    }

    /// Grants access to the next parked application if nobody is active.
    /// The choice is the policy's ([`ArbitrationPolicy::select_next`]);
    /// an invalid answer (not parked / `None`) falls back to the head of
    /// the queue so a buggy policy can delay but never deadlock the
    /// engine.
    fn grant_next(&mut self, trigger: GrantTrigger) {
        if !self.active.is_empty() || self.parked.is_empty() {
            return;
        }
        let pick = self.policy.select_next(trigger, &view!(self));
        // An invalid answer (not parked / `None`) falls back to the head.
        let chosen = pick
            .filter(|app| self.parked.contains(*app))
            .or_else(|| self.parked.first());
        if let Some(app) = chosen {
            self.parked.remove(app);
            self.grant(app);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::{RoundRobinQuantum, ShortestRemainingFirst, WeightedPriority};
    use crate::metrics::EfficiencyMetric;
    use mpiio::Granularity;

    fn arbiter(strategy: Strategy) -> Arbiter {
        Arbiter::new(
            strategy,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
    }

    fn info(app: usize, procs: u32, total: f64, remaining: f64) -> IoInfo {
        IoInfo {
            app: AppId(app),
            procs,
            files_total: 1,
            rounds_total: 1,
            bytes_total: total,
            bytes_remaining: remaining,
            est_alone_total_secs: total,
            est_alone_remaining_secs: remaining,
            pfs_share: 1.0,
            granularity: Granularity::Round,
        }
    }

    #[test]
    fn first_requester_is_always_granted() {
        for strategy in [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ] {
            let mut arb = arbiter(strategy);
            assert_eq!(arb.request_access(AppId(0)), AccessOutcome::Granted);
            assert!(arb.is_granted(AppId(0)));
        }
    }

    #[test]
    fn interfere_grants_everyone() {
        let mut arb = arbiter(Strategy::Interfere);
        assert_eq!(arb.request_access(AppId(0)), AccessOutcome::Granted);
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::Granted);
        assert_eq!(arb.active(), vec![AppId(0), AppId(1)]);
    }

    #[test]
    fn fcfs_queues_second_app_until_release() {
        let mut arb = arbiter(Strategy::FcfsSerialize);
        arb.request_access(AppId(0));
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        assert!(!arb.is_granted(AppId(1)));
        // Yield points do not preempt under FCFS.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::Continue);
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)));
    }

    #[test]
    fn interrupt_preempts_at_next_yield_point() {
        let mut arb = arbiter(Strategy::Interrupt);
        arb.request_access(AppId(0));
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        // The accessor keeps running until its next coordination point...
        assert!(!arb.is_granted(AppId(1)));
        // ...where it is told to yield and the newcomer is granted.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(!arb.is_granted(AppId(0)));
        assert!(arb.is_granted(AppId(1)));
        // When the newcomer releases, the interrupted application resumes.
        arb.release(AppId(1));
        assert!(arb.is_granted(AppId(0)));
    }

    #[test]
    fn interrupted_app_resumes_before_later_waiters() {
        let mut arb = arbiter(Strategy::Interrupt);
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        arb.yield_point(AppId(0)); // 0 interrupted, 1 active
        arb.request_access(AppId(2)); // 2 parks, asks to interrupt 1
        assert_eq!(arb.yield_point(AppId(1)), YieldOutcome::YieldNow);
        // 2 was the head of the waiting queue but 1 was interrupted... the
        // next grant goes to the earliest *interrupted* application.
        assert!(arb.is_granted(AppId(0)) || arb.is_granted(AppId(2)));
        // Releases eventually drain everyone.
        let mut done = 0;
        for _ in 0..10 {
            let active = arb.active();
            if let Some(a) = active.first() {
                arb.release(*a);
                done += 1;
            }
        }
        assert!(done >= 3);
        assert!(arb.active().is_empty());
        assert!(arb.parked().is_empty());
    }

    #[test]
    fn delay_strategy_reports_bound_and_force_grant_overlaps() {
        let mut arb = arbiter(Strategy::Delay { max_wait_secs: 3.0 });
        arb.request_access(AppId(0));
        assert_eq!(
            arb.request_access(AppId(1)),
            AccessOutcome::MustWaitAtMost(3.0)
        );
        arb.force_grant(AppId(1));
        assert!(arb.is_granted(AppId(1)));
        assert!(
            arb.is_granted(AppId(0)),
            "both overlap after the delay expires"
        );
        assert!(arb.parked().is_empty());
    }

    #[test]
    fn force_grant_clears_the_pending_entry() {
        // The documented force-grant ↔ delay-timeout contract: once the
        // budget expires and the request is forced through, the queue
        // entry is gone — a later release cannot double-grant, and the
        // pending-grant invariant reports "granted", not "pending".
        let mut arb = arbiter(Strategy::Delay { max_wait_secs: 5.0 });
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        assert!(arb.is_pending(AppId(1)));
        arb.force_grant(AppId(1));
        assert!(arb.is_granted(AppId(1)));
        assert!(!arb.is_pending(AppId(1)), "pending entry must be cleared");
        // The overlapped accessor finishing must not disturb the forced
        // grantee: it stays granted, nothing else is promoted.
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)));
        assert_eq!(arb.active(), vec![AppId(1)]);
        assert!(arb.parked().is_empty());
        // Idempotent on an already-granted application.
        let messages = arb.message_count();
        arb.force_grant(AppId(1));
        assert_eq!(arb.message_count(), messages);
    }

    #[test]
    fn delay_expired_consults_the_policy() {
        // Built-in bounded delay forces the grant through…
        let mut arb = arbiter(Strategy::Delay { max_wait_secs: 1.0 });
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        assert!(arb.delay_expired(AppId(1)));
        assert!(arb.is_granted(AppId(1)) && !arb.is_pending(AppId(1)));
        // …and an already-granted application is a proceed without a
        // forced grant (no extra message).
        let messages = arb.message_count();
        assert!(arb.delay_expired(AppId(1)));
        assert_eq!(arb.message_count(), messages);

        // A policy that withdraws the promise keeps the request queued.
        #[derive(Debug, Clone)]
        struct Renege;
        impl ArbitrationPolicy for Renege {
            fn spec(&self) -> crate::arbitration::PolicySpec {
                crate::arbitration::PolicySpec::new("renege")
            }
            fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
                RequestDecision::QueueWithTimeout { max_wait_secs: 1.0 }
            }
            fn on_delay_expired(
                &mut self,
                _app: AppId,
                _view: &ArbiterView<'_>,
            ) -> TimeoutDecision {
                TimeoutDecision::KeepWaiting
            }
            fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
                Box::new(self.clone())
            }
        }
        let mut arb = Arbiter::with_policy(Box::new(Renege));
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        assert!(!arb.delay_expired(AppId(1)), "policy kept it waiting");
        assert!(arb.is_pending(AppId(1)) && !arb.is_granted(AppId(1)));
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)), "still granted by the release");
    }

    #[test]
    fn dynamic_interrupts_when_cheaper() {
        let mut arb = arbiter(Strategy::Dynamic);
        arb.update_info(info(0, 2048, 28.0, 25.0));
        arb.update_info(info(1, 2048, 7.0, 7.0));
        arb.request_access(AppId(0));
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        // Interrupting A costs 2048×7, FCFS costs 2048×25 → interrupt.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(arb.is_granted(AppId(1)));
    }

    #[test]
    fn dynamic_waits_when_accessor_is_nearly_done() {
        let mut arb = arbiter(Strategy::Dynamic);
        arb.update_info(info(0, 2048, 28.0, 3.0));
        arb.update_info(info(1, 2048, 7.0, 7.0));
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        // FCFS costs 2048×3, interrupting costs 2048×7 → no interruption.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::Continue);
        assert!(!arb.is_granted(AppId(1)));
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)));
    }

    #[test]
    fn dynamic_without_info_falls_back_to_fcfs() {
        let mut arb = arbiter(Strategy::Dynamic);
        arb.request_access(AppId(0));
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::Continue);
    }

    #[test]
    fn release_is_idempotent_and_clears_state() {
        let mut arb = arbiter(Strategy::FcfsSerialize);
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        arb.release(AppId(0));
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)));
        arb.release(AppId(1));
        assert!(arb.active().is_empty());
        assert!(arb.parked().is_empty());
    }

    #[test]
    fn message_count_increases_with_coordination() {
        let mut arb = arbiter(Strategy::FcfsSerialize);
        let before = arb.message_count();
        arb.update_info(info(0, 8, 1.0, 1.0));
        arb.request_access(AppId(0));
        arb.yield_point(AppId(0));
        arb.release(AppId(0));
        assert!(arb.message_count() >= before + 4);
    }

    #[test]
    fn refused_requests_stay_pending_until_granted() {
        // The pending-grant invariant behind `Coordinator::wait`: a request
        // that is not granted immediately is queued — it can always be
        // found in the parked set until a release/yield grants it.
        for strategy in [
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
            Strategy::Delay { max_wait_secs: 9.0 },
        ] {
            let mut arb = arbiter(strategy);
            arb.update_info(info(0, 64, 10.0, 10.0));
            arb.update_info(info(1, 64, 10.0, 10.0));
            arb.request_access(AppId(0));
            let outcome = arb.request_access(AppId(1));
            if outcome != AccessOutcome::Granted {
                assert!(
                    arb.is_pending(AppId(1)),
                    "{strategy:?}: refused request must be queued"
                );
                assert!(!arb.is_granted(AppId(1)));
                arb.release(AppId(0));
                // A yield-less release hands the slot over.
                assert!(arb.is_granted(AppId(1)), "{strategy:?}");
                assert!(!arb.is_pending(AppId(1)), "{strategy:?}");
            }
        }
    }

    #[test]
    fn dynamic_many_apps_grant_in_arrival_order() {
        // Machine-mix regime: N applications, all with identical work, so
        // the dynamic policy always prefers waiting (interrupting an
        // accessor with as much remaining work as the requester saves
        // nothing). Grants must then flow strictly in arrival order.
        const N: usize = 8;
        let mut arb = arbiter(Strategy::Dynamic);
        for i in 0..N {
            arb.update_info(info(i, 512, 10.0, 10.0));
        }
        assert_eq!(arb.request_access(AppId(0)), AccessOutcome::Granted);
        for i in 1..N {
            assert_eq!(arb.request_access(AppId(i)), AccessOutcome::MustWait);
            assert!(arb.is_pending(AppId(i)));
        }
        assert_eq!(arb.parked(), (1..N).map(AppId).collect::<Vec<_>>());

        let mut grant_order = vec![AppId(0)];
        for _ in 1..N {
            let current = arb.active()[0];
            // Mid-phase coordination points never preempt here: waiting is
            // always at least as cheap as interrupting an equal peer.
            assert_eq!(arb.yield_point(current), YieldOutcome::Continue);
            arb.release(current);
            let next = arb.active();
            assert_eq!(next.len(), 1, "exactly one accessor at a time");
            grant_order.push(next[0]);
        }
        assert_eq!(
            grant_order,
            (0..N).map(AppId).collect::<Vec<_>>(),
            "grants must follow arrival order"
        );
    }

    #[test]
    fn dynamic_many_apps_interruption_fairness() {
        // A long-running accessor among N short requesters: the policy
        // interrupts the accessor, and once the interrupters drain, the
        // interrupted application resumes *before* any later arrival —
        // interruption must not starve the preempted application.
        let mut arb = arbiter(Strategy::Dynamic);
        arb.update_info(info(0, 2048, 100.0, 90.0));
        arb.request_access(AppId(0));
        // Three small applications arrive while 0 holds the file system.
        for i in 1..4 {
            arb.update_info(info(i, 2048, 5.0, 5.0));
            assert_eq!(arb.request_access(AppId(i)), AccessOutcome::MustWait);
        }
        // 0 discovers the interruption request at its next yield point.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(!arb.is_granted(AppId(0)));
        assert!(arb.is_pending(AppId(0)), "interrupted, not forgotten");
        let first = arb.active()[0];
        assert_ne!(first, AppId(0), "a waiting newcomer got the slot");

        // When the interrupter releases, the interrupted application
        // resumes *before* the later waiters (they arrived after it was
        // already holding the file system).
        arb.release(first);
        assert!(
            arb.is_granted(AppId(0)),
            "interrupted application resumes before later waiters"
        );
        // An interruption request exists only at request time: the parked
        // waiters do not preempt the resumed application again.
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::Continue);
        arb.release(AppId(0));

        // The remaining waiters then drain in arrival order.
        let mut drained = Vec::new();
        while let Some(&next) = arb.active().first() {
            drained.push(next);
            arb.release(next);
        }
        let mut expected: Vec<AppId> = (1..4).map(AppId).filter(|a| *a != first).collect();
        expected.sort();
        assert_eq!(drained, expected, "later waiters drain in arrival order");
        assert!(arb.active().is_empty());
        assert!(arb.parked().is_empty());
    }

    #[test]
    fn dynamic_messages_scale_linearly_with_coordination_points() {
        // Every protocol call (`update_info`, `request_access`,
        // `yield_point`, `release`) is exactly one counted message, so the
        // total is an exact linear function of the number of coordination
        // points — no hidden N² chatter as the mix grows.
        for n in [4usize, 8, 16, 32] {
            let mut arb = arbiter(Strategy::Dynamic);
            let yields_per_app = 3u64;
            for i in 0..n {
                arb.update_info(info(i, 256, 10.0, 10.0));
                arb.request_access(AppId(i));
            }
            for round in 0..yields_per_app {
                for i in 0..n {
                    if arb.is_granted(AppId(i)) {
                        arb.yield_point(AppId(i));
                    } else {
                        // Refresh shared information at the coordination
                        // point instead.
                        arb.update_info(info(i, 256, 10.0, 10.0 - round as f64));
                    }
                }
            }
            for i in 0..n {
                arb.release(AppId(i));
            }
            let coordination_points = n as u64      // initial update_info
                + n as u64                          // request_access
                + yields_per_app * n as u64         // one call per point
                + n as u64; // release
            assert_eq!(
                arb.message_count(),
                coordination_points,
                "messages must be exactly linear in coordination points (n = {n})"
            );
        }
    }

    #[test]
    fn double_request_from_same_app_stays_granted() {
        let mut arb = arbiter(Strategy::FcfsSerialize);
        assert_eq!(arb.request_access(AppId(0)), AccessOutcome::Granted);
        assert_eq!(arb.request_access(AppId(0)), AccessOutcome::Granted);
        assert_eq!(arb.active(), vec![AppId(0)]);
    }

    // -- Mechanism engine with the extended policies ---------------------

    #[test]
    fn weighted_priority_preempts_smaller_accessors() {
        let mut arb = Arbiter::with_policy(Box::new(WeightedPriority));
        arb.update_info(info(0, 256, 10.0, 10.0));
        arb.update_info(info(1, 2048, 10.0, 10.0));
        arb.update_info(info(2, 64, 10.0, 10.0));
        arb.request_access(AppId(0));
        // A heavier job arrives: the accessor is asked to yield.
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(arb.is_granted(AppId(1)));
        // A lighter job arrives: no preemption.
        assert_eq!(arb.request_access(AppId(2)), AccessOutcome::MustWait);
        assert_eq!(arb.yield_point(AppId(1)), YieldOutcome::Continue);
        // On release the *heaviest* parked job goes first (0 with 256
        // cores beats 2 with 64), regardless of park reason.
        arb.release(AppId(1));
        assert!(arb.is_granted(AppId(0)));
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(2)));
        arb.release(AppId(2));
        assert!(arb.active().is_empty() && arb.parked().is_empty());
    }

    #[test]
    fn weighted_priority_ties_break_by_arrival_order() {
        // Equal weights fall back to FIFO: a later arrival with the same
        // core count must not jump the queue (the documented
        // "earliest arrival breaks ties" rule; app ids are deliberately
        // out of arrival order here).
        let mut arb = Arbiter::with_policy(Box::new(WeightedPriority));
        for (order, id) in [7usize, 3, 5].into_iter().enumerate() {
            arb.update_info(info(id, 128, 10.0, 10.0));
            let _ = arb.request_access(AppId(id));
            if order == 0 {
                assert!(arb.is_granted(AppId(id)));
            }
        }
        arb.release(AppId(7));
        assert!(arb.is_granted(AppId(3)), "first-queued equal-weight wins");
        arb.release(AppId(3));
        assert!(arb.is_granted(AppId(5)));
    }

    #[test]
    fn srpf_serves_the_shortest_remaining_phase_first() {
        let mut arb = Arbiter::with_policy(Box::new(ShortestRemainingFirst));
        arb.update_info(info(0, 512, 20.0, 18.0));
        arb.request_access(AppId(0));
        // A short newcomer (3 s < 18 s remaining) preempts.
        arb.update_info(info(1, 512, 3.0, 3.0));
        assert_eq!(arb.request_access(AppId(1)), AccessOutcome::MustWait);
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(arb.is_granted(AppId(1)));
        // A medium job queues; on release the queue is served by
        // remaining time (5 s before 18 s).
        arb.update_info(info(2, 512, 5.0, 5.0));
        arb.request_access(AppId(2));
        arb.release(AppId(1));
        assert!(arb.is_granted(AppId(2)), "5 s beats the 18 s remainder");
        arb.release(AppId(2));
        assert!(arb.is_granted(AppId(0)));
    }

    #[test]
    fn round_robin_quantum_time_slices_fifo() {
        let mut arb = Arbiter::with_policy(Box::new(RoundRobinQuantum::new(5.0)));
        arb.set_now(SimTime::from_secs(0.0));
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        arb.request_access(AppId(2));
        // Within the quantum the accessor continues…
        arb.set_now(SimTime::from_secs(2.0));
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::Continue);
        // …after it, the accessor yields and the FIFO head goes next.
        arb.set_now(SimTime::from_secs(5.0));
        assert_eq!(arb.yield_point(AppId(0)), YieldOutcome::YieldNow);
        assert!(arb.is_granted(AppId(1)));
        // The preempted application re-queued at the back: after 1 yields,
        // 2 (not 0) is served.
        arb.set_now(SimTime::from_secs(10.0));
        assert_eq!(arb.yield_point(AppId(1)), YieldOutcome::YieldNow);
        assert!(arb.is_granted(AppId(2)));
        // With an empty queue the accessor is never preempted.
        arb.release(AppId(2));
        arb.release(AppId(0));
        arb.release(AppId(1));
        let last = arb.active();
        if let Some(&a) = last.first() {
            arb.set_now(SimTime::from_secs(100.0));
            assert_eq!(arb.yield_point(a), YieldOutcome::Continue);
            arb.release(a);
        }
        assert!(arb.active().is_empty() && arb.parked().is_empty());
    }

    #[test]
    fn custom_policy_select_next_fallback_is_safe() {
        // A policy returning a non-parked application from select_next
        // must not deadlock the engine: the head of the queue is granted
        // instead.
        #[derive(Debug, Clone)]
        struct Confused;
        impl ArbitrationPolicy for Confused {
            fn spec(&self) -> crate::arbitration::PolicySpec {
                crate::arbitration::PolicySpec::new("confused")
            }
            fn on_request(&mut self, _app: AppId, _view: &ArbiterView<'_>) -> RequestDecision {
                RequestDecision::Queue
            }
            fn select_next(
                &mut self,
                _trigger: GrantTrigger,
                _view: &ArbiterView<'_>,
            ) -> Option<AppId> {
                Some(AppId(999))
            }
            fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
                Box::new(self.clone())
            }
        }
        let mut arb = Arbiter::with_policy(Box::new(Confused));
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        arb.release(AppId(0));
        assert!(arb.is_granted(AppId(1)), "fallback grants the queue head");
    }

    #[test]
    fn arbiter_clones_policy_state() {
        let mut arb = Arbiter::with_policy(Box::new(RoundRobinQuantum::new(1.0)));
        arb.set_now(SimTime::from_secs(0.0));
        arb.request_access(AppId(0));
        arb.request_access(AppId(1));
        let mut copy = arb.clone();
        arb.set_now(SimTime::from_secs(2.0));
        copy.set_now(SimTime::from_secs(2.0));
        assert_eq!(arb.yield_point(AppId(0)), copy.yield_point(AppId(0)));
        assert_eq!(arb.active(), copy.active());
        assert_eq!(arb.policy_label(), "rr(1s)");
    }

    #[test]
    fn set_now_is_monotone_and_message_free() {
        let mut arb = arbiter(Strategy::FcfsSerialize);
        let messages = arb.message_count();
        arb.set_now(SimTime::from_secs(5.0));
        arb.set_now(SimTime::from_secs(3.0));
        assert_eq!(arb.message_count(), messages);
        // The clock never went backwards: a time-aware policy observing it
        // at the next decision sees 5 s (asserted indirectly through the
        // round-robin test above; here we just pin the message count).
    }
}
