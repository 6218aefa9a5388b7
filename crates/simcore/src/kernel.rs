//! The discrete-event kernel: one owner for simulated time.
//!
//! A [`Kernel`] couples the two time sources every simulation in this
//! workspace has — a discrete [`EventQueue`] of scheduled occurrences and a
//! continuous [`Medium`] (a [`FluidNetwork`], or the `pfs` crate's file
//! system built on one) whose internal state evolves between events — behind
//! a single `schedule` / `cancel` / `advance_to_next` API. Drivers no
//! longer juggle two clocks and hand-merge "next queue event" with "next
//! flow completion": the kernel owns *the* clock, advances the medium
//! exactly to each decision point, and hands due events back one at a time.
//!
//! ```
//! use simcore::fluid::{FlowSpec, FluidNetwork};
//! use simcore::kernel::Kernel;
//! use simcore::time::SimTime;
//!
//! let mut net = FluidNetwork::new();
//! let server = net.add_constraint(100.0);
//! net.add_flow(FlowSpec::new(250.0, 1.0, f64::INFINITY, vec![server]));
//!
//! let mut kernel: Kernel<&str, _> = Kernel::new(net);
//! kernel.schedule(SimTime::from_secs(1.0), "tick");
//!
//! // First decision point: the queued event at t = 1 s...
//! assert_eq!(kernel.advance_to_next(), Some(SimTime::from_secs(1.0)));
//! assert_eq!(kernel.pop_due(), Some("tick"));
//! assert_eq!(kernel.pop_due(), None);
//! // ...then the medium's own next change: the flow completes at 2.5 s.
//! assert_eq!(kernel.advance_to_next(), Some(SimTime::from_secs(2.5)));
//! assert!(kernel.medium().is_complete(simcore::FlowId(0)));
//! // Nothing left on either axis.
//! assert_eq!(kernel.advance_to_next(), None);
//! ```

use crate::event::{EventId, EventQueue};
use crate::fair::VtFairNetwork;
use crate::fluid::FluidNetwork;
use crate::time::{SimDuration, SimTime};
use crate::work::Work;

/// The continuous half of a simulation: state that evolves on its own
/// between discrete events and occasionally produces decision points of its
/// own (a flow completing, a cache crossing a threshold).
///
/// Implementations keep *relative* time — the kernel owns the absolute
/// clock. [`FluidNetwork`] implements this directly; richer substrates
/// (the `pfs` crate's file system) implement it by delegating to their
/// internal stepping, and `()` is the trivial medium for purely discrete
/// simulations.
pub trait Medium {
    /// Time until the medium's next internal change, or `None` when
    /// nothing is in flight. Implementations must return a strictly
    /// positive duration so a driver looping on decision points always
    /// makes progress.
    fn time_to_next(&mut self) -> Option<SimDuration>;

    /// Advances the medium's internal state by `dt`.
    fn advance(&mut self, dt: SimDuration);

    /// The work the medium has done so far; media that count nothing
    /// report zeros.
    fn work(&self) -> Work {
        Work::default()
    }
}

/// The trivial medium: no continuous state.
impl Medium for () {
    fn time_to_next(&mut self) -> Option<SimDuration> {
        None
    }
    fn advance(&mut self, _dt: SimDuration) {}
}

impl Medium for FluidNetwork {
    fn time_to_next(&mut self) -> Option<SimDuration> {
        // A completion remainder below half a tick rounds to a zero
        // duration; clamp to one tick so a driver looping on
        // `advance_to_next` always makes progress (the trait's
        // strictly-positive contract).
        self.time_to_next_completion()
            .map(|d| d.max(SimDuration::from_ticks(1)))
    }
    fn advance(&mut self, dt: SimDuration) {
        FluidNetwork::advance(self, dt);
    }
    fn work(&self) -> Work {
        FluidNetwork::work(self)
    }
}

impl Medium for VtFairNetwork {
    fn time_to_next(&mut self) -> Option<SimDuration> {
        self.time_to_next_completion()
            .map(|d| d.max(SimDuration::from_ticks(1)))
    }
    fn advance(&mut self, dt: SimDuration) {
        VtFairNetwork::advance(self, dt);
    }
    fn work(&self) -> Work {
        VtFairNetwork::work(self)
    }
}

/// The event kernel: a deterministic clock driving an [`EventQueue`] and a
/// [`Medium`] in lockstep.
pub struct Kernel<E, M: Medium = ()> {
    queue: EventQueue<E>,
    medium: M,
    now: SimTime,
    /// Queue traffic so far (the event fields of [`Work`]).
    events: Work,
}

impl<E> Kernel<E> {
    /// A kernel with no continuous state (timers only).
    pub fn discrete() -> Self {
        Kernel::new(())
    }
}

impl<E, M: Medium> Kernel<E, M> {
    /// Wraps a medium; the clock starts at [`SimTime::ZERO`], which must
    /// match the medium's own notion of "now" for stateful media.
    pub fn new(medium: M) -> Self {
        Kernel {
            queue: EventQueue::new(),
            medium,
            now: SimTime::ZERO,
            events: Work::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the medium.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Mutable access to the medium (submit flows, poll completions, …).
    /// State changes are fine at any point; only the *clock* is
    /// kernel-owned.
    pub fn medium_mut(&mut self) -> &mut M {
        &mut self.medium
    }

    /// Schedules `payload` at `at` (clamped to the present — the past is
    /// immutable) and returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        self.events.events_scheduled += 1;
        self.queue.schedule(at.max(self.now), payload)
    }

    /// Schedules `payload` after `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule(self.now + delay, payload)
    }

    /// Cancels a scheduled event; `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.queue.cancel(id);
        self.events.events_cancelled += cancelled as u64;
        cancelled
    }

    /// The work done so far: queue traffic plus the medium's own counts.
    pub fn work(&self) -> Work {
        self.events + self.medium.work()
    }

    /// Number of scheduled (live) events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Time of the next decision point — the earlier of the next queued
    /// event and the medium's next internal change — or `None` when both
    /// axes are exhausted (for a coupled simulation: deadlock or
    /// completion).
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        let tq = self.queue.peek_time();
        let tm = self.medium.time_to_next().map(|d| self.now + d);
        match (tq, tm) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Advances the clock (and the medium) to `target`. Targets at or
    /// before the present are a no-op — time never goes backwards.
    pub fn advance_to(&mut self, target: SimTime) {
        if target > self.now {
            self.medium.advance(target.saturating_since(self.now));
            self.now = target;
        }
    }

    /// Advances to the next decision point and returns the new time, or
    /// `None` when no decision point exists. Due events are *not* popped:
    /// drain them with [`Kernel::pop_due`], which also picks up events
    /// that handlers schedule *at* the present.
    pub fn advance_to_next(&mut self) -> Option<SimTime> {
        let next = self.peek_next_time()?;
        self.advance_to(next);
        Some(next)
    }

    /// Pops the next event due at (or before) the present, if any.
    pub fn pop_due(&mut self) -> Option<E> {
        if self.queue.peek_time()? <= self.now {
            self.events.events_popped += 1;
            self.queue.pop().map(|(_, e)| e)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FlowSpec;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn discrete_kernel_is_a_timer_wheel() {
        let mut kernel: Kernel<&str> = Kernel::discrete();
        kernel.schedule(t(2.0), "b");
        kernel.schedule(t(1.0), "a");
        let cancelled = kernel.schedule(t(1.5), "x");
        assert!(kernel.cancel(cancelled));
        assert_eq!(kernel.pending_events(), 2);

        assert_eq!(kernel.advance_to_next(), Some(t(1.0)));
        assert_eq!(kernel.pop_due(), Some("a"));
        assert_eq!(kernel.pop_due(), None);
        assert_eq!(kernel.advance_to_next(), Some(t(2.0)));
        assert_eq!(kernel.pop_due(), Some("b"));
        assert_eq!(kernel.advance_to_next(), None);
        assert_eq!(kernel.now(), t(2.0));
        assert_eq!(
            kernel.work(),
            Work {
                events_scheduled: 3,
                events_popped: 2,
                events_cancelled: 1,
                ..Work::default()
            }
        );
    }

    #[test]
    fn interleaves_queue_events_with_medium_changes() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let flow = net.add_flow(FlowSpec::new(300.0, 1.0, f64::INFINITY, vec![server]));

        let mut kernel: Kernel<u32, _> = Kernel::new(net);
        kernel.schedule(t(1.0), 1);
        kernel.schedule(t(5.0), 2);

        // Queue event at 1 s, completion at 3 s, queue event at 5 s.
        assert_eq!(kernel.advance_to_next(), Some(t(1.0)));
        assert_eq!(kernel.pop_due(), Some(1));
        assert_eq!(kernel.advance_to_next(), Some(t(3.0)));
        assert!(kernel.medium().is_complete(flow));
        assert_eq!(kernel.pop_due(), None, "no queue event due at 3 s");
        assert_eq!(kernel.advance_to_next(), Some(t(5.0)));
        assert_eq!(kernel.pop_due(), Some(2));
        assert_eq!(kernel.advance_to_next(), None);
    }

    #[test]
    fn medium_advances_exactly_to_each_decision_point() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(10.0);
        let flow = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![server]));
        let mut kernel: Kernel<(), _> = Kernel::new(net);
        kernel.schedule(t(4.0), ());

        assert_eq!(kernel.advance_to_next(), Some(t(4.0)));
        let p = kernel.medium_mut().progress(flow).unwrap();
        assert!((p.transferred - 40.0).abs() < 1e-6);
        // Handlers may schedule *at* the present; pop_due picks it up
        // without advancing the clock.
        kernel.schedule(kernel.now(), ());
        assert_eq!(kernel.pop_due(), Some(()));
        assert_eq!(kernel.pop_due(), Some(()));
        assert_eq!(kernel.now(), t(4.0));
    }

    #[test]
    fn sub_tick_completion_remainders_cannot_stall_the_kernel() {
        // A flow whose completion time rounds to the current tick leaves
        // a sub-tick byte remainder; the medium must still report a
        // strictly positive time-to-next so the loop below terminates
        // instead of spinning at a frozen clock.
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(100.000002, 1.0, f64::INFINITY, vec![server]));
        let mut kernel: Kernel<(), _> = Kernel::new(net);
        let mut steps = 0;
        while kernel.advance_to_next().is_some() {
            steps += 1;
            assert!(steps < 10, "kernel stalled on a sub-tick remainder");
        }
        assert!(kernel.medium().is_complete(f));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut kernel: Kernel<&str> = Kernel::discrete();
        kernel.schedule(t(3.0), "later");
        kernel.advance_to(t(3.0));
        kernel.schedule(t(1.0), "stale");
        // The stale event fires now, not in the past.
        assert_eq!(kernel.peek_next_time(), Some(t(3.0)));
        assert_eq!(kernel.pop_due(), Some("later"));
        assert_eq!(kernel.pop_due(), Some("stale"));
    }
}
