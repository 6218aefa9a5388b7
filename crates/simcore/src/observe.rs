//! Generic observation support for discrete-event simulations.
//!
//! Higher layers (the CALCioM session, the PFS transfer layer) describe
//! what happened as a stream of domain events; this module provides the
//! substrate those streams are built from:
//!
//! * [`Stamped`] — an event paired with the [`SimTime`] at which it was
//!   emitted;
//! * [`EventLog`] — an append-only, time-monotonic log of stamped events,
//!   the storage behind trace recorders.
//!
//! Keeping the containers here (and the domain event *types* in the crates
//! that own the domain) lets every layer share one notion of "a
//! time-stamped stream" without `simcore` knowing about applications,
//! arbiters or file systems.

use crate::time::SimTime;

/// An event paired with the simulated time at which it was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<E> {
    /// When the event was emitted.
    pub time: SimTime,
    /// The event itself.
    pub event: E,
}

impl<E> Stamped<E> {
    /// Pairs an event with its emission time.
    pub fn new(time: SimTime, event: E) -> Self {
        Stamped { time, event }
    }
}

/// An append-only log of [`Stamped`] events.
///
/// Emission order is the order of the underlying stream; the log asserts
/// (in debug builds) that time stamps never go backwards, which is the
/// property replaying consumers rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog<E> {
    events: Vec<Stamped<E>>,
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventLog<E> {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog { events: Vec::new() }
    }

    /// Appends an event at the given time.
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            self.events.last().map(|e| e.time <= time).unwrap_or(true),
            "event log must be appended in time order"
        );
        self.events.push(Stamped { time, event });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Stamped<E>] {
        &self.events
    }

    /// Iterates over the recorded events in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Stamped<E>> {
        self.events.iter()
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<Stamped<E>> {
        self.events
    }

    /// Time of the last recorded event, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.time)
    }
}

impl<'a, E> IntoIterator for &'a EventLog<E> {
    type Item = &'a Stamped<E>;
    type IntoIter = std::slice::Iter<'a, Stamped<E>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<E> IntoIterator for EventLog<E> {
    type Item = Stamped<E>;
    type IntoIter = std::vec::IntoIter<Stamped<E>>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<E> FromIterator<Stamped<E>> for EventLog<E> {
    fn from_iter<I: IntoIterator<Item = Stamped<E>>>(iter: I) -> Self {
        EventLog {
            events: iter.into_iter().collect(),
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
    fn log_preserves_emission_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(t(0.0), "a");
        log.push(t(1.0), "b");
        log.push(t(1.0), "c");
        assert_eq!(log.len(), 3);
        assert_eq!(log.last_time(), Some(t(1.0)));
        let kinds: Vec<&str> = log.iter().map(|e| e.event).collect();
        assert_eq!(kinds, vec!["a", "b", "c"]);
        let owned: Vec<Stamped<&str>> = log.clone().into_events();
        assert_eq!(owned[0], Stamped::new(t(0.0), "a"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn log_rejects_backwards_time_in_debug() {
        let mut log = EventLog::new();
        log.push(t(5.0), ());
        log.push(t(1.0), ());
    }

    #[test]
    fn log_collects_from_iterator() {
        let log: EventLog<u32> = [Stamped::new(t(0.0), 1), Stamped::new(t(2.0), 2)]
            .into_iter()
            .collect();
        assert_eq!(log.len(), 2);
        let back: Vec<u32> = log.into_iter().map(|e| e.event).collect();
        assert_eq!(back, vec![1, 2]);
    }
}
