//! The one place the benchmark reads the host clock.
//!
//! simlint's wall-clock rule (R2) covers the root crate, whose `src/`
//! this benchmark lives under. Every timing goes through [`Stamp`], so
//! the rule's single justified exception sits on one line.

use std::time::Duration;

/// A point on the host's monotonic clock.
// simlint: allow(R2, the benchmark times the program from outside; nothing simulated reads this clock)
pub type Stamp = std::time::Instant;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Stamp::now();
    let out = f();
    (out, start.elapsed())
}
