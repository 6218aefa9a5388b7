//! Simulated time.
//!
//! The engine uses an integer tick clock (1 tick = 1 microsecond) so that
//! event ordering is exact and runs are bit-for-bit reproducible, while the
//! public API exposes convenient second-based conversions for the
//! experiment harnesses (the paper reports everything in seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of ticks per simulated second (microsecond resolution).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// An absolute simulated time stamp, in integer microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time stamp; used as an "infinite horizon"
    /// sentinel when scheduling.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time stamp from raw microsecond ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Builds a time stamp from (possibly fractional) seconds.
    ///
    /// Negative inputs saturate to zero: experiment sweeps use signed `dt`
    /// offsets and clamp the earlier application to the epoch.
    pub fn from_secs(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimTime(0);
        }
        SimTime((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond ticks since the epoch.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time stamp as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference between two time stamps.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw microsecond ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Builds a duration from (possibly fractional) seconds, saturating at
    /// zero for negative inputs.
    pub fn from_secs(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Raw microsecond ticks.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_secs_round_trips() {
        let t = SimTime::from_secs(12.5);
        assert_eq!(t.ticks(), 12_500_000);
        assert!((t.as_secs() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::from_secs(1.0);
        let d = SimDuration::from_secs(2.0);
        assert_eq!(t - d, SimTime::ZERO);
        assert_eq!(SimTime::MAX + d, SimTime::MAX);
    }

    #[test]
    fn saturating_since_orders_correctly() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(2.0));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_secs(2.0)));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn duration_helpers() {
        assert_eq!(
            SimDuration::from_millis(1500.0),
            SimDuration::from_secs(1.5)
        );
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_ticks(1).is_zero());
        assert_eq!(
            SimDuration::from_secs(1.0).saturating_sub(SimDuration::from_secs(2.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000000s");
        assert_eq!(format!("{}", SimDuration::from_millis(250.0)), "0.250000s");
    }
}
