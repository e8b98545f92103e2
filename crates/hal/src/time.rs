//! Simulated time, kept in integer nanoseconds for total ordering and
//! reproducibility (float accumulation would make event ordering fragile).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the simulated clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Build from seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs are clamped to zero: they can only arise
    /// from degenerate cost-model inputs (zero bandwidth guards etc.) and must
    /// not poison the clock.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime(0);
        }
        SimTime((secs * 1e9).round() as u64)
    }

    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.1}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn clamps_degenerate_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_millis(2);
        let b = SimTime::from_millis(3);
        assert!(a < b);
        assert_eq!((a + b).as_nanos(), 5_000_000);
        assert_eq!((a - b), SimTime::ZERO); // saturating
        assert_eq!(b.saturating_sub(a).as_nanos(), 1_000_000);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.5)), "2.500s");
        assert_eq!(format!("{}", SimTime::from_millis(4)), "4.000ms");
        assert_eq!(format!("{}", SimTime::from_micros(7)), "7.0us");
    }
}
