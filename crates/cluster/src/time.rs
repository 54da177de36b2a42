//! Simulated durations.
//!
//! Simulated time is kept as `f64` seconds wrapped in a newtype so that code
//! cannot confuse simulated durations with wall-clock `std::time::Duration`s.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of *simulated* time, in seconds.
///
/// Produced by the cost ledger from recorded operation counts; never measured
/// from a wall clock.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize)]
pub struct SimDuration(f64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Negative inputs are clamped to zero: durations
    /// are magnitudes, and tiny negative values can appear from float error
    /// when subtracting overlapping phases.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(secs.max(0.0))
    }

    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns / 1e9)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Ratio between two durations (e.g. speedups).
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    /// Human-readable: `"2h 13m"`, `"5m 42s"`, `"3.21s"`, `"124ms"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 3600.0 {
            let h = (s / 3600.0).floor();
            let m = ((s - h * 3600.0) / 60.0).round();
            write!(f, "{h:.0}h {m:.0}m")
        } else if s >= 60.0 {
            let m = (s / 60.0).floor();
            let rem = s - m * 60.0;
            write!(f, "{m:.0}m {rem:.0}s")
        } else if s >= 1.0 {
            write!(f, "{s:.2}s")
        } else {
            write!(f, "{:.0}ms", s * 1e3)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1.5).as_millis(), 1500.0);
        assert_eq!(SimDuration::from_millis(250.0).as_secs(), 0.25);
        assert_eq!(SimDuration::from_micros(1e6).as_secs(), 1.0);
        assert_eq!(SimDuration::from_nanos(1e9).as_secs(), 1.0);
    }

    #[test]
    fn negative_clamps_to_zero() {
        assert_eq!(SimDuration::from_secs(-3.0), SimDuration::ZERO);
        let d = SimDuration::from_secs(1.0) - SimDuration::from_secs(5.0);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_secs(10.0);
        let b = SimDuration::from_secs(4.0);
        assert_eq!((a + b).as_secs(), 14.0);
        assert_eq!((a - b).as_secs(), 6.0);
        assert_eq!((a * 2.0).as_secs(), 20.0);
        assert_eq!((a / 4.0).as_secs(), 2.5);
        assert_eq!(a / b, 2.5);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(8130.0).to_string(), "2h 16m");
        assert_eq!(SimDuration::from_secs(342.0).to_string(), "5m 42s");
        assert_eq!(SimDuration::from_secs(3.214).to_string(), "3.21s");
        assert_eq!(SimDuration::from_secs(0.124).to_string(), "124ms");
    }
}
