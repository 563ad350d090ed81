//! Discrete time.
//!
//! The paper works in continuous time with a network delay bound Δ > 0 and
//! all protocol actions at multiples of Δ. We discretize: [`Time`] counts
//! *ticks*, and [`Delta`] is the number of ticks in one Δ. Keeping Δ a
//! multi-tick quantity lets the adversary choose sub-Δ delivery delays
//! (e.g. deliver a message after 0.3Δ to half the validators and after
//! 1.0Δ to the rest), which several attack strategies need.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in discrete simulation time, measured in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of time, `t = 0`.
    pub const ZERO: Time = Time(0);

    /// Creates a time from a raw tick count.
    pub fn new(ticks: u64) -> Self {
        Time(ticks)
    }

    /// The raw tick count.
    pub fn ticks(&self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Saturating addition: clamps at `u64::MAX` instead of wrapping.
    /// Deadline arithmetic (`last_sent + retry_after`, `t + k·Δ`) uses
    /// this so a Δ chosen near `u64::MAX` degrades to "never fires"
    /// rather than wrapping into the past.
    pub fn saturating_add(self, ticks: u64) -> Time {
        Time(self.0.saturating_add(ticks))
    }

    /// Whether this time falls on a multiple of `delta`.
    ///
    /// Protocol actions (phase boundaries) only fire on Δ-multiples.
    // `Delta` is ≥ 1 by construction (`Delta::new` asserts, `Mul` clamps).
    #[allow(clippy::arithmetic_side_effects)]
    pub fn is_phase_boundary(&self, delta: Delta) -> bool {
        self.0 % delta.ticks() == 0
    }
}

impl Add<u64> for Time {
    type Output = Time;
    /// Saturates at `u64::MAX` — a deadline past the end of time means
    /// "never fires", not "wrapped into the past".
    fn add(self, rhs: u64) -> Time {
        Time(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Add<Delta> for Time {
    type Output = Time;
    /// Saturates at `u64::MAX`, like [`Time::saturating_add`].
    fn add(self, rhs: Delta) -> Time {
        Time(self.0.saturating_add(rhs.ticks()))
    }
}

impl Sub<Time> for Time {
    type Output = u64;
    /// Elapsed ticks between two times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    // The documented contract above: callers subtract an earlier time,
    // and debug builds (every test run) assert it.
    #[allow(clippy::arithmetic_side_effects)]
    fn sub(self, rhs: Time) -> u64 {
        debug_assert!(rhs.0 <= self.0, "time subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The network delay bound Δ, in ticks.
///
/// ```
/// use tobsvd_types::{Delta, Time};
/// let delta = Delta::new(8);
/// let t = Time::ZERO + delta * 3;
/// assert_eq!(t.ticks(), 24);
/// assert!(t.is_phase_boundary(delta));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Delta(u64);

impl Delta {
    /// Creates a Δ of the given number of ticks.
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`; the paper requires Δ > 0.
    pub fn new(ticks: u64) -> Self {
        assert!(ticks > 0, "delta must be positive");
        Delta(ticks)
    }

    /// Ticks per Δ.
    pub fn ticks(&self) -> u64 {
        self.0
    }
}

impl Default for Delta {
    /// Eight ticks per Δ: enough resolution for sub-Δ adversarial delays.
    fn default() -> Self {
        Delta(8)
    }
}

impl std::ops::Mul<u64> for Delta {
    type Output = Delta;
    /// Saturates at `u64::MAX` instead of wrapping; the result is
    /// clamped to at least 1 tick so the Δ > 0 invariant survives
    /// `delta * 0` (phase-boundary checks divide by the tick count).
    fn mul(self, rhs: u64) -> Delta {
        Delta(self.0.saturating_mul(rhs).max(1))
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::new(10);
        assert_eq!((t + 5).ticks(), 15);
        assert_eq!(t + Delta::new(8), Time::new(18));
        assert_eq!(Time::new(15) - t, 5);
        assert_eq!(Time::new(3).saturating_sub(Time::new(10)), Time::ZERO);
        assert_eq!(Time::new(u64::MAX - 1).saturating_add(7), Time::new(u64::MAX));
    }

    #[test]
    fn phase_boundaries() {
        let d = Delta::new(8);
        assert!(Time::new(0).is_phase_boundary(d));
        assert!(Time::new(16).is_phase_boundary(d));
        assert!(!Time::new(17).is_phase_boundary(d));
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_rejected() {
        let _ = Delta::new(0);
    }

    #[test]
    fn delta_scaling() {
        assert_eq!((Delta::new(4) * 5).ticks(), 20);
    }

    #[test]
    fn arithmetic_saturates_near_u64_max() {
        // Regression for the live overflow in `Delta: Mul` (and the
        // `Time: Add` family): a Δ chosen near u64::MAX must clamp, not
        // wrap into the past.
        let huge = Delta::new(u64::MAX / 2 + 3);
        assert_eq!((huge * 2).ticks(), u64::MAX);
        assert_eq!((huge * 4).ticks(), u64::MAX);
        assert_eq!(Time::new(u64::MAX - 1) + 7, Time::new(u64::MAX));
        assert_eq!(Time::new(u64::MAX - 1) + huge, Time::new(u64::MAX));
        let mut t = Time::new(u64::MAX - 2);
        t += 100;
        assert_eq!(t, Time::new(u64::MAX));
    }

    #[test]
    #[allow(clippy::erasing_op)] // multiplying by zero is the point
    fn delta_mul_zero_keeps_positive_invariant() {
        // Δ > 0 is a constructor invariant; saturating `*` preserves it
        // so `is_phase_boundary`'s modulus never divides by zero.
        let d = Delta::new(8) * 0;
        assert_eq!(d.ticks(), 1);
        assert!(Time::ZERO.is_phase_boundary(d));
    }

    #[test]
    fn display() {
        assert_eq!(Time::new(7).to_string(), "t7");
        assert_eq!(Delta::new(8).to_string(), "Δ=8");
    }
}
