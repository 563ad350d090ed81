//! Protocol views.

use std::fmt;
use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

use crate::time::{Delta, Time};

/// A protocol view `v`.
///
/// TOB-SVD proceeds in views of 4Δ each, with `t_v = 4Δ·v` (paper §5.3).
/// The per-view phase schedule (Propose at `t_v`, Vote at `t_v + Δ`,
/// Decide at `t_v + 2Δ`) lives in `tobsvd-core`; this type only carries
/// the view arithmetic shared across crates.
///
/// ```
/// use tobsvd_types::{Delta, View};
/// let d = Delta::new(8);
/// let v = View::new(3);
/// assert_eq!(v.start_time(d).ticks(), 3 * 4 * 8);
/// assert_eq!(View::of_time(v.start_time(d), d), v);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct View(u64);

/// Number of Δ intervals per TOB-SVD view.
pub const DELTAS_PER_VIEW: u64 = 4;

impl View {
    /// The first view, `v = 0`.
    pub const ZERO: View = View(0);

    /// How far the live range reaches behind the current view `v`.
    /// `GA_{v−1}` still runs at `t_v` (it ends at `t_v + 2Δ`), and
    /// `GA_{v−2}`, the newest instance already over, is kept one view
    /// more: late traffic for it is still taken in and archived.
    pub const LIVE_BEHIND: u64 = 2;
    /// How far the proposal side reaches behind: a proposal for view `w`
    /// feeds only the vote at `t_w + Δ`, so it trails the GA side by one.
    pub const PROPOSALS_BEHIND: u64 = 1;
    /// How far the live range reaches ahead: `GA_{v+1}` has no input
    /// before `t_{v+1} + Δ`, but a Δ of clock skew is tolerated.
    pub const LIVE_AHEAD: u64 = 1;
    /// Width of the live range: at most this many views hold state.
    pub const LIVE_VIEWS: u64 = Self::LIVE_BEHIND + 1 + Self::LIVE_AHEAD;

    /// The live range at current view `self`, `self − LIVE_BEHIND ..=
    /// self + LIVE_AHEAD`, saturating at both ends: the views whose GA
    /// instance takes input and whose per-view state is kept.
    pub fn live_range(self) -> RangeInclusive<View> {
        self.range_behind(Self::LIVE_BEHIND)
    }

    /// The proposal side of the live range, `self − PROPOSALS_BEHIND ..=
    /// self + LIVE_AHEAD`, saturating at both ends.
    pub fn proposal_range(self) -> RangeInclusive<View> {
        self.range_behind(Self::PROPOSALS_BEHIND)
    }

    fn range_behind(self, behind: u64) -> RangeInclusive<View> {
        View(self.0.saturating_sub(behind))..=View(self.0.saturating_add(Self::LIVE_AHEAD))
    }

    /// Creates view `v`.
    pub fn new(v: u64) -> Self {
        View(v)
    }

    /// The raw view number.
    pub fn number(&self) -> u64 {
        self.0
    }

    /// The next view `v + 1` (saturating at `u64::MAX`).
    pub fn next(&self) -> View {
        View(self.0.saturating_add(1))
    }

    /// The previous view `v - 1`, or `None` for view 0.
    pub fn prev(&self) -> Option<View> {
        self.0.checked_sub(1).map(View)
    }

    /// The start time `t_v = 4Δ·v`, saturating at `u64::MAX`: with Δ
    /// near the top of the u64 range a far view "starts" at the end of
    /// time rather than wrapping into an earlier tick.
    pub fn start_time(&self, delta: Delta) -> Time {
        Time::new(
            self.0
                .saturating_mul(DELTAS_PER_VIEW)
                .saturating_mul(delta.ticks()),
        )
    }

    /// The view containing time `t`.
    ///
    /// The view length `4Δ` saturates at `u64::MAX`, matching
    /// [`View::start_time`]'s clamp (every finite time then maps to
    /// view 0, consistent with all views starting at the end of time).
    // The divisor is ≥ 4: `Delta` is ≥ 1 by construction.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn of_time(t: Time, delta: Delta) -> View {
        View(t.ticks() / DELTAS_PER_VIEW.saturating_mul(delta.ticks()))
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_time_and_back() {
        let d = Delta::new(5);
        for v in 0..10 {
            let view = View::new(v);
            assert_eq!(View::of_time(view.start_time(d), d), view);
        }
    }

    #[test]
    fn of_time_mid_view() {
        let d = Delta::new(8);
        // t_v + 3Δ is still inside view v.
        let t = View::new(2).start_time(d) + d * 3;
        assert_eq!(View::of_time(t, d), View::new(2));
        // t_v + 4Δ is the start of view v+1.
        let t = View::new(2).start_time(d) + d * 4;
        assert_eq!(View::of_time(t, d), View::new(3));
    }

    #[test]
    fn start_time_saturates_near_u64_max() {
        // Regression: `4Δ·v` must clamp at the end of time, not wrap.
        let d = Delta::new(u64::MAX / 2);
        let far = View::new(u64::MAX / 8);
        assert_eq!(far.start_time(d), Time::new(u64::MAX));
        // of_time stays consistent: the saturated view length maps all
        // finite times into view 0.
        assert_eq!(View::of_time(Time::new(u64::MAX - 1), d), View::ZERO);
        assert_eq!(View::new(u64::MAX).next(), View::new(u64::MAX));
    }

    #[test]
    fn live_ranges_saturate_at_both_ends() {
        assert_eq!(View::new(7).live_range(), View::new(5)..=View::new(8));
        assert_eq!(View::new(7).proposal_range(), View::new(6)..=View::new(8));
        assert_eq!(View::new(1).live_range(), View::ZERO..=View::new(2));
        let top = View::new(u64::MAX);
        assert_eq!(top.live_range(), View::new(u64::MAX - 2)..=top);
        for far in [u64::MAX - 1, u64::MAX].map(View::new) {
            assert!(!View::ZERO.live_range().contains(&far));
            assert!(!View::ZERO.proposal_range().contains(&far));
        }
    }

    #[test]
    fn next_prev() {
        assert_eq!(View::new(4).next(), View::new(5));
        assert_eq!(View::new(4).prev(), Some(View::new(3)));
        assert_eq!(View::ZERO.prev(), None);
    }
}
