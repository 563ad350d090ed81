//! The view/GA timing algebra of Figure 3.
//!
//! Views span 4Δ with `t_v = 4Δ·v`. `GA_v` runs over
//! `[t_v + Δ, t_v + 6Δ]`, i.e. it finishes only during view `v+1`, and
//! `GA_v` overlaps `GA_{v+1}` during `[t_{v+1} + Δ, t_{v+1} + 2Δ]`.
//! The TOB phase at each boundary consumes a GA output:
//!
//! * Propose at `t_v` = grade-0 output time of `GA_{v−1}`;
//! * Vote at `t_v + Δ` = grade-1 output time of `GA_{v−1}` = input time
//!   of `GA_v`;
//! * Decide at `t_v + 2Δ` = grade-2 output time of `GA_{v−1}`.
//!
//! [`ViewSchedule::render_timeline`] reproduces the Figure 3 diagram as
//! ASCII art; the `fig3_timeline` bench prints it and asserts every
//! alignment.

use tobsvd_types::{Delta, Time, View};

/// Phase within a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewPhase {
    /// `t_v`: proposal phase.
    Propose,
    /// `t_v + Δ`: voting phase (input of `GA_v`).
    Vote,
    /// `t_v + 2Δ`: decision phase.
    Decide,
    /// `t_v + 3Δ`: only the ongoing `GA_v` bookkeeping.
    Idle,
}

/// Timing algebra for TOB-SVD views and their GA instances.
#[derive(Clone, Copy, Debug)]
pub struct ViewSchedule {
    delta: Delta,
}

impl ViewSchedule {
    /// Creates the schedule for a given Δ.
    pub fn new(delta: Delta) -> Self {
        ViewSchedule { delta }
    }

    /// The Δ this schedule is built on.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// `t_v = 4Δ·v`.
    pub fn view_start(&self, v: View) -> Time {
        v.start_time(self.delta)
    }

    /// Proposal time `t_v`.
    pub fn propose_time(&self, v: View) -> Time {
        self.view_start(v)
    }

    /// Voting time `t_v + Δ`.
    pub fn vote_time(&self, v: View) -> Time {
        self.view_start(v) + self.delta
    }

    /// Decision time `t_v + 2Δ`.
    pub fn decide_time(&self, v: View) -> Time {
        self.view_start(v) + self.delta * 2
    }

    /// End of a run of `views` views: `t_views + 2Δ`, the decision time
    /// of the last view's proposal.
    pub fn run_end(&self, views: u64) -> Time {
        self.decide_time(View::new(views))
    }

    /// Input-phase time of `GA_v`: `t_v + Δ`.
    pub fn ga_start(&self, v: View) -> Time {
        self.vote_time(v)
    }

    /// End of `GA_v` (its grade-2 output phase): `t_v + 6Δ`.
    pub fn ga_end(&self, v: View) -> Time {
        self.view_start(v) + self.delta * 6
    }

    /// Output-phase time for `grade` of `GA_v` (3Δ, 4Δ, 5Δ after its
    /// start).
    ///
    /// # Panics
    ///
    /// Panics if `grade ≥ 3`.
    pub fn ga_output_time(&self, v: View, grade: u8) -> Time {
        assert!(grade < 3, "GA_v has grades 0..3");
        self.ga_start(v) + self.delta * (3 + u64::from(grade))
    }

    /// The overlap window of `GA_v` and `GA_{v+1}`:
    /// `[t_{v+1} + Δ, t_{v+1} + 2Δ]`.
    pub fn overlap(&self, v: View) -> (Time, Time) {
        (self.ga_start(v.next()), self.ga_end(v))
    }

    /// The phase at time `t`, with its view.
    pub fn phase_at(&self, t: Time) -> (View, ViewPhase) {
        let v = View::of_time(t, self.delta);
        let offset = (t - self.view_start(v)) / self.delta.ticks();
        let phase = match offset {
            0 => ViewPhase::Propose,
            1 => ViewPhase::Vote,
            2 => ViewPhase::Decide,
            _ => ViewPhase::Idle,
        };
        (v, phase)
    }

    /// Renders the Figure 3 timeline for views `center−1 … center+1`.
    pub fn render_timeline(&self, center: View) -> String {
        let vm1 = center.prev().unwrap_or(View::ZERO);
        let views = [vm1, vm1.next(), vm1.next().next()];
        // One column per Δ across the three views.
        let cols = 12usize;
        let colw = 7usize;
        let mut out = String::new();

        // Header: Δ ruler.
        out.push_str("        ");
        for _ in 0..cols {
            out.push_str(&format!("{:<width$}", "|--Δ--", width = colw));
        }
        out.push('\n');

        // View row.
        out.push_str("views:  ");
        for v in views {
            out.push_str(&format!("{:<width$}", format!("[{v}"), width = colw * 4));
        }
        out.push('\n');

        // Phase row.
        out.push_str("phases: ");
        for _ in views {
            for name in ["Prop", "Vote", "Decide", "·"] {
                out.push_str(&format!("{:<width$}", name, width = colw));
            }
        }
        out.push('\n');

        // GA rows: GA_{center-1} and GA_{center}, drawn relative to the
        // first rendered view.
        let origin = self.view_start(vm1);
        for ga_view in [vm1, vm1.next()] {
            let start_col =
                ((self.ga_start(ga_view) - origin) / self.delta.ticks()) as usize;
            let mut row = format!("GA_{:<4} ", ga_view.number());
            for c in 0..cols {
                let label = if c == start_col {
                    "Input"
                } else if c == start_col + 3 {
                    "Out0"
                } else if c == start_col + 4 {
                    "Out1"
                } else if c == start_col + 5 {
                    "Out2"
                } else if c > start_col && c < start_col + 3 {
                    "·····"
                } else {
                    ""
                };
                row.push_str(&format!("{:<width$}", label, width = colw));
            }
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> ViewSchedule {
        ViewSchedule::new(Delta::new(8))
    }

    #[test]
    fn phase_times() {
        let s = sched();
        let v = View::new(2);
        assert_eq!(s.view_start(v), Time::new(64));
        assert_eq!(s.propose_time(v), Time::new(64));
        assert_eq!(s.vote_time(v), Time::new(72));
        assert_eq!(s.decide_time(v), Time::new(80));
    }

    #[test]
    fn figure3_alignments() {
        // The arrows of Figure 3: outputs of GA_{v-1} land exactly on the
        // phases of view v.
        let s = sched();
        for v in (1..6).map(View::new) {
            let prev = v.prev().unwrap();
            assert_eq!(s.ga_output_time(prev, 0), s.propose_time(v), "candidate");
            assert_eq!(s.ga_output_time(prev, 1), s.vote_time(v), "lock");
            assert_eq!(s.ga_output_time(prev, 2), s.decide_time(v), "decision");
            // Vote time of view v == input phase of GA_v.
            assert_eq!(s.ga_start(v), s.vote_time(v));
            // GA_v ends during view v+1.
            assert_eq!(s.ga_end(v), s.decide_time(v.next()));
        }
    }

    #[test]
    fn overlap_window_is_one_delta() {
        let s = sched();
        let v = View::new(3);
        let (from, to) = s.overlap(v);
        assert_eq!(to - from, s.delta().ticks());
        assert_eq!(from, s.vote_time(v.next()));
        assert_eq!(to, s.decide_time(v.next()));
    }

    /// `View::live_range` from `GA_w`'s span: at `t_v` one instance behind
    /// `v` is still running and the range keeps the newest finished one
    /// too; ahead, it admits the one instance that starts within the next
    /// view.
    #[test]
    fn live_range_derives_from_the_ga_span() {
        let s = sched();
        for v in 3..10u64 {
            let t_v = s.view_start(View::new(v));
            let running = (1..=v).filter(|k| s.ga_end(View::new(v - k)) >= t_v).count() as u64;
            assert_eq!(running, 1, "GA_(v-1) runs at t_v, GA_(v-2) is over");
            assert_eq!(View::LIVE_BEHIND, running + 1);
            let next_view_end = s.view_start(View::new(v + 2));
            let starting = (1..4).filter(|k| s.ga_start(View::new(v + k)) < next_view_end).count();
            assert_eq!(View::LIVE_AHEAD, starting as u64);
            let range = View::new(v).live_range();
            assert_eq!(range, View::new(v - View::LIVE_BEHIND)..=View::new(v + View::LIVE_AHEAD));
            assert_eq!(range.end().number() - range.start().number() + 1, View::LIVE_VIEWS);
            assert_eq!(*View::new(v).proposal_range().start(), View::new(v - View::PROPOSALS_BEHIND));
        }
    }

    #[test]
    fn phase_classification() {
        let s = sched();
        let v = View::new(1);
        assert_eq!(s.phase_at(s.propose_time(v)), (v, ViewPhase::Propose));
        assert_eq!(s.phase_at(s.vote_time(v)), (v, ViewPhase::Vote));
        assert_eq!(s.phase_at(s.decide_time(v)), (v, ViewPhase::Decide));
        assert_eq!(s.phase_at(s.view_start(v) + Delta::new(8) * 3), (v, ViewPhase::Idle));
    }

    #[test]
    fn timeline_renders() {
        let s = sched();
        let art = s.render_timeline(View::new(5));
        assert!(art.contains("GA_4"));
        assert!(art.contains("GA_5"));
        assert!(art.contains("Decide"));
        assert!(art.lines().count() >= 5);
    }
}
