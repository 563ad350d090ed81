//! Figures 1 and 2 — the Graded Agreement with `k` grades, as one state
//! machine [`Ga<K>`](Ga).
//!
//! ```text
//! 1. Input phase   (t = 0):      broadcast ⟨LOG, Λ⟩_i.
//! 2. Snapshots     (t = jΔ,      store V^{jΔ}.
//!                   1 ≤ j < k):
//! 3. Grade 0       (t = kΔ):     if |V^{kΔ}_Λ| > |S^{kΔ}|/2: output (Λ, 0).
//! 4. Grade g ≥ 1   (t = (k+g)Δ): if awake at (k−g)Δ:
//!                                if |V^{(k−g)Δ}_Λ ∩ V^{(k+g)Δ}_Λ| > |S^{(k+g)Δ}|/2:
//!                                output (Λ, g).
//! ```
//!
//! [`Ga2`] (Figure 1, k = 2) lasts 3Δ and works in the (3Δ, 0, ½)-sleepy
//! model; [`Ga3`] (Figure 2, k = 3) lasts 5Δ and works in the (5Δ, 0, ½)-
//! sleepy model. Both satisfy Uniqueness at *every* grade, unlike the §4
//! background GA: outputs only ever count non-equivocating logs, and each
//! grade g ≥ 1 applies the time-shifted quorum technique to the
//! equivocator set itself via the intersection `V^{(k−g)Δ} ∩ V^{(k+g)Δ}`.
//! For k = 3 the windows nest — [2Δ, 4Δ] (grades 0↔1) inside [Δ, 5Δ]
//! (grades 1↔2) — giving `V^Δ ∩ V^{5Δ} ⊆ V^{2Δ} ∩ V^{4Δ} ⊆ V^{3Δ}` and
//! `S^{3Δ} ⊆ S^{4Δ} ⊆ S^{5Δ}` across validators, which is what Graded
//! Delivery between consecutive grades rests on (paper, Theorem 2).
//!
//! TOB-SVD embeds one [`Ga3`] per view: grade 0 feeds proposals
//! (*candidates*), grade 1 feeds votes (*locks*), grade 2 feeds
//! *decisions* — see `tobsvd-core`.
//!
//! The owner (a `tobsvd_sim::GaNode` or the TOB-SVD validator) broadcasts
//! the input, feeds received `LOG`s through [`Ga::on_log`] and calls
//! [`Ga::on_phase`] at every phase boundary at which it is awake. A
//! snapshot slept through disables the output it gates, as the figures'
//! participation rules say.

use tobsvd_types::{BlockStore, Delta, InstanceId, Log, Time, ValidatorId};

use crate::support::highest_supported;
use crate::tracker::{LogTracker, TrackOutcome, VSnapshot};

/// Figure 1: the Graded Agreement with k = 2 grades.
pub type Ga2 = Ga<2>;
/// Figure 2: the Graded Agreement with k = 3 grades; the one TOB-SVD runs.
pub type Ga3 = Ga<3>;

/// The Graded Agreement with `K` grades of Figures 1 (K = 2) and 2 (K = 3).
#[derive(Clone, Debug)]
pub struct Ga<const K: usize> {
    instance: InstanceId,
    start: Time,
    input: Option<Log>,
    tracker: LogTracker,
    /// `snaps[g]`: the `V^{(K−g)Δ}` snapshot that gates grade `g ≥ 1`;
    /// `None` until taken (`snaps[0]` is never taken).
    snaps: [Option<VSnapshot>; K],
    /// `out[g]`: `None` = output phase not executed; `Some(r)` = executed
    /// with result `r` (the highest output log, of which all prefixes are
    /// also outputs).
    out: [Option<Option<Log>>; K],
}

impl<const K: usize> Ga<K> {
    /// Number of grades (`k`).
    pub const GRADES: u8 = K as u8;
    /// Protocol duration in Δ: the last output phase is at (2k − 1)Δ.
    pub const DURATION_DELTAS: u64 = 2 * K as u64 - 1;

    /// Creates an instance starting (input phase) at `start`.
    pub fn new(instance: InstanceId, start: Time) -> Self {
        const NO_SNAPSHOT: Option<VSnapshot> = None;
        Ga { instance, start, input: None, tracker: LogTracker::new(), snaps: [NO_SNAPSHOT; K], out: [None; K] }
    }

    /// The GA instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The input-phase time.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Records this validator's own input (bookkeeping only; the owner
    /// broadcasts the actual `LOG` message).
    pub fn set_input(&mut self, log: Log) {
        self.input = Some(log);
    }

    /// This validator's input, if it made one.
    pub fn input(&self) -> Option<Log> {
        self.input
    }

    /// Feeds a received `LOG` message for this instance.
    pub fn on_log(&mut self, sender: ValidatorId, log: Log) -> TrackOutcome {
        self.tracker.on_log(sender, log)
    }

    /// Read access to the V/E/S tracker (diagnostics and tests).
    pub fn tracker(&self) -> &LogTracker {
        &self.tracker
    }

    /// Drives the schedule. Call at every phase boundary while awake;
    /// non-boundary or out-of-window times are ignored.
    pub fn on_phase(&mut self, now: Time, delta: Delta, store: &BlockStore) {
        let Some(j) = deltas_since(self.start, now, delta).and_then(|j| usize::try_from(j).ok()) else {
            return;
        };
        if j == 0 || j >= 2 * K {
            return;
        }
        if j < K {
            // V^{jΔ} gates grade K − j; only the first call takes it.
            let tracker = &self.tracker;
            self.snaps[K - j].get_or_insert_with(|| tracker.snapshot());
            return;
        }
        // Output phase for grade g: the current V at grade 0, else V's
        // survivors since the gating snapshot, if it was taken (the
        // validator was awake then).
        let g = j - K;
        let entries: Vec<_> = if g == 0 {
            self.tracker.v_entries().collect()
        } else if let Some(snap) = &self.snaps[g] {
            self.tracker.intersect_with_current(snap).collect()
        } else {
            return;
        };
        self.out[g] = Some(highest_supported(&entries, self.tracker.s_len(), store));
    }

    /// Whether this validator executed the output phase for `grade`.
    pub fn participated(&self, grade: u8) -> bool {
        self.out.get(grade as usize).map(|o| o.is_some()).unwrap_or(false)
    }

    /// The *highest* log output with `grade`, if any. All prefixes of
    /// the returned log are also grade-`grade` outputs.
    pub fn output(&self, grade: u8) -> Option<Log> {
        self.out.get(grade as usize).copied().flatten().flatten()
    }
}

/// Whole number of Δ between `start` and `now`, if `now` is at or after
/// `start` and Δ-aligned relative to it.
pub(crate) fn deltas_since(start: Time, now: Time, delta: Delta) -> Option<u64> {
    if now < start {
        return None;
    }
    let elapsed = now - start;
    if elapsed % delta.ticks() != 0 {
        return None;
    }
    Some(elapsed / delta.ticks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::View;

    fn v(i: u32) -> ValidatorId {
        ValidatorId::new(i)
    }

    fn delta() -> Delta {
        Delta::new(8)
    }

    fn t(deltas: u64) -> Time {
        Time::new(deltas * 8)
    }

    fn drive<const K: usize>(ga: &mut Ga<K>, store: &BlockStore, phases: &[u64]) {
        for k in phases {
            ga.on_phase(t(*k), delta(), store);
        }
    }

    fn setup() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v(0), View::new(1));
        let b = g.extend_empty(&store, v(1), View::new(1));
        (store, g, a, b)
    }

    #[test]
    fn schedule_constants_match_the_figures() {
        assert_eq!((Ga2::GRADES, Ga2::DURATION_DELTAS), (2, 3));
        assert_eq!((Ga3::GRADES, Ga3::DURATION_DELTAS), (3, 5));
    }

    // Figure 1 (k = 2).

    #[test]
    fn unanimous_inputs_output_both_grades() {
        let (store, _, a, _) = setup();
        let mut ga = Ga2::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        drive(&mut ga, &store, &[1, 2, 3]);
        assert_eq!(ga.output(0), Some(a));
        assert_eq!(ga.output(1), Some(a));
        assert!(ga.participated(0) && ga.participated(1));
    }

    #[test]
    fn missing_delta_snapshot_disables_grade_1() {
        let (store, _, a, _) = setup();
        let mut ga = Ga2::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        // Asleep at Δ: no on_phase(Δ) call.
        drive(&mut ga, &store, &[2, 3]);
        assert_eq!(ga.output(0), Some(a));
        assert!(!ga.participated(1));
        assert_eq!(ga.output(1), None);
    }

    #[test]
    fn late_equivocation_discounts_grade_1_support() {
        let (store, g, a, b) = setup();
        let mut ga = Ga2::new(InstanceId(0), Time::ZERO);
        // Before Δ: 3 logs for a, 1 for g → both in V^Δ.
        ga.on_log(v(0), a);
        ga.on_log(v(1), a);
        ga.on_log(v(2), a);
        ga.on_log(v(3), g);
        drive(&mut ga, &store, &[1, 2]);
        assert_eq!(ga.output(0), Some(a));
        // Between 2Δ and 3Δ two of a's supporters are exposed as
        // equivocators: V^Δ_a ∩ V^{3Δ}_a = {v2} — 1 of S=4, not a majority;
        // genesis keeps {v2, v3} = 2 of 4 — also not > 2. No grade-1 output.
        ga.on_log(v(0), b);
        ga.on_log(v(1), b);
        drive(&mut ga, &store, &[3]);
        assert!(ga.participated(1));
        assert_eq!(ga.output(1), None);
    }

    #[test]
    fn new_senders_raise_the_bar() {
        let (store, _, a, b) = setup();
        let mut ga = Ga2::new(InstanceId(0), Time::ZERO);
        ga.on_log(v(0), a);
        ga.on_log(v(1), a);
        ga.on_log(v(2), a);
        drive(&mut ga, &store, &[1, 2]);
        assert_eq!(ga.output(0), Some(a));
        // Three more senders appear on a conflicting branch before 3Δ:
        // S grows to 6, V^Δ_a ∩ V^{3Δ}_a = 3 — exactly half, fails.
        ga.on_log(v(3), b);
        ga.on_log(v(4), b);
        ga.on_log(v(5), b);
        drive(&mut ga, &store, &[3]);
        assert_eq!(ga.output(1), None);
    }

    #[test]
    fn out_of_window_phases_ignored() {
        let (store, _, a, _) = setup();
        let mut ga = Ga2::new(InstanceId(0), t(2));
        ga.on_log(v(0), a);
        // Before start: ignored.
        ga.on_phase(t(1), delta(), &store);
        assert!(!ga.participated(0));
        // Misaligned tick: ignored.
        ga.on_phase(Time::new(2 * 8 + 3), delta(), &store);
        assert!(!ga.participated(0));
        // After the window: ignored.
        ga.on_phase(t(9), delta(), &store);
        assert!(!ga.participated(0));
    }

    #[test]
    fn deltas_since_alignment() {
        let d = Delta::new(8);
        assert_eq!(deltas_since(Time::new(8), Time::new(8), d), Some(0));
        assert_eq!(deltas_since(Time::new(8), Time::new(24), d), Some(2));
        assert_eq!(deltas_since(Time::new(8), Time::new(25), d), None);
        assert_eq!(deltas_since(Time::new(8), Time::new(0), d), None);
    }

    #[test]
    fn input_bookkeeping() {
        let (store, _, a, _) = setup();
        let _ = &store;
        let mut ga = Ga2::new(InstanceId(7), Time::ZERO);
        assert_eq!(ga.input(), None);
        ga.set_input(a);
        assert_eq!(ga.input(), Some(a));
        assert_eq!(ga.instance(), InstanceId(7));
    }

    // Figure 2 (k = 3).

    #[test]
    fn unanimous_inputs_output_all_grades() {
        let (store, _, a, _) = setup();
        let mut ga = Ga3::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        drive(&mut ga, &store, &[1, 2, 3, 4, 5]);
        for g in 0..3 {
            assert_eq!(ga.output(g), Some(a), "grade {g}");
            assert!(ga.participated(g));
        }
    }

    #[test]
    fn participation_rules_per_grade() {
        let (store, _, a, _) = setup();
        // Awake at Δ but asleep at 2Δ: grade 2 allowed, grade 1 not.
        let mut ga = Ga3::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        drive(&mut ga, &store, &[1, 3, 4, 5]); // missing k=2
        assert!(ga.participated(0));
        assert!(!ga.participated(1), "no 2Δ snapshot → no grade-1 output phase");
        assert!(ga.participated(2));
        assert_eq!(ga.output(2), Some(a));

        // Awake at 2Δ but asleep at Δ: grade 1 allowed, grade 2 not.
        let mut ga = Ga3::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        drive(&mut ga, &store, &[2, 3, 4, 5]); // missing k=1
        assert!(ga.participated(1));
        assert!(!ga.participated(2));
    }

    #[test]
    fn late_equivocation_discounts_higher_grades() {
        let (store, g, a, b) = setup();
        let mut ga = Ga3::new(InstanceId(0), Time::ZERO);
        // 3 of 4 support `a` before Δ.
        ga.on_log(v(0), a);
        ga.on_log(v(1), a);
        ga.on_log(v(2), a);
        ga.on_log(v(3), g);
        drive(&mut ga, &store, &[1, 2, 3]);
        assert_eq!(ga.output(0), Some(a));
        // Two supporters equivocate before 4Δ: grade 1 and 2 must not
        // output `a` (support 1 of S=4).
        ga.on_log(v(0), b);
        ga.on_log(v(1), b);
        drive(&mut ga, &store, &[4, 5]);
        assert!(ga.participated(1) && ga.participated(2));
        assert_eq!(ga.output(1), None);
        assert_eq!(ga.output(2), None);
    }

    #[test]
    fn grade_conditions_tighten_monotonically() {
        // An input arriving between Δ and 2Δ counts for grade 1 (in the
        // 2Δ snapshot) but not for grade 2 (missing from the Δ snapshot).
        let (store, _, a, _) = setup();
        let mut ga = Ga3::new(InstanceId(0), Time::ZERO);
        ga.on_log(v(0), a);
        ga.on_log(v(1), a);
        ga.on_phase(t(1), delta(), &store);
        ga.on_log(v(2), a); // arrives in (Δ, 2Δ)
        drive(&mut ga, &store, &[2, 3]);
        assert_eq!(ga.output(0), Some(a)); // 3 of 3
        // At 4Δ two more senders appear on another branch: S = 5.
        let b = Log::genesis(&store).extend_empty(&store, v(9), View::new(1));
        ga.on_log(v(3), b);
        ga.on_log(v(4), b);
        drive(&mut ga, &store, &[4, 5]);
        // Grade 1: V^{2Δ}_a ∩ V^{4Δ}_a = 3 > 5/2 → outputs a.
        assert_eq!(ga.output(1), Some(a));
        // Grade 2: V^Δ ∩ V^{5Δ} = {v0, v1} — 2 of S = 5 supports no
        // log, not even genesis.
        assert_eq!(ga.output(2), None);
    }
}
