//! Figure 1 — Graded Agreement with k = 2 grades.
//!
//! ```text
//! 1. Input phase  (t = 0):  broadcast ⟨LOG, Λ⟩_i.
//! 2.              (t = Δ):  store V^Δ.
//! 3. Grade 0      (t = 2Δ): if |V^{2Δ}_Λ| > |S^{2Δ}|/2: output (Λ, 0).
//! 4. Grade 1      (t = 3Δ): if awake at Δ:
//!                           if |V^Δ_Λ ∩ V^{3Δ}_Λ| > |S^{3Δ}|/2: output (Λ, 1).
//! ```
//!
//! The protocol lasts 3Δ and works in the (3Δ, 0, ½)-sleepy model. Its
//! distinguishing feature relative to the §4 background GA is that it
//! satisfies Uniqueness at *every* grade: outputs only ever count
//! non-equivocating logs, and the grade-1 condition applies the
//! time-shifted quorum technique to the equivocator set itself via the
//! intersection `V^Δ ∩ V^{3Δ}`.
//!
//! This type is the sans-io state machine; the owner (a `tobsvd_sim::GaNode`
//! or the TOB-SVD validator) broadcasts the input, feeds received `LOG`
//! messages through [`Ga2::on_log`] and drives the schedule by calling
//! [`Ga2::on_phase`] at every phase boundary at which the validator is
//! awake. Missing a phase call (because the validator slept through it)
//! automatically disables the outputs that depend on it, matching the
//! participation rules of the figure.

use tobsvd_types::{BlockStore, Delta, InstanceId, Log, Time, ValidatorId};

use crate::support::highest_supported;
use crate::tracker::{LogTracker, TrackOutcome, VSnapshot};

/// Number of grades (`k`) of this GA.
pub const GA2_GRADES: u8 = 2;
/// Protocol duration in Δ.
pub const GA2_DURATION_DELTAS: u64 = 3;

/// The k = 2 Graded Agreement of Figure 1.
#[derive(Clone, Debug)]
pub struct Ga2 {
    instance: InstanceId,
    start: Time,
    input: Option<Log>,
    tracker: LogTracker,
    snap_delta: Option<VSnapshot>,
    /// `out[g]`: `None` = output phase not executed; `Some(r)` = executed
    /// with result `r` (the highest output log, of which all prefixes are
    /// also outputs).
    out: [Option<Option<Log>>; 2],
}

impl Ga2 {
    /// Creates an instance starting (input phase) at `start`.
    pub fn new(instance: InstanceId, start: Time) -> Self {
        Ga2 { instance, start, input: None, tracker: LogTracker::new(), snap_delta: None, out: [None, None] }
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
        let Some(k) = deltas_since(self.start, now, delta) else {
            return;
        };
        match k {
            1 if self.snap_delta.is_none() => {
                self.snap_delta = Some(self.tracker.snapshot());
            }
            2 => {
                // Output phase for grade 0: current V against current S.
                let entries: Vec<_> = self.tracker.v_entries().collect();
                self.out[0] =
                    Some(highest_supported(&entries, self.tracker.s_len(), store));
            }
            3 => {
                // Output phase for grade 1: participates only if the Δ
                // snapshot exists (validator awake at Δ).
                let result = self.snap_delta.as_ref().map(|snap| {
                    let entries: Vec<_> = self.tracker.intersect_with_current(snap).collect();
                    highest_supported(&entries, self.tracker.s_len(), store)
                });
                if let Some(r) = result {
                    self.out[1] = Some(r);
                }
            }
            _ => {}
        }
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

    fn setup() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v(0), View::new(1));
        let b = g.extend_empty(&store, v(1), View::new(1));
        (store, g, a, b)
    }

    #[test]
    fn unanimous_inputs_output_both_grades() {
        let (store, _, a, _) = setup();
        let mut ga = Ga2::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        ga.on_phase(t(1), delta(), &store);
        ga.on_phase(t(2), delta(), &store);
        ga.on_phase(t(3), delta(), &store);
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
        ga.on_phase(t(2), delta(), &store);
        ga.on_phase(t(3), delta(), &store);
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
        ga.on_phase(t(1), delta(), &store);
        ga.on_phase(t(2), delta(), &store);
        assert_eq!(ga.output(0), Some(a));
        // Between 2Δ and 3Δ two of a's supporters are exposed as
        // equivocators: V^Δ_a ∩ V^{3Δ}_a = {v2} — 1 of S=4, not a majority;
        // genesis keeps {v2, v3} = 2 of 4 — also not > 2. No grade-1 output.
        ga.on_log(v(0), b);
        ga.on_log(v(1), b);
        ga.on_phase(t(3), delta(), &store);
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
        ga.on_phase(t(1), delta(), &store);
        ga.on_phase(t(2), delta(), &store);
        assert_eq!(ga.output(0), Some(a));
        // Three more senders appear on a conflicting branch before 3Δ:
        // S grows to 6, V^Δ_a ∩ V^{3Δ}_a = 3 — exactly half, fails.
        ga.on_log(v(3), b);
        ga.on_log(v(4), b);
        ga.on_log(v(5), b);
        ga.on_phase(t(3), delta(), &store);
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
}
