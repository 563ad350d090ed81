//! Figure 2 — Graded Agreement with k = 3 grades.
//!
//! ```text
//! 1. Input phase  (t = 0):  broadcast ⟨LOG, Λ⟩_i.
//! 2.              (t = Δ):  store V^Δ.
//! 3.              (t = 2Δ): store V^{2Δ}.
//! 4. Grade 0      (t = 3Δ): if |V^{3Δ}_Λ| > |S^{3Δ}|/2: output (Λ, 0).
//! 5. Grade 1      (t = 4Δ): if awake at 2Δ:
//!                           if |V^{2Δ}_Λ ∩ V^{4Δ}_Λ| > |S^{4Δ}|/2: output (Λ, 1).
//! 6. Grade 2      (t = 5Δ): if awake at Δ:
//!                           if |V^Δ_Λ ∩ V^{5Δ}_Λ| > |S^{5Δ}|/2: output (Λ, 2).
//! ```
//!
//! The protocol lasts 5Δ, works in the (5Δ, 0, ½)-sleepy model, and
//! applies the time-shifted quorum technique *twice* — the [2Δ, 4Δ]
//! window (grades 0↔1) nested inside the [Δ, 5Δ] window (grades 1↔2),
//! giving the inclusions `V^Δ ∩ V^{5Δ} ⊆ V^{2Δ} ∩ V^{4Δ} ⊆ V^{3Δ}` and
//! `S^{3Δ} ⊆ S^{4Δ} ⊆ S^{5Δ}` across validators, which is what Graded
//! Delivery between consecutive grades rests on (paper, Theorem 2).
//!
//! TOB-SVD embeds one `Ga3` per view: grade 0 feeds proposals
//! (*candidates*), grade 1 feeds votes (*locks*), grade 2 feeds
//! *decisions* — see `tobsvd-core`.

use tobsvd_types::{BlockStore, Delta, InstanceId, Log, Time, ValidatorId};

use crate::ga2::deltas_since;
use crate::support::highest_supported;
use crate::tracker::{LogTracker, TrackOutcome, VSnapshot};

/// Number of grades (`k`) of this GA.
pub const GA3_GRADES: u8 = 3;
/// Protocol duration in Δ.
pub const GA3_DURATION_DELTAS: u64 = 5;

/// The k = 3 Graded Agreement of Figure 2.
#[derive(Clone, Debug)]
pub struct Ga3 {
    instance: InstanceId,
    start: Time,
    input: Option<Log>,
    tracker: LogTracker,
    snap_delta: Option<VSnapshot>,
    snap_2delta: Option<VSnapshot>,
    out: [Option<Option<Log>>; 3],
}

impl Ga3 {
    /// Creates an instance starting (input phase) at `start`.
    pub fn new(instance: InstanceId, start: Time) -> Self {
        Ga3 {
            instance,
            start,
            input: None,
            tracker: LogTracker::new(),
            snap_delta: None,
            snap_2delta: None,
            out: [None, None, None],
        }
    }

    /// The GA instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The input-phase time.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Records this validator's own input (bookkeeping; the owner
    /// broadcasts the `LOG` message).
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

    /// Read access to the V/E/S tracker.
    pub fn tracker(&self) -> &LogTracker {
        &self.tracker
    }

    /// Drives the schedule; call at every phase boundary while awake.
    pub fn on_phase(&mut self, now: Time, delta: Delta, store: &BlockStore) {
        let Some(k) = deltas_since(self.start, now, delta) else {
            return;
        };
        match k {
            1 if self.snap_delta.is_none() => {
                self.snap_delta = Some(self.tracker.snapshot());
            }
            2 if self.snap_2delta.is_none() => {
                self.snap_2delta = Some(self.tracker.snapshot());
            }
            3 => {
                let entries: Vec<_> = self.tracker.v_entries().collect();
                self.out[0] =
                    Some(highest_supported(&entries, self.tracker.s_len(), store));
            }
            4 => {
                if let Some(snap) = self.snap_2delta.as_ref() {
                    let entries: Vec<_> = self.tracker.intersect_with_current(snap).collect();
                    self.out[1] =
                        Some(highest_supported(&entries, self.tracker.s_len(), store));
                }
            }
            5 => {
                if let Some(snap) = self.snap_delta.as_ref() {
                    let entries: Vec<_> = self.tracker.intersect_with_current(snap).collect();
                    self.out[2] =
                        Some(highest_supported(&entries, self.tracker.s_len(), store));
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
    /// the result are also outputs at that grade.
    pub fn output(&self, grade: u8) -> Option<Log> {
        self.out.get(grade as usize).copied().flatten().flatten()
    }
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

    fn drive(ga: &mut Ga3, store: &BlockStore, phases: &[u64]) {
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
        let _ = g;
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
        // Grade 2: V^Δ_a ∩ V^{5Δ}_a = 2, not > 5/2 → genesis at best,
        // but genesis support = 5·... all 5 entries? entries are the Δ
        // snapshot ∩ current = {v0, v1} only — 2 of 5 fails entirely.
        assert_eq!(ga.output(2), None);
    }
}
