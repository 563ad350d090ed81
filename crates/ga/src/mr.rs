//! §4 — the background Graded Agreement of Momose and Ren (CCS 2022),
//! adapted to logs exactly as the paper presents it.
//!
//! ```text
//! 1. (t = 0):  broadcast ⟨LOG, Λ⟩_i.
//! 2. (t = Δ):  store V^Δ.
//! 3. (t = 2Δ): send a VOTE for Λ if |X^{2Δ}_Λ| > |S^{2Δ}|/2,
//!              where X_Λ counts senders of logs extending Λ
//!              *including equivocators*.
//! 4. (t = 3Δ): output (Λ, 1) if |V^Δ_Λ| > |S^{3Δ}|/2;
//!              output (Λ, 0) if the number of VOTEs for logs ⪰ Λ
//!              exceeds half of all received VOTEs.
//! ```
//!
//! Counting *all* `LOG` messages (equivocations included) in `X_Λ` is
//! what makes the time-shifted quorum argument go through in MR — every
//! message counted in `V^Δ_Λ` by one validator is guaranteed to count in
//! `X^{2Δ}_Λ` at another. The compromise, as §4 notes, is that **grade-0
//! Uniqueness fails**: one equivocator can push two conflicting logs
//! past the threshold at once. The `mr_uniqueness_gap` experiment
//! exhibits this concretely and shows the same adversary cannot do it to
//! [`crate::Ga2`].

use std::collections::BTreeMap;

use tobsvd_types::{BlockStore, Delta, InstanceId, Log, Time, ValidatorId};

use crate::ga2::deltas_since;
use crate::support::{distinct_supporter_counts, highest_supported, maximal_passing};
use crate::tracker::{LogTracker, TrackOutcome};

/// Protocol duration in Δ.
pub const MR_DURATION_DELTAS: u64 = 3;

/// The Momose–Ren background GA of §4.
#[derive(Clone, Debug)]
pub struct MrGa {
    instance: InstanceId,
    start: Time,
    input: Option<Log>,
    /// V/E/S tracking (V used for grade-1 outputs).
    tracker: LogTracker,
    /// All accepted logs per sender (up to two), for the X_Λ counts.
    all_logs: BTreeMap<ValidatorId, Vec<Log>>,
    /// Received VOTE messages: (sender, voted log), up to two per sender.
    votes: Vec<(ValidatorId, Log)>,
    votes_per_sender: BTreeMap<ValidatorId, u8>,
    /// `V^Δ`'s logs. Grade 1 counts them as they were at Δ, with no
    /// intersection, so they are copied rather than kept as a
    /// [`crate::VSnapshot`].
    snap_delta: Option<Vec<(ValidatorId, Log)>>,
    /// Votes this validator should send, computed at 2Δ.
    pending_votes: Option<Vec<Log>>,
    /// Grade-0 outputs (maximal vote-supported logs — possibly several
    /// conflicting ones: the Uniqueness gap).
    out0: Option<Vec<Log>>,
    /// Grade-1 output (highest V^Δ-supported log).
    out1: Option<Option<Log>>,
}

impl MrGa {
    /// Creates an instance starting at `start`.
    pub fn new(instance: InstanceId, start: Time) -> Self {
        MrGa {
            instance,
            start,
            input: None,
            tracker: LogTracker::new(),
            all_logs: BTreeMap::new(),
            votes: Vec::new(),
            votes_per_sender: BTreeMap::new(),
            snap_delta: None,
            pending_votes: None,
            out0: None,
            out1: None,
        }
    }

    /// The GA instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// Records this validator's own input.
    pub fn set_input(&mut self, log: Log) {
        self.input = Some(log);
    }

    /// Feeds a received `LOG` message.
    pub fn on_log(&mut self, sender: ValidatorId, log: Log) -> TrackOutcome {
        let outcome = self.tracker.on_log(sender, log);
        // X counts up to two accepted logs per sender regardless of
        // equivocation.
        let logs = self.all_logs.entry(sender).or_default();
        if logs.len() < 2 && !logs.contains(&log) {
            logs.push(log);
        }
        outcome
    }

    /// Feeds a received `VOTE` message (up to two per sender accepted).
    pub fn on_vote(&mut self, sender: ValidatorId, log: Log) {
        let count = self.votes_per_sender.entry(sender).or_insert(0);
        if *count >= 2 {
            return;
        }
        if self.votes.iter().any(|(s, l)| *s == sender && *l == log) {
            return;
        }
        *count += 1;
        self.votes.push((sender, log));
    }

    /// Drives the schedule; returns the `VOTE`s this validator must
    /// broadcast (non-empty only at the 2Δ phase).
    pub fn on_phase(&mut self, now: Time, delta: Delta, store: &BlockStore) -> Vec<Log> {
        let Some(k) = deltas_since(self.start, now, delta) else {
            return Vec::new();
        };
        match k {
            1 => {
                if self.snap_delta.is_none() {
                    self.snap_delta = Some(self.tracker.v_entries().collect());
                }
                Vec::new()
            }
            2 => {
                // Vote for the maximal logs whose X-support (equivocators
                // included) exceeds half the perceived participation.
                let entries: Vec<(ValidatorId, Log)> = self
                    .all_logs
                    .iter()
                    .flat_map(|(v, logs)| logs.iter().map(move |l| (*v, *l)))
                    .collect();
                let counts = distinct_supporter_counts(&entries, store);
                let votes = maximal_passing(&counts, self.tracker.s_len(), store);
                self.pending_votes = Some(votes.clone());
                votes
            }
            3 => {
                // Grade 1: |V^Δ_Λ| > |S^{3Δ}|/2 (no intersection with the
                // current V — this is MR, not Figure 1).
                if let Some(snap) = self.snap_delta.as_ref() {
                    self.out1 = Some(highest_supported(snap, self.tracker.s_len(), store));
                }
                // Grade 0: majority of voters. A voter counts toward Λ if
                // *any* of its (up to two) votes extends Λ — equivocating
                // voters count toward both branches while appearing once
                // in the denominator. This is the equivocation-counting
                // that costs MR Uniqueness at grade 0 (§4).
                let voters = self.votes_per_sender.len();
                let counts = distinct_supporter_counts(&self.votes, store);
                self.out0 = Some(maximal_passing(&counts, voters, store));
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Whether the grade-0 output phase executed.
    pub fn participated_grade0(&self) -> bool {
        self.out0.is_some()
    }

    /// Whether the grade-1 output phase executed.
    pub fn participated_grade1(&self) -> bool {
        self.out1.is_some()
    }

    /// All *maximal* grade-0 outputs. May contain conflicting logs —
    /// the §4 Uniqueness gap.
    pub fn outputs_grade0(&self) -> &[Log] {
        self.out0.as_deref().unwrap_or(&[])
    }

    /// The highest grade-1 output, if any.
    pub fn output_grade1(&self) -> Option<Log> {
        self.out1.flatten()
    }

    /// Read access to the tracker.
    pub fn tracker(&self) -> &LogTracker {
        &self.tracker
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

    fn setup() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v(0), View::new(1));
        let b = g.extend_empty(&store, v(1), View::new(1));
        (store, g, a, b)
    }

    #[test]
    fn unanimous_run_votes_and_outputs() {
        let (store, _, a, _) = setup();
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        for i in 0..4 {
            ga.on_log(v(i), a);
        }
        assert!(ga.on_phase(t(1), delta(), &store).is_empty());
        let votes = ga.on_phase(t(2), delta(), &store);
        assert_eq!(votes, vec![a], "votes for the unanimous log");
        // Everyone's votes arrive.
        for i in 0..4 {
            ga.on_vote(v(i), a);
        }
        ga.on_phase(t(3), delta(), &store);
        assert_eq!(ga.outputs_grade0(), &[a]);
        assert_eq!(ga.output_grade1(), Some(a));
    }

    #[test]
    fn equivocations_counted_in_x_but_not_v() {
        let (store, _, a, b) = setup();
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        // v0 equivocates a/b; v1 honest on a; v2 honest on b.
        ga.on_log(v(0), a);
        ga.on_log(v(0), b);
        ga.on_log(v(1), a);
        ga.on_log(v(2), b);
        ga.on_phase(t(1), delta(), &store);
        let votes = ga.on_phase(t(2), delta(), &store);
        // X_a = {v0, v1} = 2 > 3/2; X_b = {v0, v2} = 2 > 3/2:
        // the validator votes for BOTH conflicting logs.
        assert_eq!(votes.len(), 2);
        assert!(votes[0].conflicts(&votes[1], &store));
        // Grade 1 (which uses V, excluding equivocators) sees only
        // {v1: a, v2: b} of S = 3: no majority for either branch, and
        // genesis has support 2 > 3/2.
        ga.on_phase(t(3), delta(), &store);
        assert_eq!(ga.output_grade1(), Some(Log::genesis(&store)));
    }

    #[test]
    fn conflicting_grade0_outputs_possible() {
        // The §4 Uniqueness gap: an equivocating voter counts toward
        // both branches while appearing once in the denominator, so two
        // conflicting logs can both pass at one honest validator.
        let (store, _, a, b) = setup();
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        ga.on_phase(t(1), delta(), &store);
        ga.on_phase(t(2), delta(), &store);
        // 3 voters; v0 equivocates votes for both branches.
        ga.on_vote(v(0), a);
        ga.on_vote(v(0), b);
        ga.on_vote(v(1), a);
        ga.on_vote(v(2), b);
        ga.on_phase(t(3), delta(), &store);
        // Voters for a: {v0, v1} = 2; for b: {v0, v2} = 2; denominator 3.
        // Both pass 2·2 > 3: conflicting grade-0 outputs.
        let outs = ga.outputs_grade0();
        assert_eq!(outs.len(), 2, "expected conflicting outputs: {outs:?}");
        assert!(outs[0].conflicts(&outs[1], &store));
        assert!(outs.contains(&a) && outs.contains(&b));
    }

    #[test]
    fn vote_dedup_and_cap() {
        let (store, _, a, b) = setup();
        let g = Log::genesis(&store);
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        ga.on_vote(v(0), a);
        ga.on_vote(v(0), a); // duplicate ignored
        ga.on_vote(v(0), b);
        ga.on_vote(v(0), g); // third distinct vote ignored
        assert_eq!(ga.votes.len(), 2);
    }

    #[test]
    fn equivocation_after_delta_still_counts_in_grade1() {
        // MR's grade 1 is |V^Δ_Λ| > |S^{3Δ}|/2 with no intersection: a
        // sender in V^Δ exposed as an equivocator after Δ still counts
        // (Figure 1's grade 1 would drop it).
        let (store, _, a, b) = setup();
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        for i in 0..3 {
            ga.on_log(v(i), a);
        }
        ga.on_phase(t(1), delta(), &store);
        ga.on_log(v(0), b);
        ga.on_log(v(1), b);
        assert!(ga.tracker().is_equivocator(v(0)) && ga.tracker().is_equivocator(v(1)));
        ga.on_phase(t(2), delta(), &store);
        ga.on_phase(t(3), delta(), &store);
        assert_eq!(ga.output_grade1(), Some(a), "3 of S = 3 at Δ, equivocators included");
    }

    #[test]
    fn missing_snapshot_disables_grade1() {
        let (store, _, a, _) = setup();
        let mut ga = MrGa::new(InstanceId(0), Time::ZERO);
        for i in 0..3 {
            ga.on_log(v(i), a);
        }
        // No Δ phase call.
        ga.on_phase(t(2), delta(), &store);
        ga.on_phase(t(3), delta(), &store);
        assert!(!ga.participated_grade1());
        assert!(ga.participated_grade0());
    }
}
