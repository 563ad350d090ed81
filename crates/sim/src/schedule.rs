//! Participation (sleep/wake) and corruption schedules.

use tobsvd_types::{Delta, Time, ValidatorId};

/// Per-validator awake intervals.
///
/// Validator `v` is awake at tick `t` iff some stored interval
/// `[start, end)` contains `t`. The default schedule (no intervals
/// stored for a validator) means *always awake*.
///
/// ```
/// use tobsvd_sim::ParticipationSchedule;
/// use tobsvd_types::{Time, ValidatorId};
///
/// let mut sched = ParticipationSchedule::always_awake(3);
/// sched.set_intervals(ValidatorId::new(1), vec![(Time::new(0), Time::new(10))]);
/// assert!(sched.is_awake(ValidatorId::new(1), Time::new(9)));
/// assert!(!sched.is_awake(ValidatorId::new(1), Time::new(10)));
/// assert!(sched.is_awake(ValidatorId::new(0), Time::new(999))); // default
/// ```
#[derive(Clone, Debug)]
pub struct ParticipationSchedule {
    n: usize,
    /// `None` = always awake; `Some(intervals)` = awake exactly during
    /// those half-open tick intervals, sorted and non-overlapping.
    intervals: Vec<Option<Vec<(Time, Time)>>>,
}

impl ParticipationSchedule {
    /// All `n` validators awake forever.
    pub fn always_awake(n: usize) -> Self {
        ParticipationSchedule { n, intervals: vec![None; n] }
    }

    /// Number of validators covered.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Replaces a validator's awake intervals.
    ///
    /// Intervals are normalized: sorted by start, overlapping or touching
    /// intervals merged, empty intervals dropped.
    pub fn set_intervals(&mut self, v: ValidatorId, mut ivs: Vec<(Time, Time)>) {
        ivs.retain(|(s, e)| e > s);
        ivs.sort_by_key(|(s, _)| *s);
        let mut merged: Vec<(Time, Time)> = Vec::with_capacity(ivs.len());
        for (s, e) in ivs {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => {
                    if e > *last_end {
                        *last_end = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        self.intervals[v.index()] = Some(merged);
    }

    /// Whether `v` is awake at `t`.
    pub fn is_awake(&self, v: ValidatorId, t: Time) -> bool {
        match &self.intervals[v.index()] {
            None => true,
            Some(ivs) => ivs.iter().any(|(s, e)| *s <= t && t < *e),
        }
    }

    /// Whether `v` is awake for every tick of `[from, to]` (inclusive).
    pub fn awake_throughout(&self, v: ValidatorId, from: Time, to: Time) -> bool {
        match &self.intervals[v.index()] {
            None => true,
            Some(ivs) => ivs.iter().any(|(s, e)| *s <= from && to < *e),
        }
    }

    /// All wake/sleep transition times for `v` (wake = interval starts,
    /// sleep = interval ends), used by the engine to schedule events.
    pub fn transitions(&self, v: ValidatorId) -> Vec<(Time, bool)> {
        match &self.intervals[v.index()] {
            None => vec![(Time::ZERO, true)],
            Some(ivs) => {
                let mut out = Vec::with_capacity(ivs.len() * 2);
                for (s, e) in ivs {
                    out.push((*s, true));
                    out.push((*e, false));
                }
                out
            }
        }
    }

    /// The awake honest set `H_t` given the corruption schedule.
    pub fn awake_honest_at(&self, t: Time, corruption: &CorruptionSchedule) -> Vec<ValidatorId> {
        ValidatorId::all(self.n)
            .filter(|v| self.is_awake(*v, t) && !corruption.is_byzantine(*v, t))
            .collect()
    }
}

/// The growing-adversary corruption schedule.
///
/// Entries record when each corruption was *scheduled*; it becomes
/// *effective* Δ later (mildly adaptive adversary, paper §3.1). The
/// Byzantine set is monotone non-decreasing by construction.
#[derive(Clone, Debug, Default)]
pub struct CorruptionSchedule {
    /// `(validator, effective_time)`, sorted by effective time.
    entries: Vec<(ValidatorId, Time)>,
}

impl CorruptionSchedule {
    /// No corruptions.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validators Byzantine from the start of the execution.
    pub fn from_genesis(validators: impl IntoIterator<Item = ValidatorId>) -> Self {
        let mut s = Self::default();
        for v in validators {
            s.entries.push((v, Time::ZERO));
        }
        s.entries.sort_by_key(|(_, t)| *t);
        s
    }

    /// Schedules a corruption at `scheduled_at`; it becomes effective at
    /// `scheduled_at + Δ`. Returns the effective time. Idempotent per
    /// validator (the earliest effective time wins).
    pub fn schedule(&mut self, v: ValidatorId, scheduled_at: Time, delta: Delta) -> Time {
        let effective = scheduled_at + delta;
        if let Some(existing) = self.effective_time(v) {
            return existing.min(effective);
        }
        self.entries.push((v, effective));
        self.entries.sort_by_key(|(_, t)| *t);
        effective
    }

    /// Inserts an entry with an explicit effective time (used when
    /// copying schedules; [`CorruptionSchedule::schedule`] is the normal,
    /// mild-adaptivity-enforcing path). Idempotent per validator.
    pub fn insert_effective(&mut self, v: ValidatorId, effective: Time) {
        if self.effective_time(v).is_some() {
            return;
        }
        self.entries.push((v, effective));
        self.entries.sort_by_key(|(_, t)| *t);
    }

    /// The time `v` becomes Byzantine, if ever.
    pub fn effective_time(&self, v: ValidatorId) -> Option<Time> {
        self.entries.iter().find(|(w, _)| *w == v).map(|(_, t)| *t)
    }

    /// Whether `v` is Byzantine at `t` (`v ∈ B_t`).
    pub fn is_byzantine(&self, v: ValidatorId, t: Time) -> bool {
        matches!(self.effective_time(v), Some(eff) if eff <= t)
    }

    /// The Byzantine set `B_t`.
    pub fn byzantine_at(&self, t: Time) -> Vec<ValidatorId> {
        self.entries
            .iter()
            .filter(|(_, eff)| *eff <= t)
            .map(|(v, _)| *v)
            .collect()
    }

    /// All `(validator, effective_time)` entries, sorted by time.
    pub fn entries(&self) -> &[(ValidatorId, Time)] {
        &self.entries
    }

    /// Total number of eventually-Byzantine validators.
    pub fn total(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_membership() {
        let mut s = ParticipationSchedule::always_awake(2);
        s.set_intervals(ValidatorId::new(0), vec![(Time::new(5), Time::new(10)), (Time::new(20), Time::new(25))]);
        assert!(!s.is_awake(ValidatorId::new(0), Time::new(4)));
        assert!(s.is_awake(ValidatorId::new(0), Time::new(5)));
        assert!(!s.is_awake(ValidatorId::new(0), Time::new(10)));
        assert!(s.is_awake(ValidatorId::new(0), Time::new(24)));
        assert!(s.is_awake(ValidatorId::new(1), Time::new(999)));
    }

    #[test]
    fn interval_normalization_merges_overlaps() {
        let mut s = ParticipationSchedule::always_awake(1);
        s.set_intervals(
            ValidatorId::new(0),
            vec![
                (Time::new(10), Time::new(20)),
                (Time::new(0), Time::new(12)),
                (Time::new(30), Time::new(30)), // empty, dropped
            ],
        );
        assert_eq!(
            s.transitions(ValidatorId::new(0)),
            vec![(Time::new(0), true), (Time::new(20), false)]
        );
    }

    #[test]
    fn awake_throughout_window() {
        let mut s = ParticipationSchedule::always_awake(1);
        s.set_intervals(ValidatorId::new(0), vec![(Time::new(5), Time::new(15))]);
        assert!(s.awake_throughout(ValidatorId::new(0), Time::new(5), Time::new(14)));
        assert!(!s.awake_throughout(ValidatorId::new(0), Time::new(5), Time::new(15)));
        assert!(!s.awake_throughout(ValidatorId::new(0), Time::new(4), Time::new(10)));
    }

    #[test]
    fn corruption_mild_adaptivity() {
        let mut c = CorruptionSchedule::none();
        let eff = c.schedule(ValidatorId::new(1), Time::new(10), Delta::new(8));
        assert_eq!(eff, Time::new(18));
        assert!(!c.is_byzantine(ValidatorId::new(1), Time::new(17)));
        assert!(c.is_byzantine(ValidatorId::new(1), Time::new(18)));
    }

    #[test]
    fn corruption_monotone_and_idempotent() {
        let mut c = CorruptionSchedule::none();
        c.schedule(ValidatorId::new(1), Time::new(10), Delta::new(8));
        let second = c.schedule(ValidatorId::new(1), Time::new(0), Delta::new(8));
        // First corruption wins; B_t stays monotone.
        assert_eq!(second, Time::new(8).min(Time::new(18)));
        assert_eq!(c.total(), 1);
        assert_eq!(c.effective_time(ValidatorId::new(1)), Some(Time::new(18)));
    }

    #[test]
    fn genesis_corruption() {
        let c = CorruptionSchedule::from_genesis([ValidatorId::new(0), ValidatorId::new(2)]);
        assert!(c.is_byzantine(ValidatorId::new(0), Time::ZERO));
        assert!(!c.is_byzantine(ValidatorId::new(1), Time::new(100)));
        assert_eq!(c.byzantine_at(Time::ZERO).len(), 2);
    }

    #[test]
    fn awake_honest_excludes_byzantine_and_asleep() {
        let mut s = ParticipationSchedule::always_awake(3);
        s.set_intervals(ValidatorId::new(1), vec![(Time::new(10), Time::new(20))]);
        let c = CorruptionSchedule::from_genesis([ValidatorId::new(2)]);
        let h0 = s.awake_honest_at(Time::ZERO, &c);
        assert_eq!(h0, vec![ValidatorId::new(0)]);
        let h15 = s.awake_honest_at(Time::new(15), &c);
        assert_eq!(h15, vec![ValidatorId::new(0), ValidatorId::new(1)]);
    }
}
