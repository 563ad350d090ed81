//! The validator state of §3.3: the `V`, `E` and `S` sets.
//!
//! "At all times, an honest validator keeps only two local variables, V
//! and E. V associates to a validator v_i the log V(i) = ⟨LOG, Λ⟩_i if it
//! has received an unique message ⟨LOG, Λ⟩_i, or V(i) = ⊥ if either none
//! or at least two [different] messages have been received from v_i. …
//! E contains a record of equivocators and equivocation evidence. … A
//! validator can compute from V and E the set S of all the senders of
//! LOG messages."

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use tobsvd_types::{Log, ValidatorId};

/// Outcome of recording one `LOG` message in the tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackOutcome {
    /// First log from this sender: recorded in `V`.
    Recorded,
    /// Identical log already recorded (no state change).
    Duplicate,
    /// Second, different log: the sender is now a known equivocator and
    /// was removed from `V`.
    NewEquivocation,
    /// The sender was already a known equivocator; message ignored.
    FromEquivocator,
}

/// An immutable snapshot of `V` at a point in time (`V^Δ`, `V^{2Δ}` …).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VSnapshot {
    entries: BTreeMap<ValidatorId, Log>,
}

impl VSnapshot {
    /// The recorded (validator, log) pairs.
    pub fn entries(&self) -> impl Iterator<Item = (ValidatorId, Log)> + '_ {
        self.entries.iter().map(|(v, l)| (*v, *l))
    }

    /// Number of recorded validators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no log was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The log recorded for `v`, if any.
    pub fn get(&self, v: ValidatorId) -> Option<Log> {
        self.entries.get(&v).copied()
    }
}

/// Tracks `V`, `E` and `S` for one GA instance.
///
/// ```
/// use tobsvd_ga::{LogTracker, TrackOutcome};
/// use tobsvd_types::{BlockStore, Log, ValidatorId, View};
///
/// let store = BlockStore::new();
/// let g = Log::genesis(&store);
/// let fork = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
///
/// let mut t = LogTracker::new();
/// assert_eq!(t.on_log(ValidatorId::new(0), g), TrackOutcome::Recorded);
/// assert_eq!(t.on_log(ValidatorId::new(0), fork), TrackOutcome::NewEquivocation);
/// assert_eq!(t.on_log(ValidatorId::new(0), g), TrackOutcome::FromEquivocator);
/// assert_eq!(t.v_len(), 0);
/// assert_eq!(t.s_len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogTracker {
    v: BTreeMap<ValidatorId, Log>,
    equivocators: BTreeSet<ValidatorId>,
    senders: BTreeSet<ValidatorId>,
}

impl LogTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a `LOG` message from `sender` carrying `log`.
    pub fn on_log(&mut self, sender: ValidatorId, log: Log) -> TrackOutcome {
        self.senders.insert(sender);
        if self.equivocators.contains(&sender) {
            return TrackOutcome::FromEquivocator;
        }
        match self.v.get(&sender) {
            None => {
                self.v.insert(sender, log);
                TrackOutcome::Recorded
            }
            Some(existing) if *existing == log => TrackOutcome::Duplicate,
            Some(_) => {
                self.v.remove(&sender);
                self.equivocators.insert(sender);
                TrackOutcome::NewEquivocation
            }
        }
    }

    /// Takes an immutable snapshot of the current `V`.
    pub fn snapshot(&self) -> VSnapshot {
        VSnapshot { entries: self.v.clone() }
    }

    /// Current `V` entries (non-equivocating unique logs).
    pub fn v_entries(&self) -> impl Iterator<Item = (ValidatorId, Log)> + '_ {
        self.v.iter().map(|(v, l)| (*v, *l))
    }

    /// `|V|`.
    pub fn v_len(&self) -> usize {
        self.v.len()
    }

    /// `|S|` — count of validators from which at least one `LOG` message
    /// was received (equivocators included).
    pub fn s_len(&self) -> usize {
        self.senders.len()
    }

    /// Whether `v` is a known equivocator (`v ∈ E`).
    pub fn is_equivocator(&self, v: ValidatorId) -> bool {
        self.equivocators.contains(&v)
    }

    /// The pairs of `snapshot` whose senders are still in `V` now —
    /// i.e. `V^snap ∩ V^now` as used by the time-shifted quorum on the
    /// equivocator set (a pair survives iff its sender has not been
    /// exposed as an equivocator since the snapshot).
    pub fn intersect_with_current<'a>(
        &'a self,
        snapshot: &'a VSnapshot,
    ) -> impl Iterator<Item = (ValidatorId, Log)> + 'a {
        snapshot
            .entries()
            .filter(move |(v, _)| !self.equivocators.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::{BlockStore, View};

    fn fixtures() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        (store, g, a, b)
    }

    #[test]
    fn records_first_log_per_sender() {
        let (_, g, a, _) = fixtures();
        let mut t = LogTracker::new();
        assert_eq!(t.on_log(ValidatorId::new(0), g), TrackOutcome::Recorded);
        assert_eq!(t.on_log(ValidatorId::new(1), a), TrackOutcome::Recorded);
        assert_eq!(t.v_len(), 2);
        assert_eq!(t.s_len(), 2);
    }

    #[test]
    fn duplicate_is_noop() {
        let (_, g, _, _) = fixtures();
        let mut t = LogTracker::new();
        t.on_log(ValidatorId::new(0), g);
        assert_eq!(t.on_log(ValidatorId::new(0), g), TrackOutcome::Duplicate);
        assert_eq!(t.v_len(), 1);
    }

    #[test]
    fn equivocation_removes_from_v_keeps_in_s() {
        let (_, _, a, b) = fixtures();
        let mut t = LogTracker::new();
        t.on_log(ValidatorId::new(0), a);
        assert_eq!(t.on_log(ValidatorId::new(0), b), TrackOutcome::NewEquivocation);
        assert_eq!(t.v_len(), 0);
        assert_eq!(t.s_len(), 1);
        assert!(t.is_equivocator(ValidatorId::new(0)));
    }

    #[test]
    fn snapshot_is_immutable() {
        let (_, g, a, b) = fixtures();
        let mut t = LogTracker::new();
        t.on_log(ValidatorId::new(0), a);
        t.on_log(ValidatorId::new(1), g);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        // Later equivocation does not alter the snapshot…
        t.on_log(ValidatorId::new(0), b);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(ValidatorId::new(0)), Some(a));
        // …but does filter the intersection with the current V.
        let alive: Vec<_> = t.intersect_with_current(&snap).collect();
        assert_eq!(alive, vec![(ValidatorId::new(1), g)]);
    }

    #[test]
    fn intersect_keeps_snapshot_logs_for_honest_senders() {
        let (_, g, a, _) = fixtures();
        let mut t = LogTracker::new();
        t.on_log(ValidatorId::new(0), g);
        let snap = t.snapshot();
        // New non-equivocating log from a different sender after the
        // snapshot: not in the snapshot, so not in the intersection.
        t.on_log(ValidatorId::new(1), a);
        let alive: Vec<_> = t.intersect_with_current(&snap).collect();
        assert_eq!(alive, vec![(ValidatorId::new(0), g)]);
    }
}
