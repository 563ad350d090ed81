//! The validator state of §3.3: the `V`, `E` and `S` sets.
//!
//! "At all times, an honest validator keeps only two local variables, V
//! and E. V associates to a validator v_i the log V(i) = ⟨LOG, Λ⟩_i if it
//! has received an unique message ⟨LOG, Λ⟩_i, or V(i) = ⊥ if either none
//! or at least two [different] messages have been received from v_i. …
//! E contains a record of equivocators and equivocation evidence. … A
//! validator can compute from V and E the set S of all the senders of
//! LOG messages."
//!
//! `V` is a dense table indexed by validator — one [`Seat`] per
//! validator index below [`SignerSet::CAPACITY`] — with running `|V|`
//! and `|S|` counts, so recording a log and both counts are O(1) and
//! iteration is in validator order. A sender at or beyond the bound
//! (no committee member, but §3.3 counts every `LOG` sender in `S`)
//! sits in an ordered side map instead: no message can buy a large
//! allocation.
//!
//! Figure 2 also stores two copies of `V` (`V^Δ`, `V^{2Δ}`) and later
//! intersects each with the current `V`. A copy of the logs is not
//! needed for that: a seat only ever moves Silent → One(Λ) →
//! Equivocator, so a sender in `V^snap` that is not an equivocator now
//! is still in `V` with the same Λ. A [`VSnapshot`] is therefore just
//! *who* was in `V` — the running bitmap of `One` seats (64 bytes for
//! the whole committee) plus the ids of far senders — and
//! `V^snap ∩ V^now` is a word-wise AND with the current bitmap
//! followed by one seat read per surviving sender.

use std::collections::BTreeMap;

use tobsvd_types::{Log, SignerSet, ValidatorId};

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

/// Who was in `V` at a point in time (`V^Δ`, `V^{2Δ}` …); the logs are
/// read back from the tracker by
/// [`LogTracker::intersect_with_current`] (see the module docs for why
/// that is exact).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VSnapshot {
    /// Senders below [`SignerSet::CAPACITY`] in `V`.
    ones: SignerSet,
    /// Senders at or beyond the bound in `V`, ascending.
    far: Vec<ValidatorId>,
}

impl VSnapshot {
    /// Number of validators in `V` at the snapshot.
    pub fn len(&self) -> usize {
        self.ones.len() + self.far.len()
    }

    /// Whether `V` was empty.
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty() && self.far.is_empty()
    }

    /// Whether `v` was in `V`.
    pub fn contains(&self, v: ValidatorId) -> bool {
        self.ones.contains(v) || self.far.binary_search(&v).is_ok()
    }
}

/// What one validator contributed to an instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Seat {
    /// No `LOG` received (not in `S`).
    #[default]
    Silent,
    /// Exactly one distinct log: `V(i)`.
    One(Log),
    /// Two or more distinct logs: in `E`, `V(i) = ⊥`.
    Equivocator,
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
    /// `seats[i]`: validator `i`'s seat, for `i < SignerSet::CAPACITY`;
    /// grows to the highest index heard from.
    seats: Vec<Seat>,
    /// The indices of `seats` in state `One`: `V` as a bitmap.
    ones: SignerSet,
    /// Seats of senders at or beyond `SignerSet::CAPACITY`.
    far: BTreeMap<ValidatorId, Seat>,
    v_len: usize,
    s_len: usize,
}

impl LogTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn seat(&self, v: ValidatorId) -> Seat {
        match self.seats.get(v.index()) {
            Some(seat) => *seat,
            None => self.far.get(&v).copied().unwrap_or_default(),
        }
    }

    /// Records a `LOG` message from `sender` carrying `log`.
    pub fn on_log(&mut self, sender: ValidatorId, log: Log) -> TrackOutcome {
        let i = sender.index();
        // A far sender has no bit: `insert` declines it, `remove` skips it.
        let seat = if i < SignerSet::CAPACITY {
            if self.seats.len() <= i {
                self.seats.resize(i + 1, Seat::Silent);
            }
            &mut self.seats[i]
        } else {
            self.far.entry(sender).or_default()
        };
        match *seat {
            Seat::Silent => {
                *seat = Seat::One(log);
                self.ones.insert(sender);
                self.v_len += 1;
                self.s_len += 1;
                TrackOutcome::Recorded
            }
            Seat::One(existing) if existing == log => TrackOutcome::Duplicate,
            Seat::One(_) => {
                *seat = Seat::Equivocator;
                self.ones.remove(sender);
                self.v_len -= 1;
                TrackOutcome::NewEquivocation
            }
            Seat::Equivocator => TrackOutcome::FromEquivocator,
        }
    }

    /// Takes a snapshot of who is in `V` now.
    pub fn snapshot(&self) -> VSnapshot {
        let far = self.far.iter().filter(|(_, seat)| matches!(seat, Seat::One(_))).map(|(v, _)| *v);
        VSnapshot { ones: self.ones, far: far.collect() }
    }

    /// The current logs of `dense` (a subset of `ones`) and of those of
    /// `far` still in `V`, in validator order.
    fn logs_of<'a>(
        &'a self,
        dense: SignerSet,
        far: impl Iterator<Item = ValidatorId> + 'a,
    ) -> impl Iterator<Item = (ValidatorId, Log)> + 'a {
        let one = |v: ValidatorId, seat: Option<&Seat>| match seat {
            Some(Seat::One(log)) => Some((v, *log)),
            _ => None,
        };
        let dense = dense.iter().filter_map(move |v| one(v, self.seats.get(v.index())));
        dense.chain(far.filter_map(move |v| one(v, self.far.get(&v))))
    }

    /// Current `V` entries (non-equivocating unique logs), in validator
    /// order.
    pub fn v_entries(&self) -> impl Iterator<Item = (ValidatorId, Log)> + '_ {
        self.logs_of(self.ones, self.far.keys().copied())
    }

    /// `|V|`.
    pub fn v_len(&self) -> usize {
        self.v_len
    }

    /// `|S|` — count of validators from which at least one `LOG` message
    /// was received (equivocators included).
    pub fn s_len(&self) -> usize {
        self.s_len
    }

    /// Whether `v` is a known equivocator (`v ∈ E`).
    pub fn is_equivocator(&self, v: ValidatorId) -> bool {
        self.seat(v) == Seat::Equivocator
    }

    /// The pairs of `V^snap ∩ V^now` as used by the time-shifted quorum
    /// on the equivocator set: a sender of `snapshot` survives iff it
    /// has not been exposed as an equivocator since, and then still
    /// holds the log it held at the snapshot. In validator order.
    pub fn intersect_with_current<'a>(
        &'a self,
        snapshot: &'a VSnapshot,
    ) -> impl Iterator<Item = (ValidatorId, Log)> + 'a {
        let mut both = snapshot.ones;
        both.intersect_with(&self.ones);
        self.logs_of(both, snapshot.far.iter().copied())
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
        assert!(snap.contains(ValidatorId::new(0)));
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

    /// The `BTreeMap`/`BTreeSet` transcription of §3.3's `V`, `E`, `S`
    /// the seat table must answer like.
    #[derive(Default)]
    struct Reference {
        v: BTreeMap<ValidatorId, Log>,
        equivocators: std::collections::BTreeSet<ValidatorId>,
        senders: std::collections::BTreeSet<ValidatorId>,
    }

    impl Reference {
        fn on_log(&mut self, sender: ValidatorId, log: Log) -> TrackOutcome {
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

        fn entries(&self) -> Vec<(ValidatorId, Log)> {
            self.v.iter().map(|(v, l)| (*v, *l)).collect()
        }
    }

    /// Dense senders, the last dense index, and senders at and beyond
    /// the bound.
    const SENDERS: [u32; 8] = [0, 1, 2, 7, 511, 512, 513, 70_000];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random `on_log` streams (duplicates, equivocations, senders
        /// ≥ 512), after every step: every answer equals the ordered
        /// reference model's, the running `One` bitmap equals the seats,
        /// and every snapshot taken so far intersects with the current
        /// `V` exactly as the reference's copied `V^snap ∩ V^now`.
        #[test]
        fn seats_answer_like_the_ordered_reference(
            stream in proptest::collection::vec((0..SENDERS.len(), 0usize..3, 0usize..4), 1..120),
        ) {
            let (_store, g, a, b) = fixtures();
            let logs = [g, a, b];
            let (mut t, mut r) = (LogTracker::new(), Reference::default());
            let mut snaps: Vec<(VSnapshot, Vec<(ValidatorId, Log)>)> = Vec::new();
            for (sender, log, snap_every) in stream {
                let v = ValidatorId::new(SENDERS[sender]);
                proptest::prop_assert_eq!(t.on_log(v, logs[log]), r.on_log(v, logs[log]));
                proptest::prop_assert_eq!(t.v_entries().collect::<Vec<_>>(), r.entries());
                proptest::prop_assert_eq!((t.v_len(), t.s_len()), (r.v.len(), r.senders.len()));
                let dense_ones: Vec<ValidatorId> = t
                    .seats
                    .iter()
                    .enumerate()
                    .filter(|(_, seat)| matches!(seat, Seat::One(_)))
                    .map(|(i, _)| ValidatorId::new(i as u32))
                    .collect();
                proptest::prop_assert_eq!(t.ones.iter().collect::<Vec<_>>(), dense_ones);
                for w in SENDERS {
                    let w = ValidatorId::new(w);
                    proptest::prop_assert_eq!(t.is_equivocator(w), r.equivocators.contains(&w));
                }
                if snap_every == 0 {
                    snaps.push((t.snapshot(), r.entries()));
                }
                for (snap, copied) in &snaps {
                    proptest::prop_assert_eq!(snap.len(), copied.len());
                    for w in SENDERS {
                        let w = ValidatorId::new(w);
                        proptest::prop_assert_eq!(snap.contains(w), copied.iter().any(|(x, _)| *x == w));
                    }
                    let now = r.entries();
                    let both: Vec<_> = copied.iter().copied().filter(|pair| now.contains(pair)).collect();
                    proptest::prop_assert_eq!(t.intersect_with_current(snap).collect::<Vec<_>>(), both);
                }
            }
        }
    }

    /// The retained bytes of a snapshot: one bitmap for the whole
    /// committee, plus the far senders' ids (none in a committee run).
    #[test]
    fn snapshot_is_a_bitmap_plus_far_ids() {
        assert!(std::mem::size_of::<VSnapshot>() <= 64 + std::mem::size_of::<Vec<ValidatorId>>());
        let (_, g, _, _) = fixtures();
        let mut t = LogTracker::new();
        for i in 0..SignerSet::CAPACITY as u32 {
            t.on_log(ValidatorId::new(i), g);
        }
        assert_eq!(t.snapshot().far.capacity(), 0, "no far sender, no allocation");
    }
}
