//! The external transaction pool of §2/§3.2, with bounded admission.
//!
//! "Upon submission, transactions are immediately added to a transaction
//! pool from which validators can retrieve and validate them … honest
//! validators batch into any proposed block any valid transaction
//! included in the transaction pool that is not already included in the
//! log that the proposed block is appended to."
//!
//! The pool records submission times so the latency experiments can
//! measure confirmation time = decision time − submission time.
//!
//! # Bounded admission
//!
//! Production ingestion cannot queue unboundedly, so the pool enforces
//! an [`AdmissionPolicy`] on every submission ([`Mempool::admit`]):
//!
//! * **hard capacity** — at most `capacity` pending records. A
//!   submission against a full pool either evicts the weakest pending
//!   entry (lowest fee; ties broken by evicting the *newest* of that
//!   fee, so earlier submissions keep their place) when the newcomer's
//!   fee is strictly higher, or is shed with [`Admission::Busy`].
//!   Eviction and its tie-break are fully deterministic: the priority
//!   index is a `BTreeSet<(fee, seq)>` — no hash-order iteration.
//! * **per-client rate caps** — at most `rate_cap` *accepted*
//!   submissions per client per `rate_window` ticks
//!   ([`Admission::RateLimited`] beyond that).
//! * **explicit verdicts** — callers (the runtime's ingest plane, the
//!   sim's open-loop workload) relay the verdict to the client as a
//!   `SubmitAck`, closing the backpressure loop.
//!
//! An evicted transaction leaves the pool *and* the duplicate-
//! suppression index: the client is expected to resubmit later, and a
//! resubmission must not be silently swallowed as a duplicate.
//! The policy is fixed at construction: [`Mempool::bounded`] takes one,
//! and [`Mempool::new`] is the same code path under
//! [`AdmissionPolicy::unbounded`] (the pool of every simulation that
//! does not ask for admission control).
//!
//! # Retention
//!
//! One mechanism bounds what the pool holds: each driver calls
//! [`Mempool::prune_confirmed`] at its longest decided log (the engine
//! at the decision observer's anchor, the TCP node loop at its own
//! decisions). Pruning drops the records (payloads) of the transactions
//! that log includes and remembers that log; a log that is not longer
//! is ignored. Only ids survive a prune — the `TxId → submission time`
//! index, plus the decided ids this pool never admitted — so duplicate
//! suppression and latency lookups keep working.
//!
//! Because nothing the pruned log includes is pending or admissible
//! again, "not already included in `log`" only has to look at the
//! blocks of `log` above its common prefix with the pruned log: one or
//! two blocks when proposals extend the decided chain.
//!
//! # Lookup by id
//!
//! The id index of admitted transactions also names each one's pending
//! record (its sequence number, until a prune drops the record). It
//! answers [`Mempool::lookup`], the pool side of a TCP node's frame
//! decoding (a block body takes a pooled transaction instead of
//! copying its bytes: `tobsvd_types::codec::Reader::pooled`), and lets
//! a prune remove exactly the records its log includes, without
//! scanning the pool. One index serves duplicate suppression, latency
//! lookups and these, so an admission still inserts one id.
//!
//! The index, and the set of ids decided elsewhere, are hashed: every
//! id ever admitted stays in them, and a TCP node looks up each
//! transaction of each block body it decodes, so an ordered walk over
//! them was the node's largest self time. Both are keyed-lookup only,
//! never iterated, so hash order reaches no output. They keep std's
//! keyed SipHash, as `BlockStore`'s map does, not an identity hash over
//! the digest bytes: clients choose payloads, so they can grind ids
//! into one bucket.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use tobsvd_types::{BlockStore, Log, Time, Transaction, TxId};

/// A pooled transaction plus its submission time and fee bid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction.
    pub tx: Transaction,
    /// When it entered the pool.
    pub submitted_at: Time,
    /// Fee bid (0 for legacy [`Mempool::submit`] submissions).
    pub fee: u64,
}

/// Admission-control policy of a pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Hard cap on pending records.
    pub capacity: usize,
    /// Max accepted submissions per client per window (0 = unlimited).
    pub rate_cap: u32,
    /// Rate-cap window length in ticks.
    pub rate_window: u64,
}

impl AdmissionPolicy {
    /// No limits: the policy of [`Mempool::new`].
    pub fn unbounded() -> Self {
        AdmissionPolicy { capacity: usize::MAX, rate_cap: 0, rate_window: 1 }
    }
}

impl Default for AdmissionPolicy {
    /// The runtime ingest default: 65 536 pending transactions, no
    /// per-client cap.
    fn default() -> Self {
        AdmissionPolicy { capacity: 65_536, rate_cap: 0, rate_window: 64 }
    }
}

/// Verdict of one [`Mempool::admit`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; `evicted` names the pending transaction displaced to
    /// make room, if any.
    Accepted {
        /// Displaced lower-priority transaction, if the pool was full.
        evicted: Option<TxId>,
    },
    /// Already known (pending or previously confirmed): ignored, first
    /// submission time wins.
    Duplicate,
    /// Pool full and the fee did not beat the weakest pending entry.
    Busy,
    /// The client exceeded its per-window rate cap.
    RateLimited,
}

impl Admission {
    /// Whether the transaction entered the pool.
    pub fn is_accepted(self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }
}

/// Counters describing a pool's admission history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions ignored as duplicates.
    pub duplicates: u64,
    /// Submissions shed at capacity.
    pub busy: u64,
    /// Submissions shed by per-client rate caps.
    pub rate_limited: u64,
    /// Pending transactions displaced by priority eviction.
    pub evicted: u64,
    /// High-water mark of pending records (the bounded-memory witness).
    pub pending_peak: u64,
}

/// What the pool keeps of an admitted transaction's id.
#[derive(Clone, Copy, Debug)]
struct Admitted {
    at: Time,
    /// The key of its record in `Inner::pool`; `None` once pruned.
    pending: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Pending pool keyed by submission sequence number (iteration in
    /// key order is submission order); pruned as the decided prefix
    /// advances, evicted under admission pressure.
    pool: BTreeMap<u64, TxRecord>,
    /// Priority index: (fee, seq). The weakest entry is the lowest fee
    /// with the highest seq — deterministic eviction order.
    priority: BTreeSet<(u64, u64)>,
    /// Next submission sequence number.
    next_seq: u64,
    /// Every transaction ever admitted: its submission time and, while
    /// its record is pending, that record's seq. Retained after pruning
    /// for duplicate suppression and latency lookups; *removed* on
    /// eviction so clients can resubmit.
    submitted: HashMap<TxId, Admitted>,
    /// Decided ids this pool never admitted (a peer's client submitted
    /// them): duplicate-suppressed, with no submission time.
    decided_elsewhere: HashSet<TxId>,
    /// Per-client rate-cap windows: client → (window index, accepted).
    rate: BTreeMap<u64, (u64, u32)>,
    /// Admission counters.
    stats: AdmissionStats,
    /// The longest log pruned so far (`None`: nothing pruned yet).
    pruned: Option<Log>,
}

impl Inner {
    /// Removes one pending record by sequence number.
    fn remove(&mut self, seq: u64) -> Option<TxRecord> {
        let rec = self.pool.remove(&seq)?;
        self.priority.remove(&(rec.fee, seq));
        if let Some(admitted) = self.submitted.get_mut(&rec.tx.id()) {
            admitted.pending = None;
        }
        Some(rec)
    }

    /// Evicts one pending record under admission pressure.
    fn evict_seq(&mut self, seq: u64) -> Option<TxId> {
        let id = self.remove(seq)?.tx.id();
        // Forget the submission so the client may resubmit: a shed
        // transaction silently treated as a duplicate later would be a
        // liveness bug, not backpressure.
        self.submitted.remove(&id);
        self.stats.evicted += 1;
        Some(id)
    }

    /// The weakest pending entry: lowest fee, newest among that fee.
    fn weakest(&self) -> Option<(u64, u64)> {
        let (min_fee, _) = *self.priority.iter().next()?;
        self.priority
            .range((min_fee, 0)..=(min_fee, u64::MAX))
            .next_back()
            .copied()
    }

    fn insert_record(&mut self, tx: Transaction, now: Time, fee: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = tx.id();
        self.submitted.insert(id, Admitted { at: now, pending: Some(seq) });
        self.priority.insert((fee, seq));
        self.pool.insert(seq, TxRecord { tx, submitted_at: now, fee });
        self.stats.accepted += 1;
        self.stats.pending_peak = self.stats.pending_peak.max(self.pool.len() as u64);
    }

    /// The ids included in the blocks of `log` above its common prefix
    /// with the pruned log. Everything at or below that prefix is in the
    /// pruned log, so it is neither pending nor admissible again.
    fn included_above_pruned(&self, log: &Log, store: &BlockStore) -> BTreeSet<TxId> {
        let from = self.pruned.map_or(1, |p| p.common_prefix(log, store).len());
        let mut ids = BTreeSet::new();
        for id in store.chain_range(log.tip(), from).unwrap_or_default() {
            if let Some(block) = store.get(id) {
                ids.extend(block.txs().iter().map(Transaction::id));
            }
        }
        ids
    }
}

/// Shared transaction pool with submission-time tracking, bounded
/// admission, and pruning at the decided log.
///
/// ```
/// use tobsvd_core::{Admission, AdmissionPolicy, Mempool};
/// use tobsvd_types::{BlockStore, Log, Time, Transaction};
///
/// let store = BlockStore::new();
/// let pool = Mempool::bounded(AdmissionPolicy { capacity: 1, rate_cap: 0, rate_window: 1 });
/// let tx = Transaction::new(b"tx".to_vec());
/// assert!(pool.admit(tx.clone(), Time::new(5), 3, Some(1)).is_accepted());
/// // Pool full; an equal-or-lower fee is shed with Busy.
/// let low = Transaction::new(b"low".to_vec());
/// assert_eq!(pool.admit(low, Time::new(6), 3, Some(2)), Admission::Busy);
/// let pending = pool.pending_for(&Log::genesis(&store), &store);
/// assert_eq!(pending, vec![tx]);
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    inner: Arc<Mutex<Inner>>,
    policy: AdmissionPolicy,
}

impl Default for Mempool {
    fn default() -> Self {
        Self::new()
    }
}

impl Mempool {
    /// Creates an empty pool with unbounded admission.
    pub fn new() -> Self {
        Self::bounded(AdmissionPolicy::unbounded())
    }

    /// Creates an empty pool with the given admission policy.
    pub fn bounded(policy: AdmissionPolicy) -> Self {
        Mempool { inner: Arc::default(), policy }
    }

    /// Admission counters so far.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.inner.lock().stats
    }

    /// Submits a transaction at `now` (legacy unbounded-era interface:
    /// fee 0, no client identity). Duplicate ids are ignored (the first
    /// submission time wins), including ids whose records were already
    /// pruned after confirmation. Under a bounded policy this goes
    /// through [`Mempool::admit`] and may be shed.
    pub fn submit(&self, tx: Transaction, now: Time) {
        let _ = self.admit(tx, now, 0, None);
    }

    /// Submits a transaction with a fee bid and an optional client
    /// identity, returning the explicit admission verdict.
    pub fn admit(&self, tx: Transaction, now: Time, fee: u64, client: Option<u64>) -> Admission {
        let mut inner = self.inner.lock();
        let policy = self.policy;
        let id = tx.id();
        if inner.submitted.contains_key(&id) || inner.decided_elsewhere.contains(&id) {
            inner.stats.duplicates += 1;
            return Admission::Duplicate;
        }
        // Per-client rate cap (counts *accepted* submissions).
        let window = now.ticks().checked_div(policy.rate_window).unwrap_or(0);
        if policy.rate_cap > 0 {
            if let Some(c) = client {
                let entry = inner.rate.entry(c).or_insert((window, 0));
                if entry.0 != window {
                    *entry = (window, 0);
                }
                if entry.1 >= policy.rate_cap {
                    inner.stats.rate_limited += 1;
                    return Admission::RateLimited;
                }
            }
        }
        // Hard capacity with deterministic priority eviction.
        let mut evicted = None;
        if inner.pool.len() >= policy.capacity {
            match inner.weakest() {
                // A strictly higher fee displaces the weakest entry;
                // equal fees favor the incumbent (prevents eviction
                // churn between same-fee submissions).
                Some((weak_fee, weak_seq)) if fee > weak_fee => {
                    evicted = inner.evict_seq(weak_seq);
                }
                _ => {
                    inner.stats.busy += 1;
                    return Admission::Busy;
                }
            }
        }
        inner.insert_record(tx, now, fee);
        if policy.rate_cap > 0 {
            if let Some(c) = client {
                if let Some(entry) = inner.rate.get_mut(&c) {
                    entry.1 += 1;
                }
            }
        }
        Admission::Accepted { evicted }
    }

    /// Submission time of a transaction, if ever admitted (survives
    /// pruning; cleared by eviction).
    pub fn submitted_at(&self, id: TxId) -> Option<Time> {
        self.inner.lock().submitted.get(&id).map(|a| a.at)
    }

    /// The pending transaction with this id, if any: a clone sharing
    /// the pooled payload.
    pub fn lookup(&self, id: TxId) -> Option<Transaction> {
        let inner = self.inner.lock();
        let seq = inner.submitted.get(&id)?.pending?;
        inner.pool.get(&seq).map(|r| r.tx.clone())
    }

    /// Number of pooled transactions (ever admitted and not evicted).
    pub fn len(&self) -> usize {
        self.inner.lock().submitted.len()
    }

    /// Number of transactions currently pending (admitted, not yet
    /// pruned as confirmed or evicted).
    pub fn pending_len(&self) -> usize {
        self.inner.lock().pool.len()
    }

    /// Whether the pool has never seen a transaction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pooled transactions submitted at or before `now` that are not
    /// already included in `log` — the batch an honest proposer puts in
    /// its next block (in submission order).
    pub fn pending_for_at(&self, log: &Log, store: &BlockStore, now: Time) -> Vec<Transaction> {
        let inner = self.inner.lock();
        let included = inner.included_above_pruned(log, store);
        inner
            .pool
            .values()
            .filter(|r| r.submitted_at <= now && !included.contains(&r.tx.id()))
            .map(|r| r.tx.clone())
            .collect()
    }

    /// [`Mempool::pending_for_at`] with no submission-time cutoff.
    pub fn pending_for(&self, log: &Log, store: &BlockStore) -> Vec<Transaction> {
        self.pending_for_at(log, store, Time::new(u64::MAX))
    }

    /// Drops the records of every pending transaction included in
    /// `decided` (a log all honest validators' decisions are compatible
    /// with: the engine passes the observer's anchor, a TCP node its own
    /// decisions), and remembers `decided` as the pruned log. A log no
    /// longer than the pruned one is ignored.
    ///
    /// Pruning keeps the ids: an admitted transaction keeps its
    /// submission time, and a decided one this pool never admitted is
    /// recorded, so a resubmission of either is a duplicate.
    pub fn prune_confirmed(&self, decided: &Log, store: &BlockStore) {
        let mut inner = self.inner.lock();
        if decided.len() <= inner.pruned.map_or(1, |p| p.len()) {
            return;
        }
        for id in inner.included_above_pruned(decided, store) {
            match inner.submitted.get(&id).copied() {
                Some(Admitted { pending: Some(seq), .. }) => {
                    inner.remove(seq);
                }
                Some(_) => {}
                None => {
                    inner.decided_elsewhere.insert(id);
                }
            }
        }
        inner.pruned = Some(*decided);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::{ValidatorId, View};

    #[test]
    fn submit_and_query() {
        let pool = Mempool::new();
        let tx = Transaction::new(vec![1]);
        pool.submit(tx.clone(), Time::new(3));
        assert_eq!(pool.submitted_at(tx.id()), Some(Time::new(3)));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.pending_len(), 1);
    }

    #[test]
    fn duplicate_submission_keeps_first_time() {
        let pool = Mempool::new();
        let tx = Transaction::new(vec![1]);
        pool.submit(tx.clone(), Time::new(3));
        pool.submit(tx.clone(), Time::new(9));
        assert_eq!(pool.submitted_at(tx.id()), Some(Time::new(3)));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.pending_len(), 1);
        assert_eq!(pool.admission_stats().duplicates, 1);
    }

    #[test]
    fn pending_excludes_included() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let t1 = Transaction::new(vec![1]);
        let t2 = Transaction::new(vec![2]);
        pool.submit(t1.clone(), Time::ZERO);
        pool.submit(t2.clone(), Time::ZERO);
        let log = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![t1.clone()],
        );
        assert_eq!(pool.pending_for(&log, &store), vec![t2.clone()]);
        // But t1 still pending relative to genesis.
        assert_eq!(pool.pending_for(&Log::genesis(&store), &store).len(), 2);
    }

    #[test]
    fn pending_respects_submission_cutoff() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let t1 = Transaction::new(vec![1]);
        pool.submit(t1, Time::new(10));
        let g = Log::genesis(&store);
        assert!(pool.pending_for_at(&g, &store, Time::new(9)).is_empty());
        assert_eq!(pool.pending_for_at(&g, &store, Time::new(10)).len(), 1);
    }

    #[test]
    fn pending_shrinks_along_extensions() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let txs: Vec<Transaction> = (0..5).map(|i| Transaction::new(vec![i])).collect();
        for tx in &txs {
            pool.submit(tx.clone(), Time::ZERO);
        }
        let mut log = Log::genesis(&store);
        for (i, tx) in txs.iter().enumerate() {
            let view = View::new(i as u64 + 1);
            log = log.extend(&store, ValidatorId::new(0), view, vec![tx.clone()]);
            assert_eq!(pool.pending_for(&log, &store), txs[i + 1..]);
        }
    }

    #[test]
    fn prune_confirmed_drops_only_decided_txs() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let confirmed = Transaction::new(vec![1]);
        let pending = Transaction::new(vec![2]);
        pool.submit(confirmed.clone(), Time::new(1));
        pool.submit(pending.clone(), Time::new(2));
        let decided = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![confirmed.clone()],
        );
        pool.prune_confirmed(&decided, &store);

        assert_eq!(pool.pending_len(), 1);
        assert_eq!(pool.len(), 2, "len counts ever-submitted txs");
        // The decided tx's submission time survives for latency lookups.
        assert_eq!(pool.submitted_at(confirmed.id()), Some(Time::new(1)));
        // Resubmitting a pruned tx is still suppressed.
        pool.submit(confirmed.clone(), Time::new(50));
        assert_eq!(pool.pending_len(), 1);
        // The pending tx is still proposable on top of the decided log.
        assert_eq!(pool.pending_for(&decided, &store), vec![pending]);
    }

    #[test]
    fn pending_filter_correct_after_prune_and_further_extension() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let a = Transaction::new(vec![1]);
        let b = Transaction::new(vec![2]);
        let c = Transaction::new(vec![3]);
        for tx in [&a, &b, &c] {
            pool.submit(tx.clone(), Time::ZERO);
        }
        let l1 =
            Log::genesis(&store).extend(&store, ValidatorId::new(0), View::new(1), vec![a]);
        pool.prune_confirmed(&l1, &store);
        // A block beyond the pruned base includes b; only c stays pending.
        let l2 = l1.extend(&store, ValidatorId::new(1), View::new(2), vec![b]);
        assert_eq!(pool.pending_for(&l2, &store), vec![c]);
        pool.prune_confirmed(&l2, &store);
        assert_eq!(pool.pending_len(), 1);
    }

    #[test]
    fn branches_off_and_below_the_pruned_log_filter_their_own_blocks() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let [a, b, c, d] = [1, 2, 3, 4].map(|i| Transaction::new(vec![i]));
        for tx in [&a, &b, &c, &d] {
            pool.submit(tx.clone(), Time::ZERO);
        }
        let g = Log::genesis(&store);
        let base = g.extend(&store, ValidatorId::new(0), View::new(1), vec![a]);
        pool.prune_confirmed(&base, &store);
        // A long chain above the pruned log changes nothing below it.
        let mut log = base;
        for i in 0..50 {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 2));
            assert_eq!(pool.pending_for(&log, &store), [b.clone(), c.clone(), d.clone()]);
        }
        // A branch off the pruned log: its own block is filtered, and
        // the pruned transaction does not resurface.
        let side = base.extend(&store, ValidatorId::new(1), View::new(999), vec![b.clone()]);
        assert_eq!(pool.pending_for(&side, &store), [c.clone(), d.clone()]);
        // A fork below the pruned log holds pending transactions too.
        let fork = g.extend(&store, ValidatorId::new(2), View::new(1), vec![c.clone()]);
        assert_eq!(pool.pending_for(&fork, &store), [b.clone(), d.clone()]);
        let fork = fork.extend(&store, ValidatorId::new(2), View::new(2), vec![d]);
        assert_eq!(pool.pending_for(&fork, &store), [b]);
    }

    #[test]
    fn prune_ignores_a_log_no_longer_than_the_pruned_one() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let [a, b] = [1, 2].map(|i| Transaction::new(vec![i]));
        pool.submit(a.clone(), Time::ZERO);
        pool.submit(b.clone(), Time::ZERO);
        let g = Log::genesis(&store);
        let decided = g.extend(&store, ValidatorId::new(0), View::new(1), vec![a]);
        pool.prune_confirmed(&decided, &store);
        let other = g.extend(&store, ValidatorId::new(1), View::new(1), vec![b.clone()]);
        pool.prune_confirmed(&other, &store);
        assert_eq!(pool.pending_for(&g, &store), [b]);
    }

    #[test]
    fn a_transaction_decided_elsewhere_is_not_admitted_again() {
        let store = BlockStore::new();
        let pool = Mempool::bounded(AdmissionPolicy { capacity: 1, rate_cap: 0, rate_window: 1 });
        // `peer` reached the chain through another node's pool; `shed`
        // was evicted here before a peer's block decided it.
        let [peer, shed, rich] = [1, 2, 3].map(|i| Transaction::new(vec![i]));
        assert!(pool.admit(shed.clone(), Time::ZERO, 0, None).is_accepted());
        assert!(pool.admit(rich, Time::ZERO, 1, None).is_accepted());
        let batch = vec![peer.clone(), shed.clone()];
        let decided = Log::genesis(&store).extend(&store, ValidatorId::new(0), View::new(1), batch);
        pool.prune_confirmed(&decided, &store);
        for tx in [peer, shed] {
            assert_eq!(pool.admit(tx.clone(), Time::new(5), 9, None), Admission::Duplicate);
            assert_eq!(pool.submitted_at(tx.id()), None, "it was never admitted here");
        }
        let next = decided.extend_empty(&store, ValidatorId::new(1), View::new(2));
        assert_eq!(pool.pending_for(&next, &store).len(), 1);
    }

    #[test]
    fn lookup_answers_pending_records_only() {
        let store = BlockStore::new();
        let pool = Mempool::bounded(AdmissionPolicy { capacity: 2, rate_cap: 0, rate_window: 1 });
        let [a, b, c] = [1, 2, 3].map(|i| Transaction::new(vec![i]));
        assert!(pool.admit(a.clone(), Time::ZERO, 1, None).is_accepted());
        assert!(pool.admit(b.clone(), Time::ZERO, 1, None).is_accepted());
        let pooled = pool.lookup(a.id()).expect("pending");
        assert_eq!(pooled.payload().as_ptr(), a.payload().as_ptr(), "the pooled buffer");
        // Evicted (the newest of the lowest fee) and pruned records are gone.
        assert!(pool.admit(c.clone(), Time::ZERO, 2, None).is_accepted());
        assert_eq!(pool.lookup(b.id()), None);
        let decided = Log::genesis(&store).extend(&store, ValidatorId::new(0), View::new(1), vec![a.clone()]);
        pool.prune_confirmed(&decided, &store);
        assert_eq!((pool.lookup(a.id()), pool.lookup(c.id())), (None, Some(c)));
        assert_eq!(pool.pending_len(), 1);
    }

    #[test]
    fn capacity_sheds_low_fee_and_evicts_for_high_fee() {
        let pool = Mempool::bounded(AdmissionPolicy { capacity: 2, rate_cap: 0, rate_window: 1 });
        let a = Transaction::new(vec![1]);
        let b = Transaction::new(vec![2]);
        assert!(pool.admit(a.clone(), Time::ZERO, 5, None).is_accepted());
        assert!(pool.admit(b.clone(), Time::ZERO, 9, None).is_accepted());
        // Lower fee than the weakest (5): shed.
        let low = Transaction::new(vec![3]);
        assert_eq!(pool.admit(low.clone(), Time::new(1), 4, None), Admission::Busy);
        // Equal fee: incumbent wins, newcomer shed.
        assert_eq!(pool.admit(low.clone(), Time::new(1), 5, None), Admission::Busy);
        assert_eq!(pool.pending_len(), 2);
        // Strictly higher fee: weakest (a, fee 5) is displaced.
        let high = Transaction::new(vec![4]);
        let verdict = pool.admit(high.clone(), Time::new(2), 6, None);
        assert_eq!(verdict, Admission::Accepted { evicted: Some(a.id()) });
        assert_eq!(pool.pending_len(), 2);
        // The evicted tx may be resubmitted (not duplicate-suppressed);
        // the pool now holds {b: 9, high: 6}, so the fee-6 entry goes.
        assert_eq!(pool.submitted_at(a.id()), None);
        assert_eq!(pool.admit(a.clone(), Time::new(3), 10, None),
            Admission::Accepted { evicted: Some(high.id()) });
        let stats = pool.admission_stats();
        assert_eq!(stats.busy, 2);
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.pending_peak, 2);
    }

    #[test]
    fn eviction_tie_break_is_newest_of_lowest_fee() {
        let pool = Mempool::bounded(AdmissionPolicy { capacity: 2, rate_cap: 0, rate_window: 1 });
        let older = Transaction::new(vec![1]);
        let newer = Transaction::new(vec![2]);
        pool.admit(older.clone(), Time::ZERO, 3, None);
        pool.admit(newer.clone(), Time::new(1), 3, None);
        // Both pending entries bid fee 3; the *newer* one is displaced.
        let high = Transaction::new(vec![3]);
        assert_eq!(
            pool.admit(high, Time::new(2), 7, None),
            Admission::Accepted { evicted: Some(newer.id()) }
        );
        assert_eq!(pool.submitted_at(older.id()), Some(Time::ZERO));
    }

    #[test]
    fn rate_cap_limits_accepted_submissions_per_window() {
        let pool = Mempool::bounded(AdmissionPolicy {
            capacity: 100,
            rate_cap: 2,
            rate_window: 10,
        });
        let mk = |i: u8| Transaction::new(vec![i]);
        assert!(pool.admit(mk(1), Time::new(0), 0, Some(7)).is_accepted());
        assert!(pool.admit(mk(2), Time::new(3), 0, Some(7)).is_accepted());
        assert_eq!(pool.admit(mk(3), Time::new(4), 0, Some(7)), Admission::RateLimited);
        // A different client is unaffected.
        assert!(pool.admit(mk(4), Time::new(4), 0, Some(8)).is_accepted());
        // The window rolls over at tick 10.
        assert!(pool.admit(mk(5), Time::new(10), 0, Some(7)).is_accepted());
        assert_eq!(pool.admission_stats().rate_limited, 1);
    }

    #[test]
    fn legacy_submit_unaffected_by_default() {
        // Mempool::new() stays unbounded: millions of legacy submissions
        // are admitted verbatim (fixed-seed sim fingerprints depend on
        // this).
        let pool = Mempool::new();
        for i in 0..100_000u64 {
            pool.submit(Transaction::new(i.to_be_bytes().to_vec()), Time::ZERO);
        }
        assert_eq!(pool.pending_len(), 100_000);
        assert_eq!(pool.admission_stats().busy, 0);
    }
}
