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
//! Two mechanisms keep memory bounded over million-tick sweeps:
//!
//! * [`Mempool::prune_confirmed`] drops the full records (payloads) of
//!   transactions confirmed in the common decided prefix — the engine
//!   calls it whenever the decision observer's anchor grows. Only the
//!   `TxId → submission time` index survives pruning, so duplicate
//!   suppression and latency lookups keep working.
//! * The per-block inclusion memo is FIFO-capped at
//!   [`Mempool::INCLUSION_MEMO_CAP`] entries and reset to a fresh base
//!   at the decided tip on every prune. The base entry itself is exempt
//!   from eviction — admission-driven *pool* eviction never touches the
//!   memo, so the decided-anchor base survives any admission churn —
//!   and inclusion walks always stop there: memo entry count is bounded
//!   by the cap, and memoized sets only grow with the chain *beyond the
//!   last decided prefix*, not with the whole chain.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use tobsvd_types::{BlockId, BlockStore, Log, Time, Transaction, TxId};

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

#[derive(Debug, Default)]
struct Inner {
    /// Pending pool keyed by submission sequence number (iteration in
    /// key order is submission order); pruned as the decided prefix
    /// advances, evicted under admission pressure.
    pool: BTreeMap<u64, TxRecord>,
    /// Pending ids → their sequence number.
    pending: BTreeMap<TxId, u64>,
    /// Priority index: (fee, seq). The weakest entry is the lowest fee
    /// with the highest seq — deterministic eviction order.
    priority: BTreeSet<(u64, u64)>,
    /// Next submission sequence number.
    next_seq: u64,
    /// Submission time of every transaction ever admitted (ids only —
    /// retained after pruning for duplicate suppression and latency
    /// lookups; *removed* on eviction so clients can resubmit).
    submitted: BTreeMap<TxId, Time>,
    /// Per-client rate-cap windows: client → (window index, accepted).
    rate: BTreeMap<u64, (u64, u32)>,
    /// Admission counters.
    stats: AdmissionStats,
    /// Memoized set of tx ids included on the chain ending at each block.
    inclusion: BTreeMap<BlockId, Arc<BTreeSet<TxId>>>,
    /// Memo insertion order, for FIFO eviction.
    inclusion_order: VecDeque<BlockId>,
}

impl Inner {
    fn memoize(&mut self, id: BlockId, set: Arc<BTreeSet<TxId>>) {
        if self.inclusion.insert(id, set).is_none() {
            self.inclusion_order.push_back(id);
        }
        // Evict FIFO from the queue only; the prune base is never queued
        // (see `memoize_base`), so it survives any amount of memo churn —
        // evicting it would silently reopen the walk-to-genesis recompute
        // path the base exists to close.
        while self.inclusion.len() > Mempool::INCLUSION_MEMO_CAP {
            if let Some(old) = self.inclusion_order.pop_front() {
                self.inclusion.remove(&old);
            } else {
                break;
            }
        }
    }

    /// Installs an eviction-exempt memo entry (the post-prune base).
    fn memoize_base(&mut self, id: BlockId, set: Arc<BTreeSet<TxId>>) {
        self.inclusion.insert(id, set);
    }

    /// Removes one pending record by sequence number (eviction path).
    fn evict_seq(&mut self, seq: u64) -> Option<TxId> {
        let rec = self.pool.remove(&seq)?;
        let id = rec.tx.id();
        self.pending.remove(&id);
        self.priority.remove(&(rec.fee, seq));
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
        self.submitted.insert(id, now);
        self.pending.insert(id, seq);
        self.priority.insert((fee, seq));
        self.pool.insert(seq, TxRecord { tx, submitted_at: now, fee });
        self.stats.accepted += 1;
        self.stats.pending_peak = self.stats.pending_peak.max(self.pool.len() as u64);
    }
}

/// Shared transaction pool with submission-time tracking, bounded
/// admission, and an inclusion index for efficient "not already
/// included" filtering.
///
/// ```
/// use tobsvd_sim::{Admission, AdmissionPolicy, Mempool};
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
    /// Maximum number of memoized inclusion sets kept at once. Old
    /// entries are evicted FIFO — except the post-prune base entry,
    /// which walks must be able to stop at; evicted blocks are simply
    /// recomputed by walking to the nearest still-memoized ancestor.
    pub const INCLUSION_MEMO_CAP: usize = 1024;

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
        if inner.submitted.contains_key(&id) {
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
        self.inner.lock().submitted.get(&id).copied()
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

    /// Number of memoized inclusion sets currently held.
    pub fn inclusion_memo_len(&self) -> usize {
        self.inner.lock().inclusion.len()
    }

    /// Whether the pool has never seen a transaction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pooled transactions submitted at or before `now` that are not
    /// already included in `log` — the batch an honest proposer puts in
    /// its next block (in submission order).
    pub fn pending_for_at(&self, log: &Log, store: &BlockStore, now: Time) -> Vec<Transaction> {
        let included = self.included_set(log.tip(), store);
        let inner = self.inner.lock();
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
    /// with — the engine passes the observer's anchor), and resets the
    /// inclusion memo to an empty base at `decided.tip()`.
    ///
    /// After the reset, memoized sets only track transactions beyond the
    /// pruned prefix. That is sufficient: `pending_for` consults the
    /// memo solely for membership of still-pending ids, and anything in
    /// the pruned prefix has just left the pool for good.
    pub fn prune_confirmed(&self, decided: &Log, store: &BlockStore) {
        let included = self.included_set(decided.tip(), store);
        let mut inner = self.inner.lock();
        let confirmed: Vec<(u64, TxId, u64)> = inner
            .pool
            .iter()
            .filter(|(_, r)| included.contains(&r.tx.id()))
            .map(|(seq, r)| (*seq, r.tx.id(), r.fee))
            .collect();
        for (seq, id, fee) in confirmed {
            // Unlike eviction, pruning keeps the `submitted` entry:
            // confirmed txs stay duplicate-suppressed and latency-
            // resolvable.
            self_remove(&mut inner, seq, id, fee);
        }
        inner.inclusion.clear();
        inner.inclusion_order.clear();
        inner.memoize_base(decided.tip(), Arc::new(BTreeSet::new()));
    }

    /// The set of tx ids included on the chain ending at `tip`, memoized
    /// per block so repeated queries stay cheap as the chain grows.
    ///
    /// After a [`Mempool::prune_confirmed`] the sets are relative to the
    /// pruned base block (they omit its, already unpoolable, prefix).
    pub fn included_set(&self, tip: BlockId, store: &BlockStore) -> Arc<BTreeSet<TxId>> {
        let mut inner = self.inner.lock();
        if let Some(set) = inner.inclusion.get(&tip) {
            return Arc::clone(set);
        }
        // Walk down to the nearest memoized ancestor, then build back up.
        let mut stack = Vec::new();
        let mut cur = tip;
        let base = loop {
            if let Some(set) = inner.inclusion.get(&cur) {
                break Arc::clone(set);
            }
            let block = match store.get(cur) {
                Some(b) => b,
                None => break Arc::new(BTreeSet::new()),
            };
            stack.push(Arc::clone(&block));
            if block.is_genesis() {
                break Arc::new(BTreeSet::new());
            }
            cur = block.parent();
        };
        let mut acc = base;
        while let Some(block) = stack.pop() {
            let mut set: BTreeSet<TxId> = (*acc).clone();
            set.extend(block.txs().iter().map(|t| t.id()));
            acc = Arc::new(set);
            inner.memoize(block.id(), Arc::clone(&acc));
        }
        acc
    }
}

/// Removes one pending record while keeping the `submitted` index (the
/// prune path — confirmed txs remain duplicate-suppressed).
fn self_remove(inner: &mut Inner, seq: u64, id: TxId, fee: u64) {
    inner.pool.remove(&seq);
    inner.pending.remove(&id);
    inner.priority.remove(&(fee, seq));
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
    fn inclusion_memoization_consistent_across_extensions() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let txs: Vec<Transaction> = (0..5).map(|i| Transaction::new(vec![i])).collect();
        for tx in &txs {
            pool.submit(tx.clone(), Time::ZERO);
        }
        let mut log = Log::genesis(&store);
        for (i, tx) in txs.iter().enumerate() {
            log = log.extend(&store, ValidatorId::new(0), View::new(i as u64 + 1), vec![tx.clone()]);
            let included = pool.included_set(log.tip(), &store);
            assert_eq!(included.len(), i + 1);
        }
        assert!(pool.pending_for(&log, &store).is_empty());
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
    fn inclusion_memo_is_capped() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let mut log = Log::genesis(&store);
        for i in 0..(Mempool::INCLUSION_MEMO_CAP + 50) {
            let tx = Transaction::new(i.to_be_bytes().to_vec());
            pool.submit(tx.clone(), Time::ZERO);
            log = log.extend(&store, ValidatorId::new(0), View::new(i as u64 + 1), vec![tx]);
            let _ = pool.included_set(log.tip(), &store);
        }
        assert!(pool.inclusion_memo_len() <= Mempool::INCLUSION_MEMO_CAP);
        // Evicted entries are recomputed correctly on demand.
        let included = pool.included_set(log.tip(), &store);
        assert_eq!(included.len(), Mempool::INCLUSION_MEMO_CAP + 50);
    }

    #[test]
    fn prune_base_survives_memo_churn() {
        // Regression: the post-prune base must be exempt from FIFO
        // eviction. If it were evicted, later walks would fall through
        // to genesis and rebuild *absolute* sets (containing pruned
        // txs) — observable below as tx_a reappearing in the memo.
        let store = BlockStore::new();
        let pool = Mempool::new();
        let tx_a = Transaction::new(vec![0xa]);
        pool.submit(tx_a.clone(), Time::ZERO);
        let base = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![tx_a.clone()],
        );
        pool.prune_confirmed(&base, &store);
        // Churn far past the cap so FIFO eviction runs many times.
        let mut log = base;
        for i in 0..(Mempool::INCLUSION_MEMO_CAP as u64 + 50) {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 2));
            let _ = pool.included_set(log.tip(), &store);
        }
        assert!(pool.inclusion_memo_len() <= Mempool::INCLUSION_MEMO_CAP);
        // A fresh branch off the base still resolves relative to it:
        // the pruned tx must NOT resurface in its inclusion set.
        let tx_b = Transaction::new(vec![0xb]);
        pool.submit(tx_b.clone(), Time::ZERO);
        let side = base.extend(&store, ValidatorId::new(1), View::new(9999), vec![tx_b.clone()]);
        let included = pool.included_set(side.tip(), &store);
        assert!(included.contains(&tx_b.id()));
        assert!(
            !included.contains(&tx_a.id()),
            "base was evicted: walk fell through to genesis and rebuilt an absolute set"
        );
    }

    #[test]
    fn prune_resets_memo_to_single_base() {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let tx = Transaction::new(vec![9]);
        pool.submit(tx.clone(), Time::ZERO);
        let mut log = Log::genesis(&store);
        for i in 0..10 {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 1));
            let _ = pool.included_set(log.tip(), &store);
        }
        assert!(pool.inclusion_memo_len() >= 10);
        pool.prune_confirmed(&log, &store);
        assert_eq!(pool.inclusion_memo_len(), 1);
        // The base is empty and the pending tx still proposable.
        assert_eq!(pool.pending_for(&log, &store), vec![tx]);
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
