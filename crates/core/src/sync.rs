//! Per-validator delta-sync state: block knowledge tracking, the
//! bounded pending-message set, and fetch bookkeeping.
//!
//! Under content-addressed delta sync, protocol messages *reference*
//! chains (tip hash + a one-block inline window on the wire) instead of
//! shipping them. A validator therefore tracks which block ids it
//! *knows* — has received content for, either inline in a message's
//! window, in a `BlockResponse`, or by building the block itself. A
//! message whose referenced chain bottoms out in an unknown block is
//! **parked** in a bounded FIFO pending set and a
//! [`tobsvd_types::Payload::BlockRequest`] is emitted; when the blocks
//! arrive, parked messages are replayed through the normal processing
//! path. This is the same machinery for both worlds the sans-io
//! validator runs in:
//!
//! * in the simulator the [`tobsvd_types::BlockStore`] is shared, so
//!   *content* is always available — the knowledge set models which
//!   bytes actually crossed the (accounted) wire;
//! * under the TCP runtime each node's private store converges through
//!   the very same announcements and fetch responses the knowledge set
//!   tracks.
//!
//! The invariant maintained throughout: **an id enters the known set
//! only when its entire ancestor chain is known** (genesis is known from
//! the start). Resolution of a reference is therefore a single
//! membership test at the base of the inline window, not a chain walk.
//!
//! The pending set is capped at [`SyncState::PENDING_CAP`] with FIFO
//! eviction (like the mempool's inclusion-memo cap), so a Byzantine
//! flood of messages referencing never-resolvable chains cannot grow
//! memory without bound; an evicted message's fetch is cancelled unless
//! another parked message still needs it. Outstanding fetches are
//! retried — re-broadcast to all peers — every
//! [`SyncState::RETRY_AFTER_DELTAS`]·Δ until answered, so a dropped
//! request or response only delays resolution.
//!
//! Two probes run far more often than anything changes — the
//! stabilization audit at every phase boundary, the drain probe after
//! every protocol message — so both are O(1) and kept current at the
//! single honest door into the known set (`learn`): a shadow count of
//! honest insertions gates the audit's full `known ⊆ store` scan (see
//! [`SyncState::audit`]), and a flag records that a parked message's
//! gap was just learned (see [`SyncState::has_resolvable`]). Neither
//! cost depends on how many blocks were ever announced.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tobsvd_types::{wire, BlockId, BlockStore, Log, SignedMessage, Time};

/// Outcome of [`SyncState::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Every referenced block is known (the inline window was absorbed).
    Resolved,
    /// The chain bottoms out in this unknown block below the window.
    Missing(BlockId),
}

#[derive(Clone, Debug)]
struct Parked {
    missing: BlockId,
    msg: SignedMessage,
    since: Time,
}

#[derive(Clone, Copy, Debug)]
struct Inflight {
    last_sent: Time,
}

/// Delta-sync bookkeeping for one validator.
#[derive(Debug)]
pub struct SyncState {
    known: BTreeSet<BlockId>,
    /// Shadow count of the ids the honest paths put into `known`
    /// (genesis, [`SyncState::mark_own`], [`SyncState::resolve`],
    /// [`SyncState::accept_response`]). It equals `known.len()` unless
    /// something else wrote to the set — the O(1) trigger in front of
    /// [`SyncState::audit`]'s full scan.
    honest_known: usize,
    /// Some parked message's missing block may have become known since
    /// the last [`SyncState::take_resolved`]. Never `false` while a
    /// parked message can drain; may stay `true` after an eviction or a
    /// quarantine removed the reason, which costs one empty drain.
    drainable: bool,
    genesis: BlockId,
    pending: VecDeque<Parked>,
    /// Outstanding fetches by missing block id. `BTreeMap` so retry
    /// iteration order is deterministic (verdicts are replayed).
    inflight: BTreeMap<BlockId, Inflight>,
    requests_sent: u64,
    responses_served: u64,
    blocks_fetched: u64,
    parked_total: u64,
    evicted: u64,
    audit_scans: u64,
}

impl SyncState {
    /// Maximum parked messages held at once; older entries are evicted
    /// FIFO (a Byzantine hash flood displaces, never grows).
    pub const PENDING_CAP: usize = 128;

    /// An unanswered fetch is re-broadcast after this many Δ.
    pub const RETRY_AFTER_DELTAS: u64 = 2;

    /// Cap on archived messages re-sent per §2 `RECOVERY` request
    /// served (block content beyond them moves over the fetch plane).
    pub const RECOVERY_RESPONSE_CAP: usize = 1024;

    /// Fresh state: only genesis is known.
    pub fn new(store: &BlockStore) -> Self {
        let genesis = store.genesis();
        let mut known = BTreeSet::new();
        known.insert(genesis);
        SyncState {
            known,
            honest_known: 1,
            drainable: false,
            genesis,
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            requests_sent: 0,
            responses_served: 0,
            blocks_fetched: 0,
            parked_total: 0,
            evicted: 0,
            audit_scans: 0,
        }
    }

    /// The one honest door into `known`: counts the insertion, settles
    /// the fetch for `id`, and notes whether a parked message waits on
    /// it. Returns whether `id` is newly known.
    fn learn(&mut self, id: BlockId) -> bool {
        self.inflight.remove(&id);
        let newly = self.known.insert(id);
        if newly {
            self.honest_known += 1;
            self.note_if_awaited(id);
        }
        newly
    }

    fn note_if_awaited(&mut self, id: BlockId) {
        if self.pending.iter().any(|p| p.missing == id) {
            self.drainable = true;
        }
    }

    /// Whether this validator knows the content of `id`.
    pub fn knows(&self, id: BlockId) -> bool {
        id == self.genesis || self.known.contains(&id)
    }

    /// Marks a locally-built block (own proposal extension) as known.
    pub fn mark_own(&mut self, id: BlockId) {
        self.learn(id);
    }

    /// Whether any parked message's missing block has since become
    /// known (O(1) probe before draining, run after every protocol
    /// message).
    pub fn has_resolvable(&self) -> bool {
        self.drainable
    }

    /// Resolves a log reference against the knowledge set, absorbing the
    /// message's inline window ([`wire::INLINE_WINDOW`] newest blocks)
    /// on success.
    pub fn resolve(&mut self, log: &Log, store: &BlockStore) -> Resolution {
        let len = log.len();
        let k = (len - 1).min(wire::INLINE_WINDOW);
        let base_height = len - 1 - k;
        let base = match store.ancestor_at(log.tip(), base_height) {
            Some(id) => id,
            // The reference does not resolve in the local store at all
            // (runtime decode normally prevents this): everything below
            // the tip is missing.
            None => return Resolution::Missing(log.tip()),
        };
        if !self.knows(base) {
            return Resolution::Missing(base);
        }
        // Absorb the window, newest-last so the chain-known invariant
        // holds at every insertion. A block learned this way needs no
        // outstanding fetch anymore.
        if k > 0 {
            if let Some(ids) = store.chain_range(log.tip(), base_height + 1) {
                for id in ids {
                    self.learn(id);
                }
            }
        }
        Resolution::Resolved
    }

    /// Start height for a fetch of the chain ending at `missing`: one
    /// above the nearest known ancestor (full resync when the walk
    /// leaves the local store).
    pub fn fetch_start(&self, missing: BlockId, store: &BlockStore) -> u64 {
        let mut cur = missing;
        loop {
            if self.knows(cur) {
                return store.height(cur).map_or(1, |h| h + 1);
            }
            match store.get(cur) {
                Some(block) => cur = block.parent(),
                None => return 1,
            }
        }
    }

    /// Parks `msg` until `missing` becomes known. Deduplicates by
    /// message id; enforces the FIFO cap. Returns whether the fetch for
    /// `missing` still needs to be issued (not already in flight).
    pub fn park(&mut self, missing: BlockId, msg: SignedMessage, now: Time) -> bool {
        if !self.pending.iter().any(|p| p.msg.id() == msg.id()) {
            self.pending.push_back(Parked { missing, msg, since: now });
            self.parked_total += 1;
            if self.knows(missing) {
                self.drainable = true;
            }
            while self.pending.len() > Self::PENDING_CAP {
                // `len > CAP ≥ 0` implies non-empty today, but eviction
                // must never be a panic path: a refactor of the cap (or
                // a CAP of 0) degrades to "stop evicting", not a crash.
                let Some(evicted) = self.pending.pop_front() else {
                    break;
                };
                self.evicted += 1;
                // Cancel the orphaned fetch unless another parked
                // message still waits on the same block.
                if !self.pending.iter().any(|p| p.missing == evicted.missing) {
                    self.inflight.remove(&evicted.missing);
                }
            }
        }
        !self.inflight.contains_key(&missing)
    }

    /// Whether a fetch for `missing` still needs to be issued (none in
    /// flight yet) — the anchor-fetch fallback's gate.
    pub fn should_fetch(&self, missing: BlockId) -> bool {
        !self.inflight.contains_key(&missing)
    }

    /// Records that a fetch for `missing` was sent at `now`.
    pub fn note_requested(&mut self, missing: BlockId, now: Time) {
        self.requests_sent += 1;
        self.inflight.insert(missing, Inflight { last_sent: now });
    }

    /// Records a served fetch response.
    pub fn note_served(&mut self) {
        self.responses_served += 1;
    }

    /// Absorbs a `BlockResponse` covering `[from_height, height(tip)]`.
    /// Ignored (returns 0) unless the block below the range is already
    /// known — the chain-known invariant is never weakened by an
    /// unsolicited or misaligned response. Returns newly-known blocks.
    pub fn accept_response(&mut self, tip: BlockId, from_height: u64, store: &BlockStore) -> u64 {
        if from_height == 0 {
            return 0;
        }
        let Some(anchor) = store.ancestor_at(tip, from_height - 1) else {
            return 0;
        };
        if !self.knows(anchor) {
            return 0;
        }
        let Some(ids) = store.chain_range(tip, from_height) else {
            return 0;
        };
        let mut newly = 0;
        for id in ids {
            newly += u64::from(self.learn(id));
        }
        self.blocks_fetched += newly;
        newly
    }

    /// Drains parked messages whose missing block is now known, in
    /// arrival order, for replay through the normal processing path.
    pub fn take_resolved(&mut self) -> Vec<SignedMessage> {
        self.drainable = false;
        let mut out = Vec::new();
        let mut kept = VecDeque::with_capacity(self.pending.len());
        while let Some(p) = self.pending.pop_front() {
            if self.knows(p.missing) {
                out.push(p.msg);
            } else {
                kept.push_back(p);
            }
        }
        self.pending = kept;
        out
    }

    /// Outstanding fetches not answered within the retry window,
    /// stamped as re-sent at `now`. Deterministic order (by block id).
    pub fn stale_requests(&mut self, now: Time, retry_after: u64) -> Vec<BlockId> {
        let mut stale = Vec::new();
        for (id, inflight) in self.inflight.iter_mut() {
            // Checked: a deadline past the end of time (Δ near
            // u64::MAX) means "never stale", not a wrap into the past.
            let deadline = inflight.last_sent.ticks().checked_add(retry_after);
            if deadline.is_some_and(|d| d <= now.ticks()) {
                inflight.last_sent = now;
                stale.push(*id);
            }
        }
        // Re-sent requests count as requests.
        self.requests_sent += stale.len() as u64;
        stale
    }

    /// Number of currently parked messages.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Arrival time of the oldest still-parked message.
    pub fn oldest_pending_since(&self) -> Option<Time> {
        self.pending.iter().map(|p| p.since).min()
    }

    /// Fetch requests sent (including retries).
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Fetch responses served to peers.
    pub fn responses_served(&self) -> u64 {
        self.responses_served
    }

    /// Blocks learned through fetch responses.
    pub fn blocks_fetched(&self) -> u64 {
        self.blocks_fetched
    }

    /// Messages ever parked.
    pub fn parked_total(&self) -> u64 {
        self.parked_total
    }

    /// Parked messages evicted by the FIFO cap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Full `known ⊆ store` scans [`SyncState::audit`] actually ran —
    /// zero unless something bypassed the honest insertion paths.
    pub fn audit_scans(&self) -> u64 {
        self.audit_scans
    }

    /// Fault injection: forces a raw id into the knowledge set,
    /// breaking the chain-known invariant (the id's content and
    /// ancestry need not exist anywhere). Exists only for the
    /// stabilization plane's state-corruption experiments.
    pub fn poison_known(&mut self, id: BlockId) {
        if self.known.insert(id) {
            self.note_if_awaited(id);
        }
    }

    /// Fault injection: total delta-sync amnesia — all block knowledge
    /// (except genesis), parked messages and in-flight fetches are
    /// erased, as if the sync plane's memory arena was wiped.
    pub fn forget_all(&mut self) {
        self.known.clear();
        self.known.insert(self.genesis);
        // The shadow count sits in the same arena and is wiped with it
        // (not re-seeded for genesis): the next audit runs one full
        // scan, and ids forged on top of the wipe cannot cancel it out.
        self.honest_known = 0;
        self.pending.clear();
        self.drainable = false;
        self.inflight.clear();
    }

    /// Stabilization audit: re-establishes the structural invariants a
    /// [`SyncState::poison_known`]-shaped corruption can break and
    /// returns how many anomalies were repaired. Runs at every phase
    /// boundary, so its cost must not depend on the horizon.
    ///
    /// * Every known id (except genesis) must have its content in the
    ///   store — honest ids enter `known` only via store-backed
    ///   resolution, so an absent body is corruption; the id is
    ///   quarantined (dropped) and, if truly needed, re-learned through
    ///   the ordinary fetch path. The scan over `known` (one store
    ///   lookup per block ever announced) sits behind an O(1) trigger:
    ///   it runs only when `known.len()` disagrees with the shadow
    ///   count of honest insertions, i.e. when something other than the
    ///   honest paths wrote to the set, and re-syncs the count.
    /// * No in-flight fetch may target an already-known id (the honest
    ///   paths clear these on resolution). Checked every time: the
    ///   in-flight map holds outstanding fetches only.
    ///
    /// The chain-known invariant is restored transitively: a poisoned
    /// id with no store body is dropped here, and any id whose ancestry
    /// ran through it could only have entered `known` via the same
    /// corruption, so it too fails the store check.
    ///
    /// The trigger sees every corruption that changes how many ids are
    /// known without going through the honest paths — forged ids and
    /// wiped knowledge, the two shapes the `StateFault` vocabulary has.
    /// It does not see a forged id that was already known (a no-op), a
    /// corruption that forges exactly as many ids as it drops, or a
    /// store that loses the body of an honestly learned id; none of
    /// those is in the fault model.
    pub fn audit(&mut self, store: &BlockStore) -> u64 {
        let mut repaired = 0u64;
        if self.known.len() != self.honest_known {
            self.audit_scans += 1;
            let genesis = self.genesis;
            let before = self.known.len();
            self.known.retain(|id| *id == genesis || store.contains(*id));
            repaired += (before - self.known.len()) as u64;
            self.honest_known = self.known.len();
        }
        let known = &self.known;
        let before = self.inflight.len();
        self.inflight.retain(|id, _| !known.contains(id));
        repaired += (before - self.inflight.len()) as u64;
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{InstanceId, Payload, Transaction, ValidatorId, View};

    fn msg_with_log(_store: &BlockStore, sender: u32, instance: u64, log: Log) -> SignedMessage {
        let v = ValidatorId::new(sender);
        let kp = Keypair::from_seed(v.key_seed());
        SignedMessage::sign(&kp, v, Payload::Log { instance: InstanceId(instance), log })
    }

    fn chain(store: &BlockStore, blocks: u64) -> Log {
        let mut log = Log::genesis(store);
        for i in 0..blocks {
            log = log.extend(
                store,
                ValidatorId::new(0),
                View::new(i + 1),
                vec![Transaction::synthetic(i, 16)],
            );
        }
        log
    }

    #[test]
    fn genesis_is_known_and_single_extensions_resolve() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l1 = chain(&store, 1);
        assert_eq!(sync.resolve(&l1, &store), Resolution::Resolved);
        assert!(sync.knows(l1.tip()));
        // The next extension now resolves too (its base is l1's tip).
        let l2 = l1.extend_empty(&store, ValidatorId::new(1), View::new(2));
        assert_eq!(sync.resolve(&l2, &store), Resolution::Resolved);
    }

    #[test]
    fn gap_below_window_reports_missing_base() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        let base = store.ancestor_at(l3.tip(), 3 - wire::INLINE_WINDOW).unwrap();
        assert_eq!(sync.resolve(&l3, &store), Resolution::Missing(base));
        // Not even the window was absorbed.
        assert!(!sync.knows(l3.tip()));
    }

    #[test]
    fn response_fills_gap_and_releases_parked_messages() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        let Resolution::Missing(base) = sync.resolve(&l3, &store) else {
            panic!("expected a gap");
        };
        let m = msg_with_log(&store, 1, 7, l3);
        assert!(sync.park(base, m, Time::new(5)), "first park triggers a fetch");
        sync.note_requested(base, Time::new(5));
        assert!(!sync.park(base, m, Time::new(6)), "duplicate park does not re-fetch");
        assert_eq!(sync.pending_len(), 1, "parking dedups by message id");

        // A response anchored at genesis covering heights 1..=2.
        let newly = sync.accept_response(base, 1, &store);
        assert_eq!(newly, 2);
        let released = sync.take_resolved();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].id(), m.id());
        assert_eq!(sync.pending_len(), 0);
        // Replay now resolves.
        assert_eq!(sync.resolve(&l3, &store), Resolution::Resolved);
    }

    #[test]
    fn misaligned_response_is_ignored() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        // Anchor at height 1 is unknown: the response must not be
        // absorbed (would break the chain-known invariant).
        assert_eq!(sync.accept_response(l3.tip(), 2, &store), 0);
        assert!(!sync.knows(l3.tip()));
    }

    #[test]
    fn pending_set_is_capped_with_fifo_eviction() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        // A hostile flood: many distinct 3-block forks, none resolvable.
        let genesis = Log::genesis(&store);
        let mut first_missing = None;
        for i in 0..(SyncState::PENDING_CAP as u64 + 40) {
            let fork = genesis
                .extend(&store, ValidatorId::new(2), View::new(1), vec![Transaction::synthetic(i, 8)])
                .extend_empty(&store, ValidatorId::new(2), View::new(2))
                .extend_empty(&store, ValidatorId::new(2), View::new(3));
            let Resolution::Missing(base) = sync.resolve(&fork, &store) else {
                panic!("fork must not resolve");
            };
            let m = msg_with_log(&store, 2, i, fork);
            if sync.park(base, m, Time::new(i)) {
                sync.note_requested(base, Time::new(i));
            }
            first_missing.get_or_insert(base);
        }
        assert_eq!(sync.pending_len(), SyncState::PENDING_CAP);
        assert_eq!(sync.evicted(), 40);
        // The evicted entries' fetches were cancelled.
        assert!(
            !sync.stale_requests(Time::new(10_000), 1).contains(&first_missing.unwrap()),
            "evicted message's fetch must be cancelled"
        );
    }

    /// Regression (issue 6): filling the pending set to exactly the cap
    /// evicts nothing, and one message past the cap evicts exactly the
    /// oldest entry — gracefully, never through a panic path.
    #[test]
    fn cap_boundary_exact_then_one_past() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let genesis = Log::genesis(&store);
        let park_fork = |sync: &mut SyncState, i: u64| {
            let fork = genesis
                .extend(&store, ValidatorId::new(2), View::new(1), vec![Transaction::synthetic(i, 8)])
                .extend_empty(&store, ValidatorId::new(2), View::new(2))
                .extend_empty(&store, ValidatorId::new(2), View::new(3));
            let Resolution::Missing(base) = sync.resolve(&fork, &store) else {
                panic!("fork must not resolve");
            };
            let m = msg_with_log(&store, 2, i, fork);
            sync.park(base, m, Time::new(i));
            (m.id(), base)
        };

        let mut first = None;
        for i in 0..SyncState::PENDING_CAP as u64 {
            let entry = park_fork(&mut sync, i);
            first.get_or_insert(entry);
        }
        // Exactly at the cap: everything retained.
        assert_eq!(sync.pending_len(), SyncState::PENDING_CAP);
        assert_eq!(sync.evicted(), 0);

        // One past the cap: the oldest entry (and only it) goes.
        park_fork(&mut sync, SyncState::PENDING_CAP as u64);
        assert_eq!(sync.pending_len(), SyncState::PENDING_CAP);
        assert_eq!(sync.evicted(), 1);
        let (first_id, first_missing) = first.unwrap();
        assert!(
            !sync.take_resolved().iter().any(|m| m.id() == first_id),
            "evicted message must not be replayable"
        );
        assert!(
            sync.should_fetch(first_missing),
            "evicted message's orphaned fetch must be cancelled"
        );
    }

    /// Regression (issue 6): a retry window near `u64::MAX` must mean
    /// "never stale", not a wrapping add that fires the retry instantly.
    #[test]
    fn huge_retry_window_never_goes_stale() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        let Resolution::Missing(base) = sync.resolve(&l3, &store) else {
            panic!()
        };
        sync.park(base, msg_with_log(&store, 1, 1, l3), Time::new(u64::MAX - 4));
        sync.note_requested(base, Time::new(u64::MAX - 4));
        assert!(
            sync.stale_requests(Time::new(u64::MAX), u64::MAX).is_empty(),
            "saturating deadline must not wrap into the past"
        );
        // A finite window elapsing at the edge of time still retries.
        assert_eq!(sync.stale_requests(Time::new(u64::MAX), 4), vec![base]);
    }

    #[test]
    fn stale_requests_retry_then_back_off_until_window_passes() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        let Resolution::Missing(base) = sync.resolve(&l3, &store) else {
            panic!()
        };
        sync.park(base, msg_with_log(&store, 1, 1, l3), Time::new(0));
        sync.note_requested(base, Time::new(0));
        assert!(sync.stale_requests(Time::new(1), 8).is_empty(), "not stale yet");
        assert_eq!(sync.stale_requests(Time::new(8), 8), vec![base]);
        assert!(sync.stale_requests(Time::new(9), 8).is_empty(), "stamp was refreshed");
        assert_eq!(sync.stale_requests(Time::new(16), 8), vec![base]);
    }

    fn garbage(i: u8) -> BlockId {
        BlockId(tobsvd_crypto::Digest::from_bytes([i; 32]))
    }

    #[test]
    fn audit_scans_only_when_the_shadow_count_disagrees() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        sync.mark_own(l3.prefix(2, &store).unwrap().tip());
        assert_eq!(sync.resolve(&l3.prefix(3, &store).unwrap(), &store), Resolution::Resolved);
        assert_eq!(sync.accept_response(l3.tip(), 3, &store), 1);
        // Re-learning known ids is not double-counted.
        sync.mark_own(l3.tip());
        assert_eq!((sync.audit(&store), sync.audit_scans()), (0, 0));

        // Forged ids bypass the count: one scan, exact repair count,
        // and the count is re-synced so the next pass is O(1) again.
        sync.poison_known(garbage(1));
        sync.poison_known(garbage(2));
        assert_eq!((sync.audit(&store), sync.audit_scans()), (2, 1));
        assert!(sync.knows(l3.tip()), "honest knowledge survives the quarantine");
        assert_eq!((sync.audit(&store), sync.audit_scans()), (0, 1));

        // A wipe trips the scan too (nothing in `known` to repair), and
        // forging as many ids as were wiped cannot cancel it out.
        sync.forget_all();
        for i in 0..3 {
            sync.poison_known(garbage(10 + i));
        }
        assert_eq!((sync.audit(&store), sync.audit_scans()), (3, 2));
        assert_eq!((sync.audit(&store), sync.audit_scans()), (0, 2));
    }

    #[test]
    fn audit_clears_fetches_that_target_forged_known_ids() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l1 = chain(&store, 1);
        sync.note_requested(l1.tip(), Time::new(1));
        // The id exists in the store, so the scan keeps it; the fetch
        // for it is the anomaly.
        sync.poison_known(l1.tip());
        assert_eq!(sync.audit(&store), 1);
        assert!(sync.should_fetch(l1.tip()));
    }

    /// The O(1) probe never misses a drainable message: it agrees with
    /// the per-message scan it replaced at every step of a
    /// park / learn / drain / wipe sequence.
    #[test]
    fn has_resolvable_flag_matches_the_pending_scan() {
        fn scan(sync: &SyncState) -> bool {
            sync.pending.iter().any(|p| sync.knows(p.missing))
        }
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l4 = chain(&store, 4);
        let Resolution::Missing(base) = sync.resolve(&l4, &store) else {
            panic!("expected a gap");
        };
        sync.park(base, msg_with_log(&store, 1, 4, l4), Time::new(1));
        assert_eq!((sync.has_resolvable(), scan(&sync)), (false, false));

        // Learning an unrelated block does not arm the probe…
        let side = Log::genesis(&store).extend_empty(&store, ValidatorId::new(3), View::new(9));
        sync.mark_own(side.tip());
        assert_eq!((sync.has_resolvable(), scan(&sync)), (false, false));
        // …learning the awaited one does, …
        assert_eq!(sync.accept_response(base, 1, &store), 3);
        assert_eq!((sync.has_resolvable(), scan(&sync)), (true, true));
        // …and draining disarms it.
        assert_eq!(sync.take_resolved().len(), 1);
        assert_eq!((sync.has_resolvable(), scan(&sync)), (false, false));

        // Parking on an already-known block is drainable at once.
        sync.park(base, msg_with_log(&store, 2, 4, l4), Time::new(2));
        assert_eq!((sync.has_resolvable(), scan(&sync)), (true, true));
        sync.forget_all();
        assert_eq!((sync.has_resolvable(), scan(&sync)), (false, false));

        // A forged id that a parked message waits on arms it as well.
        let Resolution::Missing(base) = sync.resolve(&l4, &store) else {
            panic!("knowledge was wiped");
        };
        sync.park(base, msg_with_log(&store, 1, 4, l4), Time::new(3));
        sync.poison_known(base);
        assert_eq!((sync.has_resolvable(), scan(&sync)), (true, true));
    }

    #[test]
    fn fetch_start_is_one_above_nearest_known_ancestor() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l2 = chain(&store, 2);
        assert_eq!(sync.resolve(&l2.prefix(2, &store).unwrap(), &store), Resolution::Resolved);
        let l5 = {
            let mut log = l2;
            for i in 2..5u64 {
                log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 1));
            }
            log
        };
        let Resolution::Missing(base) = sync.resolve(&l5, &store) else {
            panic!()
        };
        // Knows height 1 (and genesis); missing 2..=3 below the window.
        assert_eq!(sync.fetch_start(base, &store), 2);
    }
}
