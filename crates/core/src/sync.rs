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
//!   tracks. A frame that cannot even be decoded yet
//!   ([`wire::WireError::MissingBlocks`]: its chain does not link into
//!   the private store, so no `Log` exists for it) waits here too, as a
//!   [`Pending::Frame`] whose fetch asks from the codec's start hint —
//!   the one place anything waits for blocks.
//!
//! The invariant maintained throughout: **an id enters the known set
//! only when its entire ancestor chain is known** (genesis is known from
//! the start). Resolution of a reference is therefore never a chain
//! walk: a known tip resolves with one membership probe (its ancestry,
//! window included, is known already — the steady state, where the tip
//! arrived over another path first), and an unknown tip needs a single
//! membership test at the base of the inline window. The known set is
//! one bit per stored block, addressed by the block's dense index: a
//! probe is one [`BlockStore::locate`] plus a bit test, so neither probe
//! grows with the blocks ever announced, and knowledge costs one bit per
//! (validator, stored block). The lookup also names the block's parent,
//! so each step of the window walk is one lookup too, and a recently
//! stored block (the common tip) is found in the store's table of recent
//! blocks without hashing its id. An id with no stored block enters only
//! through fault injection ([`SyncState::poison_known`]) and sits in a
//! small ordered side set.
//!
//! The pending set is capped at [`SyncState::PENDING_CAP`] with FIFO
//! eviction, so a Byzantine flood of messages referencing
//! never-resolvable chains cannot grow memory without bound; an evicted
//! message's fetch is cancelled unless another parked message still
//! needs it. Outstanding fetches are retried — re-broadcast to all
//! peers — every
//! [`SyncState::RETRY_AFTER_DELTAS`]·Δ until answered, so a dropped
//! request or response only delays resolution.
//!
//! Two probes run far more often than anything changes — the
//! stabilization audit at every phase boundary, the drain probe after
//! every protocol message — so both are O(1) and kept current at the
//! single honest door into the known set (`learn`): a shadow count of
//! honest insertions gates the audit's `known ⊆ store` scan of the side
//! set (see [`SyncState::audit`]), and a flag records that a parked
//! message's gap was just learned (see [`SyncState::has_resolvable`]).
//! Neither cost depends on how many blocks were ever announced.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use tobsvd_types::{wire, BlockId, BlockStore, Delivered, Log, SignedMessage, Time};

/// Outcome of [`SyncState::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Every referenced block is known (the inline window was absorbed).
    Resolved,
    /// The chain bottoms out in this unknown block below the window.
    Missing(BlockId),
}

/// What waits in the pending set for a missing block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pending {
    /// A decoded message whose chain this validator cannot vouch for:
    /// the handle it was delivered under, so parking copies nothing.
    Msg(Arc<Delivered>),
    /// A peer frame that does not decode against the local store yet
    /// ([`wire::WireError::MissingBlocks`]); its fetch carries the
    /// codec's start hint. The one copy of a peer frame the node
    /// makes, out of its session buffer.
    Frame(Vec<u8>),
}

impl From<Arc<Delivered>> for Pending {
    fn from(msg: Arc<Delivered>) -> Self {
        Pending::Msg(msg)
    }
}

impl From<SignedMessage> for Pending {
    fn from(msg: SignedMessage) -> Self {
        Pending::Msg(msg.into())
    }
}

#[derive(Clone, Debug)]
struct Parked {
    missing: BlockId,
    entry: Pending,
    since: Time,
}

#[derive(Clone, Copy, Debug)]
struct Inflight {
    last_sent: Time,
    /// The start height every attempt asks for; `None` recomputes
    /// [`SyncState::fetch_start`] at send time.
    from_height: Option<u64>,
}

/// A block's [`BlockStore::locate`] answer: its dense index and its
/// parent, `None` when it is not stored.
type Located = Option<(usize, BlockId)>;

/// Bit 0 of `SyncState::known`'s first word: genesis, stored first.
const GENESIS_BIT: u64 = 1;

/// Delta-sync bookkeeping for one validator.
pub struct SyncState {
    /// The store handed to [`SyncState::new`], whose dense block indices
    /// address `known`; every call that takes a store must pass this
    /// one.
    store: BlockStore,
    /// The known stored blocks: bit `i` is the block at
    /// [`BlockStore::locate`] index `i`. Grows on demand, never shrinks.
    known: Vec<u64>,
    /// Known ids that had no stored block when they were forced in by
    /// [`SyncState::poison_known`] (the honest paths learn stored
    /// blocks only). Ordered, like every protocol-path collection.
    poisoned: BTreeSet<BlockId>,
    /// How many ids are known: the set bits of `known` plus `poisoned`.
    known_len: usize,
    /// Shadow count of the ids the honest paths made known (genesis,
    /// [`SyncState::mark_own`], [`SyncState::resolve`],
    /// [`SyncState::accept_response`]). It equals `known_len` unless
    /// something else wrote to the set — the O(1) trigger in front of
    /// [`SyncState::audit`]'s scan.
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

    /// Cap on the messages one §2 `RECOVERY` serve re-sends: sent
    /// certificates, uncovered archived votes and in-range vetted
    /// proposals together, in view order (block content beyond them
    /// moves over the fetch plane).
    pub const RECOVERY_RESPONSE_CAP: usize = 1024;

    /// Fresh state: only genesis is known.
    pub fn new(store: &BlockStore) -> Self {
        SyncState {
            store: store.clone(),
            known: vec![GENESIS_BIT],
            poisoned: BTreeSet::new(),
            known_len: 1,
            honest_known: 1,
            drainable: false,
            genesis: store.genesis(),
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
        self.learn_at(self.store.locate(id), id)
    }

    /// [`SyncState::learn`] with `id`'s store lookup already made.
    fn learn_at(&mut self, at: Located, id: BlockId) -> bool {
        self.inflight.remove(&id);
        let newly = self.insert(at, id);
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

    /// Puts `id`, found `at` in the store, into the known set: its bit
    /// when it is stored, the side set otherwise. Returns whether `id`
    /// is newly known.
    fn insert(&mut self, at: Located, id: BlockId) -> bool {
        if self.holds(at, id) {
            return false;
        }
        match at {
            Some((index, _)) => self.set_bit(index),
            None => {
                self.poisoned.insert(id);
            }
        }
        self.known_len += 1;
        true
    }

    /// Whether `id`, found `at` in the store, is known.
    fn holds(&self, at: Located, id: BlockId) -> bool {
        let bit = |i: usize| self.known.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1);
        at.is_some_and(|(i, _)| bit(i)) || self.poisoned.contains(&id)
    }

    fn set_bit(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.known.len() {
            // Grow by an eighth beyond the need: amortized O(1) per
            // block, and never more than an eighth over one bit per
            // stored block (std's doubling can waste half).
            let len = word + 1;
            self.known.reserve_exact(len + len / 8 - self.known.len());
            self.known.resize(len, 0);
        }
        if let Some(w) = self.known.get_mut(word) {
            *w |= 1 << (index % 64);
        }
    }

    /// Whether this validator knows the content of `id`.
    pub fn knows(&self, id: BlockId) -> bool {
        id == self.genesis || self.holds(self.store.locate(id), id)
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
        // A known tip has its whole ancestry known, window included.
        let mut base = log.tip();
        let mut at = store.locate(base);
        if self.holds(at, base) {
            return Resolution::Resolved;
        }
        // Walk the window down by parent links, one store lookup per
        // block: each lookup answers whether the block is known and
        // names its parent. The block below the window is the base.
        // `Log` keeps `len == height(tip) + 1`, and the store holds no
        // block without its parent, so the walk ends at height
        // `len − 1 − k`.
        let k = (log.len() - 1).min(wire::INLINE_WINDOW) as usize;
        let mut window = [(at, base); wire::INLINE_WINDOW as usize];
        for slot in window.iter_mut().take(k) {
            let Some((_, parent)) = at else {
                // The reference does not resolve in the local store at
                // all (runtime decode normally prevents this):
                // everything below the tip is missing.
                return Resolution::Missing(log.tip());
            };
            *slot = (at, base);
            base = parent;
            at = store.locate(base);
        }
        if !self.holds(at, base) {
            return Resolution::Missing(base);
        }
        // Absorb the window, newest-last so the chain-known invariant
        // holds at every insertion. A block learned this way needs no
        // outstanding fetch anymore.
        for (at, id) in window.iter().take(k).rev() {
            self.learn_at(*at, *id);
        }
        Resolution::Resolved
    }

    /// Start height for a fetch of the chain ending at `missing`: one
    /// above the nearest known ancestor (full resync when the walk
    /// leaves the local store).
    pub fn fetch_start(&self, missing: BlockId, store: &BlockStore) -> u64 {
        let mut cur = missing;
        loop {
            let at = store.locate(cur);
            if self.holds(at, cur) {
                return store.height(cur).map_or(1, |h| h + 1);
            }
            match at {
                Some((_, parent)) => cur = parent,
                None => return 1,
            }
        }
    }

    /// Parks `entry` until `missing` becomes known. Deduplicates equal
    /// entries; enforces the FIFO cap. Returns whether the fetch for
    /// `missing` still needs to be issued (not already in flight).
    pub fn park(&mut self, missing: BlockId, entry: impl Into<Pending>, now: Time) -> bool {
        let entry = entry.into();
        if !self.pending.iter().any(|p| p.entry == entry) {
            self.pending.push_back(Parked { missing, entry, since: now });
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

    /// Records that a fetch for `missing` was (re-)sent at `now`, asking
    /// from `from_height` on every attempt (`None`: from
    /// [`SyncState::fetch_start`] at each send).
    pub fn note_requested(&mut self, missing: BlockId, now: Time, from_height: Option<u64>) {
        self.requests_sent += 1;
        self.inflight.insert(missing, Inflight { last_sent: now, from_height });
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

    /// Drains parked entries whose missing block is now known, in
    /// arrival order, for replay through the normal processing path.
    pub fn take_resolved(&mut self) -> Vec<Pending> {
        self.drainable = false;
        let mut out = Vec::new();
        let mut kept = VecDeque::with_capacity(self.pending.len());
        while let Some(p) = self.pending.pop_front() {
            if self.knows(p.missing) {
                out.push(p.entry);
            } else {
                kept.push_back(p);
            }
        }
        self.pending = kept;
        out
    }

    /// Outstanding fetches not answered within the retry window, with
    /// the start height they were noted with. Deterministic order (by
    /// block id). A re-send is noted like the first one
    /// ([`SyncState::note_requested`]), which restarts its window.
    pub fn stale_requests(&self, now: Time, retry_after: u64) -> Vec<(BlockId, Option<u64>)> {
        // Checked: a deadline past the end of time (Δ near u64::MAX)
        // means "never stale", not a wrap into the past.
        let stale = |f: &Inflight| {
            f.last_sent.ticks().checked_add(retry_after).is_some_and(|d| d <= now.ticks())
        };
        self.inflight.iter().filter(|(_, f)| stale(f)).map(|(id, f)| (*id, f.from_height)).collect()
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
        if self.insert(self.store.locate(id), id) {
            self.note_if_awaited(id);
        }
    }

    /// Fault injection: total delta-sync amnesia — all block knowledge
    /// (except genesis), parked messages and in-flight fetches are
    /// erased, as if the sync plane's memory arena was wiped.
    pub fn forget_all(&mut self) {
        self.known.clear();
        self.known.push(GENESIS_BIT);
        self.poisoned.clear();
        self.known_len = 1;
        // The shadow count sits in the same arena and is wiped with it
        // (not re-seeded for genesis): the next audit runs one scan,
        // and ids forged on top of the wipe cannot cancel it out.
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
    /// * Every known id must have its content in the store — honest ids
    ///   become known only via store-backed resolution, so an absent
    ///   body is corruption; the id is quarantined (dropped) and, if
    ///   truly needed, re-learned through the ordinary fetch path. A
    ///   known stored block is one bit and cannot lack its body (the
    ///   store is append-only), so the scan covers only the side set of
    ///   forced ids that had no stored block, one store lookup each. It
    ///   sits behind an O(1) trigger: it runs only when the number of
    ///   known ids disagrees with the shadow count of honest
    ///   insertions, i.e. when something other than the honest paths
    ///   wrote to the set, and re-syncs the count.
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
        if self.known_len != self.honest_known {
            self.audit_scans += 1;
            let before = self.poisoned.len();
            self.poisoned.retain(|id| store.contains(*id));
            let dropped = before - self.poisoned.len();
            repaired += dropped as u64;
            self.known_len -= dropped;
            self.honest_known = self.known_len;
        }
        let settled: Vec<BlockId> =
            self.inflight.keys().copied().filter(|id| self.knows(*id)).collect();
        for id in &settled {
            self.inflight.remove(id);
        }
        repaired + settled.len() as u64
    }
}

impl std::fmt::Debug for SyncState {
    /// Counts in place of the known set, and no store.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncState")
            .field("known_len", &self.known_len)
            .field("poisoned", &self.poisoned)
            .field("honest_known", &self.honest_known)
            .field("drainable", &self.drainable)
            .field("pending", &self.pending)
            .field("inflight", &self.inflight)
            .finish_non_exhaustive()
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
        sync.note_requested(base, Time::new(5), None);
        assert!(!sync.park(base, m, Time::new(6)), "duplicate park does not re-fetch");
        assert_eq!(sync.pending_len(), 1, "parking dedups by message id");

        // A response anchored at genesis covering heights 1..=2.
        let newly = sync.accept_response(base, 1, &store);
        assert_eq!(newly, 2);
        let released = sync.take_resolved();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0], Pending::from(m));
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
                sync.note_requested(base, Time::new(i), None);
            }
            first_missing.get_or_insert(base);
        }
        assert_eq!(sync.pending_len(), SyncState::PENDING_CAP);
        assert_eq!(sync.evicted(), 40);
        // The evicted entries' fetches were cancelled.
        assert!(
            !sync.stale_requests(Time::new(10_000), 1).contains(&(first_missing.unwrap(), None)),
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
            !sync.take_resolved().iter().any(|m| matches!(m, Pending::Msg(m) if m.id() == first_id)),
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
        sync.note_requested(base, Time::new(u64::MAX - 4), None);
        assert!(
            sync.stale_requests(Time::new(u64::MAX), u64::MAX).is_empty(),
            "saturating deadline must not wrap into the past"
        );
        // A finite window elapsing at the edge of time still retries.
        assert_eq!(sync.stale_requests(Time::new(u64::MAX), 4), vec![(base, None)]);
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
        sync.note_requested(base, Time::new(0), None);
        assert!(sync.stale_requests(Time::new(1), 8).is_empty(), "not stale yet");
        assert_eq!(sync.stale_requests(Time::new(8), 8), vec![(base, None)]);
        sync.note_requested(base, Time::new(8), None);
        assert!(sync.stale_requests(Time::new(9), 8).is_empty(), "the re-send restarted the window");
        assert_eq!(sync.stale_requests(Time::new(16), 8), vec![(base, None)]);
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
        sync.note_requested(l1.tip(), Time::new(1), None);
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

    /// The one-probe path: a known tip resolves without touching the
    /// honest count, the fetch map or the drain probe.
    #[test]
    fn known_tip_resolves_with_no_side_effect() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l2 = chain(&store, 2);
        assert_eq!(sync.resolve(&l2.prefix(2, &store).unwrap(), &store), Resolution::Resolved);
        assert_eq!(sync.resolve(&l2, &store), Resolution::Resolved);
        // Something parked on an unrelated gap, with its fetch in flight.
        let l4 = l2.prefix(1, &store).unwrap().extend_empty(&store, ValidatorId::new(5), View::new(7));
        let l4 = l4.extend_empty(&store, ValidatorId::new(5), View::new(8));
        let l4 = l4.extend_empty(&store, ValidatorId::new(5), View::new(9));
        let Resolution::Missing(gap) = sync.resolve(&l4, &store) else {
            panic!("expected a gap");
        };
        sync.park(gap, msg_with_log(&store, 1, 4, l4), Time::new(1));
        sync.note_requested(gap, Time::new(1), None);

        let before = (sync.honest_known, sync.inflight.len(), sync.has_resolvable());
        for log in [l2, l2.prefix(2, &store).unwrap(), Log::genesis(&store)] {
            assert_eq!(sync.resolve(&log, &store), Resolution::Resolved);
            assert_eq!((sync.honest_known, sync.inflight.len(), sync.has_resolvable()), before);
        }
        assert_eq!(sync.stale_requests(Time::new(100), 1), vec![(gap, None)]);
    }

    /// The fast path trusts `knows(tip)`; a forged id breaks the
    /// chain-known premise only until the audit quarantines it.
    /// Afterwards a log whose tip was never learned parks and fetches.
    #[test]
    fn forged_ids_open_no_fast_path_after_the_audit() {
        let store = BlockStore::new();
        let mut sync = SyncState::new(&store);
        let l3 = chain(&store, 3);
        let base = store.ancestor_at(l3.tip(), 3 - wire::INLINE_WINDOW).unwrap();
        sync.poison_known(garbage(8));
        assert_eq!(sync.audit(&store), 1);
        assert!(!sync.knows(l3.tip()));
        assert_eq!(sync.resolve(&l3, &store), Resolution::Missing(base));
        assert!(sync.park(base, msg_with_log(&store, 1, 3, l3), Time::new(2)), "the gap is fetched");
        sync.note_requested(base, Time::new(2), None);
        assert_eq!(sync.pending_len(), 1);
        assert_eq!(sync.stale_requests(Time::new(10), 1), vec![(base, None)]);
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
