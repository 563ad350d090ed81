//! Differential test of the delta-sync knowledge set.
//!
//! `SyncState` keeps what a validator knows as one bit per stored block,
//! addressed by the store's dense insertion index, with an ordered side
//! set for forced ids that have no stored block. That is meant to be a
//! pure re-indexing of a plainer set — every known id in one flat set,
//! a shadow count of honest insertions in front of the audit's scan —
//! so random streams are fed through the real type and through that
//! model, and every observable answer must agree. The model spells the
//! contract out on its own:
//!
//! * **knowledge**: genesis is always known; `resolve` learns the inline
//!   window when its base is known, `mark_own` learns one id, a
//!   `BlockResponse` learns its range only when the block below it is
//!   known; a learned id's fetch is settled;
//! * **the audit**: when the number of known ids differs from the shadow
//!   count, one scan drops every known id without a stored block and
//!   re-syncs the count; every fetch of a known id is dropped too; the
//!   answer is how many were dropped;
//! * **the drain flag**: raised when a parked message's block becomes
//!   known or a message parks on a known block, lowered by a drain or a
//!   wipe only;
//! * **faults**: a forced id is known without counting as honest; a wipe
//!   forgets everything but genesis and zeroes the count.
//!
//! The local store grows during a stream from a fork tree built in a
//! second store, so logs reference blocks that are stored, not yet
//! stored, or stored only after they were forced in. One stream stores
//! more blocks than the store's table of recent blocks has slots, so
//! lookups answer from the table and from the keyed map behind it: the
//! table must not be observable.

use std::collections::{BTreeSet, VecDeque};
use std::sync::OnceLock;

use proptest::prelude::*;
use tob_svd::crypto::{Digest, Keypair};
use tob_svd::protocol::sync::Pending;
use tob_svd::protocol::{Resolution, SyncState};
use tob_svd::types::{
    wire, BlockId, BlockStore, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId, View,
};

/// The flat knowledge set, the pending FIFO and the in-flight fetches,
/// with the semantics of a plain hashed-set implementation.
struct Flat {
    known: BTreeSet<BlockId>,
    honest_known: usize,
    genesis: BlockId,
    drainable: bool,
    pending: VecDeque<(BlockId, Pending)>,
    inflight: BTreeSet<BlockId>,
    audit_scans: u64,
}

impl Flat {
    fn new(store: &BlockStore) -> Self {
        Flat {
            known: BTreeSet::from([store.genesis()]),
            honest_known: 1,
            genesis: store.genesis(),
            drainable: false,
            pending: VecDeque::new(),
            inflight: BTreeSet::new(),
            audit_scans: 0,
        }
    }

    fn knows(&self, id: BlockId) -> bool {
        id == self.genesis || self.known.contains(&id)
    }

    fn awaited(&self, id: BlockId) -> bool {
        self.pending.iter().any(|(missing, _)| *missing == id)
    }

    fn learn(&mut self, id: BlockId) -> bool {
        self.inflight.remove(&id);
        let newly = self.known.insert(id);
        if newly {
            self.honest_known += 1;
            self.drainable |= self.awaited(id);
        }
        newly
    }

    fn resolve(&mut self, log: &Log, store: &BlockStore) -> Resolution {
        if self.knows(log.tip()) {
            return Resolution::Resolved;
        }
        let k = (log.len() - 1).min(wire::INLINE_WINDOW);
        let mut window = Vec::new();
        let mut base = log.tip();
        for _ in 0..k {
            window.push(base);
            match store.get(base) {
                Some(block) => base = block.parent(),
                None => return Resolution::Missing(log.tip()),
            }
        }
        if !self.knows(base) {
            return Resolution::Missing(base);
        }
        for id in window.into_iter().rev() {
            self.learn(id);
        }
        Resolution::Resolved
    }

    fn accept_response(&mut self, tip: BlockId, from_height: u64, store: &BlockStore) -> u64 {
        let anchored = from_height > 0
            && store.ancestor_at(tip, from_height - 1).is_some_and(|anchor| self.knows(anchor));
        if !anchored {
            return 0;
        }
        let ids = store.chain_range(tip, from_height).unwrap_or_default();
        ids.into_iter().map(|id| u64::from(self.learn(id))).sum()
    }

    fn fetch_start(&self, missing: BlockId, store: &BlockStore) -> u64 {
        let mut cur = missing;
        while !self.knows(cur) {
            match store.get(cur) {
                Some(block) => cur = block.parent(),
                None => return 1,
            }
        }
        store.height(cur).map_or(1, |h| h + 1)
    }

    fn park(&mut self, missing: BlockId, entry: Pending) -> bool {
        if !self.pending.iter().any(|(_, e)| *e == entry) {
            self.pending.push_back((missing, entry));
            self.drainable |= self.knows(missing);
            while self.pending.len() > SyncState::PENDING_CAP {
                let (evicted, _) = self.pending.pop_front().unwrap();
                if !self.awaited(evicted) {
                    self.inflight.remove(&evicted);
                }
            }
        }
        !self.inflight.contains(&missing)
    }

    fn take_resolved(&mut self) -> Vec<Pending> {
        self.drainable = false;
        let (out, kept) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition::<VecDeque<_>, _>(|(missing, _)| self.knows(*missing));
        self.pending = kept;
        out.into_iter().map(|(_, entry)| entry).collect()
    }

    fn poison(&mut self, id: BlockId) {
        if self.known.insert(id) {
            self.drainable |= self.awaited(id);
        }
    }

    fn forget_all(&mut self) {
        self.known = BTreeSet::from([self.genesis]);
        self.honest_known = 0;
        self.pending.clear();
        self.drainable = false;
        self.inflight.clear();
    }

    fn audit(&mut self, store: &BlockStore) -> u64 {
        let mut repaired = 0;
        if self.known.len() != self.honest_known {
            self.audit_scans += 1;
            let before = self.known.len();
            let genesis = self.genesis;
            self.known.retain(|id| *id == genesis || store.contains(*id));
            repaired += (before - self.known.len()) as u64;
            self.honest_known = self.known.len();
        }
        let before = self.inflight.len();
        let known = &self.known;
        self.inflight.retain(|id| !known.contains(id));
        repaired + (before - self.inflight.len()) as u64
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Store the next block of the fork tree locally.
    Store,
    /// Resolve the log ending at block `.0` of the tree.
    Resolve(u16),
    MarkOwn(u16),
    /// A response for the chain ending at block `.0`, from height
    /// `.1 % (height + 2)`: aligned, misaligned, 0 or past the tip.
    Accept(u16, u16),
    /// Force a tree block's id (`None`: a garbage id) into the set.
    Poison(Option<u16>, u64),
    ForgetAll,
    Audit,
    /// Park message `.1` of the pool on block `.0`, fetching it when
    /// the fetch is not in flight yet.
    Park(u16, u16),
    TakeResolved,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..16, any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(pick, a, b, garbage)| {
        match pick {
            0..=2 => Op::Store,
            3..=5 => Op::Resolve(a),
            6 => Op::MarkOwn(a),
            7 | 8 => Op::Accept(a, b),
            9 => Op::Poison((b % 2 == 0).then_some(a), garbage % 8),
            10 => Op::ForgetAll,
            11 | 12 => Op::Audit,
            13 | 14 => Op::Park(a, b),
            _ => Op::TakeResolved,
        }
    })
}

/// Distinct parkable messages, more than the pending cap, built once.
fn pool() -> &'static [SignedMessage] {
    static POOL: OnceLock<Vec<SignedMessage>> = OnceLock::new();
    POOL.get_or_init(|| {
        let store = BlockStore::new();
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        (0..SyncState::PENDING_CAP as u64 + 24)
            .map(|i| {
                let payload = Payload::Log { instance: InstanceId(i), log: Log::genesis(&store) };
                SignedMessage::sign(&kp, sender, payload)
            })
            .collect()
    })
}

fn garbage(seed: u64) -> BlockId {
    BlockId(Digest::from_bytes([seed as u8 ^ 0xA5; 32]))
}

/// The real state and the flat model over one local store, fed from a
/// fork tree whose blocks are stored locally in creation order.
struct Differential {
    local: BlockStore,
    /// Genesis first, then the tree in creation order (parents first).
    tree: Vec<Log>,
    remote: BlockStore,
    stored: usize,
    sync: SyncState,
    flat: Flat,
    now: u64,
    forced: BTreeSet<BlockId>,
}

impl Differential {
    /// A tree with one block per entry of `parents` (each taken modulo
    /// the blocks before it), the first `stored` of them stored locally.
    fn new(parents: &[u16], stored: usize) -> Self {
        let remote = BlockStore::new();
        let mut tree = vec![Log::genesis(&remote)];
        for (i, parent) in parents.iter().enumerate() {
            let parent = tree[*parent as usize % tree.len()];
            let proposer = ValidatorId::new(i as u32);
            tree.push(parent.extend_empty(&remote, proposer, View::new(i as u64 + 1)));
        }
        let local = BlockStore::new();
        let mut diff = Differential {
            sync: SyncState::new(&local),
            flat: Flat::new(&local),
            local,
            tree,
            remote,
            stored: 1,
            now: 0,
            forced: BTreeSet::new(),
        };
        while diff.stored <= stored.min(parents.len()) {
            diff.store_next();
        }
        diff
    }

    fn store_next(&mut self) {
        if let Some(log) = self.tree.get(self.stored) {
            let block = self.remote.get(log.tip()).unwrap().as_ref().clone();
            assert_eq!(self.local.insert(block), Ok(log.tip()));
            self.stored += 1;
        }
    }

    fn block(&self, pick: u16) -> Log {
        self.tree[pick as usize % self.tree.len()]
    }

    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        self.now += 1;
        let store = &self.local.clone();
        match op {
            Op::Store => self.store_next(),
            Op::Resolve(pick) => {
                let log = self.block(pick);
                prop_assert_eq!(self.sync.resolve(&log, store), self.flat.resolve(&log, store));
            }
            Op::MarkOwn(pick) => {
                let id = self.block(pick).tip();
                self.sync.mark_own(id);
                self.flat.learn(id);
            }
            Op::Accept(pick, from) => {
                let log = self.block(pick);
                let from = u64::from(from) % (log.len() + 1);
                prop_assert_eq!(
                    self.sync.accept_response(log.tip(), from, store),
                    self.flat.accept_response(log.tip(), from, store)
                );
            }
            Op::Poison(pick, seed) => {
                let id = pick.map_or_else(|| garbage(seed), |p| self.block(p).tip());
                self.forced.insert(id);
                self.sync.poison_known(id);
                self.flat.poison(id);
            }
            Op::ForgetAll => {
                self.sync.forget_all();
                self.flat.forget_all();
            }
            Op::Audit => prop_assert_eq!(self.sync.audit(store), self.flat.audit(store)),
            Op::Park(pick, msg) => {
                let missing = self.block(pick).tip();
                let entry = pool()[msg as usize % pool().len()];
                let now = Time::new(self.now);
                let fetch = self.sync.park(missing, entry, now);
                prop_assert_eq!(fetch, self.flat.park(missing, Pending::from(entry)));
                prop_assert_eq!(
                    self.sync.fetch_start(missing, store),
                    self.flat.fetch_start(missing, store)
                );
                if fetch {
                    self.sync.note_requested(missing, now, None);
                    self.flat.inflight.insert(missing);
                }
            }
            Op::TakeResolved => prop_assert_eq!(self.sync.take_resolved(), self.flat.take_resolved()),
        }
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for id in self.tree.iter().map(Log::tip).chain(self.forced.iter().copied()) {
            prop_assert_eq!(self.sync.knows(id), self.flat.knows(id));
        }
        prop_assert_eq!(self.sync.audit_scans(), self.flat.audit_scans);
        prop_assert_eq!(self.sync.has_resolvable(), self.flat.drainable);
        prop_assert_eq!(self.sync.pending_len(), self.flat.pending.len());
        let drainable = self.flat.pending.iter().any(|(missing, _)| self.flat.knows(*missing));
        prop_assert!(!drainable || self.sync.has_resolvable(), "a drainable message went unflagged");
        Ok(())
    }
}

/// A scripted stream through every path at least once: a chain and a
/// fork learned by announcement, own block and response; a forced id
/// that is stored only later and then learned honestly; a wipe with
/// forged ids on top; and a flood past the pending cap.
#[test]
fn scripted_stream_answers_like_the_flat_set() {
    // Blocks 1–6 a chain, 7–9 a fork off block 2, 10–11 off genesis.
    let parents = [0, 1, 2, 3, 4, 5, 2, 7, 8, 0, 10];
    let mut diff = Differential::new(&parents, 8);
    let mut script = vec![
        Op::Resolve(3),     // base below the window unknown
        Op::Park(2, 0),     // waits on block 2
        Op::Resolve(1),     // window learned
        Op::Accept(6, 0),   // from height 0: ignored
        Op::Accept(6, 4),   // anchor unknown: ignored
        Op::Accept(3, 2),   // aligned: learns 2 and 3, arms the flag
        Op::Park(9, 1),     // block 9 is not stored yet: fetched
        Op::Poison(Some(9), 0),
        Op::Poison(None, 3),
        Op::TakeResolved,
        Op::Store,          // block 9 is stored after it was forced in
        Op::Accept(9, 3),   // learns 7 and 8, settles 9's fetch; 9 is known
        Op::MarkOwn(9),     // known already, through the side set
        Op::Audit,          // drops the garbage id only
        Op::Audit,          // the counts agree again: no scan
        Op::Poison(Some(11), 0),
        Op::Audit,          // block 11 is not stored: dropped
        Op::Resolve(6),
        Op::ForgetAll,
        Op::Poison(None, 1),
        Op::Poison(Some(1), 0),
        Op::Audit,          // the wipe trips the scan
        Op::Resolve(4),
        Op::Park(3, 2),     // block 3 is unknown again: fetched
        Op::Park(3, 2),     // duplicate
        Op::Poison(Some(3), 0),
        Op::Audit,          // drops the fetch of a forced, stored id
        Op::TakeResolved,
    ];
    // A flood of distinct messages past the cap, then the fetches settle.
    script.extend((0..pool().len() as u16).map(|m| Op::Park(10 + m % 2, m)));
    script.extend([Op::Store, Op::Store, Op::Resolve(10), Op::Audit, Op::TakeResolved]);
    for op in script {
        diff.step(op).unwrap();
    }
    assert_eq!(diff.sync.audit_scans(), 4);
}

/// A store that outgrows the store's table of recent blocks: a
/// 1 200-block chain and a 100-block fork off block 700, 1 250 of them
/// stored before the stream starts. Old blocks mostly lost their table
/// slot to newer ones, so `resolve`, `fetch_start`, `accept_response`
/// and every `knows` of `check` look blocks up both through the table
/// and through the keyed map; the flat model sees neither.
#[test]
fn store_past_the_table_answers_like_the_flat_set() {
    let parents: Vec<u16> = (0..1300).map(|i| if i == 1200 { 700 } else { i }).collect();
    let mut diff = Differential::new(&parents, 1250);
    let mut script = vec![
        Op::Resolve(1200),     // base unknown
        Op::Park(1200, 0),     // fetch walks down to genesis
        Op::Accept(600, 1),    // learns blocks 1–600
        Op::Resolve(601),      // window learned over a known base
        Op::Park(1200, 1),     // fetch walks down to block 601
        Op::Accept(1200, 602), // learns 602–1200, arms the flag
        Op::TakeResolved,
        Op::Resolve(1201),     // the fork's first block, on block 700
        Op::Park(1250, 2),     // fetch walks the fork down to 1201
        Op::Park(1290, 3),     // not stored: fetch from height 1
    ];
    script.extend((0..60).map(|_| Op::Store));
    script.extend((1202..1260).map(Op::Resolve));
    script.extend([
        Op::Accept(1300, 760), // the fork's last blocks, heights 760–800
        Op::TakeResolved,
        Op::Poison(Some(5), 0),
        Op::Poison(None, 2),
        Op::Audit,
        Op::ForgetAll,
        Op::Accept(1300, 1),   // the fork's whole chain again, one range
        Op::Accept(1200, 1),
        Op::Audit,
    ]);
    for op in script {
        diff.step(op).unwrap();
    }
    assert_eq!(diff.stored, 1301);
    assert!(diff.sync.knows(diff.block(1300).tip()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sync_state_answers_like_the_flat_set(
        parents in proptest::collection::vec(any::<u16>(), 1..40),
        stored in 0usize..40,
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let mut diff = Differential::new(&parents, stored);
        for op in ops {
            diff.step(op)?;
        }
    }
}
