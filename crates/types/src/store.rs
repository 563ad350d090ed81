//! The shared block store: a hash-linked block tree with ancestry queries.
//!
//! Every simulation shares one `BlockStore` (validators learn block
//! *contents* through messages; the store is the content-addressed
//! backing, and per-validator *knowledge* is tracked by the delta-sync
//! layer in `tobsvd-core`). The real TCP runtime gives each node its own
//! store; stores converge through hash announcements and block fetches.
//!
//! All log relations of §3.2 (prefix ⪯, compatibility, conflict) reduce
//! to ancestry queries answered here, plus the iterated LCA used by the
//! GA support-counting machinery.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::{Block, BlockId};
use crate::ids::ValidatorId;
use crate::tx::Transaction;
use crate::view::View;

/// Errors returned by [`BlockStore`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The referenced parent block is not in the store.
    UnknownParent(BlockId),
    /// The block failed content-hash validation.
    InvalidBlock(BlockId),
    /// The block's linkage metadata (height/cumulative size) is inconsistent.
    InconsistentLinkage(BlockId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownParent(id) => write!(f, "unknown parent block {id}"),
            StoreError::InvalidBlock(id) => write!(f, "block {id} failed hash validation"),
            StoreError::InconsistentLinkage(id) => {
                write!(f, "block {id} has inconsistent linkage metadata")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A thread-safe, append-only block tree rooted at genesis.
///
/// ```
/// use tobsvd_types::{BlockStore, ValidatorId, View};
/// let store = BlockStore::new();
/// let g = store.genesis();
/// let b1 = store.append(g, ValidatorId::new(0), View::new(1), vec![]).unwrap();
/// assert_eq!(store.height(b1), Some(1));
/// assert_eq!(store.ancestor_at(b1, 0), Some(g));
/// ```
#[derive(Clone, Debug)]
pub struct BlockStore {
    inner: Arc<RwLock<Inner>>,
    genesis: BlockId,
}

/// Slots in [`Inner`]'s table of recently stored blocks.
const RECENT_SLOTS: usize = 1024;

/// The table slot of `id`: its two leading bytes. A block id is a
/// SHA-256 output, so honest ids spread evenly over the slots.
fn recent_slot(id: &BlockId) -> usize {
    let [a, b, ..] = *id.0.as_bytes();
    usize::from(u16::from_le_bytes([a, b])) % RECENT_SLOTS
}

#[derive(Debug)]
struct Inner {
    /// Each block with its dense insertion index (genesis is 0), which
    /// per-validator knowledge addresses as one bit per stored block.
    /// Indices are never reused: the store is append-only, so the next
    /// index is the current length. This map is the truth; it keeps
    /// std's keyed SipHash, not an identity hash over the digest bytes,
    /// because a Byzantine proposer can grind block ids into one bucket.
    blocks: HashMap<BlockId, (usize, Arc<Block>)>,
    /// `(id, index, parent)` of the newest block stored in each slot,
    /// probed with a full id compare before the map, so a probe for a
    /// recently stored block (the common known tip) hashes nothing. The
    /// first block stored after genesis fills every slot, so a slot no
    /// later block landed in answers for that block only: no sentinel
    /// id, since any id can be asked for (`Digest::ZERO` is genesis's
    /// parent). A slot is never stale: an id keeps its index for good,
    /// so an overwrite only sends the older id to the map. Ids ground
    /// into one slot buy a Byzantine proposer only that fallback, the
    /// map lookup every probe paid without the table.
    recent: Vec<(BlockId, usize, BlockId)>,
}

impl Inner {
    fn block(&self, id: &BlockId) -> Option<&Arc<Block>> {
        self.blocks.get(id).map(|(_, block)| block)
    }

    /// The dense index and parent of `id`: its table slot, else the map.
    fn locate(&self, id: &BlockId) -> Option<(usize, BlockId)> {
        match self.recent.get(recent_slot(id)) {
            Some(&(slot_id, index, parent)) if slot_id == *id => Some((index, parent)),
            _ => self.blocks.get(id).map(|(index, block)| (*index, block.parent())),
        }
    }

    /// Stores `block` under the next index unless `id` is stored.
    fn put(&mut self, id: BlockId, block: Block) {
        let index = self.blocks.len();
        let parent = block.parent();
        if let Entry::Vacant(entry) = self.blocks.entry(id) {
            entry.insert((index, Arc::new(block)));
            if self.recent.is_empty() {
                self.recent.resize(RECENT_SLOTS, (id, index, parent));
            } else if let Some(slot) = self.recent.get_mut(recent_slot(&id)) {
                *slot = (id, index, parent);
            }
        }
    }
}

impl BlockStore {
    /// Creates a store containing only the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let gid = genesis.id();
        let blocks = HashMap::from([(gid, (0, Arc::new(genesis)))]);
        // The table's room is taken here, beside the store's other
        // long-lived memory, and filled at the first block stored.
        // Filling it here added ≈ 10 % to `sim_pervote`'s set-up;
        // reserving it at that first block, amid the run's short-lived
        // memory, raised the workload's peak RSS by ≈ 1.3 MiB.
        let inner = Inner { blocks, recent: Vec::with_capacity(RECENT_SLOTS) };
        BlockStore { inner: Arc::new(RwLock::new(inner)), genesis: gid }
    }

    /// The genesis block id.
    pub fn genesis(&self) -> BlockId {
        self.genesis
    }

    /// Appends a new block on top of `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownParent`] if `parent` is not stored.
    pub fn append(
        &self,
        parent: BlockId,
        proposer: ValidatorId,
        view: View,
        txs: Vec<Transaction>,
    ) -> Result<BlockId, StoreError> {
        let mut inner = self.inner.write();
        let parent_block = inner
            .block(&parent)
            .cloned()
            .ok_or(StoreError::UnknownParent(parent))?;
        let block = Block::child(&parent_block, proposer, view, txs);
        let id = block.id();
        inner.put(id, block);
        Ok(id)
    }

    /// Inserts an externally-constructed block (wire decode path),
    /// validating content hash and linkage.
    ///
    /// # Errors
    ///
    /// * [`StoreError::InvalidBlock`] if the content hash is wrong;
    /// * [`StoreError::UnknownParent`] if the parent is missing;
    /// * [`StoreError::InconsistentLinkage`] if height or cumulative size
    ///   do not match the parent.
    pub fn insert(&self, block: Block) -> Result<BlockId, StoreError> {
        if !block.id_is_valid() {
            return Err(StoreError::InvalidBlock(block.id()));
        }
        let mut inner = self.inner.write();
        if inner.blocks.contains_key(&block.id()) {
            return Ok(block.id());
        }
        let parent = inner
            .block(&block.parent())
            .cloned()
            .ok_or(StoreError::UnknownParent(block.parent()))?;
        // Checked: adversarial blocks can claim heights / cumulative
        // sizes near u64::MAX, and a wrapping comparison here would
        // admit them as consistent linkage.
        if parent.height().checked_add(1) != Some(block.height())
            || parent.cumulative_size().checked_add(block.size())
                != Some(block.cumulative_size())
        {
            return Err(StoreError::InconsistentLinkage(block.id()));
        }
        let id = block.id();
        inner.put(id, block);
        Ok(id)
    }

    /// Fetches a block by id.
    pub fn get(&self, id: BlockId) -> Option<Arc<Block>> {
        self.inner.read().block(&id).cloned()
    }

    /// The dense index `id` was stored under and its parent, or `None`
    /// when `id` is not stored. Genesis is index 0, and each newly stored
    /// block takes the next one; an index is never reused.
    pub fn locate(&self, id: BlockId) -> Option<(usize, BlockId)> {
        self.inner.read().locate(&id)
    }

    /// Whether the store contains `id`.
    pub fn contains(&self, id: BlockId) -> bool {
        self.locate(id).is_some()
    }

    /// Number of stored blocks (including genesis).
    pub fn len(&self) -> usize {
        self.inner.read().blocks.len()
    }

    /// Whether the store holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Height of a block, if known.
    pub fn height(&self, id: BlockId) -> Option<u64> {
        self.inner.read().block(&id).map(|b| b.height())
    }

    /// The ancestor of `id` at `height`, walking parent links.
    ///
    /// Returns `None` if `id` is unknown or `height` exceeds its height.
    pub fn ancestor_at(&self, id: BlockId, height: u64) -> Option<BlockId> {
        let inner = self.inner.read();
        let mut cur = inner.block(&id)?;
        if height > cur.height() {
            return None;
        }
        while cur.height() > height {
            cur = inner.block(&cur.parent())?;
        }
        Some(cur.id())
    }

    /// Whether `ancestor` lies on the chain from genesis to `descendant`.
    pub fn is_ancestor(&self, ancestor: BlockId, descendant: BlockId) -> bool {
        let anc_height = match self.height(ancestor) {
            Some(h) => h,
            None => return false,
        };
        self.ancestor_at(descendant, anc_height) == Some(ancestor)
    }

    /// Lowest common ancestor of two blocks, or `None` when either
    /// block is unknown (or a parent link is missing — impossible for
    /// blocks admitted through [`BlockStore::insert`], which only
    /// stores child-after-parent, but degraded to `None` rather than a
    /// panic so corrupted state cannot crash a validator).
    pub fn lca(&self, a: BlockId, b: BlockId) -> Option<BlockId> {
        // Walk by borrowed handles: no per-step `Arc` clone (refcount
        // traffic) on what is an inner loop of the GA support counting.
        let inner = self.inner.read();
        let mut x = inner.block(&a)?;
        let mut y = inner.block(&b)?;
        while x.height() > y.height() {
            x = inner.block(&x.parent())?;
        }
        while y.height() > x.height() {
            y = inner.block(&y.parent())?;
        }
        while x.id() != y.id() {
            x = inner.block(&x.parent())?;
            y = inner.block(&y.parent())?;
        }
        Some(x.id())
    }

    /// The chain of block ids from `from_height` (inclusive) up to `tip`
    /// (inclusive), in increasing height order.
    pub fn chain_range(&self, tip: BlockId, from_height: u64) -> Option<Vec<BlockId>> {
        let inner = self.inner.read();
        let mut cur = inner.block(&tip)?;
        if from_height > cur.height() {
            return Some(Vec::new());
        }
        // Capacity is only a hint: on 32-bit targets a range longer
        // than usize::MAX must degrade to grow-as-needed, not silently
        // truncate through an `as` cast.
        let hint = usize::try_from((cur.height() - from_height).saturating_add(1)).unwrap_or(0);
        let mut out = Vec::with_capacity(hint);
        loop {
            out.push(cur.id());
            if cur.height() == from_height {
                break;
            }
            cur = inner.block(&cur.parent())?;
        }
        out.reverse();
        Some(out)
    }

    /// All transactions on the chain from genesis to `tip`, deduplicated
    /// by first inclusion, in chain order.
    pub fn transactions_on_chain(&self, tip: BlockId) -> Vec<Transaction> {
        // Single parent walk under one read lock — no id materialization
        // or re-lookup pass.
        let inner = self.inner.read();
        let Some(mut cur) = inner.block(&tip) else {
            return Vec::new();
        };
        let mut per_block: Vec<&Arc<Block>> = Vec::with_capacity(cur.height() as usize + 1);
        loop {
            per_block.push(cur);
            if cur.height() == 0 {
                break;
            }
            match inner.block(&cur.parent()) {
                Some(parent) => cur = parent,
                None => return Vec::new(),
            }
        }
        // First inclusion wins: a tx a Byzantine proposer re-batches at
        // a later height must not appear twice in the executed
        // sequence. BTreeSet (not Hash) keeps the membership structure
        // deterministic like every other protocol-path collection.
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for b in per_block.into_iter().rev() {
            for tx in b.txs() {
                if seen.insert(tx.id()) {
                    out.push(tx.clone());
                }
            }
        }
        out
    }
}

impl Default for BlockStore {
    fn default() -> Self {
        BlockStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(store: &BlockStore, from: BlockId, n: usize, tag: u32) -> Vec<BlockId> {
        let mut ids = vec![from];
        let mut cur = from;
        for i in 0..n {
            cur = store
                .append(cur, ValidatorId::new(tag), View::new(i as u64 + 1), vec![])
                .expect("append");
            ids.push(cur);
        }
        ids
    }

    #[test]
    fn append_and_get() {
        let store = BlockStore::new();
        let b1 = store.append(store.genesis(), ValidatorId::new(0), View::new(1), vec![]).unwrap();
        let blk = store.get(b1).expect("stored");
        assert_eq!(blk.height(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn append_unknown_parent_fails() {
        let store = BlockStore::new();
        let bogus = BlockId(tobsvd_crypto::sha256(b"missing"));
        let err = store.append(bogus, ValidatorId::new(0), View::new(1), vec![]).unwrap_err();
        assert_eq!(err, StoreError::UnknownParent(bogus));
    }

    #[test]
    fn ancestor_walks() {
        let store = BlockStore::new();
        let ids = chain(&store, store.genesis(), 5, 0);
        assert_eq!(store.ancestor_at(ids[5], 2), Some(ids[2]));
        assert_eq!(store.ancestor_at(ids[5], 0), Some(store.genesis()));
        assert_eq!(store.ancestor_at(ids[2], 5), None);
    }

    #[test]
    fn is_ancestor_relations() {
        let store = BlockStore::new();
        let main = chain(&store, store.genesis(), 4, 0);
        let fork = chain(&store, main[1], 3, 1);
        assert!(store.is_ancestor(main[1], main[4]));
        assert!(store.is_ancestor(main[1], fork[3]));
        assert!(!store.is_ancestor(main[2], fork[3]));
        assert!(!store.is_ancestor(fork[2], main[4]));
    }

    #[test]
    fn lca_of_fork() {
        let store = BlockStore::new();
        let main = chain(&store, store.genesis(), 4, 0);
        let fork = chain(&store, main[2], 3, 1);
        assert_eq!(store.lca(main[4], fork[3]), Some(main[2]));
        assert_eq!(store.lca(main[4], main[2]), Some(main[2]));
        assert_eq!(store.lca(main[3], main[3]), Some(main[3]));
        let unknown = BlockId(tobsvd_crypto::Digest::from_bytes([0xAB; 32]));
        assert_eq!(store.lca(main[4], unknown), None);
    }

    #[test]
    fn chain_range_returns_ordered_ids() {
        let store = BlockStore::new();
        let ids = chain(&store, store.genesis(), 4, 0);
        let range = store.chain_range(ids[4], 2).expect("range");
        assert_eq!(range, vec![ids[2], ids[3], ids[4]]);
        let all = store.chain_range(ids[4], 0).expect("range");
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn duplicate_append_is_idempotent() {
        let store = BlockStore::new();
        let a = store.append(store.genesis(), ValidatorId::new(0), View::new(1), vec![]).unwrap();
        let b = store.append(store.genesis(), ValidatorId::new(0), View::new(1), vec![]).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn transactions_on_chain_in_order() {
        let store = BlockStore::new();
        let t1 = Transaction::new(vec![1]);
        let t2 = Transaction::new(vec![2]);
        let b1 = store
            .append(store.genesis(), ValidatorId::new(0), View::new(1), vec![t1.clone()])
            .unwrap();
        let b2 = store.append(b1, ValidatorId::new(1), View::new(2), vec![t2.clone()]).unwrap();
        let txs = store.transactions_on_chain(b2);
        assert_eq!(txs, vec![t1, t2]);
    }

    /// Regression (issue 8): a tx re-included at two heights (Byzantine
    /// re-batching) must appear once in the executed sequence, at its
    /// first inclusion.
    #[test]
    fn transactions_on_chain_dedup_by_first_inclusion() {
        let store = BlockStore::new();
        let t1 = Transaction::new(vec![1]);
        let t2 = Transaction::new(vec![2]);
        let b1 = store
            .append(store.genesis(), ValidatorId::new(0), View::new(1), vec![t1.clone()])
            .unwrap();
        // A Byzantine proposer re-batches t1 alongside fresh t2.
        let b2 = store
            .append(b1, ValidatorId::new(1), View::new(2), vec![t1.clone(), t2.clone()])
            .unwrap();
        let txs = store.transactions_on_chain(b2);
        assert_eq!(txs, vec![t1.clone(), t2.clone()], "first inclusion wins, order preserved");
        // Re-inclusion in a third block changes nothing either.
        let b3 = store.append(b2, ValidatorId::new(2), View::new(3), vec![t2.clone()]).unwrap();
        assert_eq!(store.transactions_on_chain(b3), vec![t1, t2]);
    }

    /// Regression (issue 8): `chain_range`'s capacity computation must
    /// be a hint, never an `as`-cast that truncates huge ranges on
    /// 32-bit targets. Exercised here via a range whose length is
    /// representable — correctness of the output is what's pinned; the
    /// try_from fallback is type-level.
    #[test]
    fn chain_range_full_span_and_single_block() {
        let store = BlockStore::new();
        let ids = chain(&store, store.genesis(), 6, 0);
        let full = store.chain_range(ids[6], 0).expect("range");
        assert_eq!(full, ids);
        let single = store.chain_range(ids[6], 6).expect("range");
        assert_eq!(single, vec![ids[6]]);
        let empty = store.chain_range(ids[3], 5).expect("past-tip start is empty");
        assert!(empty.is_empty());
    }

    /// Regression (issue 8): forged linkage metadata near u64::MAX must
    /// be rejected as `InconsistentLinkage`, not wrap through unchecked
    /// `+` into an accepted block.
    #[test]
    fn insert_rejects_overflowing_linkage() {
        let store = BlockStore::new();
        let other = BlockStore::new();
        let id = other.append(other.genesis(), ValidatorId::new(0), View::new(1), vec![]).unwrap();
        let block = other.get(id).unwrap().as_ref().clone();
        // `parent.cumulative_size() + block.size()` wraps to exactly the
        // forged cumulative size: 96 + u64::MAX ≡ 95 (mod 2^64). The
        // unchecked `+` accepted this block in release builds (and
        // panicked in debug); `checked_add` rejects it.
        let genesis_size = store.get(store.genesis()).unwrap().cumulative_size();
        let forged_wrap = block
            .clone()
            .with_forged_linkage(1, u64::MAX, genesis_size.wrapping_add(u64::MAX));
        assert!(
            matches!(store.insert(forged_wrap), Err(StoreError::InconsistentLinkage(_))),
            "wrapping cumulative size must not be accepted as consistent"
        );
        let forged_height = block.clone().with_forged_linkage(u64::MAX, block.size(), u64::MAX);
        assert!(
            matches!(store.insert(forged_height), Err(StoreError::InconsistentLinkage(_))),
            "height u64::MAX over a height-0 parent must be rejected"
        );
    }

    fn index(store: &BlockStore, id: BlockId) -> Option<usize> {
        store.locate(id).map(|(index, _)| index)
    }

    #[test]
    fn indices_are_dense_in_insertion_order_and_never_reused() {
        let store = BlockStore::new();
        assert_eq!(index(&store, store.genesis()), Some(0));
        let main = chain(&store, store.genesis(), 3, 0);
        let fork = chain(&store, main[1], 2, 1);
        let indices: Vec<_> = main.iter().chain(&fork[1..]).map(|id| index(&store, *id)).collect();
        assert_eq!(indices, [0, 1, 2, 3, 4, 5].map(Some));
        // A re-append keeps the first index and takes no new one.
        assert_eq!(store.append(main[0], ValidatorId::new(0), View::new(1), vec![]), Ok(main[1]));
        let other = BlockStore::new();
        let id = other.append(other.genesis(), ValidatorId::new(7), View::new(1), vec![]).unwrap();
        assert_eq!(index(&store, id), None);
        assert_eq!(store.insert(other.get(id).unwrap().as_ref().clone()), Ok(id));
        assert_eq!(index(&store, id), Some(6));
    }

    #[test]
    fn insert_validates_linkage() {
        let store = BlockStore::new();
        let other = BlockStore::new();
        let id = other.append(other.genesis(), ValidatorId::new(0), View::new(1), vec![]).unwrap();
        let block = other.get(id).unwrap().as_ref().clone();
        // Same genesis in both stores, so this transfers cleanly.
        assert_eq!(store.insert(block), Ok(id));
        assert!(store.contains(id));
    }

    /// Differential test of the table of recent blocks in front of the
    /// keyed map: random streams over more than [`RECENT_SLOTS`] blocks,
    /// with ids ground into shared slots and ids never stored, must
    /// answer `locate`, `get` and `contains` like a plain ordered map.
    mod recent_table {
        use std::collections::BTreeMap;

        use proptest::prelude::*;
        use tobsvd_crypto::Digest;

        use super::*;

        /// Every stored id with its first index and its parent.
        type Model = BTreeMap<BlockId, (usize, BlockId)>;

        /// Whether the store answers for `id` as the model does.
        fn agrees(store: &BlockStore, model: &Model, id: BlockId) -> Result<(), TestCaseError> {
            let want = model.get(&id).copied();
            prop_assert_eq!(store.locate(id), want, "locate {}", id);
            let got = store.get(id).map(|b| (b.id(), b.parent()));
            prop_assert_eq!(got, want.map(|(_, parent)| (id, parent)));
            prop_assert_eq!(store.contains(id), want.is_some());
            Ok(())
        }

        /// The first child of `parent` by `proposer`, at a view from
        /// `from` on, whose id lands in `slot`.
        fn ground(parent: &Block, proposer: ValidatorId, from: u64, slot: usize) -> View {
            let lands = |view: &View| {
                recent_slot(&Block::child(parent, proposer, *view, vec![]).id()) == slot
            };
            (from..).map(View::new).find(lands).expect("some view lands in the slot")
        }

        #[derive(Clone, Copy, Debug)]
        enum Op {
            /// Append an empty block on stored block `.0`.
            Append(u16, u8),
            /// Append a block on stored block `.0` whose id lands in the
            /// slot of stored block `.1`.
            Collide(u16, u16),
            /// Re-append stored block `.0`: no new index.
            Reappend(u16),
            /// Insert block `.0` of a foreign tree (its parent may be
            /// missing), then insert it again.
            Insert(u16),
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u8..16, any::<u16>(), any::<u16>()).prop_map(|(pick, a, b)| match pick {
                0..=10 => Op::Append(a, b as u8),
                11 => Op::Collide(a, b),
                12 => Op::Reappend(a),
                _ => Op::Insert(a),
            })
        }

        /// The stream's state: the store, its model, the stored ids in
        /// order, and a foreign tree on the same genesis.
        struct Stream {
            store: BlockStore,
            model: Model,
            order: Vec<BlockId>,
            foreign: Vec<Block>,
            view: u64,
        }

        impl Stream {
            fn new(foreign_len: usize) -> Self {
                let store = BlockStore::new();
                let genesis = store.get(store.genesis()).unwrap();
                let model = Model::from([(genesis.id(), (0, genesis.parent()))]);
                let other = BlockStore::new();
                let mut tips = vec![other.genesis()];
                for i in 0..foreign_len {
                    let parent = tips[i * 7 % tips.len()];
                    let view = View::new(i as u64);
                    tips.push(other.append(parent, ValidatorId::new(9), view, vec![]).unwrap());
                }
                let foreign =
                    tips[1..].iter().map(|id| other.get(*id).unwrap().as_ref().clone()).collect();
                Stream { store, model, order: vec![genesis.id()], foreign, view: 0 }
            }

            fn stored(&self, pick: u16) -> Arc<Block> {
                self.store.get(self.order[pick as usize % self.order.len()]).unwrap()
            }

            /// Appends a child of `parent` and checks its answer.
            fn append(
                &mut self,
                parent: &Block,
                proposer: ValidatorId,
                view: View,
            ) -> Result<(), TestCaseError> {
                let id = self.store.append(parent.id(), proposer, view, vec![]).unwrap();
                self.note(id, parent.id());
                agrees(&self.store, &self.model, id)
            }

            fn note(&mut self, id: BlockId, parent: BlockId) {
                let next = self.model.len();
                if let std::collections::btree_map::Entry::Vacant(e) = self.model.entry(id) {
                    e.insert((next, parent));
                    self.order.push(id);
                }
            }

            fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
                self.view += 1;
                match op {
                    Op::Append(pick, proposer) => {
                        let parent = self.stored(pick);
                        let proposer = ValidatorId::new(proposer.into());
                        self.append(&parent, proposer, View::new(self.view))?;
                    }
                    Op::Collide(pick, target) => {
                        let parent = self.stored(pick);
                        let slot = recent_slot(&self.stored(target).id());
                        let proposer = ValidatorId::new(u32::from(pick % 4));
                        let view = ground(&parent, proposer, self.view * 4096, slot);
                        self.append(&parent, proposer, view)?;
                    }
                    Op::Reappend(pick) => {
                        let block = self.stored(pick);
                        if let Some(proposer) = block.proposer() {
                            let (parent, view) = (block.parent(), block.view());
                            let again = self.store.append(parent, proposer, view, vec![]);
                            prop_assert_eq!(again, Ok(block.id()));
                        }
                        agrees(&self.store, &self.model, block.id())?;
                    }
                    Op::Insert(pick) => {
                        let block = self.foreign[pick as usize % self.foreign.len()].clone();
                        let (id, parent) = (block.id(), block.parent());
                        let parent_stored = self.model.contains_key(&parent);
                        let first = self.store.insert(block.clone());
                        prop_assert_eq!(first.is_ok(), parent_stored);
                        if parent_stored {
                            self.note(id, parent);
                            prop_assert_eq!(self.store.insert(block), Ok(id));
                        }
                        agrees(&self.store, &self.model, id)?;
                    }
                }
                prop_assert_eq!(self.store.len(), self.model.len());
                Ok(())
            }

            /// Every stored id, every foreign id, and ids never stored
            /// anywhere, genesis's parent among them.
            fn check_all(&self) -> Result<(), TestCaseError> {
                let never = [Digest::ZERO, Digest::from_bytes([0xFF; 32])].map(BlockId);
                let foreign = self.foreign.iter().map(Block::id);
                for id in self.model.keys().copied().chain(foreign).chain(never) {
                    agrees(&self.store, &self.model, id)?;
                }
                Ok(())
            }
        }

        /// Genesis and four blocks in genesis's slot, and a block in slot
        /// 0 (`Digest::ZERO`'s): each id answers for itself only, the
        /// newest from the table and the others from the map, and a
        /// never-stored id in a filled slot is not stored. So does a
        /// store before its table is filled, and one whose every slot
        /// holds its first block.
        #[test]
        fn ids_sharing_a_slot_answer_for_themselves_only() {
            let mut stream = Stream::new(8);
            stream.check_all().unwrap();
            let genesis = stream.stored(0);
            let slot = recent_slot(&genesis.id());
            for proposer in 0..4 {
                let proposer = ValidatorId::new(proposer);
                let view = ground(&genesis, proposer, 1, slot);
                stream.append(&genesis, proposer, view).unwrap();
                stream.check_all().unwrap();
            }
            let tip = stream.stored(4);
            let view = ground(&tip, ValidatorId::new(5), 1, 0);
            stream.append(&tip, ValidatorId::new(5), view).unwrap();
            assert!(stream.order.iter().filter(|id| recent_slot(id) == slot).count() >= 5);
            stream.check_all().unwrap();
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn the_table_answers_like_a_plain_map(
                ops in proptest::collection::vec(op(), RECENT_SLOTS * 3 / 2..RECENT_SLOTS * 2),
            ) {
                let mut stream = Stream::new(64);
                for (i, op) in ops.into_iter().enumerate() {
                    stream.step(op)?;
                    if i % 256 == 0 {
                        stream.check_all()?;
                    }
                }
                prop_assert!(stream.model.len() > RECENT_SLOTS);
                stream.check_all()?;
            }
        }
    }
}
