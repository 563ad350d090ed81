//! Blocks: batches of transactions with a reference to a parent block.

use std::fmt;

use tobsvd_crypto::{Digest, Hasher};

use crate::ids::ValidatorId;
use crate::tx::Transaction;
use crate::view::View;

/// Content-derived block identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockId(pub Digest);

impl BlockId {
    /// Short hex prefix for logging.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{}", self.0.short())
    }
}

/// A block: "a batch of transactions \[containing\] a reference to another
/// block" (paper §3.2).
///
/// Blocks are immutable once constructed; identity is the hash of the
/// header and transaction ids. `height` counts edges from genesis
/// (genesis has height 0), so a log ending at a block of height `h` has
/// length `h + 1`.
#[derive(Clone, Debug)]
pub struct Block {
    id: BlockId,
    parent: BlockId,
    height: u64,
    proposer: Option<ValidatorId>,
    view: View,
    txs: Vec<Transaction>,
    /// Nominal serialized size of this block alone, in bytes.
    size: u64,
    /// Nominal serialized size of the whole log ending at this block —
    /// maintained by the store, used for O(L·n³) communication accounting.
    cumulative_size: u64,
}

/// Fixed per-block header overhead assumed by the size accounting.
pub(crate) const BLOCK_HEADER_BYTES: u64 = 96;

impl Block {
    /// Builds the unique genesis block (height 0, no proposer, no txs).
    pub(crate) fn genesis() -> Block {
        let mut b = Block {
            id: BlockId(Digest::ZERO),
            parent: BlockId(Digest::ZERO),
            height: 0,
            proposer: None,
            view: View::ZERO,
            txs: Vec::new(),
            size: BLOCK_HEADER_BYTES,
            cumulative_size: BLOCK_HEADER_BYTES,
        };
        b.id = b.compute_id();
        b
    }

    /// Builds a child block. The store validates linkage and fills in
    /// `cumulative_size`; use [`crate::BlockStore::append`] instead of
    /// calling this directly.
    pub(crate) fn child(
        parent: &Block,
        proposer: ValidatorId,
        view: View,
        txs: Vec<Transaction>,
    ) -> Block {
        let tx_bytes: u64 = txs.iter().map(|t| t.size() as u64 + 8).sum();
        let mut b = Block {
            id: BlockId(Digest::ZERO),
            parent: parent.id,
            height: parent.height + 1,
            proposer: Some(proposer),
            view,
            txs,
            size: BLOCK_HEADER_BYTES + tx_bytes,
            cumulative_size: parent.cumulative_size + BLOCK_HEADER_BYTES + tx_bytes,
        };
        b.id = b.compute_id();
        b
    }

    fn compute_id(&self) -> BlockId {
        let mut h = Hasher::new("tobsvd/block");
        h.update_digest(&self.parent.0);
        h.update_u64(self.height);
        h.update_u64(self.proposer.map(|p| u64::from(p.raw()) + 1).unwrap_or(0));
        h.update_u64(self.view.number());
        h.update_u64(self.txs.len() as u64);
        for tx in &self.txs {
            h.update_digest(&tx.id().0);
        }
        BlockId(h.finalize())
    }

    /// The block id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Parent block id (self-referential for genesis).
    pub fn parent(&self) -> BlockId {
        self.parent
    }

    /// Distance from genesis (genesis = 0).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The proposing validator, `None` for genesis.
    pub fn proposer(&self) -> Option<ValidatorId> {
        self.proposer
    }

    /// The view in which this block was proposed.
    pub fn view(&self) -> View {
        self.view
    }

    /// The batched transactions.
    pub fn txs(&self) -> &[Transaction] {
        &self.txs
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.height == 0
    }

    /// Nominal serialized size of this block in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Nominal serialized size of the log `[genesis … self]`.
    pub fn cumulative_size(&self) -> u64 {
        self.cumulative_size
    }

    /// Recomputes and checks the content hash (wire-decode validation).
    pub fn id_is_valid(&self) -> bool {
        self.compute_id() == self.id
    }

    /// Test-only: forges the linkage metadata and re-stamps the content
    /// id, producing a block that passes `id_is_valid` so the store's
    /// linkage validation is what must reject it.
    #[cfg(test)]
    pub(crate) fn with_forged_linkage(
        mut self,
        height: u64,
        size: u64,
        cumulative_size: u64,
    ) -> Block {
        self.height = height;
        self.size = size;
        self.cumulative_size = cumulative_size;
        self.id = self.compute_id();
        self
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Block {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_properties() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert_eq!(g.height(), 0);
        assert_eq!(g.proposer(), None);
        assert!(g.id_is_valid());
    }

    #[test]
    fn child_links_to_parent() {
        let g = Block::genesis();
        let c = Block::child(&g, ValidatorId::new(1), View::new(1), vec![]);
        assert_eq!(c.parent(), g.id());
        assert_eq!(c.height(), 1);
        assert_eq!(c.proposer(), Some(ValidatorId::new(1)));
        assert!(c.id_is_valid());
    }

    #[test]
    fn id_depends_on_txs() {
        let g = Block::genesis();
        let a = Block::child(&g, ValidatorId::new(1), View::new(1), vec![Transaction::new(vec![1])]);
        let b = Block::child(&g, ValidatorId::new(1), View::new(1), vec![Transaction::new(vec![2])]);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn id_depends_on_proposer_and_view() {
        let g = Block::genesis();
        let a = Block::child(&g, ValidatorId::new(1), View::new(1), vec![]);
        let b = Block::child(&g, ValidatorId::new(2), View::new(1), vec![]);
        let c = Block::child(&g, ValidatorId::new(1), View::new(2), vec![]);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn cumulative_size_accumulates() {
        let g = Block::genesis();
        let tx = Transaction::synthetic(1, 100);
        let c = Block::child(&g, ValidatorId::new(0), View::new(1), vec![tx]);
        assert_eq!(
            c.cumulative_size(),
            g.cumulative_size() + BLOCK_HEADER_BYTES + 100 + 8
        );
    }
}
