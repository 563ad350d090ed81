//! Logs and the prefix/compatibility relations of §3.2.
//!
//! "We define a *log* as a finite sequence of blocks Λ = [b₁ … b_k]. …
//! Given two logs Λ and Λ′, the notation Λ ⪯ Λ′ indicates that Λ is a
//! prefix of Λ′. Two logs are *compatible* if one acts as a prefix for
//! the other. Conversely, if neither log is a prefix of the other, they
//! are *conflicting*. … We assume that any log is an extension of a log
//! Λ_g known to any validator." (paper §3.2; Λ_g is the genesis log.)

use std::fmt;

use crate::block::BlockId;
use crate::ids::ValidatorId;
use crate::store::BlockStore;
use crate::tx::Transaction;
use crate::view::View;

/// A log Λ: the chain of blocks from genesis to `tip`, of length `len`
/// (number of blocks, genesis included).
///
/// A `Log` is a compact handle — (tip id, length) — into a [`BlockStore`]
/// holding the actual blocks; all relations take the store as a
/// parameter. The invariant `len == store.height(tip) + 1` is established
/// by every constructor in this module.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Log {
    tip: BlockId,
    len: u64,
}

impl Log {
    /// The genesis log Λ_g = \[b_genesis\].
    pub fn genesis(store: &BlockStore) -> Log {
        Log { tip: store.genesis(), len: 1 }
    }

    /// The log ending at `tip`, reading the length from the store.
    ///
    /// Returns `None` if `tip` is not in the store.
    pub fn at_tip(store: &BlockStore, tip: BlockId) -> Option<Log> {
        store.height(tip).map(|h| Log { tip, len: h + 1 })
    }

    /// Reconstructs a log from raw parts (wire decoding).
    ///
    /// Returns `None` if the parts are inconsistent with the store.
    pub fn from_parts(store: &BlockStore, tip: BlockId, len: u64) -> Option<Log> {
        match store.height(tip) {
            Some(h) if h + 1 == len => Some(Log { tip, len }),
            _ => None,
        }
    }

    /// The tip block id.
    pub fn tip(&self) -> BlockId {
        self.tip
    }

    /// Number of blocks, genesis included. Always ≥ 1 — a log is never
    /// empty, which is why there is no `is_empty` (see [`Log::is_genesis`]).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether this is exactly the genesis log.
    pub fn is_genesis(&self, store: &BlockStore) -> bool {
        self.tip == store.genesis()
    }

    /// Λ ⪯ Λ′ — whether `self` is a prefix of `other`.
    ///
    /// Every log is a prefix of itself.
    pub fn is_prefix_of(&self, other: &Log, store: &BlockStore) -> bool {
        self.len <= other.len && store.ancestor_at(other.tip, self.len - 1) == Some(self.tip)
    }

    /// Λ′ ⪰ Λ — whether `self` extends `other` (i.e. `other ⪯ self`).
    pub fn extends(&self, other: &Log, store: &BlockStore) -> bool {
        other.is_prefix_of(self, store)
    }

    /// Whether one of the two logs is a prefix of the other.
    pub fn compatible(&self, other: &Log, store: &BlockStore) -> bool {
        self.is_prefix_of(other, store) || other.is_prefix_of(self, store)
    }

    /// Whether the logs conflict (neither is a prefix of the other).
    pub fn conflicts(&self, other: &Log, store: &BlockStore) -> bool {
        !self.compatible(other, store)
    }

    /// The prefix of this log of length `len` (blocks from genesis).
    ///
    /// Returns `None` if `len` is 0 or exceeds this log's length.
    pub fn prefix(&self, len: u64, store: &BlockStore) -> Option<Log> {
        if len == 0 || len > self.len {
            return None;
        }
        store.ancestor_at(self.tip, len - 1).map(|tip| Log { tip, len })
    }

    /// Extends this log with a new block batching `txs`.
    ///
    /// # Panics
    ///
    /// Panics if the tip is not in the store (a constructed `Log` always
    /// is).
    pub fn extend(
        &self,
        store: &BlockStore,
        proposer: ValidatorId,
        view: View,
        txs: Vec<Transaction>,
    ) -> Log {
        // Documented `# Panics` API: every constructor establishes
        // tip-is-stored, the input is caller state (never attacker
        // bytes), and an infallible `extend` is relied on
        // throughout the protocol layer.
        #[allow(clippy::expect_used)]
        let tip = store
            .append(self.tip, proposer, view, txs)
            .expect("log tip must be stored");
        Log { tip, len: self.len + 1 }
    }

    /// Extends with an empty block — convenient in tests and examples.
    pub fn extend_empty(&self, store: &BlockStore, proposer: ValidatorId, view: View) -> Log {
        self.extend(store, proposer, view, Vec::new())
    }

    /// Nominal serialized size in bytes of the full log (for the
    /// communication-complexity accounting of Table 1).
    pub fn nominal_size(&self, store: &BlockStore) -> u64 {
        store.get(self.tip).map(|b| b.cumulative_size()).unwrap_or(0)
    }

    /// Longest common prefix of two logs.
    ///
    /// Falls back to the genesis log when either tip is missing from
    /// the store (genesis is a prefix of every log, so the fallback is
    /// sound — just maximally conservative).
    pub fn common_prefix(&self, other: &Log, store: &BlockStore) -> Log {
        store
            .lca(self.tip, other.tip)
            .and_then(|tip| Log::at_tip(store, tip))
            .unwrap_or_else(|| Log::genesis(store))
    }

    /// Whether a transaction with `tx_id` appears on this log.
    pub fn contains_tx(&self, tx_id: crate::tx::TxId, store: &BlockStore) -> bool {
        store
            .transactions_on_chain(self.tip)
            .iter()
            .any(|t| t.id() == tx_id)
    }
}

impl fmt::Display for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Λ[len={},tip={}]", self.len, self.tip.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BlockStore, Log, Log, Log, Log) {
        // genesis -> a1 -> a2 (main)
        //        \-> b1 (fork)
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a1 = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let a2 = a1.extend_empty(&store, ValidatorId::new(1), View::new(2));
        let b1 = g.extend(
            &store,
            ValidatorId::new(2),
            View::new(1),
            vec![Transaction::new(vec![9])],
        );
        (store, g, a1, a2, b1)
    }

    #[test]
    fn prefix_relations() {
        let (store, g, a1, a2, b1) = setup();
        assert!(g.is_prefix_of(&a2, &store));
        assert!(a1.is_prefix_of(&a2, &store));
        assert!(a2.is_prefix_of(&a2, &store));
        assert!(!a2.is_prefix_of(&a1, &store));
        assert!(!b1.is_prefix_of(&a2, &store));
        assert!(a2.extends(&a1, &store));
        assert!(!a1.extends(&a2, &store));
    }

    #[test]
    fn compatibility_and_conflict() {
        let (store, g, a1, a2, b1) = setup();
        assert!(a1.compatible(&a2, &store));
        assert!(g.compatible(&b1, &store));
        assert!(a1.conflicts(&b1, &store));
        assert!(a2.conflicts(&b1, &store));
        assert!(!a2.conflicts(&a2, &store));
    }

    #[test]
    fn prefix_extraction() {
        let (store, g, a1, a2, _) = setup();
        assert_eq!(a2.prefix(1, &store), Some(g));
        assert_eq!(a2.prefix(2, &store), Some(a1));
        assert_eq!(a2.prefix(3, &store), Some(a2));
        assert_eq!(a2.prefix(4, &store), None);
        assert_eq!(a2.prefix(0, &store), None);
    }

    #[test]
    fn common_prefix_of_fork_is_genesis() {
        let (store, g, _, a2, b1) = setup();
        assert_eq!(a2.common_prefix(&b1, &store), g);
        assert_eq!(a2.common_prefix(&a2, &store), a2);
    }

    #[test]
    fn from_parts_validates() {
        let (store, _, a1, _, _) = setup();
        assert_eq!(Log::from_parts(&store, a1.tip(), 2), Some(a1));
        assert_eq!(Log::from_parts(&store, a1.tip(), 3), None);
    }

    #[test]
    fn contains_tx_finds_batched_tx() {
        let (store, _, _, _, b1) = setup();
        let tx = Transaction::new(vec![9]);
        assert!(b1.contains_tx(tx.id(), &store));
        let other = Transaction::new(vec![8]);
        assert!(!b1.contains_tx(other.id(), &store));
    }

    #[test]
    fn nominal_size_grows_with_extension() {
        let (store, g, a1, _, _) = setup();
        assert!(a1.nominal_size(&store) > g.nominal_size(&store));
    }
}
