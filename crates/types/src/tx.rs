//! Transactions.
//!
//! The paper assumes an external transaction pool from which honest
//! validators retrieve transactions, validate them with a global validity
//! predicate `P`, and batch them into blocks (§2, §3.2). Transactions here
//! are opaque byte strings with a content-derived identity; the pool
//! itself (with submission-time tracking for latency experiments) lives in
//! `tobsvd-core`'s `Mempool`.
//!
//! The payload is one shared buffer: every validator proposes in every
//! view (§3.3), so the same pending transaction sits in up to n stored
//! blocks, and a clone is a reference-count bump rather than a copy.
//! A TCP node pools each client transaction before any peer's block
//! carries it back (its peers push what their clients submit), so a
//! decoder given the pool's lookup ([`Transaction::from_slice_or`])
//! shares the pooled buffer instead of copying the bytes again.

use std::fmt;
use std::sync::Arc;

use tobsvd_crypto::{Digest, Hasher};

/// Content-derived transaction identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxId(pub Digest);

impl TxId {
    /// Short hex prefix for logging.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

/// An opaque transaction: a payload plus its content-derived id.
///
/// Clones share the payload buffer; equality, hashing and `Debug` see
/// only its bytes.
///
/// ```
/// use tobsvd_types::Transaction;
/// let a = Transaction::new(b"pay alice 5".to_vec());
/// let b = Transaction::new(b"pay alice 5".to_vec());
/// assert_eq!(a.id(), b.id()); // identity is content-derived
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Transaction {
    id: TxId,
    payload: Arc<[u8]>,
}

impl Transaction {
    /// Creates a transaction from its payload bytes.
    pub fn new(payload: Vec<u8>) -> Self {
        Transaction::from_shared(payload.into())
    }

    /// Creates a transaction from a copy of `payload`: the one copy a
    /// decoder makes out of its frame or read buffer, so no transaction
    /// keeps that buffer alive.
    pub fn from_slice(payload: &[u8]) -> Self {
        Transaction::from_shared(payload.into())
    }

    /// [`Transaction::from_slice`], unless `pooled` answers this id
    /// with a transaction of the same bytes: then that transaction,
    /// sharing its buffer, and nothing is copied.
    pub fn from_slice_or(payload: &[u8], pooled: &dyn Fn(TxId) -> Option<Transaction>) -> Self {
        let id = Self::id_of(payload);
        match pooled(id) {
            Some(tx) if tx.payload() == payload => tx,
            _ => Transaction { id, payload: payload.into() },
        }
    }

    fn from_shared(payload: Arc<[u8]>) -> Self {
        Transaction { id: Self::id_of(&payload), payload }
    }

    fn id_of(payload: &[u8]) -> TxId {
        let mut h = Hasher::new("tobsvd/tx");
        h.update(payload);
        TxId(h.finalize())
    }

    /// A synthetic transaction of `size` bytes, unique per `nonce`.
    ///
    /// Workload generators use this to produce distinct transactions of a
    /// controlled size `L` for the communication-complexity experiments.
    pub fn synthetic(nonce: u64, size: usize) -> Self {
        // An exact-length iterator collects straight into the shared
        // allocation, with no intermediate `Vec`.
        let nonce = nonce.to_be_bytes();
        let payload: Arc<[u8]> = (0..size.max(8))
            .map(|i| match nonce.get(i) {
                Some(&b) => b,
                None => (i % 251) as u8,
            })
            .collect();
        Transaction::from_shared(payload)
    }

    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload size in bytes (the `L` of Table 1 at block granularity).
    pub fn size(&self) -> usize {
        self.payload.len()
    }
}

impl From<Vec<u8>> for Transaction {
    fn from(payload: Vec<u8>) -> Self {
        Transaction::new(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_is_content_derived() {
        let a = Transaction::new(vec![1, 2, 3]);
        let b = Transaction::new(vec![1, 2, 3]);
        let c = Transaction::new(vec![1, 2, 4]);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn synthetic_unique_per_nonce() {
        let a = Transaction::synthetic(1, 64);
        let b = Transaction::synthetic(2, 64);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.size(), 64);
        assert_eq!(b.size(), 64);
    }

    #[test]
    fn a_pooled_copy_with_the_same_bytes_is_shared_and_any_other_answer_is_not() {
        let pooled = Transaction::new(b"pay carol 2".to_vec());
        let bytes = pooled.payload().to_vec();
        let shared = Transaction::from_slice_or(&bytes, &|id| (id == pooled.id()).then(|| pooled.clone()));
        assert_eq!(shared.payload().as_ptr(), pooled.payload().as_ptr(), "the pool's buffer");
        // A lookup that misses, or answers other bytes, gets a copy.
        let impostor = Transaction::new(b"other".to_vec());
        let lookups: [&dyn Fn(TxId) -> Option<Transaction>; 2] = [&|_| None, &|_| Some(impostor.clone())];
        for lookup in lookups {
            let copy = Transaction::from_slice_or(&bytes, lookup);
            assert_eq!(copy, Transaction::from_slice(&bytes));
            assert_ne!(copy.payload().as_ptr(), pooled.payload().as_ptr());
        }
    }

    #[test]
    fn synthetic_min_size() {
        // Requested sizes below 8 are padded to hold the nonce.
        assert_eq!(Transaction::synthetic(1, 0).size(), 8);
    }
}
