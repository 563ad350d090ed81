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

    fn from_shared(payload: Arc<[u8]>) -> Self {
        let mut h = Hasher::new("tobsvd/tx");
        h.update(&payload);
        Transaction { id: TxId(h.finalize()), payload }
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
    fn synthetic_min_size() {
        // Requested sizes below 8 are padded to hold the nonce.
        assert_eq!(Transaction::synthetic(1, 0).size(), 8);
    }
}
