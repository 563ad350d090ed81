//! The byte codec under every format: one panic-free reader over a
//! borrowed slice, and one block body.
//!
//! Three formats are built on it, each in its own module: peer frames
//! ([`crate::wire`]), client frames ([`crate::client`]) and the WAL and
//! snapshot records of `tobsvd-storage`. Integers are big-endian in all
//! of them. A decoder reads a borrowed slice through [`Reader`]; an
//! encoder appends to a `Vec<u8>`. Each format maps [`Truncated`] and
//! [`BodyError`] into its own error with `From`.
//!
//! A block body is what a peer ships under a hash announcement or a
//! `BlockResponse`, and what a WAL `Block` record persists after the
//! parent and expected ids:
//!
//! ```text
//! u32 proposer, u64 view, u32 tx count (≤ MAX_TXS_PER_BLOCK),
//! then per tx: u32 size (≤ MAX_TX_BYTES), the payload bytes
//! ```
//!
//! Encoding and decoding enforce the same two limits, so a node cannot
//! write a body that every reader drops.

use tobsvd_crypto::Digest;

use crate::ids::ValidatorId;
use crate::tx::Transaction;
use crate::view::View;

/// Maximum transactions per block body.
pub const MAX_TXS_PER_BLOCK: u32 = 1 << 16;
/// Maximum transaction payload size in a block body.
pub const MAX_TX_BYTES: u32 = 1 << 20;

/// The one error of a [`Reader`]: the input ended before the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

/// A panic-free cursor over a borrowed byte slice. Every read fails
/// with [`Truncated`], consuming nothing, when too few bytes remain.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads `n` raw bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (Some(head), Some(rest)) = (self.rest.get(..n), self.rest.get(n..)) else {
            return Err(Truncated);
        };
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        self.take(N)?.try_into().map_err(|_| Truncated)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(u8::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads a 32-byte digest.
    pub fn digest(&mut self) -> Result<Digest, Truncated> {
        self.array().map(Digest::from_bytes)
    }
}

/// Why a block body cannot be encoded or decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyError {
    /// The input ended inside the body.
    Truncated,
    /// A transaction count or size over its limit; names which.
    Limit(&'static str),
}

impl From<Truncated> for BodyError {
    fn from(_: Truncated) -> Self {
        BodyError::Truncated
    }
}

/// A decoded block body: what `BlockStore::append` takes besides the
/// parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockBody {
    /// Proposing validator.
    pub proposer: ValidatorId,
    /// View the block was proposed in.
    pub view: View,
    /// The batched transactions, each copied once out of the input.
    pub txs: Vec<Transaction>,
}

/// Appends one block body to `out`.
///
/// # Errors
///
/// [`BodyError::Limit`] when `txs` exceeds [`MAX_TXS_PER_BLOCK`] or a
/// payload exceeds [`MAX_TX_BYTES`]; `out` then holds a partial body
/// the caller discards.
pub fn put_block_body(
    out: &mut Vec<u8>,
    proposer: ValidatorId,
    view: View,
    txs: &[Transaction],
) -> Result<(), BodyError> {
    let count = u32::try_from(txs.len()).ok().filter(|n| *n <= MAX_TXS_PER_BLOCK);
    out.extend_from_slice(&proposer.raw().to_be_bytes());
    out.extend_from_slice(&view.number().to_be_bytes());
    out.extend_from_slice(&count.ok_or(BodyError::Limit("tx count"))?.to_be_bytes());
    for tx in txs {
        let size = u32::try_from(tx.size()).ok().filter(|n| *n <= MAX_TX_BYTES);
        out.extend_from_slice(&size.ok_or(BodyError::Limit("tx size"))?.to_be_bytes());
        out.extend_from_slice(tx.payload());
    }
    Ok(())
}

/// Reads one block body, copying each payload once out of the input.
///
/// # Errors
///
/// [`BodyError::Truncated`] on a short input, [`BodyError::Limit`] on a
/// count or size over its limit.
pub fn read_block_body(r: &mut Reader<'_>) -> Result<BlockBody, BodyError> {
    let proposer = ValidatorId::new(r.u32()?);
    let view = View::new(r.u64()?);
    let count = r.u32()?;
    if count > MAX_TXS_PER_BLOCK {
        return Err(BodyError::Limit("tx count"));
    }
    let mut txs = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let size = r.u32()?;
        if size > MAX_TX_BYTES {
            return Err(BodyError::Limit("tx size"));
        }
        txs.push(Transaction::from_slice(r.take(size as usize)?));
    }
    Ok(BlockBody { proposer, view, txs })
}

/// Length in bytes of the body [`put_block_body`] writes for `txs`,
/// whatever the limits: byte accounting measures every block it is
/// shown.
pub fn block_body_len(txs: &[Transaction]) -> u64 {
    4 + 8 + 4 + txs.iter().map(|t| 4 + t.payload().len() as u64).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_big_endian_and_never_past_the_end() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.u64(), Ok(3));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u32(), Err(Truncated), "a short read fails");
        assert_eq!(r.take(1), Ok(&[9u8][..]), "and consumes nothing");
        assert_eq!((r.u8(), r.take(0)), (Err(Truncated), Ok(&[][..])));
        assert_eq!(Reader::new(&[0; 31]).digest(), Err(Truncated));
        assert_eq!(Reader::new(&[7; 32]).digest(), Ok(Digest::from_bytes([7; 32])));
        assert_eq!(Reader::new(&bytes).take(usize::MAX), Err(Truncated));
    }

    fn sample_txs() -> Vec<Transaction> {
        vec![Transaction::new(vec![1, 2, 3]), Transaction::new(vec![])]
    }

    #[test]
    fn body_round_trips_and_measures_what_it_writes() {
        let (proposer, view, txs) = (ValidatorId::new(4), View::new(9), sample_txs());
        let mut out = Vec::new();
        put_block_body(&mut out, proposer, view, &txs).expect("within limits");
        assert_eq!(out.len() as u64, block_body_len(&txs));
        let mut r = Reader::new(&out);
        assert_eq!(read_block_body(&mut r), Ok(BlockBody { proposer, view, txs }));
        assert_eq!(r.remaining(), 0);
        for cut in 0..out.len() {
            assert_eq!(read_block_body(&mut Reader::new(&out[..cut])), Err(BodyError::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn over_limit_bodies_are_refused_both_ways_but_still_measured() {
        let big = vec![Transaction::new(vec![0; MAX_TX_BYTES as usize + 1])];
        let mut out = Vec::new();
        assert_eq!(
            put_block_body(&mut out, ValidatorId::new(0), View::new(1), &big),
            Err(BodyError::Limit("tx size"))
        );
        assert_eq!(block_body_len(&big), 4 + 8 + 4 + 4 + u64::from(MAX_TX_BYTES) + 1);

        // A header announcing one transaction too many, or one byte too
        // many, is refused before any payload is read.
        let mut header = Vec::new();
        put_block_body(&mut header, ValidatorId::new(0), View::new(1), &[]).expect("empty body");
        header[12..16].copy_from_slice(&(MAX_TXS_PER_BLOCK + 1).to_be_bytes());
        assert_eq!(read_block_body(&mut Reader::new(&header)), Err(BodyError::Limit("tx count")));
        header[12..16].copy_from_slice(&1u32.to_be_bytes());
        header.extend_from_slice(&(MAX_TX_BYTES + 1).to_be_bytes());
        assert_eq!(read_block_body(&mut Reader::new(&header)), Err(BodyError::Limit("tx size")));
    }
}
