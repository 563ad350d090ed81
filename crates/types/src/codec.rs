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
//!
//! A reader made with [`Reader::pooled`] carries its caller's pool
//! lookup, and every body it reads takes a transaction the pool holds
//! with the same bytes from the pool instead of copying it
//! ([`Reader::transaction`]). The TCP node decodes peer frames this
//! way: a proposal's transactions are ones its peers already pushed to
//! its pool, so n proposals of one batch share one buffer per payload.
//!
//! A known tip's bodies are compared, not decoded. Every view each
//! awake validator proposes, votes and LOGs on the logs it holds, and
//! each of those frames inlines its tip block, so a node mostly reads
//! bodies it already stores. `skip_stored_bodies` compares such a
//! frame's bodies byte for byte with the stored blocks and consumes
//! them: no payload is copied, hashed or looked up in the pool. A body
//! that differs in any byte, ends early or breaks a limit is decoded as
//! before, so what a tampered frame decodes to, and what it appends to
//! the store, does not depend on the compare.

use tobsvd_crypto::Digest;

use crate::block::{Block, BlockId};
use crate::ids::ValidatorId;
use crate::store::BlockStore;
use crate::tx::{Transaction, TxId};
use crate::view::View;

/// Maximum transactions per block body.
pub const MAX_TXS_PER_BLOCK: u32 = 1 << 16;
/// Maximum transaction payload size in a block body.
pub const MAX_TX_BYTES: u32 = 1 << 20;

/// The one error of a [`Reader`]: the input ended before the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

/// A panic-free cursor over a borrowed byte slice. Every read fails
/// with [`Truncated`], consuming nothing, when too few bytes remain. A
/// copy is a saved position: assigning it back rewinds.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
    /// Where [`Reader::transaction`] looks a payload up first.
    pool: Option<&'a dyn Fn(TxId) -> Option<Transaction>>,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf, pool: None }
    }

    /// [`Reader::new`], with `pool` answering [`Reader::transaction`]'s
    /// lookups.
    pub fn pooled(buf: &'a [u8], pool: &'a dyn Fn(TxId) -> Option<Transaction>) -> Self {
        Reader { rest: buf, pool: Some(pool) }
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

    /// Reads `n` bytes as a transaction payload: the pool's transaction
    /// when it holds these bytes, else one copy out of the input.
    pub fn transaction(&mut self, n: usize) -> Result<Transaction, Truncated> {
        let payload = self.take(n)?;
        Ok(match self.pool {
            Some(pool) => Transaction::from_slice_or(payload, pool),
            None => Transaction::from_slice(payload),
        })
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
    /// The batched transactions: each the reader's pooled copy, or
    /// copied once out of the input.
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

/// Reads one block body through [`Reader::transaction`]: each payload
/// is the reader's pooled copy or one copy out of the input.
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
        txs.push(r.transaction(size as usize)?);
    }
    Ok(BlockBody { proposer, view, txs })
}

/// Consumes `count` block bodies from `r` and returns `true` when they
/// are byte for byte the bodies of the stored chain that runs from
/// `base` (a block id at its height) up to `tip`; else leaves `r` where
/// it was and returns `false`, for the caller to decode them.
///
/// A `true` stands for what decoding and appending the bodies would
/// do: [`read_block_body`] would read the stored blocks' fields within
/// its limits, and appending them onto `base` would rebuild the stored
/// ids up to `tip` and store nothing new. The compare allocates per
/// frame one list of the chain's ids, and per transaction nothing: no
/// payload is copied, hashed or looked up.
pub(crate) fn skip_stored_bodies(
    r: &mut Reader<'_>,
    store: &BlockStore,
    count: u64,
    base: (BlockId, u64),
    tip: BlockId,
) -> bool {
    let start = *r;
    let (Some(from), Some(top)) = (base.1.checked_add(1), base.1.checked_add(count)) else {
        return false;
    };
    let same = count > 0
        && store.height(tip) == Some(top)
        && store.chain_range(tip, from).is_some_and(|ids| {
            ids.iter().enumerate().all(|(i, id)| {
                store.get(*id).is_some_and(|block| {
                    (i > 0 || block.parent() == base.0) && stored_body_matches(r, &block) == Ok(true)
                })
            })
        });
    if !same {
        *r = start;
    }
    same
}

/// Whether the next body `r` holds is exactly what [`put_block_body`]
/// writes for `block`, within the limits [`read_block_body`] enforces;
/// reads up to the first difference.
fn stored_body_matches(r: &mut Reader<'_>, block: &Block) -> Result<bool, Truncated> {
    let txs = block.txs();
    if block.proposer() != Some(ValidatorId::new(r.u32()?))
        || r.u64()? != block.view().number()
        || usize::try_from(r.u32()?) != Ok(txs.len())
        || txs.len() > MAX_TXS_PER_BLOCK as usize
    {
        return Ok(false);
    }
    for tx in txs {
        let size = r.u32()?;
        if size > MAX_TX_BYTES || usize::try_from(size) != Ok(tx.size()) || r.take(tx.size())? != tx.payload() {
            return Ok(false);
        }
    }
    Ok(true)
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
    fn a_pooled_reader_shares_the_pools_payloads_and_decodes_the_same_body() {
        let (proposer, view) = (ValidatorId::new(4), View::new(9));
        let txs = vec![Transaction::new(vec![1, 2, 3]), Transaction::new(vec![4, 5])];
        let mut out = Vec::new();
        put_block_body(&mut out, proposer, view, &txs).expect("within limits");
        // The pool holds the first transaction only.
        let held = txs[0].clone();
        let pool = |id: TxId| (id == held.id()).then(|| held.clone());
        let body = read_block_body(&mut Reader::pooled(&out, &pool)).expect("decodes");
        assert_eq!(body, BlockBody { proposer, view, txs: txs.clone() });
        assert_eq!(body.txs[0].payload().as_ptr(), held.payload().as_ptr(), "shared");
        let input = out.as_ptr_range();
        assert!(!input.contains(&body.txs[1].payload().as_ptr()), "copied out of the input");
    }

    #[test]
    fn stored_bodies_are_consumed_only_when_every_byte_matches() {
        let store = BlockStore::new();
        let g = store.genesis();
        let (proposer, view, txs) = (ValidatorId::new(4), View::new(9), sample_txs());
        let tip = store.append(g, proposer, view, txs.clone()).expect("appends");
        let mut frame = Vec::new();
        put_block_body(&mut frame, proposer, view, &txs).expect("within limits");
        frame.push(0xAB);

        let mut r = Reader::new(&frame);
        assert!(skip_stored_bodies(&mut r, &store, 1, (g, 0), tip));
        assert_eq!(r.remaining(), 1, "the body is consumed, what follows is not");

        // Another base, height or tip, or any flipped byte: `r` is left
        // where it was, for the decode.
        let other = store.append(g, proposer, View::new(10), vec![]).expect("appends");
        for (base, count, want) in [((other, 0), 1, tip), ((g, 1), 1, tip), ((g, 0), 2, tip), ((g, 0), 1, other)] {
            let mut r = Reader::new(&frame);
            assert!(!skip_stored_bodies(&mut r, &store, count, base, want));
            assert_eq!(r.remaining(), frame.len());
        }
        for i in 0..frame.len() - 1 {
            let mut flipped = frame.clone();
            flipped[i] ^= 0x01;
            let mut r = Reader::new(&flipped);
            assert!(!skip_stored_bodies(&mut r, &store, 1, (g, 0), tip), "flip at byte {i}");
            assert_eq!(r.remaining(), frame.len());
        }
    }

    #[test]
    fn a_stored_block_over_the_limits_is_decoded_not_skipped() {
        // `BlockStore::append` takes any body, but a reader refuses one
        // over the limits, so its bytes never pass as a stored block.
        let store = BlockStore::new();
        let g = store.genesis();
        let over = [
            (1, vec![Transaction::new(vec![0; MAX_TX_BYTES as usize + 1])], "tx size"),
            (2, vec![Transaction::new(vec![]); MAX_TXS_PER_BLOCK as usize + 1], "tx count"),
        ];
        for (view, txs, limit) in over {
            let tip = store.append(g, ValidatorId::new(0), View::new(view), txs.clone()).expect("appends");
            let mut frame = [0u32.to_be_bytes().as_slice(), &view.to_be_bytes(), &(txs.len() as u32).to_be_bytes()].concat();
            for tx in &txs {
                frame.extend_from_slice(&(tx.size() as u32).to_be_bytes());
                frame.extend_from_slice(tx.payload());
            }
            let mut r = Reader::new(&frame);
            assert!(!skip_stored_bodies(&mut r, &store, 1, (g, 0), tip), "{limit}");
            assert_eq!(read_block_body(&mut r), Err(BodyError::Limit(limit)));
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
