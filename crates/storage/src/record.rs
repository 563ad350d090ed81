//! WAL record and snapshot types with their binary codecs.

use tobsvd_types::codec::{self, BlockBody, Reader};
use tobsvd_types::{wire, BlockId, Transaction, ValidatorId, View};

use crate::codec::{put_frame, read_frame};
use crate::WalError;

const TAG_BLOCK: u8 = 1;
const TAG_DECIDED: u8 = 2;
const TAG_SNAPSHOT: u8 = 3;

/// Ceiling on blocks carried by one snapshot, mirroring the fetch
/// plane's [`wire::MAX_LOG_LEN`] chain bound.
pub const MAX_SNAPSHOT_BLOCKS: u64 = wire::MAX_LOG_LEN;

/// The content of one block, persisted self-contained: everything
/// needed to re-`append` it into a [`tobsvd_types::BlockStore`], plus
/// the content hash the append must reproduce.
///
/// Persisted as the parent and expected content hashes, then the block
/// body peer frames carry ([`tobsvd_types::codec::put_block_body`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockRecord {
    /// Parent block id.
    pub parent: BlockId,
    /// Content hash the replayed append must reproduce; a mismatch
    /// marks the record corrupt.
    pub expected_id: BlockId,
    /// Proposing validator.
    pub proposer: ValidatorId,
    /// View the block was proposed in.
    pub view: View,
    /// The batched transactions.
    pub txs: Vec<Transaction>,
}

/// One WAL entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Block content newly anchored under the decided log.
    Block(BlockRecord),
    /// The decided head advanced to `(tip, len)`.
    Decided {
        /// New decided tip.
        tip: BlockId,
        /// New decided length (blocks, genesis included).
        len: u64,
    },
}

/// A checkpoint: the full decided chain up to `(tip, len)`, so the
/// snapshot alone reconstructs the prefix it covers without any WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Decided tip at checkpoint time.
    pub tip: BlockId,
    /// Decided length at checkpoint time.
    pub len: u64,
    /// Every non-genesis decided block, parent-first.
    pub blocks: Vec<BlockRecord>,
}

/// What a [`crate::DurableStore`] hands back on load: the latest valid
/// snapshot, the decodable WAL suffix, and how many bytes of torn or
/// corrupt tail were discarded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// Latest snapshot, if one exists and decodes.
    pub snapshot: Option<Snapshot>,
    /// WAL records in append order (post-snapshot suffix).
    pub wal: Vec<WalRecord>,
    /// Bytes dropped as torn/corrupt (WAL tail plus any undecodable
    /// snapshot).
    pub torn_bytes: u64,
}

impl BlockRecord {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WalError> {
        out.extend_from_slice(self.parent.0.as_bytes());
        out.extend_from_slice(self.expected_id.0.as_bytes());
        Ok(codec::put_block_body(out, self.proposer, self.view, &self.txs)?)
    }

    fn read(r: &mut Reader<'_>) -> Result<BlockRecord, WalError> {
        let parent = BlockId(r.digest()?);
        let expected_id = BlockId(r.digest()?);
        let BlockBody { proposer, view, txs } = codec::read_block_body(r)?;
        Ok(BlockRecord { parent, expected_id, proposer, view, txs })
    }
}

/// Appends one framed WAL record to `out`.
///
/// # Errors
///
/// [`WalError::Limit`] when the record exceeds the codec bounds.
pub fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) -> Result<(), WalError> {
    let mut body = Vec::new();
    match rec {
        WalRecord::Block(b) => {
            body.push(TAG_BLOCK);
            b.put(&mut body)?;
        }
        WalRecord::Decided { tip, len } => {
            body.push(TAG_DECIDED);
            body.extend_from_slice(tip.0.as_bytes());
            body.extend_from_slice(&len.to_be_bytes());
        }
    }
    put_frame(out, &body)
}

fn decode_record_body(body: &[u8]) -> Result<WalRecord, WalError> {
    let mut r = Reader::new(body);
    let rec = match r.u8()? {
        TAG_BLOCK => WalRecord::Block(BlockRecord::read(&mut r)?),
        TAG_DECIDED => {
            let tip = BlockId(r.digest()?);
            let len = r.u64()?;
            WalRecord::Decided { tip, len }
        }
        _ => return Err(WalError::Corrupt("unknown record tag")),
    };
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes in record"));
    }
    Ok(rec)
}

/// Decodes a WAL image into its record prefix plus the length of the
/// torn/corrupt tail.
///
/// Never fails and never panics: the first frame that is truncated,
/// CRC-invalid or structurally malformed ends the decode, and every
/// byte from that frame on is reported as torn (an interrupted append
/// makes everything after it unreliable — classic WAL truncation
/// semantics).
pub fn decode_wal(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut r = Reader::new(bytes);
    let mut records = Vec::new();
    loop {
        if r.remaining() == 0 {
            return (records, 0);
        }
        let torn = r.remaining() as u64;
        match read_frame(&mut r).and_then(decode_record_body) {
            Ok(rec) => records.push(rec),
            Err(_) => return (records, torn),
        }
    }
}

/// Encodes a snapshot as a single framed image.
///
/// # Errors
///
/// [`WalError::Limit`] when the snapshot exceeds the codec bounds.
pub fn encode_snapshot(snap: &Snapshot) -> Result<Vec<u8>, WalError> {
    if snap.blocks.len() as u64 > MAX_SNAPSHOT_BLOCKS {
        return Err(WalError::Limit("snapshot over chain bound"));
    }
    let mut body = Vec::new();
    body.push(TAG_SNAPSHOT);
    body.extend_from_slice(snap.tip.0.as_bytes());
    body.extend_from_slice(&snap.len.to_be_bytes());
    let count =
        u32::try_from(snap.blocks.len()).map_err(|_| WalError::Limit("snapshot over u32"))?;
    body.extend_from_slice(&count.to_be_bytes());
    for b in &snap.blocks {
        b.put(&mut body)?;
    }
    let mut out = Vec::new();
    put_frame(&mut out, &body)?;
    Ok(out)
}

/// Decodes a snapshot image.
///
/// # Errors
///
/// [`WalError::Corrupt`]/[`WalError::Limit`] on any framing, CRC or
/// structural violation — the caller falls back to WAL-only recovery.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, WalError> {
    let mut outer = Reader::new(bytes);
    let body = read_frame(&mut outer)?;
    if outer.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes after snapshot"));
    }
    let mut r = Reader::new(body);
    if r.u8()? != TAG_SNAPSHOT {
        return Err(WalError::Corrupt("not a snapshot image"));
    }
    let tip = BlockId(r.digest()?);
    let len = r.u64()?;
    let count = r.u32()?;
    if u64::from(count) > MAX_SNAPSHOT_BLOCKS {
        return Err(WalError::Limit("snapshot over chain bound"));
    }
    let mut blocks = Vec::new();
    for _ in 0..count {
        blocks.push(BlockRecord::read(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes in snapshot"));
    }
    Ok(Snapshot { tip, len, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Digest;

    fn sample_block(n: u64) -> BlockRecord {
        BlockRecord {
            parent: BlockId(Digest::from_bytes([n as u8; 32])),
            expected_id: BlockId(Digest::from_bytes([n as u8 + 1; 32])),
            proposer: ValidatorId::new(3),
            view: View::new(n),
            txs: vec![Transaction::synthetic(n, 40), Transaction::new(vec![])],
        }
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            WalRecord::Block(sample_block(1)),
            WalRecord::Decided { tip: BlockId(Digest::from_bytes([7; 32])), len: 2 },
            WalRecord::Block(sample_block(2)),
        ];
        let mut image = Vec::new();
        for r in &records {
            encode_record(&mut image, r).unwrap();
        }
        let (decoded, torn) = decode_wal(&image);
        assert_eq!(decoded, records);
        assert_eq!(torn, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut image = Vec::new();
        encode_record(&mut image, &WalRecord::Block(sample_block(1))).unwrap();
        let keep = image.len();
        encode_record(&mut image, &WalRecord::Decided {
            tip: BlockId(Digest::from_bytes([9; 32])),
            len: 2,
        })
        .unwrap();
        // Tear the second record at every possible byte boundary.
        for cut in keep..image.len() {
            let (decoded, torn) = decode_wal(&image[..cut]);
            assert_eq!(decoded.len(), 1, "cut at {cut}");
            assert_eq!(torn, (cut - keep) as u64, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_pass_crc() {
        let mut image = Vec::new();
        encode_record(&mut image, &WalRecord::Block(sample_block(1))).unwrap();
        for i in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                if let Some(b) = bad.get_mut(i) {
                    *b ^= 1 << bit;
                }
                let (decoded, torn) = decode_wal(&bad);
                assert!(decoded.is_empty(), "flip at {i}.{bit} must invalidate the frame");
                assert_eq!(torn, bad.len() as u64);
            }
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let snap = Snapshot {
            tip: BlockId(Digest::from_bytes([5; 32])),
            len: 3,
            blocks: vec![sample_block(1), sample_block(2)],
        };
        let image = encode_snapshot(&snap).unwrap();
        assert_eq!(decode_snapshot(&image).unwrap(), snap);
        for i in 0..image.len() {
            let mut bad = image.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x10;
            }
            assert!(decode_snapshot(&bad).is_err(), "flip at {i} must be rejected");
        }
        assert!(decode_snapshot(&image[..image.len() - 1]).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }

    #[test]
    fn oversized_records_are_limit_errors() {
        let mut rec = sample_block(1);
        rec.txs = vec![Transaction::new(vec![0; (codec::MAX_TX_BYTES + 1) as usize])];
        let mut out = Vec::new();
        assert!(matches!(
            encode_record(&mut out, &WalRecord::Block(rec)),
            Err(WalError::Limit(_))
        ));
    }
}
