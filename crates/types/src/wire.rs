//! Binary wire codec for [`SignedMessage`] — content-addressed delta
//! sync.
//!
//! Used by the real TCP runtime (`tobsvd-runtime`) and by the
//! simulator's byte accounting. Log-carrying payloads are framed as
//! *hash announcements*: the chain tip hash, a short parent-hash list
//! naming recent ancestors, and a bounded inline window of suffix
//! blocks (the newest [`INLINE_WINDOW`] blocks, transactions included).
//! Everything below the window crosses the wire as 32-byte block ids
//! only; receivers that are missing the referenced blocks fetch them
//! with the [`crate::Payload::BlockRequest`] /
//! [`crate::Payload::BlockResponse`] subprotocol instead of every
//! message re-shipping the whole chain. Per message this turns the old
//! O(chain length) block payload into O(1) blocks + O(1) hashes, which
//! is where the order-of-magnitude wire-byte reduction of the
//! `sync_traffic` bench comes from.
//!
//! Block ids are re-derived by the decoder: inline suffix blocks are
//! appended to the local [`BlockStore`] and the reconstructed tip must
//! equal the announced tip hash; fetched blocks likewise chain up to the
//! response's tip. A tampered block, ancestor hash or window flag
//! therefore fails decoding outright ([`WireError::BadChain`]), and the
//! signature over the (sender, payload) binding authenticates the
//! announced tip itself. When the block *below* the inline window is not
//! in the local store, decoding fails with [`WireError::MissingBlocks`],
//! which carries the missing id plus a fetch-start hint derived from the
//! parent-hash list — exactly what the caller needs to park the frame
//! and issue a `BlockRequest`.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! u8  version (=2)
//! u32 sender
//! u8  tag           0 = LOG, 1 = PROPOSAL, 2 = VOTE, 3 = RECOVERY,
//!                   4 = FINALITY-VOTE, 5 = BLOCK-REQUEST, 6 = BLOCK-RESPONSE,
//!                   7 = CERTIFICATE
//! ... tag-specific header (instance / view + vrf + proof / epoch)
//! tags 0–4, 7 — log announcement:
//!   u64 log length  (number of blocks incl. genesis)
//!   32B tip id
//!   u8  k           inline suffix blocks (= min(len−1, INLINE_WINDOW))
//!   u8  a           ancestor hashes listed (= min(len−1−k, ANCESTOR_WINDOW))
//!   a × 32B ancestor ids, heights len−2−k downward (newest first)
//!   if k > 0: 32B window-parent id (block at height len−1−k), then
//!   k blocks, lowest height first:
//!     u32 proposer, u64 view, u32 tx count, txs (u32 size + bytes)
//! tag 5 — block request: 32B tip, u64 from_height
//! tag 6 — block response: 32B tip, u64 from_height, u64 count,
//!   32B anchor id (block at height from_height−1), then `count` blocks
//!   in the same body format as above
//! tag 7 — certificate, after the announcement: u8 signer word count
//!   (minimal — the top word must be non-zero, so each signer set has
//!   exactly one encoding), that many u64 bitmap words, 32B aggregate
//!   signature digest
//! 32B signature digest
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tobsvd_crypto::{AggregateSignature, Digest, Signature, VrfOutput, VrfProof};

use crate::block::{Block, BlockId};
use crate::ids::ValidatorId;
use crate::log::Log;
use crate::message::{InstanceId, Payload, SignedMessage, SignerSet};
use crate::store::BlockStore;
use crate::tx::Transaction;
use crate::view::View;

/// Codec version byte (2 = delta-sync announcements).
pub const WIRE_VERSION: u8 = 2;

/// Suffix blocks inlined into a log announcement. One block suffices for
/// every honest protocol message (proposals/votes extend a
/// previously-announced chain by at most one block); receivers that are
/// further behind fetch the gap.
pub const INLINE_WINDOW: u64 = 1;

/// Ancestor hashes listed below the inline window, so an out-of-sync
/// receiver can locate the newest block it already has and request a
/// precise range instead of a full resync.
pub const ANCESTOR_WINDOW: u64 = 8;

/// Maximum blocks a single `BlockResponse` may carry.
pub const MAX_FETCH_BLOCKS: u64 = 4096;

/// Maximum transactions per block the decoder accepts.
pub const MAX_TXS_PER_BLOCK: u32 = 1 << 16;
/// Maximum transaction payload size the decoder accepts.
pub const MAX_TX_BYTES: u32 = 1 << 20;
/// Maximum log length the decoder accepts.
pub const MAX_LOG_LEN: u64 = 1 << 20;

/// Errors from [`decode_message`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the message was complete.
    Truncated,
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown payload tag.
    BadTag(u8),
    /// A length field exceeded its sanity bound.
    LimitExceeded(&'static str),
    /// The decoded blocks failed to link into the store, or the
    /// reconstructed chain contradicts the announced hashes.
    BadChain,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// The announcement references a chain whose blocks below the inline
    /// window are not in the local store. Carries what a fetch needs:
    /// the missing block id and a start-height hint (height of the
    /// newest listed ancestor already present locally, plus one; `1`
    /// when none of the listed ancestors are known).
    MissingBlocks {
        /// The first (highest) referenced block that is locally unknown.
        missing: BlockId,
        /// Suggested `from_height` for the corresponding `BlockRequest`.
        from_height: u64,
    },
    /// Encode-side: the message references chain blocks that are not in
    /// the local store (a `Log` inconsistent with its store, a response
    /// range the responder does not hold, or a genesis block where a
    /// proper block body is required). The frame cannot be produced.
    UnstoredChain,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown payload tag {t}"),
            WireError::LimitExceeded(what) => write!(f, "{what} exceeds decoder limit"),
            WireError::BadChain => write!(f, "decoded blocks do not form the announced chain"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::MissingBlocks { missing, from_height } => {
                write!(f, "chain references unknown block {missing} (fetch from height {from_height})")
            }
            WireError::UnstoredChain => {
                write!(f, "referenced chain blocks are not in the local store")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn payload_tag(payload: &Payload) -> u8 {
    match payload {
        Payload::Log { .. } => 0,
        Payload::Proposal { .. } => 1,
        Payload::Vote { .. } => 2,
        Payload::Recovery { .. } => 3,
        Payload::FinalityVote { .. } => 4,
        Payload::BlockRequest { .. } => 5,
        Payload::BlockResponse { .. } => 6,
        Payload::Certificate { .. } => 7,
    }
}

/// The three byte-accounting classes of peer traffic: what the
/// runtime's per-kind counters (and the simulator's per-kind metrics)
/// split wire bytes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageClass {
    /// LOG / PROPOSAL / VOTE / RECOVERY / FINALITY-VOTE announcements.
    Announce,
    /// The fetch subprotocol (`BlockRequest` / `BlockResponse`).
    Sync,
    /// Quorum certificates of the aggregation plane.
    Certificate,
}

impl MessageClass {
    /// The class of a decoded payload.
    pub fn of(payload: &Payload) -> Self {
        Self::of_tag(payload_tag(payload))
    }

    fn of_tag(tag: u8) -> Self {
        match tag {
            5 | 6 => MessageClass::Sync,
            7 => MessageClass::Certificate,
            _ => MessageClass::Announce,
        }
    }
}

/// Claimed sender and byte class of a raw peer frame, read off the fixed
/// header (`version ‖ sender ‖ tag`) without touching the body — so it
/// works on frames that cannot be decoded yet
/// ([`WireError::MissingBlocks`]). `None` when the frame is shorter
/// than the header. The claim is unauthenticated until the frame
/// decodes and its signature verifies.
pub fn peek_header(frame: &[u8]) -> Option<(ValidatorId, MessageClass)> {
    let sender = <[u8; 4]>::try_from(frame.get(1..5)?).ok()?;
    let tag = *frame.get(5)?;
    Some((ValidatorId::new(u32::from_be_bytes(sender)), MessageClass::of_tag(tag)))
}

/// Minimal number of bitmap words needed to carry `signers` (index of
/// the highest non-zero word, plus one).
fn signer_word_count(signers: &SignerSet) -> usize {
    signers.words().iter().rposition(|w| *w != 0).map_or(0, |i| i + 1)
}

/// Encodes a message, reading referenced blocks from `store`.
///
/// # Errors
///
/// Returns [`WireError::UnstoredChain`] if the log's (or response
/// range's) blocks are missing from `store`. A constructed `Log` always
/// has its chain stored and honest responders only serve ranges they
/// hold, so this signals a caller bug or corrupted state — but it must
/// not crash a validator, so the frame is refused instead.
pub fn encode_message(msg: &SignedMessage, store: &BlockStore) -> Result<Bytes, WireError> {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_u8(WIRE_VERSION);
    buf.put_u32(msg.sender().raw());
    buf.put_u8(payload_tag(msg.payload()));
    match msg.payload() {
        Payload::Log { instance, log } => {
            buf.put_u64(instance.0);
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::Proposal { view, log, vrf, proof } => {
            buf.put_u64(view.number());
            buf.put_slice(vrf.0.as_bytes());
            buf.put_slice(proof.0.as_bytes());
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::Vote { instance, log } => {
            buf.put_u64(instance.0);
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::Recovery { from_view, log } => {
            buf.put_u64(from_view.number());
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::FinalityVote { epoch, log } => {
            buf.put_u64(*epoch);
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::BlockRequest { tip, from_height } => {
            buf.put_slice(tip.0.as_bytes());
            buf.put_u64(*from_height);
        }
        Payload::Certificate { instance, log, signers, agg } => {
            buf.put_u64(instance.0);
            encode_announcement(&mut buf, log, store)?;
            let wc = signer_word_count(signers);
            buf.put_u8(wc as u8);
            for word in signers.words().iter().take(wc) {
                buf.put_u64(*word);
            }
            buf.put_slice(agg.as_digest().as_bytes());
        }
        Payload::BlockResponse { tip, from_height, count } => {
            buf.put_slice(tip.0.as_bytes());
            buf.put_u64(*from_height);
            buf.put_u64(*count);
            let anchor = store
                .ancestor_at(*tip, from_height.saturating_sub(1))
                .ok_or(WireError::UnstoredChain)?;
            buf.put_slice(anchor.0.as_bytes());
            let ids = store
                .chain_range(*tip, *from_height)
                .ok_or(WireError::UnstoredChain)?;
            debug_assert_eq!(ids.len() as u64, *count, "count must match the served range");
            for id in ids {
                let block = store.get(id).ok_or(WireError::UnstoredChain)?;
                encode_block_body(&mut buf, &block)?;
            }
        }
    }
    buf.put_slice(msg.signature().as_digest().as_bytes());
    Ok(buf.freeze())
}

fn announcement_windows(len: u64) -> (u64, u64) {
    let k = (len - 1).min(INLINE_WINDOW);
    let a = (len - 1 - k).min(ANCESTOR_WINDOW);
    (k, a)
}

fn encode_announcement(
    buf: &mut BytesMut,
    log: &Log,
    store: &BlockStore,
) -> Result<(), WireError> {
    let len = log.len();
    buf.put_u64(len);
    buf.put_slice(log.tip().0.as_bytes());
    let (k, a) = announcement_windows(len);
    buf.put_u8(k as u8);
    buf.put_u8(a as u8);
    // Ancestor hashes, newest first: heights len−2−k down to len−1−k−a.
    for i in 0..a {
        let height = len - 2 - k - i;
        let id = store
            .ancestor_at(log.tip(), height)
            .ok_or(WireError::UnstoredChain)?;
        buf.put_slice(id.0.as_bytes());
    }
    if k > 0 {
        let base_height = len - 1 - k;
        let parent = store
            .ancestor_at(log.tip(), base_height)
            .ok_or(WireError::UnstoredChain)?;
        buf.put_slice(parent.0.as_bytes());
        let ids = store
            .chain_range(log.tip(), base_height + 1)
            .ok_or(WireError::UnstoredChain)?;
        for id in ids {
            let block = store.get(id).ok_or(WireError::UnstoredChain)?;
            encode_block_body(buf, &block)?;
        }
    }
    Ok(())
}

fn encode_block_body(buf: &mut BytesMut, block: &Block) -> Result<(), WireError> {
    // Genesis carries no proposer and is never shipped in a body; a
    // genesis block here means the range arithmetic above went wrong.
    let proposer = block.proposer().ok_or(WireError::UnstoredChain)?;
    buf.put_u32(proposer.raw());
    buf.put_u64(block.view().number());
    buf.put_u32(block.txs().len() as u32);
    for tx in block.txs() {
        buf.put_u32(tx.payload().len() as u32);
        buf.put_slice(tx.payload());
    }
    Ok(())
}

fn block_body_len(block: &Block) -> u64 {
    4 + 8 + 4 + block.txs().iter().map(|t| 4 + t.payload().len() as u64).sum::<u64>()
}

/// Exact length in bytes of [`encode_message`]'s output, computed
/// without allocating — the simulator charges every delivery this
/// amount, so sim byte metrics and real TCP frames agree by
/// construction (pinned by a codec test).
///
/// # Errors
///
/// Fails under the same conditions as [`encode_message`].
pub fn encoded_len(msg: &SignedMessage, store: &BlockStore) -> Result<u64, WireError> {
    let header = match msg.payload() {
        Payload::Log { .. }
        | Payload::Vote { .. }
        | Payload::Recovery { .. }
        | Payload::FinalityVote { .. }
        | Payload::Certificate { .. } => 8,
        Payload::Proposal { .. } => 8 + 64,
        Payload::BlockRequest { .. } => 32 + 8,
        Payload::BlockResponse { .. } => 32 + 8 + 8,
    };
    let trailer = match msg.payload() {
        Payload::Certificate { signers, .. } => 1 + 8 * signer_word_count(signers) as u64 + 32,
        _ => 0,
    };
    let body = match msg.payload() {
        Payload::Log { log, .. }
        | Payload::Proposal { log, .. }
        | Payload::Vote { log, .. }
        | Payload::Recovery { log, .. }
        | Payload::FinalityVote { log, .. }
        | Payload::Certificate { log, .. } => {
            let (k, a) = announcement_windows(log.len());
            let mut n = 8 + 32 + 1 + 1 + 32 * a;
            if k > 0 {
                n += 32;
                let base_height = log.len() - 1 - k;
                let ids = store
                    .chain_range(log.tip(), base_height + 1)
                    .ok_or(WireError::UnstoredChain)?;
                for id in ids {
                    let block = store.get(id).ok_or(WireError::UnstoredChain)?;
                    n += block_body_len(&block);
                }
            }
            n
        }
        Payload::BlockRequest { .. } => 0,
        Payload::BlockResponse { tip, from_height, .. } => {
            let ids = store
                .chain_range(*tip, *from_height)
                .ok_or(WireError::UnstoredChain)?;
            let mut n = 32;
            for id in &ids {
                let block = store.get(*id).ok_or(WireError::UnstoredChain)?;
                n += block_body_len(&block);
            }
            n
        }
    };
    // version + sender + tag + header + body (+ certificate trailer) +
    // signature.
    Ok(1 + 4 + 1 + header + body + trailer + 32)
}

/// Nominal wire length of the same message under the pre-delta-sync
/// codec, which shipped the full chain (every block from height 1 to the
/// tip, transactions included) in every log-carrying message. Fetch
/// payloads return 0 — the counterfactual protocol has no fetch
/// traffic. Computed from the store's cumulative nominal sizes in O(1);
/// the simulator accumulates it alongside the real wire bytes so
/// delta-sync savings are measurable in a single run.
pub fn inline_equivalent_len(msg: &SignedMessage, store: &BlockStore) -> u64 {
    match msg.payload().log() {
        Some(log) => crate::ENVELOPE_NOMINAL_BYTES + log.nominal_size(store),
        None => 0,
    }
}

/// Decodes one message, inserting carried blocks into `store`.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input; in particular
/// [`WireError::MissingBlocks`] when the message is well-formed but
/// references blocks the local store does not hold yet (the caller
/// should park the frame and issue a `BlockRequest`). On success the
/// full buffer must have been consumed.
pub fn decode_message(mut buf: Bytes, store: &BlockStore) -> Result<SignedMessage, WireError> {
    let version = get_u8(&mut buf)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let sender = ValidatorId::new(get_u32(&mut buf)?);
    let tag = get_u8(&mut buf)?;
    let payload = match tag {
        0 => {
            let instance = InstanceId(get_u64(&mut buf)?);
            let log = decode_announcement(&mut buf, store)?;
            Payload::Log { instance, log }
        }
        1 => {
            let view = View::new(get_u64(&mut buf)?);
            let vrf = VrfOutput(get_digest(&mut buf)?);
            let proof = VrfProof(get_digest(&mut buf)?);
            let log = decode_announcement(&mut buf, store)?;
            Payload::Proposal { view, log, vrf, proof }
        }
        2 => {
            let instance = InstanceId(get_u64(&mut buf)?);
            let log = decode_announcement(&mut buf, store)?;
            Payload::Vote { instance, log }
        }
        3 => {
            let from_view = View::new(get_u64(&mut buf)?);
            let log = decode_announcement(&mut buf, store)?;
            Payload::Recovery { from_view, log }
        }
        4 => {
            let epoch = get_u64(&mut buf)?;
            let log = decode_announcement(&mut buf, store)?;
            Payload::FinalityVote { epoch, log }
        }
        5 => {
            let tip = BlockId(get_digest(&mut buf)?);
            let from_height = get_u64(&mut buf)?;
            Payload::BlockRequest { tip, from_height }
        }
        6 => decode_response(&mut buf, store)?,
        7 => {
            let instance = InstanceId(get_u64(&mut buf)?);
            let log = decode_announcement(&mut buf, store)?;
            let wc = get_u8(&mut buf)? as usize;
            if wc == 0 || wc > SignerSet::WORDS {
                return Err(WireError::LimitExceeded("certificate signer words"));
            }
            let mut words = [0u64; SignerSet::WORDS];
            for word in words.iter_mut().take(wc) {
                *word = get_u64(&mut buf)?;
            }
            // Canonical form: minimal word count, so each signer set has
            // exactly one encoding — a zero-padded bitmap would let the
            // same certificate circulate under several message ids
            // (the malleability hole `check_ancestors` closes for the
            // ancestor list).
            if words.get(wc - 1).map_or(true, |w| *w == 0) {
                return Err(WireError::LimitExceeded("certificate signer encoding"));
            }
            let agg = AggregateSignature::from_digest(get_digest(&mut buf)?);
            Payload::Certificate { instance, log, signers: SignerSet::from_words(words), agg }
        }
        t => return Err(WireError::BadTag(t)),
    };
    let signature = Signature::from_digest(get_digest(&mut buf)?);
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes(buf.len()));
    }
    Ok(SignedMessage::from_parts(sender, payload, signature))
}

fn decode_announcement(buf: &mut Bytes, store: &BlockStore) -> Result<Log, WireError> {
    let len = get_u64(buf)?;
    if len == 0 || len > MAX_LOG_LEN {
        return Err(WireError::LimitExceeded("log length"));
    }
    let tip = BlockId(get_digest(buf)?);
    let k = get_u8(buf)? as u64;
    let a = get_u8(buf)? as u64;
    let (want_k, want_a) = announcement_windows(len);
    if k != want_k || a != want_a {
        return Err(WireError::BadChain);
    }
    let mut ancestors = Vec::with_capacity(a as usize);
    for _ in 0..a {
        ancestors.push(BlockId(get_digest(buf)?));
    }
    if k == 0 {
        // Pure hash announcement: the tip itself must resolve locally.
        return match Log::from_parts(store, tip, len) {
            Some(log) => {
                check_ancestors(store, tip, len, k, &ancestors)?;
                Ok(log)
            }
            None if store.contains(tip) => Err(WireError::BadChain),
            None => Err(WireError::MissingBlocks {
                missing: tip,
                from_height: fetch_hint(store, &ancestors, len, k),
            }),
        };
    }
    let parent = BlockId(get_digest(buf)?);
    let bodies = decode_block_bodies(buf, k)?;
    let base_height = len - 1 - k;
    match store.height(parent) {
        Some(h) if h == base_height => {}
        Some(_) => return Err(WireError::BadChain),
        None => {
            return Err(WireError::MissingBlocks {
                missing: parent,
                from_height: fetch_hint(store, &ancestors, len, k),
            })
        }
    }
    let derived = append_bodies(store, parent, bodies)?;
    if derived != tip {
        return Err(WireError::BadChain);
    }
    check_ancestors(store, tip, len, k, &ancestors)?;
    Log::from_parts(store, tip, len).ok_or(WireError::BadChain)
}

/// Validates the announced ancestor-hash list against the (now fully
/// resolved) local chain, closing the malleability hole a purely
/// advisory list would open: any flipped ancestor byte fails decoding.
fn check_ancestors(
    store: &BlockStore,
    tip: BlockId,
    len: u64,
    k: u64,
    ancestors: &[BlockId],
) -> Result<(), WireError> {
    for (i, id) in ancestors.iter().enumerate() {
        let height = len - 2 - k - i as u64;
        if store.ancestor_at(tip, height) != Some(*id) {
            return Err(WireError::BadChain);
        }
    }
    Ok(())
}

/// Start-height hint for the fetch a `MissingBlocks` error triggers: one
/// above the newest listed ancestor already present locally, or 1 for a
/// full resync when none are known.
fn fetch_hint(store: &BlockStore, ancestors: &[BlockId], len: u64, k: u64) -> u64 {
    for (i, id) in ancestors.iter().enumerate() {
        if store.contains(*id) {
            return len - 1 - k - i as u64;
        }
    }
    1
}

struct BlockBody {
    proposer: ValidatorId,
    view: View,
    txs: Vec<Transaction>,
}

fn decode_block_bodies(buf: &mut Bytes, count: u64) -> Result<Vec<BlockBody>, WireError> {
    let mut bodies = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let proposer = ValidatorId::new(get_u32(buf)?);
        let view = View::new(get_u64(buf)?);
        let tx_count = get_u32(buf)?;
        if tx_count > MAX_TXS_PER_BLOCK {
            return Err(WireError::LimitExceeded("tx count"));
        }
        let mut txs = Vec::with_capacity(tx_count.min(1024) as usize);
        for _ in 0..tx_count {
            let size = get_u32(buf)?;
            if size > MAX_TX_BYTES {
                return Err(WireError::LimitExceeded("tx size"));
            }
            if buf.remaining() < size as usize {
                return Err(WireError::Truncated);
            }
            let payload = buf.copy_to_bytes(size as usize).to_vec();
            txs.push(Transaction::new(payload));
        }
        bodies.push(BlockBody { proposer, view, txs });
    }
    Ok(bodies)
}

fn append_bodies(
    store: &BlockStore,
    parent: BlockId,
    bodies: Vec<BlockBody>,
) -> Result<BlockId, WireError> {
    let mut tip = parent;
    for body in bodies {
        tip = store
            .append(tip, body.proposer, body.view, body.txs)
            .map_err(|_| WireError::BadChain)?;
    }
    Ok(tip)
}

fn decode_response(buf: &mut Bytes, store: &BlockStore) -> Result<Payload, WireError> {
    let tip = BlockId(get_digest(buf)?);
    let from_height = get_u64(buf)?;
    let count = get_u64(buf)?;
    if from_height == 0 {
        return Err(WireError::LimitExceeded("response from_height"));
    }
    if count == 0 || count > MAX_FETCH_BLOCKS {
        return Err(WireError::LimitExceeded("response block count"));
    }
    let anchor = BlockId(get_digest(buf)?);
    let bodies = decode_block_bodies(buf, count)?;
    match store.height(anchor) {
        Some(h) if h == from_height - 1 => {}
        Some(_) => return Err(WireError::BadChain),
        None => {
            return Err(WireError::MissingBlocks { missing: anchor, from_height: 1 });
        }
    }
    let derived = append_bodies(store, anchor, bodies)?;
    if derived != tip {
        return Err(WireError::BadChain);
    }
    Ok(Payload::BlockResponse { tip, from_height, count })
}

fn get_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64())
}

fn get_digest(buf: &mut Bytes) -> Result<Digest, WireError> {
    if buf.remaining() < 32 {
        return Err(WireError::Truncated);
    }
    let mut bytes = [0u8; 32];
    buf.copy_to_slice(&mut bytes);
    Ok(Digest::from_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Keypair;

    fn signed(payload: Payload) -> SignedMessage {
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        SignedMessage::sign(&kp, sender, payload)
    }

    fn sample_log(store: &BlockStore) -> Log {
        Log::genesis(store)
            .extend(
                store,
                ValidatorId::new(0),
                View::new(1),
                vec![Transaction::new(vec![1, 2, 3]), Transaction::new(vec![4])],
            )
            .extend_empty(store, ValidatorId::new(2), View::new(2))
    }

    /// A receiver store that already holds everything below the inline
    /// window of `log` (the steady-state peer).
    fn synced_receiver(store: &BlockStore, log: &Log) -> BlockStore {
        let rx = BlockStore::new();
        let base = log.len().saturating_sub(1 + INLINE_WINDOW);
        if let Some(ids) = store.chain_range(log.tip(), 1) {
            for id in ids.iter().take(base as usize) {
                let block = store.get(*id).unwrap().as_ref().clone();
                rx.insert(block).expect("prefix transfers");
            }
        }
        rx
    }

    #[test]
    fn announcement_roundtrips_to_synced_receiver() {
        let tx_store = BlockStore::new();
        let log = sample_log(&tx_store);
        let msg = signed(Payload::Log { instance: InstanceId(5), log });
        let bytes = encode_message(&msg, &tx_store).expect("encode");
        assert_eq!(bytes.len() as u64, encoded_len(&msg, &tx_store).expect("len"));

        let rx_store = synced_receiver(&tx_store, &log);
        let decoded = decode_message(bytes, &rx_store).expect("decode");
        assert_eq!(decoded.sender(), msg.sender());
        assert_eq!(decoded.payload(), msg.payload());
        let kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
        assert!(decoded.verify(&kp.public()));
        // The inline window carried the tip block's transactions.
        assert_eq!(rx_store.transactions_on_chain(log.tip()).len(), 2);
    }

    #[test]
    fn announcement_to_cold_receiver_reports_missing_blocks() {
        let tx_store = BlockStore::new();
        let log = sample_log(&tx_store);
        let msg = signed(Payload::Vote { instance: InstanceId(3), log });
        let bytes = encode_message(&msg, &tx_store).expect("encode");
        let cold = BlockStore::new();
        match decode_message(bytes, &cold) {
            Err(WireError::MissingBlocks { missing, from_height }) => {
                // The missing block is the one below the inline window.
                let base = tx_store.ancestor_at(log.tip(), log.len() - 1 - INLINE_WINDOW).unwrap();
                assert_eq!(missing, base);
                assert_eq!(from_height, 1, "no listed ancestor known → full resync");
            }
            other => panic!("expected MissingBlocks, got {other:?}"),
        }
    }

    #[test]
    fn fetch_hint_points_at_first_unknown_height() {
        // A long chain; receiver has the first 4 blocks. The hint must
        // say "fetch from height 5".
        let tx_store = BlockStore::new();
        let mut log = Log::genesis(&tx_store);
        for i in 0..10u64 {
            log = log.extend_empty(&tx_store, ValidatorId::new(0), View::new(i + 1));
        }
        let rx = BlockStore::new();
        for id in tx_store.chain_range(log.tip(), 1).unwrap().iter().take(4) {
            rx.insert(tx_store.get(*id).unwrap().as_ref().clone()).unwrap();
        }
        let msg = signed(Payload::Log { instance: InstanceId(0), log });
        match decode_message(encode_message(&msg, &tx_store).expect("encode"), &rx) {
            Err(WireError::MissingBlocks { from_height, .. }) => {
                assert_eq!(from_height, 5);
            }
            other => panic!("expected MissingBlocks, got {other:?}"),
        }
    }

    #[test]
    fn block_request_roundtrip() {
        let store = BlockStore::new();
        let log = sample_log(&store);
        let msg = signed(Payload::BlockRequest { tip: log.tip(), from_height: 1 });
        let bytes = encode_message(&msg, &store).expect("encode");
        assert_eq!(bytes.len() as u64, encoded_len(&msg, &store).expect("len"));
        let rx = BlockStore::new();
        let decoded = decode_message(bytes, &rx).expect("decode");
        assert_eq!(decoded.payload(), msg.payload());
    }

    #[test]
    fn block_response_transfers_the_range() {
        let store = BlockStore::new();
        let log = sample_log(&store);
        let msg = signed(Payload::BlockResponse {
            tip: log.tip(),
            from_height: 1,
            count: log.len() - 1,
        });
        let bytes = encode_message(&msg, &store).expect("encode");
        assert_eq!(bytes.len() as u64, encoded_len(&msg, &store).expect("len"));
        let rx = BlockStore::new();
        let decoded = decode_message(bytes, &rx).expect("decode");
        assert_eq!(decoded.payload(), msg.payload());
        // The receiver now resolves the whole chain.
        assert_eq!(rx.height(log.tip()), Some(log.len() - 1));
        assert_eq!(rx.transactions_on_chain(log.tip()).len(), 2);
    }

    #[test]
    fn response_with_unknown_anchor_reports_missing() {
        let store = BlockStore::new();
        let log = sample_log(&store);
        // Serve only the top block: anchor (height 1) unknown to a cold
        // receiver.
        let msg = signed(Payload::BlockResponse {
            tip: log.tip(),
            from_height: 2,
            count: 1,
        });
        let rx = BlockStore::new();
        assert!(matches!(
            decode_message(encode_message(&msg, &store).expect("encode"), &rx),
            Err(WireError::MissingBlocks { .. })
        ));
    }

    #[test]
    fn announcement_bytes_stay_constant_as_chain_grows() {
        // The point of delta sync: wire bytes per message are O(1) in
        // chain length (plus the bounded ancestor list), not O(len).
        let store = BlockStore::new();
        let mut log = Log::genesis(&store);
        let mut sizes = Vec::new();
        for i in 0..40u64 {
            log = log.extend(
                &store,
                ValidatorId::new(0),
                View::new(i + 1),
                vec![Transaction::synthetic(i, 64)],
            );
            let msg = signed(Payload::Log { instance: InstanceId(i), log });
            sizes.push(encoded_len(&msg, &store).expect("len"));
        }
        let (first_full, last) = (sizes[ANCESTOR_WINDOW as usize + 1], *sizes.last().unwrap());
        assert_eq!(first_full, last, "announcement size must not grow with the chain");
        // And it is an order of magnitude below the inline-chain bytes.
        let msg = signed(Payload::Log { instance: InstanceId(99), log });
        assert!(inline_equivalent_len(&msg, &store) >= 10 * encoded_len(&msg, &store).expect("len"));
    }

    #[test]
    fn truncated_rejected() {
        let store = BlockStore::new();
        let msg = signed(Payload::Log { instance: InstanceId(1), log: sample_log(&store) });
        let bytes = encode_message(&msg, &store).expect("encode");
        for cut in [0, 1, 5, 10, bytes.len() - 1] {
            let rx = synced_receiver(&store, &msg.payload().log().unwrap());
            let res = decode_message(bytes.slice(..cut), &rx);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let store = BlockStore::new();
        let msg = signed(Payload::Log { instance: InstanceId(1), log: Log::genesis(&store) });
        let mut bytes = encode_message(&msg, &store).expect("encode").to_vec();
        bytes.push(0xff);
        let rx = BlockStore::new();
        assert_eq!(
            decode_message(Bytes::from(bytes), &rx),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let store = BlockStore::new();
        let msg = signed(Payload::Log { instance: InstanceId(1), log: Log::genesis(&store) });
        let mut bytes = encode_message(&msg, &store).expect("encode").to_vec();
        bytes[0] = 99;
        let rx = BlockStore::new();
        assert_eq!(decode_message(Bytes::from(bytes), &rx), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn tampered_inline_tx_rejected_as_bad_chain() {
        // Block ids are content addresses: a flipped tx byte changes the
        // reconstructed tip, which no longer matches the announced hash.
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![Transaction::new(vec![1, 2, 3])],
        );
        let msg = signed(Payload::Log { instance: InstanceId(1), log });
        let mut bytes = encode_message(&msg, &store).expect("encode").to_vec();
        let pos = bytes
            .windows(3)
            .position(|w| w == [1, 2, 3])
            .expect("tx payload present");
        bytes[pos] = 77;
        let rx = BlockStore::new();
        assert_eq!(decode_message(Bytes::from(bytes), &rx), Err(WireError::BadChain));
    }

    #[test]
    fn tampered_ancestor_hash_rejected() {
        let store = BlockStore::new();
        let mut log = Log::genesis(&store);
        for i in 0..5u64 {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 1));
        }
        let msg = signed(Payload::Log { instance: InstanceId(1), log });
        let bytes = encode_message(&msg, &store).expect("encode").to_vec();
        // Flip a byte inside the first ancestor hash: offset =
        // version(1)+sender(4)+tag(1)+instance(8)+len(8)+tip(32)+k(1)+a(1).
        let off = 1 + 4 + 1 + 8 + 8 + 32 + 1 + 1;
        let mut tampered = bytes.clone();
        tampered[off] ^= 0x01;
        let rx = synced_receiver(&store, &log);
        assert_eq!(
            decode_message(Bytes::from(tampered), &rx),
            Err(WireError::BadChain),
            "advisory ancestor list must still be integrity-checked"
        );
    }

    #[test]
    fn oversized_response_count_rejected() {
        let store = BlockStore::new();
        let log = sample_log(&store);
        let msg = signed(Payload::BlockResponse { tip: log.tip(), from_height: 1, count: 2 });
        let mut bytes = encode_message(&msg, &store).expect("encode").to_vec();
        // count field offset: version(1)+sender(4)+tag(1)+tip(32)+from(8).
        let off = 1 + 4 + 1 + 32 + 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let rx = BlockStore::new();
        assert!(matches!(
            decode_message(Bytes::from(bytes), &rx),
            Err(WireError::LimitExceeded(_))
        ));
    }

    /// A quorum certificate over votes from validators 0, 2 and 5.
    fn sample_certificate(store: &BlockStore) -> Payload {
        let log = sample_log(store);
        let instance = InstanceId(7);
        let mut signers = SignerSet::empty();
        let mut sigs = Vec::new();
        for i in [0u32, 2, 5] {
            let v = ValidatorId::new(i);
            let kp = Keypair::from_seed(v.key_seed());
            let vote = SignedMessage::sign(&kp, v, Payload::Log { instance, log });
            sigs.push(*vote.signature());
            signers.insert(v);
        }
        let agg = AggregateSignature::aggregate(&sigs.iter().collect::<Vec<_>>()).unwrap();
        Payload::Certificate { instance, log, signers, agg }
    }

    #[test]
    fn certificate_roundtrip() {
        let store = BlockStore::new();
        let payload = sample_certificate(&store);
        let msg = signed(payload);
        let bytes = encode_message(&msg, &store).expect("encode");
        assert_eq!(bytes.len() as u64, encoded_len(&msg, &store).expect("len"));
        let rx = synced_receiver(&store, &payload.log().unwrap());
        let decoded = decode_message(bytes, &rx).expect("decode");
        assert_eq!(decoded.payload(), msg.payload());
        assert_eq!(decoded.id(), msg.id());
        let kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
        assert!(decoded.verify(&kp.public()));
    }

    #[test]
    fn certificate_to_cold_receiver_reports_missing_blocks() {
        // Certificates go through the same resolution gate as votes: a
        // receiver missing the announced chain parks the frame and
        // fetches.
        let store = BlockStore::new();
        let msg = signed(sample_certificate(&store));
        let cold = BlockStore::new();
        assert!(matches!(
            decode_message(encode_message(&msg, &store).expect("encode"), &cold),
            Err(WireError::MissingBlocks { .. })
        ));
    }

    #[test]
    fn noncanonical_certificate_signer_encoding_rejected() {
        let store = BlockStore::new();
        let payload = sample_certificate(&store);
        let msg = signed(payload);
        let bytes = encode_message(&msg, &store).expect("encode").to_vec();
        let rx = || synced_receiver(&store, &payload.log().unwrap());
        // The signer section sits between the announcement and the two
        // trailing digests: u8 word count + words.
        let wc_off = bytes.len() - 32 - 32 - 8 - 1;
        assert_eq!(bytes[wc_off], 1, "sample signers fit one word");

        // Zero-padded bitmap (same set, longer encoding) must fail.
        let mut padded = bytes.clone();
        padded[wc_off] = 2;
        padded.splice(wc_off + 1 + 8..wc_off + 1 + 8, [0u8; 8]);
        assert!(matches!(
            decode_message(Bytes::from(padded), &rx()),
            Err(WireError::LimitExceeded(_))
        ));

        // Empty signer set must fail.
        let mut empty = bytes.clone();
        empty[wc_off] = 0;
        empty.splice(wc_off + 1..wc_off + 1 + 8, []);
        assert!(decode_message(Bytes::from(empty), &rx()).is_err());

        // Word count beyond the bitmap capacity must fail.
        let mut oversized = bytes;
        oversized[wc_off] = SignerSet::WORDS as u8 + 1;
        assert!(decode_message(Bytes::from(oversized), &rx()).is_err());
    }

    #[test]
    fn certificate_mutation_fuzz_never_panics_or_aliases() {
        // Byte-level mutation sweep over the full certificate frame:
        // decoding must never panic, and no mutation may yield a message
        // that still carries the original payload *and* the original
        // signature (i.e. nothing a receiver would accept as the same
        // certificate). Mutations inside the signer bitmap or aggregate
        // decode to a *different* payload whose envelope signature then
        // fails verification.
        let store = BlockStore::new();
        let payload = sample_certificate(&store);
        let msg = signed(payload);
        let bytes = encode_message(&msg, &store).expect("encode").to_vec();
        let sender_kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0xff] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= flip;
                let rx = synced_receiver(&store, &payload.log().unwrap());
                if let Ok(decoded) = decode_message(Bytes::from(mutated), &rx) {
                    assert!(
                        decoded.payload() != msg.payload()
                            || decoded.signature() != msg.signature()
                            || decoded.sender() != msg.sender(),
                        "mutation at byte {pos} (^{flip:#x}) aliased the original"
                    );
                    if decoded.sender() == msg.sender() && decoded.payload() != msg.payload() {
                        assert!(
                            !decoded.verify(&sender_kp.public()),
                            "mutated payload at byte {pos} must not verify under the \
                             original sender's key"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn certificate_truncation_sweep_never_panics() {
        let store = BlockStore::new();
        let payload = sample_certificate(&store);
        let msg = signed(payload);
        let bytes = encode_message(&msg, &store).expect("encode");
        for cut in 0..bytes.len() {
            let rx = synced_receiver(&store, &payload.log().unwrap());
            assert!(
                decode_message(bytes.slice(..cut), &rx).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// One payload of each of the 8 variants, all over `sample_log`.
    fn all_variants(store: &BlockStore) -> [Payload; 8] {
        let log = sample_log(store);
        let (vrf, proof) = (
            VrfOutput(tobsvd_crypto::sha256(b"vrf")),
            VrfProof(tobsvd_crypto::sha256(b"proof")),
        );
        [
            Payload::Log { instance: InstanceId(9), log },
            Payload::Proposal { view: View::new(9), log, vrf, proof },
            Payload::Vote { instance: InstanceId(9), log },
            Payload::Recovery { from_view: View::new(9), log },
            Payload::FinalityVote { epoch: 9, log },
            Payload::BlockRequest { tip: log.tip(), from_height: 1 },
            Payload::BlockResponse { tip: log.tip(), from_height: 1, count: log.len() - 1 },
            sample_certificate(store),
        ]
    }

    #[test]
    fn encoded_len_and_header_peek_agree_with_the_codec_for_all_variants() {
        let store = BlockStore::new();
        for payload in all_variants(&store) {
            let msg = signed(payload);
            let frame = encode_message(&msg, &store).expect("encode");
            assert_eq!(
                frame.len() as u64,
                encoded_len(&msg, &store).expect("len"),
                "encoded_len disagrees for {payload:?}"
            );
            let decoded = decode_message(frame.clone(), &store).expect("decode");
            let class = match payload {
                Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => MessageClass::Sync,
                Payload::Certificate { .. } => MessageClass::Certificate,
                _ => MessageClass::Announce,
            };
            assert_eq!(MessageClass::of(decoded.payload()), class, "class of {payload:?}");
            // The header is version + sender + tag: it reads off the
            // first 6 bytes, and anything shorter has no claim to read.
            assert_eq!(peek_header(&frame[..6]), Some((decoded.sender(), class)), "{payload:?}");
            for cut in 0..6 {
                assert_eq!(peek_header(&frame[..cut]), None, "{cut}-byte prefix");
            }
        }
    }
}
