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
//!   k block bodies (`crate::codec`'s layout), lowest height first
//! tag 5 — block request: 32B tip, u64 from_height
//! tag 6 — block response: 32B tip, u64 from_height, u64 count,
//!   32B anchor id (block at height from_height−1), then `count` block
//!   bodies
//! tag 7 — certificate, after the announcement: u8 signer word count
//!   (minimal — the top word must be non-zero, so each signer set has
//!   exactly one encoding), that many u64 bitmap words, 32B aggregate
//!   signature digest
//! 32B signature digest
//! ```

use tobsvd_crypto::{AggregateSignature, Signature, VrfOutput, VrfProof};

use crate::block::BlockId;
use crate::codec::{self, BlockBody, BodyError, Reader, Truncated};
use crate::ids::ValidatorId;
use crate::log::Log;
use crate::message::{InstanceId, Payload, SignedMessage, SignerSet};
use crate::store::BlockStore;
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

/// Maximum log length the decoder accepts.
pub const MAX_LOG_LEN: u64 = 1 << 20;

/// Errors from [`encode_message`] and [`decode_message`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the message was complete.
    Truncated,
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown payload tag.
    BadTag(u8),
    /// A length field exceeded its sanity bound (decode), or a block
    /// to encode exceeds the body limits every decoder enforces.
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
            WireError::LimitExceeded(what) => write!(f, "{what} exceeds codec limit"),
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

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

impl From<BodyError> for WireError {
    fn from(e: BodyError) -> Self {
        match e {
            BodyError::Truncated => WireError::Truncated,
            BodyError::Limit(what) => WireError::LimitExceeded(what),
        }
    }
}

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
    let mut r = Reader::new(frame);
    r.u8().ok()?;
    let sender = ValidatorId::new(r.u32().ok()?);
    Some((sender, MessageClass::of_tag(r.u8().ok()?)))
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
/// not crash a validator, so the frame is refused instead. Returns
/// [`WireError::LimitExceeded`] if a block to ship exceeds
/// [`codec::MAX_TXS_PER_BLOCK`] or [`codec::MAX_TX_BYTES`]: every
/// decoder would drop that frame.
pub fn encode_message(msg: &SignedMessage, store: &BlockStore) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(256);
    buf.push(WIRE_VERSION);
    buf.extend_from_slice(&msg.sender().raw().to_be_bytes());
    buf.push(payload_tag(msg.payload()));
    match msg.payload() {
        Payload::Log { instance: InstanceId(header), log }
        | Payload::Vote { instance: InstanceId(header), log }
        | Payload::FinalityVote { epoch: header, log } => {
            buf.extend_from_slice(&header.to_be_bytes());
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::Proposal { view, log, vrf, proof } => {
            buf.extend_from_slice(&view.number().to_be_bytes());
            buf.extend_from_slice(vrf.0.as_bytes());
            buf.extend_from_slice(proof.0.as_bytes());
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::Recovery { from_view, log } => {
            buf.extend_from_slice(&from_view.number().to_be_bytes());
            encode_announcement(&mut buf, log, store)?;
        }
        Payload::BlockRequest { tip, from_height } => {
            buf.extend_from_slice(tip.0.as_bytes());
            buf.extend_from_slice(&from_height.to_be_bytes());
        }
        Payload::Certificate { instance, log, signers, agg } => {
            buf.extend_from_slice(&instance.0.to_be_bytes());
            encode_announcement(&mut buf, log, store)?;
            let wc = signer_word_count(signers);
            buf.push(wc as u8);
            for word in signers.words().iter().take(wc) {
                buf.extend_from_slice(&word.to_be_bytes());
            }
            buf.extend_from_slice(agg.as_digest().as_bytes());
        }
        Payload::BlockResponse { tip, from_height, count } => {
            buf.extend_from_slice(tip.0.as_bytes());
            buf.extend_from_slice(&from_height.to_be_bytes());
            buf.extend_from_slice(&count.to_be_bytes());
            let anchor = store
                .ancestor_at(*tip, from_height.saturating_sub(1))
                .ok_or(WireError::UnstoredChain)?;
            buf.extend_from_slice(anchor.0.as_bytes());
            let ids = store
                .chain_range(*tip, *from_height)
                .ok_or(WireError::UnstoredChain)?;
            debug_assert_eq!(ids.len() as u64, *count, "count must match the served range");
            encode_bodies(&mut buf, &ids, store)?;
        }
    }
    buf.extend_from_slice(msg.signature().as_digest().as_bytes());
    Ok(buf)
}

fn announcement_windows(len: u64) -> (u64, u64) {
    let k = (len - 1).min(INLINE_WINDOW);
    let a = (len - 1 - k).min(ANCESTOR_WINDOW);
    (k, a)
}

fn encode_announcement(buf: &mut Vec<u8>, log: &Log, store: &BlockStore) -> Result<(), WireError> {
    let len = log.len();
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(log.tip().0.as_bytes());
    let (k, a) = announcement_windows(len);
    buf.push(k as u8);
    buf.push(a as u8);
    // Ancestor hashes, newest first: heights len−2−k down to len−1−k−a.
    for i in 0..a {
        let height = len - 2 - k - i;
        let id = store
            .ancestor_at(log.tip(), height)
            .ok_or(WireError::UnstoredChain)?;
        buf.extend_from_slice(id.0.as_bytes());
    }
    if k > 0 {
        let base_height = len - 1 - k;
        let parent = store
            .ancestor_at(log.tip(), base_height)
            .ok_or(WireError::UnstoredChain)?;
        buf.extend_from_slice(parent.0.as_bytes());
        let ids = store
            .chain_range(log.tip(), base_height + 1)
            .ok_or(WireError::UnstoredChain)?;
        encode_bodies(buf, &ids, store)?;
    }
    Ok(())
}

/// The bodies of the stored blocks `ids`, in order.
fn encode_bodies(buf: &mut Vec<u8>, ids: &[BlockId], store: &BlockStore) -> Result<(), WireError> {
    for id in ids {
        let block = store.get(*id).ok_or(WireError::UnstoredChain)?;
        // Genesis carries no proposer and is never shipped in a body; a
        // genesis block here means the range arithmetic went wrong.
        let proposer = block.proposer().ok_or(WireError::UnstoredChain)?;
        codec::put_block_body(buf, proposer, block.view(), block.txs())?;
    }
    Ok(())
}

/// Exact length in bytes of [`encode_message`]'s output, computed
/// without allocating — the simulator charges every delivery this
/// amount, so sim byte metrics and real TCP frames agree by
/// construction (pinned by a codec test).
///
/// # Errors
///
/// [`WireError::UnstoredChain`], as [`encode_message`]. A block over
/// the body limits is measured, not refused.
pub fn encoded_len(msg: &SignedMessage, store: &BlockStore) -> Result<u64, WireError> {
    measure(msg, store).map(|(len, _)| len)
}

/// [`encoded_len`] and [`inline_equivalent_len`] together, reading a
/// log's tip block from `store` once for both (the simulator charges
/// every copy both amounts).
///
/// # Errors
///
/// As [`encoded_len`].
pub fn encoded_and_inline_len(msg: &SignedMessage, store: &BlockStore) -> Result<(u64, u64), WireError> {
    let (wire_len, tip_size) = measure(msg, store)?;
    let inline_len = match msg.payload().log() {
        Some(log) => {
            let size = tip_size.unwrap_or_else(|| log.nominal_size(store));
            crate::ENVELOPE_NOMINAL_BYTES + size
        }
        None => 0,
    };
    Ok((wire_len, inline_len))
}

/// [`encoded_len`], plus the tip block's cumulative size when the
/// inline-window walk read that block (a log with `k > 0`).
fn measure(msg: &SignedMessage, store: &BlockStore) -> Result<(u64, Option<u64>), WireError> {
    let mut tip_size = None;
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
            }
            // The window's blocks, by parent links from the tip.
            let mut cur = log.tip();
            for _ in 0..k {
                let block = store.get(cur).ok_or(WireError::UnstoredChain)?;
                tip_size.get_or_insert(block.cumulative_size());
                n += codec::block_body_len(block.txs());
                cur = block.parent();
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
                n += codec::block_body_len(block.txs());
            }
            n
        }
    };
    // version + sender + tag + header + body (+ certificate trailer) +
    // signature.
    Ok((1 + 4 + 1 + header + body + trailer + 32, tip_size))
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

/// Decodes one message from a borrowed frame, inserting carried blocks
/// into `store`. Each transaction payload is copied once out of the
/// frame; nothing else is.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input; in particular
/// [`WireError::MissingBlocks`] when the message is well-formed but
/// references blocks the local store does not hold yet (the caller
/// should park the frame and issue a `BlockRequest`). On success the
/// full buffer must have been consumed.
pub fn decode_message(frame: impl AsRef<[u8]>, store: &BlockStore) -> Result<SignedMessage, WireError> {
    let mut r = Reader::new(frame.as_ref());
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let sender = ValidatorId::new(r.u32()?);
    let tag = r.u8()?;
    let payload = match tag {
        0 => {
            let instance = InstanceId(r.u64()?);
            let log = decode_announcement(&mut r, store)?;
            Payload::Log { instance, log }
        }
        1 => {
            let view = View::new(r.u64()?);
            let vrf = VrfOutput(r.digest()?);
            let proof = VrfProof(r.digest()?);
            let log = decode_announcement(&mut r, store)?;
            Payload::Proposal { view, log, vrf, proof }
        }
        2 => {
            let instance = InstanceId(r.u64()?);
            let log = decode_announcement(&mut r, store)?;
            Payload::Vote { instance, log }
        }
        3 => {
            let from_view = View::new(r.u64()?);
            let log = decode_announcement(&mut r, store)?;
            Payload::Recovery { from_view, log }
        }
        4 => {
            let epoch = r.u64()?;
            let log = decode_announcement(&mut r, store)?;
            Payload::FinalityVote { epoch, log }
        }
        5 => {
            let tip = BlockId(r.digest()?);
            let from_height = r.u64()?;
            Payload::BlockRequest { tip, from_height }
        }
        6 => decode_response(&mut r, store)?,
        7 => {
            let instance = InstanceId(r.u64()?);
            let log = decode_announcement(&mut r, store)?;
            let wc = r.u8()? as usize;
            if wc == 0 || wc > SignerSet::WORDS {
                return Err(WireError::LimitExceeded("certificate signer words"));
            }
            let mut words = [0u64; SignerSet::WORDS];
            for word in words.iter_mut().take(wc) {
                *word = r.u64()?;
            }
            // Canonical form: minimal word count, so each signer set has
            // exactly one encoding — a zero-padded bitmap would let the
            // same certificate circulate under several message ids
            // (the malleability hole `check_ancestors` closes for the
            // ancestor list).
            if words.get(wc - 1).map_or(true, |w| *w == 0) {
                return Err(WireError::LimitExceeded("certificate signer encoding"));
            }
            let agg = AggregateSignature::from_digest(r.digest()?);
            Payload::Certificate { instance, log, signers: SignerSet::from_words(words), agg }
        }
        t => return Err(WireError::BadTag(t)),
    };
    let signature = Signature::from_digest(r.digest()?);
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(SignedMessage::from_parts(sender, payload, signature))
}

fn decode_announcement(r: &mut Reader<'_>, store: &BlockStore) -> Result<Log, WireError> {
    let len = r.u64()?;
    if len == 0 || len > MAX_LOG_LEN {
        return Err(WireError::LimitExceeded("log length"));
    }
    let tip = BlockId(r.digest()?);
    let k = r.u8()? as u64;
    let a = r.u8()? as u64;
    let (want_k, want_a) = announcement_windows(len);
    if k != want_k || a != want_a {
        return Err(WireError::BadChain);
    }
    let mut ancestors = Vec::with_capacity(a as usize);
    for _ in 0..a {
        ancestors.push(BlockId(r.digest()?));
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
    let parent = BlockId(r.digest()?);
    let hint = || fetch_hint(store, &ancestors, len, k);
    absorb_bodies(r, store, k, (parent, len - 1 - k), tip, hint)?;
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

/// Reads `count` block bodies and appends them onto `base`, a block id
/// at its height, which must be stored; the chain they build must end
/// at `tip`. Every body is read before any is appended, so a frame that
/// turns out truncated or over a limit appends nothing. A missing base
/// fails with `hint()` as the fetch's start height.
fn absorb_bodies(
    r: &mut Reader<'_>,
    store: &BlockStore,
    count: u64,
    base: (BlockId, u64),
    tip: BlockId,
    hint: impl FnOnce() -> u64,
) -> Result<(), WireError> {
    let bodies = (0..count).map(|_| codec::read_block_body(r)).collect::<Result<Vec<_>, _>>()?;
    let (mut cur, height) = base;
    match store.height(cur) {
        Some(h) if h == height => {}
        Some(_) => return Err(WireError::BadChain),
        None => return Err(WireError::MissingBlocks { missing: cur, from_height: hint() }),
    }
    for BlockBody { proposer, view, txs } in bodies {
        cur = store.append(cur, proposer, view, txs).map_err(|_| WireError::BadChain)?;
    }
    if cur != tip {
        return Err(WireError::BadChain);
    }
    Ok(())
}

fn decode_response(r: &mut Reader<'_>, store: &BlockStore) -> Result<Payload, WireError> {
    let tip = BlockId(r.digest()?);
    let from_height = r.u64()?;
    let count = r.u64()?;
    if from_height == 0 {
        return Err(WireError::LimitExceeded("response from_height"));
    }
    if count == 0 || count > MAX_FETCH_BLOCKS {
        return Err(WireError::LimitExceeded("response block count"));
    }
    let anchor = BlockId(r.digest()?);
    absorb_bodies(r, store, count, (anchor, from_height - 1), tip, || 1)?;
    Ok(Payload::BlockResponse { tip, from_height, count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
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
        let decoded = decode_message(&bytes, &rx_store).expect("decode");
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
        match decode_message(&bytes, &cold) {
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
        let decoded = decode_message(&bytes, &rx).expect("decode");
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
        let decoded = decode_message(&bytes, &rx).expect("decode");
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
            let res = decode_message(&bytes[..cut], &rx);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let store = BlockStore::new();
        let msg = signed(Payload::Log { instance: InstanceId(1), log: Log::genesis(&store) });
        let mut bytes = encode_message(&msg, &store).expect("encode");
        bytes.push(0xff);
        let rx = BlockStore::new();
        assert_eq!(
            decode_message(&bytes, &rx),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let store = BlockStore::new();
        let msg = signed(Payload::Log { instance: InstanceId(1), log: Log::genesis(&store) });
        let mut bytes = encode_message(&msg, &store).expect("encode");
        bytes[0] = 99;
        let rx = BlockStore::new();
        assert_eq!(decode_message(&bytes, &rx), Err(WireError::BadVersion(99)));
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
        let mut bytes = encode_message(&msg, &store).expect("encode");
        let pos = bytes
            .windows(3)
            .position(|w| w == [1, 2, 3])
            .expect("tx payload present");
        bytes[pos] = 77;
        let rx = BlockStore::new();
        assert_eq!(decode_message(&bytes, &rx), Err(WireError::BadChain));
    }

    #[test]
    fn tampered_ancestor_hash_rejected() {
        let store = BlockStore::new();
        let mut log = Log::genesis(&store);
        for i in 0..5u64 {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 1));
        }
        let msg = signed(Payload::Log { instance: InstanceId(1), log });
        let bytes = encode_message(&msg, &store).expect("encode");
        // Flip a byte inside the first ancestor hash: offset =
        // version(1)+sender(4)+tag(1)+instance(8)+len(8)+tip(32)+k(1)+a(1).
        let off = 1 + 4 + 1 + 8 + 8 + 32 + 1 + 1;
        let mut tampered = bytes.clone();
        tampered[off] ^= 0x01;
        let rx = synced_receiver(&store, &log);
        assert_eq!(
            decode_message(&tampered, &rx),
            Err(WireError::BadChain),
            "advisory ancestor list must still be integrity-checked"
        );
    }

    #[test]
    fn over_limit_block_is_refused_by_the_encoder_but_still_measured() {
        // Every decoder drops a body over the limits, so the encoder
        // refuses it too; byte accounting still measures it.
        let store = BlockStore::new();
        let big = Transaction::new(vec![7; crate::codec::MAX_TX_BYTES as usize + 1]);
        let log = Log::genesis(&store).extend(&store, ValidatorId::new(0), View::new(1), vec![big]);
        let over_limit = [
            Payload::Log { instance: InstanceId(1), log },
            Payload::BlockResponse { tip: log.tip(), from_height: 1, count: 1 },
        ];
        for payload in over_limit {
            let msg = signed(payload);
            assert_eq!(encode_message(&msg, &store), Err(WireError::LimitExceeded("tx size")));
            let len = encoded_len(&msg, &store).expect("measures");
            assert!(len > u64::from(crate::codec::MAX_TX_BYTES), "{payload:?} measured {len}");
        }
    }

    #[test]
    fn oversized_response_count_rejected() {
        let store = BlockStore::new();
        let log = sample_log(&store);
        let msg = signed(Payload::BlockResponse { tip: log.tip(), from_height: 1, count: 2 });
        let mut bytes = encode_message(&msg, &store).expect("encode");
        // count field offset: version(1)+sender(4)+tag(1)+tip(32)+from(8).
        let off = 1 + 4 + 1 + 32 + 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let rx = BlockStore::new();
        assert!(matches!(
            decode_message(&bytes, &rx),
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
        let decoded = decode_message(&bytes, &rx).expect("decode");
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
        let bytes = encode_message(&msg, &store).expect("encode");
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
            decode_message(&padded, &rx()),
            Err(WireError::LimitExceeded(_))
        ));

        // Empty signer set must fail.
        let mut empty = bytes.clone();
        empty[wc_off] = 0;
        empty.splice(wc_off + 1..wc_off + 1 + 8, []);
        assert!(decode_message(&empty, &rx()).is_err());

        // Word count beyond the bitmap capacity must fail.
        let mut oversized = bytes;
        oversized[wc_off] = SignerSet::WORDS as u8 + 1;
        assert!(decode_message(&oversized, &rx()).is_err());
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
        let bytes = encode_message(&msg, &store).expect("encode");
        let sender_kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0xff] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= flip;
                let rx = synced_receiver(&store, &payload.log().unwrap());
                if let Ok(decoded) = decode_message(&mutated, &rx) {
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
                decode_message(&bytes[..cut], &rx).is_err(),
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
            let decoded = decode_message(&frame, &store).expect("decode");
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

    #[test]
    fn both_lengths_at_once_agree_with_each_length_alone() {
        let store = BlockStore::new();
        let genesis = Log::genesis(&store);
        let over_genesis = [
            Payload::Log { instance: InstanceId(0), log: genesis },
            Payload::Proposal {
                view: View::ZERO,
                log: genesis,
                vrf: VrfOutput(tobsvd_crypto::sha256(b"vrf")),
                proof: VrfProof(tobsvd_crypto::sha256(b"proof")),
            },
            Payload::Recovery { from_view: View::ZERO, log: genesis },
        ];
        for payload in all_variants(&store).into_iter().chain(over_genesis) {
            let msg = signed(payload);
            let (wire_len, inline_len) = encoded_and_inline_len(&msg, &store).expect("lengths");
            assert_eq!(wire_len, encoded_len(&msg, &store).expect("len"), "{payload:?}");
            assert_eq!(wire_len, encode_message(&msg, &store).expect("encode").len() as u64, "{payload:?}");
            assert_eq!(inline_len, inline_equivalent_len(&msg, &store), "{payload:?}");
            if payload.log().is_some() {
                assert!(inline_len >= crate::ENVELOPE_NOMINAL_BYTES, "{payload:?}");
            } else {
                assert_eq!(inline_len, 0, "fetch traffic has no inline counterpart: {payload:?}");
            }
        }
        let elsewhere = BlockStore::new();
        let log = Log::genesis(&elsewhere).extend_empty(&elsewhere, ValidatorId::new(7), View::new(7));
        let unstored = signed(Payload::Vote { instance: InstanceId(1), log });
        assert_eq!(encoded_and_inline_len(&unstored, &store), Err(WireError::UnstoredChain));
    }
}
