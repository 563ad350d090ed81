//! Client-facing wire frames: the ingestion-plane front door.
//!
//! Peer (validator-to-validator) traffic uses the delta-sync codec of
//! [`crate::wire`], whose frames begin with [`crate::wire::WIRE_VERSION`].
//! Clients submitting transactions speak a much smaller protocol over
//! the *same* listener: a [`ClientFrame::Submit`] carrying the raw
//! transaction payload plus a fee bid and a client identity, answered
//! by a [`ClientFrame::SubmitAck`] with an explicit admission verdict.
//!
//! The first payload byte discriminates the two session types:
//! [`CLIENT_WIRE_VERSION`] is deliberately distinct from the peer
//! codec's version byte, so a runtime node can classify a connection
//! from the first complete frame it sends and route it to the client
//! admission path or the validator message path.
//!
//! Backpressure is part of the protocol, not an afterthought: a node
//! whose mempool is at capacity answers [`AckStatus::Busy`] (and
//! throttles reads on the socket) instead of queueing unboundedly —
//! clients are expected to back off and resubmit.
//!
//! What a node admits from its clients travels on to its peers in one
//! more frame, [`TxBatch`]: a peer frame (it starts with the peer
//! header, so it rides the mesh links), but its body is this module's,
//! a list of `(fee, payload)` pairs. Each peer admits the pairs into
//! its own pool, so every proposer batches every client transaction
//! (§3.2: one pool that every validator retrieves from).

use crate::codec::{Reader, Truncated, MAX_TXS_PER_BLOCK, MAX_TX_BYTES};
use crate::ids::ValidatorId;
use crate::tx::{Transaction, TxId};
use crate::wire::WIRE_VERSION;

/// First byte of every client frame. Peer frames start with
/// [`crate::wire::WIRE_VERSION`] (currently 2); this value is far away
/// so the two can never collide as the codecs evolve.
pub const CLIENT_WIRE_VERSION: u8 = 0xC5;

/// Frame tag: transaction submission (client → node).
pub const SUBMIT_TAG: u8 = 0;
/// Frame tag: submission acknowledgement (node → client).
pub const SUBMIT_ACK_TAG: u8 = 1;

/// Upper bound on an encoded `Submit` frame: header plus the maximum
/// transaction payload the peer codec itself would accept in a block.
pub const MAX_SUBMIT_FRAME_BYTES: usize = 2 + 8 + 8 + 4 + MAX_TX_BYTES as usize;

/// Admission verdict carried in a [`ClientFrame::SubmitAck`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckStatus {
    /// Admitted to the pool (possibly after evicting a lower-fee entry).
    Accepted,
    /// Already known (either pending or previously confirmed).
    Duplicate,
    /// Pool at capacity and the offered fee did not beat the weakest
    /// pending entry: shed — back off and resubmit later.
    Busy,
    /// The client exceeded its per-window submission rate cap.
    RateLimited,
}

impl AckStatus {
    fn code(self) -> u8 {
        match self {
            AckStatus::Accepted => 0,
            AckStatus::Duplicate => 1,
            AckStatus::Busy => 2,
            AckStatus::RateLimited => 3,
        }
    }

    fn from_code(code: u8) -> Option<AckStatus> {
        match code {
            0 => Some(AckStatus::Accepted),
            1 => Some(AckStatus::Duplicate),
            2 => Some(AckStatus::Busy),
            3 => Some(AckStatus::RateLimited),
            _ => None,
        }
    }

    /// Whether the transaction entered the pool.
    pub fn is_accepted(self) -> bool {
        matches!(self, AckStatus::Accepted)
    }
}

/// One client-session frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// A transaction submission. The transaction identity is
    /// content-derived from `payload` on both sides, so the ack can
    /// reference it without echoing the payload back.
    Submit {
        /// Client identity (per-client rate caps key on this; it is
        /// self-declared, like a source address — admission treats it
        /// as a fairness hint, not an authenticated principal).
        client: u64,
        /// Fee bid for priority eviction.
        fee: u64,
        /// The submitted transaction: on decode, its payload copied
        /// once out of the frame, into the buffer the pool and every
        /// block that includes it share.
        payload: Transaction,
    },
    /// The node's admission verdict for a submitted transaction.
    SubmitAck {
        /// Identity of the transaction being acknowledged.
        tx: TxId,
        /// The verdict.
        status: AckStatus,
    },
}

/// Client-codec errors. On a client session all are terminal: a client
/// that sends a malformed frame is disconnected. A [`TxBatch`] that
/// fails to decode is dropped whole, and its peer link stays open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Version byte is neither the client version nor anything known.
    BadVersion(u8),
    /// Unknown frame tag.
    BadTag(u8),
    /// Frame shorter than its fields require.
    Truncated,
    /// Submit payload exceeds [`MAX_TX_BYTES`].
    Oversize(u64),
    /// Unknown ack status code.
    BadStatus(u8),
    /// Bytes left over after a complete frame.
    TrailingBytes(usize),
    /// A batch of more than [`MAX_TXS_PER_BLOCK`] transactions.
    TooMany(u32),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadVersion(v) => write!(f, "bad client frame version {v:#x}"),
            ClientError::BadTag(t) => write!(f, "unknown client frame tag {t}"),
            ClientError::Truncated => write!(f, "truncated client frame"),
            ClientError::Oversize(n) => write!(f, "submit payload of {n} bytes over limit"),
            ClientError::BadStatus(c) => write!(f, "unknown ack status code {c}"),
            ClientError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ClientError::TooMany(n) => write!(f, "batch of {n} transactions over limit"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<Truncated> for ClientError {
    fn from(_: Truncated) -> Self {
        ClientError::Truncated
    }
}

/// Encodes one client frame.
pub fn encode_client_frame(frame: &ClientFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(CLIENT_WIRE_VERSION);
    match frame {
        ClientFrame::Submit { client, fee, payload } => {
            let payload = payload.payload();
            buf.push(SUBMIT_TAG);
            buf.extend_from_slice(&client.to_be_bytes());
            buf.extend_from_slice(&fee.to_be_bytes());
            buf.extend_from_slice(&(payload.len().min(u32::MAX as usize) as u32).to_be_bytes());
            buf.extend_from_slice(payload);
        }
        ClientFrame::SubmitAck { tx, status } => {
            buf.push(SUBMIT_ACK_TAG);
            buf.extend_from_slice(tx.0.as_bytes());
            buf.push(status.code());
        }
    }
    buf
}

/// Decodes one client frame. The whole buffer must be consumed.
///
/// # Errors
///
/// Any [`ClientError`]; decoding never panics on attacker-shaped bytes.
pub fn decode_client_frame(raw: &[u8]) -> Result<ClientFrame, ClientError> {
    let mut r = Reader::new(raw);
    let version = r.u8()?;
    if version != CLIENT_WIRE_VERSION {
        return Err(ClientError::BadVersion(version));
    }
    let tag = r.u8()?;
    let frame = match tag {
        SUBMIT_TAG => {
            let client = r.u64()?;
            let fee = r.u64()?;
            let len = r.u32()?;
            if len > MAX_TX_BYTES {
                return Err(ClientError::Oversize(len.into()));
            }
            let payload = Transaction::from_slice(r.take(len as usize)?);
            ClientFrame::Submit { client, fee, payload }
        }
        SUBMIT_ACK_TAG => {
            let tx = TxId(r.digest()?);
            let code = r.u8()?;
            let status = AckStatus::from_code(code).ok_or(ClientError::BadStatus(code))?;
            ClientFrame::SubmitAck { tx, status }
        }
        other => return Err(ClientError::BadTag(other)),
    };
    if r.remaining() != 0 {
        return Err(ClientError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Whether the first payload byte of a frame marks a client session
/// (as opposed to a peer session speaking [`crate::wire`]).
pub fn is_client_frame(first_byte: u8) -> bool {
    first_byte == CLIENT_WIRE_VERSION
}

/// Peer-frame tag of a [`TxBatch`]. After the peer header
/// (`u8 WIRE_VERSION ‖ u32 sender ‖ u8 tag`), big-endian:
///
/// ```text
/// u32 count (≤ MAX_TXS_PER_BLOCK), then per transaction:
/// u64 fee, u32 size (≤ MAX_TX_BYTES), the payload bytes
/// ```
pub const TX_BATCH_TAG: u8 = 8;

/// Bytes of a batch's header (peer header and count), and of each
/// transaction's fee and size.
const BATCH_HEADER: usize = 1 + 4 + 1 + 4;
const BATCH_ENTRY: usize = 8 + 4;

/// The client transactions one node admitted in one pass over its
/// sockets, pushed to a peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxBatch {
    /// The pushing node, as its header claims (batches are unsigned:
    /// each transaction faces the receiver's own admission policy).
    pub sender: ValidatorId,
    /// `(fee, transaction)` pairs, in the sender's admission order.
    pub txs: Vec<(u64, Transaction)>,
}

/// Whether a peer frame is a [`TxBatch`] (by its header's tag byte).
pub fn is_tx_batch(frame: &[u8]) -> bool {
    matches!(frame, [WIRE_VERSION, _, _, _, _, TX_BATCH_TAG, ..])
}

/// Encodes `txs` from `sender` as [`TxBatch`] frames, in order and as
/// few as the limits allow: at most [`MAX_TXS_PER_BLOCK`] transactions
/// and, unless one transaction alone exceeds it, `max_bytes` bytes per
/// frame. A payload over [`MAX_TX_BYTES`] is left out, as every decoder
/// would drop its frame. No transactions, no frames.
pub fn encode_tx_batches(sender: ValidatorId, txs: &[(u64, Transaction)], max_bytes: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut count = 0u32;
    let mut buf = Vec::new();
    for (fee, tx) in txs {
        let Some(size) = u32::try_from(tx.size()).ok().filter(|n| *n <= MAX_TX_BYTES) else {
            continue;
        };
        if count > 0 && (count == MAX_TXS_PER_BLOCK || buf.len() + BATCH_ENTRY + tx.size() > max_bytes) {
            frames.push(seal_batch(std::mem::take(&mut buf), count));
            count = 0;
        }
        if count == 0 {
            buf.push(WIRE_VERSION);
            buf.extend_from_slice(&sender.raw().to_be_bytes());
            buf.extend_from_slice(&[TX_BATCH_TAG, 0, 0, 0, 0]);
        }
        buf.extend_from_slice(&fee.to_be_bytes());
        buf.extend_from_slice(&size.to_be_bytes());
        buf.extend_from_slice(tx.payload());
        count += 1;
    }
    if count > 0 {
        frames.push(seal_batch(buf, count));
    }
    frames
}

/// Writes `count` into the header of a batch frame.
fn seal_batch(mut frame: Vec<u8>, count: u32) -> Vec<u8> {
    if let Some(slot) = frame.get_mut(BATCH_HEADER - 4..BATCH_HEADER) {
        slot.copy_from_slice(&count.to_be_bytes());
    }
    frame
}

/// Decodes one [`TxBatch`] frame, copying each payload once out of it.
/// The whole frame must be consumed.
///
/// # Errors
///
/// Any [`ClientError`]: a short frame, a count or size over its limit,
/// or a header that is not a batch's. Nothing of a failed frame is
/// returned.
pub fn decode_tx_batch(frame: &[u8]) -> Result<TxBatch, ClientError> {
    let mut r = Reader::new(frame);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(ClientError::BadVersion(version));
    }
    let sender = ValidatorId::new(r.u32()?);
    let tag = r.u8()?;
    if tag != TX_BATCH_TAG {
        return Err(ClientError::BadTag(tag));
    }
    let count = r.u32()?;
    if count > MAX_TXS_PER_BLOCK {
        return Err(ClientError::TooMany(count));
    }
    let mut txs = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let fee = r.u64()?;
        let size = r.u32()?;
        if size > MAX_TX_BYTES {
            return Err(ClientError::Oversize(size.into()));
        }
        txs.push((fee, Transaction::from_slice(r.take(size as usize)?)));
    }
    if r.remaining() != 0 {
        return Err(ClientError::TrailingBytes(r.remaining()));
    }
    Ok(TxBatch { sender, txs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<ClientFrame> {
        let tx = Transaction::new(b"pay bob 3".to_vec());
        vec![
            ClientFrame::Submit { client: 7, fee: 42, payload: tx.clone() },
            ClientFrame::Submit { client: u64::MAX, fee: 0, payload: Transaction::new(Vec::new()) },
            ClientFrame::SubmitAck { tx: tx.id(), status: AckStatus::Accepted },
            ClientFrame::SubmitAck { tx: tx.id(), status: AckStatus::Duplicate },
            ClientFrame::SubmitAck { tx: tx.id(), status: AckStatus::Busy },
            ClientFrame::SubmitAck { tx: tx.id(), status: AckStatus::RateLimited },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for frame in sample_frames() {
            let raw = encode_client_frame(&frame);
            assert_eq!(decode_client_frame(&raw).expect("roundtrip"), frame);
        }
    }

    #[test]
    fn version_discriminates_client_from_peer_frames() {
        assert!(is_client_frame(CLIENT_WIRE_VERSION));
        assert!(!is_client_frame(crate::wire::WIRE_VERSION));
        // The two codecs' leading bytes must never collide.
        assert_ne!(CLIENT_WIRE_VERSION, crate::wire::WIRE_VERSION);
        let raw = encode_client_frame(&sample_frames()[0]);
        assert_eq!(raw.first().copied(), Some(CLIENT_WIRE_VERSION));
    }

    #[test]
    fn peer_version_byte_is_rejected() {
        let mut raw = encode_client_frame(&sample_frames()[0]);
        raw[0] = crate::wire::WIRE_VERSION;
        assert!(matches!(
            decode_client_frame(&raw),
            Err(ClientError::BadVersion(_))
        ));
    }

    #[test]
    fn oversize_submit_rejected() {
        // Hand-build a header announcing an over-limit payload without
        // allocating it.
        let mut raw = Vec::new();
        raw.push(CLIENT_WIRE_VERSION);
        raw.push(SUBMIT_TAG);
        raw.extend_from_slice(&1u64.to_be_bytes());
        raw.extend_from_slice(&1u64.to_be_bytes());
        raw.extend_from_slice(&(MAX_TX_BYTES + 1).to_be_bytes());
        assert!(matches!(
            decode_client_frame(&raw),
            Err(ClientError::Oversize(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = encode_client_frame(&sample_frames()[2]);
        raw.push(0);
        assert!(matches!(
            decode_client_frame(&raw),
            Err(ClientError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncation_fuzz_never_panics() {
        for frame in sample_frames() {
            let raw = encode_client_frame(&frame);
            for cut in 0..raw.len() {
                let _ = decode_client_frame(&raw[..cut]);
            }
        }
    }

    #[test]
    fn mutation_fuzz_never_panics_or_misparses_silently() {
        // Single-byte mutations over every position of every frame:
        // decode must return Ok or a clean error — never panic — and a
        // mutated Submit that still decodes must carry consistent
        // content (the payload length field governs the payload).
        for frame in sample_frames() {
            let raw = encode_client_frame(&frame);
            for pos in 0..raw.len() {
                for delta in [1u8, 0x80] {
                    let mut m = raw.clone();
                    m[pos] = m[pos].wrapping_add(delta);
                    if let Ok(ClientFrame::Submit { payload, .. }) = decode_client_frame(&m) {
                        assert!(payload.size() <= MAX_TX_BYTES as usize);
                    }
                }
            }
        }
    }

    fn sample_batch() -> Vec<(u64, Transaction)> {
        vec![(3, Transaction::new(b"pay bob 3".to_vec())), (0, Transaction::new(Vec::new()))]
    }

    #[test]
    fn a_batch_round_trips_and_is_told_from_consensus_frames() {
        let sender = ValidatorId::new(2);
        let frames = encode_tx_batches(sender, &sample_batch(), usize::MAX);
        assert_eq!(frames.len(), 1);
        assert!(is_tx_batch(&frames[0]));
        assert_eq!(crate::wire::peek_header(&frames[0]).map(|(v, _)| v), Some(sender));
        assert_eq!(decode_tx_batch(&frames[0]), Ok(TxBatch { sender, txs: sample_batch() }));
        assert!(encode_tx_batches(sender, &[], usize::MAX).is_empty());
        assert!(!is_tx_batch(&[WIRE_VERSION, 0, 0, 0, 2, 0]), "a LOG frame");
        assert!(!is_tx_batch(&[CLIENT_WIRE_VERSION, 0, 0, 0, 2, TX_BATCH_TAG]));
    }

    #[test]
    fn batches_split_at_the_byte_budget_and_keep_their_order() {
        let txs: Vec<(u64, Transaction)> = (0..5).map(|i| (i, Transaction::synthetic(i, 100))).collect();
        // Room for two entries per frame.
        let frames = encode_tx_batches(ValidatorId::new(0), &txs, BATCH_HEADER + 2 * (BATCH_ENTRY + 100));
        assert_eq!(frames.len(), 3);
        let back: Vec<_> = frames.iter().flat_map(|f| decode_tx_batch(f).expect("decodes").txs).collect();
        assert_eq!(back, txs);
        // One transaction over the budget still travels, alone.
        assert_eq!(encode_tx_batches(ValidatorId::new(0), &txs, 1).len(), 5);
    }

    #[test]
    fn a_truncated_or_over_limit_batch_decodes_to_nothing() {
        let frame = encode_tx_batches(ValidatorId::new(1), &sample_batch(), usize::MAX).remove(0);
        for cut in 0..frame.len() {
            assert!(decode_tx_batch(&frame[..cut]).is_err(), "cut {cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_tx_batch(&long), Err(ClientError::TrailingBytes(1)));
        let mut many = frame.clone();
        many[6..10].copy_from_slice(&(MAX_TXS_PER_BLOCK + 1).to_be_bytes());
        assert_eq!(decode_tx_batch(&many), Err(ClientError::TooMany(MAX_TXS_PER_BLOCK + 1)));
        let mut big = frame[..BATCH_HEADER + 8].to_vec();
        big.extend_from_slice(&(MAX_TX_BYTES + 1).to_be_bytes());
        assert_eq!(decode_tx_batch(&big), Err(ClientError::Oversize(u64::from(MAX_TX_BYTES) + 1)));
    }

    #[test]
    fn submit_decodes_to_the_transaction_in_a_buffer_of_its_own() {
        let tx = Transaction::new(b"transfer 9".to_vec());
        let raw = encode_client_frame(&ClientFrame::Submit { client: 1, fee: 5, payload: tx.clone() });
        let Ok(ClientFrame::Submit { payload: decoded, .. }) = decode_client_frame(&raw) else {
            panic!("submit frame must decode");
        };
        assert_eq!((decoded.id(), decoded.payload()), (tx.id(), tx.payload()));
        // The one copy: out of the frame, not a view into it.
        let frame = raw.as_ptr_range();
        assert!(!frame.contains(&decoded.payload().as_ptr()), "the payload points into its frame");
    }
}
