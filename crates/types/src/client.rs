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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tobsvd_crypto::Digest;

use crate::tx::{Transaction, TxId};
use crate::wire::MAX_TX_BYTES;

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
        /// Raw transaction payload: on decode, a view into the frame
        /// that [`submit_transaction`] copies out of.
        payload: Bytes,
    },
    /// The node's admission verdict for a submitted transaction.
    SubmitAck {
        /// Identity of the transaction being acknowledged.
        tx: TxId,
        /// The verdict.
        status: AckStatus,
    },
}

/// Client-codec errors. All are terminal for the session: a client
/// that sends a malformed frame is disconnected.
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
        }
    }
}

impl std::error::Error for ClientError {}

/// Encodes one client frame.
pub fn encode_client_frame(frame: &ClientFrame) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u8(CLIENT_WIRE_VERSION);
    match frame {
        ClientFrame::Submit { client, fee, payload } => {
            buf.put_u8(SUBMIT_TAG);
            buf.put_u64(*client);
            buf.put_u64(*fee);
            buf.put_u32(payload.len().min(u32::MAX as usize) as u32);
            buf.put_slice(payload);
        }
        ClientFrame::SubmitAck { tx, status } => {
            buf.put_u8(SUBMIT_ACK_TAG);
            buf.put_slice(tx.0.as_bytes());
            buf.put_u8(status.code());
        }
    }
    buf.freeze()
}

/// Decodes one client frame. The whole buffer must be consumed.
///
/// # Errors
///
/// Any [`ClientError`]; decoding never panics on attacker-shaped bytes.
pub fn decode_client_frame(raw: Bytes) -> Result<ClientFrame, ClientError> {
    let mut buf = raw;
    let version = get_u8(&mut buf)?;
    if version != CLIENT_WIRE_VERSION {
        return Err(ClientError::BadVersion(version));
    }
    let tag = get_u8(&mut buf)?;
    let frame = match tag {
        SUBMIT_TAG => {
            let client = get_u64(&mut buf)?;
            let fee = get_u64(&mut buf)?;
            let len = get_u32(&mut buf)? as u64;
            if len > MAX_TX_BYTES as u64 {
                return Err(ClientError::Oversize(len));
            }
            if (buf.remaining() as u64) < len {
                return Err(ClientError::Truncated);
            }
            let payload = buf.copy_to_bytes(len as usize);
            ClientFrame::Submit { client, fee, payload }
        }
        SUBMIT_ACK_TAG => {
            if buf.remaining() < 32 {
                return Err(ClientError::Truncated);
            }
            let mut digest = [0u8; 32];
            buf.copy_to_slice(&mut digest);
            let code = get_u8(&mut buf)?;
            let status = match AckStatus::from_code(code) {
                Some(s) => s,
                None => return Err(ClientError::BadStatus(code)),
            };
            ClientFrame::SubmitAck { tx: TxId(Digest::from_bytes(digest)), status }
        }
        other => return Err(ClientError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(ClientError::TrailingBytes(buf.remaining()));
    }
    Ok(frame)
}

/// Whether the first payload byte of a frame marks a client session
/// (as opposed to a peer session speaking [`crate::wire`]).
pub fn is_client_frame(first_byte: u8) -> bool {
    first_byte == CLIENT_WIRE_VERSION
}

/// The transaction a `Submit` frame denotes, in its own buffer.
pub fn submit_transaction(payload: &[u8]) -> Transaction {
    Transaction::from_slice(payload)
}

fn get_u8(buf: &mut Bytes) -> Result<u8, ClientError> {
    if buf.remaining() < 1 {
        return Err(ClientError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ClientError> {
    if buf.remaining() < 4 {
        return Err(ClientError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, ClientError> {
    if buf.remaining() < 8 {
        return Err(ClientError::Truncated);
    }
    Ok(buf.get_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<ClientFrame> {
        let tx = Transaction::new(b"pay bob 3".to_vec());
        vec![
            ClientFrame::Submit { client: 7, fee: 42, payload: Bytes::from(&b"pay bob 3"[..]) },
            ClientFrame::Submit { client: u64::MAX, fee: 0, payload: Bytes::new() },
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
            assert_eq!(decode_client_frame(raw).expect("roundtrip"), frame);
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
        let mut raw = encode_client_frame(&sample_frames()[0]).to_vec();
        raw[0] = crate::wire::WIRE_VERSION;
        assert!(matches!(
            decode_client_frame(Bytes::from(raw)),
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
            decode_client_frame(Bytes::from(raw)),
            Err(ClientError::Oversize(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = encode_client_frame(&sample_frames()[2]).to_vec();
        raw.push(0);
        assert!(matches!(
            decode_client_frame(Bytes::from(raw)),
            Err(ClientError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncation_fuzz_never_panics() {
        for frame in sample_frames() {
            let raw = encode_client_frame(&frame);
            for cut in 0..raw.len() {
                let _ = decode_client_frame(raw.slice(..cut));
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
            let raw = encode_client_frame(&frame).to_vec();
            for pos in 0..raw.len() {
                for delta in [1u8, 0x80] {
                    let mut m = raw.clone();
                    m[pos] = m[pos].wrapping_add(delta);
                    if let Ok(ClientFrame::Submit { payload, .. }) =
                        decode_client_frame(Bytes::from(m))
                    {
                        assert!(payload.len() <= MAX_TX_BYTES as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn submit_denotes_content_addressed_transaction() {
        let payload = b"transfer 9".to_vec();
        let frame = ClientFrame::Submit { client: 1, fee: 5, payload: Bytes::from(payload.clone()) };
        let raw = encode_client_frame(&frame);
        let Ok(ClientFrame::Submit { payload: decoded, .. }) = decode_client_frame(raw) else {
            panic!("submit frame must decode");
        };
        assert_eq!(submit_transaction(&decoded).id(), Transaction::new(payload).id());
    }
}
