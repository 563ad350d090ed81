//! Client-side connection to a node's ingest plane.
//!
//! [`ClientConn`] wraps one nonblocking socket speaking the client wire
//! protocol (`tobsvd_types::client`): length-prefixed `Submit` frames
//! out, `SubmitAck` frames back. It never blocks — submissions queue in
//! an internal out-buffer and [`ClientConn::pump`] moves bytes in both
//! directions as far as the socket allows — so one driver thread can
//! multiplex hundreds of connections, which is exactly how the ingest
//! bench models large client populations without a thread per user.

use std::net::SocketAddr;

use tobsvd_types::client::{
    decode_client_frame, encode_client_frame, submit_transaction, AckStatus, ClientFrame,
    MAX_SUBMIT_FRAME_BYTES,
};
use tobsvd_types::TxId;

use crate::frame::{self, FrameStep};

/// One received acknowledgment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Content-addressed id of the acknowledged transaction.
    pub tx: TxId,
    /// The node's admission verdict.
    pub status: AckStatus,
}

/// A nonblocking client connection to a node's listener.
#[derive(Debug)]
pub struct ClientConn {
    stream: std::net::TcpStream,
    client: u64,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    closed: bool,
}

impl ClientConn {
    /// Connects to `addr` as logical client `client` (the identity the
    /// node's per-client rate caps key on) and switches the socket to
    /// nonblocking mode.
    ///
    /// # Errors
    ///
    /// Propagates connection/socket errors.
    pub fn connect(addr: SocketAddr, client: u64) -> std::io::Result<ClientConn> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(ClientConn {
            stream,
            client,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            closed: false,
        })
    }

    /// The logical client identity.
    pub fn client(&self) -> u64 {
        self.client
    }

    /// Whether the node closed the connection (slow-client shed or
    /// protocol error).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    /// Queues one submission and returns the content-addressed id its
    /// ack will carry. Call [`ClientConn::pump`] to move bytes.
    pub fn submit(&mut self, fee: u64, payload: Vec<u8>) -> TxId {
        let id = submit_transaction(&payload).id();
        let frame = encode_client_frame(&ClientFrame::Submit {
            client: self.client,
            fee,
            payload: payload.into(),
        });
        // A payload too large to frame is not sent; its ack never comes,
        // which is what the node's own size cap would have made of it.
        frame::push(&mut self.outbuf, &frame);
        id
    }

    /// Writes queued submissions and reads available acks, without
    /// blocking. Returns the acks received this call.
    ///
    /// # Errors
    ///
    /// Propagates unexpected socket errors (`WouldBlock` is not an
    /// error; EOF marks the connection closed and returns normally).
    pub fn pump(&mut self) -> std::io::Result<Vec<Ack>> {
        self.closed |= frame::flush(&mut self.stream, &mut self.outbuf, &mut self.out_pos)?;
        self.closed |= frame::fill(&mut self.stream, &mut self.inbuf, usize::MAX)?;
        let mut acks = Vec::new();
        let mut consumed = 0;
        loop {
            match frame::take(&self.inbuf, &mut consumed, MAX_SUBMIT_FRAME_BYTES) {
                FrameStep::Incomplete => break,
                FrameStep::Corrupt => {
                    // Garbled stream: nothing sane can follow.
                    self.closed = true;
                    break;
                }
                FrameStep::Frame(frame) => {
                    if let Ok(ClientFrame::SubmitAck { tx, status }) = decode_client_frame(frame) {
                        acks.push(Ack { tx, status });
                    }
                }
            }
        }
        self.inbuf.drain(..consumed);
        Ok(acks)
    }
}
