//! Client-side connection to a node's ingest plane.
//!
//! [`ClientConn`] wraps one nonblocking socket speaking the client wire
//! protocol (`tobsvd_types::client`): length-prefixed `Submit` frames
//! out, `SubmitAck` frames back. It never blocks — submissions queue in
//! an internal out-buffer and [`ClientConn::pump`] moves bytes in both
//! directions as far as the socket allows — so one driver thread can
//! multiplex hundreds of connections, which is exactly how the ingest
//! bench models large client populations without a thread per user.

use std::net::{SocketAddr, TcpStream};

use tobsvd_types::client::{
    decode_client_frame, encode_client_frame, AckStatus, ClientFrame, MAX_SUBMIT_FRAME_BYTES,
};
use tobsvd_types::{Transaction, TxId};

use crate::frame::Conn;

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
    conn: Conn,
    client: u64,
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
        // Submissions queue without bound: the caller paces them.
        Ok(ClientConn { conn: Conn::new(TcpStream::connect(addr)?, usize::MAX)?, client })
    }

    /// The logical client identity.
    pub fn client(&self) -> u64 {
        self.client
    }

    /// Whether the connection is closed: by the node (slow-client shed
    /// or protocol error), by a corrupt frame from it, or by a socket
    /// error.
    pub fn is_closed(&self) -> bool {
        self.conn.closed
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn pending_out(&self) -> usize {
        self.conn.pending()
    }

    /// Queues one submission and returns the content-addressed id its
    /// ack will carry. Call [`ClientConn::pump`] to move bytes.
    pub fn submit(&mut self, fee: u64, payload: Vec<u8>) -> TxId {
        let tx = Transaction::new(payload);
        let id = tx.id();
        let frame = encode_client_frame(&ClientFrame::Submit { client: self.client, fee, payload: tx });
        // A payload too large to frame is not sent; its ack never comes,
        // which is what the node's own size cap would have made of it.
        self.conn.push(&frame, false);
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
        self.conn.flush()?;
        self.conn.fill(usize::MAX)?;
        let mut acks = Vec::new();
        self.conn.frames(MAX_SUBMIT_FRAME_BYTES, |_, frame| {
            if let Ok(ClientFrame::SubmitAck { tx, status }) = decode_client_frame(frame) {
                acks.push(Ack { tx, status });
            }
            true
        });
        Ok(acks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    #[test]
    fn a_corrupt_length_prefix_from_the_node_closes_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut conn = ClientConn::connect(listener.local_addr().expect("addr"), 7).expect("connect");
        // The node's end stays open: the close is the client's own.
        let (mut node, _) = listener.accept().expect("accept");
        let tx = Transaction::new(vec![1; 32]).id();
        let ack = encode_client_frame(&ClientFrame::SubmitAck { tx, status: AckStatus::Accepted });
        let len = |n: usize| (n as u32).to_be_bytes();
        let over_cap = len(MAX_SUBMIT_FRAME_BYTES + 1);
        node.write_all(&[&len(ack.len())[..], &ack, &over_cap, &[0; 8]].concat()).expect("write");

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut acks = Vec::new();
        while !conn.is_closed() {
            assert!(Instant::now() < deadline, "still open, {} acks in", acks.len());
            acks.extend(conn.pump().expect("no socket error"));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(acks, vec![Ack { tx, status: AckStatus::Accepted }], "the frame before it is read");
    }
}
