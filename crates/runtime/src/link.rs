//! A dialed peer ([`Link`]): its framed connection and the tips whose
//! bodies it carried.
//!
//! **Tip elision.** A log-carrying frame (LOG, PROPOSAL, VOTE,
//! RECOVERY, FINALITY-VOTE, certificate) names its log by tip, and its
//! full form inlines the tip block's body (`tobsvd_types::wire`). The
//! node sends the hash-only form instead, with no body, to a peer known
//! to store the tip:
//!
//! * the tip block's proposer, who made the block; or
//! * a peer whose link has carried the tip's body.
//!
//! Every other peer gets the full frame, and its link notes the tip.
//! The note is bounded, a ring of the last [`CARRIED_CAP`] tips with
//! the oldest forgotten first (a forgotten tip ships in full again),
//! and it dies with the link. The rule is safe because TCP keeps a
//! link's frames in order: the peer reads the full frame before any
//! hash-only one behind it. So it has stored the tip by then, or it
//! parked the full frame on a missing ancestor; then the hash-only
//! frame parks on the tip, and both resolve once the gap is fetched. A
//! peer that no longer holds the tip (it restarted without it) parks
//! and fetches too.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;

use tobsvd_types::BlockId;

use crate::frame::{Conn, Pushed, MAX_FRAME_BYTES};

/// Unsent bytes a peer link may hold before it is closed as a peer that
/// stopped reading: room for two frames of the largest size.
pub(crate) const PEER_OUTBUF_CAP: usize = 2 * MAX_FRAME_BYTES;

/// Tips a link remembers having carried the bodies of.
pub(crate) const CARRIED_CAP: usize = 64;

/// A dialed peer.
pub(crate) struct Link {
    conn: Conn,
    /// Tips whose bodies this link carried, oldest first.
    carried: VecDeque<BlockId>,
}

impl Link {
    /// Takes over a dialed `stream`.
    ///
    /// # Errors
    ///
    /// The OS error if the stream cannot be made nonblocking.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Link> {
        Ok(Link { conn: Conn::new(stream, PEER_OUTBUF_CAP)?, carried: VecDeque::with_capacity(CARRIED_CAP) })
    }

    /// Writes what the socket takes of the unsent bytes; `false` once
    /// the peer is gone.
    pub(crate) fn flush(&mut self) -> bool {
        let _ = self.conn.flush();
        !self.conn.closed
    }

    /// Queues one frame and writes what the socket takes at once; the
    /// link closes if the peer is gone or holds over
    /// [`PEER_OUTBUF_CAP`] unsent bytes.
    pub(crate) fn push(&mut self, payload: &[u8]) -> Pushed {
        self.conn.push(payload, true)
    }

    /// Whether this link carried `tip`'s body among its last
    /// [`CARRIED_CAP`] tips.
    pub(crate) fn carried(&self, tip: BlockId) -> bool {
        self.carried.contains(&tip)
    }

    /// Notes that this link carried `tip`'s body, forgetting the oldest
    /// tip when the record is full.
    pub(crate) fn note_carried(&mut self, tip: BlockId) {
        if self.carried.len() == CARRIED_CAP {
            self.carried.pop_front();
        }
        self.carried.push_back(tip);
    }
}
