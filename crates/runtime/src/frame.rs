//! Length-prefixed framing over TCP streams — the one place in this
//! crate that knows the frame format or holds a connected socket.
//!
//! Frame layout: `u32` big-endian payload length, then the payload (a
//! [`tobsvd_types::wire`] peer message or a [`tobsvd_types::client`]
//! frame). A zero length, or one above the reader's cap
//! ([`MAX_FRAME_BYTES`] on peer sessions, `MAX_SUBMIT_FRAME_BYTES` on
//! client sessions), marks the stream corrupt: nothing sane can follow
//! a garbled prefix.
//!
//! Every socket end (a dialed peer link, an inbound session, a client's
//! connection) is one [`Conn`]: a nonblocking stream, the bytes read but
//! not yet taken as frames, the bytes queued but not yet written, and
//! whether it is closed. [`Conn::frames`] lends each frame out of the
//! in-buffer, so a frame is decoded where it was read, and drains the
//! consumed prefix once per call: a burst of k frames costs one memmove,
//! not k copies.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;

use tobsvd_types::codec::Reader;

/// Upper bound on frame payload size (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes of the length prefix.
const PREFIX: usize = 4;

/// What became of a payload handed to [`Conn::push`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pushed {
    /// Queued, and written as far as the socket took it if asked to.
    Queued,
    /// Not queued: an empty payload or one above [`MAX_FRAME_BYTES`],
    /// which no reader accepts.
    Refused,
    /// The peer is gone: the connection is closed.
    Gone,
    /// Over the connection's cap of unsent bytes: the peer stopped
    /// reading, and the connection is closed.
    Slow,
}

/// One end of a framed stream.
#[derive(Debug)]
pub(crate) struct Conn<S = TcpStream> {
    stream: S,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Unsent bytes past which a push closes the connection.
    out_cap: usize,
    /// Whether the peer is gone, the stream failed or turned corrupt,
    /// or the owner closed it.
    pub(crate) closed: bool,
}

impl Conn {
    /// Takes over `stream`, made nonblocking and, where the OS allows,
    /// without Nagle's delay.
    ///
    /// # Errors
    ///
    /// The OS error if the stream cannot be made nonblocking.
    pub(crate) fn new(stream: TcpStream, out_cap: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn { stream, inbuf: Vec::new(), outbuf: Vec::new(), out_pos: 0, out_cap, closed: false })
    }
}

impl<S: Read + Write> Conn<S> {
    /// Bytes queued but not yet taken by the socket.
    pub(crate) fn pending(&self) -> usize {
        self.outbuf.len().saturating_sub(self.out_pos)
    }

    /// Bytes held in both buffers.
    pub(crate) fn buffered(&self) -> usize {
        self.inbuf.len().saturating_add(self.pending())
    }

    /// The first payload byte of the next frame, once it arrived.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.inbuf.get(PREFIX).copied()
    }

    /// Queues `payload` as one frame and, if `write`, writes what the
    /// socket takes at once. Over its cap of unsent bytes, the
    /// connection closes.
    pub(crate) fn push(&mut self, payload: &[u8], write: bool) -> Pushed {
        if !push(&mut self.outbuf, payload) {
            return Pushed::Refused;
        }
        if write && (self.flush().is_err() || self.closed) {
            return Pushed::Gone;
        }
        if self.pending() > self.out_cap {
            self.closed = true;
            Pushed::Slow
        } else {
            Pushed::Queued
        }
    }

    /// Writes as much of the unsent bytes as the socket takes. A fully
    /// written buffer is reset, and a written prefix at least as long as
    /// what is left is cut off, so a buffer that never quite drains
    /// still holds at most about twice its unsent bytes. A vanished peer
    /// closes the connection.
    ///
    /// # Errors
    ///
    /// Socket errors other than would-block, interruption and a vanished
    /// peer; they close the connection too.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        while let Some(pending) = self.outbuf.get(self.out_pos..).filter(|p| !p.is_empty()) {
            match self.stream.write(pending) {
                Ok(n) if n > 0 => self.out_pos = self.out_pos.saturating_add(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if !peer_gone(&e) => return Err(self.fail(e)),
                _ => {
                    self.closed = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos >= self.pending() {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what the socket has ready, up to about `budget` bytes;
    /// `Ok(true)` if the budget ran out, so more may wait. End of stream
    /// closes the connection.
    ///
    /// # Errors
    ///
    /// As [`Conn::flush`].
    pub(crate) fn fill(&mut self, budget: usize) -> io::Result<bool> {
        let mut chunk = [0u8; 4096];
        let mut total = 0usize;
        while total < budget {
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    total = total.saturating_add(n);
                    self.inbuf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if !peer_gone(&e) => return Err(self.fail(e)),
                _ => {
                    self.closed = true;
                    break;
                }
            }
        }
        Ok(total >= budget)
    }

    /// Closes the connection on a socket error, handing the error on.
    fn fail(&mut self, e: io::Error) -> io::Error {
        self.closed = true;
        e
    }

    /// Hands each complete frame of at most `max` payload bytes to
    /// `each`, with the connection, until `each` returns `false` or no
    /// complete frame is left, then drops the frames taken. A corrupt
    /// prefix closes the connection; returns whether one did.
    pub(crate) fn frames(&mut self, max: usize, mut each: impl FnMut(&mut Self, &[u8]) -> bool) -> bool {
        // The in-buffer is lent out while its frames are handled.
        let inbuf = std::mem::take(&mut self.inbuf);
        let mut consumed = 0;
        let corrupt = loop {
            match take(&inbuf, &mut consumed, max) {
                FrameStep::Incomplete => break false,
                FrameStep::Corrupt => break true,
                FrameStep::Frame(frame) => {
                    if !each(self, frame) {
                        break false;
                    }
                }
            }
        };
        self.closed |= corrupt;
        self.inbuf = inbuf;
        self.inbuf.drain(..consumed);
        corrupt
    }
}

/// Whether an I/O error means the peer is gone, not a local fault.
fn peer_gone(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset)
}

/// Appends `len ‖ payload` to `out` and returns `true` — or appends
/// nothing and returns `false` for exactly the frames no reader
/// accepts: an empty payload or one above [`MAX_FRAME_BYTES`].
fn push(out: &mut Vec<u8>, payload: &[u8]) -> bool {
    let Ok(len) = u32::try_from(payload.len()) else {
        return false;
    };
    if payload.is_empty() || payload.len() > MAX_FRAME_BYTES {
        return false;
    }
    out.reserve(PREFIX + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    true
}

/// Outcome of one [`take`].
#[derive(Debug, PartialEq, Eq)]
enum FrameStep<'a> {
    /// No complete frame buffered yet.
    Incomplete,
    /// One frame's payload, borrowed from the buffer.
    Frame(&'a [u8]),
    /// The stream is unsalvageable (zero or oversize length).
    Corrupt,
}

/// Extracts the frame starting at `buf[*cursor]`, if complete, and
/// advances `cursor` past it; `max` is the session's payload cap.
fn take<'a>(buf: &'a [u8], cursor: &mut usize, max: usize) -> FrameStep<'a> {
    let mut r = Reader::new(buf.get(*cursor..).unwrap_or_default());
    let Ok(len) = r.u32().map(|len| len as usize) else {
        return FrameStep::Incomplete;
    };
    if len == 0 || len > max {
        return FrameStep::Corrupt;
    }
    let Ok(payload) = r.take(len) else {
        return FrameStep::Incomplete;
    };
    *cursor = cursor.saturating_add(PREFIX + len);
    FrameStep::Frame(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            let before = out.len();
            assert!(push(&mut out, f));
            assert_eq!(out.len(), before + PREFIX + f.len());
        }
        out
    }

    /// Takes frames off `buf` until `take` stops yielding them.
    fn drain<'a>(buf: &'a [u8], cursor: &mut usize, max: usize) -> (Vec<Vec<u8>>, FrameStep<'a>) {
        let mut got = Vec::new();
        loop {
            match take(buf, cursor, max) {
                FrameStep::Frame(f) => got.push(f.to_vec()),
                end => return (got, end),
            }
        }
    }

    #[test]
    fn roundtrip() {
        let frames = vec![b"hello".to_vec(), vec![9], vec![7u8; 1000]];
        let buf = encode(&frames);
        let mut cursor = 0;
        assert_eq!(drain(&buf, &mut cursor, MAX_FRAME_BYTES), (frames, FrameStep::Incomplete));
        assert_eq!(cursor, buf.len());
    }

    #[test]
    fn oversize_and_empty_rejected_on_write() {
        let mut out = Vec::new();
        assert!(!push(&mut out, &vec![0u8; MAX_FRAME_BYTES + 1]));
        assert!(!push(&mut out, b""));
        assert!(out.is_empty(), "a refused frame appends nothing");
    }

    #[test]
    fn oversize_and_zero_length_rejected_on_read() {
        for prefix in [u32::MAX, MAX_FRAME_BYTES as u32 + 1, 0] {
            assert_eq!(take(&prefix.to_be_bytes(), &mut 0, MAX_FRAME_BYTES), FrameStep::Corrupt);
        }
        // The cap is the reader's: a frame legal for peers is corrupt
        // on a session with a smaller cap.
        assert_eq!(take(&encode(&[vec![1u8; 65]]), &mut 0, 64), FrameStep::Corrupt);
    }

    #[test]
    fn truncated_frame_is_incomplete_and_consumes_nothing() {
        let bytes = encode(&[b"hello".to_vec()]);
        let mut cursor = 0;
        let cut = &bytes[..bytes.len() - 2];
        assert_eq!(take(cut, &mut cursor, MAX_FRAME_BYTES), FrameStep::Incomplete);
        assert_eq!(cursor, 0);
        assert_eq!(take(&bytes, &mut cursor, MAX_FRAME_BYTES), FrameStep::Frame(b"hello"));
    }

    /// A stream that reads `inflow` and writes into `got`, each at most
    /// `room` bytes at a time, then would block.
    struct Trickle {
        room: usize,
        inflow: Vec<u8>,
        got: Vec<u8>,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room).min(self.inflow.len());
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.room -= n;
            buf[..n].copy_from_slice(&self.inflow[..n]);
            self.inflow.drain(..n);
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room);
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.room -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn trickle(inflow: Vec<u8>) -> Conn<Trickle> {
        let stream = Trickle { room: 0, inflow, got: Vec::new() };
        Conn { stream, inbuf: Vec::new(), outbuf: Vec::new(), out_pos: 0, out_cap: usize::MAX, closed: false }
    }

    #[test]
    fn a_buffer_that_never_drains_holds_under_twice_its_pending_bytes() {
        let (mut conn, mut sent) = (trickle(Vec::new()), Vec::new());
        let pushed: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for chunk in pushed.chunks(100) {
            conn.outbuf.extend_from_slice(chunk);
            conn.stream.room = 90;
            conn.flush().expect("would block, not fail");
            sent.append(&mut conn.stream.got);
            let (len, pos) = (conn.outbuf.len(), conn.out_pos);
            assert!(pos == 0 || len < 2 * (len - pos), "{pos} of {len}");
        }
        assert!(!conn.closed);
        sent.extend_from_slice(&conn.outbuf[conn.out_pos..]);
        assert_eq!(sent, pushed, "what was written, then what is left, in order");
    }

    #[test]
    fn a_push_over_the_cap_closes_the_connection() {
        let mut conn = trickle(Vec::new());
        conn.out_cap = 2 * (PREFIX + 8);
        assert_eq!([0; 2].map(|_| conn.push(&[1; 8], false)), [Pushed::Queued, Pushed::Queued]);
        assert_eq!(conn.push(&[], false), Pushed::Refused);
        assert!(!conn.closed, "a refused payload queues nothing");
        assert_eq!(conn.push(&[1; 8], false), Pushed::Slow);
        assert!(conn.closed);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A connection fed the stream in arbitrary chunks, taking its
        /// frames after each, yields the frames of the unchunked stream —
        /// and after every chunk holds exactly the frames whose last byte
        /// has arrived: every strict prefix of a frame waits.
        #[test]
        fn chunking_never_changes_the_frames(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..200usize), 0..12usize),
            cuts in proptest::collection::vec(1usize..64, 1..40usize),
        ) {
            let stream = encode(&frames);
            let mut ends = Vec::new();
            for f in &frames {
                ends.push(ends.last().copied().unwrap_or(0) + PREFIX + f.len());
            }
            let (mut conn, mut got, mut fed) = (trickle(stream.clone()), Vec::new(), 0);
            for n in cuts.iter().cycle() {
                if fed == stream.len() {
                    break;
                }
                conn.stream.room = *n;
                conn.fill(usize::MAX).expect("would block, not fail");
                fed = stream.len() - conn.stream.inflow.len();
                let corrupt = conn.frames(MAX_FRAME_BYTES, |_, f| {
                    got.push(f.to_vec());
                    true
                });
                prop_assert!(!corrupt && !conn.closed);
                prop_assert_eq!(got.len(), ends.iter().filter(|e| **e <= fed).count());
            }
            prop_assert_eq!(got, frames);
            prop_assert!(conn.inbuf.is_empty());
        }

        /// Zero and over-cap lengths are `Corrupt` whatever follows,
        /// after any number of good frames.
        #[test]
        fn zero_and_over_cap_lengths_are_corrupt(
            lead in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..32usize), 0..4usize),
            cap in 32usize..4096,
            over in proptest::option::of(1u32..1000),
            trail in proptest::collection::vec(any::<u8>(), 0..20usize),
        ) {
            let mut bytes = encode(&lead);
            bytes.extend_from_slice(&over.map_or(0, |o| cap as u32 + o).to_be_bytes());
            bytes.extend_from_slice(&trail);
            prop_assert_eq!(drain(&bytes, &mut 0, cap), (lead, FrameStep::Corrupt));
        }
    }
}
