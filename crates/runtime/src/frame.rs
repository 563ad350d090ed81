//! Length-prefixed framing over TCP streams — the one place in this
//! crate that knows the frame format.
//!
//! Frame layout: `u32` big-endian payload length, then the payload (a
//! [`tobsvd_types::wire`] peer message or a [`tobsvd_types::client`]
//! frame). A zero length, or one above the reader's cap
//! ([`MAX_FRAME_BYTES`] on peer sessions, `MAX_SUBMIT_FRAME_BYTES` on
//! client sessions), marks the stream corrupt: nothing sane can follow
//! a garbled prefix.
//!
//! [`take`] only advances a read cursor and lends the frame out of the
//! caller's buffer: a frame is decoded where it was read, and the
//! caller drains the consumed prefix once per read cycle, so a burst of
//! k frames costs one memmove, not k copies.
//!
//! [`fill`] and [`flush`] are the nonblocking socket ends of the same
//! buffers: every session, node-side or client-side, reads and writes
//! through them.

use std::io::{self, ErrorKind, Read, Write};

use tobsvd_types::codec::Reader;

/// Upper bound on frame payload size (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes of the length prefix.
pub(crate) const PREFIX: usize = 4;

/// Appends `len ‖ payload` to `out` — or nothing at all for exactly the
/// frames no reader accepts: an empty payload or one above
/// [`MAX_FRAME_BYTES`].
pub(crate) fn push(out: &mut Vec<u8>, payload: &[u8]) {
    let Ok(len) = u32::try_from(payload.len()) else {
        return;
    };
    if payload.is_empty() || payload.len() > MAX_FRAME_BYTES {
        return;
    }
    out.reserve(PREFIX + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Outcome of one [`take`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameStep<'a> {
    /// No complete frame buffered yet.
    Incomplete,
    /// One frame's payload, borrowed from the buffer.
    Frame(&'a [u8]),
    /// The stream is unsalvageable (zero or oversize length).
    Corrupt,
}

/// Extracts the frame starting at `buf[*cursor]`, if complete, and
/// advances `cursor` past it; `max` is the session's payload cap.
pub(crate) fn take<'a>(buf: &'a [u8], cursor: &mut usize, max: usize) -> FrameStep<'a> {
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

/// Whether an I/O error means the peer is gone, not a local fault.
fn peer_gone(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset)
}

/// Appends what a nonblocking `stream` has ready, up to about `budget`
/// bytes, to `inbuf`. `Ok(true)` when the peer closed the stream.
///
/// # Errors
///
/// Socket errors other than would-block, interruption and a vanished
/// peer.
pub(crate) fn fill(stream: &mut impl Read, inbuf: &mut Vec<u8>, budget: usize) -> io::Result<bool> {
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    while total < budget {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                total = total.saturating_add(n);
                inbuf.extend_from_slice(chunk.get(..n).unwrap_or_default());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if peer_gone(&e) => return Ok(true),
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Writes as much of `outbuf[*pos..]` as a nonblocking `stream` accepts,
/// advancing `pos`. A fully written buffer is reset, and a written
/// prefix at least as long as what is left is cut off, so a buffer that
/// never quite drains still holds at most about twice its pending bytes.
/// `Ok(true)` when the peer closed the stream.
///
/// # Errors
///
/// As [`fill`].
pub(crate) fn flush(stream: &mut impl Write, outbuf: &mut Vec<u8>, pos: &mut usize) -> io::Result<bool> {
    let closed = loop {
        let Some(pending) = outbuf.get(*pos..).filter(|p| !p.is_empty()) else {
            break false;
        };
        match stream.write(pending) {
            Ok(0) => break true,
            Ok(n) => *pos = pos.saturating_add(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if peer_gone(&e) => break true,
            Err(e) => return Err(e),
        }
    };
    if *pos >= outbuf.len() {
        outbuf.clear();
        *pos = 0;
    } else if *pos >= outbuf.len().saturating_sub(*pos) {
        outbuf.drain(..*pos);
        *pos = 0;
    }
    Ok(closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            let before = out.len();
            push(&mut out, f);
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
        push(&mut out, &vec![0u8; MAX_FRAME_BYTES + 1]);
        push(&mut out, b"");
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

    /// Takes at most `room` bytes into `got`, then would block.
    struct Trickle {
        room: usize,
        got: Vec<u8>,
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

    #[test]
    fn a_buffer_that_never_drains_holds_under_twice_its_pending_bytes() {
        let (mut outbuf, mut pos, mut sent) = (Vec::new(), 0, Vec::new());
        let pushed: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for chunk in pushed.chunks(100) {
            outbuf.extend_from_slice(chunk);
            let mut sink = Trickle { room: 90, got: Vec::new() };
            assert!(!flush(&mut sink, &mut outbuf, &mut pos).expect("would block, not fail"));
            sent.extend_from_slice(&sink.got);
            assert!(pos == 0 || outbuf.len() < 2 * (outbuf.len() - pos), "{pos} of {}", outbuf.len());
        }
        sent.extend_from_slice(&outbuf[pos..]);
        assert_eq!(sent, pushed, "what was written, then what is left, in order");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A reader fed the stream in arbitrary chunks, compacting once
        /// per read like the sessions do, yields the frames of the
        /// unchunked stream — and after every chunk holds exactly the
        /// frames whose last byte has arrived: every strict prefix of a
        /// frame is `Incomplete`.
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
            let (mut inbuf, mut got, mut fed) = (Vec::new(), Vec::new(), 0);
            for n in cuts.iter().cycle() {
                if fed == stream.len() {
                    break;
                }
                let n = (*n).min(stream.len() - fed);
                inbuf.extend_from_slice(&stream[fed..fed + n]);
                fed += n;
                let mut cursor = 0;
                let (now, end) = drain(&inbuf, &mut cursor, MAX_FRAME_BYTES);
                prop_assert_eq!(end, FrameStep::Incomplete);
                inbuf.drain(..cursor);
                got.extend(now);
                prop_assert_eq!(got.len(), ends.iter().filter(|e| **e <= fed).count());
            }
            prop_assert_eq!(got, frames);
            prop_assert!(inbuf.is_empty());
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
