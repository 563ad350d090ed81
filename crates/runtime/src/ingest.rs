//! Readiness-based inbound session layer: one I/O thread per node
//! serving every inbound socket — the peer mesh *and* thousands of
//! client connections — through a single `mio`-style poll loop.
//!
//! Per-connection cost is one registered poll source and two small
//! buffers, so a node comfortably holds thousands of concurrent client
//! sockets within a fixed two-thread budget (this I/O loop + the
//! tick-driven node loop).
//!
//! # Session model
//!
//! All inbound connections arrive on the node's one listener. The first
//! payload byte of a session's first frame classifies it:
//!
//! * [`tobsvd_types::wire::WIRE_VERSION`] — a **peer** session carrying
//!   consensus frames, decoded and handed to the node loop (including
//!   the park-and-fetch `MissingBlocks` path);
//! * [`tobsvd_types::client::CLIENT_WIRE_VERSION`] — a **client**
//!   session carrying `Submit` frames. Submissions go through the
//!   shared bounded mempool ([`Mempool::admit`]) *on this thread* —
//!   admission is cheap and ack turnaround must not wait for the next
//!   tick — and every submission is answered with a `SubmitAck`.
//!
//! # Backpressure
//!
//! Overload is shed explicitly, never by unbounded queueing:
//!
//! * the mempool's [`AdmissionPolicy`](tobsvd_sim::AdmissionPolicy)
//!   bounds pending transactions; `Busy`/`RateLimited` verdicts travel
//!   back as acks;
//! * a client whose submission was shed is **read-throttled**: its
//!   socket is deregistered from the poll for a short window, so the
//!   kernel receive buffer fills and TCP pushes back to the sender;
//! * ack bytes a client refuses to read are buffered only up to
//!   [`CLIENT_OUTBUF_CAP`]; beyond that the session is closed as a slow
//!   client;
//! * each session gets a bounded read budget per poll cycle, so one
//!   fire-hosing socket cannot head-of-line-block peers or other
//!   clients sharing the loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;
use mio::{Events, Interest, Poll, Token};
use tobsvd_sim::Mempool;
use tobsvd_types::client::{
    decode_client_frame, encode_client_frame, is_client_frame, AckStatus, ClientFrame,
    MAX_SUBMIT_FRAME_BYTES,
};
use tobsvd_types::{wire, BlockId, BlockStore, SignedMessage};

use crate::clock::TickClock;
use crate::frame::{self, FrameStep, MAX_FRAME_BYTES};

/// Token of the listener; sessions get tokens from 1 upward.
const LISTENER: Token = Token(0);

/// Per-cycle read budget of a client session (bytes).
const CLIENT_READ_BUDGET: usize = 16 * 1024;

/// Per-cycle read budget of a peer session (bytes) — peers ship block
/// fetch responses that dwarf client submits.
const PEER_READ_BUDGET: usize = 256 * 1024;

/// Unread ack bytes a client session may accumulate before it is closed
/// as a slow client.
pub const CLIENT_OUTBUF_CAP: usize = 256 * 1024;

/// Poll timeout per cycle: short enough that throttle expiry and the
/// stop flag are observed promptly.
const POLL_TIMEOUT: Duration = Duration::from_millis(1);

/// What a reader hands the node loop.
pub(crate) enum Inbound {
    /// A fully decoded message (`u64` = frame payload length).
    Msg(SignedMessage, u64),
    /// A well-formed frame referencing blocks the store lacks, for
    /// [`tobsvd_core::Validator::park_frame`].
    NeedBlocks {
        /// The raw frame to re-decode once blocks arrive.
        raw: Bytes,
        /// The block id whose arrival unblocks the frame.
        missing: BlockId,
        /// Fetch start-height hint.
        from_height: u64,
    },
}

/// Counters of one node's ingest plane over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Connections accepted.
    pub sessions_accepted: u64,
    /// Peak concurrent sessions.
    pub sessions_peak: u64,
    /// Sessions classified as peers.
    pub peer_sessions: u64,
    /// Sessions classified as clients.
    pub client_sessions: u64,
    /// Peer frames decoded and forwarded to the node loop.
    pub peer_frames: u64,
    /// Client `Submit` frames processed.
    pub submits: u64,
    /// Acks by verdict: accepted.
    pub acks_accepted: u64,
    /// Acks by verdict: duplicate.
    pub acks_duplicate: u64,
    /// Acks by verdict: busy (capacity shed).
    pub acks_busy: u64,
    /// Acks by verdict: rate-limited.
    pub acks_rate_limited: u64,
    /// Read-throttle windows imposed on clients after shed submissions.
    pub throttles: u64,
    /// Sessions closed for refusing to drain their acks.
    pub slow_client_closes: u64,
    /// Malformed frames. A corrupt length prefix, an unclassifiable
    /// first frame or a bad client frame closes its session; a peer
    /// frame that fails to decode is only counted and dropped, and the
    /// mesh link stays open.
    pub malformed: u64,
    /// Peak total buffered bytes across all sessions (in + out) — the
    /// witness that per-socket memory stays bounded under load.
    pub buffer_bytes_peak: u64,
}

enum SessionKind {
    /// First frame not yet seen.
    Unknown,
    Peer,
    Client,
}

struct Session {
    stream: mio::net::TcpStream,
    kind: SessionKind,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// While set, the session is deregistered from the poll and its
    /// socket is not read — kernel-level backpressure.
    throttled_until: Option<Instant>,
    closed: bool,
}

impl Session {
    fn buffered(&self) -> usize {
        self.inbuf.len() + (self.outbuf.len() - self.out_pos)
    }
}

/// Everything the I/O loop needs from the node.
pub(crate) struct IngestConfig {
    pub store: BlockStore,
    pub mempool: Mempool,
    pub to_node: Sender<Inbound>,
    pub clock: TickClock,
    /// How long a shed client's socket stays deregistered.
    pub throttle: Duration,
}

/// Runs the readiness loop until `stop` is set. Returns the run's
/// [`IngestStats`]; all sockets are dropped on exit.
pub(crate) fn io_loop(
    listener: std::net::TcpListener,
    cfg: IngestConfig,
    stop: Arc<AtomicBool>,
) -> IngestStats {
    let mut stats = IngestStats::default();
    let Ok(mut poll) = Poll::new() else {
        return stats;
    };
    let Ok(mut listener) = mio::net::TcpListener::from_std_checked(listener) else {
        return stats;
    };
    if poll.registry().register(&mut listener, LISTENER, Interest::READABLE).is_err() {
        return stats;
    }
    let mut events = Events::with_capacity(1024);
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut next_token = 1usize;

    while !stop.load(Ordering::Relaxed) {
        // Lift expired read-throttles back into the poll set.
        lift_throttles(&mut sessions, &poll);

        if poll.poll(&mut events, Some(POLL_TIMEOUT)).is_err() {
            break;
        }

        let mut ready: Vec<usize> = Vec::with_capacity(16);
        let mut accept_ready = false;
        for event in &events {
            if event.token() == LISTENER {
                accept_ready = true;
            } else if event.is_readable() {
                ready.push(event.token().0);
            }
        }

        if accept_ready {
            accept_all(&listener, &poll, &mut sessions, &mut next_token, &mut stats);
        }

        for token in ready {
            let Some(session) = sessions.get_mut(&token) else {
                continue;
            };
            if session.throttled_until.is_some() {
                continue;
            }
            service_read(session, &cfg, &poll, &mut stats);
        }

        // Flush pending acks and reap finished sessions.
        let mut buffered_total = 0u64;
        sessions.retain(|_, session| {
            if !session.closed {
                flush_out(session);
            }
            buffered_total += session.buffered() as u64;
            if session.closed {
                let _ = poll.registry().deregister(&mut session.stream);
                false
            } else {
                true
            }
        });
        stats.buffer_bytes_peak = stats.buffer_bytes_peak.max(buffered_total);
    }
    stats
}

/// Re-registers sessions whose throttle window expired.
fn lift_throttles(sessions: &mut HashMap<usize, Session>, poll: &Poll) {
    let now = Instant::now();
    // `sessions` stays hashed (one token lookup per readiness event,
    // thousands of clients); its order only sequences the throttle
    // releases of one poll cycle, which no peer or client can observe.
    #[allow(clippy::iter_over_hash_type)]
    for (token, session) in sessions.iter_mut() {
        if session.throttled_until.is_some_and(|until| now >= until) {
            session.throttled_until = None;
            if poll
                .registry()
                .register(&mut session.stream, Token(*token), Interest::READABLE)
                .is_err()
            {
                session.closed = true;
            }
        }
    }
}

/// Drains the accept queue, registering each new session.
fn accept_all(
    listener: &mio::net::TcpListener,
    poll: &Poll,
    sessions: &mut HashMap<usize, Session>,
    next_token: &mut usize,
    stats: &mut IngestStats,
) {
    while let Ok((stream, _addr)) = listener.accept() {
        let token = *next_token;
        *next_token += 1;
        let mut session = Session {
            stream,
            kind: SessionKind::Unknown,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            throttled_until: None,
            closed: false,
        };
        let _ = session.stream.set_nodelay(true);
        if poll
            .registry()
            .register(&mut session.stream, Token(token), Interest::READABLE)
            .is_ok()
        {
            stats.sessions_accepted += 1;
            sessions.insert(token, session);
            stats.sessions_peak = stats.sessions_peak.max(sessions.len() as u64);
        }
    }
}

/// Reads up to the session's cycle budget and processes complete frames.
fn service_read(
    session: &mut Session,
    cfg: &IngestConfig,
    poll: &Poll,
    stats: &mut IngestStats,
) {
    let budget = match session.kind {
        SessionKind::Peer => PEER_READ_BUDGET,
        _ => CLIENT_READ_BUDGET,
    };
    // Any socket error ends the session, like an orderly close.
    session.closed |= frame::fill(&mut session.stream, &mut session.inbuf, budget).unwrap_or(true);

    // Parse complete frames. Classification happens on the first one.
    let mut consumed = 0;
    loop {
        let max_len = match session.kind {
            SessionKind::Peer => MAX_FRAME_BYTES,
            SessionKind::Client => MAX_SUBMIT_FRAME_BYTES,
            // Unclassified: allow the larger bound until the first byte
            // tells us what this is.
            SessionKind::Unknown => MAX_FRAME_BYTES,
        };
        match frame::take(&session.inbuf, &mut consumed, max_len) {
            FrameStep::Incomplete => break,
            FrameStep::Corrupt => {
                stats.malformed += 1;
                session.closed = true;
                break;
            }
            FrameStep::Frame(frame) => {
                if matches!(session.kind, SessionKind::Unknown) {
                    classify(session, &frame, stats);
                }
                match session.kind {
                    SessionKind::Peer => handle_peer_frame(frame, cfg, stats),
                    SessionKind::Client => {
                        handle_client_frame(session, frame, cfg, poll, stats);
                    }
                    SessionKind::Unknown => {
                        // Unclassifiable first frame: drop the session.
                        stats.malformed += 1;
                        session.closed = true;
                    }
                }
                if session.closed || session.throttled_until.is_some() {
                    break;
                }
            }
        }
    }
    session.inbuf.drain(..consumed);
}

fn classify(session: &mut Session, frame: &Bytes, stats: &mut IngestStats) {
    match frame.first() {
        Some(&b) if b == wire::WIRE_VERSION => {
            session.kind = SessionKind::Peer;
            stats.peer_sessions += 1;
        }
        Some(&b) if is_client_frame(b) => {
            session.kind = SessionKind::Client;
            stats.client_sessions += 1;
        }
        _ => { /* stays Unknown; caller closes it */ }
    }
}

/// Decodes one peer frame and forwards it to the node loop (the same
/// contract the per-connection reader threads used to fulfil).
fn handle_peer_frame(frame: Bytes, cfg: &IngestConfig, stats: &mut IngestStats) {
    let n = frame.len() as u64;
    match wire::decode_message(frame.clone(), &cfg.store) {
        Ok(msg) => {
            stats.peer_frames += 1;
            let _ = cfg.to_node.send(Inbound::Msg(msg, n));
        }
        Err(wire::WireError::MissingBlocks { missing, from_height }) => {
            stats.peer_frames += 1;
            let _ = cfg.to_node.send(Inbound::NeedBlocks { raw: frame, missing, from_height });
        }
        Err(_) => {
            stats.malformed += 1;
        }
    }
}

/// Admits one client submission and queues the ack. Shed verdicts
/// impose a read-throttle window on the session.
fn handle_client_frame(
    session: &mut Session,
    frame: Bytes,
    cfg: &IngestConfig,
    poll: &Poll,
    stats: &mut IngestStats,
) {
    let submit = match decode_client_frame(frame) {
        Ok(ClientFrame::Submit { client, fee, payload }) => (client, fee, payload),
        Ok(ClientFrame::SubmitAck { .. }) | Err(_) => {
            // Acks flow node→client only; anything else is malformed.
            stats.malformed += 1;
            session.closed = true;
            return;
        }
    };
    let (client, fee, payload) = submit;
    stats.submits += 1;
    let tx = tobsvd_types::client::submit_transaction(payload);
    let id = tx.id();
    let now = cfg.clock.now_tick();
    let verdict = cfg.mempool.admit(tx, now, fee, Some(client));
    let status = match verdict {
        tobsvd_sim::Admission::Accepted { .. } => {
            stats.acks_accepted += 1;
            AckStatus::Accepted
        }
        tobsvd_sim::Admission::Duplicate => {
            stats.acks_duplicate += 1;
            AckStatus::Duplicate
        }
        tobsvd_sim::Admission::Busy => {
            stats.acks_busy += 1;
            AckStatus::Busy
        }
        tobsvd_sim::Admission::RateLimited => {
            stats.acks_rate_limited += 1;
            AckStatus::RateLimited
        }
    };
    queue_ack(session, id, status, stats);
    if matches!(status, AckStatus::Busy | AckStatus::RateLimited) {
        // Read-throttle: stop polling the socket so TCP pushes back.
        stats.throttles += 1;
        session.throttled_until = Some(Instant::now() + cfg.throttle);
        let _ = poll.registry().deregister(&mut session.stream);
    }
}

/// Encodes a `SubmitAck` into the session's out-buffer (length-prefixed
/// like every other frame) and closes slow clients that never drain it.
fn queue_ack(
    session: &mut Session,
    tx: tobsvd_types::TxId,
    status: AckStatus,
    stats: &mut IngestStats,
) {
    let payload = encode_client_frame(&ClientFrame::SubmitAck { tx, status });
    // An ack is a fixed few dozen bytes: always framable.
    frame::push(&mut session.outbuf, &payload);
    if session.outbuf.len() - session.out_pos > CLIENT_OUTBUF_CAP {
        stats.slow_client_closes += 1;
        session.closed = true;
    }
}

/// Writes as much pending out-buffer as the socket accepts.
fn flush_out(session: &mut Session) {
    let Session { stream, outbuf, out_pos, .. } = session;
    session.closed |= frame::flush(stream, outbuf, out_pos).unwrap_or(true);
}
