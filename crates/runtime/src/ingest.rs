//! Inbound session layer: the node's listener and every inbound socket
//! — the peer mesh *and* thousands of client connections — served by
//! one nonblocking pass, [`Ingest::scan`], that the node thread makes
//! once per tick.
//!
//! Per-connection cost is one nonblocking socket and two small
//! buffers, so a node holds thousands of concurrent client sockets on
//! its one tick-paced thread (`node` module). Nothing waits on a
//! socket: the protocol reads its inbox only at tick boundaries, so a
//! pass per tick, late in the tick, delivers every frame by the tick
//! that would have read it anyway, without polling in between.
//!
//! # Session model
//!
//! All inbound connections arrive on the node's one listener. The first
//! payload byte of a session's first frame classifies it, as soon as it
//! arrives (a peer's first frame may be megabytes long):
//!
//! * [`tobsvd_types::wire::WIRE_VERSION`] — a **peer** session carrying
//!   consensus frames, decoded into the node's inbox (including the
//!   park-and-fetch `MissingBlocks` path);
//! * [`tobsvd_types::client::CLIENT_WIRE_VERSION`] — a **client**
//!   session carrying `Submit` frames. Submissions go through the
//!   shared bounded mempool ([`Mempool::admit`]) during the pass, and
//!   every submission is answered with a `SubmitAck` flushed by the
//!   same pass.
//!
//! # Backpressure
//!
//! Overload is shed explicitly, never by unbounded queueing:
//!
//! * the mempool's [`AdmissionPolicy`](tobsvd_core::AdmissionPolicy)
//!   bounds pending transactions; `Busy`/`RateLimited` verdicts travel
//!   back as acks;
//! * a client whose submission was shed is **read-throttled**: the
//!   passes skip its socket for a short window, so the kernel receive
//!   buffer fills and TCP pushes back to the sender;
//! * ack bytes a client refuses to read are buffered only up to
//!   [`CLIENT_OUTBUF_CAP`]; beyond that the session is closed as a slow
//!   client;
//! * each session gets a bounded read budget per pass, so one
//!   fire-hosing socket cannot head-of-line-block peers or other
//!   clients sharing the pass. The budget is a rate per 500 µs of tick
//!   (`READ_CYCLE`), so a session's bandwidth does not shrink as ticks
//!   lengthen: a peer gets 5 MiB per pass at a 10 ms tick.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use tobsvd_core::{Admission, Mempool};
use tobsvd_types::client::{
    decode_client_frame, encode_client_frame, is_client_frame, AckStatus, ClientFrame,
    MAX_SUBMIT_FRAME_BYTES,
};
use tobsvd_types::{wire, BlockId, BlockStore, SignedMessage};

use crate::clock::TickClock;
use crate::frame::{self, FrameStep, MAX_FRAME_BYTES};

/// Tick time per read budget: a pass reads a session in up to
/// `tick / READ_CYCLE` rounds of its budget.
const READ_CYCLE: Duration = Duration::from_micros(500);

/// Read budget of a client session per `READ_CYCLE` (bytes).
const CLIENT_READ_BUDGET: usize = 16 * 1024;

/// Read budget of a peer session per `READ_CYCLE` (bytes) — peers ship
/// blocks that dwarf client submits.
const PEER_READ_BUDGET: usize = 256 * 1024;

/// Unread ack bytes a client session may accumulate before it is closed
/// as a slow client.
pub const CLIENT_OUTBUF_CAP: usize = 256 * 1024;

/// What a pass hands the node loop.
pub(crate) enum Inbound {
    /// A fully decoded message (`u64` = frame payload length).
    Msg(SignedMessage, u64),
    /// A well-formed frame referencing blocks the store lacks, for
    /// [`tobsvd_core::Validator::park_frame`].
    NeedBlocks {
        /// The raw frame to re-decode once blocks arrive: the one copy
        /// made of a peer frame, out of its session buffer.
        raw: Vec<u8>,
        /// The block id whose arrival unblocks the frame.
        missing: BlockId,
        /// Fetch start-height hint.
        from_height: u64,
    },
}

/// Counters of one node's ingest plane over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Passes over the sockets (`Ingest::scan`): one per tick the
    /// node visits, plus one per tick duration of warm-up before tick 0.
    pub scans: u64,
    /// Connections accepted.
    pub sessions_accepted: u64,
    /// Peak concurrent sessions.
    pub sessions_peak: u64,
    /// Sessions classified as peers.
    pub peer_sessions: u64,
    /// Sessions classified as clients.
    pub client_sessions: u64,
    /// Peer frames decoded and handed to the node loop.
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
    stream: TcpStream,
    kind: SessionKind,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// While set, passes before this instant skip the session's socket
    /// — kernel-level backpressure.
    throttled_until: Option<Instant>,
    closed: bool,
}

impl Session {
    fn buffered(&self) -> usize {
        self.inbuf.len() + (self.outbuf.len() - self.out_pos)
    }
}

/// What the passes need from the node.
pub(crate) struct IngestConfig {
    pub store: BlockStore,
    pub mempool: Mempool,
    pub clock: TickClock,
    /// How long a shed client's socket goes unread.
    pub throttle: Duration,
}

/// The node's listener and its inbound sessions, in accept order.
pub(crate) struct Ingest {
    listener: TcpListener,
    sessions: Vec<Session>,
    cfg: IngestConfig,
    stats: IngestStats,
}

impl Ingest {
    /// Takes over `listener`, switching it to nonblocking accepts.
    ///
    /// # Errors
    ///
    /// The OS error if the listener cannot be made nonblocking.
    pub(crate) fn new(listener: TcpListener, cfg: IngestConfig) -> std::io::Result<Ingest> {
        listener.set_nonblocking(true)?;
        Ok(Ingest { listener, sessions: Vec::new(), cfg, stats: IngestStats::default() })
    }

    /// The run's counters so far.
    pub(crate) fn stats(&self) -> IngestStats {
        self.stats
    }

    /// One nonblocking pass at `now`: accepts what the listener holds,
    /// reads every session that is not throttled (up to its budgets),
    /// hands decoded peer frames to `inbox`, admits and acks client
    /// submissions, flushes acks and reaps closed sessions.
    pub(crate) fn scan(&mut self, inbox: &mut VecDeque<Inbound>, now: Instant) {
        let Ingest { listener, sessions, cfg, stats } = self;
        stats.scans += 1;
        let rounds = cfg.clock.tick_duration().as_micros() / READ_CYCLE.as_micros();
        accept_all(listener, sessions, stats);
        for session in sessions.iter_mut() {
            if session.throttled_until.is_some_and(|until| now < until) {
                continue;
            }
            session.throttled_until = None;
            for _ in 0..rounds.max(1) {
                if !service_read(session, cfg, inbox, now, stats) {
                    break;
                }
            }
        }
        let mut buffered_total = 0u64;
        sessions.retain_mut(|session| {
            if !session.closed {
                let Session { stream, outbuf, out_pos, .. } = session;
                session.closed = frame::flush(stream, outbuf, out_pos).unwrap_or(true);
            }
            buffered_total += session.buffered() as u64;
            !session.closed
        });
        stats.buffer_bytes_peak = stats.buffer_bytes_peak.max(buffered_total);
    }
}

/// Drains the accept queue into nonblocking sessions.
fn accept_all(listener: &TcpListener, sessions: &mut Vec<Session>, stats: &mut IngestStats) {
    while let Ok((stream, _addr)) = listener.accept() {
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        sessions.push(Session {
            stream,
            kind: SessionKind::Unknown,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            throttled_until: None,
            closed: false,
        });
        stats.sessions_accepted += 1;
        stats.sessions_peak = stats.sessions_peak.max(sessions.len() as u64);
    }
}

/// One read round: reads up to the session's budget and processes
/// complete frames; `true` if the budget ran out and the session is
/// open and unthrottled, so more may wait.
fn service_read(
    session: &mut Session,
    cfg: &IngestConfig,
    inbox: &mut VecDeque<Inbound>,
    now: Instant,
    stats: &mut IngestStats,
) -> bool {
    let budget = match session.kind {
        SessionKind::Peer => PEER_READ_BUDGET,
        _ => CLIENT_READ_BUDGET,
    };
    let before = session.inbuf.len();
    // Any socket error ends the session, like an orderly close.
    session.closed |= frame::fill(&mut session.stream, &mut session.inbuf, budget).unwrap_or(true);
    let spent = session.inbuf.len().saturating_sub(before) >= budget;
    if matches!(session.kind, SessionKind::Unknown) && !classify(session, stats) {
        return false;
    }

    // Frames are decoded in place, borrowed from the buffer, which is
    // lent out of the session while its frames are handled.
    let inbuf = std::mem::take(&mut session.inbuf);
    let mut consumed = 0;
    loop {
        let max_len = match session.kind {
            SessionKind::Client => MAX_SUBMIT_FRAME_BYTES,
            // Unclassified: no payload byte yet, no frame to find.
            SessionKind::Peer | SessionKind::Unknown => MAX_FRAME_BYTES,
        };
        match frame::take(&inbuf, &mut consumed, max_len) {
            FrameStep::Incomplete => break,
            FrameStep::Corrupt => {
                stats.malformed += 1;
                session.closed = true;
                break;
            }
            FrameStep::Frame(frame) => {
                match session.kind {
                    SessionKind::Peer => handle_peer_frame(frame, &cfg.store, inbox, stats),
                    SessionKind::Client => handle_client_frame(session, frame, cfg, now, stats),
                    SessionKind::Unknown => {}
                }
                if session.closed || session.throttled_until.is_some() {
                    break;
                }
            }
        }
    }
    session.inbuf = inbuf;
    session.inbuf.drain(..consumed);
    spent && !session.closed && session.throttled_until.is_none()
}

/// Classifies an unclassified session by its first payload byte, once
/// buffered; `false`, and the session malformed and closed, if that
/// byte names neither a peer nor a client.
fn classify(session: &mut Session, stats: &mut IngestStats) -> bool {
    match session.inbuf.get(frame::PREFIX) {
        None => {}
        Some(&b) if b == wire::WIRE_VERSION => {
            session.kind = SessionKind::Peer;
            stats.peer_sessions += 1;
        }
        Some(&b) if is_client_frame(b) => {
            session.kind = SessionKind::Client;
            stats.client_sessions += 1;
        }
        Some(_) => {
            stats.malformed += 1;
            session.closed = true;
            return false;
        }
    }
    true
}

/// Decodes one peer frame into the node loop's inbox.
fn handle_peer_frame(
    frame: &[u8],
    store: &BlockStore,
    inbox: &mut VecDeque<Inbound>,
    stats: &mut IngestStats,
) {
    let n = frame.len() as u64;
    match wire::decode_message(frame, store) {
        Ok(msg) => {
            stats.peer_frames += 1;
            inbox.push_back(Inbound::Msg(msg, n));
        }
        Err(wire::WireError::MissingBlocks { missing, from_height }) => {
            stats.peer_frames += 1;
            inbox.push_back(Inbound::NeedBlocks { raw: frame.to_vec(), missing, from_height });
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
    frame: &[u8],
    cfg: &IngestConfig,
    now: Instant,
    stats: &mut IngestStats,
) {
    let (client, fee, tx) = match decode_client_frame(frame) {
        Ok(ClientFrame::Submit { client, fee, payload }) => (client, fee, payload),
        Ok(ClientFrame::SubmitAck { .. }) | Err(_) => {
            // Acks flow node→client only; anything else is malformed.
            stats.malformed += 1;
            session.closed = true;
            return;
        }
    };
    stats.submits += 1;
    let id = tx.id();
    let (status, acks) = match cfg.mempool.admit(tx, cfg.clock.now_tick(), fee, Some(client)) {
        Admission::Accepted { .. } => (AckStatus::Accepted, &mut stats.acks_accepted),
        Admission::Duplicate => (AckStatus::Duplicate, &mut stats.acks_duplicate),
        Admission::Busy => (AckStatus::Busy, &mut stats.acks_busy),
        Admission::RateLimited => (AckStatus::RateLimited, &mut stats.acks_rate_limited),
    };
    *acks += 1;
    queue_ack(session, id, status, stats);
    if matches!(status, AckStatus::Busy | AckStatus::RateLimited) {
        // Read-throttle: leave the socket unread so TCP pushes back.
        stats.throttles += 1;
        session.throttled_until = Some(now + cfg.throttle);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write;
    use std::net::SocketAddr;
    use tobsvd_core::AdmissionPolicy;
    use tobsvd_crypto::KeyCache;
    use tobsvd_types::{InstanceId, Log, Payload, Transaction, ValidatorId, View};

    const THROTTLE: Duration = Duration::from_secs(60);

    /// The default tick of a cluster.
    pub(crate) const TICK: Duration = Duration::from_millis(10);

    /// How long a test waits for loopback to deliver before failing.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// An ingest plane on an ephemeral port whose pool holds at most
    /// `capacity` transactions.
    pub(crate) fn plane(capacity: usize) -> (Ingest, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = IngestConfig {
            store: BlockStore::new(),
            mempool: Mempool::bounded(AdmissionPolicy { capacity, rate_cap: 0, rate_window: 64 }),
            clock: TickClock::new(Instant::now(), TICK),
            throttle: THROTTLE,
        };
        (Ingest::new(listener, cfg).expect("nonblocking listener"), addr)
    }

    /// Passes at `now` until `done` holds, failing after [`DEADLINE`]:
    /// loopback delivers written bytes soon, not at once.
    pub(crate) fn scan_until(
        ingest: &mut Ingest,
        inbox: &mut VecDeque<Inbound>,
        now: Instant,
        done: impl Fn(&Ingest) -> bool,
    ) {
        let deadline = Instant::now() + DEADLINE;
        loop {
            ingest.scan(inbox, now);
            if done(ingest) {
                return;
            }
            assert!(Instant::now() < deadline, "not done after {DEADLINE:?}: {:?}", ingest.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect_and_write(addr: SocketAddr, bytes: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("write");
        stream
    }

    pub(crate) fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame::push(&mut out, payload);
        out
    }

    fn submit(client: u64, tag: u8) -> Vec<u8> {
        let payload = Transaction::new(vec![tag; 32]);
        framed(&encode_client_frame(&ClientFrame::Submit { client, fee: 1, payload }))
    }

    /// A signed log announcement whose tip block inlines `txs`, and its
    /// wire encoding.
    pub(crate) fn log_frame(txs: Vec<Transaction>) -> (SignedMessage, Vec<u8>) {
        let me = ValidatorId::new(1);
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend(&store, me, View::ZERO, txs);
        let payload = Payload::Log { instance: InstanceId(0), log };
        let msg = SignedMessage::sign(&KeyCache::keypair(me.key_seed()), me, payload);
        let bytes = wire::encode_message(&msg, &store).expect("a chain in its own store encodes");
        (msg, bytes.to_vec())
    }

    /// The first `want` client frames `stream` receives.
    fn acks(stream: &mut TcpStream, want: usize) -> Vec<ClientFrame> {
        stream.set_read_timeout(Some(DEADLINE)).expect("timeout");
        let (mut buf, mut frames, mut cursor) = (Vec::new(), Vec::new(), 0);
        while frames.len() < want {
            assert!(!frame::fill(stream, &mut buf, 1).expect("read"), "closed by the node");
            while let FrameStep::Frame(f) = frame::take(&buf, &mut cursor, MAX_SUBMIT_FRAME_BYTES) {
                frames.push(decode_client_frame(f).expect("a client frame"));
            }
        }
        frames
    }

    /// Whether the node closes `stream` within [`DEADLINE`].
    fn closed_by_node(stream: &mut TcpStream) -> bool {
        stream.set_read_timeout(Some(DEADLINE)).expect("timeout");
        frame::fill(stream, &mut Vec::new(), usize::MAX).expect("read")
    }

    #[test]
    fn a_submit_written_before_a_pass_is_admitted_and_acked_by_it() {
        let (mut ingest, addr) = plane(16);
        let mut client = connect_and_write(addr, &submit(7, 1));
        scan_until(&mut ingest, &mut VecDeque::new(), Instant::now(), |i| i.stats().submits > 0);
        let stats = ingest.stats();
        assert_eq!((stats.sessions_accepted, stats.client_sessions), (1, 1));
        assert_eq!((stats.submits, stats.acks_accepted), (1, 1));
        // No further pass: the admitting pass flushed the ack.
        let tx = Transaction::new(vec![1; 32]).id();
        assert_eq!(acks(&mut client, 1), vec![ClientFrame::SubmitAck { tx, status: AckStatus::Accepted }]);
        assert_eq!(ingest.sessions.len(), 1, "the session stays open");
    }

    #[test]
    fn a_shed_client_is_not_read_again_until_its_throttle_expires() {
        let (mut ingest, addr) = plane(1);
        let burst = [submit(7, 1), submit(7, 2), submit(7, 3)].concat();
        let _client = connect_and_write(addr, &burst);
        let t0 = Instant::now();
        // The second submit finds the pool full: shed, and the rest of
        // the burst waits unread.
        scan_until(&mut ingest, &mut VecDeque::new(), t0, |i| i.stats().submits >= 2);
        let stats = ingest.stats();
        assert_eq!((stats.submits, stats.acks_accepted, stats.acks_busy), (2, 1, 1));
        assert_eq!(stats.throttles, 1);
        ingest.scan(&mut VecDeque::new(), t0 + THROTTLE / 2);
        assert_eq!(ingest.stats().submits, 2, "a throttled session is skipped");
        scan_until(&mut ingest, &mut VecDeque::new(), t0 + THROTTLE, |i| i.stats().submits >= 3);
        let stats = ingest.stats();
        assert_eq!((stats.submits, stats.acks_busy, stats.throttles), (3, 2, 2));
    }

    #[test]
    fn a_half_frame_stays_buffered_and_costs_nothing() {
        let (mut ingest, addr) = plane(16);
        let whole = submit(7, 1);
        let (head, tail) = whole.split_at(5);
        let mut client = connect_and_write(addr, head);
        scan_until(&mut ingest, &mut VecDeque::new(), Instant::now(), |i| i.stats().buffer_bytes_peak >= 5);
        let stats = ingest.stats();
        assert_eq!((stats.submits, stats.malformed), (0, 0));
        assert_eq!(stats.client_sessions, 1, "classified by its first payload byte");
        assert_eq!((ingest.sessions.len(), stats.buffer_bytes_peak), (1, 5));
        client.write_all(tail).expect("rest of the frame");
        scan_until(&mut ingest, &mut VecDeque::new(), Instant::now(), |i| i.stats().submits > 0);
        assert_eq!((ingest.stats().submits, ingest.stats().acks_accepted), (1, 1));
    }

    #[test]
    fn a_peer_frame_that_fails_to_decode_is_counted_and_the_link_stays() {
        let (mut ingest, addr) = plane(16);
        let mut client = connect_and_write(addr, &framed(&[wire::WIRE_VERSION, 0xFF, 0xFF]));
        let mut inbox = VecDeque::new();
        scan_until(&mut ingest, &mut inbox, Instant::now(), |i| i.stats().malformed > 0);
        let stats = ingest.stats();
        assert_eq!((stats.peer_sessions, stats.malformed, stats.peer_frames), (1, 1, 0));
        assert_eq!((ingest.sessions.len(), inbox.len()), (1, 0));

        let (msg, bytes) = log_frame(Vec::new());
        client.write_all(&framed(&bytes)).expect("write");
        scan_until(&mut ingest, &mut inbox, Instant::now(), |i| i.stats().peer_frames > 0);
        assert_eq!((ingest.stats().peer_frames, ingest.stats().malformed), (1, 1));
        assert!(matches!(inbox.pop_front(), Some(Inbound::Msg(m, n)) if m == msg && n == bytes.len() as u64));
    }

    #[test]
    fn an_unclassifiable_first_frame_closes_its_session() {
        let (mut ingest, addr) = plane(16);
        let mut client = connect_and_write(addr, &framed(&[0x00, 1, 2]));
        scan_until(&mut ingest, &mut VecDeque::new(), Instant::now(), |i| i.stats().malformed > 0);
        let stats = ingest.stats();
        assert_eq!((stats.sessions_accepted, stats.malformed), (1, 1));
        assert_eq!((stats.peer_sessions, stats.client_sessions), (0, 0));
        assert!(ingest.sessions.is_empty(), "the session is reaped");
        assert!(closed_by_node(&mut client), "the client sees the close");
    }

    #[test]
    fn a_mebibyte_peer_frame_is_read_in_one_pass() {
        let (mut ingest, addr) = plane(16);
        let mut peer = TcpStream::connect(addr).expect("connect");
        let mut inbox = VecDeque::new();
        scan_until(&mut ingest, &mut inbox, Instant::now(), |i| i.sessions.len() == 1);

        let (msg, bytes) = log_frame(vec![Transaction::synthetic(0, 1 << 20)]);
        assert!(bytes.len() > 1 << 20);
        // The frame outgrows the receive buffer, so the write completes
        // only once the kernel holds the rest on the sending side.
        let (written, wrote) = std::sync::mpsc::channel();
        let frame = framed(&bytes);
        std::thread::spawn(move || {
            let _ = written.send(peer.write_all(&frame).map(|()| peer));
        });
        let _peer = wrote.recv_timeout(DEADLINE).expect("the kernel takes the frame").expect("write");

        ingest.scan(&mut inbox, Instant::now());
        let stats = ingest.stats();
        assert_eq!((stats.peer_sessions, stats.peer_frames, stats.malformed), (1, 1, 0));
        assert!(matches!(inbox.pop_front(), Some(Inbound::Msg(m, n)) if m == msg && n == bytes.len() as u64));
    }
}
