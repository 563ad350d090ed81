//! A single TOB-SVD node over TCP.
//!
//! Thread layout per node (fixed — independent of connection count):
//!
//! * the **I/O loop** (`ingest` module) — one readiness-polled thread
//!   serving the node's listener and every inbound socket: peer mesh
//!   sessions are decoded into the node's inbox, client sessions get
//!   their submissions admitted into the shared bounded mempool and
//!   acknowledged inline;
//! * the **node loop** (this module) — wakes at every tick, drains the
//!   inbox into [`Validator::on_message`], fires `on_phase` on
//!   Δ-boundaries, and writes the collected outgoing messages to the
//!   peer mesh.
//!
//! Each node owns a private [`BlockStore`], and the message plane is
//! **content-addressed delta sync**: log-carrying frames are hash
//! announcements (tip hash + parent-hash list + a one-block inline
//! window — see `tobsvd_types::wire`), so per-message wire bytes are
//! O(1) in chain length. Stores converge through one fetch layer, the
//! validator's own (`tobsvd_core::sync`), identical to the simulator's
//! because the validator is sans-io. A frame that fails to decode with
//! [`wire::WireError::MissingBlocks`] holds no `Log` yet, so this loop
//! hands it to [`Validator::park_frame`] as raw bytes with the codec's
//! fetch hint; it waits in the same pending set, under the same cap
//! and retry schedule, as a decoded message whose chain is unknown.
//! Fetch responses are served from the local store by the validator;
//! the codec expands the referenced range into block bodies on encode
//! and inserts them on decode.
//!
//! Byte formats live elsewhere: the length prefix in the `frame`
//! module, the peer header in `tobsvd_types::wire`
//! ([`wire::peek_header`] is all this module reads of a frame it
//! cannot decode yet: its byte class).

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use tobsvd_core::{TobConfig, Validator};
use tobsvd_sim::{AdmissionPolicy, AdmissionStats, Context, Mempool, Node as SimNode, Outgoing};
use tobsvd_storage::{shared, FileDurable};
use tobsvd_types::wire::{self, MessageClass};
use tobsvd_types::{BlockId, BlockStore, Delta, SignedMessage, Time, Transaction, ValidatorId};

use crate::clock::TickClock;
use crate::cluster::ClusterError;
use crate::frame;
use crate::ingest::{io_loop, Inbound, IngestConfig, IngestStats};

/// Configuration of one node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's identity.
    pub me: ValidatorId,
    /// Number of validators.
    pub n: usize,
    /// Δ in ticks.
    pub delta: Delta,
    /// Total ticks to run.
    pub run_ticks: u64,
    /// Transactions to seed into this node's pool at start.
    pub seed_txs: Vec<Transaction>,
    /// Disk-backed mode: directory for the node's WAL + snapshot files.
    /// When set, the validator persists every decided batch through a
    /// [`tobsvd_storage::FileDurable`] and starts by recovering from
    /// whatever the directory already holds (empty on first boot).
    pub data_dir: Option<std::path::PathBuf>,
    /// Mempool admission policy of the ingest plane
    /// ([`AdmissionPolicy::default`] if `None`).
    pub admission: Option<AdmissionPolicy>,
}

/// One decision event of the node loop: at `tick`, the validator's
/// decided log first reached `len` with tip `tip`. The submitted→decided
/// latency accounting of the ingest bench joins these against client
/// submission times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecidedEvent {
    /// Node-loop tick of the decision.
    pub tick: u64,
    /// Tip of the newly decided log.
    pub tip: BlockId,
    /// Length of the newly decided log.
    pub len: u64,
}

/// What a node reports after its run. The node loop fills it as it
/// runs (frames, bytes, decision events); the validator's own counters
/// are read once, when the loop ends.
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// The node.
    pub me: ValidatorId,
    /// Tip of its final decided log.
    pub decided_tip: BlockId,
    /// Length of its final decided log.
    pub decided_len: u64,
    /// Its private store (for cross-checking ancestry).
    pub store: BlockStore,
    /// Votes it cast.
    pub votes_cast: u64,
    /// Frames it received / sent over the mesh (loopback self-copies
    /// are neither).
    pub frames: (u64, u64),
    /// Announcement (LOG/PROPOSAL/VOTE/RECOVERY/FINALITY) bytes
    /// (received, sent).
    pub announce_bytes: (u64, u64),
    /// Fetch-subprotocol (`BlockRequest`/`BlockResponse`) bytes
    /// (received, sent). Certificate frames count as frames but their
    /// bytes have no reader here (the simulator's
    /// `Metrics::certificate_bytes` prices the aggregation plane).
    pub sync_bytes: (u64, u64),
    /// Outgoing messages dropped because their chain could not be read
    /// back from the local store at encode time (should stay 0; a
    /// non-zero value flags store corruption without crashing the node).
    pub encode_failures: u64,
    /// Blocks this node learned through fetch responses
    /// (protocol-layer).
    pub blocks_fetched: u64,
    /// Decided log length durably persisted (1 without a data dir).
    pub persisted_len: u64,
    /// Durable-storage operations that failed (0 without a data dir;
    /// faults degrade durability, never safety).
    pub wal_errors: u64,
    /// Phase boundaries the node loop reached more than Δ/2 late (a
    /// descheduled thread replaying its missed ticks).
    pub late_boundaries: u64,
    /// Grade-2 outputs not decided because their GA instance was live
    /// at a late boundary ([`Validator::note_late_boundary`]).
    pub decisions_withheld: u64,
    /// Ingest-plane counters (sessions, submits, acks, backpressure).
    pub ingest: IngestStats,
    /// Mempool admission counters.
    pub admission: AdmissionStats,
    /// Every decision event in node-loop order, for latency accounting.
    pub decided_events: Vec<DecidedEvent>,
}

/// Direction of a charged frame.
#[derive(Clone, Copy)]
enum Dir {
    In,
    Out,
}

impl NodeOutcome {
    fn new(me: ValidatorId, store: BlockStore) -> Self {
        NodeOutcome {
            me,
            decided_tip: store.genesis(),
            decided_len: 1,
            store,
            votes_cast: 0,
            frames: (0, 0),
            announce_bytes: (0, 0),
            sync_bytes: (0, 0),
            encode_failures: 0,
            blocks_fetched: 0,
            persisted_len: 1,
            wal_errors: 0,
            late_boundaries: 0,
            decisions_withheld: 0,
            ingest: IngestStats::default(),
            admission: AdmissionStats::default(),
            decided_events: Vec::new(),
        }
    }

    /// Charges `bytes` of one frame to its per-class, per-direction
    /// counter — the only place the class → counter mapping lives.
    fn charge(&mut self, class: MessageClass, dir: Dir, bytes: u64) {
        let counter = match (class, dir) {
            (MessageClass::Announce, Dir::In) => &mut self.announce_bytes.0,
            (MessageClass::Announce, Dir::Out) => &mut self.announce_bytes.1,
            (MessageClass::Sync, Dir::In) => &mut self.sync_bytes.0,
            (MessageClass::Sync, Dir::Out) => &mut self.sync_bytes.1,
            (MessageClass::Certificate, _) => return,
        };
        *counter += bytes;
    }
}

/// Handle to a running node (join to get its outcome).
pub struct NodeHandle {
    join: std::thread::JoinHandle<Result<NodeOutcome, String>>,
}

impl NodeHandle {
    /// Waits for the node to finish.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodePanic`] if the node thread panicked,
    /// [`ClusterError::NodeFatal`] if the node aborted before its run
    /// (e.g. its durable directory could not be opened).
    pub fn join(self) -> Result<NodeOutcome, ClusterError> {
        let joined = self.join.join().map_err(|e| {
            ClusterError::NodePanic(
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "node thread panicked".to_string()),
            )
        })?;
        joined.map_err(ClusterError::NodeFatal)
    }
}

/// Spawns a node: `listener` accepts inbound mesh + client connections;
/// `peers` maps every other validator to its listen address; `clock` is
/// the shared epoch clock.
///
/// # Errors
///
/// Returns the OS error if the node thread cannot be spawned.
pub fn spawn_node(
    cfg: NodeConfig,
    listener: TcpListener,
    peers: BTreeMap<ValidatorId, SocketAddr>,
    clock: TickClock,
) -> std::io::Result<NodeHandle> {
    let join = std::thread::Builder::new()
        .name(format!("tobsvd-{}", cfg.me))
        .spawn(move || run_node(cfg, listener, peers, clock))?;
    Ok(NodeHandle { join })
}

/// The node loop's long-lived state, threaded through message handling
/// and phase boundaries.
struct NodeState {
    me: ValidatorId,
    delta: Delta,
    store: BlockStore,
    mempool: Mempool,
    validator: Validator,
    outbound: BTreeMap<ValidatorId, Arc<Mutex<TcpStream>>>,
    loopback: Sender<Inbound>,
    out: NodeOutcome,
    decided_len_seen: u64,
}

impl NodeState {
    fn ctx(&self, now: Time) -> Context {
        Context::new(now, self.me, self.delta, self.store.clone(), self.mempool.clone())
    }

    /// Records decision events a context collected and flushes its
    /// outbox to the mesh.
    fn absorb(&mut self, mut ctx: Context, tick: u64) {
        for log in ctx.decisions() {
            if log.len() > self.decided_len_seen {
                self.decided_len_seen = log.len();
                self.out.decided_events.push(DecidedEvent {
                    tick,
                    tip: log.tip(),
                    len: log.len(),
                });
            }
        }
        self.flush(&mut ctx);
    }

    fn handle_inbound(&mut self, inbound: Inbound, now: Time) {
        let mut ctx = self.ctx(now);
        match inbound {
            Inbound::Msg(msg, bytes) => {
                // A loopback self-copy (0 bytes) never crossed the mesh.
                if bytes > 0 {
                    self.out.frames.0 += 1;
                    self.out.charge(MessageClass::of(msg.payload()), Dir::In, bytes);
                }
                self.validator.on_message(&msg, &mut ctx);
            }
            Inbound::NeedBlocks { raw, missing, from_height } => {
                // The frame does not decode yet, but its fixed header
                // already names the byte class.
                self.out.frames.0 += 1;
                let class = wire::peek_header(&raw).map_or(MessageClass::Announce, |(_, c)| c);
                self.out.charge(class, Dir::In, raw.len() as u64);
                self.validator.park_frame(raw, missing, from_height, &mut ctx);
            }
        }
        self.absorb(ctx, now.ticks());
    }

    fn phase_boundary(&mut self, now: Time) {
        let mut ctx = self.ctx(now);
        self.validator.on_phase(&mut ctx);
        self.absorb(ctx, now.ticks());
    }

    /// Encodes and frames `msg` once, then writes it to each of
    /// `targets` that is a dialed peer: one `write_all` per peer under
    /// its mutex, so the length prefix never leaves as a segment of its
    /// own. Returns `false` when the message cannot be encoded —
    /// refusing it beats crashing the node, and the counter makes the
    /// drop observable in the run report.
    fn send(&mut self, msg: &SignedMessage, targets: &[ValidatorId]) -> bool {
        let Ok(payload) = wire::encode_message(msg, &self.store) else {
            self.out.encode_failures += 1;
            return false;
        };
        let mut framed = Vec::new();
        frame::push(&mut framed, &payload);
        if framed.is_empty() {
            // Too large to frame: it reaches no peer, as every reader
            // would refuse it.
            return true;
        }
        let class = MessageClass::of(msg.payload());
        for target in targets {
            let Some(stream) = self.outbound.get(target) else { continue };
            if stream.lock().write_all(&framed).is_ok() {
                self.out.charge(class, Dir::Out, payload.len() as u64);
                self.out.frames.1 += 1;
            }
        }
        true
    }

    /// Fan-out order of every `Broadcast`/`Forward`: ascending validator
    /// id, the same on every node and in every process.
    fn peers(&self) -> Vec<ValidatorId> {
        self.outbound.keys().copied().collect()
    }

    /// Sends a context's collected actions over the mesh. Self-copies go
    /// through the loopback channel.
    fn flush(&mut self, ctx: &mut Context) {
        for action in ctx.take_outbox() {
            let (targets, msg): (Vec<ValidatorId>, SignedMessage) = match action {
                Outgoing::Broadcast(m) => (self.peers().into_iter().chain([self.me]).collect(), m),
                // Forwards skip self: already processed.
                Outgoing::Forward(m) => (self.peers(), m),
                Outgoing::ForwardTo(t, m) | Outgoing::Multicast(t, m) => (t, m),
            };
            if self.send(&msg, &targets) && targets.contains(&self.me) {
                // Self-copies never cross the network: charge 0
                // bytes so per-kind in/out stats reconcile.
                let _ = self.loopback.send(Inbound::Msg(msg, 0));
            }
        }
    }
}

fn run_node(
    cfg: NodeConfig,
    listener: TcpListener,
    peers: BTreeMap<ValidatorId, SocketAddr>,
    clock: TickClock,
) -> Result<NodeOutcome, String> {
    let store = BlockStore::new();
    let mempool = Mempool::bounded(cfg.admission.unwrap_or_default());
    for tx in &cfg.seed_txs {
        mempool.submit(tx.clone(), Time::ZERO);
    }
    let tob_cfg = TobConfig::new(cfg.n).with_delta(cfg.delta);
    let validator = match &cfg.data_dir {
        Some(dir) => {
            // A node that cannot open its durable directory is
            // misconfigured; reporting a fatal outcome (instead of the
            // former panic) lets the cluster surface a clean error.
            let backend = FileDurable::open(dir)
                .map_err(|e| format!("open durable store at {}: {e:?}", dir.display()))?;
            Validator::recovered(cfg.me, tob_cfg, &store, shared(backend))
        }
        None => Validator::new(cfg.me, tob_cfg, &store),
    };

    // Inbox fed by the I/O loop (and by our own loopback).
    let (tx_in, rx_in): (Sender<Inbound>, Receiver<Inbound>) = unbounded();

    // The I/O loop thread: owns the listener and every inbound session.
    let stop = Arc::new(AtomicBool::new(false));
    let ingest_cfg = IngestConfig {
        store: store.clone(),
        mempool: mempool.clone(),
        to_node: tx_in.clone(),
        clock,
        // Shed clients stay unread for about one Δ: long enough for TCP
        // backpressure to bite, short enough to observe recovery.
        throttle: clock.tick_duration().saturating_mul(cfg.delta.ticks().max(1) as u32),
    };
    let io_stop = Arc::clone(&stop);
    let io_handle = std::thread::Builder::new()
        .name(format!("tobsvd-io-{}", cfg.me))
        .spawn(move || io_loop(listener, ingest_cfg, io_stop))
        .map_err(|e| format!("spawn io thread: {e}"))?;

    // Outbound mesh: dial every peer.
    let mut outbound: BTreeMap<ValidatorId, Arc<Mutex<TcpStream>>> = BTreeMap::new();
    for (peer, addr) in &peers {
        let stream = dial_with_retry(*addr, clock.instant_of(cfg.run_ticks));
        if let Some(s) = stream {
            outbound.insert(*peer, Arc::new(Mutex::new(s)));
        }
    }

    let mut state = NodeState {
        me: cfg.me,
        delta: cfg.delta,
        store: store.clone(),
        mempool: mempool.clone(),
        validator,
        outbound,
        loopback: tx_in,
        out: NodeOutcome::new(cfg.me, store),
        decided_len_seen: 1,
    };

    // The node loop. It visits every tick even when it has fallen
    // behind the wall clock (a descheduled thread), so proposals, votes
    // and GA bookkeeping continue — but two things differ while behind:
    //
    // * missed ticks are replayed at 8× real time, not in one instant.
    //   Peers stalled by the same host replay the same boundaries at the
    //   same moment; with no time between a replayed vote and the next
    //   replayed snapshots, every node's V^{2Δ} holds its own vote only,
    //   nobody gets a grade-1 output, nobody votes again, and the
    //   cluster never recovers;
    // * a boundary executed more than Δ/2 after its instant is reported
    //   to the validator, which then decides nothing from the GA
    //   instances live at it (synchrony's "awake at" did not hold).
    let late_after = cfg.delta.ticks() / 2;
    let replay_step = clock.tick_duration() / 8;
    for tick in 0..=cfg.run_ticks {
        clock.wait_for(tick);
        let behind = clock.now_tick().ticks().saturating_sub(tick);
        if behind > 0 {
            std::thread::sleep(replay_step);
        }
        let now = Time::new(tick);
        while let Ok(inbound) = rx_in.try_recv() {
            state.handle_inbound(inbound, now);
        }
        if now.is_phase_boundary(cfg.delta) {
            if behind > late_after {
                state.validator.note_late_boundary(now);
            }
            state.phase_boundary(now);
        }
    }

    // Close outbound so peers' sessions observe EOF, then stop the I/O
    // loop and collect its stats.
    for s in state.outbound.values() {
        let _ = s.lock().shutdown(std::net::Shutdown::Both);
    }
    stop.store(true, Ordering::Relaxed);
    let (val, mut out) = (&state.validator, state.out);
    out.ingest = io_handle.join().unwrap_or_default();
    out.admission = mempool.admission_stats();
    (out.decided_tip, out.decided_len) = (val.decided().tip(), val.decided().len());
    out.votes_cast = val.votes_cast();
    out.blocks_fetched = val.sync().blocks_fetched();
    out.persisted_len = val.persisted_len();
    out.wal_errors = val.wal_errors();
    out.late_boundaries = val.late_boundaries();
    out.decisions_withheld = val.decisions_withheld();
    Ok(out)
}

fn dial_with_retry(addr: SocketAddr, until: std::time::Instant) -> Option<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Some(s);
            }
            Err(_) if std::time::Instant::now() < until => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::KeyCache;
    use tobsvd_types::{InstanceId, Log, Payload, View};

    #[test]
    fn a_message_whose_chain_the_store_lacks_is_counted_not_sent() {
        let (me, store) = (ValidatorId::new(0), BlockStore::new());
        let (loopback, _inbox) = unbounded();
        let mut state = NodeState {
            me,
            delta: Delta::new(4),
            store: store.clone(),
            mempool: Mempool::new(),
            validator: Validator::new(me, TobConfig::new(1), &store),
            outbound: BTreeMap::new(),
            loopback,
            out: NodeOutcome::new(me, store),
            decided_len_seen: 1,
        };
        // The tip lives in another store only: encoding cannot read the
        // chain back, so the message is refused and the refusal counted.
        let elsewhere = BlockStore::new();
        let log = Log::genesis(&elsewhere).extend_empty(&elsewhere, me, View::ZERO);
        let payload = Payload::Log { instance: InstanceId(0), log };
        let msg = SignedMessage::sign(&KeyCache::keypair(me.key_seed()), me, payload);
        assert!(!state.send(&msg, &[me]));
        assert_eq!(state.out.encode_failures, 1);
        assert_eq!(state.out.frames, (0, 0));
    }
}
