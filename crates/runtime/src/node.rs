//! A single TOB-SVD node over TCP.
//!
//! One thread per node, paced by the tick clock (independent of
//! connection count). At every tick it
//!
//! 1. waits for the tick's instant;
//! 2. drains the inbox into [`Validator::on_message`];
//! 3. fires `on_phase` on a Δ-boundary, writing the collected outgoing
//!    messages to the peer mesh;
//! 4. three quarters into the tick, makes one nonblocking pass over its
//!    sockets ([`Ingest::scan`]): the listener and every inbound
//!    session — peer frames are decoded into the inbox, client
//!    submissions are admitted into the node's bounded mempool and
//!    acknowledged — then pushes the transactions the pass admitted to
//!    every peer, one `TxBatch` frame per link, and writes the peer
//!    links' unsent bytes.
//!
//! A frame a peer sends at tick k is therefore handled at tick k + 1,
//! never in the tick it was sent: peers send at their boundaries, early
//! in the tick, and the pass comes late in it. Writes never block the
//! thread: each dialed peer is a [`Link`] with a bounded out-buffer
//! (blocking writes to a peer blocked writing to us would deadlock two
//! single-threaded nodes). A link also remembers the tips whose bodies
//! it carried, and a peer known to store a frame's tip gets it
//! hash-only, without the body (the `link` module).
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
//! **One pool, n copies.** The paper's transaction pool is one that every
//! validator retrieves from (§2, §3.2); the simulator shares one
//! [`Mempool`]. Here each node owns one, and they are joined by the
//! `TxBatch` frames: a node admits a peer's batch through its own
//! [`Mempool::admit`] (no client identity, the same policy) at the
//! next tick's inbox drain, before that tick's boundary, and never
//! forwards it again, since the mesh is full. So whichever node a
//! client submits to, every proposer of the next view batches the
//! transaction. Consensus frames decode against the pool (`ingest`
//! module), so the n proposals carrying one batch share the pooled
//! payloads. A `TxBatch` counts as an announcement in
//! [`NodeOutcome::announce_bytes`], both ways.
//!
//! A `Forward` goes to every peer but the message's signer, who made
//! the message and gains nothing from the echo; the simulator's
//! engine keeps its all-n forward.
//!
//! Byte formats live elsewhere: the length prefix in the `frame`
//! module, the peer header in `tobsvd_types::wire`
//! ([`wire::peek_header`] is all this module reads of a frame it
//! cannot decode yet: its byte class).

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use tobsvd_core::{AdmissionPolicy, AdmissionStats, Context, Mempool, Node, Outgoing};
use tobsvd_core::{TobConfig, Validator};
use tobsvd_storage::{shared, FileDurable};
use tobsvd_types::client::encode_tx_batches;
use tobsvd_types::wire::{self, MessageClass};
use tobsvd_types::{BlockId, BlockStore, Delta, SignedMessage, Time, Transaction, ValidatorId};

use crate::clock::TickClock;
use crate::cluster::ClusterError;
use crate::frame::{Pushed, MAX_FRAME_BYTES};
use crate::ingest::{FeeTxs, Inbound, Ingest, IngestConfig, IngestStats};
use crate::link::Link;

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
    /// Announcement (LOG/PROPOSAL/VOTE/RECOVERY/FINALITY) and
    /// `TxBatch` bytes (received, sent).
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
    /// Peer links closed for holding more than `PEER_OUTBUF_CAP`
    /// unsent bytes: the peer stopped reading.
    pub slow_peer_closes: u64,
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
            slow_peer_closes: 0,
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
    outbound: BTreeMap<ValidatorId, Link>,
    /// Decoded peer frames from the passes, and our own self-copies.
    inbox: VecDeque<Inbound>,
    out: NodeOutcome,
    decided_len_seen: u64,
}

impl NodeState {
    fn ctx(&self, now: Time) -> Context {
        Context::new(now, self.me, self.delta, self.store.clone(), self.mempool.clone())
    }

    /// Records decision events a context collected, prunes the pool at
    /// each longer decision (as the engine does at its observer's
    /// anchor), and flushes its outbox to the mesh.
    fn absorb(&mut self, mut ctx: Context, tick: u64) {
        for log in ctx.decisions() {
            if log.len() > self.decided_len_seen {
                self.decided_len_seen = log.len();
                self.mempool.prune_confirmed(log, &self.store);
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
            Inbound::Txs(txs, bytes) => {
                self.out.frames.0 += 1;
                self.out.charge(MessageClass::Announce, Dir::In, bytes);
                for (fee, tx) in txs {
                    self.mempool.admit(tx, now, fee, None);
                }
            }
        }
        self.absorb(ctx, now.ticks());
    }

    fn phase_boundary(&mut self, now: Time) {
        let mut ctx = self.ctx(now);
        self.validator.on_phase(&mut ctx);
        self.absorb(ctx, now.ticks());
    }

    /// Queues `msg` on the link of each of `targets` that is a dialed
    /// peer: hash-only to a peer known to store the log's tip, the full
    /// frame otherwise, after which that link notes the tip (the `link`
    /// module). Each form is encoded at most once, and only if some
    /// target needs it. Returns `false` when the message cannot be
    /// encoded — refusing it beats crashing the node, and the counter
    /// makes the drop observable in the run report.
    fn send(&mut self, msg: &SignedMessage, targets: &[ValidatorId]) -> bool {
        // A one-block log has one form: no body to leave out.
        let tip = msg.payload().log().filter(|log| log.len() > 1).map(|log| log.tip());
        let proposer = tip.and_then(|tip| self.store.get(tip)).and_then(|block| block.proposer());
        let stores_tip = |peer, link: &Link| tip.is_some_and(|tip| Some(peer) == proposer || link.carried(tip));
        // Each dialed target, and whether it gets the hash-only form.
        let linked: Vec<(ValidatorId, bool)> =
            targets.iter().filter_map(|t| self.outbound.get(t).map(|link| (*t, stores_tip(*t, link)))).collect();
        let needs = |hash_only| linked.iter().any(|(_, h)| *h == hash_only);
        // With no peer to reach, the full form is still encoded: a message
        // whose chain the store lacks is refused, its self-copy included.
        let full = (needs(false) || linked.is_empty()).then(|| wire::encode_message(msg, &self.store));
        let hash_only = needs(true).then(|| wire::encode_hash_only(msg, &self.store));
        let (Ok(full), Ok(hash_only)) = (full.transpose(), hash_only.transpose()) else {
            self.out.encode_failures += 1;
            return false;
        };
        let class = MessageClass::of(msg.payload());
        for (target, elided) in linked {
            let form = if elided { &hash_only } else { &full };
            let queued = form.as_ref().is_some_and(|payload| self.queue(target, payload, class));
            if queued && !elided {
                if let (Some(tip), Some(link)) = (tip, self.outbound.get_mut(&target)) {
                    link.note_carried(tip);
                }
            }
        }
        true
    }

    /// Queues `payload` as one frame on `target`'s link, if it is a
    /// dialed peer, and writes what the socket takes at once; the rest
    /// leaves at the next pass. A link whose peer is gone or stopped
    /// reading is closed, the latter counted. Returns whether the frame
    /// was queued.
    fn queue(&mut self, target: ValidatorId, payload: &[u8], class: MessageClass) -> bool {
        let Some(link) = self.outbound.get_mut(&target) else {
            return false;
        };
        match link.push(payload) {
            Pushed::Queued => {
                self.out.charge(class, Dir::Out, payload.len() as u64);
                self.out.frames.1 += 1;
                return true;
            }
            // A payload too large to frame: every reader would refuse it.
            Pushed::Refused => return false,
            Pushed::Slow => self.out.slow_peer_closes += 1,
            Pushed::Gone => {}
        }
        self.outbound.remove(&target);
        false
    }

    /// The tick's pass over the sockets: inbound sessions into the
    /// inbox, what it admitted from clients to every peer, then the
    /// unsent bytes of every peer link.
    fn scan(&mut self, ingest: &mut Ingest) {
        let admitted = ingest.scan(&mut self.inbox, Instant::now());
        self.push_txs(&admitted);
        self.outbound.retain(|_, link| link.flush());
    }

    /// Sends client transactions this node admitted to every peer's
    /// pool: one `TxBatch` frame per link, more only past a frame's
    /// limits.
    fn push_txs(&mut self, admitted: &FeeTxs) {
        let peers = self.peers();
        for batch in encode_tx_batches(self.me, admitted, MAX_FRAME_BYTES) {
            for peer in &peers {
                self.queue(*peer, &batch, MessageClass::Announce);
            }
        }
    }

    /// Fan-out order of every `Broadcast`/`Forward`: ascending validator
    /// id, the same on every node and in every process.
    fn peers(&self) -> Vec<ValidatorId> {
        self.outbound.keys().copied().collect()
    }

    /// Sends a context's collected actions over the mesh.
    fn flush(&mut self, ctx: &mut Context) {
        for action in ctx.take_outbox() {
            match action {
                Outgoing::Broadcast(m) => {
                    let targets: Vec<_> = self.peers().into_iter().chain([self.me]).collect();
                    self.transmit(&m, &targets);
                }
                // Forwards skip self (already processed) and the
                // message's signer, who made it.
                Outgoing::Forward(m) => {
                    let mut peers = self.peers();
                    peers.retain(|p| *p != m.sender());
                    self.transmit(&m, &peers);
                }
                // A recovery reply leaves message by message, in order.
                Outgoing::ForwardTo(to, batch) => {
                    for m in &batch {
                        self.transmit(m, &[to]);
                    }
                }
                Outgoing::Multicast(targets, m) => self.transmit(&m, &targets),
            }
        }
    }

    /// [`NodeState::send`], with the self-copy (if `targets` names us)
    /// straight into the inbox.
    fn transmit(&mut self, msg: &SignedMessage, targets: &[ValidatorId]) {
        if self.send(msg, targets) && targets.contains(&self.me) {
            // Self-copies never cross the network: charge 0 bytes so
            // per-kind in/out stats reconcile.
            self.inbox.push_back(Inbound::Msg(*msg, 0));
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

    let mut ingest = Ingest::new(
        listener,
        IngestConfig {
            store: store.clone(),
            mempool: mempool.clone(),
            clock,
            // Shed clients stay unread for about one Δ: long enough for
            // TCP backpressure to bite, short enough to observe recovery.
            throttle: clock.tick_duration().saturating_mul(cfg.delta.ticks().max(1) as u32),
        },
    )
    .map_err(|e| format!("nonblocking listener: {e}"))?;

    // Outbound mesh: dial every peer.
    let mut outbound = BTreeMap::new();
    for (peer, addr) in &peers {
        if let Some(link) = dial_with_retry(*addr, clock.instant_of(cfg.run_ticks)) {
            outbound.insert(*peer, link);
        }
    }

    let mut state = NodeState {
        me: cfg.me,
        delta: cfg.delta,
        store: store.clone(),
        mempool: mempool.clone(),
        validator,
        outbound,
        inbox: VecDeque::new(),
        out: NodeOutcome::new(cfg.me, store),
        decided_len_seen: 1,
    };

    // Warm-up (`ClusterConfig::warmup`): until tick 0 the listener
    // keeps accepting, one pass per tick duration.
    let tick_len = clock.tick_duration();
    while Instant::now() + tick_len < clock.instant_of(0) {
        std::thread::sleep(tick_len);
        state.scan(&mut ingest);
    }

    // The node loop. It visits every tick even when it has fallen
    // behind the wall clock (a descheduled thread), so proposals, votes
    // and GA bookkeeping continue — but two things differ while behind:
    //
    // * missed ticks are replayed at 8× real time, not in one instant:
    //   the pass comes one replay step after the tick's boundary instead
    //   of three quarters into it. Peers stalled by the same host replay
    //   the same boundaries at the same moment; with no time between a
    //   replayed vote and the next replayed snapshots, every node's
    //   V^{2Δ} holds its own vote only, nobody gets a grade-1 output,
    //   nobody votes again, and the cluster never recovers;
    // * a boundary executed more than Δ/2 after its instant is reported
    //   to the validator, which then decides nothing from the GA
    //   instances live at it (synchrony's "awake at" did not hold).
    let late_after = cfg.delta.ticks() / 2;
    let replay_step = tick_len / 8;
    let scan_offset = tick_len * 3 / 4;
    for tick in 0..=cfg.run_ticks {
        clock.wait_for(tick);
        let behind = clock.now_tick().ticks().saturating_sub(tick);
        let now = Time::new(tick);
        while let Some(inbound) = state.inbox.pop_front() {
            state.handle_inbound(inbound, now);
        }
        if now.is_phase_boundary(cfg.delta) {
            if behind > late_after {
                state.validator.note_late_boundary(now);
            }
            state.phase_boundary(now);
        }
        // The tick's pass: three quarters into it, or one replay step on.
        let to_scan = (clock.instant_of(tick) + scan_offset).saturating_duration_since(Instant::now());
        std::thread::sleep(if behind > 0 { replay_step } else { to_scan });
        state.scan(&mut ingest);
    }

    // Close outbound so peers' sessions observe EOF; the listener and
    // the inbound sessions close when `ingest` drops.
    state.outbound.clear();
    let (val, mut out) = (&state.validator, state.out);
    out.ingest = ingest.stats();
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

fn dial_with_retry(addr: SocketAddr, until: Instant) -> Option<Link> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Link::new(s).ok(),
            Err(_) if Instant::now() < until => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PEER_OUTBUF_CAP;
    use tobsvd_crypto::KeyCache;
    use tobsvd_types::{InstanceId, Log, Payload, View};

    /// A one-validator node with no peer links yet.
    fn node_state(me: ValidatorId) -> NodeState {
        let store = BlockStore::new();
        NodeState {
            me,
            delta: Delta::new(4),
            store: store.clone(),
            mempool: Mempool::new(),
            validator: Validator::new(me, TobConfig::new(1), &store),
            outbound: BTreeMap::new(),
            inbox: VecDeque::new(),
            out: NodeOutcome::new(me, store),
            decided_len_seen: 1,
        }
    }

    fn log_message(me: ValidatorId, log: Log) -> SignedMessage {
        let payload = Payload::Log { instance: InstanceId(0), log };
        SignedMessage::sign(&KeyCache::keypair(me.key_seed()), me, payload)
    }

    #[test]
    fn a_message_whose_chain_the_store_lacks_is_counted_not_sent() {
        let me = ValidatorId::new(0);
        let mut state = node_state(me);
        // The tip lives in another store only: encoding cannot read the
        // chain back, so the message is refused and the refusal counted.
        let elsewhere = BlockStore::new();
        let msg = log_message(me, Log::genesis(&elsewhere).extend_empty(&elsewhere, me, View::ZERO));
        assert!(!state.send(&msg, &[me]));
        assert_eq!(state.out.encode_failures, 1);
        assert_eq!(state.out.frames, (0, 0));
    }

    #[test]
    fn a_peer_that_never_reads_is_closed_and_counted_not_waited_for() {
        let (me, peer) = (ValidatorId::new(0), ValidatorId::new(1));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let link = link_to(listener.local_addr().expect("addr"));
        // The peer's end of the link: accepted, never read.
        let (_unread, _) = listener.accept().expect("accept");

        // A blocked write would hang the sender, so it runs on its own
        // thread and the test waits for it with a deadline.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut state = node_state(me);
            state.outbound.insert(peer, link);
            // About 4 MiB per frame: each send's tip is a fresh block
            // (its own view) inlining the same four 1 MiB transactions,
            // so no frame goes hash-only.
            let txs: Vec<_> = (0..4).map(|i| Transaction::synthetic(i, 1 << 20)).collect();
            let genesis = Log::genesis(&state.store);
            let mut sends = 0u64;
            while state.outbound.contains_key(&peer) && sends < 64 {
                let log = genesis.extend(&state.store, me, View::new(sends), txs.clone());
                assert!(state.send(&log_message(me, log), &[peer]));
                sends += 1;
            }
            let _ = done.send((sends, state.outbound.contains_key(&peer), state.out));
        });
        let (sends, still_linked, out) =
            outcome.recv_timeout(Duration::from_secs(60)).expect("every send returns");
        assert!(!still_linked, "the link is closed after {sends} unread frames");
        assert_eq!(out.slow_peer_closes, 1);
        // Every frame but the one that broke the bound was queued.
        assert_eq!(out.frames, (0, sends - 1));
        assert!(sends * (4 << 20) > PEER_OUTBUF_CAP as u64);
    }

    #[test]
    fn a_link_carrying_mebibytes_per_tick_to_a_peer_that_reads_stays_open() {
        use crate::ingest::tests::{plane, TICK};
        const TICKS: u64 = 40;
        let (me, peer) = (ValidatorId::new(0), ValidatorId::new(1));
        let (mut theirs, addr) = plane(16);
        let (mut ours, _) = plane(16);
        let mut state = node_state(me);
        state.outbound.insert(peer, link_to(addr));
        // About 2 MiB per tick: each tick's tip is a fresh block (its own
        // view) inlining the same two 1 MiB transactions, so no frame goes
        // hash-only. The run carries 80 MiB, over twice the link's bound,
        // so a reader slower than the sender closes the link.
        let txs: Vec<_> = (0..2).map(|i| Transaction::synthetic(i, 1 << 20)).collect();
        let genesis = Log::genesis(&state.store);
        let mut inbox = VecDeque::new();
        for tick in 0..TICKS {
            let log = genesis.extend(&state.store, me, View::new(tick), txs.clone());
            assert!(state.send(&log_message(me, log), &[peer]));
            std::thread::sleep(TICK);
            // Each side's pass of the tick.
            theirs.scan(&mut inbox, Instant::now());
            state.scan(&mut ours);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while theirs.stats().peer_frames < TICKS && Instant::now() < deadline {
            theirs.scan(&mut inbox, Instant::now());
            state.scan(&mut ours);
        }
        assert_eq!(state.out.slow_peer_closes, 0);
        assert!(state.outbound.contains_key(&peer), "the link stays open");
        assert_eq!(state.out.frames, (0, TICKS));
        assert!(state.out.announce_bytes.1 > 2 * PEER_OUTBUF_CAP as u64, "every frame is full");
        assert_eq!((theirs.stats().peer_frames, theirs.stats().malformed), (TICKS, 0));
        assert_eq!(inbox.len() as u64, TICKS);
    }

    /// A nonblocking link to the listener at `addr`.
    fn link_to(addr: SocketAddr) -> Link {
        Link::new(TcpStream::connect(addr).expect("dial")).expect("nonblocking link")
    }

    /// A node linked to `peers`, each through a listener that accepts
    /// and never reads (the frames here are small); the listeners come
    /// back to keep the links open.
    fn linked_node(me: ValidatorId, peers: &[ValidatorId]) -> (NodeState, Vec<TcpListener>) {
        let mut state = node_state(me);
        let listeners: Vec<_> = peers.iter().map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        for (peer, listener) in peers.iter().zip(&listeners) {
            state.outbound.insert(*peer, link_to(listener.local_addr().expect("addr")));
        }
        (state, listeners)
    }

    /// The payload bytes one `send` of `msg` to `to` charged, beside the
    /// message's full and hash-only payload lengths.
    fn charged(state: &mut NodeState, msg: &SignedMessage, to: ValidatorId) -> (u64, [u64; 2]) {
        let before = state.out.announce_bytes.1;
        assert!(state.send(msg, &[to]));
        let full = wire::encode_message(msg, &state.store).expect("encodes").len() as u64;
        let hash_only = wire::encode_hash_only(msg, &state.store).expect("encodes").len() as u64;
        assert!(hash_only < full, "the tip inlines a body");
        (state.out.announce_bytes.1 - before, [full, hash_only])
    }

    /// A one-transaction block by `proposer` on top of genesis in view
    /// `view`: a fresh tip per view.
    fn tip_by(state: &NodeState, proposer: ValidatorId, view: u64) -> Log {
        let tx = Transaction::synthetic(view, 64);
        Log::genesis(&state.store).extend(&state.store, proposer, View::new(view), vec![tx])
    }

    #[test]
    fn a_log_to_its_tips_proposer_is_hash_only_at_once() {
        let (me, proposer) = (ValidatorId::new(0), ValidatorId::new(1));
        let (mut state, _listeners) = linked_node(me, &[proposer]);
        let msg = log_message(me, tip_by(&state, proposer, 1));
        for _ in 0..2 {
            let (sent, [_, hash_only]) = charged(&mut state, &msg, proposer);
            assert_eq!(sent, hash_only);
        }
    }

    #[test]
    fn a_log_to_a_third_peer_is_full_until_its_link_carried_the_body() {
        let (me, proposer, third) = (ValidatorId::new(0), ValidatorId::new(1), ValidatorId::new(2));
        let (mut state, _listeners) = linked_node(me, &[proposer, third]);
        let log = tip_by(&state, proposer, 1);
        let msg = log_message(me, log);
        let (sent, [full, hash_only]) = charged(&mut state, &msg, third);
        assert_eq!(sent, full);
        assert_eq!(charged(&mut state, &msg, third).0, hash_only);
        // Any message over that tip, a VOTE here, on the same link.
        let vote = Payload::Vote { instance: InstanceId(0), log };
        let vote = SignedMessage::sign(&KeyCache::keypair(me.key_seed()), me, vote);
        let (sent, [_, hash_only]) = charged(&mut state, &vote, third);
        assert_eq!(sent, hash_only);

        // One broadcast over a fresh tip: each peer its own form.
        let msg = log_message(me, tip_by(&state, proposer, 2));
        let full = wire::encode_message(&msg, &state.store).expect("encodes").len() as u64;
        let hash_only = wire::encode_hash_only(&msg, &state.store).expect("encodes").len() as u64;
        let before = state.out.announce_bytes.1;
        assert!(state.send(&msg, &[proposer, third, me]));
        assert_eq!(state.out.announce_bytes.1 - before, hash_only + full);
        assert_eq!(charged(&mut state, &msg, third).0, hash_only);
    }

    #[test]
    fn a_tip_the_record_forgot_ships_in_full_again() {
        let (me, third) = (ValidatorId::new(0), ValidatorId::new(2));
        let (mut state, _listeners) = linked_node(me, &[third]);
        let proposer = ValidatorId::new(1);
        let msgs: Vec<_> =
            (0..=crate::link::CARRIED_CAP as u64).map(|v| log_message(me, tip_by(&state, proposer, v + 1))).collect();
        for msg in &msgs {
            let (sent, [full, _]) = charged(&mut state, msg, third);
            assert_eq!(sent, full);
        }
        // The record holds the last CARRIED_CAP tips: all but the first.
        let (sent, [_, hash_only]) = charged(&mut state, &msgs[1], third);
        assert_eq!(sent, hash_only);
        let (sent, [full, _]) = charged(&mut state, &msgs[0], third);
        assert_eq!(sent, full);
    }

    #[test]
    fn a_closed_link_takes_its_record_with_it() {
        let (me, third) = (ValidatorId::new(0), ValidatorId::new(2));
        let (mut state, listeners) = linked_node(me, &[third]);
        let msg = log_message(me, tip_by(&state, ValidatorId::new(1), 1));
        let (sent, [full, hash_only]) = charged(&mut state, &msg, third);
        assert_eq!(sent, full);
        assert_eq!(charged(&mut state, &msg, third).0, hash_only);
        // The link closes and the peer is dialed again: the new link
        // has carried nothing.
        state.outbound.remove(&third);
        state.outbound.insert(third, link_to(listeners[0].local_addr().expect("addr")));
        assert_eq!(charged(&mut state, &msg, third).0, full);
    }

    #[test]
    fn a_forward_queues_nothing_on_its_signers_link() {
        use crate::ingest::tests::{plane, scan_until};
        let (me, signer, other) = (ValidatorId::new(0), ValidatorId::new(1), ValidatorId::new(2));
        let (mut signers_plane, signers_addr) = plane(16);
        let (mut others_plane, others_addr) = plane(16);
        let mut state = node_state(me);
        state.outbound.insert(signer, link_to(signers_addr));
        state.outbound.insert(other, link_to(others_addr));
        let msg = log_message(signer, Log::genesis(&state.store));
        let mut ctx = state.ctx(Time::ZERO);
        ctx.forward(msg);
        state.flush(&mut ctx);
        assert_eq!(state.out.frames, (0, 1), "one copy, to the other peer");

        let mut inbox = VecDeque::new();
        scan_until(&mut others_plane, &mut inbox, Instant::now(), |i| i.stats().peer_frames > 0);
        // Written in the same call, the signer's copy would be there too.
        scan_until(&mut signers_plane, &mut inbox, Instant::now(), |i| i.stats().sessions_accepted > 0);
        assert_eq!(signers_plane.stats().buffer_bytes_peak, 0, "not a byte for the signer");
        assert_eq!(inbox.len(), 1);
    }

    #[test]
    fn a_pushed_batch_is_charged_alike_at_both_ends_admitted_once_and_not_pushed_on() {
        use crate::ingest::tests::{plane, scan_until};
        let (me, peer, third) = (ValidatorId::new(0), ValidatorId::new(1), ValidatorId::new(2));
        let (mut peers_plane, peers_addr) = plane(16);
        let (mut own_plane, _) = plane(16);
        let (_thirds_plane, thirds_addr) = plane(16);
        let mut sender = node_state(me);
        sender.outbound.insert(peer, link_to(peers_addr));
        let mut receiver = node_state(peer);
        receiver.outbound.insert(third, link_to(thirds_addr));

        let txs: FeeTxs = (0..3).map(|i| (i, Transaction::synthetic(i, 64))).collect();
        sender.push_txs(&txs);
        sender.push_txs(&Vec::new());
        scan_until(&mut peers_plane, &mut receiver.inbox, Instant::now(), |i| i.stats().peer_frames > 0);
        while let Some(inbound) = receiver.inbox.pop_front() {
            receiver.handle_inbound(inbound, Time::new(1));
        }
        // The batch is an announcement-class frame at both ends.
        assert_eq!((sender.out.frames.1, receiver.out.frames.0), (1, 1));
        assert_eq!(sender.out.announce_bytes.1, receiver.out.announce_bytes.0);
        assert!(sender.out.announce_bytes.1 > 3 * 64);
        for (_, tx) in &txs {
            assert_eq!(receiver.mempool.lookup(tx.id()), Some(tx.clone()));
            assert_eq!(receiver.mempool.submitted_at(tx.id()), Some(Time::new(1)));
        }
        // The receiver's own pass admitted nothing from clients: the
        // batch goes no further.
        receiver.scan(&mut own_plane);
        assert_eq!(receiver.out.frames.1, 0);
    }
}
