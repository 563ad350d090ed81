//! The TOB-SVD validator state machine (Figure 4).
//!
//! Receive pipeline (dedup-before-verify, the delta-sync resolution
//! gate), view phases and their GA instances, and the per-phase
//! stabilization audit; decided-log persistence is the storage crate's
//! [`Persistence`]. *How* fresh votes, certificates and proposals are
//! relayed is not decided here: that is the `Option<AggregationPlane>`
//! of `aggregation.rs`, built once from [`TobConfig::certificates`] —
//! no other line reads the flag.

use std::sync::Arc;

use tobsvd_crypto::{Digest, KeyCache, Keypair};
use tobsvd_ga::Ga3;
use tobsvd_storage::{Persistence, SharedDurable};
use tobsvd_types::{
    wire, BlockId, BlockStore, Delivered, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId, View,
};

use crate::aggregation::{self, AggregationPlane};
use crate::config::{TobConfig, MAX_TXS_PER_PROPOSAL};
use crate::gossip::{Admission, GossipState};
use crate::leader::vrf_for;
use crate::schedule::{ViewSchedule, ViewPhase};
use crate::sync::{Pending, Resolution, SyncState};
use crate::window::{self, ProposalSide, Window};
use crate::{garbage_bytes, Context, Node, StateFault};

/// An honest TOB-SVD validator.
///
/// Sans-io: all I/O flows through the [`Context`] of the callbacks, so
/// the same state machine runs under the discrete-event simulator and
/// the real TCP runtime.
///
/// Per Figure 4, "awake validators participate in the GA instances that
/// are ongoing, and in addition behave as specified *whenever they have
/// the required GA outputs to do so*. Validators do not perform actions
/// which require outputs they do not have." Missing outputs arise
/// naturally here from missed phase callbacks while asleep.
pub struct Validator {
    me: tobsvd_types::ValidatorId,
    cfg: TobConfig,
    keypair: Keypair,
    sched: ViewSchedule,
    /// Per-view state of the live views: GA instances, late marks,
    /// proposal tracking, vote groups, the recovery archive.
    window: Window,
    /// The dedup / authenticity gate: one table, one probe per delivery
    /// (see [`GossipState`]). Fetch-plane ids are deliberately *not*
    /// retained (point-to-point transport an adversary can mint without
    /// bound), so no Byzantine-floodable surface beyond verified
    /// protocol messages.
    gossip: GossipState,
    /// Highest decided log.
    decided: Log,
    /// Delta-sync state: block knowledge, bounded pending set, fetches.
    sync: SyncState,
    /// The relay strategy: the aggregation plane, or `None` for the
    /// paper's immediate per-receiver forward (no aggregation state).
    agg: Option<AggregationPlane>,
    /// Whether the node has started (first wake consumed).
    started: bool,
    /// Decided-log persistence: the durable backend (WAL + snapshot
    /// checkpoints), when attached, and its counters.
    persistence: Persistence,
    /// A durably recorded decided head whose block contents could not
    /// be reconstructed locally on restart; fetched over the delta-sync
    /// plane at the first phase boundary.
    recover_fetch: Option<BlockId>,
    /// Instrumentation: original `LOG` broadcasts (votes) made.
    votes_cast: u64,
    /// Instrumentation: proposals made.
    proposals_made: u64,
    /// Instrumentation: decisions reported.
    decisions_made: u64,
    /// Instrumentation: phase boundaries the driver reported as late.
    late_boundaries: u64,
    /// Instrumentation: grade-2 outputs not decided because their GA
    /// instance was live at a late boundary.
    decisions_withheld: u64,
    /// Stabilization: local-audit passes run (one per phase boundary).
    audits_run: u64,
    /// Stabilization: anomalies the local audit repaired (quarantined
    /// fragments, clamped counters, re-sync triggers).
    audit_repairs: u64,
}

impl Validator {
    /// Creates a validator; `store` must be the simulation's shared
    /// store (the genesis log anchors the decided chain).
    pub fn new(me: tobsvd_types::ValidatorId, cfg: TobConfig, store: &BlockStore) -> Self {
        let keypair = KeyCache::keypair(me.key_seed());
        Validator {
            me,
            keypair,
            sched: ViewSchedule::new(cfg.delta),
            window: Window::new(),
            gossip: GossipState::for_committee(cfg.n),
            decided: Log::genesis(store),
            sync: SyncState::new(store),
            agg: cfg.certificates.then(|| AggregationPlane::new(me, keypair, cfg.n, cfg.recovery)),
            started: false,
            persistence: Persistence::default(),
            recover_fetch: None,
            votes_cast: 0,
            proposals_made: 0,
            decisions_made: 0,
            late_boundaries: 0,
            decisions_withheld: 0,
            audits_run: 0,
            audit_repairs: 0,
            cfg,
        }
    }

    /// Attaches a durable backend: every decided-log extension is
    /// appended to the WAL and fsynced, with a snapshot checkpoint
    /// every [`TobConfig::snapshot_every`] decided blocks.
    pub fn with_durable(mut self, durable: SharedDurable) -> Self {
        self.persistence.attach(durable);
        self
    }

    /// Recreates a validator from its durable state after a crash:
    /// load the latest valid snapshot, replay the WAL suffix into the
    /// store, and adopt the furthest decided head that reconstructs.
    /// A head recorded durably but not locally reconstructible is
    /// fetched over the delta-sync plane once the validator is back on
    /// the phase clock. When `cfg.recovery` is on, the first
    /// post-restart wake also broadcasts the §2 `RECOVERY` request,
    /// exactly as a woken sleeper would.
    pub fn recovered(
        me: tobsvd_types::ValidatorId,
        cfg: TobConfig,
        store: &BlockStore,
        durable: SharedDurable,
    ) -> Self {
        let mut val = Validator::new(me, cfg, store);
        // Not a first activation: restart is semantically a wake-up.
        val.started = true;
        let restart = val.persistence.recover(durable, store);
        for id in &restart.known {
            val.sync.mark_own(*id);
        }
        val.decided = restart.decided;
        val.recover_fetch = restart.beyond;
        val
    }

    /// The validator's identity.
    pub fn id(&self) -> tobsvd_types::ValidatorId {
        self.me
    }

    /// Durable operations that failed (storage degradation counter).
    pub fn wal_errors(&self) -> u64 {
        self.persistence.wal_errors()
    }

    /// Decided log length through which durable persistence has synced.
    pub fn persisted_len(&self) -> u64 {
        self.persistence.persisted_len()
    }

    /// The highest log this validator has decided.
    pub fn decided(&self) -> Log {
        self.decided
    }

    /// Number of `LOG` broadcasts (votes) this validator has made.
    pub fn votes_cast(&self) -> u64 {
        self.votes_cast
    }

    /// Number of proposals this validator has made.
    pub fn proposals_made(&self) -> u64 {
        self.proposals_made
    }

    /// Number of decide-phase outputs this validator reported.
    pub fn decisions_made(&self) -> u64 {
        self.decisions_made
    }

    /// Phase boundaries reported through
    /// [`Validator::note_late_boundary`].
    pub fn late_boundaries(&self) -> u64 {
        self.late_boundaries
    }

    /// Grade-2 outputs this validator held but did not decide, because
    /// their GA instance was live at a late boundary.
    pub fn decisions_withheld(&self) -> u64 {
        self.decisions_withheld
    }

    /// Tells the validator that the phase boundary at `now` is being
    /// executed late — the driver's wall clock is already well past it
    /// (the TCP node loop calls this when it is more than Δ/2 behind;
    /// the simulator's clock cannot stall, so it never does).
    ///
    /// Figure 2 grants grade 2 only to a validator "awake at Δ": the
    /// output is `V^Δ ∩ V^{5Δ}`, two snapshots taken 4Δ apart. A loop
    /// that was descheduled replays its missed boundaries in a burst,
    /// so both snapshots are taken at one instant and contain votes —
    /// its own late one included — that no peer counted in time; a
    /// grade-2 output computed that way can be a log nobody else
    /// locked. The two instances live in the current view `v`,
    /// `GA_{v−1}` and `GA_v`, are therefore marked, and
    /// `decide` skips a marked instance. Everything else carries on:
    /// the validator still proposes, votes and keeps its GA bookkeeping
    /// (skipping the boundary instead starves the cluster — ROADMAP
    /// item 1), and the next clean instance's grade-2 output is a
    /// longer log, so the node lags by a view rather than diverging.
    pub fn note_late_boundary(&mut self, now: Time) {
        let v = View::of_time(now, self.cfg.delta);
        self.late_boundaries += 1;
        for w in v.prev().into_iter().chain([v]) {
            self.window.entry(w).or_default().late = true;
        }
    }

    /// Own quorum certificates this validator has broadcast.
    pub fn certificates_emitted(&self) -> u64 {
        self.agg.as_ref().map_or(0, |p| p.certificates_emitted)
    }

    /// Stabilization: local-audit passes run (one per phase boundary).
    pub fn audits_run(&self) -> u64 {
        self.audits_run
    }

    /// Stabilization: anomalies the local audit detected and repaired.
    /// Zero in a fault-free run — every repair is a corruption caught.
    pub fn audit_repairs(&self) -> u64 {
        self.audit_repairs
    }

    /// Number of protocol message ids that passed verification (fetch-
    /// plane ids are never retained; an id of a view that left the live
    /// range is forgotten, and counts again if it verifies again).
    pub fn verified_ids(&self) -> usize {
        self.gossip.verified_count()
    }

    /// Whether `msg` has passed signature verification at this validator
    /// (its id is filed in the dedup table, which files only verified
    /// ids).
    pub fn is_verified(&self, msg: &SignedMessage) -> bool {
        self.gossip.is_verified(msg)
    }

    /// Number of message ids the gossip layer has filed (an id of a view
    /// that left the live range counts again if it is filed again).
    pub fn unique_messages_seen(&self) -> usize {
        self.gossip.seen_count()
    }

    /// Delta-sync state (pending set, fetch stats) — read-only view for
    /// reports and invariant checks.
    pub fn sync(&self) -> &SyncState {
        &self.sync
    }

    /// The GA instance for view `v`, if currently live.
    pub fn ga(&self, v: View) -> Option<&Ga3> {
        self.window.get(&v)?.ga.as_ref()
    }

    fn ensure_ga(&mut self, v: View) -> &mut Ga3 {
        let start = self.sched.ga_start(v);
        self.window.entry(v).or_default().ga.get_or_insert_with(|| Ga3::new(InstanceId::for_view(v), start))
    }

    /// Grade-`g` output of `GA_{v−1}`, with the Figure 4 convention that
    /// `GA_{−1}` outputs the genesis log at every grade.
    fn prev_ga_output(&self, v: View, grade: u8, store: &BlockStore) -> Option<Log> {
        match v.prev() {
            None => Some(Log::genesis(store)),
            Some(prev) => self.ga(prev).filter(|ga| ga.participated(grade))?.output(grade),
        }
    }

    fn propose(&mut self, v: View, ctx: &mut Context) {
        // Propose Λ′ extending the candidate (highest grade-0 output of
        // GA_{v−1}), accompanied by the VRF value for view v.
        let Some(candidate) = self.prev_ga_output(v, 0, &ctx.store) else {
            return;
        };
        let mut txs = ctx
            .mempool
            .pending_for_at(&candidate, &ctx.store, ctx.time);
        txs.truncate(MAX_TXS_PER_PROPOSAL);
        let proposal_log = candidate.extend(&ctx.store, self.me, v, txs);
        // We built this block: its content is known to us by definition.
        self.sync.mark_own(proposal_log.tip());
        let (vrf, proof) = vrf_for(self.me, v);
        let msg = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::Proposal { view: v, log: proposal_log, vrf, proof },
        );
        ctx.broadcast(msg);
        self.proposals_made += 1;
    }

    fn vote(&mut self, v: View, ctx: &mut Context) {
        // The lock is the highest grade-1 output of GA_{v−1}; without it
        // the vote is skipped ("validators do not perform actions which
        // require outputs they do not have").
        let Some(lock) = self.prev_ga_output(v, 1, &ctx.store) else {
            self.ensure_ga(v);
            return;
        };
        let side = self.window.get_mut(&v).and_then(|state| state.proposals.as_mut());
        let best = side.and_then(|side| side.tracker.best_extending(&lock, &ctx.store, &mut ctx.crypto_ops));
        let input = best.map_or(lock, |(_, log)| log);
        let ga = self.ensure_ga(v);
        ga.set_input(input);
        let msg = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::Log { instance: InstanceId::for_view(v), log: input },
        );
        ctx.broadcast(msg);
        self.votes_cast += 1;
    }

    fn decide(&mut self, v: View, ctx: &mut Context) {
        // Decide the highest log output with grade 2 by GA_{v−1}.
        if v == View::ZERO {
            return; // GA_{−1}'s output is the genesis log: nothing to decide.
        }
        let Some(d) = self.prev_ga_output(v, 2, &ctx.store) else {
            return;
        };
        if v.prev().and_then(|prev| self.window.get(&prev)).is_some_and(|state| state.late) {
            self.decisions_withheld += 1;
            return;
        }
        self.decisions_made += 1;
        ctx.decide(d);
        if d.len() > self.decided.len() {
            self.decided = d;
            self.persistence.persist(d, &ctx.store, self.cfg.snapshot_every);
        }
    }

    /// Self-stabilization: the cheap per-phase-boundary local audit
    /// (Lundström–Raynal–Schiller style). Checks structural invariants
    /// an in-memory corruption can break and, on violation, quarantines
    /// the bad fragment and re-arms the ordinary recovery machinery —
    /// never panics, never trusts the corrupt fragment.
    ///
    /// * **Counter monotonicity** — [`Persistence::audit`]: an
    ///   overshooting persistence counter silently disables persistence
    ///   (it skips "already persisted" suffixes), so it is clamped back
    ///   to the decided log.
    /// * **Decided-log linkage** — the decided tip must sit in the
    ///   store at height `len − 1`; a mismatched head is untrusted and
    ///   reset to genesis (the next grade-2 GA output re-decides the
    ///   full log, and durable replay re-persists from the clamp).
    /// * **Decided tip known** — the sync plane must know the decided
    ///   chain; if not (amnesia), the §2 recover-fetch path is re-armed
    ///   and the fetch broadcast fires at this very boundary.
    /// * **`verified ⊆ seen`** — an id is filed only after its
    ///   signature verified, so one that passes for verified without a
    ///   sighting proves poisoning; [`GossipState::quarantine`] evicts
    ///   those, O(1) when there are none.
    /// * **Sync structural sanity** — [`SyncState::audit`]: known ids
    ///   must have store-backed content (`known ⊆ store`, scanned only
    ///   behind its own O(1) shadow-count trigger), in-flight fetches
    ///   must target unknown ids.
    ///
    /// This runs at every phase boundary of every validator, so each
    /// check is an O(1) trigger with any scan behind it: nothing here
    /// may walk a set that grows with the horizon.
    ///
    /// Returns the number of anomalies repaired this pass. When
    /// repairs occurred and the §2 recovery protocol is enabled, the
    /// caller broadcasts a `RECOVERY` request — corrupted state may
    /// have lost live-instance messages no structural check can see.
    fn local_audit(&mut self, ctx: &mut Context) -> u64 {
        self.audits_run += 1;
        let dlen = self.decided.len();
        let linked = ctx.store.height(self.decided.tip()).is_some_and(|h| h.saturating_add(1) == dlen);
        let mut repairs = self.persistence.audit(dlen, linked);
        if !linked {
            self.decided = Log::genesis(&ctx.store);
            repairs += 1;
        }
        if !self.sync.knows(self.decided.tip()) {
            // Amnesia: the sync plane forgot our own decided chain.
            // Re-learn it through the delta-sync fetch plane (same path
            // as a restart whose WAL head outran its blocks).
            if self.recover_fetch.is_none() {
                self.recover_fetch = Some(self.decided.tip());
            }
            repairs += 1;
        }
        repairs += self.gossip.quarantine() as u64;
        repairs += self.sync.audit(&ctx.store);
        self.audit_repairs += repairs;
        repairs
    }

    /// Serves a recovery request from a committee member: one batch, up
    /// to the response cap, of handles the validator already holds (none
    /// when it holds nothing to send). For each view from `from_view` on,
    /// in view order, that is the view's [`aggregation::served_votes`]
    /// (the certificates the flush sent, then the archived votes none of
    /// them covers), then, for a view in this validator's own
    /// [`View::proposal_range`], its vetted archived proposals. No
    /// message is built or signed. The requester's clock is at or past
    /// ours when a copy arrives, so a proposal outside that range would
    /// be dropped by its `process`: it is not sent.
    fn serve_recovery(&mut self, requester: ValidatorId, from_view: View, ctx: &mut Context) {
        if !self.cfg.recovery || requester == self.me {
            return;
        }
        let proposal_range = View::of_time(ctx.time, ctx.delta).proposal_range();
        let cap = SyncState::RECOVERY_RESPONSE_CAP;
        let mut served: Vec<Arc<Delivered>> = Vec::new();
        for (w, state) in self.window.range_mut(from_view..) {
            if served.len() >= cap {
                break;
            }
            let votes = aggregation::served_votes(&state.groups, &state.archive);
            let side = state.proposals.as_mut().filter(|_| proposal_range.contains(w));
            let proposals = side.map(|side| side.vetted(&mut ctx.crypto_ops)).unwrap_or_default();
            served.extend(votes.chain(proposals).take(cap - served.len()).cloned());
        }
        if !served.is_empty() {
            ctx.forward_to(requester, served);
        }
    }

    /// Broadcasts the §2 `RECOVERY` request at view `current`, asking
    /// for everything affecting still-live GA instances.
    fn broadcast_recovery(&mut self, current: View, ctx: &mut Context) {
        let from_view = *current.live_range().start();
        let payload = Payload::Recovery { from_view, log: self.decided };
        ctx.broadcast(SignedMessage::sign(&self.keypair, self.me, payload));
    }

    /// Issues a `BlockRequest` for the chain ending at `missing` and
    /// notes it in flight. It asks from `from_height` (a parked frame's
    /// codec hint) or else from [`SyncState::fetch_start`]; it goes to
    /// `target` on the first attempt and is broadcast on retries
    /// (`target = None`) so any honest awake peer can answer.
    fn request_blocks(
        &mut self,
        missing: BlockId,
        from_height: Option<u64>,
        target: Option<ValidatorId>,
        ctx: &mut Context,
    ) {
        let start = from_height.unwrap_or_else(|| self.sync.fetch_start(missing, &ctx.store));
        let msg = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::BlockRequest { tip: missing, from_height: start },
        );
        match target {
            Some(t) => ctx.multicast(vec![t], msg),
            None => ctx.broadcast(msg),
        }
        self.sync.note_requested(missing, ctx.time, from_height);
    }

    /// Serves a fetch from a committee member: responds with the
    /// requested chain range if we know (can vouch for) the tip.
    /// Responses are capped at [`wire::MAX_FETCH_BLOCKS`]; a longer gap
    /// is served top-first and the requester fetches the rest below it.
    fn serve_fetch(
        &mut self,
        requester: ValidatorId,
        tip: BlockId,
        from_height: u64,
        ctx: &mut Context,
    ) {
        if requester == self.me || !self.sync.knows(tip) {
            return;
        }
        let Some(tip_height) = ctx.store.height(tip) else {
            return;
        };
        if from_height == 0 || from_height > tip_height {
            return;
        }
        let full = tip_height - from_height + 1;
        // A gap wider than one response is served *top-first*: the
        // requester asked for `tip` specifically, and serving the
        // bottom would let a from_height hint that never advances
        // (e.g. a parked frame's retries from a full-resync hint of 1)
        // re-fetch the same lowest range forever. The requester fetches the
        // still-unanchored range below via the anchor-fetch fallback
        // in `on_blocks`, so arbitrarily deep gaps close in
        // O(gap / MAX_FETCH_BLOCKS) round trips.
        let (from_height, count) = if full > wire::MAX_FETCH_BLOCKS {
            (tip_height - wire::MAX_FETCH_BLOCKS + 1, wire::MAX_FETCH_BLOCKS)
        } else {
            (from_height, full)
        };
        let msg = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::BlockResponse { tip, from_height, count },
        );
        ctx.multicast(vec![requester], msg);
        self.sync.note_served();
    }

    /// Absorbs a fetch response; parked messages it resolved replay via
    /// [`Validator::drain_pending`]. A response that cannot anchor yet
    /// (a capped, top-first range whose bottom we are still missing)
    /// triggers a fetch of the anchor chain below it instead.
    fn on_blocks(&mut self, sender: ValidatorId, tip: BlockId, from_height: u64, ctx: &mut Context) {
        if self.sync.accept_response(tip, from_height, &ctx.store) == 0 {
            if from_height > 1 {
                if let Some(anchor) = ctx.store.ancestor_at(tip, from_height - 1) {
                    if !self.sync.knows(anchor) && self.sync.should_fetch(anchor) {
                        self.request_blocks(anchor, None, Some(sender), ctx);
                    }
                }
            }
            return;
        }
        self.drain_pending(ctx);
    }

    /// Resolution gate in front of the protocol state machine: a message
    /// referencing unknown blocks is parked and fetched instead of
    /// processed. Every processed message may grow the knowledge set
    /// (its inline window), so the pending set is drained afterwards —
    /// a parked message's gap can close through ordinary announcements,
    /// not just fetch responses.
    fn on_protocol_message(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        self.handle_or_park(msg, ctx);
        self.drain_pending(ctx);
    }

    /// A message the range gate dropped unverified still carries its
    /// inline window, and blocks are content-addressed, so the window is
    /// absorbed without a signature and any parked entry it unblocks
    /// drains. One whose window does not resolve parks nothing and
    /// fetches nothing: the message itself would be dropped.
    fn absorb_window(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        if let Some(log) = msg.payload().log() {
            if self.sync.resolve(&log, &ctx.store) == Resolution::Resolved {
                self.drain_pending(ctx);
            }
        }
    }

    fn handle_or_park(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        let Some(log) = msg.payload().log() else {
            return;
        };
        match self.sync.resolve(&log, &ctx.store) {
            Resolution::Resolved => self.process(msg, ctx),
            Resolution::Missing(missing) => {
                if self.sync.park(missing, Arc::clone(msg), ctx.time) {
                    self.request_blocks(missing, None, Some(msg.sender()), ctx);
                }
            }
        }
    }

    /// Parks a peer frame whose decode failed with
    /// [`wire::WireError::MissingBlocks`] `{ missing, from_height }` and
    /// fetches the gap from the sender its header claims. The fetch and
    /// its retries ask from the codec's hint: [`SyncState::fetch_start`]
    /// cannot walk a chain the store lacks and would ask from 1.
    pub fn park_frame(&mut self, raw: Vec<u8>, missing: BlockId, from_height: u64, ctx: &mut Context) {
        let claimed = wire::peek_header(&raw).map(|(sender, _)| sender);
        // The gap may have closed since the decode: then the frame
        // drains at once, with no fetch.
        if self.sync.park(missing, Pending::Frame(raw), ctx.time) && !self.sync.knows(missing) {
            self.request_blocks(missing, Some(from_height), claimed, ctx);
        }
        self.drain_pending(ctx);
    }

    /// Replays parked entries whose gaps have closed, to a fixpoint
    /// (a replay may absorb a window that unblocks the next one; it may
    /// also re-park on a deeper gap, issuing the next fetch). A frame
    /// enters through [`Node::on_delivery`], so the admit gate verifies
    /// its signature first; one that still misses a block the knowledge
    /// set claims (corruption the audit repairs), or fails otherwise,
    /// is dropped.
    fn drain_pending(&mut self, ctx: &mut Context) {
        while self.sync.has_resolvable() {
            for entry in self.sync.take_resolved() {
                match entry {
                    Pending::Msg(msg) => self.handle_or_park(&msg, ctx),
                    Pending::Frame(raw) => match wire::decode_message(&raw, &ctx.store) {
                        Ok(msg) => self.on_delivery(&msg.into(), ctx),
                        Err(wire::WireError::MissingBlocks { missing, from_height })
                            if !self.sync.knows(missing) =>
                        {
                            self.park_frame(raw, missing, from_height, ctx);
                        }
                        Err(_) => {}
                    },
                }
            }
        }
    }
}

impl Node for Validator {
    fn on_wake(&mut self, ctx: &mut Context) {
        if !self.started {
            // First activation: nothing to recover.
            self.started = true;
            return;
        }
        if !self.cfg.recovery {
            return;
        }
        // Figure 2 grants grade 2 only to a validator "awake at Δ", in a
        // model where a waker receives at once what was sent while it
        // slept. Under §2's drop-and-RECOVERY practice the replies take
        // up to 2Δ, so an instance holding a V^Δ from before the sleep
        // could output grade 2 on a V^{5Δ} missing an equivocation:
        // mark the live instances it holds, as a late boundary does. A
        // restarted incarnation holds none (DESIGN.md § "Lateness").
        let v = View::of_time(ctx.time, ctx.delta);
        for w in v.prev().into_iter().chain([v]) {
            if let Some(state) = self.window.get_mut(&w).filter(|state| state.ga.is_some()) {
                state.late = true;
            }
        }
        // §2: "upon waking up, a validator sends a RECOVERY message to
        // other validators".
        self.broadcast_recovery(v, ctx);
    }

    fn on_phase(&mut self, ctx: &mut Context) {
        let (v, phase) = self.sched.phase_at(ctx.time);
        // Self-stabilization: audit structural invariants before acting
        // on any of the state they guard. On repair, broadcast the §2
        // RECOVERY request — the quarantined state may have included
        // live-instance messages only peers can restore.
        if self.local_audit(ctx) > 0 && self.cfg.recovery {
            self.broadcast_recovery(v, ctx);
        }
        // A durably recorded decided head the restart could not rebuild
        // locally: close the gap over the delta-sync plane (broadcast,
        // so any honest awake peer can serve it).
        if let Some(missing) = self.recover_fetch.take() {
            if !self.sync.knows(missing) && self.sync.should_fetch(missing) {
                self.request_blocks(missing, None, None, ctx);
            }
        }
        // Retry unanswered fetches first (as broadcasts, so any honest
        // awake peer can answer a request whose original target dropped
        // it, slept, or turned Byzantine).
        // Saturating: hostile checker scenarios drive Δ toward u64::MAX,
        // where `2 × Δ` wraps and every fetch would retry instantly.
        let retry_after = SyncState::RETRY_AFTER_DELTAS.saturating_mul(ctx.delta.ticks());
        for (missing, from_height) in self.sync.stale_requests(ctx.time, retry_after) {
            self.request_blocks(missing, from_height, None, ctx);
        }
        // Flush the aggregation plane: votes and certificates buffered
        // since the previous boundary go out now, as one quorum
        // certificate where a group is quorate.
        if let Some(plane) = self.agg.as_mut() {
            plane.flush(&mut self.window, ctx);
        }
        // Drive the ongoing GA instances: the TOB phase at this
        // boundary consumes outputs computed at this very time (Figure 3
        // arrows land on the phase they feed).
        let (time, delta) = (ctx.time, ctx.delta);
        for ga in self.window.values_mut().filter_map(|state| state.ga.as_mut()) {
            ga.on_phase(time, delta, &ctx.store);
        }
        match phase {
            ViewPhase::Propose => {
                window::retire(&mut self.window, v);
                self.gossip.set_live(v.number());
                self.propose(v, ctx);
            }
            ViewPhase::Vote => self.vote(v, ctx),
            ViewPhase::Decide => self.decide(v, ctx),
            ViewPhase::Idle => {}
        }
    }

    fn on_state_fault(&mut self, fault: &StateFault, ctx: &mut Context) {
        match *fault {
            StateFault::DecidedReset => {
                self.decided = Log::genesis(&ctx.store);
            }
            StateFault::CounterSkew { skew } => self.persistence.skew(skew),
            StateFault::VerifiedPoison { seed } => {
                for lane in 0..4 {
                    self.gossip.poison(Digest::from_bytes(garbage_bytes(seed, lane)));
                }
            }
            StateFault::SyncPoison { seed } => {
                for lane in 0..4 {
                    self.sync.poison_known(BlockId(Digest::from_bytes(garbage_bytes(seed, lane))));
                }
            }
            StateFault::SyncAmnesia => {
                self.sync.forget_all();
            }
            StateFault::SnapshotBitFlip { byte, bit } => {
                self.persistence.corrupt(|d| d.corrupt_snapshot_bit(byte as usize, u32::from(bit)));
            }
            StateFault::WalBitFlip { byte, bit } => {
                self.persistence.corrupt(|d| d.corrupt_wal_bit(byte as usize, u32::from(bit)));
            }
            StateFault::WalTear { bytes } => self.persistence.corrupt(|d| d.tear_wal_tail(bytes as usize)),
        }
    }

    /// Wraps `msg` in one handle, shared by whatever keeps or forwards it.
    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        self.on_delivery(&(*msg).into(), ctx);
    }

    fn on_delivery(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        let reception = match self.gossip.admit_live(msg, ctx) {
            Admission::Admitted(reception) => reception,
            Admission::Forged => return,
            Admission::OutOfRange => {
                self.absorb_window(msg, ctx);
                return;
            }
        };
        // Fetch traffic is verified but never filed: it is point-to-point
        // transport (never re-broadcast), serving is idempotent, and a
        // retry is a byte-identical re-sign of the original request —
        // a dedup table would silently discard every retry at a peer
        // that could not serve the first copy (and would grow with
        // transport chatter).
        match msg.payload() {
            Payload::BlockRequest { tip, from_height } => {
                self.serve_fetch(msg.sender(), *tip, *from_height, ctx);
                return;
            }
            Payload::BlockResponse { tip, from_height, .. } => {
                self.on_blocks(msg.sender(), *tip, *from_height, ctx);
                return;
            }
            _ => {}
        }
        // The paper's gossip forwards on reception; the aggregation
        // plane, when present, takes over the relaying of the payloads
        // it defers to the next phase boundary.
        let deferred = self.agg.is_some() && AggregationPlane::defers(msg.payload());
        if reception.forward && !deferred {
            ctx.forward(Arc::clone(msg));
        }
        if !reception.fresh {
            return;
        }
        self.on_protocol_message(msg, ctx);
    }

    fn label(&self) -> &'static str {
        "tob-svd"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Validator {
    /// The protocol state machine proper, entered only with fully
    /// resolved messages (every referenced block known).
    fn process(&mut self, msg: &Arc<Delivered>, ctx: &mut Context) {
        // Only live instances take input: a LOG or certificate for a
        // view out of `View::live_range`, however large, a proposal out
        // of `View::proposal_range`, and every VOTE or finality vote,
        // is dropped here, before it touches any per-view state. The
        // gossip gate drops such a first sighting before its signature
        // check; this catches one parked while in range that resolved
        // after its view left.
        if !msg.payload().is_live_at(View::of_time(ctx.time, ctx.delta)) {
            return;
        }
        match msg.payload() {
            Payload::Log { instance, log } => {
                let w = instance.view();
                if self.cfg.recovery {
                    self.window.entry(w).or_default().archive.push(Arc::clone(msg));
                }
                self.ensure_ga(w).on_log(msg.sender(), *log);
                if let Some(plane) = self.agg.as_mut() {
                    plane.note_vote(&mut self.window, msg, *instance, *log, ctx);
                }
            }
            Payload::Certificate { instance, log, .. } => {
                let w = instance.view();
                // Certificates only exist under the aggregation plane;
                // per-vote mode has no door through which one could
                // reach the GA.
                let Some(plane) = self.agg.as_mut() else { return };
                for signer in plane.on_certificate(&mut self.window, msg, ctx) {
                    self.ensure_ga(w).on_log(signer, *log);
                }
            }
            Payload::Proposal { view, .. } => {
                // Recorded as an unverified claim: its VRF is checked
                // only where its priority is used — the vote, the
                // boundary relay, a recovery serve — so a forged VRF is
                // never picked or relayed, and the usual receipt costs
                // no crypto at all.
                let state = self.window.entry(*view).or_default();
                let side = state.proposals.get_or_insert_with(|| ProposalSide::new(*view));
                let Some(slot) = side.tracker.record(msg) else { return };
                if self.agg.is_some() {
                    side.relay.note(msg.sender(), slot);
                }
                if self.cfg.recovery {
                    side.archive.push(Arc::clone(msg));
                }
            }
            Payload::Recovery { from_view, .. } => {
                self.serve_recovery(msg.sender(), *from_view, ctx);
            }
            // Not part of TOB-SVD: never live, so the range gate above
            // has already dropped them.
            Payload::Vote { .. } | Payload::FinalityVote { .. } => {}
            // Handled one layer up, before the resolution gate.
            Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::{VrfOutput, VrfProof};
    use crate::Mempool;
    use tobsvd_types::{Delta, Time, ValidatorId};

    fn ctx_at(t: u64, store: &BlockStore) -> Context {
        Context::new(
            Time::new(t),
            ValidatorId::new(0),
            Delta::new(8),
            store.clone(),
            Mempool::new(),
        )
    }

    #[test]
    fn view0_proposes_and_votes_genesis_extension() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);

        // t = 0: propose (candidate = genesis via GA_{-1}).
        let mut ctx = ctx_at(0, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.outbox().len(), 1);
        assert_eq!(val.proposals_made(), 1);

        // t = Δ: vote (lock = genesis; no proposals received → lock).
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(val.votes_cast(), 1);
        let vote = match ctx.outbox() {
            [crate::Outgoing::Broadcast(m)] => *m,
            other => panic!("expected one broadcast, got {other:?}"),
        };
        match vote.payload() {
            Payload::Log { instance, log } => {
                assert_eq!(*instance, InstanceId(0));
                assert!(log.is_genesis(&store), "no proposal received → vote the lock");
            }
            p => panic!("expected LOG, got {p:?}"),
        }
    }

    #[test]
    fn vote_adopts_highest_vrf_proposal_extending_lock() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);

        // Two proposals for view 0 arrive before the vote.
        for sender in [ValidatorId::new(1), ValidatorId::new(2)] {
            let log = g.extend_empty(&store, sender, View::ZERO);
            let (vrf, proof) = vrf_for(sender, View::ZERO);
            let kp = Keypair::from_seed(sender.key_seed());
            let msg = SignedMessage::sign(
                &kp,
                sender,
                Payload::Proposal { view: View::ZERO, log, vrf, proof },
            );
            let mut ctx = ctx_at(3, &store);
            val.on_message(&msg, &mut ctx);
            assert_eq!(ctx.crypto_ops.vrf_verifies, 0, "receipt records the claim unchecked");
        }
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 1, "flush and vote share the winner's one check");
        let winner = [ValidatorId::new(1), ValidatorId::new(2)]
            .into_iter()
            .max_by_key(|v| vrf_for(*v, View::ZERO).0)
            .unwrap();
        // The boundary flush relays exactly the winning proposal (the
        // loser's echo is dropped), then the vote adopts its log.
        match ctx.outbox() {
            [crate::Outgoing::Forward(relay), crate::Outgoing::Broadcast(m)] => {
                assert!(matches!(relay.payload(), Payload::Proposal { .. }));
                assert_eq!(relay.sender(), winner, "only the best-VRF proposal is relayed");
                match m.payload() {
                    Payload::Log { log, .. } => {
                        let block = store.get(log.tip()).unwrap();
                        assert_eq!(block.proposer(), Some(winner));
                    }
                    p => panic!("expected LOG, got {p:?}"),
                }
            }
            other => panic!("expected relay + vote, got {other:?}"),
        }
    }

    #[test]
    fn forged_vrf_proposals_ignored() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let log = g.extend_empty(&store, sender, View::ZERO);
        // Claim another validator's (higher?) VRF — proof won't verify.
        let (vrf, proof) = vrf_for(ValidatorId::new(2), View::ZERO);
        let kp = Keypair::from_seed(sender.key_seed());
        let msg = SignedMessage::sign(
            &kp,
            sender,
            Payload::Proposal { view: View::ZERO, log, vrf, proof },
        );
        let mut ctx = ctx_at(3, &store);
        val.on_message(&msg, &mut ctx);
        // The proposal is neither relayed nor voted for.
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 1, "the forger pays its one check");
        match ctx.outbox() {
            [crate::Outgoing::Broadcast(m)] => {
                let log = m.payload().log().expect("LOG carries a log");
                assert!(log.is_genesis(&store), "forged proposal ignored");
            }
            other => panic!("expected one broadcast, got {other:?}"),
        }
    }

    #[test]
    fn no_decision_without_grade2_output() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        // Jump straight to view 1's decide phase with no GA_0 state.
        let mut ctx = ctx_at(4 * 8 + 2 * 8, &store);
        val.on_phase(&mut ctx);
        assert!(ctx.decisions().is_empty());
        assert_eq!(val.decisions_made(), 0);
    }

    #[test]
    fn late_boundary_withholds_its_gas_and_the_next_clean_view_decides_the_suffix() {
        use tobsvd_storage::{replay_into, shared, MemDurable};

        let store = BlockStore::new();
        let durable = shared(MemDurable::new());
        let mut val = Validator::new(ValidatorId::new(0), TobConfig::new(4), &store)
            .with_durable(durable.clone());
        let peers = [1, 2, 3].map(ValidatorId::new);
        let sign = |from: ValidatorId, payload| {
            SignedMessage::sign(&Keypair::from_seed(from.key_seed()), from, payload)
        };
        // Views 0 and 1 each get one proposal and a unanimous vote for
        // it, so GA_0 outputs `b1` and GA_1 outputs `b2` at grade 2.
        let b1 = Log::genesis(&store).extend_empty(&store, peers[0], View::ZERO);
        let b2 = b1.extend_empty(&store, peers[1], View::new(1));
        let mut decisions = Vec::new();
        for t in (0..=80).step_by(8) {
            if t == 16 {
                // View 0's decide boundary ran late: GA_0 was live at it.
                val.note_late_boundary(Time::new(t));
            }
            let mut ctx = ctx_at(t, &store);
            val.on_phase(&mut ctx);
            decisions.extend(ctx.decisions().iter().map(|d| (t, d.len())));
            if t == 48 {
                // decide(1): GA_0 holds `b1` at grade 2 and is marked.
                assert_eq!(val.ga(View::ZERO).and_then(|ga| ga.output(2)), Some(b1));
                assert_eq!(val.decisions_withheld(), 1);
                assert!(decisions.is_empty(), "a withheld output never reaches ctx.decide");
                assert!(val.decided().is_genesis(&store));
                assert!(durable.lock().load().expect("loads").wal.is_empty(), "no WAL append");
            }
            // Traffic between this boundary and the next.
            for (view, proposer, log) in [(View::ZERO, peers[0], b1), (View::new(1), peers[1], b2)] {
                let start = view.number() * 32;
                if t == start {
                    let (vrf, proof) = vrf_for(proposer, view);
                    let msg = sign(proposer, Payload::Proposal { view, log, vrf, proof });
                    val.on_message(&msg, &mut ctx_at(t + 3, &store));
                }
                if t == start + 8 {
                    for peer in peers {
                        let vote = Payload::Log { instance: InstanceId::for_view(view), log };
                        val.on_message(&sign(peer, vote), &mut ctx_at(t + 3, &store));
                    }
                }
            }
        }
        // decide(2): GA_1 is clean, its output is the longer log, and
        // the whole suffix (both blocks) is persisted behind it.
        assert_eq!(decisions, vec![(80, 3)]);
        assert_eq!((val.late_boundaries(), val.decisions_withheld()), (1, 1));
        assert_eq!(val.decided(), b2);
        assert_eq!(val.persisted_len(), 3);
        let replayed = replay_into(&BlockStore::new(), &durable.lock().load().expect("loads"));
        assert_eq!((replayed.decided_tip, replayed.decided_len), (b2.tip(), 3));
    }

    #[test]
    fn wake_marks_only_the_instances_held_from_before_the_sleep() {
        use tobsvd_storage::{shared, MemDurable};

        let store = BlockStore::new();
        let late = |val: &Validator| -> Vec<View> {
            val.window.iter().filter(|(_, state)| state.late).map(|(v, _)| *v).collect()
        };
        // Awake from genesis through view 1's vote (t = 40), so GA_0 and
        // GA_1 are held; then asleep until t = 60, still in view 1.
        let sleeper = |cfg: TobConfig| {
            let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
            val.on_wake(&mut ctx_at(0, &store));
            for t in (0..=40).step_by(8) {
                val.on_phase(&mut ctx_at(t, &store));
            }
            assert!([View::ZERO, View::new(1)].iter().all(|v| val.ga(*v).is_some()));
            val
        };
        let wake = |val: &mut Validator| {
            let mut ctx = ctx_at(60, &store);
            val.on_wake(&mut ctx);
            ctx.outbox().len()
        };

        // Recovery on: both held instances are marked, and RECOVERY goes out.
        let mut val = sleeper(TobConfig::new(4).with_recovery(true));
        assert_eq!(wake(&mut val), 1);
        assert_eq!(late(&val), [View::ZERO, View::new(1)]);

        // A restarted incarnation holds no instance when it wakes: it
        // asks for RECOVERY and marks nothing.
        let (me, cfg) = (ValidatorId::new(0), TobConfig::new(4).with_recovery(true));
        let mut val = Validator::recovered(me, cfg, &store, shared(MemDurable::new()));
        assert_eq!(wake(&mut val), 1);
        assert!(late(&val).is_empty());

        // Recovery off (buffered sleep): nothing to mark, nothing sent.
        let mut val = sleeper(TobConfig::new(4));
        assert_eq!(wake(&mut val), 0);
        assert!(late(&val).is_empty());
    }

    #[test]
    fn oversized_fetch_is_served_top_first() {
        // A request spanning more than MAX_FETCH_BLOCKS must be served
        // from the *top* of the range: the requester asked for `tip`,
        // and bottom-first serving would let a never-advancing
        // from_height hint re-fetch the same lowest range forever.
        let store = BlockStore::new();
        let cfg = TobConfig::new(2);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let blocks = tobsvd_types::wire::MAX_FETCH_BLOCKS + 10;
        let mut log = Log::genesis(&store);
        for i in 0..blocks {
            log = log.extend_empty(&store, ValidatorId::new(0), View::new(i + 1));
            // Grow knowledge one block at a time (the inline window).
            let mut ctx = ctx_at(0, &store);
            let kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
            // No instance takes a VOTE, so the range gate drops each one
            // unverified; a dropped message's window is still absorbed.
            let msg = SignedMessage::sign(
                &kp,
                ValidatorId::new(1),
                Payload::Vote { instance: InstanceId(i), log },
            );
            val.on_message(&msg, &mut ctx);
        }
        let kp = Keypair::from_seed(ValidatorId::new(1).key_seed());
        let req = SignedMessage::sign(
            &kp,
            ValidatorId::new(1),
            Payload::BlockRequest { tip: log.tip(), from_height: 1 },
        );
        let mut ctx = ctx_at(8, &store);
        val.on_message(&req, &mut ctx);
        match ctx.outbox() {
            [crate::Outgoing::Multicast(targets, m)] => {
                assert_eq!(targets, &vec![ValidatorId::new(1)]);
                match m.payload() {
                    Payload::BlockResponse { tip, from_height, count } => {
                        assert_eq!(*tip, log.tip());
                        assert_eq!(*count, tobsvd_types::wire::MAX_FETCH_BLOCKS);
                        assert_eq!(
                            *from_height,
                            blocks - tobsvd_types::wire::MAX_FETCH_BLOCKS + 1,
                            "capped response must cover the top of the range"
                        );
                    }
                    p => panic!("expected BlockResponse, got {p:?}"),
                }
            }
            other => panic!("expected one targeted response, got {other:?}"),
        }
    }

    #[test]
    fn fetch_requests_are_served_even_after_duplicate_sightings() {
        // Regression: retries are byte-identical re-signs of the
        // original request; gossip dedup must not swallow them. A peer
        // that could not serve the first copy (tip unknown) must serve
        // the identical retry once it learns the chain.
        let store = BlockStore::new();
        let cfg = TobConfig::new(3);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let log = Log::genesis(&store).extend_empty(&store, ValidatorId::new(1), View::new(1));
        let kp = Keypair::from_seed(ValidatorId::new(2).key_seed());
        let req = SignedMessage::sign(
            &kp,
            ValidatorId::new(2),
            Payload::BlockRequest { tip: log.tip(), from_height: 1 },
        );
        // First sighting: tip unknown, nothing served.
        let mut ctx = ctx_at(1, &store);
        val.on_message(&req, &mut ctx);
        assert!(ctx.outbox().is_empty(), "cannot serve an unknown tip");
        // The peer learns the chain: a VOTE is dropped unprocessed, but
        // its inline window, which carries the chain, is absorbed.
        let kp1 = Keypair::from_seed(ValidatorId::new(1).key_seed());
        let vote = SignedMessage::sign(
            &kp1,
            ValidatorId::new(1),
            Payload::Vote { instance: InstanceId(0), log },
        );
        let mut ctx = ctx_at(2, &store);
        val.on_message(&vote, &mut ctx);
        // The byte-identical retry must now be served.
        let mut ctx = ctx_at(3, &store);
        val.on_message(&req, &mut ctx);
        assert!(
            ctx.outbox().iter().any(|o| matches!(
                o,
                crate::Outgoing::Multicast(_, m)
                    if matches!(m.payload(), Payload::BlockResponse { .. })
            )),
            "retry swallowed: {:?}",
            ctx.outbox()
        );
    }

    #[test]
    fn forged_signature_never_seeds_the_verified_set() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        let genuine =
            SignedMessage::sign(&kp, sender, Payload::Log { instance: InstanceId(0), log: g });
        // Same (sender, payload) — hence the same id — but a signature
        // from the wrong key: the forgery an id-keyed cache must never
        // mistake for the real thing.
        let wrong = Keypair::from_seed(ValidatorId::new(2).key_seed());
        let forged =
            SignedMessage::from_parts(sender, *genuine.payload(), wrong.sign(b"forged"));
        assert_eq!(forged.id(), genuine.id(), "forgery shares the id by construction");

        // Forged copy first: dropped at verify, set not poisoned,
        // nothing processed.
        let mut ctx = ctx_at(3, &store);
        val.on_message(&forged, &mut ctx);
        assert_eq!(ctx.crypto_ops.sig_verifies, 1);
        assert_eq!(val.verified_ids(), 0, "failed verify must not seed the set");
        assert!(val.ga(View::ZERO).is_none(), "forged LOG must not reach the GA");

        // The genuine copy afterwards is NOT shadowed by the forgery: it
        // verifies, seeds the set, and is processed normally.
        val.on_message(&genuine, &mut ctx);
        assert_eq!(ctx.crypto_ops.sig_verifies, 2);
        assert_eq!(val.verified_ids(), 1);
        assert!(val.ga(View::ZERO).is_some(), "genuine LOG processed after the forgery");

        // A later copy (forged or not) of the verified id takes the skip
        // path and is deduplicated by gossip — no reprocessing.
        val.on_message(&forged, &mut ctx);
        assert_eq!(ctx.crypto_ops.sig_verify_skips, 1);
        assert_eq!(ctx.crypto_ops.sig_verifies, 2, "no third verification");
    }

    #[test]
    fn duplicate_copies_skip_crypto_but_process_once() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        let msg =
            SignedMessage::sign(&kp, sender, Payload::Log { instance: InstanceId(0), log: g });
        let mut ctx = ctx_at(3, &store);
        for _ in 0..3 {
            val.on_message(&msg, &mut ctx);
        }
        assert_eq!(ctx.crypto_ops.sig_verifies, 1, "one verify per unique message id");
        assert_eq!(ctx.crypto_ops.sig_verify_skips, 2, "every duplicate copy skips crypto");
        assert_eq!(val.unique_messages_seen(), 1, "gossip still dedups to one");
    }

    #[test]
    fn third_distinct_payload_is_verified_and_counted_but_never_processed_or_forwarded() {
        // §3.3: up to two different LOG messages per sender are
        // forwarded; a third is genuine (so it is verified and filed)
        // but reaches neither the GA nor the wire.
        let store = BlockStore::new();
        let cfg = TobConfig::new(4).with_certificates(false).with_recovery(true);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        let fork = |p: u32| g.extend_empty(&store, ValidatorId::new(p), View::ZERO);
        let mut forwards = Vec::new();
        let mut ctx = ctx_at(3, &store);
        for log in [g, fork(2), fork(3)] {
            let payload = Payload::Log { instance: InstanceId(0), log };
            val.on_message(&SignedMessage::sign(&kp, sender, payload), &mut ctx);
            let relayed = |o: &crate::Outgoing| matches!(o, crate::Outgoing::Forward(_));
            forwards.push(ctx.take_outbox().iter().filter(|o| relayed(o)).count());
        }
        assert_eq!(forwards, [1, 1, 0], "the third distinct LOG is not forwarded");
        assert_eq!((ctx.crypto_ops.sig_verifies, ctx.crypto_ops.sig_verify_skips), (3, 0));
        assert_eq!((val.unique_messages_seen(), val.verified_ids()), (3, 3));
        assert_eq!(val.window[&View::ZERO].archive.len(), 2, "only two were processed");
    }

    fn proposal(sender: ValidatorId, log: Log, vrf: VrfOutput, proof: VrfProof) -> SignedMessage {
        let payload = Payload::Proposal { view: View::ZERO, log, vrf, proof };
        SignedMessage::sign(&Keypair::from_seed(sender.key_seed()), sender, payload)
    }

    /// An output above every genuine one, with a proof that cannot verify.
    fn forged_top() -> (VrfOutput, VrfProof) {
        (VrfOutput(Digest::from_bytes([0xff; 32])), VrfProof(Digest::from_bytes([0xab; 32])))
    }

    #[test]
    fn equivocation_burst_costs_one_check_and_still_discards() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let (vrf, proof) = vrf_for(sender, View::ZERO);
        // Two *different* proposals (equivocation) carrying the same
        // genuine VRF pair.
        let mut ctx = ctx_at(3, &store);
        for tag in [ValidatorId::new(8), ValidatorId::new(9)] {
            let log = g.extend_empty(&store, tag, View::ZERO);
            val.on_message(&proposal(sender, log, vrf, proof), &mut ctx);
        }
        assert_eq!(ctx.crypto_ops.vrf_verifies, 0, "receipt checks nothing");
        // Both proposals are discarded from the vote, and the flush
        // relays both copies as evidence (never as a best-proposal
        // pick). Their shared VRF pair is checked once.
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 1);
        match ctx.outbox() {
            [crate::Outgoing::Forward(e1), crate::Outgoing::Forward(e2), crate::Outgoing::Broadcast(m)] =>
            {
                for evidence in [e1, e2] {
                    assert!(matches!(evidence.payload(), Payload::Proposal { .. }));
                    assert_eq!(evidence.sender(), sender, "evidence is the equivocator's copies");
                }
                assert_ne!(e1.id(), e2.id(), "both conflicting copies spread");
                let log = m.payload().log().expect("LOG carries a log");
                assert!(log.is_genesis(&store), "equivocating proposals must be discarded");
            }
            other => panic!("expected two evidence relays + vote, got {other:?}"),
        }
    }

    #[test]
    fn genuine_plus_forged_copy_with_another_log_is_not_equivocation() {
        // A proposal whose VRF proof is tampered carries no priority, so
        // a sender's genuine proposal plus a tampered copy with another
        // log is not equivocation: the genuine one is relayed and voted.
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let (vrf, proof) = vrf_for(sender, View::ZERO);
        let p1 = proposal(sender, g.extend_empty(&store, sender, View::ZERO), vrf, proof);
        let garbage = VrfProof(Digest::from_bytes([0xab; 32]));
        let p2 = proposal(sender, g.extend_empty(&store, ValidatorId::new(9), View::ZERO), vrf, garbage);
        let mut ctx = ctx_at(3, &store);
        val.on_message(&p1, &mut ctx);
        val.on_message(&p2, &mut ctx);
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 2, "two logs from one sender: both checked once");
        match ctx.outbox() {
            [crate::Outgoing::Forward(relay), crate::Outgoing::Broadcast(m)] => {
                assert_eq!(relay.id(), p1.id(), "only the genuine proposal is relayed");
                assert_eq!(m.payload().log(), p1.payload().log(), "p1 survives: no equivocation");
            }
            other => panic!("expected relay + vote, got {other:?}"),
        }
    }

    #[test]
    fn forged_top_claim_loses_and_a_second_vote_costs_nothing() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let (vrf, proof) = forged_top();
        let forger = ValidatorId::new(3);
        let mut ctx = ctx_at(3, &store);
        val.on_message(&proposal(forger, g.extend_empty(&store, forger, View::ZERO), vrf, proof), &mut ctx);
        for sender in [ValidatorId::new(1), ValidatorId::new(2)] {
            let (vrf, proof) = vrf_for(sender, View::ZERO);
            val.on_message(&proposal(sender, g.extend_empty(&store, sender, View::ZERO), vrf, proof), &mut ctx);
        }
        let winner = [ValidatorId::new(1), ValidatorId::new(2)]
            .into_iter()
            .max_by_key(|v| vrf_for(*v, View::ZERO).0)
            .unwrap();
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 2, "one check for the forger, one for the winner");
        let voted = ctx.outbox().iter().find_map(|o| match o {
            crate::Outgoing::Broadcast(m) => m.payload().log(),
            _ => None,
        });
        let proposer = voted.and_then(|log| store.get(log.tip())).and_then(|b| b.proposer());
        assert_eq!(proposer, Some(winner), "the best genuine proposal wins");
        // A second vote and flush in the view answer from the verdicts.
        let mut ctx = ctx_at(8, &store);
        val.vote(View::ZERO, &mut ctx);
        val.agg.as_mut().expect("certificate mode").flush(&mut val.window, &mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 0);
    }

    #[test]
    fn forged_claim_is_never_relayed_nor_served_from_the_archive() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4).with_recovery(true);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let (vrf, proof) = forged_top();
        let forger = ValidatorId::new(3);
        let forged = proposal(forger, g.extend_empty(&store, forger, View::ZERO), vrf, proof);
        let sender = ValidatorId::new(1);
        let (vrf, proof) = vrf_for(sender, View::ZERO);
        let genuine = proposal(sender, g.extend_empty(&store, sender, View::ZERO), vrf, proof);
        let mut ctx = ctx_at(3, &store);
        val.on_message(&forged, &mut ctx);
        val.on_message(&genuine, &mut ctx);
        // Certificate mode defers both; the flush relays only the genuine
        // one.
        assert!(ctx.outbox().is_empty());
        let mut ctx = ctx_at(8, &store);
        val.on_phase(&mut ctx);
        let relayed: Vec<_> = ctx
            .outbox()
            .iter()
            .filter_map(|o| match o {
                crate::Outgoing::Forward(m) => Some(m.id()),
                _ => None,
            })
            .collect();
        assert_eq!(relayed, vec![genuine.id()]);
        // A recovering peer gets the archived genuine proposal, never the
        // forged claim, and no claim is checked twice. (Our own vote was
        // never received back, so no vote is archived.)
        let peer = ValidatorId::new(2);
        let request = SignedMessage::sign(
            &Keypair::from_seed(peer.key_seed()),
            peer,
            Payload::Recovery { from_view: View::ZERO, log: g },
        );
        let mut ctx = ctx_at(9, &store);
        val.on_message(&request, &mut ctx);
        let served: Vec<_> = ctx
            .outbox()
            .iter()
            .filter_map(|o| match o {
                crate::Outgoing::ForwardTo(to, batch) => Some((*to, batch.as_slice())),
                _ => None,
            })
            .collect();
        let [(to, [sent])] = served.as_slice() else { panic!("one reply of one proposal: {served:?}") };
        let side = val.window[&View::ZERO].proposals.as_ref().expect("a proposal side");
        assert_eq!(*to, peer);
        assert_eq!(sent.id(), genuine.id());
        assert!(Arc::ptr_eq(sent, &side.archive[0]) && side.archive.len() == 1, "the forged claim is gone");
        assert_eq!(ctx.crypto_ops.vrf_verifies, 0, "served from the flush's verdicts");
    }

    #[test]
    fn a_recovery_serve_is_one_batch_of_the_archives_first_cap_handles() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4).with_recovery(true);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let peer = ValidatorId::new(1);
        let mut ctx = ctx_at(1, &store);
        val.serve_recovery(peer, View::ZERO, &mut ctx);
        assert!(ctx.outbox().is_empty(), "an empty archive emits nothing");

        // Votes over the cap across three views, archived with the views
        // interleaved and in no vote group (so none is covered): the
        // serve is in view order, then arrival order.
        let cap = SyncState::RECOVERY_RESPONSE_CAP;
        let per_view = cap / 2 + 100;
        let views = [View::new(2), View::ZERO, View::new(1)];
        for i in 0..per_view {
            let sender = ValidatorId::new(i as u32);
            let kp = KeyCache::keypair(sender.key_seed());
            for view in views {
                let payload = Payload::Log { instance: InstanceId::for_view(view), log: g };
                let vote = SignedMessage::sign(&kp, sender, payload);
                val.window.entry(view).or_default().archive.push(vote.into());
            }
        }
        let archived: Vec<_> =
            val.window.values().flat_map(|state| state.archive.iter().cloned()).collect();
        assert_eq!(archived.len(), 3 * per_view);
        assert!(archived.len() > cap);
        let mut ctx = ctx_at(1, &store);
        val.serve_recovery(peer, View::ZERO, &mut ctx);
        let [crate::Outgoing::ForwardTo(to, batch)] = ctx.outbox() else {
            panic!("one ForwardTo per serve, got {:?}", ctx.outbox())
        };
        assert_eq!(*to, peer);
        assert_eq!(batch.len(), cap);
        for (sent, kept) in batch.iter().zip(&archived) {
            assert!(Arc::ptr_eq(sent, kept), "a serve hands out the archive's own handles");
        }
        let order: Vec<_> = batch
            .iter()
            .map(|m| match m.payload() {
                Payload::Log { instance, .. } => (instance.view(), m.sender().index()),
                p => panic!("only LOGs were archived, got {p:?}"),
            })
            .collect();
        let expected: Vec<_> = (0..per_view)
            .map(|i| (View::ZERO, i))
            .chain((0..cap - per_view).map(|i| (View::new(1), i)))
            .collect();
        assert_eq!(order, expected, "view order, then arrival order, cut at the cap");

        // From a view past everything archived: nothing to send.
        let mut ctx = ctx_at(1, &store);
        val.serve_recovery(peer, View::new(3), &mut ctx);
        assert!(ctx.outbox().is_empty());
    }

    #[test]
    fn out_of_window_proposals_cost_no_vrf_check() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        let (vrf, proof) = vrf_for(sender, View::new(20));
        let msg = SignedMessage::sign(
            &kp,
            sender,
            Payload::Proposal { view: View::new(20), log: g, vrf, proof },
        );
        let mut ctx = ctx_at(3, &store); // current view 0: view 20 is far future
        val.on_message(&msg, &mut ctx);
        assert_eq!(ctx.crypto_ops.vrf_verifies, 0, "window check precedes the VRF check");
    }

    #[test]
    fn stale_and_far_future_instances_rejected() {
        let store = BlockStore::new();
        let cfg = TobConfig::new(4);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let sender = ValidatorId::new(1);
        let kp = Keypair::from_seed(sender.key_seed());
        // Current view at t = 10 views in: messages for view 20 rejected.
        let t = 10 * 4 * 8;
        let msg = SignedMessage::sign(
            &kp,
            sender,
            Payload::Log { instance: InstanceId(20), log: g },
        );
        let mut ctx = ctx_at(t, &store);
        val.on_message(&msg, &mut ctx);
        assert!(val.ga(View::new(20)).is_none());
        // Very old instance also rejected.
        let msg = SignedMessage::sign(
            &kp,
            sender,
            Payload::Log { instance: InstanceId(1), log: g },
        );
        let mut ctx = ctx_at(t, &store);
        val.on_message(&msg, &mut ctx);
        assert!(val.ga(View::new(1)).is_none());
    }

    #[test]
    fn views_at_the_top_of_the_range_are_dropped_without_overflow() {
        use tobsvd_crypto::AggregateSignature;
        use tobsvd_types::SignerSet;

        let store = BlockStore::new();
        let cfg = TobConfig::new(4).with_recovery(true);
        let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
        let g = Log::genesis(&store);
        let peer = ValidatorId::new(1);
        let kp = KeyCache::keypair(peer.key_seed());
        let agg = AggregateSignature::aggregate(&[&kp.sign(b"vote")]).expect("one signature");
        let mut signers = SignerSet::empty();
        signers.insert(peer);
        let mut ctx = ctx_at(3, &store);
        for view in [u64::MAX - 1, u64::MAX].map(View::new) {
            let instance = InstanceId::for_view(view);
            let (vrf, proof) = vrf_for(peer, view);
            for payload in [
                Payload::Log { instance, log: g },
                Payload::Certificate { instance, log: g, signers, agg },
                Payload::Proposal { view, log: g, vrf, proof },
            ] {
                val.on_message(&SignedMessage::sign(&kp, peer, payload), &mut ctx);
                assert!(val.window.is_empty(), "{view}: {payload:?} must be dropped");
            }
        }
        // The range gate drops all six before their signature check.
        let ops = ctx.crypto_ops;
        assert_eq!((ops.sig_verifies, ops.vrf_verifies, ops.agg_verifies), (0, 0, 0));
        assert_eq!(ops.dropped_out_of_range, 6);
        assert_eq!(val.unique_messages_seen(), 0);
    }

    /// A stale `LOG` whose window does not resolve costs nothing: the
    /// range gate drops it before its signature check, and nothing is
    /// parked or fetched for a message that would be dropped anyway.
    #[test]
    fn stale_traffic_with_an_unknown_base_is_neither_verified_nor_fetched() {
        let store = BlockStore::new();
        let mut val = Validator::new(ValidatorId::new(0), TobConfig::new(4), &store);
        let peer = ValidatorId::new(1);
        let proposer = ValidatorId::new(2);
        // A height-2 log whose base (height 1) the validator never
        // learned; the store holds both blocks, as a decoded frame does.
        let g = Log::genesis(&store);
        let base = g.extend_empty(&store, proposer, View::new(0));
        let log = base.extend_empty(&store, proposer, View::new(1));
        let stale = Payload::Log { instance: InstanceId::for_view(View::new(1)), log };
        let msg = SignedMessage::sign(&KeyCache::keypair(peer.key_seed()), peer, stale);
        // Tick 200 is view 6: view 1 left the live range long ago.
        let mut ctx = ctx_at(200, &store);
        assert_eq!(View::of_time(ctx.time, ctx.delta), View::new(6));
        val.on_message(&msg, &mut ctx);
        assert_eq!(ctx.crypto_ops.sig_verifies, 0, "no signature check");
        assert_eq!(ctx.crypto_ops.dropped_out_of_range, 1);
        assert!(ctx.outbox().is_empty(), "no block request, no forward");
        assert_eq!((val.sync().parked_total(), val.sync().requests_sent()), (0, 0), "nothing parked");
        assert!(!val.sync().knows(log.tip()));
    }

    /// The window of a dropped stale message is still absorbed, without
    /// a signature, and drains what it unblocks: here a live `LOG`
    /// parked on the very block the stale one carries.
    #[test]
    fn a_dropped_stale_message_still_unblocks_a_parked_one() {
        let store = BlockStore::new();
        let mut val = Validator::new(ValidatorId::new(0), TobConfig::new(4), &store);
        let (peer, proposer) = (ValidatorId::new(1), ValidatorId::new(2));
        let kp = KeyCache::keypair(peer.key_seed());
        let g = Log::genesis(&store);
        let base = g.extend_empty(&store, proposer, View::new(0));
        let log = base.extend_empty(&store, proposer, View::new(1));
        let mut ctx = ctx_at(200, &store);
        let live = Payload::Log { instance: InstanceId::for_view(View::new(6)), log };
        val.on_message(&SignedMessage::sign(&kp, peer, live), &mut ctx);
        assert_eq!((val.sync().pending_len(), ctx.crypto_ops.sig_verifies), (1, 1), "parked");
        assert!(val.ga(View::new(6)).is_none());
        // A stale LOG whose one-block window is the missing base.
        let stale = Payload::Log { instance: InstanceId::for_view(View::new(1)), log: base };
        val.on_message(&SignedMessage::sign(&kp, peer, stale), &mut ctx);
        assert_eq!(ctx.crypto_ops.dropped_out_of_range, 1);
        assert_eq!(ctx.crypto_ops.sig_verifies, 1, "the stale LOG is not verified");
        assert!(val.sync().knows(base.tip()) && val.sync().pending_len() == 0, "drained");
        assert!(val.ga(View::new(6)).is_some(), "the parked LOG reached GA_6");
    }

    /// Peers' traffic at tick `t`: a `LOG` for every instance of the
    /// live range and a proposal for every view of the proposal range.
    fn live_traffic(val: &mut Validator, t: u64, store: &BlockStore) {
        let mut ctx = ctx_at(t, store);
        let current = View::of_time(Time::new(t), Delta::new(8));
        let (live, proposals) = (current.live_range(), current.proposal_range());
        let g = Log::genesis(store);
        for peer in [1, 2, 3].map(ValidatorId::new) {
            let kp = KeyCache::keypair(peer.key_seed());
            for w in (live.start().number()..=live.end().number()).map(View::new) {
                let vote = Payload::Log { instance: InstanceId::for_view(w), log: g };
                val.on_message(&SignedMessage::sign(&kp, peer, vote), &mut ctx);
                if proposals.contains(&w) {
                    let (vrf, proof) = vrf_for(peer, w);
                    let log = g.extend_empty(store, peer, w);
                    let proposal = Payload::Proposal { view: w, log, vrf, proof };
                    val.on_message(&SignedMessage::sign(&kp, peer, proposal), &mut ctx);
                }
            }
        }
    }

    #[test]
    fn the_window_holds_the_live_range_and_a_sleepers_state_leaves_at_its_next_propose() {
        // Asleep from view 20's Propose boundary to view 25's Vote
        // boundary: no phase callbacks, no traffic.
        let asleep = 20 * 32..25 * 32 + 8;
        for recovery in [false, true] {
            let store = BlockStore::new();
            let cfg = TobConfig::new(4).with_recovery(recovery);
            let mut val = Validator::new(ValidatorId::new(0), cfg, &store);
            // The proposal range's three views, with or without the
            // archive: archived proposals leave with their side.
            let side_cap = 3;
            let (mut widest, mut most_sides) = (0, 0);
            for t in (0..48 * 32).step_by(8).filter(|t| !asleep.contains(t)) {
                // Deliveries at a boundary's tick precede its callback.
                live_traffic(&mut val, t, &store);
                if t % 56 == 16 {
                    val.note_late_boundary(Time::new(t));
                }
                val.on_phase(&mut ctx_at(t, &store));
                if t == asleep.end {
                    let mut stale = (17..=20).map(View::new);
                    assert!(stale.all(|w| val.window.contains_key(&w)), "kept until a Propose");
                }
                let (v, phase) = val.sched.phase_at(Time::new(t));
                if phase != ViewPhase::Propose {
                    continue;
                }
                let sides = val.window.values().filter(|state| state.proposals.is_some()).count();
                assert!(val.window.keys().all(|w| v.live_range().contains(w)), "{v}");
                assert!(val.window.len() as u64 <= View::LIVE_VIEWS && sides <= side_cap, "{v}");
                (widest, most_sides) = (widest.max(val.window.len()), most_sides.max(sides));
            }
            assert_eq!((widest, most_sides), (4, side_cap), "both bounds are reached");
        }
    }

    fn sign_as(from: u32, payload: Payload) -> SignedMessage {
        let v = ValidatorId::new(from);
        SignedMessage::sign(&KeyCache::keypair(v.key_seed()), v, payload)
    }

    /// A server (n = 10, so a quorum is 6 votes) at tick 96, the Propose
    /// boundary of view 3, before that boundary's callback runs. View 2
    /// holds a quorate group for `a` whose own certificate the flush at
    /// 80 sent, validator 3's second log `b` alone in a sub-quorum
    /// group, and two late votes after that flush. Validators 1 and 2
    /// proposed for views 1 to 4, and view 1's side is not retired yet.
    /// Returns the server and what it sent at the boundaries 80 and 88.
    fn scripted_server(store: &BlockStore, certificates: bool) -> (Validator, Vec<crate::Outgoing>) {
        let cfg = TobConfig::new(10).with_recovery(true).with_certificates(certificates);
        let mut val = Validator::new(ValidatorId::new(0), cfg, store);
        let g = Log::genesis(store);
        let fork = |proposer: u32| g.extend_empty(store, ValidatorId::new(proposer), View::new(1));
        let (a, b) = (fork(1), fork(2));
        let vote = |from: u32, log: Log| sign_as(from, Payload::Log { instance: InstanceId(2), log });
        let proposal = |from: u32, w: u64| {
            let (view, proposer) = (View::new(w), ValidatorId::new(from));
            let (vrf, proof) = vrf_for(proposer, view);
            sign_as(from, Payload::Proposal { view, log: g.extend_empty(store, proposer, view), vrf, proof })
        };
        let mut sent = Vec::new();
        for t in 70..=96 {
            let mut ctx = ctx_at(t, store);
            let arrivals: Vec<SignedMessage> = match t {
                70 => (1..=3).flat_map(|w| [proposal(1, w), proposal(2, w)]).collect(),
                73 => (1..=6).map(|from| vote(from, a)).collect(),
                75 => vec![vote(3, b)],
                83 => vec![vote(7, a)],
                90 => vec![vote(8, a)],
                96 => vec![proposal(1, 4), proposal(2, 4)],
                _ => Vec::new(),
            };
            for msg in &arrivals {
                val.on_message(msg, &mut ctx);
            }
            if t == 80 || t == 88 {
                val.on_phase(&mut ctx);
                sent.extend(ctx.take_outbox());
            }
        }
        (val, sent)
    }

    /// `peer`'s recovery request reaches `val` at tick 96: the reply.
    fn serve_at_96(val: &mut Validator, store: &BlockStore, peer: u32) -> Vec<Arc<Delivered>> {
        let request = Payload::Recovery { from_view: View::new(1), log: Log::genesis(store) };
        let mut ctx = ctx_at(96, store);
        val.on_message(&sign_as(peer, request), &mut ctx);
        // The request itself is gossiped on; the reply is the one
        // `ForwardTo`.
        match ctx.take_outbox().as_slice() {
            [crate::Outgoing::Forward(_), crate::Outgoing::ForwardTo(to, batch)]
                if *to == ValidatorId::new(peer) =>
            {
                batch.clone()
            }
            other => panic!("one reply per serve, got {other:?}"),
        }
    }

    #[test]
    fn a_serve_is_the_sent_certificates_then_the_uncovered_votes_then_the_in_range_proposals() {
        let store = BlockStore::new();
        let (mut val, sent) = scripted_server(&store, true);
        let batch = serve_at_96(&mut val, &store, 9);
        let w2 = &val.window[&View::new(2)];
        let [own] = w2.groups[0].sent() else { panic!("one certificate sent for `a`") };
        assert!(sent.iter().any(|o| matches!(o, crate::Outgoing::Broadcast(m) if *m == ***own)));
        assert!(matches!(own.payload(), Payload::Certificate { signers, .. } if signers.len() == 6));
        assert!(w2.groups[1].sent().is_empty(), "`b` never reached a quorum");
        // The archive is a1..a6, b3, a7, a8: the certificate covers a1..a6.
        let uncovered = &w2.archive[6..];
        let proposals = (2..=4).flat_map(|w| &val.window[&View::new(w)].proposals.as_ref().expect("a side").archive);
        let expected: Vec<_> = [own].into_iter().chain(uncovered).chain(proposals).collect();
        assert_eq!(batch.len(), expected.len(), "{batch:?}");
        for (got, want) in batch.iter().zip(expected) {
            assert!(Arc::ptr_eq(got, want), "every entry is a held handle: {got:?}");
        }
        let uncovered: Vec<_> = batch[1..4].iter().map(|m| m.sender().index()).collect();
        assert_eq!(uncovered, [3, 7, 8], "the equivocator's second log, then the late votes");
        assert!(val.window[&View::new(1)].proposals.is_some(), "view 1's side is held but not served");
    }

    #[test]
    fn every_served_proposal_reaches_the_requesters_tracker_at_every_arrival_tick() {
        for certificates in [true, false] {
            let store = BlockStore::new();
            let (mut val, _) = scripted_server(&store, certificates);
            let batch = serve_at_96(&mut val, &store, 9);
            let trimmed: Vec<_> = val.window[&View::new(1)].proposals.as_ref().expect("a side").archive.clone();
            let is_proposal = |m: &&Arc<Delivered>| matches!(m.payload(), Payload::Proposal { .. });
            assert_eq!(batch.iter().filter(is_proposal).count(), 6, "two per view, views 2 to 4");
            for arrive in 97..=104 {
                let cfg = TobConfig::new(10).with_recovery(true).with_certificates(certificates);
                let mut requester = Validator::new(ValidatorId::new(9), cfg, &store);
                let mut ctx = ctx_at(arrive, &store);
                for msg in batch.iter().chain(&trimmed) {
                    requester.on_message(msg, &mut ctx);
                }
                let mut reached = |msg: &SignedMessage| {
                    let Payload::Proposal { view, log, vrf, proof } = msg.payload() else { return true };
                    let side = requester.window.get_mut(view).and_then(|state| state.proposals.as_mut());
                    side.is_some_and(|side| side.tracker.verify(msg.sender(), log, vrf, proof, &mut ctx.crypto_ops))
                };
                assert!(batch.iter().all(|m| reached(m)), "arrival {arrive}: a served proposal was dropped");
                assert!(!trimmed.iter().any(|m| reached(m)), "arrival {arrive}: a trimmed one would be dropped");
            }
        }
    }
}
