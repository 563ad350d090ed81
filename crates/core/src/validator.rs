//! The TOB-SVD validator state machine (Figure 4).
//!
//! Receive pipeline (dedup-before-verify, the delta-sync resolution
//! gate), view phases and their GA instances, the per-phase
//! stabilization audit and decided-log persistence. *How* fresh votes,
//! certificates and proposals are relayed is not decided here: that is
//! the `Option<AggregationPlane>` of `aggregation.rs`, built once from
//! [`TobConfig::certificates`] — no other line reads the flag.

use std::collections::{BTreeMap, BTreeSet};

use tobsvd_crypto::{Digest, KeyCache, Keypair};
use tobsvd_ga::Ga3;
use tobsvd_sim::gossip::GossipState;
use tobsvd_sim::{garbage_bytes, Context, Node, StateFault};
use tobsvd_storage::{replay_into, BlockRecord, SharedDurable, Snapshot, WalError, WalRecord};
use tobsvd_types::{
    wire, BlockId, BlockStore, InstanceId, Log, Payload, SignedMessage, Time, ValidatorId, View,
};

use crate::aggregation::AggregationPlane;
use crate::config::TobConfig;
use crate::leader::{vrf_for, ProposalTracker};
use crate::schedule::{ViewSchedule, ViewPhase};
use crate::sync::{Resolution, SyncState};

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
    /// Live GA instances by view (`GA_v` spans views v and v+1).
    gas: BTreeMap<View, Ga3>,
    /// GA instances that were live at a phase boundary this validator
    /// reached late (see [`Validator::note_late_boundary`]): their
    /// grade-2 outputs are not decided. Pruned with `gas`.
    late_gas: BTreeSet<View>,
    /// Per-view proposal tracking with equivocation discarding; VRFs
    /// are verified on demand (see [`ProposalTracker`]).
    proposals: BTreeMap<View, ProposalTracker>,
    /// The dedup / authenticity gate: one table, one probe per delivery
    /// (see [`GossipState`]). Fetch-plane ids are deliberately *not*
    /// retained (point-to-point transport an adversary can mint without
    /// bound), so no Byzantine-floodable surface beyond verified
    /// protocol messages.
    gossip: GossipState,
    /// Highest decided log.
    decided: Log,
    /// Bounded archive of recent messages, served to recovering peers
    /// (§2 recovery protocol). Keyed by the view the message belongs to.
    archive: BTreeMap<View, ArchivedView>,
    /// Delta-sync state: block knowledge, bounded pending set, fetches.
    sync: SyncState,
    /// The relay strategy: the aggregation plane, or `None` for the
    /// paper's immediate per-receiver forward (no aggregation state).
    agg: Option<AggregationPlane>,
    /// Whether the node has started (first wake consumed).
    started: bool,
    /// Durable storage backend (WAL + snapshot checkpoints), when
    /// attached. Decisions are persisted; restart replays them back.
    durable: Option<SharedDurable>,
    /// Decided log length through which block contents and the head
    /// marker are durably synced.
    persisted_len: u64,
    /// Decided length at the last snapshot checkpoint.
    last_snapshot_len: u64,
    /// Durable operations that failed. Storage faults degrade
    /// durability (the suffix retries on the next decision), never
    /// safety or liveness — and never panic.
    wal_errors: u64,
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
            gas: BTreeMap::new(),
            late_gas: BTreeSet::new(),
            proposals: BTreeMap::new(),
            gossip: GossipState::new(),
            decided: Log::genesis(store),
            archive: BTreeMap::new(),
            sync: SyncState::new(store),
            agg: cfg.certificates.then(|| AggregationPlane::new(me, keypair, cfg.n)),
            started: false,
            durable: None,
            persisted_len: 1,
            last_snapshot_len: 1,
            wal_errors: 0,
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
        self.durable = Some(durable);
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
        let loaded = durable.lock().load();
        match loaded {
            Ok(recovered) => {
                let replayed = replay_into(store, &recovered);
                for id in &replayed.known {
                    val.sync.mark_own(*id);
                }
                if let Some(log) = Log::from_parts(store, replayed.decided_tip, replayed.decided_len)
                {
                    val.decided = log;
                    val.persisted_len = replayed.decided_len;
                }
                val.last_snapshot_len =
                    recovered.snapshot.as_ref().map_or(1, |s| s.len).max(1);
                val.wal_errors = val.wal_errors.saturating_add(replayed.skipped);
                val.recover_fetch = replayed.beyond.map(|(tip, _)| tip);
            }
            Err(_) => {
                // Unreadable durable state: start from genesis and let
                // the recovery + fetch planes rebuild, counting the loss.
                val.wal_errors = val.wal_errors.saturating_add(1);
            }
        }
        val.durable = Some(durable);
        val
    }

    /// The validator's identity.
    pub fn id(&self) -> tobsvd_types::ValidatorId {
        self.me
    }

    /// Durable operations that failed (storage degradation counter).
    pub fn wal_errors(&self) -> u64 {
        self.wal_errors
    }

    /// Decided log length through which durable persistence has synced.
    pub fn persisted_len(&self) -> u64 {
        self.persisted_len
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
        self.late_gas.extend(v.prev());
        self.late_gas.insert(v);
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

    /// Number of distinct protocol message ids that passed verification
    /// (fetch-plane ids are never retained).
    pub fn verified_ids(&self) -> usize {
        self.gossip.verified_count()
    }

    /// Whether `msg` has passed signature verification at this validator
    /// (layered protocols — e.g. the finality gadget — reuse the base
    /// validator's verification instead of re-checking signatures).
    pub fn is_verified(&self, msg: &SignedMessage) -> bool {
        self.gossip.is_verified(msg)
    }

    /// Number of distinct message ids the gossip layer has seen.
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
        self.gas.get(&v)
    }

    fn ensure_ga(&mut self, v: View) -> &mut Ga3 {
        let start = self.sched.ga_start(v);
        self.gas
            .entry(v)
            .or_insert_with(|| Ga3::new(InstanceId::for_view(v), start))
    }

    /// Grade-`g` output of `GA_{v−1}`, with the Figure 4 convention that
    /// `GA_{−1}` outputs the genesis log at every grade.
    fn prev_ga_output(&self, v: View, grade: u8, store: &BlockStore) -> Option<Log> {
        match v.prev() {
            None => Some(Log::genesis(store)),
            Some(prev) => {
                let ga = self.gas.get(&prev)?;
                if !ga.participated(grade) {
                    return None;
                }
                ga.output(grade)
            }
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
        txs.truncate(self.cfg.max_txs_per_block);
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
        let input = self
            .proposals
            .get_mut(&v)
            .and_then(|tr| tr.best_extending(&lock, &ctx.store, &mut ctx.crypto_ops))
            .map(|(_, log)| log)
            .unwrap_or(lock);
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
        if v.prev().is_some_and(|prev| self.late_gas.contains(&prev)) {
            self.decisions_withheld += 1;
            return;
        }
        self.decisions_made += 1;
        ctx.decide(d);
        if d.len() > self.decided.len() {
            self.decided = d;
            self.persist_decided(ctx);
        }
    }

    /// Persists the newly decided suffix: block contents for every
    /// height not yet durable, the decided head marker, then one fsync
    /// (one write+fsync per decision batch, not per record). On
    /// failure `persisted_len` stays put so the next decision retries
    /// the whole suffix — storage faults degrade durability, never
    /// safety, and never panic. A snapshot checkpoint of the full
    /// decided chain replaces the WAL every
    /// [`TobConfig::snapshot_every`] decided blocks.
    fn persist_decided(&mut self, ctx: &mut Context) {
        let Some(handle) = self.durable.clone() else {
            return;
        };
        let d = self.decided;
        if d.len() <= self.persisted_len {
            return;
        }
        let Some(suffix) = ctx.store.chain_range(d.tip(), self.persisted_len) else {
            self.wal_errors = self.wal_errors.saturating_add(1);
            return;
        };
        let mut durable = handle.lock();
        let store = &ctx.store;
        let mut write = || -> Result<(), WalError> {
            for id in &suffix {
                let Some(record) = block_record(store, *id) else {
                    continue; // genesis (or vanished): nothing to log
                };
                durable.append(&WalRecord::Block(record))?;
            }
            durable.append(&WalRecord::Decided { tip: d.tip(), len: d.len() })?;
            durable.sync()
        };
        if write().is_err() {
            self.wal_errors = self.wal_errors.saturating_add(1);
            return;
        }
        self.persisted_len = d.len();
        if self.cfg.snapshot_every == 0
            || d.len().saturating_sub(self.last_snapshot_len) < self.cfg.snapshot_every
        {
            return;
        }
        let Some(chain) = ctx.store.chain_range(d.tip(), 1) else {
            self.wal_errors = self.wal_errors.saturating_add(1);
            return;
        };
        let blocks: Vec<BlockRecord> =
            chain.iter().filter_map(|id| block_record(store, *id)).collect();
        let snapshot = Snapshot { tip: d.tip(), len: d.len(), blocks };
        match durable.install_snapshot(&snapshot) {
            Ok(()) => self.last_snapshot_len = d.len(),
            Err(_) => self.wal_errors = self.wal_errors.saturating_add(1),
        }
    }

    /// Self-stabilization: the cheap per-phase-boundary local audit
    /// (Lundström–Raynal–Schiller style). Checks structural invariants
    /// an in-memory corruption can break and, on violation, quarantines
    /// the bad fragment and re-arms the ordinary recovery machinery —
    /// never panics, never trusts the corrupt fragment.
    ///
    /// * **Counter monotonicity** — `last_snapshot_len ≤ persisted_len ≤
    ///   decided.len()`: an overshooting counter silently disables
    ///   persistence (`persist_decided` skips "already persisted"
    ///   suffixes), so it is clamped back to the decided log.
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
        let mut repairs = 0u64;
        let dlen = self.decided.len();
        if self.persisted_len > dlen {
            self.persisted_len = dlen;
            repairs += 1;
        }
        if self.last_snapshot_len > self.persisted_len {
            self.last_snapshot_len = self.persisted_len;
            repairs += 1;
        }
        let linked = ctx
            .store
            .height(self.decided.tip())
            .is_some_and(|h| h.saturating_add(1) == dlen);
        if !linked {
            self.decided = Log::genesis(&ctx.store);
            self.persisted_len = self.persisted_len.min(1);
            self.last_snapshot_len = self.last_snapshot_len.min(1);
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

    fn prune(&mut self, v: View) {
        // GA_w ends at t_{w+1} + 2Δ: anything older than v−2 is finished.
        self.gas.retain(|w, _| w.number() + 2 >= v.number());
        self.late_gas.retain(|w| w.number() + 2 >= v.number());
        // The archive follows the GA window: recovering validators can
        // only act on still-live instances anyway.
        self.archive.retain(|w, _| w.number() + 2 >= v.number());
        // Proposals for view w matter to the vote until t_w + Δ. The
        // archive (recovery only) serves them by their tracker's
        // verdicts, so there the trackers follow the archive.
        let proposal_views = if self.cfg.recovery { 2 } else { 1 };
        self.proposals.retain(|w, _| w.number() + proposal_views >= v.number());
        self.gossip.set_live(v.number());
        if let Some(plane) = self.agg.as_mut() {
            plane.prune(v);
        }
    }

    /// Records a fresh message in the recovery archive.
    fn archive_message(&mut self, msg: &SignedMessage) {
        if !self.cfg.recovery {
            return;
        }
        let view = match msg.payload() {
            Payload::Log { instance, .. } => instance.view(),
            Payload::Proposal { view, .. } => *view,
            _ => return,
        };
        self.archive.entry(view).or_default().msgs.push(*msg);
    }

    /// Serves a recovery request: re-send every archived message from
    /// `from_view` onward to the requester, up to the response cap.
    /// Proposals are archived as unverified claims, so a view's newly
    /// archived ones are vetted first through their tracker's verdicts
    /// (checked at most once per claim) and the forged ones dropped: a
    /// forged VRF is never relayed, and a repeated serve only copies.
    fn serve_recovery(&mut self, requester: tobsvd_types::ValidatorId, from_view: View, ctx: &mut Context) {
        if !self.cfg.recovery || requester == self.me {
            return;
        }
        let cap = SyncState::RECOVERY_RESPONSE_CAP;
        let mut served: Vec<&SignedMessage> = Vec::new();
        for (view, archived) in self.archive.range_mut(from_view..) {
            if served.len() >= cap {
                break;
            }
            if archived.vetted < archived.msgs.len() {
                let mut tracker = self.proposals.get_mut(view);
                let fresh = archived.msgs.split_off(archived.vetted);
                archived.msgs.extend(fresh.into_iter().filter(|msg| match msg.payload() {
                    Payload::Proposal { log, vrf, proof, .. } => tracker
                        .as_mut()
                        .is_some_and(|tr| tr.verify(msg.sender(), log, vrf, proof, &mut ctx.crypto_ops)),
                    _ => true,
                }));
                archived.vetted = archived.msgs.len();
            }
            served.extend(archived.msgs.iter().take(cap - served.len()));
        }
        for msg in served {
            ctx.forward_to(vec![requester], *msg);
        }
    }

    /// Broadcasts the §2 `RECOVERY` request at view `current`, asking
    /// for everything affecting still-live GA instances.
    fn broadcast_recovery(&mut self, current: View, ctx: &mut Context) {
        let from_view = View::new(current.number().saturating_sub(2));
        let payload = Payload::Recovery { from_view, log: self.decided };
        ctx.broadcast(SignedMessage::sign(&self.keypair, self.me, payload));
    }

    /// Issues a `BlockRequest` for the chain ending at `missing`:
    /// targeted at `target` for the first attempt, broadcast on retries
    /// (`target = None`) so any honest awake peer can answer.
    fn request_blocks(&mut self, missing: BlockId, target: Option<ValidatorId>, ctx: &mut Context) {
        let from_height = self.sync.fetch_start(missing, &ctx.store);
        let msg = SignedMessage::sign(
            &self.keypair,
            self.me,
            Payload::BlockRequest { tip: missing, from_height },
        );
        match target {
            Some(t) => ctx.multicast(vec![t], msg),
            None => ctx.broadcast(msg),
        }
    }

    /// Serves a fetch: responds with the requested chain range if we
    /// know (can vouch for) the tip. Responses are capped at
    /// [`wire::MAX_FETCH_BLOCKS`]; a longer gap is served lowest-first
    /// and the requester re-requests the rest once its knowledge grows.
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
        // (e.g. the session layer's full-resync retries) re-fetch the
        // same lowest range forever. The requester fetches the
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
                        self.request_blocks(anchor, Some(sender), ctx);
                        self.sync.note_requested(anchor, ctx.time);
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
    fn on_protocol_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        self.handle_or_park(msg, ctx);
        self.drain_pending(ctx);
    }

    fn handle_or_park(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        let Some(log) = msg.payload().log() else {
            return;
        };
        match self.sync.resolve(&log, &ctx.store) {
            Resolution::Resolved => self.process(msg, ctx),
            Resolution::Missing(missing) => {
                if self.sync.park(missing, *msg, ctx.time) {
                    self.request_blocks(missing, Some(msg.sender()), ctx);
                    self.sync.note_requested(missing, ctx.time);
                }
            }
        }
    }

    /// Replays parked messages whose gaps have closed, to a fixpoint
    /// (a replay may absorb a window that unblocks the next one; it may
    /// also re-park on a deeper gap, issuing the next fetch).
    fn drain_pending(&mut self, ctx: &mut Context) {
        while self.sync.has_resolvable() {
            for msg in self.sync.take_resolved() {
                self.handle_or_park(&msg, ctx);
            }
        }
    }
}

/// One view's recovery archive, in arrival order. The first `vetted`
/// messages have had their proposals' VRFs checked, forged ones removed.
#[derive(Default)]
struct ArchivedView {
    msgs: Vec<SignedMessage>,
    vetted: usize,
}

/// The durable [`BlockRecord`] for a stored block, `None` for genesis
/// (whose content is implicit) or an unknown id.
fn block_record(store: &BlockStore, id: BlockId) -> Option<BlockRecord> {
    let block = store.get(id)?;
    let proposer = block.proposer()?;
    Some(BlockRecord {
        parent: block.parent(),
        expected_id: block.id(),
        proposer,
        view: block.view(),
        txs: block.txs().to_vec(),
    })
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
        // §2: "upon waking up, a validator sends a RECOVERY message to
        // other validators".
        self.broadcast_recovery(View::of_time(ctx.time, ctx.delta), ctx);
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
                self.request_blocks(missing, None, ctx);
                self.sync.note_requested(missing, ctx.time);
            }
        }
        // Retry unanswered fetches first (as broadcasts, so any honest
        // awake peer can answer a request whose original target dropped
        // it, slept, or turned Byzantine).
        // Saturating: hostile checker scenarios drive Δ toward u64::MAX,
        // where `2 × Δ` wraps and every fetch would retry instantly.
        let retry_after = SyncState::RETRY_AFTER_DELTAS.saturating_mul(ctx.delta.ticks());
        for missing in self.sync.stale_requests(ctx.time, retry_after) {
            self.request_blocks(missing, None, ctx);
        }
        // Flush the aggregation plane: votes and certificates buffered
        // since the previous boundary go out now, as one quorum
        // certificate where a group is quorate.
        if let Some(plane) = self.agg.as_mut() {
            plane.flush(&mut self.proposals, ctx);
        }
        // Drive the ongoing GA instances: the TOB phase at this
        // boundary consumes outputs computed at this very time (Figure 3
        // arrows land on the phase they feed).
        let (time, delta) = (ctx.time, ctx.delta);
        for ga in self.gas.values_mut() {
            ga.on_phase(time, delta, &ctx.store);
        }
        match phase {
            ViewPhase::Propose => {
                self.prune(v);
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
            StateFault::CounterSkew { skew } => {
                self.persisted_len = self.persisted_len.saturating_add(skew);
                self.last_snapshot_len = self.last_snapshot_len.saturating_add(skew);
            }
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
                if let Some(handle) = self.durable.clone() {
                    handle.lock().corrupt_snapshot_bit(byte as usize, u32::from(bit));
                }
            }
            StateFault::WalBitFlip { byte, bit } => {
                if let Some(handle) = self.durable.clone() {
                    handle.lock().corrupt_wal_bit(byte as usize, u32::from(bit));
                }
            }
            StateFault::WalTear { bytes } => {
                if let Some(handle) = self.durable.clone() {
                    handle.lock().tear_wal_tail(bytes as usize);
                }
            }
        }
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        let Some(reception) = self.gossip.admit(msg, ctx) else {
            return; // forged signature
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
            ctx.forward(*msg);
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
    fn process(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        let current = View::of_time(ctx.time, ctx.delta);
        match msg.payload() {
            Payload::Log { instance, log } => {
                let w = instance.view();
                // Accept instances in the live window: the previous view's
                // GA is still running, the next view's cannot legitimately
                // have inputs yet but a Δ of clock skew is tolerated.
                if w.number() + 2 < current.number() || w.number() > current.number() + 1 {
                    return;
                }
                self.archive_message(msg);
                self.ensure_ga(w).on_log(msg.sender(), *log);
                if let Some(plane) = self.agg.as_mut() {
                    plane.note_vote(msg, *instance, *log, ctx);
                }
            }
            Payload::Certificate { instance, log, signers, agg } => {
                let w = instance.view();
                if w.number() + 2 < current.number() || w.number() > current.number() + 1 {
                    return;
                }
                // Certificates only exist under the aggregation plane;
                // per-vote mode has no door through which one could
                // reach the GA.
                let Some(plane) = self.agg.as_mut() else { return };
                for signer in plane.on_certificate(msg, *instance, *log, *signers, *agg, ctx) {
                    self.ensure_ga(w).on_log(signer, *log);
                }
            }
            Payload::Proposal { view, log, vrf, proof } => {
                // An out-of-window proposal is dropped before it touches
                // the per-view tracker, which only exists for live views.
                if view.number() + 1 < current.number() || view.number() > current.number() + 1 {
                    return;
                }
                // Recorded as an unverified claim: its VRF is checked
                // only where its priority is used — the vote, the
                // boundary relay, a recovery serve — so a forged VRF is
                // never picked or relayed, and the usual receipt costs
                // no crypto at all.
                let tracker =
                    self.proposals.entry(*view).or_insert_with(|| ProposalTracker::new(*view));
                if !tracker.record(msg.sender(), *log, *vrf, *proof) {
                    return;
                }
                self.archive_message(msg);
                if let Some(plane) = self.agg.as_mut() {
                    plane.note_proposal(*view, msg);
                }
            }
            Payload::Vote { .. } => {} // not part of TOB-SVD
            Payload::Recovery { from_view, .. } => {
                self.serve_recovery(msg.sender(), *from_view, ctx);
            }
            // Finality votes belong to the gadget layered on top
            // (tobsvd-finality); the base protocol ignores them.
            Payload::FinalityVote { .. } => {}
            // Handled one layer up, before the resolution gate.
            Payload::BlockRequest { .. } | Payload::BlockResponse { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::{VrfOutput, VrfProof};
    use tobsvd_sim::Mempool;
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
            [tobsvd_sim::Outgoing::Broadcast(m)] => *m,
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
            [tobsvd_sim::Outgoing::Forward(relay), tobsvd_sim::Outgoing::Broadcast(m)] => {
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
            [tobsvd_sim::Outgoing::Broadcast(m)] => {
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
        use tobsvd_storage::{shared, MemDurable};

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
            // Distinct instances: gossip allows only two distinct votes
            // per (sender, instance), and the resolution gate runs for
            // every fresh message regardless of the GA's view window.
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
            [tobsvd_sim::Outgoing::Multicast(targets, m)] => {
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
        // The peer learns the chain (a vote's inline window carries it).
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
                tobsvd_sim::Outgoing::Multicast(_, m)
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
            let relayed = |o: &tobsvd_sim::Outgoing| matches!(o, tobsvd_sim::Outgoing::Forward(_));
            forwards.push(ctx.take_outbox().iter().filter(|o| relayed(o)).count());
        }
        assert_eq!(forwards, [1, 1, 0], "the third distinct LOG is not forwarded");
        assert_eq!((ctx.crypto_ops.sig_verifies, ctx.crypto_ops.sig_verify_skips), (3, 0));
        assert_eq!((val.unique_messages_seen(), val.verified_ids()), (3, 3));
        assert_eq!(val.archive[&View::ZERO].msgs.len(), 2, "only two were processed");
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
            [tobsvd_sim::Outgoing::Forward(e1), tobsvd_sim::Outgoing::Forward(e2), tobsvd_sim::Outgoing::Broadcast(m)] =>
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
            [tobsvd_sim::Outgoing::Forward(relay), tobsvd_sim::Outgoing::Broadcast(m)] => {
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
            tobsvd_sim::Outgoing::Broadcast(m) => m.payload().log(),
            _ => None,
        });
        let proposer = voted.and_then(|log| store.get(log.tip())).and_then(|b| b.proposer());
        assert_eq!(proposer, Some(winner), "the best genuine proposal wins");
        // A second vote and flush in the view answer from the verdicts.
        let mut ctx = ctx_at(8, &store);
        val.vote(View::ZERO, &mut ctx);
        val.agg.as_mut().expect("certificate mode").flush(&mut val.proposals, &mut ctx);
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
                tobsvd_sim::Outgoing::Forward(m) => Some(m.id()),
                _ => None,
            })
            .collect();
        assert_eq!(relayed, vec![genuine.id()]);
        // A recovering peer gets the genuine proposal (and our vote),
        // never the forged claim, and no claim is checked twice.
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
                tobsvd_sim::Outgoing::ForwardTo(_, m) => Some(m.id()),
                _ => None,
            })
            .collect();
        assert!(served.contains(&genuine.id()) && !served.contains(&forged.id()), "{served:?}");
        assert_eq!(ctx.crypto_ops.vrf_verifies, 0, "served from the flush's verdicts");
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
}
