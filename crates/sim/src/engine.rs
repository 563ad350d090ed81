//! The discrete-event simulation engine.
//!
//! Within one executed tick, events are applied in a fixed order that
//! mirrors the paper's timing conventions:
//!
//! 1. **Wake** — the validator's buffered messages are delivered, then
//!    `on_wake` runs ("upon waking up, validators immediately receive all
//!    messages they should have received while asleep").
//! 2. **Sleep** — the validator stops participating.
//! 3. **Corrupt** — a scheduled corruption becomes effective (Δ after it
//!    was scheduled); the honest node is replaced by a Byzantine strategy
//!    and the validator becomes permanently awake.
//! 4. **Deliveries** — in schedule order. Processing deliveries *before*
//!    the phase timer makes "received by time t" inclusive, as the
//!    paper's quorum arguments require.
//! 5. **Crash** — the process dies, *after* seeing the tick's deliveries.
//! 6. **Restart** — a killed process comes back, rebuilt from durable
//!    state, and runs `on_wake`; the tick's deliveries were dropped.
//! 7. **StateFault** — a state corruption strikes (after a same-tick
//!    restart, so it hits the recovered incarnation).
//! 8. **Phase** — on Δ-multiples, every awake node's `on_phase` runs (in
//!    validator order).
//! 9. **Controller** — the adversary observes the tick's traffic and may
//!    issue commands.
//!
//! # Time advancement
//!
//! How the engine moves *between* ticks is governed by [`AdvanceMode`]:
//!
//! * [`AdvanceMode::EventDriven`] (the default) jumps simulation time
//!   directly to the next *interesting* tick —
//!   `min(next heap event, next delivery bucket, next phase boundary,
//!   next controller wakeup)` — and executes only those. A tick with no
//!   scheduled event or delivery, off the Δ-grid, and unclaimed by
//!   [`AdversaryController::next_wakeup`] can affect nothing (steps 1–7
//!   have nothing to drain, step 8 does not fire, and step 9 would see
//!   an empty [`TickView`]), so skipping it is unobservable. In
//!   particular, no RNG draws happen on skipped ticks (delays are drawn
//!   per delivery when a message is sent), so the event-driven engine
//!   produces **byte-identical transcripts** to the tick loop for the
//!   same seed and inputs.
//! * [`AdvanceMode::TickLoop`] executes every tick in `[0, t_end]` —
//!   the original reference semantics, kept as the oracle for the
//!   differential determinism suite and the speedup benchmarks. It
//!   shares `step_tick` with the event-driven mode, so it is the oracle
//!   for time advancement and for nothing else.
//!
//! [`Metrics::executed_ticks`] counts the ticks actually executed; in
//! sparse executions (long horizons, large Δ, quiet controllers) it is
//! orders of magnitude below [`Metrics::ticks`], which is where the
//! event-driven engine's speedup comes from.
//!
//! # Delivery order
//!
//! Deliveries are nearly all events, so they bypass the heap: each tick
//! has a bucket that copies are appended to when the message is sent.
//! Appends happen in the order the heap's `seq` counter used to number
//! them, so a bucket read front to back *is* the `(time, Deliver, seq)`
//! order — the **event order** below.
//!
//! Step 4 does not call the nodes in event order. A broadcast is n
//! consecutive events for n different recipients, and calling them
//! round-robin lands every call on a validator whose state left the
//! cache n − 1 calls ago (at n = 256, half of `on_message`'s time).
//! The bucket is drained **recipient by recipient** instead: one pass
//! in event order does the byte accounting and settles each delivery's
//! fate (received, buffered, dropped) as a per-event loop would; a
//! stable counting sort groups the received ones by recipient; each
//! recipient's node is checked out once and gets its messages in their
//! original relative order; and what those calls emitted is applied
//! afterwards **in event order**. The regrouping is unobservable:
//!
//! * *Nodes cannot tell.* A node sees only its own receptions, in the
//!   same relative order. What a call emits lands at `now + delay`,
//!   `delay ≥ 1`, never in the bucket being drained, and slot state
//!   (awake, crashed, Byzantine) changes only in the other steps. Nodes
//!   share the content-addressed [`BlockStore`], where insertion order
//!   cannot change what an id resolves to, and the [`Mempool`], which
//!   `on_message` does not write and the engine prunes only when it
//!   applies a decision.
//! * *The engine replays.* Everything order-sensitive on its side —
//!   which bucket a copy joins and where, the delivery filter, the
//!   delay policy's RNG draws, the controller's [`TickView`], decisions
//!   reaching observer, invariants and mempool prune — happens while
//!   applying effects, in event order whichever order the calls ran
//!   in. The per-call crypto counts are sums.
//!
//! A wake-up's buffered messages are one recipient's run through the
//! same helper. `tests/transcript_golden.rs` pins transcripts recorded
//! from the per-event engine.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tobsvd_types::{
    wire, BlockStore, Log, Payload, SignedMessage, Time, ValidatorId,
};

use crate::config::SimConfig;
use crate::controller::{AdversaryCommand, AdversaryController, NullController, TickView};
use crate::fault::StateFault;
use crate::invariant::{DecisionEvent, Invariant, InvariantViolation};
use crate::mempool::{AdmissionStats, Mempool};
use crate::metrics::{MessageKind, Metrics};
use crate::network::{DelayPolicy, DeliveryFilter, UniformDelay};
use crate::node::{Context, IdleNode, Node, Outgoing};
use crate::observer::{ConfirmedTx, DecisionObserver, DecisionRecord, SafetyViolation};
use crate::schedule::{CorruptionSchedule, ParticipationSchedule};

/// Factory that produces the Byzantine replacement node when a validator
/// is corrupted mid-run.
pub type ByzantineFactory = Box<dyn FnMut(ValidatorId, Time) -> Box<dyn Node> + Send>;

/// Factory that rebuilds a validator's node after a kill/restart fault.
/// Unlike a wake-up, a crash destroys all volatile state: the factory is
/// expected to reconstruct the node from durable storage (or from
/// nothing, for protocols without a storage plane).
pub type RestartFactory = Box<dyn FnMut(ValidatorId, Time) -> Box<dyn Node> + Send>;

/// How [`Simulation::run_until`] advances time between ticks.
///
/// Both modes execute the same ticks' contents in the same order and are
/// guaranteed to produce byte-identical transcripts; they differ only in
/// whether provably-inert ticks are visited at all (see the module doc).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdvanceMode {
    /// Jump straight to the next heap event, delivery bucket, phase
    /// boundary, or controller wakeup. O(events + phases) per run.
    #[default]
    EventDriven,
    /// Visit every tick of the horizon. O(horizon) per run; the
    /// reference semantics used as the differential-testing oracle.
    TickLoop,
}

/// Where the tick's delivery bucket sits in the within-tick order:
/// heap events ranked below it run before the deliveries, the rest after.
const DELIVER_RANK: u8 = 3;

/// The rare events, which stay in the heap (deliveries have their own
/// per-tick [`Bucket`]).
#[derive(Clone, Copy)]
enum EventKind {
    Wake,
    Sleep,
    Corrupt,
    /// Kill fault: the process dies at this tick. Deliveries scheduled
    /// for the same tick land first (the dying process saw them, never
    /// durably), matching the ordering of the other state transitions.
    Crash,
    /// The killed process comes back, rebuilt by the restart factory
    /// from durable state only.
    Restart,
    /// State corruption: the [`crate::StateFault`] strikes the target's
    /// in-memory (or durable-image) state. Ordered after Restart so a
    /// same-tick corruption hits the *recovered* incarnation — the
    /// worst case for the stabilization layer.
    StateFault(StateFault),
}

impl EventKind {
    /// Position in the within-tick order (see the module doc).
    fn rank(self) -> u8 {
        match self {
            EventKind::Wake => 0,
            EventKind::Sleep => 1,
            EventKind::Corrupt => 2,
            EventKind::Crash => DELIVER_RANK + 1,
            EventKind::Restart => DELIVER_RANK + 2,
            EventKind::StateFault(_) => DELIVER_RANK + 3,
        }
    }
}

/// One broadcast's shared delivery payload: the `Arc`'d message plus
/// its byte accounting, computed once at send time (both lengths are
/// invariant per message — blocks are immutable once stored) instead of
/// re-derived for each of the n per-recipient deliveries.
#[derive(Clone)]
struct Delivery {
    msg: Arc<SignedMessage>,
    /// Exact wire encoding length under the delta-sync codec.
    wire_len: u64,
    /// Legacy full-chain accounting for the same message.
    inline_len: u64,
}

struct Event {
    time: Time,
    kind: EventKind,
    seq: u64,
    target: ValidatorId,
}

impl Event {
    fn key(&self) -> (Time, u8, u64) {
        (self.time, self.kind.rank(), self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The deliveries scheduled for one tick, in scheduling order.
#[derive(Default)]
struct Bucket {
    /// One entry per broadcast with a copy landing on this tick (the
    /// copies of one broadcast are scheduled back to back, so a new
    /// entry is needed only when the message changes).
    shares: Vec<Delivery>,
    /// `(recipient, index into shares)` per delivery. Eight bytes: the
    /// per-vote flood schedules n³ copies onto one tick.
    entries: Vec<(u32, u32)>,
}

/// What one `on_message` call emitted, set aside until the whole run of
/// calls is over and applied in `tag` order.
struct Effect {
    /// The call's position in event order.
    tag: u32,
    from: ValidatorId,
    outbox: Vec<Outgoing>,
    decisions: Vec<Log>,
}

struct Slot {
    node: Box<dyn Node>,
    awake: bool,
    byzantine: bool,
    /// Killed and not yet restarted: volatile state (node, buffer) is
    /// gone and deliveries are dropped regardless of the sleep mode.
    crashed: bool,
    /// Whether the builder installed this slot's Byzantine node directly
    /// (in which case corruption events never swap it for the factory's).
    explicit_byzantine: bool,
    buffer: Vec<Arc<SignedMessage>>,
    /// (time, awake?) transition log for post-hoc compliance checking.
    transitions: Vec<(Time, bool)>,
}

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    cfg: SimConfig,
    store: BlockStore,
    mempool: Mempool,
    nodes: Vec<Option<Box<dyn Node>>>,
    byz_at_start: Vec<bool>,
    participation: ParticipationSchedule,
    corruption: CorruptionSchedule,
    delay: Box<dyn DelayPolicy>,
    filter: Option<Box<dyn DeliveryFilter>>,
    controller: Box<dyn AdversaryController>,
    byz_factory: ByzantineFactory,
    restart_factory: RestartFactory,
    crashes: Vec<(ValidatorId, Time, Time)>,
    state_faults: Vec<(ValidatorId, Time, StateFault)>,
    drop_while_asleep: bool,
    advance: AdvanceMode,
    invariants: Vec<Box<dyn Invariant>>,
}

impl SimulationBuilder {
    /// Starts building a simulation; the shared [`BlockStore`] and
    /// [`Mempool`] are created here so nodes can be constructed against
    /// them before being added.
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.n;
        SimulationBuilder {
            participation: ParticipationSchedule::always_awake(n),
            corruption: CorruptionSchedule::none(),
            delay: Box::new(UniformDelay),
            filter: None,
            controller: Box::new(NullController),
            byz_factory: Box::new(|_, _| Box::new(IdleNode)),
            restart_factory: Box::new(|_, _| Box::new(IdleNode)),
            crashes: Vec::new(),
            state_faults: Vec::new(),
            store: BlockStore::new(),
            mempool: Mempool::new(),
            nodes: (0..n).map(|_| None).collect(),
            byz_at_start: vec![false; n],
            drop_while_asleep: false,
            advance: AdvanceMode::default(),
            invariants: Vec::new(),
            cfg,
        }
    }

    /// Installs a run-time [`Invariant`], checked after every decision
    /// event (and once more at [`Simulation::check_end_invariants`]).
    /// Violations are recorded, not panicked on, so model checkers can
    /// collect every failure of a schedule.
    pub fn invariant(mut self, inv: Box<dyn Invariant>) -> Self {
        self.invariants.push(inv);
        self
    }

    /// Selects the time-advancement strategy (event-driven by default).
    pub fn advance_mode(mut self, mode: AdvanceMode) -> Self {
        self.advance = mode;
        self
    }

    /// Switches the engine to the *practical* sleep semantics of §2:
    /// messages sent to asleep validators are dropped rather than
    /// magically buffered. Waking validators must use the recovery
    /// protocol to catch up.
    pub fn drop_while_asleep(mut self, drop: bool) -> Self {
        self.drop_while_asleep = drop;
        self
    }

    /// The shared block store (for constructing node initial state).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Replaces the shared block store (e.g. when node state was built
    /// against an externally-created store). Call before installing
    /// nodes that capture the store.
    pub fn with_store(mut self, store: BlockStore) -> Self {
        self.store = store;
        self
    }

    /// Replaces the shared mempool.
    pub fn with_mempool(mut self, mempool: Mempool) -> Self {
        self.mempool = mempool;
        self
    }

    /// The shared mempool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Installs an honest node for validator `v`.
    pub fn node(mut self, v: ValidatorId, node: Box<dyn Node>) -> Self {
        self.nodes[v.index()] = Some(node);
        self
    }

    /// Installs a Byzantine-from-genesis node for validator `v`.
    pub fn byzantine_node(mut self, v: ValidatorId, node: Box<dyn Node>) -> Self {
        self.nodes[v.index()] = Some(node);
        self.byz_at_start[v.index()] = true;
        self
    }

    /// Sets the participation (sleep/wake) schedule.
    pub fn participation(mut self, p: ParticipationSchedule) -> Self {
        assert_eq!(p.n(), self.cfg.n, "schedule size must match n");
        self.participation = p;
        self
    }

    /// Sets pre-scheduled corruptions (mid-run node replacement uses the
    /// Byzantine factory).
    pub fn corruption(mut self, c: CorruptionSchedule) -> Self {
        self.corruption = c;
        self
    }

    /// Sets the network delay policy.
    pub fn delay(mut self, d: Box<dyn DelayPolicy>) -> Self {
        self.delay = d;
        self
    }

    /// Installs a per-copy [`DeliveryFilter`] (lossy-network adversary;
    /// none by default). Suppressed copies count in `Metrics::filtered`
    /// and consume no RNG draw.
    pub fn delivery_filter(mut self, f: Box<dyn DeliveryFilter>) -> Self {
        self.filter = Some(f);
        self
    }

    /// Sets the live adversary controller.
    pub fn controller(mut self, c: Box<dyn AdversaryController>) -> Self {
        self.controller = c;
        self
    }

    /// Sets the factory building Byzantine replacements at corruption
    /// time.
    pub fn byzantine_factory(mut self, f: ByzantineFactory) -> Self {
        self.byz_factory = f;
        self
    }

    /// Schedules kill/restart faults: each `(v, at, restart_at)` kills
    /// validator `v` at `at` (volatile state destroyed, deliveries
    /// dropped while down) and restarts it at `restart_at` via the
    /// [`SimulationBuilder::restart_factory`].
    ///
    /// # Panics
    ///
    /// Panics if a fault's restart time is not after its kill time.
    pub fn crashes(mut self, crashes: Vec<(ValidatorId, Time, Time)>) -> Self {
        for (v, at, restart_at) in &crashes {
            assert!(restart_at > at, "{v}: restart {restart_at} must follow crash {at}");
        }
        self.crashes = crashes;
        self
    }

    /// Sets the factory rebuilding a node after a kill/restart fault
    /// ([`IdleNode`] by default — a crash with no storage plane loses
    /// the validator for the rest of the run).
    pub fn restart_factory(mut self, f: RestartFactory) -> Self {
        self.restart_factory = f;
        self
    }

    /// Schedules state-corruption faults: each `(v, at, fault)` applies
    /// `fault` to validator `v`'s state at tick `at` (via
    /// [`Node::on_state_fault`]). Corruption does not wait for a
    /// wake-up — bit rot strikes sleeping processes too — but a crashed
    /// process has no state to corrupt, so faults landing while `v` is
    /// down are dropped.
    pub fn state_faults(mut self, faults: Vec<(ValidatorId, Time, StateFault)>) -> Self {
        self.state_faults = faults;
        self
    }

    /// Finalizes the simulation.
    ///
    /// # Panics
    ///
    /// Panics if any validator slot was left without a node.
    pub fn build(self) -> Simulation {
        let n = self.cfg.n;
        let mut slots = Vec::with_capacity(n);
        for (i, node) in self.nodes.into_iter().enumerate() {
            let node = node.unwrap_or_else(|| panic!("no node installed for validator v{i}"));
            slots.push(Slot {
                node,
                awake: false,
                byzantine: false,
                crashed: false,
                explicit_byzantine: self.byz_at_start[i],
                buffer: Vec::new(),
                transitions: Vec::new(),
            });
        }
        // Byzantine-from-genesis validators enter the corruption schedule
        // with effective time 0 so compliance accounting sees them.
        let mut corruption = CorruptionSchedule::from_genesis(
            self.byz_at_start
                .iter()
                .enumerate()
                .filter(|(_, b)| **b)
                .map(|(i, _)| ValidatorId::new(i as u32)),
        );
        for (v, t) in self.corruption.entries() {
            corruption.insert_effective(*v, *t);
        }

        let mut sim = Simulation {
            rng: StdRng::seed_from_u64(self.cfg.seed),
            observer: DecisionObserver::new(self.store.clone()),
            metrics: Metrics::new(),
            time: Time::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            deliveries: BTreeMap::new(),
            spare_buckets: Vec::new(),
            group_ends: Vec::new(),
            group_order: Vec::new(),
            effects: Vec::new(),
            slots,
            sent_this_tick: Vec::new(),
            target_marks: vec![false; self.cfg.n],
            drop_while_asleep: self.drop_while_asleep,
            advance: self.advance,
            invariants: self.invariants,
            invariant_violations: Vec::new(),
            end_violations: Vec::new(),
            cfg: self.cfg,
            store: self.store,
            mempool: self.mempool,
            participation: self.participation,
            corruption,
            delay: self.delay,
            filter: self.filter,
            controller: self.controller,
            byz_factory: self.byz_factory,
            restart_factory: self.restart_factory,
            crashes: self.crashes,
            state_faults: self.state_faults,
        };
        sim.schedule_initial_events();
        sim
    }
}

/// The discrete-event sleepy-model simulation.
pub struct Simulation {
    cfg: SimConfig,
    store: BlockStore,
    mempool: Mempool,
    time: Time,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    /// Pending deliveries, one bucket per tick (a map, not a ring: the
    /// checker's hostile scenarios drive Δ toward `u64::MAX`).
    deliveries: BTreeMap<Time, Bucket>,
    /// Drained buckets, kept for their capacity.
    spare_buckets: Vec<Bucket>,
    /// Scratch of [`Simulation::drain_bucket`]'s counting sort: per
    /// validator, where its group ends in `group_order`.
    group_ends: Vec<u32>,
    /// Scratch: bucket entry indices grouped by recipient, each group in
    /// event order.
    group_order: Vec<u32>,
    /// Scratch: effects of the run of `on_message` calls in progress.
    effects: Vec<Effect>,
    slots: Vec<Slot>,
    participation: ParticipationSchedule,
    corruption: CorruptionSchedule,
    delay: Box<dyn DelayPolicy>,
    filter: Option<Box<dyn DeliveryFilter>>,
    controller: Box<dyn AdversaryController>,
    byz_factory: ByzantineFactory,
    restart_factory: RestartFactory,
    /// Scheduled kill/restart faults, `(validator, at, restart_at)`.
    crashes: Vec<(ValidatorId, Time, Time)>,
    /// Scheduled state corruptions, `(validator, at, fault)`.
    state_faults: Vec<(ValidatorId, Time, StateFault)>,
    metrics: Metrics,
    observer: DecisionObserver,
    rng: StdRng,
    sent_this_tick: Vec<Arc<SignedMessage>>,
    /// Scratch for [`Simulation::deliver_to_each`]: one mark per
    /// validator, all `false` between calls.
    target_marks: Vec<bool>,
    /// When set, messages delivered to asleep validators are dropped
    /// instead of buffered (the §2 practical setting).
    drop_while_asleep: bool,
    /// Time-advancement strategy (see [`AdvanceMode`]).
    advance: AdvanceMode,
    /// Installed run-time invariants, checked after every decision.
    invariants: Vec<Box<dyn Invariant>>,
    /// Violations from per-decision checks (accumulated monotonically).
    invariant_violations: Vec<InvariantViolation>,
    /// Violations from the latest end-of-run evaluation (recomputed on
    /// every [`Simulation::check_end_invariants`] call, so a mid-run
    /// snapshot never pollutes the final report).
    end_violations: Vec<InvariantViolation>,
}

impl Simulation {
    /// Starts a builder.
    pub fn builder(cfg: SimConfig) -> SimulationBuilder {
        SimulationBuilder::new(cfg)
    }

    fn schedule_initial_events(&mut self) {
        for v in ValidatorId::all(self.cfg.n) {
            // Byzantine-from-genesis validators are always awake.
            if self.corruption.is_byzantine(v, Time::ZERO) {
                self.push_event(Time::ZERO, EventKind::Corrupt, v);
                self.push_event(Time::ZERO, EventKind::Wake, v);
                continue;
            }
            for (t, wake) in self.participation.transitions(v) {
                let kind = if wake { EventKind::Wake } else { EventKind::Sleep };
                self.push_event(t, kind, v);
            }
            if let Some(eff) = self.corruption.effective_time(v) {
                self.push_event(eff, EventKind::Corrupt, v);
            }
        }
        let faults = std::mem::take(&mut self.crashes);
        for (v, at, restart_at) in &faults {
            self.push_event(*at, EventKind::Crash, *v);
            self.push_event(*restart_at, EventKind::Restart, *v);
        }
        self.crashes = faults;
        let corruptions = std::mem::take(&mut self.state_faults);
        for (v, at, fault) in &corruptions {
            self.push_event(*at, EventKind::StateFault(*fault), *v);
        }
        self.state_faults = corruptions;
    }

    fn push_event(&mut self, time: Time, kind: EventKind, target: ValidatorId) {
        self.seq += 1;
        self.events.push(Reverse(Event { time, kind, seq: self.seq, target }));
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// The shared block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The shared mempool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Immutable access to a node (downcast via [`Node::as_any`]).
    pub fn node(&self, v: ValidatorId) -> &dyn Node {
        self.slots[v.index()].node.as_ref()
    }

    /// Whether `v` is currently Byzantine.
    pub fn is_byzantine(&self, v: ValidatorId) -> bool {
        self.slots[v.index()].byzantine
    }

    /// Whether `v` is currently awake.
    pub fn is_awake(&self, v: ValidatorId) -> bool {
        self.slots[v.index()].awake
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The decision observer.
    pub fn observer(&self) -> &DecisionObserver {
        &self.observer
    }

    /// The (possibly controller-extended) corruption schedule.
    pub fn corruption(&self) -> &CorruptionSchedule {
        &self.corruption
    }

    /// Invariant violations as of now: every per-decision violation,
    /// followed by the latest end-of-run evaluation's.
    pub fn invariant_violations(&self) -> Vec<InvariantViolation> {
        let mut all = self.invariant_violations.clone();
        all.extend(self.end_violations.iter().cloned());
        all
    }

    /// Runs every installed invariant's [`Invariant::at_end`] check
    /// against the current state, *replacing* the previous end-of-run
    /// evaluation. Safe to call at any time (every [`Simulation::report`]
    /// does): an early snapshot's findings are recomputed — not kept —
    /// once the run has actually advanced.
    pub fn check_end_invariants(&mut self) {
        self.end_violations.clear();
        let now = self.time;
        for inv in &mut self.invariants {
            if let Err(detail) = inv.at_end(&self.observer, &self.store, now) {
                self.end_violations.push(InvariantViolation {
                    invariant: inv.name(),
                    at: now,
                    detail,
                });
            }
        }
    }

    /// Runs the simulation up to and including tick `t_end`.
    ///
    /// In [`AdvanceMode::EventDriven`] (the default) time jumps straight
    /// to each next interesting tick; in [`AdvanceMode::TickLoop`] every
    /// tick is visited. Both end with identical state (see the module
    /// doc's determinism argument) and `now() == t_end + 1` — except at
    /// `t_end == u64::MAX`, where the saturating clock cannot step past
    /// the last tick: the run ends once that tick has executed, with
    /// `now() == t_end`.
    pub fn run_until(&mut self, t_end: Time) {
        while self.time <= t_end {
            if self.advance == AdvanceMode::EventDriven {
                let next = self.next_interesting_tick();
                if next > t_end {
                    self.time = t_end + 1;
                    break;
                }
                self.time = next;
            }
            let stepped = self.time;
            self.step_tick();
            if self.time == stepped {
                break; // the clock saturated: `stepped` was the last tick there is
            }
        }
        self.metrics.ticks = self.time.ticks();
    }

    /// The earliest tick at or after `self.time` where anything can
    /// happen: a scheduled heap event, a delivery bucket, a Δ phase
    /// boundary, or a controller-requested wakeup.
    fn next_interesting_tick(&mut self) -> Time {
        let now = self.time;
        let delta = self.cfg.delta.ticks();
        // Next phase boundary at or after `now`. Saturating: with a
        // sentinel-sized horizon the rounded-up boundary may exceed
        // u64::MAX, which must read as "past t_end", not wrap backwards.
        let mut next = Time::new(now.ticks().div_ceil(delta).saturating_mul(delta));
        if let Some(Reverse(ev)) = self.events.peek() {
            debug_assert!(ev.time >= now, "stale event below current time");
            next = next.min(ev.time.max(now));
        }
        if let Some((&at, _)) = self.deliveries.first_key_value() {
            debug_assert!(at >= now, "stale delivery bucket below current time");
            next = next.min(at.max(now));
        }
        if let Some(wakeup) = self.controller.next_wakeup(now) {
            next = next.min(wakeup.max(now));
        }
        next
    }

    /// Processes one tick.
    fn step_tick(&mut self) {
        let now = self.time;
        self.metrics.executed_ticks += 1;
        self.sent_this_tick.clear();

        // 1–3, 4, 5–7: the heap events ranked before the deliveries,
        // the tick's bucket, the heap events ranked after.
        self.drain_heap(DELIVER_RANK);
        if let Some(mut bucket) = self.deliveries.remove(&now) {
            self.drain_bucket(&bucket);
            bucket.shares.clear();
            bucket.entries.clear();
            self.spare_buckets.push(bucket);
        }
        self.drain_heap(u8::MAX);

        // 8: phase boundary.
        if now.is_phase_boundary(self.cfg.delta) {
            for i in 0..self.slots.len() {
                if self.slots[i].awake {
                    self.call_node(i, |node, ctx| node.on_phase(ctx));
                }
            }
        }

        // 9: adversary controller.
        let commands = {
            let view = TickView { time: now, sent: &self.sent_this_tick };
            self.controller.on_tick(&view)
        };
        for cmd in commands {
            self.apply_command(cmd);
        }

        self.time += 1;
    }

    /// Applies this tick's heap events ranked below `rank`, in
    /// `(rank, seq)` order — the heap ordering guarantees this.
    fn drain_heap(&mut self, rank: u8) {
        while let Some(Reverse(ev)) = self.events.peek() {
            debug_assert!(ev.time >= self.time, "event in the past");
            if ev.time > self.time || ev.kind.rank() >= rank {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            self.apply_event(ev);
        }
    }

    fn apply_event(&mut self, ev: Event) {
        let idx = ev.target.index();
        match ev.kind {
            EventKind::Wake => {
                // A crashed process cannot wake: only a Restart (which
                // rebuilds it from durable state) brings it back.
                if !self.slots[idx].awake && !self.slots[idx].crashed {
                    self.wake_up(idx);
                }
            }
            EventKind::Sleep => {
                // Byzantine validators are always awake.
                if self.slots[idx].byzantine || !self.slots[idx].awake {
                    return;
                }
                self.slots[idx].awake = false;
                let t = self.time;
                self.slots[idx].transitions.push((t, false));
            }
            EventKind::Corrupt => {
                if self.slots[idx].byzantine {
                    return;
                }
                self.slots[idx].byzantine = true;
                // Corruption of a downed validator supplants the
                // restart: the adversary's replacement is a new process.
                self.slots[idx].crashed = false;
                // Replace the honest node with the Byzantine strategy,
                // unless the builder installed this slot's Byzantine node
                // directly.
                if !self.slots[idx].explicit_byzantine {
                    let replacement = (self.byz_factory)(ev.target, self.time);
                    self.slots[idx].node = replacement;
                }
                // Byzantine validators are always awake.
                if !self.slots[idx].awake {
                    self.wake_up(idx);
                }
            }
            EventKind::Crash => {
                if self.slots[idx].byzantine || self.slots[idx].crashed {
                    return;
                }
                self.slots[idx].crashed = true;
                self.metrics.crashes += 1;
                if self.slots[idx].awake {
                    self.slots[idx].awake = false;
                    let t = self.time;
                    self.slots[idx].transitions.push((t, false));
                }
                // Volatile state dies with the process: the node's
                // in-memory protocol state and anything the engine
                // buffered on its behalf.
                self.slots[idx].buffer.clear();
                self.slots[idx].node = Box::new(IdleNode);
            }
            EventKind::Restart => {
                if self.slots[idx].byzantine || !self.slots[idx].crashed {
                    return;
                }
                self.slots[idx].crashed = false;
                let replacement = (self.restart_factory)(ev.target, self.time);
                self.slots[idx].node = replacement;
                // Restart is semantically a wake-up with amnesia: the
                // buffer died with the process, so the node goes
                // straight to on_wake (where the §2 recovery broadcast
                // fires).
                self.wake_up(idx);
            }
            EventKind::StateFault(fault) => {
                // A crashed process has no volatile state to corrupt
                // (its durable image is reachable only through a node,
                // which is gone too). Sleep does NOT protect: bit rot
                // strikes dormant processes, so the fault applies to
                // sleeping nodes in place without waking them.
                if self.slots[idx].crashed {
                    return;
                }
                self.metrics.state_corruptions += 1;
                self.call_node(idx, |node, ctx| node.on_state_fault(&fault, ctx));
            }
        }
    }

    /// Marks slot `idx` awake, delivers everything buffered while it
    /// slept (one run, in arrival order), then runs `on_wake`.
    fn wake_up(&mut self, idx: usize) {
        self.slots[idx].awake = true;
        let t = self.time;
        self.slots[idx].transitions.push((t, true));
        let buffered = std::mem::take(&mut self.slots[idx].buffer);
        let mut ctx = self.context(idx);
        self.receive_run(idx, &mut ctx, (0..).zip(buffered.iter().map(|msg| &**msg)));
        self.apply_effects();
        self.call_node(idx, |node, ctx| node.on_wake(ctx));
    }

    /// Step 4: the tick's deliveries, drained recipient by recipient
    /// (the module doc's "Delivery order" argues why that is
    /// unobservable).
    fn drain_bucket(&mut self, bucket: &Bucket) {
        let mut ends = std::mem::take(&mut self.group_ends);
        let mut order = std::mem::take(&mut self.group_order);
        ends.clear();
        ends.resize(self.slots.len(), 0);
        // Accounting and disposition, in event order. Byte accounting:
        // the copy's actual wire encoding under the delta-sync codec,
        // plus what the old full-chain codec would have shipped (for
        // the savings ratio) — both computed once per broadcast at send
        // time. Slot state cannot change inside the run of deliveries
        // (and `awake` implies not crashed).
        for &(to, share) in &bucket.entries {
            let delivery = &bucket.shares[share as usize];
            self.metrics.record_delivery(
                kind_of(delivery.msg.payload()),
                delivery.wire_len,
                delivery.inline_len,
            );
            let slot = &mut self.slots[to as usize];
            debug_assert!(!(slot.awake && slot.crashed), "a crashed process is never awake");
            if slot.awake {
                ends[to as usize] += 1;
            } else if slot.crashed || self.drop_while_asleep {
                // A dead process receives nothing, and nothing buffers
                // for it — regardless of the sleep mode. For a sleeper,
                // the practical setting of §2: nobody buffers for you;
                // the recovery protocol must fill the gap.
                self.metrics.dropped += 1;
            } else {
                self.metrics.buffered += 1;
                slot.buffer.push(Arc::clone(&delivery.msg));
            }
        }
        // Stable counting sort of the received deliveries by recipient:
        // counts → group starts → (after the scatter) group ends.
        let mut received = 0u32;
        for end in &mut ends {
            received += std::mem::replace(end, received);
        }
        order.clear();
        order.resize(received as usize, 0);
        for (i, &(to, _)) in bucket.entries.iter().enumerate() {
            if self.slots[to as usize].awake {
                let at = &mut ends[to as usize];
                order[*at as usize] = i as u32;
                *at += 1;
            }
        }
        let mut ctx = self.context(0);
        let mut start = 0;
        for (idx, &end) in ends.iter().enumerate() {
            let end = end as usize;
            if end > start {
                let run = order[start..end].iter().map(|&i| {
                    let (_, share) = bucket.entries[i as usize];
                    (i, &*bucket.shares[share as usize].msg)
                });
                self.receive_run(idx, &mut ctx, run);
            }
            start = end;
        }
        self.apply_effects();
        self.group_ends = ends;
        self.group_order = order;
    }

    /// Checks the node of slot `idx` out once and hands it `msgs` in
    /// order through the reused `ctx`. Whatever a call emits is set
    /// aside in `self.effects` under the call's tag, for
    /// [`Simulation::apply_effects`].
    fn receive_run<'a>(
        &mut self,
        idx: usize,
        ctx: &mut Context,
        msgs: impl Iterator<Item = (u32, &'a SignedMessage)>,
    ) {
        let from = ValidatorId::new(idx as u32);
        ctx.me = from;
        let mut node: Box<dyn Node> = std::mem::replace(&mut self.slots[idx].node, Box::new(IdleNode));
        for (tag, msg) in msgs {
            node.on_message(msg, ctx);
            self.metrics.record_crypto(std::mem::take(&mut ctx.crypto_ops));
            if !ctx.outbox.is_empty() || !ctx.decisions.is_empty() {
                // Held until the bucket is done: in per-vote mode every
                // call emits its own forwards, and each held outbox
                // should not also keep its `Vec`'s growth slack.
                ctx.outbox.shrink_to_fit();
                self.effects.push(Effect {
                    tag,
                    from,
                    outbox: std::mem::take(&mut ctx.outbox),
                    decisions: std::mem::take(&mut ctx.decisions),
                });
            }
        }
        self.slots[idx].node = node;
    }

    /// Applies the effects set aside by [`Simulation::receive_run`], in
    /// the event order of the calls that caused them.
    fn apply_effects(&mut self) {
        let mut effects = std::mem::take(&mut self.effects);
        effects.sort_unstable_by_key(|e| e.tag);
        for e in effects.drain(..) {
            self.apply_actions(e.from, e.outbox, e.decisions);
        }
        self.effects = effects;
    }

    /// A fresh callback context for the validator in slot `idx`.
    fn context(&self, idx: usize) -> Context {
        Context::new(
            self.time,
            ValidatorId::new(idx as u32),
            self.cfg.delta,
            self.store.clone(),
            self.mempool.clone(),
        )
    }

    /// Checks a node out of its slot, runs `f` with a fresh context, puts
    /// it back, then applies the context's collected actions.
    fn call_node<F>(&mut self, idx: usize, f: F)
    where
        F: FnOnce(&mut Box<dyn Node>, &mut Context),
    {
        let mut ctx = self.context(idx);
        let mut node: Box<dyn Node> = std::mem::replace(&mut self.slots[idx].node, Box::new(IdleNode));
        f(&mut node, &mut ctx);
        self.slots[idx].node = node;
        self.metrics.record_crypto(ctx.crypto_ops);
        self.apply_actions(ValidatorId::new(idx as u32), ctx.outbox, ctx.decisions);
    }

    /// Applies what one callback of validator `from` emitted: schedules
    /// its messages, then reports its decisions.
    fn apply_actions(&mut self, from: ValidatorId, outbox: Vec<Outgoing>, decisions: Vec<Log>) {
        let byzantine = self.slots[from.index()].byzantine;
        for out in outbox {
            // One allocation (and one byte-length computation) per
            // broadcast: every delivery event and the controller's tick
            // view share the handle.
            match out {
                Outgoing::Broadcast(msg) => {
                    self.metrics.record_broadcast(kind_of(msg.payload()));
                    let delivery = self.share(Arc::new(msg));
                    self.deliver_to_all(from, &delivery);
                }
                Outgoing::Forward(msg) => {
                    self.metrics.forwards += 1;
                    let delivery = self.share(Arc::new(msg));
                    self.deliver_to_all(from, &delivery);
                }
                // A recovery reply arrives with its handles: scheduled
                // copy by copy, in batch order, with no allocation.
                Outgoing::ForwardTo(to, batch) => {
                    for msg in batch {
                        self.metrics.forwards += 1;
                        let delivery = self.share(msg);
                        self.deliver_one(from, to, &delivery);
                    }
                }
                Outgoing::Multicast(targets, msg) => {
                    self.metrics.record_broadcast(kind_of(msg.payload()));
                    let delivery = self.share(Arc::new(msg));
                    self.deliver_to_each(from, &targets, &delivery);
                }
            }
        }
        let decided_something = !decisions.is_empty();
        for log in decisions {
            self.metrics.decisions += 1;
            if !byzantine {
                let t = self.time;
                self.observer.record(from, t, log, &self.mempool);
                let rec = DecisionRecord { validator: from, at: t, log };
                for inv in &mut self.invariants {
                    let ev = DecisionEvent {
                        record: &rec,
                        observer: &self.observer,
                        store: &self.store,
                    };
                    if let Err(detail) = inv.on_decision(&ev) {
                        self.invariant_violations.push(InvariantViolation {
                            invariant: inv.name(),
                            at: t,
                            detail,
                        });
                    }
                }
            }
        }
        // Memory hygiene for long sweeps: the decided anchor only grows
        // on a decision (keep this off the per-message path), and its
        // transactions can never be proposed again. The pool ignores an
        // anchor it has already pruned.
        if decided_something {
            if let Some(anchor) = self.observer.longest_decided() {
                self.mempool.prune_confirmed(&anchor, &self.store);
            }
        }
    }

    /// Pairs an outgoing message's handle with both byte accountings,
    /// computed once per send from one read of its tip.
    fn share(&mut self, msg: Arc<SignedMessage>) -> Delivery {
        // The sim's store is the single shared source of truth, so a
        // constructed message always has its chain stored; a failure here
        // is a sim bug and must not be silently charged as 0 bytes.
        let (wire_len, inline_len) =
            wire::encoded_and_inline_len(&msg, &self.store).expect("sim store holds every chain");
        self.sent_this_tick.push(Arc::clone(&msg));
        Delivery { msg, wire_len, inline_len }
    }

    fn deliver_to_all(&mut self, from: ValidatorId, delivery: &Delivery) {
        for to in ValidatorId::all(self.cfg.n) {
            self.deliver_one(from, to, delivery);
        }
    }

    /// Delivers to each distinct target once, in first-occurrence order.
    /// Every fetch request and response takes this path, so the dedup
    /// marks live in a scratch buffer that is wiped target by target
    /// instead of being allocated per call.
    fn deliver_to_each(&mut self, from: ValidatorId, targets: &[ValidatorId], delivery: &Delivery) {
        let mut marks = std::mem::take(&mut self.target_marks);
        for &to in targets {
            if !std::mem::replace(&mut marks[to.index()], true) {
                self.deliver_one(from, to, delivery);
            }
        }
        for to in targets {
            marks[to.index()] = false;
        }
        self.target_marks = marks;
    }

    fn deliver_one(&mut self, from: ValidatorId, to: ValidatorId, delivery: &Delivery) {
        let delta = self.cfg.delta;
        let msg = &delivery.msg;
        let delay = if from == to {
            // A validator always has its own message on the next tick
            // (and a lossy-network filter cannot touch the local copy).
            1
        } else {
            if let Some(filter) = &mut self.filter {
                if !filter.allow(msg, from, to, self.time) {
                    self.metrics.filtered += 1;
                    return;
                }
            }
            self.delay
                .delay(msg, from, to, self.time, delta, &mut self.rng)
                .clamp(1, delta.ticks())
        };
        // Appending is scheduling: bucket order is event order.
        let spare = &mut self.spare_buckets;
        let bucket = self
            .deliveries
            .entry(self.time + delay)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if !bucket.shares.last().is_some_and(|last| Arc::ptr_eq(&last.msg, msg)) {
            bucket.shares.push(delivery.clone());
        }
        bucket.entries.push((to.raw(), (bucket.shares.len() - 1) as u32));
    }

    fn apply_command(&mut self, cmd: AdversaryCommand) {
        match cmd {
            AdversaryCommand::Corrupt(v) => {
                if self.corruption.effective_time(v).is_some() {
                    return; // already scheduled or Byzantine
                }
                let t = self.time;
                let eff = self.corruption.schedule(v, t, self.cfg.delta);
                self.push_event(eff, EventKind::Corrupt, v);
            }
            AdversaryCommand::Sleep(v) => {
                let t = self.time + 1;
                self.push_event(t, EventKind::Sleep, v);
            }
            AdversaryCommand::Wake(v) => {
                let t = self.time + 1;
                self.push_event(t, EventKind::Wake, v);
            }
        }
    }

    /// Reconstructs the *effective* participation schedule actually
    /// realized (base schedule plus controller commands), for post-hoc
    /// Condition (1) checking.
    pub fn effective_participation(&self) -> ParticipationSchedule {
        let mut sched = ParticipationSchedule::always_awake(self.cfg.n);
        for (i, slot) in self.slots.iter().enumerate() {
            let mut intervals = Vec::new();
            let mut open: Option<Time> = None;
            for (t, awake) in &slot.transitions {
                if *awake {
                    if open.is_none() {
                        open = Some(*t);
                    }
                } else if let Some(start) = open.take() {
                    intervals.push((start, *t));
                }
            }
            if let Some(start) = open {
                intervals.push((start, self.time + 1));
            }
            sched.set_intervals(ValidatorId::new(i as u32), intervals);
        }
        sched
    }

    /// Produces a summary report of the run so far, (re-)evaluating the
    /// end-of-run invariant checks against the current state first —
    /// direct engine users can't silently skip an `at_end`-only
    /// invariant like a chain-growth bound, and a mid-run snapshot's
    /// findings never leak into a later report.
    pub fn report(&mut self) -> SimReport {
        self.check_end_invariants();
        SimReport {
            final_time: self.time,
            metrics: self.metrics.clone(),
            safe: self.observer.is_safe(),
            violations: self.observer.violations().to_vec(),
            longest_decided: self.observer.longest_decided(),
            // BTreeMap values come out in validator-id order already.
            latest_decisions: self.observer.latest_decisions().values().copied().collect(),
            confirmed: self.observer.confirmed().to_vec(),
            decisions: self.observer.history().to_vec(),
            invariant_violations: self.invariant_violations(),
            admission: self.mempool.admission_stats(),
            store: self.store.clone(),
        }
    }
}

fn kind_of(payload: &Payload) -> MessageKind {
    match payload {
        Payload::Log { .. } => MessageKind::Log,
        Payload::Proposal { .. } => MessageKind::Proposal,
        Payload::Vote { .. } => MessageKind::Vote,
        Payload::Recovery { .. } => MessageKind::Recovery,
        Payload::FinalityVote { .. } => MessageKind::FinalityVote,
        Payload::BlockRequest { .. } => MessageKind::BlockRequest,
        Payload::BlockResponse { .. } => MessageKind::BlockResponse,
        Payload::Certificate { .. } => MessageKind::Certificate,
    }
}

/// Summary of a finished (or in-progress) simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Time the report was taken.
    pub final_time: Time,
    /// Accumulated metrics.
    pub metrics: Metrics,
    /// Whether no safety violation was observed.
    pub safe: bool,
    /// Detected safety violations.
    pub violations: Vec<SafetyViolation>,
    /// The longest decided log across honest validators.
    pub longest_decided: Option<Log>,
    /// Latest decision per validator (sorted by validator id).
    pub latest_decisions: Vec<DecisionRecord>,
    /// Confirmed transactions with latencies.
    pub confirmed: Vec<ConfirmedTx>,
    /// Full decision history (every honest decision, in arrival order) —
    /// the evidence trail [`SimReport::assert_safety`] re-checks.
    pub decisions: Vec<DecisionRecord>,
    /// Violations of installed run-time invariants.
    pub invariant_violations: Vec<InvariantViolation>,
    /// Mempool admission counters (all-zero unless a bounded
    /// [`crate::AdmissionPolicy`] was installed and exercised).
    pub admission: AdmissionStats,
    /// The shared block store (for post-hoc log walks).
    pub store: BlockStore,
}

impl SimReport {
    /// Length of the longest decided log (1 = genesis only).
    pub fn max_decided_len(&self) -> u64 {
        self.longest_decided.map(|l| l.len()).unwrap_or(1)
    }

    /// Re-derives cross-validator prefix agreement from the *full
    /// decision history*, independently of the online observer: every
    /// recorded decision must be compatible with the longest recorded
    /// decision. (Logs are chains, so any two prefixes of a common
    /// extension are pairwise compatible; checking every record against
    /// one maximal record is therefore complete.) Returns the offending
    /// pairs — empty iff agreement held at every intermediate decision
    /// point, not just in the final transcripts.
    pub fn prefix_agreement_violations(&self) -> Vec<(DecisionRecord, DecisionRecord)> {
        let Some(longest) = self.decisions.iter().max_by_key(|r| r.log.len()) else {
            return Vec::new();
        };
        self.decisions
            .iter()
            .filter(|r| !r.log.compatible(&longest.log, &self.store))
            .map(|r| (*longest, *r))
            .collect()
    }

    /// Panics with a descriptive message if a safety violation occurred,
    /// either online (observer) or in the post-hoc prefix-agreement
    /// re-check over every intermediate decision point.
    ///
    /// # Panics
    ///
    /// Panics when the run had conflicting decisions — including a
    /// transient fork window whose transcripts later reconverged.
    pub fn assert_safety(&self) {
        assert!(
            self.safe,
            "safety violated: {} conflicting decision pairs, first: {:?}",
            self.violations.len(),
            self.violations.first()
        );
        let cross = self.prefix_agreement_violations();
        assert!(
            cross.is_empty(),
            "cross-validator prefix agreement violated at an intermediate decision point \
             ({} pairs despite a clean observer — observer bug?), first: {:?}",
            cross.len(),
            cross.first()
        );
    }

    /// Panics if any installed run-time invariant was violated.
    ///
    /// # Panics
    ///
    /// Panics listing the first violation.
    pub fn assert_invariants(&self) {
        assert!(
            self.invariant_violations.is_empty(),
            "{} invariant violations, first: {}",
            self.invariant_violations.len(),
            self.invariant_violations[0]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{InstanceId, Payload, View};

    /// Broadcasts one LOG at its first phase, counts received messages.
    struct PingNode {
        me: ValidatorId,
        sent: bool,
        received: Vec<(Time, ValidatorId)>,
    }

    impl PingNode {
        fn new(me: ValidatorId) -> Self {
            PingNode { me, sent: false, received: Vec::new() }
        }
    }

    impl Node for PingNode {
        fn on_phase(&mut self, ctx: &mut Context) {
            if !self.sent {
                self.sent = true;
                let kp = Keypair::from_seed(self.me.key_seed());
                let msg = SignedMessage::sign(
                    &kp,
                    self.me,
                    Payload::Log { instance: InstanceId(0), log: Log::genesis(&ctx.store) },
                );
                ctx.broadcast(msg);
            }
        }
        fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
            self.received.push((ctx.time, msg.sender()));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn build_ping_sim(n: usize, seed: u64) -> Simulation {
        let cfg = SimConfig::new(n).with_seed(seed);
        let mut b = Simulation::builder(cfg);
        for v in ValidatorId::all(n) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        b.build()
    }

    fn ping_received(sim: &Simulation, v: ValidatorId) -> &[(Time, ValidatorId)] {
        &sim.node(v).as_any().downcast_ref::<PingNode>().unwrap().received
    }

    #[test]
    fn all_messages_delivered_within_delta() {
        let mut sim = build_ping_sim(4, 1);
        sim.run_until(Time::new(20));
        let delta = 8;
        for v in ValidatorId::all(4) {
            let recv = ping_received(&sim, v);
            // Everyone receives all 4 LOGs (incl. own) within Δ of t=0.
            assert_eq!(recv.len(), 4, "{v} received {recv:?}");
            for (t, _) in recv {
                assert!(t.ticks() >= 1 && t.ticks() <= delta);
            }
        }
        assert_eq!(sim.metrics().log_broadcasts, 4);
        assert_eq!(sim.metrics().deliveries, 16);
    }

    #[test]
    fn asleep_validator_gets_buffered_messages_at_wake() {
        let n = 3;
        let cfg = SimConfig::new(n).with_seed(2);
        let mut part = ParticipationSchedule::always_awake(n);
        // v2 sleeps ticks [0, 50), wakes at 50.
        part.set_intervals(ValidatorId::new(2), vec![(Time::new(50), Time::new(100))]);
        let mut b = Simulation::builder(cfg).participation(part);
        for v in ValidatorId::all(n) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(60));
        let recv = ping_received(&sim, ValidatorId::new(2));
        // v0 and v1 broadcast at t=0 (delivered while asleep, buffered);
        // v2's own broadcast happens at its first phase after waking.
        let buffered: Vec<_> = recv.iter().filter(|(t, _)| t.ticks() == 50).collect();
        assert_eq!(buffered.len(), 2, "both early LOGs arrive at wake: {recv:?}");
        assert!(sim.metrics().buffered >= 2);
    }

    #[test]
    fn deliveries_precede_phase_at_same_tick() {
        // A message sent at t=0 with worst-case delay Δ=8 arrives at t=8,
        // which is also a phase boundary; on_message must run before
        // on_phase. We detect this with a node that records phase-time
        // message counts.
        struct ProbeNode {
            me: ValidatorId,
            msgs_before_phase_at_8: usize,
            phase8_seen: bool,
        }
        impl Node for ProbeNode {
            fn on_phase(&mut self, ctx: &mut Context) {
                if ctx.time == Time::new(0) && self.me.index() == 0 {
                    let kp = Keypair::from_seed(self.me.key_seed());
                    ctx.broadcast(SignedMessage::sign(
                        &kp,
                        self.me,
                        Payload::Log { instance: InstanceId(0), log: Log::genesis(&ctx.store) },
                    ));
                }
                if ctx.time == Time::new(8) {
                    self.phase8_seen = true;
                }
            }
            fn on_message(&mut self, _msg: &SignedMessage, ctx: &mut Context) {
                if ctx.time == Time::new(8) && !self.phase8_seen {
                    self.msgs_before_phase_at_8 += 1;
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let cfg = SimConfig::new(2).with_seed(3);
        let mut sim = Simulation::builder(cfg)
            .delay(Box::new(crate::network::WorstCaseDelay))
            .node(ValidatorId::new(0), Box::new(ProbeNode { me: ValidatorId::new(0), msgs_before_phase_at_8: 0, phase8_seen: false }))
            .node(ValidatorId::new(1), Box::new(ProbeNode { me: ValidatorId::new(1), msgs_before_phase_at_8: 0, phase8_seen: false }))
            .build();
        sim.run_until(Time::new(10));
        let probe = sim
            .node(ValidatorId::new(1))
            .as_any()
            .downcast_ref::<ProbeNode>()
            .unwrap();
        assert_eq!(probe.msgs_before_phase_at_8, 1, "delivery at t=8 must precede phase at t=8");
        assert!(probe.phase8_seen);
    }

    // -----------------------------------------------------------------
    // Same-tick seams of the split drain: heap events ranked before the
    // deliveries, the tick's bucket, heap events ranked after.
    // -----------------------------------------------------------------

    /// `(when, recipient, original sender)` of every reception, shared by
    /// all of a run's [`Recorder`]s so it survives a crash.
    type ReceptionLog = Arc<std::sync::Mutex<Vec<(Time, ValidatorId, ValidatorId)>>>;

    /// Broadcasts one LOG at t = 0, logs every reception, and forwards
    /// whatever it receives at `forward_at`.
    struct Recorder {
        me: ValidatorId,
        log: ReceptionLog,
        forward_at: Option<Time>,
    }

    impl Node for Recorder {
        fn on_phase(&mut self, ctx: &mut Context) {
            if ctx.time == Time::ZERO {
                let kp = Keypair::from_seed(self.me.key_seed());
                ctx.broadcast(SignedMessage::sign(
                    &kp,
                    self.me,
                    Payload::Log { instance: InstanceId(0), log: Log::genesis(&ctx.store) },
                ));
            }
        }
        fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
            self.log.lock().unwrap().push((ctx.time, self.me, msg.sender()));
            if self.forward_at == Some(ctx.time) {
                ctx.forward(*msg);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Three recorders under worst-case delay: the t = 0 broadcasts reach
    /// their sender at t = 1 and everyone else at t = Δ = 8.
    fn recorder_sim(
        forward_at: Option<Time>,
        configure: impl FnOnce(SimulationBuilder) -> SimulationBuilder,
    ) -> (Simulation, ReceptionLog) {
        let log = ReceptionLog::default();
        let mut b = configure(
            Simulation::builder(SimConfig::new(3).with_seed(1))
                .delay(Box::new(crate::network::WorstCaseDelay)),
        );
        for v in ValidatorId::all(3) {
            b = b.node(v, Box::new(Recorder { me: v, log: Arc::clone(&log), forward_at }));
        }
        (b.build(), log)
    }

    fn receptions_at(log: &ReceptionLog, t: u64) -> Vec<(u32, u32)> {
        let log = log.lock().unwrap();
        log.iter().filter(|r| r.0 == Time::new(t)).map(|r| (r.1.raw(), r.2.raw())).collect()
    }

    #[test]
    fn wake_precedes_same_tick_delivery() {
        let (mut sim, log) = recorder_sim(None, |b| {
            let mut part = ParticipationSchedule::always_awake(3);
            part.set_intervals(ValidatorId::new(2), vec![(Time::new(8), Time::new(100))]);
            b.participation(part)
        });
        sim.run_until(Time::new(8));
        // v2 woke at t = 8 before the t = 8 bucket: both LOGs reach the
        // node directly, nothing was buffered for it.
        assert_eq!(sim.metrics().buffered, 0);
        let to_v2: Vec<_> = receptions_at(&log, 8).into_iter().filter(|r| r.0 == 2).collect();
        assert_eq!(to_v2, vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn same_tick_delivery_precedes_crash() {
        let (mut sim, log) = recorder_sim(None, |b| {
            b.crashes(vec![(ValidatorId::new(1), Time::new(8), Time::new(100))])
        });
        sim.run_until(Time::new(8));
        // v1 saw the t = 8 deliveries, then died.
        assert!(sim.slots[1].crashed);
        assert_eq!(sim.metrics().dropped, 0);
        assert!(receptions_at(&log, 8).contains(&(1, 0)));
        assert!(receptions_at(&log, 8).contains(&(1, 2)));
    }

    #[test]
    fn same_tick_delivery_precedes_restart_and_is_dropped_once() {
        let (mut sim, log) = recorder_sim(None, |b| {
            let log = ReceptionLog::default();
            b.crashes(vec![(ValidatorId::new(1), Time::new(2), Time::new(8))]).restart_factory(
                Box::new(move |me, _| {
                    Box::new(Recorder { me, log: Arc::clone(&log), forward_at: None })
                }),
            )
        });
        sim.run_until(Time::new(8));
        // v1 is back up at the end of t = 8, but the tick's two copies
        // for it arrived while it was still down: dropped, each counted
        // as one delivery and one drop, never handed to either
        // incarnation.
        assert!(sim.is_awake(ValidatorId::new(1)) && !sim.slots[1].crashed);
        assert_eq!(sim.metrics().dropped, 2);
        assert_eq!(sim.metrics().deliveries, 9);
        assert!(receptions_at(&log, 8).iter().all(|r| r.0 != 1));
    }

    /// Logs the sender of every copy it is asked to delay (the engine
    /// asks in scheduling order, one RNG-visible call per copy) and
    /// gives each sender its own delay.
    struct SchedulingLog(Arc<std::sync::Mutex<Vec<(Time, u32)>>>);
    impl crate::network::DelayPolicy for SchedulingLog {
        fn delay(
            &mut self,
            _msg: &SignedMessage,
            from: ValidatorId,
            _to: ValidatorId,
            at: Time,
            delta: tobsvd_types::Delta,
            _rng: &mut StdRng,
        ) -> u64 {
            self.0.lock().unwrap().push((at, from.raw()));
            if at == Time::ZERO {
                delta.ticks()
            } else {
                1 + u64::from(from.raw())
            }
        }
    }

    #[test]
    fn grouped_drain_keeps_reception_order_and_schedules_effects_in_event_order() {
        let scheduled = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (mut sim, log) = recorder_sim(Some(Time::new(8)), |b| {
            b.delay(Box::new(SchedulingLog(Arc::clone(&scheduled))))
        });
        sim.run_until(Time::new(8));
        // The t = 8 bucket in event order: v0's LOG to v1, v2; v1's to
        // v0, v2; v2's to v0, v1. The drain calls v0 (v1's, v2's), v1
        // (v0's, v2's), v2 (v0's, v1's): each recipient in event order…
        let mut by_recipient = receptions_at(&log, 8);
        by_recipient.sort_by_key(|r| r.0); // stable: keeps each recipient's order
        assert_eq!(by_recipient, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        // …while the forwards those receptions emitted were scheduled
        // (two delay-policy calls each, self copy excluded) in the order
        // of the receptions that caused them, not of the calls.
        let forwarders: Vec<u32> =
            scheduled.lock().unwrap().iter().filter(|s| s.0 == Time::new(8)).map(|s| s.1).collect();
        assert_eq!(forwarders, vec![1, 1, 2, 2, 0, 0, 2, 2, 0, 0, 1, 1]);
        assert_eq!(sim.metrics().forwards, 6);
    }

    /// `k` LOGs over ever longer chains with ever larger transactions,
    /// so no two have the same encoded length.
    fn growing_logs(store: &BlockStore, k: usize) -> Vec<SignedMessage> {
        let me = ValidatorId::new(0);
        let kp = Keypair::from_seed(me.key_seed());
        let mut log = Log::genesis(store);
        (0..k as u64)
            .map(|i| {
                let tx = tobsvd_types::Transaction::synthetic(i, 8 * (i as usize + 1));
                log = log.extend(store, me, View::new(i), vec![tx]);
                SignedMessage::sign(&kp, me, Payload::Log { instance: InstanceId(i), log })
            })
            .collect()
    }

    /// At t = 0 validator 0 sends [`growing_logs`] to validator 1, as one
    /// `ForwardTo` batch or as one single-target `Multicast` per message;
    /// every node logs `(arrival, id)` of what it receives.
    struct BatchSender {
        batched: bool,
        sent: Vec<SignedMessage>,
        received: Vec<(Time, tobsvd_crypto::Digest)>,
    }

    impl Node for BatchSender {
        fn on_phase(&mut self, ctx: &mut Context) {
            if ctx.me.index() != 0 || ctx.time != Time::ZERO {
                return;
            }
            self.sent = growing_logs(&ctx.store, 12);
            let to = ValidatorId::new(1);
            if self.batched {
                ctx.forward_to(to, self.sent.iter().copied().map(Arc::new).collect());
            } else {
                for m in &self.sent {
                    ctx.multicast(vec![to], *m);
                }
            }
        }
        fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
            self.received.push((ctx.time, msg.id()));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_forward_batch_is_scheduled_copy_by_copy_in_batch_order() {
        let run = |batched: bool| {
            let mut b = Simulation::builder(SimConfig::new(2).with_seed(11));
            for v in ValidatorId::all(2) {
                b = b.node(v, Box::new(BatchSender { batched, sent: Vec::new(), received: Vec::new() }));
            }
            let mut sim = b.build();
            sim.run_until(Time::new(9));
            let sender = sim.node(ValidatorId::new(0)).as_any().downcast_ref::<BatchSender>().unwrap();
            let receiver = sim.node(ValidatorId::new(1)).as_any().downcast_ref::<BatchSender>().unwrap();
            (sim.metrics().clone(), sender.sent.clone(), receiver.received.clone(), sim.store.clone())
        };
        let (metrics, sent, received, store) = run(true);
        let k = sent.len() as u64;
        assert_eq!((metrics.forwards, metrics.deliveries), (k, k));
        assert_eq!(metrics.log_broadcasts, 0, "a batch is forwards only");
        // Each copy is charged its own lengths, not its batch's.
        let lens: Vec<u64> = sent.iter().map(|m| wire::encoded_len(m, &store).unwrap()).collect();
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        assert_eq!(metrics.bytes_delivered, lens.iter().sum::<u64>());
        assert_eq!(metrics.log_bytes, metrics.bytes_delivered);
        let inline: u64 = sent.iter().map(|m| wire::inline_equivalent_len(m, &store)).sum();
        assert_eq!(metrics.inline_equiv_bytes, inline);
        // One delay draw per copy, in batch order: arrivals are the
        // batch stably sorted by arrival tick, and match what one
        // single-target send per message draws.
        let ids: Vec<_> = received.iter().map(|r| r.1).collect();
        let mut by_arrival: Vec<_> = sent.iter().map(|m| m.id()).collect();
        by_arrival.sort_by_key(|id| received.iter().find(|r| r.1 == *id).map(|r| r.0));
        assert_eq!(ids, by_arrival);
        assert!(received.windows(2).any(|w| w[0].0 != w[1].0), "the draws spread: {received:?}");
        let (per_message, _, per_message_received, _) = run(false);
        assert_eq!(received, per_message_received);
        assert_eq!(metrics.bytes_delivered, per_message.bytes_delivered);
    }

    #[test]
    fn corruption_replaces_node_and_wakes_it() {
        let n = 2;
        let cfg = SimConfig::new(n).with_seed(4);
        let mut corr = CorruptionSchedule::none();
        corr.schedule(ValidatorId::new(1), Time::new(8), cfg.delta); // effective t=16
        let mut b = Simulation::builder(cfg)
            .corruption(corr)
            .byzantine_factory(Box::new(|_, _| Box::new(IdleNode)));
        for v in ValidatorId::all(n) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(20));
        assert!(sim.is_byzantine(ValidatorId::new(1)));
        assert!(!sim.is_byzantine(ValidatorId::new(0)));
        // Node was replaced by IdleNode.
        assert!(sim.node(ValidatorId::new(1)).as_any().downcast_ref::<IdleNode>().is_some());
        assert_eq!(sim.node(ValidatorId::new(1)).label(), "idle");
    }

    #[test]
    fn crash_destroys_volatile_state_and_restart_rebuilds() {
        let n = 2;
        let cfg = SimConfig::new(n).with_seed(7);
        let mut b = Simulation::builder(cfg)
            .crashes(vec![(ValidatorId::new(1), Time::new(4), Time::new(12))])
            .restart_factory(Box::new(|v, _| Box::new(PingNode::new(v))));
        for v in ValidatorId::all(n) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(30));
        assert!(!sim.slots[1].crashed);
        assert!(sim.is_awake(ValidatorId::new(1)));
        assert_eq!(sim.metrics().crashes, 1);
        // Everything the pre-crash incarnation received died with it;
        // the restarted node only holds post-restart deliveries (its
        // own re-broadcast at the first post-restart phase).
        let recv = ping_received(&sim, ValidatorId::new(1));
        assert!(recv.iter().all(|(t, _)| t.ticks() >= 12), "pre-crash state leaked: {recv:?}");
        assert_eq!(recv.len(), 1, "only the fresh incarnation's own LOG remains: {recv:?}");
        // The downtime window shows up as an asleep interval in the
        // effective participation (compliance accounting sees crashes).
        let eff = sim.effective_participation();
        assert!(!eff.is_awake(ValidatorId::new(1), Time::new(8)));
        assert!(eff.is_awake(ValidatorId::new(1), Time::new(13)));
    }

    #[test]
    fn controller_commands_take_effect() {
        struct SleepAtTen;
        impl AdversaryController for SleepAtTen {
            fn on_tick(&mut self, view: &TickView<'_>) -> Vec<AdversaryCommand> {
                if view.time == Time::new(10) {
                    vec![AdversaryCommand::Sleep(ValidatorId::new(0))]
                } else {
                    Vec::new()
                }
            }
        }
        let cfg = SimConfig::new(2).with_seed(5);
        let mut b = Simulation::builder(cfg).controller(Box::new(SleepAtTen));
        for v in ValidatorId::all(2) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(20));
        assert!(!sim.is_awake(ValidatorId::new(0)));
        assert!(sim.is_awake(ValidatorId::new(1)));
        // Effective participation reflects the controller-driven sleep.
        let eff = sim.effective_participation();
        assert!(eff.is_awake(ValidatorId::new(0), Time::new(10)));
        assert!(!eff.is_awake(ValidatorId::new(0), Time::new(12)));
    }

    /// A deliberately out-of-spec delay policy: returns `0` for copies to
    /// even validators and `u64::MAX` for odd ones. The engine must clamp
    /// both into `[1, Δ]`.
    struct OutOfSpecDelay;
    impl crate::network::DelayPolicy for OutOfSpecDelay {
        fn delay(
            &mut self,
            _msg: &SignedMessage,
            _from: ValidatorId,
            to: ValidatorId,
            _at: Time,
            _delta: tobsvd_types::Delta,
            _rng: &mut StdRng,
        ) -> u64 {
            if to.index() % 2 == 0 {
                0
            } else {
                u64::MAX
            }
        }
    }

    #[test]
    fn out_of_spec_delays_are_clamped_into_synchrony_window() {
        let delta = 8;
        let cfg = SimConfig::new(3).with_seed(9);
        let mut b = Simulation::builder(cfg).delay(Box::new(OutOfSpecDelay));
        for v in ValidatorId::all(3) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(3 * delta));
        for v in ValidatorId::all(3) {
            for (t, from) in ping_received(&sim, v) {
                if from == &v {
                    continue; // own copy always arrives at t+1
                }
                let expect = if v.index() % 2 == 0 { 1 } else { delta };
                assert_eq!(
                    t.ticks(),
                    expect,
                    "copy {from}->{v} must be clamped to {expect}, arrived at {t}"
                );
            }
            // Nobody missed a message: a 0-delay must not become a
            // same-tick (lost) delivery, a u64::MAX delay must not park
            // the message past the horizon.
            assert_eq!(ping_received(&sim, v).len(), 3);
        }
    }

    fn build_ping_sim_mode(n: usize, seed: u64, mode: AdvanceMode) -> Simulation {
        let cfg = SimConfig::new(n).with_seed(seed);
        let mut b = Simulation::builder(cfg).advance_mode(mode);
        for v in ValidatorId::all(n) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        b.build()
    }

    #[test]
    fn event_driven_matches_tick_loop_byte_for_byte() {
        for seed in [1u64, 7, 42] {
            let mut ev = build_ping_sim_mode(5, seed, AdvanceMode::EventDriven);
            let mut tl = build_ping_sim_mode(5, seed, AdvanceMode::TickLoop);
            ev.run_until(Time::new(100));
            tl.run_until(Time::new(100));
            assert_eq!(ev.now(), tl.now());
            for v in ValidatorId::all(5) {
                assert_eq!(
                    ping_received(&ev, v),
                    ping_received(&tl, v),
                    "seed {seed}: delivery transcripts diverged for {v}"
                );
            }
            assert_eq!(ev.metrics().deliveries, tl.metrics().deliveries);
            assert_eq!(ev.metrics().bytes_delivered, tl.metrics().bytes_delivered);
            assert_eq!(ev.metrics().ticks, tl.metrics().ticks);
            // The whole point: the event-driven run did strictly less work.
            assert!(
                ev.metrics().executed_ticks < tl.metrics().executed_ticks,
                "event-driven executed {} ticks, tick loop {}",
                ev.metrics().executed_ticks,
                tl.metrics().executed_ticks
            );
        }
    }

    #[test]
    fn run_until_the_end_of_time_returns_in_both_modes() {
        // `Time += 1` saturates, so `time <= t_end` alone never turns
        // false at `t_end == u64::MAX`: the run must end with the last
        // tick. The tick loop visits every tick, so once its pings have
        // drained its clock is moved to three ticks short of the end.
        let end = Time::new(u64::MAX);
        let mut tl = build_ping_sim_mode(3, 5, AdvanceMode::TickLoop);
        tl.run_until(Time::new(20));
        tl.time = Time::new(u64::MAX - 3);
        tl.run_until(end);
        assert_eq!(tl.now(), end);
        assert_eq!(tl.metrics().executed_ticks, 21 + 4);

        // The event-driven engine gets there by itself once Δ is large
        // enough that the phase boundaries on the way are few.
        let cfg = SimConfig::new(3).with_seed(5).with_delta(tobsvd_types::Delta::new(1 << 62));
        let mut b = Simulation::builder(cfg);
        for v in ValidatorId::all(3) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut ev = b.build();
        ev.run_until(end);
        assert_eq!(ev.now(), end);
        assert_eq!(ev.metrics().ticks, u64::MAX);
        for v in ValidatorId::all(3) {
            assert_eq!(ping_received(&ev, v).len(), 3, "{v} heard every ping");
        }
    }

    #[test]
    fn event_driven_matches_tick_loop_with_sleep_and_corruption() {
        let build = |mode: AdvanceMode| {
            let n = 4;
            let cfg = SimConfig::new(n).with_seed(11);
            let mut part = ParticipationSchedule::always_awake(n);
            part.set_intervals(
                ValidatorId::new(2),
                vec![(Time::new(30), Time::new(70)), (Time::new(90), Time::new(200))],
            );
            let mut corr = CorruptionSchedule::none();
            corr.schedule(ValidatorId::new(3), Time::new(40), cfg.delta);
            let mut b = Simulation::builder(cfg)
                .advance_mode(mode)
                .participation(part)
                .corruption(corr)
                .byzantine_factory(Box::new(|_, _| Box::new(IdleNode)));
            for v in ValidatorId::all(n) {
                b = b.node(v, Box::new(PingNode::new(v)));
            }
            b.build()
        };
        let mut ev = build(AdvanceMode::EventDriven);
        let mut tl = build(AdvanceMode::TickLoop);
        ev.run_until(Time::new(150));
        tl.run_until(Time::new(150));
        for v in ValidatorId::all(4) {
            if ev.node(v).as_any().downcast_ref::<PingNode>().is_some() {
                assert_eq!(ping_received(&ev, v), ping_received(&tl, v), "{v} diverged");
            }
        }
        assert_eq!(ev.is_byzantine(ValidatorId::new(3)), tl.is_byzantine(ValidatorId::new(3)));
        assert_eq!(ev.metrics().buffered, tl.metrics().buffered);
        assert_eq!(
            ev.effective_participation().transitions(ValidatorId::new(2)),
            tl.effective_participation().transitions(ValidatorId::new(2))
        );
    }

    #[test]
    fn null_controller_costs_phases_not_horizon() {
        // Sparse horizon: Δ=1000, everything delivered within the first
        // 2Δ, then silence. The event-driven engine must only execute
        // the phase boundaries plus the handful of event ticks — not the
        // million-tick horizon.
        let delta = 1000u64;
        let horizon = 1_000_000u64;
        let cfg = SimConfig::new(3).with_seed(5).with_delta(tobsvd_types::Delta::new(delta));
        let mut b = Simulation::builder(cfg);
        for v in ValidatorId::all(3) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(horizon));
        assert_eq!(sim.metrics().ticks, horizon + 1);
        let phases = horizon / delta + 1;
        assert!(
            sim.metrics().executed_ticks <= phases + 20,
            "executed {} ticks; expected about {} phase boundaries",
            sim.metrics().executed_ticks,
            phases
        );
        // Nothing was lost to the skipping.
        for v in ValidatorId::all(3) {
            assert_eq!(ping_received(&sim, v).len(), 3);
        }
    }

    #[test]
    fn time_triggered_controller_fires_via_next_wakeup() {
        // A controller that acts at one quiet, off-phase tick and
        // declares it through next_wakeup. The event-driven engine must
        // execute that tick even though no event or phase falls on it.
        struct SleepAt {
            at: Time,
            done: bool,
        }
        impl AdversaryController for SleepAt {
            fn on_tick(&mut self, view: &TickView<'_>) -> Vec<AdversaryCommand> {
                if view.time == self.at && !self.done {
                    self.done = true;
                    vec![AdversaryCommand::Sleep(ValidatorId::new(0))]
                } else {
                    Vec::new()
                }
            }
            fn next_wakeup(&mut self, from: Time) -> Option<Time> {
                if self.done {
                    None
                } else {
                    Some(self.at.max(from))
                }
            }
        }
        let delta = 100u64;
        let at = Time::new(157); // off the Δ grid, no deliveries pending
        let cfg = SimConfig::new(2).with_seed(6).with_delta(tobsvd_types::Delta::new(delta));
        let mut b = Simulation::builder(cfg).controller(Box::new(SleepAt { at, done: false }));
        for v in ValidatorId::all(2) {
            b = b.node(v, Box::new(PingNode::new(v)));
        }
        let mut sim = b.build();
        sim.run_until(Time::new(1000));
        assert!(!sim.is_awake(ValidatorId::new(0)));
        let eff = sim.effective_participation();
        assert!(eff.is_awake(ValidatorId::new(0), at));
        assert!(!eff.is_awake(ValidatorId::new(0), Time::new(200)));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = build_ping_sim(5, 42);
        let mut b = build_ping_sim(5, 42);
        a.run_until(Time::new(30));
        b.run_until(Time::new(30));
        for v in ValidatorId::all(5) {
            assert_eq!(ping_received(&a, v), ping_received(&b, v));
        }
        let mut c = build_ping_sim(5, 43);
        c.run_until(Time::new(30));
        let same: bool = ValidatorId::all(5)
            .all(|v| ping_received(&a, v) == ping_received(&c, v));
        assert!(!same, "different seeds should give different delivery times");
    }

    /// Decides a fixed sequence of logs at successive phase boundaries
    /// (one per phase), for forcing transient forks through the engine.
    struct ScriptedDecider {
        script: Vec<Log>,
        next: usize,
    }

    impl Node for ScriptedDecider {
        fn on_phase(&mut self, ctx: &mut Context) {
            if let Some(log) = self.script.get(self.next) {
                self.next += 1;
                ctx.decide(*log);
            }
        }
        fn on_message(&mut self, _m: &SignedMessage, _ctx: &mut Context) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn invariants_run_on_every_decision_and_record_violations() {
        let cfg = SimConfig::new(2).with_seed(1);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            // v1 transiently forks to b, then reconverges onto c.
            .node(ValidatorId::new(1), Box::new(ScriptedDecider { script: vec![b, c], next: 0 }))
            .invariant(Box::new(crate::invariant::PrefixAgreement::new()))
            .invariant(Box::new(crate::invariant::DecisionMonotonicity::new()))
            .invariant(Box::new(crate::invariant::NoConflictingAnchor::new()))
            .build();
        sim.run_until(Time::new(20));
        sim.check_end_invariants();
        let violations = sim.invariant_violations();
        // All three independent invariants catch the a/b fork window.
        for name in ["prefix-agreement", "decision-monotonicity", "no-conflicting-anchor"] {
            assert!(
                violations.iter().any(|v| v.invariant == name),
                "{name} missing from {violations:?}"
            );
        }
        let report = sim.report();
        assert!(!report.safe, "observer must agree with the invariants");
        assert!(!report.invariant_violations.is_empty());
    }

    #[test]
    fn mid_run_report_does_not_pollute_final_end_checks() {
        /// Fails at_end until at least one decision was recorded.
        struct NeedsDecision;
        impl crate::invariant::Invariant for NeedsDecision {
            fn name(&self) -> &'static str {
                "needs-decision"
            }
            fn on_decision(
                &mut self,
                _ev: &crate::invariant::DecisionEvent<'_>,
            ) -> Result<(), String> {
                Ok(())
            }
            fn at_end(
                &mut self,
                observer: &DecisionObserver,
                _store: &BlockStore,
                now: Time,
            ) -> Result<(), String> {
                if observer.history().is_empty() {
                    Err(format!("no decision by t={now}"))
                } else {
                    Ok(())
                }
            }
        }
        let cfg = SimConfig::new(1).with_seed(3);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a], next: 0 }))
            .invariant(Box::new(NeedsDecision))
            .build();
        // A t=0 snapshot legitimately reports the end-check violation…
        let early = sim.report();
        assert_eq!(early.invariant_violations.len(), 1);
        // …but it is recomputed, not latched: after the run decides,
        // the final report is clean.
        sim.run_until(Time::new(10));
        let fin = sim.report();
        assert!(fin.invariant_violations.is_empty(), "{:?}", fin.invariant_violations);
    }

    #[test]
    fn clean_run_has_no_invariant_violations() {
        let cfg = SimConfig::new(2).with_seed(2);
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let mut sim = Simulation::builder(cfg)
            .with_store(store)
            .node(ValidatorId::new(0), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            .node(ValidatorId::new(1), Box::new(ScriptedDecider { script: vec![a, c], next: 0 }))
            .invariant(Box::new(crate::invariant::PrefixAgreement::new()))
            .invariant(Box::new(crate::invariant::NoConflictingAnchor::new()))
            .build();
        sim.run_until(Time::new(20));
        sim.check_end_invariants();
        assert!(sim.invariant_violations().is_empty());
        let report = sim.report();
        report.assert_safety();
        report.assert_invariants();
    }

    #[test]
    fn assert_safety_catches_transient_fork_even_in_clean_looking_report() {
        // Regression for the strengthened assert_safety: a report whose
        // *final* transcripts agree (and whose `safe` flag claims
        // innocence, as a buggy observer would) must still be rejected,
        // because the decision history shows an intermediate fork.
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(0), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(1), View::new(1));
        let c = a.extend_empty(&store, ValidatorId::new(0), View::new(2));
        let fork_then_converge = vec![
            DecisionRecord { validator: ValidatorId::new(0), at: Time::new(8), log: a },
            DecisionRecord { validator: ValidatorId::new(1), at: Time::new(8), log: b },
            DecisionRecord { validator: ValidatorId::new(0), at: Time::new(16), log: c },
            DecisionRecord { validator: ValidatorId::new(1), at: Time::new(16), log: c },
        ];
        let report = SimReport {
            final_time: Time::new(17),
            metrics: Metrics::new(),
            safe: true, // the lie the history check must expose
            violations: Vec::new(),
            longest_decided: Some(c),
            latest_decisions: fork_then_converge[2..].to_vec(),
            confirmed: Vec::new(),
            decisions: fork_then_converge,
            invariant_violations: Vec::new(),
            admission: AdmissionStats::default(),
            store,
        };
        let pairs = report.prefix_agreement_violations();
        assert_eq!(pairs.len(), 1, "exactly the b-vs-c conflict: {pairs:?}");
        assert_eq!(pairs[0].1.log, b);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| report.assert_safety()));
        assert!(caught.is_err(), "assert_safety must reject the transient fork");
    }

    #[test]
    fn decisions_flow_to_observer() {
        struct DecideOnce {
            done: bool,
        }
        impl Node for DecideOnce {
            fn on_phase(&mut self, ctx: &mut Context) {
                if !self.done {
                    self.done = true;
                    let g = Log::genesis(&ctx.store);
                    ctx.decide(g);
                }
            }
            fn on_message(&mut self, _m: &SignedMessage, _ctx: &mut Context) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let cfg = SimConfig::new(1).with_seed(1);
        let mut sim = Simulation::builder(cfg)
            .node(ValidatorId::new(0), Box::new(DecideOnce { done: false }))
            .build();
        sim.run_until(Time::new(5));
        let report = sim.report();
        assert!(report.safe);
        assert_eq!(report.metrics.decisions, 1);
        assert_eq!(report.max_decided_len(), 1);
        report.assert_safety();
    }
}
