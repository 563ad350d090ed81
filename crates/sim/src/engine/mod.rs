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
//! 4. **Deliveries** — in schedule order (the [`delivery`] module).
//!    Processing deliveries *before* the phase timer makes "received by
//!    time t" inclusive, as the paper's quorum arguments require.
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
//! A validator installed with [`SimulationBuilder::byzantine_node`] is
//! Byzantine from `build()` on: its slot starts Byzantine and only its
//! t = 0 wake-up is scheduled.
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

mod builder;
mod delivery;
mod report;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use rand::rngs::StdRng;
use tobsvd_core::{Context, IdleNode, Mempool, Node, StateFault};
use tobsvd_types::{BlockStore, Delivered, Time, ValidatorId};

pub use builder::{ByzantineFactory, RestartFactory, SimulationBuilder};
use delivery::{Bucket, Effect};
pub use report::SimReport;

use crate::config::SimConfig;
use crate::controller::{AdversaryCommand, AdversaryController, TickView};
use crate::invariant::{Invariant, InvariantViolation};
use crate::metrics::Metrics;
use crate::network::{DelayPolicy, DeliveryFilter};
use crate::observer::DecisionObserver;
use crate::schedule::{CorruptionSchedule, ParticipationSchedule};

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
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// An event in the heap, `(time, rank, seq, target, kind)`: equal-rank
/// events of one tick pop in scheduling order, and as `seq` is unique,
/// the order never reaches the payload.
type Scheduled = (Time, u8, u64, ValidatorId, EventKind);

struct Slot {
    node: Box<dyn Node>,
    awake: bool,
    byzantine: bool,
    /// Killed and not yet restarted: volatile state (node, buffer) is
    /// gone and deliveries are dropped regardless of the sleep mode.
    crashed: bool,
    buffer: Vec<Arc<Delivered>>,
    /// (time, awake?) transition log for post-hoc compliance checking.
    transitions: Vec<(Time, bool)>,
}

/// The discrete-event sleepy-model simulation.
pub struct Simulation {
    cfg: SimConfig,
    store: BlockStore,
    mempool: Mempool,
    time: Time,
    seq: u64,
    /// The rare events, earliest first (see [`Scheduled`]).
    events: BinaryHeap<Reverse<Scheduled>>,
    /// Pending deliveries, one bucket per tick (a map, not a ring: the
    /// checker's hostile scenarios drive Δ toward `u64::MAX`).
    deliveries: BTreeMap<Time, Bucket>,
    /// Drained buckets, kept for their capacity.
    spare_buckets: Vec<Bucket>,
    /// Scratch of [`Simulation::deliver_tick`]'s counting sort: per
    /// validator, where its group ends in `group_order`.
    group_ends: Vec<u32>,
    /// Scratch: bucket entry indices grouped by recipient, each group in
    /// event order.
    group_order: Vec<u32>,
    /// Scratch: effects of the run of `on_message` calls in progress.
    effects: Vec<Effect>,
    slots: Vec<Slot>,
    corruption: CorruptionSchedule,
    delay: Box<dyn DelayPolicy>,
    filter: Option<Box<dyn DeliveryFilter>>,
    controller: Box<dyn AdversaryController>,
    byz_factory: ByzantineFactory,
    restart_factory: RestartFactory,
    metrics: Metrics,
    observer: DecisionObserver,
    rng: StdRng,
    sent_this_tick: Vec<Arc<Delivered>>,
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
    /// Violations from per-decision checks (accumulated monotonically;
    /// [`Simulation::report`] adds the end-of-run ones).
    invariant_violations: Vec<InvariantViolation>,
}

impl Simulation {
    /// Starts a builder.
    pub fn builder(cfg: SimConfig) -> SimulationBuilder {
        SimulationBuilder::new(cfg)
    }

    fn push_event(&mut self, time: Time, kind: EventKind, target: ValidatorId) {
        self.seq += 1;
        self.events.push(Reverse((time, kind.rank(), self.seq, target, kind)));
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
        if let Some(Reverse((at, ..))) = self.events.peek() {
            debug_assert!(*at >= now, "stale event below current time");
            next = next.min((*at).max(now));
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
        self.deliver_tick();
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
        while let Some(&Reverse((at, r, _, target, kind))) = self.events.peek() {
            debug_assert!(at >= self.time, "event in the past");
            if at > self.time || r >= rank {
                break;
            }
            self.events.pop();
            self.apply_event(kind, target);
        }
    }

    fn apply_event(&mut self, kind: EventKind, target: ValidatorId) {
        let idx = target.index();
        match kind {
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
                self.slots[idx].transitions.push((self.time, false));
            }
            EventKind::Corrupt => {
                if self.slots[idx].byzantine {
                    return;
                }
                self.slots[idx].byzantine = true;
                // Corruption of a downed validator supplants the
                // restart: the adversary's replacement is a new process.
                self.slots[idx].crashed = false;
                self.slots[idx].node = (self.byz_factory)(target, self.time);
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
                    self.slots[idx].transitions.push((self.time, false));
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
                self.slots[idx].node = (self.restart_factory)(target, self.time);
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
        self.slots[idx].transitions.push((self.time, true));
        self.deliver_buffered(idx);
        self.call_node(idx, |node, ctx| node.on_wake(ctx));
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
    fn call_node(&mut self, idx: usize, f: impl FnOnce(&mut Box<dyn Node>, &mut Context)) {
        let mut ctx = self.context(idx);
        let mut node: Box<dyn Node> = std::mem::replace(&mut self.slots[idx].node, Box::new(IdleNode));
        f(&mut node, &mut ctx);
        self.slots[idx].node = node;
        self.metrics.record_crypto(ctx.crypto_ops);
        self.apply_actions(ValidatorId::new(idx as u32), ctx.take_outbox(), ctx.take_decisions());
    }

    fn apply_command(&mut self, cmd: AdversaryCommand) {
        match cmd {
            AdversaryCommand::Corrupt(v) => {
                if self.corruption.effective_time(v).is_some() {
                    return; // already scheduled or Byzantine
                }
                let eff = self.corruption.schedule(v, self.time, self.cfg.delta);
                self.push_event(eff, EventKind::Corrupt, v);
            }
            AdversaryCommand::Sleep(v) => self.push_event(self.time + 1, EventKind::Sleep, v),
            AdversaryCommand::Wake(v) => self.push_event(self.time + 1, EventKind::Wake, v),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{InstanceId, Log, Payload, SignedMessage};

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


    /// Logs `(tick, validator, incarnation, callback)` of every call made
    /// to any [`CallProbe`] of a run.
    type CallLog = Arc<std::sync::Mutex<Vec<(u64, u32, &'static str, &'static str)>>>;

    struct CallProbe {
        me: ValidatorId,
        incarnation: &'static str,
        log: CallLog,
    }

    impl CallProbe {
        fn record(&self, ctx: &Context, call: &'static str) {
            self.log.lock().unwrap().push((ctx.time.ticks(), self.me.raw(), self.incarnation, call));
        }
    }

    impl Node for CallProbe {
        fn on_wake(&mut self, ctx: &mut Context) {
            self.record(ctx, "wake");
        }
        fn on_phase(&mut self, ctx: &mut Context) {
            self.record(ctx, "phase");
        }
        fn on_message(&mut self, _msg: &SignedMessage, _ctx: &mut Context) {}
        fn on_state_fault(&mut self, _fault: &StateFault, ctx: &mut Context) {
            self.record(ctx, "fault");
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn same_tick_heap_events_keep_their_rank_order_in_both_modes() {
        let (v0, v1) = (ValidatorId::new(0), ValidatorId::new(1));
        for mode in [AdvanceMode::EventDriven, AdvanceMode::TickLoop] {
            let log = CallLog::default();
            let probe = |incarnation| {
                let log = Arc::clone(&log);
                move |me, _| Box::new(CallProbe { me, incarnation, log: Arc::clone(&log) }) as Box<dyn Node>
            };
            let cfg = SimConfig::new(2).with_seed(1);
            let mut part = ParticipationSchedule::always_awake(2);
            part.set_intervals(v1, vec![(Time::ZERO, Time::new(16))]);
            let mut corr = CorruptionSchedule::none();
            corr.schedule(v1, Time::new(8), cfg.delta); // effective t = 16
            let mut sim = Simulation::builder(cfg)
                .advance_mode(mode)
                .participation(part)
                .corruption(corr)
                .crashes(vec![(v0, Time::new(3), Time::new(11))])
                .state_faults(vec![(v0, Time::new(11), StateFault::DecidedReset)])
                .restart_factory(Box::new(probe("restarted")))
                .byzantine_factory(Box::new(probe("byzantine")))
                .node(v0, probe("genesis")(v0, Time::ZERO))
                .node(v1, probe("genesis")(v1, Time::ZERO))
                .build();
            sim.run_until(Time::new(16));
            let calls = log.lock().unwrap().clone();
            let at = |t| calls.iter().filter(|c| c.0 == t).map(|c| (c.1, c.2, c.3)).collect::<Vec<_>>();
            // Restart before StateFault: the fault hits the incarnation
            // the restart factory built, after its on_wake.
            assert_eq!(at(11), vec![(0, "restarted", "wake"), (0, "restarted", "fault")], "{mode:?}");
            // Sleep before Corrupt: the corruption wakes the factory's
            // node, which then runs the tick's phase.
            assert_eq!(
                at(16),
                vec![(1, "byzantine", "wake"), (0, "restarted", "phase"), (1, "byzantine", "phase")],
                "{mode:?}"
            );
            assert!(sim.is_byzantine(v1) && sim.is_awake(v1), "{mode:?}");
        }
    }

    #[test]
    fn a_genesis_byzantine_wake_is_never_an_honest_decision() {
        struct DecideOnWake;
        impl Node for DecideOnWake {
            fn on_wake(&mut self, ctx: &mut Context) {
                let g = Log::genesis(&ctx.store);
                ctx.decide(g);
            }
            fn on_phase(&mut self, _ctx: &mut Context) {}
            fn on_message(&mut self, _m: &SignedMessage, _ctx: &mut Context) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Simulation::builder(SimConfig::new(2).with_seed(1))
            .byzantine_node(ValidatorId::new(0), Box::new(DecideOnWake))
            .node(ValidatorId::new(1), Box::new(IdleNode))
            .build();
        sim.run_until(Time::new(4));
        let report = sim.report();
        assert_eq!(report.metrics.decisions, 1, "the wake ran and decided");
        assert!(report.decisions.is_empty(), "recorded as honest: {:?}", report.decisions);
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
}
