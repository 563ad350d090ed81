//! [`SimulationBuilder`]: assembles a [`Simulation`] and schedules its
//! initial events.

use std::collections::{BTreeMap, BinaryHeap};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tobsvd_core::{IdleNode, Mempool, Node, StateFault};
use tobsvd_types::{BlockStore, Time, ValidatorId};

use super::{AdvanceMode, EventKind, Simulation, Slot};
use crate::config::SimConfig;
use crate::controller::{AdversaryController, NullController};
use crate::invariant::Invariant;
use crate::metrics::Metrics;
use crate::network::{DelayPolicy, DeliveryFilter, UniformDelay};
use crate::observer::DecisionObserver;
use crate::schedule::{CorruptionSchedule, ParticipationSchedule};

/// Factory that produces the Byzantine replacement node when a validator
/// is corrupted mid-run.
pub type ByzantineFactory = Box<dyn FnMut(ValidatorId, Time) -> Box<dyn Node> + Send>;

/// Factory that rebuilds a validator's node after a kill/restart fault.
/// Unlike a wake-up, a crash destroys all volatile state: the factory is
/// expected to reconstruct the node from durable storage (or from
/// nothing, for protocols without a storage plane).
pub type RestartFactory = Box<dyn FnMut(ValidatorId, Time) -> Box<dyn Node> + Send>;

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
    /// event (and at the end of the run by every [`Simulation::report`]).
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

    /// Finalizes the simulation and schedules its initial events.
    ///
    /// # Panics
    ///
    /// Panics if any validator slot was left without a node.
    pub fn build(self) -> Simulation {
        let n = self.cfg.n;
        // A `byzantine_node` slot is Byzantine from the start, so nothing
        // it emits at t = 0 (its `on_wake` included) counts as honest.
        let mut slots = Vec::with_capacity(n);
        for (i, node) in self.nodes.into_iter().enumerate() {
            let node = node.unwrap_or_else(|| panic!("no node installed for validator v{i}"));
            slots.push(Slot {
                node,
                awake: false,
                byzantine: self.byz_at_start[i],
                crashed: false,
                buffer: Vec::new(),
                transitions: Vec::new(),
            });
        }
        // Byzantine-from-genesis validators enter the corruption schedule
        // with effective time 0 so compliance accounting sees them.
        let mut corruption = CorruptionSchedule::from_genesis(
            ValidatorId::all(n).filter(|v| self.byz_at_start[v.index()]),
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
            target_marks: vec![false; n],
            drop_while_asleep: self.drop_while_asleep,
            advance: self.advance,
            invariants: self.invariants,
            invariant_violations: Vec::new(),
            cfg: self.cfg,
            store: self.store,
            mempool: self.mempool,
            corruption,
            delay: self.delay,
            filter: self.filter,
            controller: self.controller,
            byz_factory: self.byz_factory,
            restart_factory: self.restart_factory,
        };
        for v in ValidatorId::all(n) {
            // Byzantine validators are always awake. One that the
            // schedule (not `byzantine_node`) corrupts at genesis still
            // gets the factory's node.
            if sim.corruption.is_byzantine(v, Time::ZERO) {
                if !sim.slots[v.index()].byzantine {
                    sim.push_event(Time::ZERO, EventKind::Corrupt, v);
                }
                sim.push_event(Time::ZERO, EventKind::Wake, v);
                continue;
            }
            for (t, wake) in self.participation.transitions(v) {
                let kind = if wake { EventKind::Wake } else { EventKind::Sleep };
                sim.push_event(t, kind, v);
            }
            if let Some(eff) = sim.corruption.effective_time(v) {
                sim.push_event(eff, EventKind::Corrupt, v);
            }
        }
        for (v, at, restart_at) in self.crashes {
            sim.push_event(at, EventKind::Crash, v);
            sim.push_event(restart_at, EventKind::Restart, v);
        }
        for (v, at, fault) in self.state_faults {
            sim.push_event(at, EventKind::StateFault(fault), v);
        }
        sim
    }
}
