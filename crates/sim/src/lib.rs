//! Discrete-event simulator for the sleepy model of consensus.
//!
//! This crate is the execution substrate for every protocol in the
//! repository. It mechanizes the model of §3.1 of the TOB-SVD paper:
//!
//! * **Synchronous network with delay bound Δ** — every message sent at
//!   time `t` is delivered to every awake recipient by `t + Δ`; the exact
//!   delay of each copy is chosen by a pluggable, possibly adversarial,
//!   [`DelayPolicy`]. Deliveries at a tick are processed *before* phase
//!   timers at that tick, so "received by time t" is inclusive — the
//!   convention the paper's proofs use.
//! * **Sleep/wake (dynamic participation)** — a [`ParticipationSchedule`]
//!   gives per-validator awake intervals; messages addressed to asleep
//!   validators are buffered and delivered in full at the wake tick
//!   ("upon waking up, validators immediately receive all messages they
//!   should have received while asleep").
//! * **Growing, mildly adaptive adversary** — the Byzantine set `B_t` is
//!   monotone non-decreasing; a corruption scheduled at `t` takes effect
//!   at `t + Δ`. Byzantine validators are always awake. A live
//!   [`AdversaryController`] may schedule corruptions and sleep changes
//!   reactively during the run.
//! * **Condition (1) compliance** — [`compliance::check`] verifies that a
//!   given participation + corruption schedule satisfies
//!   `|B_{t+T_b}| < ρ·|H_{t−T_s,t} ∪ B_{t+T_b}|` for every tick, so
//!   experiments can assert they operate inside the (T_b, T_s, ρ)-sleepy
//!   model before drawing conclusions.
//!
//! Protocol logic plugs in through `tobsvd-core`'s sans-io [`Node`]
//! trait (with its [`gossip`] gate and [`Mempool`], re-exported here);
//! the engine ([`Simulation`]) owns the event loop, open-loop client
//! traffic generation is [`OpenLoopWorkload`], measurement is [`Metrics`]
//! and [`DecisionObserver`], [`TobSimulationBuilder`] assembles whole
//! TOB-SVD networks and [`GaHarness`] one standalone GA instance. The network
//! stores one `Arc`'d message per broadcast — delivery events carry the
//! shared handle, not deep copies — and charges every delivered copy
//! its exact delta-sync wire length, per message kind, alongside the
//! legacy full-chain accounting (`Metrics::inline_equiv_bytes`). An
//! optional [`DeliveryFilter`] models lossy-network adversaries for the
//! fetch-corruption experiments.
//!
//! Run-time *invariants* — first-class predicates checked after every
//! decision event (safety as prefix agreement, per-validator decision
//! monotonicity, no conflicting anchor) — are installed through
//! [`SimulationBuilder::invariant`] and defined in the [`invariant`]
//! module; the `tobsvd-check` model checker drives them over randomized
//! schedules.
//!
//! The engine is event-driven by default: time jumps straight to the
//! next scheduled event, phase boundary, or controller wakeup instead of
//! stepping tick by tick (see [`AdvanceMode`] and the advancement rules
//! in the `engine` module doc). The reference tick loop is retained as
//! [`AdvanceMode::TickLoop`] and differential tests pin the two to
//! byte-identical transcripts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compliance;
mod config;
mod controller;
mod engine;
mod harness;
pub mod invariant;
mod metrics;
mod network;
mod observer;
mod schedule;
mod tob;
mod workload;

pub use config::SimConfig;
pub use controller::{AdversaryCommand, AdversaryController, NullController, TickView};
pub use engine::{
    AdvanceMode, ByzantineFactory, RestartFactory, SimReport, Simulation, SimulationBuilder,
};
pub use harness::{GaHarness, GaKind, GaNode, GaRunResult};
pub use invariant::{
    standard_invariants, DecisionEvent, DecisionMonotonicity, Invariant, InvariantViolation,
    NoConflictingAnchor, PrefixAgreement,
};
pub use metrics::{MessageKind, Metrics};
pub use network::{BestCaseDelay, DelayPolicy, DeliveryFilter, UniformDelay, WorstCaseDelay};
pub use observer::{ConfirmedTx, DecisionObserver, DecisionRecord, SafetyViolation};
pub use schedule::{CorruptionSchedule, ParticipationSchedule};
pub use tob::{TobError, TobReport, TobSimulationBuilder, TxWorkload};
pub use workload::{Arrival, OpenLoopSpec, OpenLoopWorkload};
pub use tobsvd_core::{
    garbage_bytes, gossip, Admission, AdmissionPolicy, AdmissionStats, Context, CryptoOps,
    IdleNode, Mempool, Node, Outgoing, StateFault, TxRecord,
};
