//! `tobsvd-check` — a randomized schedule-exploration model checker
//! for TOB-SVD, with failing-schedule shrinking.
//!
//! The paper's claims are universally quantified over adversarial
//! schedules: *any* delivery ordering within Δ, *any* sleep/wake churn,
//! *any* Byzantine cast below the corruption bound. Hand-picked
//! scenarios (the `tob_safety`/`tob_liveness` suites) sample that space
//! a few dozen points at a time; this crate searches it by the
//! thousands, in the spirit of the asynchrony-resilience analysis of
//! D'Amato–Losa–Zanolini and the good-case-latency bounds of Efron et
//! al.:
//!
//! * [`CheckScenario`] pins a complete execution — n, Δ, horizon, seed
//!   (which fixes every per-copy delay), sync mode and one list of
//!   fault [`Lever`]s — so every run is replayable. Each lever targets
//!   one validator with one [`LeverKind`]: a Byzantine strategy
//!   (equivocator, late voter, silent), a sleep window, a mid-run
//!   corruption, a *fetch corruption* (a drop/delay window over the
//!   delta-sync `BlockRequest`/`BlockResponse` traffic, guarded by the
//!   end-of-run [`NoStalledFetch`] check), a *kill/restart fault* (the
//!   validator loses all volatile state and is rebuilt from its durable
//!   store, guarded by [`Reconvergence::CRASH`]) or a *state
//!   corruption* (decided log, durability counters, verified cache or
//!   delta-sync knowledge mutated in place, which the
//!   self-stabilization plane's per-phase audits must detect and
//!   repair, guarded by [`Reconvergence::STATE`]). Validity, sampling,
//!   shrinking and the reproducer codec each walk the one list.
//! * [`ScenarioSpace`] samples scenarios *inside* the sleepy model
//!   (misbehaving set capped at `⌊(n−1)/2⌋`), where every invariant
//!   must hold; [`ScenarioSpace::hostile`] samples beyond the bound to
//!   manufacture genuine violations. Churny samples may flip to the
//!   practical drop+recover semantics and gain fetch corruptions;
//!   crashes and state corruptions each take a validator of their own.
//! * [`checker::run`] explores on scoped work-stealing threads — one
//!   derived RNG per execution, so reports (and their fingerprints) are
//!   bit-identical for any thread count.
//! * Executions carry the first-class `Invariant` bundle from
//!   `tobsvd-sim` (prefix agreement, decision monotonicity, conflicting
//!   anchor) plus [`BoundedDecisionLatency`] on fault-free scenarios,
//!   checked after every decision event.
//! * On failure, [`shrink`] delta-debugs the schedule — horizon first,
//!   then the levers kind by kind (Byzantine cast, churn events,
//!   corruptions, fetch, crash and state faults), the sync mode,
//!   workload, Δ, n, delay policy and seed — down to a locally-minimal
//!   scenario, and [`Reproducer`] serializes it as a canonical JSON
//!   artifact a `#[test]` replays byte for byte.
//!
//! # Workflow
//!
//! ```
//! use tobsvd_check::{checker, CheckConfig};
//!
//! // Explore. Any failure here is a protocol (or engine) bug.
//! let report = checker::run(&CheckConfig::new(50, 0xc0ffee));
//! assert!(report.all_passed(), "{}", report.summary());
//! ```
//!
//! Finding, shrinking and pinning a real violation (run against the
//! hostile space, so a violation is expected):
//!
//! ```no_run
//! use tobsvd_check::{checker, shrink, CheckConfig, Reproducer, ScenarioSpace};
//!
//! let cfg = CheckConfig::new(0, 7).space(ScenarioSpace::hostile());
//! let report = checker::run_until_failure(&cfg, 64, 4096);
//! if let Some(failure) = report.failures.first() {
//!     let minimal = shrink(&failure.scenario);
//!     let artifact = Reproducer {
//!         scenario: minimal.minimal,
//!         invariants: minimal.violated.iter().map(|s| s.to_string()).collect(),
//!     };
//!     std::fs::write("reproducer.json", artifact.to_json()).unwrap();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod faults;
mod invariants;
mod repro;
mod scenario;
mod shrink;
mod space;

pub use checker::{derive_seed, scenario_at, CheckConfig, CheckReport, Failure};
pub use faults::{FetchFaultDelay, FetchFaultFilter};
pub use invariants::{BoundedDecisionLatency, ChainGrowth, NoStalledFetch, Reconvergence};
pub use repro::{Reproducer, REPRO_VERSION};
pub use scenario::{
    ByzStrategy, CheckScenario, DelayKind, ExecutionVerdict, FetchFaultKind, Lever, LeverKind,
    SyncMode, OBSERVER_SAFETY,
};
pub use shrink::{shrink, ShrinkResult};
pub use space::ScenarioSpace;
