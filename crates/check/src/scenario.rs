//! Fully-explicit, replayable execution schedules.
//!
//! A [`CheckScenario`] pins *everything* an execution depends on —
//! validator count, Δ, horizon, RNG seed (which fixes every per-copy
//! delivery delay inside Δ and all workload timing), and one list of
//! fault [`Lever`]s (the Byzantine cast, the sleep/wake churn, the
//! mid-run corruptions, fetch, crash and state faults) — so the same
//! scenario value always produces bit-identical runs. That is the
//! contract the whole checker rests on: exploration samples scenarios,
//! shrinking edits them, reproducers serialize them, and a `#[test]`
//! can replay a serialized scenario byte-for-byte.

use tobsvd_adversary::{LateVoter, SilentNode, SplitBrainNode, SplitDelay};
use tobsvd_core::{TobConfig, ViewSchedule};
use tobsvd_sim::{
    standard_invariants, BestCaseDelay, CorruptionSchedule, InvariantViolation,
    ParticipationSchedule, StateFault, TobReport, TobSimulationBuilder, TxWorkload, UniformDelay,
    WorstCaseDelay,
};
use tobsvd_types::{Delta, SignerSet, Time, ValidatorId};

use crate::faults::{FetchFaultDelay, FetchFaultFilter};
use crate::invariants::{BoundedDecisionLatency, ChainGrowth, NoStalledFetch, Reconvergence};

/// Byzantine node strategy for a from-genesis corrupted validator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzStrategy {
    /// Omission: contributes nothing (always-awake crash).
    Silent,
    /// Honest logic, but every vote/proposal equivocated toward the
    /// even/odd halves of the network.
    SplitBrain,
    /// Honest content released one phase late.
    LateVoter,
}

impl ByzStrategy {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            ByzStrategy::Silent => "silent",
            ByzStrategy::SplitBrain => "split-brain",
            ByzStrategy::LateVoter => "late-voter",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.tag() == tag)
    }

    /// All strategies, in sampling order.
    pub const ALL: [ByzStrategy; 3] =
        [ByzStrategy::Silent, ByzStrategy::SplitBrain, ByzStrategy::LateVoter];
}

/// Network delay policy family (all within the synchrony clamp, so the
/// adversary reorders deliveries inside Δ but never breaks the bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayKind {
    /// Uniform random per-copy delay in `[1, Δ]` (seed-driven).
    Uniform,
    /// Every copy takes exactly Δ.
    WorstCase,
    /// Every copy arrives next tick.
    BestCase,
    /// Partition flavor: fast (1 tick) to even validators, Δ to odd.
    EvenOddSplit,
}

impl DelayKind {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            DelayKind::Uniform => "uniform",
            DelayKind::WorstCase => "worst",
            DelayKind::BestCase => "best",
            DelayKind::EvenOddSplit => "even-odd-split",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// All kinds, in sampling order.
    pub const ALL: [DelayKind; 4] = [
        DelayKind::Uniform,
        DelayKind::WorstCase,
        DelayKind::BestCase,
        DelayKind::EvenOddSplit,
    ];
}

/// Sleep semantics + catch-up machinery of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// The model's idealized buffering: messages to asleep validators
    /// are delivered in full at wake. No fetch traffic ever arises.
    Buffered,
    /// The practical §2 setting: messages to asleep validators are
    /// dropped; wakers catch up via `RECOVERY` announcements and the
    /// delta-sync `BlockRequest`/`BlockResponse` fetch subprotocol —
    /// the machinery the fetch corruptions attack.
    DropRecover,
}

impl SyncMode {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            SyncMode::Buffered => "buffered",
            SyncMode::DropRecover => "drop-recover",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.tag() == tag)
    }

    /// All modes.
    pub const ALL: [SyncMode; 2] = [SyncMode::Buffered, SyncMode::DropRecover];
}

/// What a fetch fault does to the targeted validator's sync traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchFaultKind {
    /// Suppress the copies outright (outside the synchrony model — the
    /// retry machinery must recover once the window closes).
    Drop,
    /// Stretch the copies to the full Δ (worst case the synchrony
    /// model allows).
    Delay,
}

impl FetchFaultKind {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            FetchFaultKind::Drop => "drop",
            FetchFaultKind::Delay => "delay",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// All kinds, in sampling order.
    pub const ALL: [FetchFaultKind; 2] = [FetchFaultKind::Drop, FetchFaultKind::Delay];
}

/// One fault lever: what the schedule does to one validator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lever {
    /// The targeted validator.
    pub validator: u32,
    /// What is done to it.
    pub kind: LeverKind,
}

/// The fault vocabulary of a [`CheckScenario`], one variant per lever.
/// Variant order is the canonical order of a scenario's lever list and
/// of a reproducer's sections ([`LeverKind::rank`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeverKind {
    /// Byzantine from genesis, running the [`ByzStrategy`].
    Byzantine(ByzStrategy),
    /// Asleep during `[from, until)` ticks.
    Sleep {
        /// First asleep tick.
        from: u64,
        /// First awake tick again (exclusive end).
        until: u64,
    },
    /// Turns Byzantine (silent) at tick `at` — already the *effective*
    /// time, shrink-friendly, no hidden +Δ.
    Corrupt {
        /// Effective corruption tick.
        at: u64,
    },
    /// During `[from, until)` ticks, every `BlockRequest`/`BlockResponse`
    /// copy sent by *or addressed to* the validator is dropped or
    /// worst-case-delayed. Announcements are untouched — the attack
    /// targets exactly the catch-up subprotocol.
    Fetch {
        /// First faulty tick.
        from: u64,
        /// First clean tick again (exclusive end).
        until: u64,
        /// Drop or delay.
        kind: FetchFaultKind,
    },
    /// Loses its entire volatile state at tick `at` and is rebuilt at
    /// `restart_at` from its durable store (snapshot + WAL suffix),
    /// finishing catch-up through the §2 recovery broadcast and the
    /// delta-sync fetch plane.
    Crash {
        /// Crash tick (volatile state destroyed, deliveries dropped).
        at: u64,
        /// Restart tick (must be after `at`); a restart past the
        /// horizon leaves the validator down for the rest of the run.
        restart_at: u64,
    },
    /// In-memory (or durable) state mutated by `fault` at tick `at`.
    /// Unlike `Corrupt` (which *replaces* the node with a Byzantine
    /// one), the node stays honest — the self-stabilization plane's
    /// per-phase local audits must detect the illegal state and repair
    /// it through the §2 recovery broadcast and the delta-sync fetch
    /// plane, and the end-of-run [`Reconvergence::STATE`] check bounds
    /// how long repair may take.
    State {
        /// Corruption tick.
        at: u64,
        /// The state mutation applied.
        fault: StateFault,
    },
}

impl LeverKind {
    /// Number of lever kinds (the range of [`LeverKind::rank`]).
    pub const COUNT: usize = 6;

    /// The kind's position in canonical order: Byzantine, sleep,
    /// corruption, fetch, crash, state.
    pub fn rank(&self) -> usize {
        match self {
            LeverKind::Byzantine(_) => 0,
            LeverKind::Sleep { .. } => 1,
            LeverKind::Corrupt { .. } => 2,
            LeverKind::Fetch { .. } => 3,
            LeverKind::Crash { .. } => 4,
            LeverKind::State { .. } => 5,
        }
    }
}

impl Lever {
    /// The lever's first tick and, for a window or a crash, its end.
    fn ticks(&self) -> (u64, Option<u64>) {
        match self.kind {
            LeverKind::Byzantine(_) => (0, None),
            LeverKind::Sleep { from, until } | LeverKind::Fetch { from, until, .. } => {
                (from, Some(until))
            }
            LeverKind::Corrupt { at } | LeverKind::State { at, .. } => (at, None),
            LeverKind::Crash { at, restart_at } => (at, Some(restart_at)),
        }
    }

    /// Canonical sort key: kind, then validator, then ticks.
    pub(crate) fn order_key(&self) -> (usize, u32, u64, Option<u64>) {
        let (first, end) = self.ticks();
        (self.kind.rank(), self.validator, first, end)
    }
}

/// A fully-specified, deterministic, replayable execution schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckScenario {
    /// Number of validators.
    pub n: u32,
    /// Δ in ticks.
    pub delta: u64,
    /// Views simulated (horizon = view-start of `views` plus 2Δ).
    pub views: u64,
    /// RNG seed: fixes delivery orderings within Δ and workload times.
    pub seed: u64,
    /// Network delay policy.
    pub delay: DelayKind,
    /// Transactions submitted right before every view.
    pub txs_per_view: u32,
    /// Every fault, in canonical order (see [`LeverKind`]).
    pub levers: Vec<Lever>,
    /// Sleep semantics (buffered model vs practical drop + recovery).
    pub sync: SyncMode,
}

/// The checker's summary of one executed scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionVerdict {
    /// Invariant violations (empty = the execution passed).
    pub violations: Vec<InvariantViolation>,
    /// The engine observer's own online safety flag (cross-validates
    /// the `prefix-agreement` invariant).
    pub observer_safe: bool,
    /// Blocks decided beyond genesis.
    pub decided_blocks: u64,
    /// Ticks the event-driven engine actually executed.
    pub executed_ticks: u64,
}

/// Marker used in failure signatures when the engine's own observer
/// flagged unsafety. Normally redundant with `prefix-agreement` (the
/// two cross-validate each other); seeing it *alone* in a signature
/// means the invariant bundle and the observer disagree — an engine or
/// invariant bug.
pub const OBSERVER_SAFETY: &str = "observer-safety";

impl ExecutionVerdict {
    /// Condenses a finished run's report into a verdict.
    pub fn of(report: &TobReport) -> Self {
        ExecutionVerdict {
            violations: report.report.invariant_violations.clone(),
            observer_safe: report.report.safe,
            decided_blocks: report.decided_blocks(),
            executed_ticks: report.report.metrics.executed_ticks,
        }
    }

    /// Whether every invariant held and the observer agrees.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.observer_safe
    }

    /// The distinct names of violated invariants, in first-violation
    /// order.
    pub fn violated_invariants(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for v in &self.violations {
            if !names.contains(&v.invariant) {
                names.push(v.invariant);
            }
        }
        names
    }

    /// The complete failure signature: every violated invariant, plus
    /// [`OBSERVER_SAFETY`] when the engine observer flagged the run.
    /// Non-empty iff `!self.passed()` — this is the predicate the
    /// checker reports on and the shrinker preserves.
    pub fn failure_signature(&self) -> Vec<&'static str> {
        let mut names = self.violated_invariants();
        if !self.observer_safe {
            names.push(OBSERVER_SAFETY);
        }
        names
    }
}

impl CheckScenario {
    /// The smallest interesting scenario: `n` fault-free validators,
    /// uniform delays, one tx per view.
    pub fn fault_free(n: u32, delta: u64, views: u64, seed: u64) -> Self {
        CheckScenario {
            n,
            delta,
            views,
            seed,
            delay: DelayKind::Uniform,
            txs_per_view: 1,
            levers: Vec::new(),
            sync: SyncMode::Buffered,
        }
    }

    /// Whether the scenario is structurally valid (executable without
    /// panicking): positive sizes, `n` within the signer bitmap's
    /// [`SignerSet::CAPACITY`], every lever on a validator in range with
    /// a non-empty window, and at least one honest validator left.
    pub fn is_valid(&self) -> bool {
        let n = self.n;
        n >= 1
            && n as usize <= SignerSet::CAPACITY
            && self.delta >= 1
            && self.views >= 1
            && self.byzantine_count() < n as usize
            && self.levers.iter().all(|l| {
                let (first, end) = l.ticks();
                l.validator < n && end.map_or(true, |end| first < end)
            })
    }

    /// Total number of adversarial/churn ingredients — the size metric
    /// shrinking minimizes (after views).
    pub fn complexity(&self) -> usize {
        self.levers.len()
    }

    /// Whether nothing adversarial is scheduled (enables the
    /// good-leader latency-bound invariant). Fetch windows alone do not
    /// count: they touch only catch-up traffic, never a vote.
    pub fn is_fault_free(&self) -> bool {
        self.levers.iter().all(|l| matches!(l.kind, LeverKind::Fetch { .. }))
    }

    /// Whether the Byzantine cast exceeds the `⌊(n−1)/2⌋` corruption
    /// bound — the known-bad regime where liveness is expected to die
    /// (and the chain-growth invariant is installed to witness it).
    pub fn overloaded(&self) -> bool {
        self.byzantine_count() > (self.n as usize - 1) / 2
    }

    /// Size of the Byzantine-from-genesis cast.
    fn byzantine_count(&self) -> usize {
        self.levers.iter().filter(|l| matches!(l.kind, LeverKind::Byzantine(_))).count()
    }

    /// The longest sleep window plus the longest fetch-fault window
    /// (saturating): while either lasts, the network may legitimately
    /// withhold catch-up traffic, so the end-of-run checks add it to
    /// their bounds.
    pub fn longest_windows(&self) -> u64 {
        let (mut sleep, mut fetch) = (0u64, 0u64);
        for lever in &self.levers {
            match lever.kind {
                LeverKind::Sleep { from, until } => sleep = sleep.max(until - from),
                LeverKind::Fetch { from, until, .. } => fetch = fetch.max(until - from),
                _ => {}
            }
        }
        sleep.saturating_add(fetch)
    }

    /// End-of-run tick ([`ViewSchedule::run_end`]).
    pub fn horizon(&self) -> Time {
        ViewSchedule::new(Delta::new(self.delta)).run_end(self.views)
    }

    /// The participation schedule realized by the sleep windows.
    pub fn participation(&self) -> ParticipationSchedule {
        let mut sched = ParticipationSchedule::always_awake(self.n as usize);
        let end = self.horizon() + 1;
        for v in 0..self.n {
            let mut windows: Vec<(u64, u64)> = self
                .levers
                .iter()
                .filter_map(|l| match l.kind {
                    LeverKind::Sleep { from, until } if l.validator == v => {
                        Some((from, until.min(end.ticks())))
                    }
                    _ => None,
                })
                .filter(|(f, u)| f < u)
                .collect();
            if windows.is_empty() {
                continue;
            }
            windows.sort_unstable();
            // Merge overlapping sleep windows, then complement into
            // awake intervals over [0, end).
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(windows.len());
            for (f, u) in windows {
                match merged.last_mut() {
                    Some((_, last)) if f <= *last => *last = (*last).max(u),
                    _ => merged.push((f, u)),
                }
            }
            let mut awake = Vec::with_capacity(merged.len() + 1);
            let mut cursor = 0u64;
            for (f, u) in merged {
                if cursor < f {
                    awake.push((Time::new(cursor), Time::new(f)));
                }
                cursor = cursor.max(u);
            }
            if cursor < end.ticks() {
                awake.push((Time::new(cursor), end));
            }
            sched.set_intervals(ValidatorId::new(v), awake);
        }
        sched
    }

    /// Builds and runs the scenario with the standard invariant bundle
    /// installed (plus the bounded-latency invariant when fault-free),
    /// returning the full protocol-level report.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid (see [`CheckScenario::is_valid`]);
    /// the checker only produces valid scenarios, the shrinker skips
    /// invalid candidates and the reproducer parser rejects them.
    pub fn run_report(&self) -> TobReport {
        assert!(self.is_valid(), "invalid scenario: {self:?}");
        let n = self.n as usize;
        let delta = Delta::new(self.delta);
        let drop_mode = self.sync == SyncMode::DropRecover;
        let mut builder = TobSimulationBuilder::new(n)
            .views(self.views)
            .seed(self.seed)
            .delta(delta)
            .recovery(drop_mode)
            .workload(if self.txs_per_view == 0 {
                TxWorkload::None
            } else {
                TxWorkload::PerView { count: self.txs_per_view as usize, size: 32 }
            });

        let (half_a, half_b): (Vec<_>, Vec<_>) = ValidatorId::all(n).partition(|v| v.index() % 2 == 0);
        let mut corruption = CorruptionSchedule::none();
        let (mut drop_windows, mut delay_windows) = (Vec::new(), Vec::new());
        for lever in &self.levers {
            let v = ValidatorId::new(lever.validator);
            match lever.kind {
                LeverKind::Byzantine(strategy) => {
                    let cfg = TobConfig::new(n).with_delta(delta);
                    let (a, b) = (half_a.clone(), half_b.clone());
                    builder = builder.byzantine(
                        v,
                        match strategy {
                            ByzStrategy::Silent => Box::new(|_| Box::new(SilentNode)),
                            ByzStrategy::SplitBrain => Box::new(move |store| {
                                Box::new(SplitBrainNode::new(v, cfg, store, a, b))
                            }),
                            ByzStrategy::LateVoter => {
                                Box::new(move |store| Box::new(LateVoter::new(v, cfg, store)))
                            }
                        },
                    );
                }
                // Sleep windows are realized by `participation()`.
                LeverKind::Sleep { .. } => {}
                LeverKind::Corrupt { at } => corruption.insert_effective(v, Time::new(at)),
                LeverKind::Fetch { from, until, kind } => match kind {
                    FetchFaultKind::Drop => drop_windows.push((v, from, until)),
                    FetchFaultKind::Delay => delay_windows.push((v, from, until)),
                },
                LeverKind::Crash { at, restart_at } => {
                    builder = builder.crash_restart(v, Time::new(at), Time::new(restart_at));
                }
                LeverKind::State { at, fault } => {
                    builder = builder.state_fault(v, Time::new(at), fault);
                }
            }
        }

        let base_delay: Box<dyn tobsvd_sim::DelayPolicy> = match self.delay {
            DelayKind::Uniform => Box::new(UniformDelay),
            DelayKind::WorstCase => Box::new(WorstCaseDelay),
            DelayKind::BestCase => Box::new(BestCaseDelay),
            DelayKind::EvenOddSplit => Box::new(SplitDelay::new(
                ValidatorId::all(n).filter(|v| v.index() % 2 == 0),
            )),
        };
        let delay: Box<dyn tobsvd_sim::DelayPolicy> = if delay_windows.is_empty() {
            base_delay
        } else {
            Box::new(FetchFaultDelay::new(base_delay, delay_windows))
        };
        let filter = (!drop_windows.is_empty()).then(|| FetchFaultFilter::new(drop_windows));

        let mut invariants = standard_invariants();
        if self.is_fault_free() {
            invariants.push(Box::new(BoundedDecisionLatency::good_case(delta)));
        }
        if self.is_fault_free() || self.overloaded() {
            invariants.push(Box::new(ChainGrowth::new()));
        }
        let participation = self.participation();
        builder = builder.engine(move |sim| {
            let sim = sim
                .drop_while_asleep(drop_mode)
                .participation(participation)
                .delay(delay)
                .corruption(corruption)
                .byzantine_factory(Box::new(|_, _| Box::new(SilentNode)));
            let sim = match filter {
                Some(filter) => sim.delivery_filter(Box::new(filter)),
                None => sim,
            };
            invariants.into_iter().fold(sim, |sim, inv| sim.invariant(inv))
        });

        let mut report = builder.run().expect("validated scenario");
        // End-of-run fetch-liveness check: no honest validator may end
        // the run with a message parked past the scenario's stall bound.
        // Appended to the engine's violations so the verdict, shrinker
        // and reproducers treat it like any other invariant.
        report
            .report
            .invariant_violations
            .extend(NoStalledFetch::for_scenario(self).check(&report));
        // End-of-run crash-recovery check: every validator restarted
        // with enough remaining horizon must have re-converged onto the
        // common decided anchor through its snapshot + WAL + delta-sync.
        report
            .report
            .invariant_violations
            .extend(Reconvergence::after_restarts(self).check(&report));
        // End-of-run self-stabilization check: every validator whose
        // state was corrupted with enough remaining horizon must have
        // audited, repaired and re-converged onto the common anchor.
        report
            .report
            .invariant_violations
            .extend(Reconvergence::after_state_faults(self).check(&report));
        report
    }

    /// Runs the scenario and condenses the result into a verdict.
    pub fn run(&self) -> ExecutionVerdict {
        ExecutionVerdict::of(&self.run_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lever(validator: u32, kind: LeverKind) -> Lever {
        Lever { validator, kind }
    }

    #[test]
    fn fault_free_scenario_passes_all_invariants() {
        let verdict = CheckScenario::fault_free(5, 4, 6, 7).run();
        assert!(verdict.passed(), "violations: {:?}", verdict.violations);
        assert!(verdict.decided_blocks >= 5);
    }

    #[test]
    fn scenario_runs_are_bit_identical() {
        let scenario = CheckScenario {
            n: 5,
            delta: 4,
            views: 6,
            seed: 99,
            delay: DelayKind::Uniform,
            txs_per_view: 2,
            levers: vec![
                lever(4, LeverKind::Byzantine(ByzStrategy::SplitBrain)),
                lever(2, LeverKind::Sleep { from: 10, until: 40 }),
                lever(3, LeverKind::Corrupt { at: 32 }),
                lever(2, LeverKind::Fetch { from: 40, until: 56, kind: FetchFaultKind::Drop }),
                lever(1, LeverKind::Crash { at: 50, restart_at: 70 }),
                lever(0, LeverKind::State { at: 44, fault: StateFault::SyncAmnesia }),
            ],
            sync: SyncMode::DropRecover,
        };
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a, b);
    }

    #[test]
    fn drop_recover_scenario_with_fetch_faults_passes_in_bound() {
        // A napper under drop semantics whose fetch traffic is attacked
        // in a bounded window: retries must recover, every invariant
        // (incl. no-stalled-fetch) must hold, and the run must actually
        // exercise the fetch subprotocol.
        let delta = 4u64;
        let scenario = CheckScenario {
            n: 6,
            delta,
            views: 10,
            seed: 7,
            delay: DelayKind::BestCase,
            txs_per_view: 1,
            levers: vec![
                // Nap across a whole view so the forwarding tail of an
                // entire view's traffic is dropped.
                lever(0, LeverKind::Sleep { from: 3 * delta, until: 8 * delta }),
                lever(
                    0,
                    LeverKind::Fetch {
                        from: 8 * delta,
                        until: 11 * delta,
                        kind: FetchFaultKind::Drop,
                    },
                ),
                lever(
                    0,
                    LeverKind::Fetch {
                        from: 11 * delta,
                        until: 13 * delta,
                        kind: FetchFaultKind::Delay,
                    },
                ),
            ],
            sync: SyncMode::DropRecover,
        };
        let report = scenario.run_report();
        let verdict = ExecutionVerdict::of(&report);
        assert!(verdict.passed(), "violations: {:?}", verdict.violations);
        assert!(
            report.report.metrics.filtered > 0,
            "the drop window must actually suppress fetch copies"
        );
        let napper = report.validator(ValidatorId::new(0)).expect("napper is honest").sync();
        assert!(
            napper.blocks_fetched() > 0 || napper.requests_sent() > 0,
            "the napper must exercise the fetch machinery"
        );
        assert_eq!(napper.pending_len(), 0, "all parked messages must resolve by run end");
    }

    #[test]
    fn crash_restart_scenario_recovers_and_reconverges() {
        // Kill a validator mid-view and restart it three views later:
        // it must rebuild from its snapshot + WAL, close the remaining
        // gap over the delta-sync fetch plane, and end the run on the
        // common decided anchor — with prefix agreement and the
        // re-convergence check both holding.
        let delta = 4u64;
        let view = 4 * delta;
        let scenario = CheckScenario {
            sync: SyncMode::DropRecover,
            levers: vec![lever(1, LeverKind::Crash { at: 5 * view + 3, restart_at: 8 * view })],
            ..CheckScenario::fault_free(5, delta, 14, 6)
        };
        assert!(!scenario.is_fault_free(), "a crash is a fault");
        let report = scenario.run_report();
        let verdict = ExecutionVerdict::of(&report);
        assert!(verdict.passed(), "violations: {:?}", verdict.violations);
        assert_eq!(report.report.metrics.crashes, 1, "the kill fault must fire");
        let restarted = report.validator(ValidatorId::new(1)).expect("restarted validator is up");
        assert!(
            restarted.persisted_len() > 1,
            "decisions must have reached the durable store before the crash"
        );
        assert_eq!(restarted.wal_errors(), 0);
        let (len, max) = (restarted.decided().len(), report.max_decided_len());
        assert!(len + 2 >= max, "restarted validator stuck at {len} of {max}");
    }

    #[test]
    fn invalid_crashes_are_rejected() {
        let mut scenario = CheckScenario::fault_free(4, 4, 5, 1);
        scenario.levers = vec![lever(9, LeverKind::Crash { at: 3, restart_at: 8 })];
        assert!(!scenario.is_valid(), "out-of-range crash validator");
        scenario.levers = vec![lever(0, LeverKind::Crash { at: 8, restart_at: 8 })];
        assert!(!scenario.is_valid(), "restart must come after the crash");
        scenario.levers = vec![lever(0, LeverKind::Crash { at: 3, restart_at: 8 })];
        assert!(scenario.is_valid());
        assert_eq!(scenario.complexity(), 1);
    }

    /// An `n` past the signer bitmap's width cannot run (the builder
    /// refuses it), so it must not pass as valid either.
    #[test]
    fn n_beyond_signer_capacity_is_invalid() {
        let cap = SignerSet::CAPACITY as u32;
        assert!(CheckScenario::fault_free(cap, 4, 5, 1).is_valid());
        assert!(!CheckScenario::fault_free(cap + 1, 4, 5, 1).is_valid());
    }

    #[test]
    fn longest_windows_adds_the_longest_sleep_and_fetch_window() {
        let scenario = CheckScenario {
            levers: vec![
                lever(0, LeverKind::Sleep { from: 2, until: 9 }),
                lever(1, LeverKind::Sleep { from: 5, until: 8 }),
                lever(0, LeverKind::Fetch { from: 9, until: 13, kind: FetchFaultKind::Drop }),
                lever(2, LeverKind::Crash { at: 1, restart_at: 100 }),
            ],
            ..CheckScenario::fault_free(4, 4, 5, 1)
        };
        assert_eq!(scenario.longest_windows(), 7 + 4);
        assert_eq!(CheckScenario::fault_free(4, 4, 5, 1).longest_windows(), 0);
    }

    #[test]
    fn participation_complements_sleep_windows() {
        let mut scenario = CheckScenario::fault_free(3, 4, 4, 1);
        scenario.levers = vec![
            lever(1, LeverKind::Sleep { from: 5, until: 10 }),
            lever(1, LeverKind::Sleep { from: 8, until: 15 }),
            lever(1, LeverKind::Sleep { from: 30, until: 35 }),
        ];
        let sched = scenario.participation();
        let v = ValidatorId::new(1);
        assert!(sched.is_awake(v, Time::new(4)));
        assert!(!sched.is_awake(v, Time::new(5)));
        assert!(!sched.is_awake(v, Time::new(12)));
        assert!(sched.is_awake(v, Time::new(15)));
        assert!(!sched.is_awake(v, Time::new(32)));
        assert!(sched.is_awake(v, Time::new(40)));
        assert!(sched.is_awake(ValidatorId::new(0), Time::new(7)));
    }
}
