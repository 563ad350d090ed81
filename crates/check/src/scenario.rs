//! Fully-explicit, replayable execution schedules.
//!
//! A [`CheckScenario`] pins *everything* an execution depends on —
//! validator count, Δ, horizon, RNG seed (which fixes every per-copy
//! delivery delay inside Δ and all workload timing), the sleep/wake
//! churn, the Byzantine cast and the mid-run corruption schedule — so
//! the same scenario value always produces bit-identical runs. That is
//! the contract the whole checker rests on: exploration samples
//! scenarios, shrinking edits them, reproducers serialize them, and a
//! `#[test]` can replay a serialized scenario byte-for-byte.

use rand::rngs::StdRng;
use rand::Rng;
use tobsvd_adversary::{LateVoter, SilentNode, SplitBrainNode, SplitDelay};
use tobsvd_core::{TobConfig, TobReport, TobSimulationBuilder, TxWorkload, ViewSchedule};
use tobsvd_sim::{
    standard_invariants, BestCaseDelay, CorruptionSchedule, InvariantViolation,
    ParticipationSchedule, StateFault, UniformDelay, WorstCaseDelay,
};
use tobsvd_types::{Delta, Time, ValidatorId, View};

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
        match tag {
            "silent" => Some(ByzStrategy::Silent),
            "split-brain" => Some(ByzStrategy::SplitBrain),
            "late-voter" => Some(ByzStrategy::LateVoter),
            _ => None,
        }
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
        match tag {
            "uniform" => Some(DelayKind::Uniform),
            "worst" => Some(DelayKind::WorstCase),
            "best" => Some(DelayKind::BestCase),
            "even-odd-split" => Some(DelayKind::EvenOddSplit),
            _ => None,
        }
    }

    /// All kinds, in sampling order.
    pub const ALL: [DelayKind; 4] = [
        DelayKind::Uniform,
        DelayKind::WorstCase,
        DelayKind::BestCase,
        DelayKind::EvenOddSplit,
    ];
}

/// One churn event: `validator` is asleep during `[from, until)` ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SleepWindow {
    /// The sleeping validator.
    pub validator: u32,
    /// First asleep tick.
    pub from: u64,
    /// First awake tick again (exclusive end).
    pub until: u64,
}

/// One mid-run corruption: `validator` turns Byzantine (silent) at tick
/// `at` (already the *effective* time — shrink-friendly, no hidden +Δ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corruption {
    /// The corrupted validator.
    pub validator: u32,
    /// Effective corruption tick.
    pub at: u64,
}

/// One kill/restart fault: `validator` loses its entire volatile state
/// at tick `at` and is rebuilt at `restart_at` from its durable store
/// (snapshot + WAL suffix), finishing catch-up through the §2 recovery
/// broadcast and the delta-sync fetch plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashRestart {
    /// The crashed validator.
    pub validator: u32,
    /// Crash tick (volatile state destroyed, deliveries dropped).
    pub at: u64,
    /// Restart tick (must be after `at`); a restart past the horizon
    /// leaves the validator down for the rest of the run.
    pub restart_at: u64,
}

/// One scheduled state corruption: `validator`'s in-memory (or durable)
/// state is mutated by `fault` at tick `at`. Unlike a [`Corruption`]
/// (which *replaces* the node with a Byzantine one), the node stays
/// honest — the self-stabilization plane's per-phase local audits must
/// detect the illegal state and repair it through the §2 recovery
/// broadcast and the delta-sync fetch plane, and the end-of-run
/// [`Reconvergence::STATE`] check bounds how long repair may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateCorruption {
    /// The corrupted validator.
    pub validator: u32,
    /// Corruption tick.
    pub at: u64,
    /// The state mutation applied.
    pub fault: StateFault,
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
        match tag {
            "buffered" => Some(SyncMode::Buffered),
            "drop-recover" => Some(SyncMode::DropRecover),
            _ => None,
        }
    }
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
        match tag {
            "drop" => Some(FetchFaultKind::Drop),
            "delay" => Some(FetchFaultKind::Delay),
            _ => None,
        }
    }
}

/// One fetch corruption: during `[from, until)` ticks, every
/// `BlockRequest`/`BlockResponse` copy sent by *or addressed to*
/// `validator` is dropped or worst-case-delayed. Announcements are
/// untouched — the attack targets exactly the catch-up subprotocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchFault {
    /// The validator whose sync traffic is attacked.
    pub validator: u32,
    /// First faulty tick.
    pub from: u64,
    /// First clean tick again (exclusive end).
    pub until: u64,
    /// Drop or delay.
    pub kind: FetchFaultKind,
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
    /// Byzantine-from-genesis cast.
    pub byz: Vec<(u32, ByzStrategy)>,
    /// Sleep/wake churn events.
    pub sleeps: Vec<SleepWindow>,
    /// Mid-run corruptions (replacement strategy: silent).
    pub corruptions: Vec<Corruption>,
    /// Sleep semantics (buffered model vs practical drop + recovery).
    pub sync: SyncMode,
    /// Fetch-subprotocol corruptions (drop/delay windows).
    pub fetch_faults: Vec<FetchFault>,
    /// Kill/restart faults (durable-storage crash recovery).
    pub crashes: Vec<CrashRestart>,
    /// State-corruption faults (self-stabilization plane).
    pub state_faults: Vec<StateCorruption>,
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
            byz: Vec::new(),
            sleeps: Vec::new(),
            corruptions: Vec::new(),
            sync: SyncMode::Buffered,
            fetch_faults: Vec::new(),
            crashes: Vec::new(),
            state_faults: Vec::new(),
        }
    }

    /// Whether the scenario is structurally valid (executable without
    /// panicking): positive sizes and every referenced validator in
    /// range, with at least one honest validator left.
    pub fn is_valid(&self) -> bool {
        let n = self.n;
        n >= 1
            && self.delta >= 1
            && self.views >= 1
            && self.byz.len() < n as usize
            && self.byz.iter().all(|(v, _)| *v < n)
            && self.sleeps.iter().all(|w| w.validator < n && w.from < w.until)
            && self.corruptions.iter().all(|c| c.validator < n)
            && self.fetch_faults.iter().all(|f| f.validator < n && f.from < f.until)
            && self.crashes.iter().all(|c| c.validator < n && c.at < c.restart_at)
            && self.state_faults.iter().all(|f| f.validator < n)
    }

    /// Total number of adversarial/churn ingredients — the size metric
    /// shrinking minimizes (after views).
    pub fn complexity(&self) -> usize {
        self.byz.len()
            + self.sleeps.len()
            + self.corruptions.len()
            + self.fetch_faults.len()
            + self.crashes.len()
            + self.state_faults.len()
    }

    /// Whether nothing adversarial is scheduled (enables the
    /// good-leader latency-bound invariant).
    pub fn is_fault_free(&self) -> bool {
        self.byz.is_empty()
            && self.sleeps.is_empty()
            && self.corruptions.is_empty()
            && self.crashes.is_empty()
            && self.state_faults.is_empty()
    }

    /// Whether the Byzantine cast exceeds the `⌊(n−1)/2⌋` corruption
    /// bound — the known-bad regime where liveness is expected to die
    /// (and the chain-growth invariant is installed to witness it).
    pub fn overloaded(&self) -> bool {
        self.byz.len() > (self.n as usize - 1) / 2
    }

    /// End-of-run tick, matching `TobSimulationBuilder`'s horizon rule.
    pub fn horizon(&self) -> Time {
        let delta = Delta::new(self.delta);
        ViewSchedule::new(delta).view_start(View::new(self.views)) + delta * 2
    }

    /// The participation schedule realized by the sleep windows.
    pub fn participation(&self) -> ParticipationSchedule {
        let mut sched = ParticipationSchedule::always_awake(self.n as usize);
        let end = self.horizon() + 1;
        for v in 0..self.n {
            let mut windows: Vec<(u64, u64)> = self
                .sleeps
                .iter()
                .filter(|w| w.validator == v)
                .map(|w| (w.from, w.until.min(end.ticks())))
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
    /// the checker only produces valid scenarios and the shrinker skips
    /// invalid candidates.
    pub fn run_report(&self) -> TobReport {
        assert!(self.is_valid(), "invalid scenario: {self:?}");
        let n = self.n as usize;
        let delta = Delta::new(self.delta);
        let drop_mode = self.sync == SyncMode::DropRecover;
        let mut builder = TobSimulationBuilder::new(n)
            .views(self.views)
            .seed(self.seed)
            .delta(delta)
            .drop_while_asleep(drop_mode)
            .recovery(drop_mode)
            .workload(if self.txs_per_view == 0 {
                TxWorkload::None
            } else {
                TxWorkload::PerView { count: self.txs_per_view as usize, size: 32 }
            })
            .participation(self.participation());

        let base_delay: Box<dyn tobsvd_sim::DelayPolicy> = match self.delay {
            DelayKind::Uniform => Box::new(UniformDelay),
            DelayKind::WorstCase => Box::new(WorstCaseDelay),
            DelayKind::BestCase => Box::new(BestCaseDelay),
            DelayKind::EvenOddSplit => Box::new(SplitDelay::new(
                ValidatorId::all(n).filter(|v| v.index() % 2 == 0),
            )),
        };
        let delay_faults: Vec<FetchFault> = self
            .fetch_faults
            .iter()
            .filter(|f| f.kind == FetchFaultKind::Delay)
            .copied()
            .collect();
        builder = if delay_faults.is_empty() {
            builder.delay(base_delay)
        } else {
            builder.delay(Box::new(FetchFaultDelay::new(base_delay, delay_faults)))
        };
        let drop_faults: Vec<FetchFault> = self
            .fetch_faults
            .iter()
            .filter(|f| f.kind == FetchFaultKind::Drop)
            .copied()
            .collect();
        if !drop_faults.is_empty() {
            builder = builder.delivery_filter(Box::new(FetchFaultFilter::new(drop_faults)));
        }

        let half_a: Vec<ValidatorId> =
            ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
        let half_b: Vec<ValidatorId> =
            ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
        for (v, strategy) in &self.byz {
            let v = ValidatorId::new(*v);
            let cfg = TobConfig::new(n).with_delta(delta);
            builder = match strategy {
                ByzStrategy::Silent => builder.byzantine(v, Box::new(|_| Box::new(SilentNode))),
                ByzStrategy::SplitBrain => {
                    let (a, b) = (half_a.clone(), half_b.clone());
                    builder.byzantine(
                        v,
                        Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
                    )
                }
                ByzStrategy::LateVoter => builder.byzantine(
                    v,
                    Box::new(move |store| Box::new(LateVoter::new(v, cfg, store))),
                ),
            };
        }

        if !self.corruptions.is_empty() {
            let mut corr = CorruptionSchedule::none();
            for c in &self.corruptions {
                corr.insert_effective(ValidatorId::new(c.validator), Time::new(c.at));
            }
            builder = builder
                .corruption(corr)
                .byzantine_replacements(Box::new(|_, _| Box::new(SilentNode)));
        }

        for c in &self.crashes {
            builder = builder.crash_restart(
                ValidatorId::new(c.validator),
                Time::new(c.at),
                Time::new(c.restart_at),
            );
        }

        for f in &self.state_faults {
            builder = builder.state_fault(ValidatorId::new(f.validator), Time::new(f.at), f.fault);
        }

        for inv in standard_invariants() {
            builder = builder.invariant(inv);
        }
        if self.is_fault_free() {
            builder = builder.invariant(Box::new(BoundedDecisionLatency::good_case(delta)));
        }
        if self.is_fault_free() || self.overloaded() {
            builder = builder.invariant(Box::new(ChainGrowth::new()));
        }

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
        let report = self.run_report();
        ExecutionVerdict {
            violations: report.report.invariant_violations.clone(),
            observer_safe: report.report.safe,
            decided_blocks: report.decided_blocks(),
            executed_ticks: report.report.metrics.executed_ticks,
        }
    }
}

/// The bounds the exploration samples scenarios from.
///
/// The default space stays *inside* the sleepy model: the set of
/// validators that is ever Byzantine or asleep is capped at the
/// `⌊(n−1)/2⌋` corruption bound, so an honest majority is awake at all
/// times and every sampled execution must satisfy every invariant — a
/// reported violation is a protocol (or engine) bug. The
/// [`ScenarioSpace::hostile`] preset deliberately samples *beyond* the
/// bound to manufacture real violations for shrinking and reproducer
/// tests.
#[derive(Clone, Debug)]
pub struct ScenarioSpace {
    /// Validator-count range (inclusive).
    pub n: (u32, u32),
    /// Δ choices.
    pub deltas: Vec<u64>,
    /// Views range (inclusive).
    pub views: (u64, u64),
    /// Max transactions per view.
    pub max_txs_per_view: u32,
    /// Max sleep windows per scenario.
    pub max_sleep_windows: u32,
    /// Max mid-run corruptions per scenario.
    pub max_corruptions: u32,
    /// Sample adversary/churn budgets beyond the model's corruption
    /// bound (guarantees eventual genuine violations).
    pub overload: bool,
    /// Attack the delta-sync plane: scenarios with churn may flip to
    /// the practical drop+recover semantics and gain fetch-corruption
    /// windows (drop/delay of `BlockRequest`/`BlockResponse` traffic).
    pub fetch_attack: bool,
    /// Max fetch-corruption windows per scenario (only sampled for
    /// drop+recover scenarios).
    pub max_fetch_faults: u32,
    /// Max kill/restart faults per scenario (each forces the practical
    /// drop+recover semantics — the machinery restarts recover through).
    pub max_crashes: u32,
    /// Max state-corruption faults per scenario (each forces the
    /// practical drop+recover semantics — repair runs over the §2
    /// recovery broadcast and the fetch plane). A zero budget draws
    /// nothing from the RNG, keeping pre-existing sample streams (and
    /// the pinned shrink fixture) byte-stable.
    pub max_state_faults: u32,
}

impl Default for ScenarioSpace {
    fn default() -> Self {
        ScenarioSpace {
            n: (4, 7),
            deltas: vec![2, 4],
            views: (4, 7),
            max_txs_per_view: 2,
            max_sleep_windows: 3,
            max_corruptions: 1,
            overload: false,
            fetch_attack: true,
            max_fetch_faults: 2,
            max_crashes: 1,
            max_state_faults: 1,
        }
    }
}

impl ScenarioSpace {
    /// A space of model-breaking scenarios: more than `⌊(n−1)/2⌋`
    /// split-brain equivocators, guaranteed to eventually produce real
    /// safety violations — the shrinking demo's hunting ground.
    /// (`fetch_attack`, `max_crashes` and `max_state_faults` stay off:
    /// the hunt targets vote equivocation, and the pinned shrink
    /// fixture predates the sync, storage and stabilization planes —
    /// extra sampling would shift its RNG stream.)
    pub fn hostile() -> Self {
        ScenarioSpace {
            overload: true,
            fetch_attack: false,
            max_crashes: 0,
            max_state_faults: 0,
            ..ScenarioSpace::default()
        }
    }

    /// Samples one scenario. Pure function of the RNG state — the
    /// checker derives one RNG per execution index, so sampling is
    /// independent of thread count.
    pub fn sample(&self, rng: &mut StdRng) -> CheckScenario {
        let n = rng.gen_range(self.n.0..=self.n.1);
        let delta = self.deltas[rng.gen_range(0..self.deltas.len())];
        let views = rng.gen_range(self.views.0..=self.views.1);
        let delay = DelayKind::ALL[rng.gen_range(0..DelayKind::ALL.len())];
        let txs_per_view = rng.gen_range(0..=self.max_txs_per_view);

        let bound = (n as usize - 1) / 2;
        // The validators allowed to misbehave (be Byzantine, sleep, or
        // get corrupted): within the model that set is capped at the
        // corruption bound; overloaded spaces may take all but one —
        // a single honest observer suffices to witness liveness death,
        // and `n - 2` would clamp back to the bound at n = 3.
        let budget = if self.overload { n as usize - 1 } else { bound };
        let mut pool: Vec<u32> = (0..n).collect();
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        pool.truncate(budget);

        let byz_count = if self.overload && !pool.is_empty() {
            // Hostile sampling goes straight past the bound: over-bound
            // equivocator casts are where guarantees genuinely break.
            rng.gen_range(((bound + 1).min(pool.len()))..=pool.len())
        } else if pool.is_empty() {
            0
        } else {
            rng.gen_range(0..=pool.len())
        };
        let mut byz: Vec<(u32, ByzStrategy)> = Vec::with_capacity(byz_count);
        for v in pool.iter().take(byz_count) {
            let strategy = if self.overload {
                // Equivocation is what actually breaks safety past the
                // bound; omission merely stalls.
                ByzStrategy::SplitBrain
            } else {
                ByzStrategy::ALL[rng.gen_range(0..ByzStrategy::ALL.len())]
            };
            byz.push((*v, strategy));
        }
        byz.sort_by_key(|(v, _)| *v);

        // Remaining misbehavior budget churns or gets corrupted mid-run.
        let rest: Vec<u32> = pool[byz_count..].to_vec();
        let horizon = CheckScenario::fault_free(n, delta, views, 0).horizon().ticks();
        let mut sleeps = Vec::new();
        let mut corruptions = Vec::new();
        if !rest.is_empty() {
            let n_sleeps = rng.gen_range(0..=self.max_sleep_windows);
            for _ in 0..n_sleeps {
                let v = rest[rng.gen_range(0..rest.len())];
                let from = rng.gen_range(0..horizon.max(1));
                let len = rng.gen_range(1..=(4 * delta).max(2));
                sleeps.push(SleepWindow { validator: v, from, until: from + len });
            }
            sleeps.sort_by_key(|w: &SleepWindow| (w.validator, w.from, w.until));
            let n_corr = rng.gen_range(0..=self.max_corruptions);
            for _ in 0..n_corr {
                let v = rest[rng.gen_range(0..rest.len())];
                if corruptions.iter().any(|c: &Corruption| c.validator == v)
                    || sleeps.iter().any(|w| w.validator == v)
                {
                    continue; // keep each lever on its own validator
                }
                corruptions.push(Corruption { validator: v, at: rng.gen_range(0..horizon.max(1)) });
            }
            corruptions.sort_by_key(|c: &Corruption| (c.validator, c.at));
        }

        // Half of the churny scenarios run the practical drop+recover
        // semantics, where the fetch subprotocol actually carries
        // traffic — and may then get fetch-corruption windows aimed at
        // the misbehaving pool (an untouched honest majority remains,
        // so every invariant must still hold).
        let mut sync = SyncMode::Buffered;
        let mut fetch_faults: Vec<FetchFault> = Vec::new();
        if self.fetch_attack && !sleeps.is_empty() && rng.gen_range(0..2) == 0 {
            sync = SyncMode::DropRecover;
            if !rest.is_empty() {
                let n_faults = rng.gen_range(0..=self.max_fetch_faults);
                for _ in 0..n_faults {
                    let v = rest[rng.gen_range(0..rest.len())];
                    let kind = if rng.gen_range(0..2) == 0 {
                        FetchFaultKind::Drop
                    } else {
                        FetchFaultKind::Delay
                    };
                    let from = rng.gen_range(0..horizon.max(1));
                    let len = rng.gen_range(1..=(4 * delta).max(2));
                    fetch_faults.push(FetchFault { validator: v, from, until: from + len, kind });
                }
                fetch_faults.sort_by_key(|f: &FetchFault| (f.validator, f.from, f.until));
            }
        }

        // Kill/restart faults come from the same misbehavior pool, each
        // on a validator no other lever touches (so the re-convergence
        // bound is attributable), and force the practical drop+recover
        // semantics: a restarted validator reconverges through the §2
        // recovery broadcast and the delta-sync fetch plane.
        let mut crashes: Vec<CrashRestart> = Vec::new();
        if self.max_crashes > 0 && !rest.is_empty() {
            let n_crashes = rng.gen_range(0..=self.max_crashes);
            for _ in 0..n_crashes {
                let v = rest[rng.gen_range(0..rest.len())];
                if crashes.iter().any(|c| c.validator == v)
                    || sleeps.iter().any(|w| w.validator == v)
                    || corruptions.iter().any(|c| c.validator == v)
                    || fetch_faults.iter().any(|f| f.validator == v)
                {
                    continue; // keep each lever on its own validator
                }
                let at = rng.gen_range(0..horizon.max(1));
                let down = rng.gen_range(1..=(4 * delta).max(2));
                crashes.push(CrashRestart { validator: v, at, restart_at: at + down });
            }
            crashes.sort_by_key(|c: &CrashRestart| (c.validator, c.at));
            if !crashes.is_empty() {
                sync = SyncMode::DropRecover;
            }
        }

        // State-corruption faults likewise take a validator no other
        // lever touches (so the re-convergence bound is attributable)
        // and force the practical drop+recover semantics: the local
        // audits repair through the §2 recovery broadcast and the
        // delta-sync fetch plane. Only volatile kinds are sampled here:
        // a durable-image fault is invisible without a restart, and the
        // crash lever lives on its own validator (the combined case is
        // covered by the dedicated crash+corruption suites). A zero
        // budget must not touch the RNG at all.
        let mut state_faults: Vec<StateCorruption> = Vec::new();
        if self.max_state_faults > 0 && !rest.is_empty() {
            let n_faults = rng.gen_range(0..=self.max_state_faults);
            for _ in 0..n_faults {
                let v = rest[rng.gen_range(0..rest.len())];
                if state_faults.iter().any(|f| f.validator == v)
                    || sleeps.iter().any(|w| w.validator == v)
                    || corruptions.iter().any(|c| c.validator == v)
                    || fetch_faults.iter().any(|f| f.validator == v)
                    || crashes.iter().any(|c| c.validator == v)
                {
                    continue; // keep each lever on its own validator
                }
                let kind = rng.gen_range(0..StateFault::MEMORY_KINDS);
                let fault = StateFault::from_draws(kind, rng.gen::<u64>());
                state_faults.push(StateCorruption {
                    validator: v,
                    at: rng.gen_range(0..horizon.max(1)),
                    fault,
                });
            }
            state_faults.sort_by_key(|f: &StateCorruption| (f.validator, f.at));
            if !state_faults.is_empty() {
                sync = SyncMode::DropRecover;
            }
        }

        CheckScenario {
            n,
            delta,
            views,
            seed: rng.gen::<u64>(),
            delay,
            txs_per_view,
            byz,
            sleeps,
            corruptions,
            sync,
            fetch_faults,
            crashes,
            state_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
            byz: vec![(4, ByzStrategy::SplitBrain)],
            sleeps: vec![SleepWindow { validator: 2, from: 10, until: 40 }],
            corruptions: vec![Corruption { validator: 3, at: 32 }],
            sync: SyncMode::DropRecover,
            fetch_faults: vec![FetchFault {
                validator: 2,
                from: 40,
                until: 56,
                kind: FetchFaultKind::Drop,
            }],
            crashes: vec![CrashRestart { validator: 1, at: 50, restart_at: 70 }],
            state_faults: vec![StateCorruption {
                validator: 0,
                at: 44,
                fault: StateFault::SyncAmnesia,
            }],
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
            byz: Vec::new(),
            // Nap across a whole view so the forwarding tail of an
            // entire view's traffic is dropped.
            sleeps: vec![SleepWindow { validator: 0, from: 3 * delta, until: 8 * delta }],
            corruptions: Vec::new(),
            sync: SyncMode::DropRecover,
            fetch_faults: vec![
                FetchFault {
                    validator: 0,
                    from: 8 * delta,
                    until: 11 * delta,
                    kind: FetchFaultKind::Drop,
                },
                FetchFault {
                    validator: 0,
                    from: 11 * delta,
                    until: 13 * delta,
                    kind: FetchFaultKind::Delay,
                },
            ],
            crashes: Vec::new(),
            state_faults: Vec::new(),
        };
        let report = scenario.run_report();
        let verdict = ExecutionVerdict {
            violations: report.report.invariant_violations.clone(),
            observer_safe: report.report.safe,
            decided_blocks: report.decided_blocks(),
            executed_ticks: report.report.metrics.executed_ticks,
        };
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
            crashes: vec![CrashRestart {
                validator: 1,
                at: 5 * view + 3,
                restart_at: 8 * view,
            }],
            ..CheckScenario::fault_free(5, delta, 14, 6)
        };
        assert!(!scenario.is_fault_free(), "a crash is a fault");
        let report = scenario.run_report();
        let verdict = ExecutionVerdict {
            violations: report.report.invariant_violations.clone(),
            observer_safe: report.report.safe,
            decided_blocks: report.decided_blocks(),
            executed_ticks: report.report.metrics.executed_ticks,
        };
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
        scenario.crashes = vec![CrashRestart { validator: 9, at: 3, restart_at: 8 }];
        assert!(!scenario.is_valid(), "out-of-range crash validator");
        scenario.crashes = vec![CrashRestart { validator: 0, at: 8, restart_at: 8 }];
        assert!(!scenario.is_valid(), "restart must come after the crash");
        scenario.crashes = vec![CrashRestart { validator: 0, at: 3, restart_at: 8 }];
        assert!(scenario.is_valid());
        assert_eq!(scenario.complexity(), 1);
    }

    #[test]
    fn participation_complements_sleep_windows() {
        let mut scenario = CheckScenario::fault_free(3, 4, 4, 1);
        scenario.sleeps = vec![
            SleepWindow { validator: 1, from: 5, until: 10 },
            SleepWindow { validator: 1, from: 8, until: 15 },
            SleepWindow { validator: 1, from: 30, until: 35 },
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

    #[test]
    fn default_space_samples_valid_model_compliant_scenarios() {
        let space = ScenarioSpace::default();
        let mut rng = StdRng::seed_from_u64(1);
        let (mut drop_recover, mut with_faults, mut with_crashes, mut with_state_faults) =
            (0, 0, 0, 0);
        for _ in 0..200 {
            let s = space.sample(&mut rng);
            assert!(s.is_valid(), "invalid sample: {s:?}");
            let bound = (s.n as usize - 1) / 2;
            let mut misbehaving: Vec<u32> = s.byz.iter().map(|(v, _)| *v).collect();
            misbehaving.extend(s.sleeps.iter().map(|w| w.validator));
            misbehaving.extend(s.corruptions.iter().map(|c| c.validator));
            misbehaving.extend(s.fetch_faults.iter().map(|f| f.validator));
            misbehaving.extend(s.crashes.iter().map(|c| c.validator));
            misbehaving.extend(s.state_faults.iter().map(|f| f.validator));
            misbehaving.sort_unstable();
            misbehaving.dedup();
            assert!(
                misbehaving.len() <= bound,
                "misbehaving set {misbehaving:?} exceeds bound {bound} in {s:?}"
            );
            if s.sync == SyncMode::DropRecover {
                drop_recover += 1;
            }
            if !s.fetch_faults.is_empty() {
                with_faults += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "faults only make sense with fetches");
            }
            if !s.crashes.is_empty() {
                with_crashes += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "restarts recover over the sync plane");
                for c in &s.crashes {
                    assert!(
                        !s.sleeps.iter().any(|w| w.validator == c.validator)
                            && !s.corruptions.iter().any(|x| x.validator == c.validator)
                            && !s.fetch_faults.iter().any(|f| f.validator == c.validator),
                        "crash validator shares a lever in {s:?}"
                    );
                }
            }
            if !s.state_faults.is_empty() {
                with_state_faults += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "repair runs over the sync plane");
                for f in &s.state_faults {
                    assert!(
                        !s.sleeps.iter().any(|w| w.validator == f.validator)
                            && !s.corruptions.iter().any(|x| x.validator == f.validator)
                            && !s.fetch_faults.iter().any(|x| x.validator == f.validator)
                            && !s.crashes.iter().any(|c| c.validator == f.validator),
                        "state-fault validator shares a lever in {s:?}"
                    );
                    assert!(
                        !matches!(
                            f.fault,
                            StateFault::SnapshotBitFlip { .. }
                                | StateFault::WalBitFlip { .. }
                                | StateFault::WalTear { .. }
                        ),
                        "sampled state faults must target volatile state: {s:?}"
                    );
                }
            }
        }
        // The space genuinely attacks the sync plane (not vacuous).
        assert!(drop_recover >= 20, "only {drop_recover} drop-recover samples");
        assert!(with_faults >= 10, "only {with_faults} fetch-fault samples");
        assert!(with_crashes >= 10, "only {with_crashes} crash samples");
        assert!(with_state_faults >= 10, "only {with_state_faults} state-fault samples");
    }

    #[test]
    fn hostile_samples_are_over_bound_even_at_n3() {
        // n = 3 is the tightest case: bound 1, so the only over-bound
        // cast is 2 Byzantine vs 1 honest. A budget of n−2 would clamp
        // back to the bound and never overload.
        let space = ScenarioSpace { n: (3, 4), ..ScenarioSpace::hostile() };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let s = space.sample(&mut rng);
            assert!(s.is_valid(), "invalid sample: {s:?}");
            assert!(s.overloaded(), "hostile sample at the bound: {s:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let space = ScenarioSpace::hostile();
        let a: Vec<CheckScenario> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| space.sample(&mut rng)).collect()
        };
        let b: Vec<CheckScenario> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| space.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
