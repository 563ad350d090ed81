//! Declarative scenario matrices.

use tobsvd_adversary::{churn, AdaptiveLeaderCorruptor, SplitBrainNode};
use tobsvd_core::{TobConfig, TobReport, TobSimulationBuilder, TxWorkload, ViewSchedule};
use tobsvd_sim::{
    AdmissionPolicy, BestCaseDelay, ParticipationSchedule, UniformDelay, WorstCaseDelay,
};
use tobsvd_types::{Delta, Time, ValidatorId, View};

/// Participation (sleep/wake) schedule family for one scenario axis.
#[derive(Clone, Debug, PartialEq)]
pub enum ParticipationSpec {
    /// Everyone awake for the whole run.
    Full,
    /// Rotating group sleep: `groups` groups take turns sleeping for
    /// windows of `window_deltas`·Δ (see `tobsvd_adversary::churn`).
    RotatingSleep {
        /// Number of rotation groups (≥ 2; ≥ 3 keeps a majority awake).
        groups: usize,
        /// Sleep-window length in Δ.
        window_deltas: u64,
    },
    /// Independent random churn: each validator is awake with the given
    /// probability per window of `window_deltas`·Δ.
    RandomChurn {
        /// Probability of being awake in any window.
        awake_prob: f64,
        /// Window length in Δ.
        window_deltas: u64,
    },
}

impl ParticipationSpec {
    fn build(&self, n: usize, delta: Delta, horizon: Time, seed: u64) -> ParticipationSchedule {
        match *self {
            ParticipationSpec::Full => ParticipationSchedule::always_awake(n),
            ParticipationSpec::RotatingSleep { groups, window_deltas } => {
                churn::rotating_sleep(n, groups, window_deltas.saturating_mul(delta.ticks()), horizon)
            }
            ParticipationSpec::RandomChurn { awake_prob, window_deltas } => churn::random_churn(
                n,
                horizon,
                window_deltas.saturating_mul(delta.ticks()),
                awake_prob,
                seed ^ 0x5eed_c0de,
            ),
        }
    }

    fn label(&self) -> String {
        match self {
            ParticipationSpec::Full => "full".into(),
            ParticipationSpec::RotatingSleep { groups, window_deltas } => {
                format!("rot{groups}x{window_deltas}d")
            }
            ParticipationSpec::RandomChurn { awake_prob, window_deltas } => {
                format!("churn{:.0}%x{window_deltas}d", awake_prob * 100.0)
            }
        }
    }
}

/// Network delay policy family for one scenario axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelaySpec {
    /// Uniform random delay in `[1, Δ]`.
    Uniform,
    /// Every copy takes exactly Δ (adversarial worst case).
    WorstCase,
    /// Every copy arrives next tick (instantaneous network).
    BestCase,
}

impl DelaySpec {
    fn label(self) -> &'static str {
        match self {
            DelaySpec::Uniform => "uniform",
            DelaySpec::WorstCase => "worst",
            DelaySpec::BestCase => "best",
        }
    }
}

/// Adversary family for one scenario axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No faults.
    None,
    /// The last `count` validators run the split-brain strategy: honest
    /// TOB-SVD logic, but every vote and proposal is equivocated toward
    /// the even/odd halves of the network.
    SplitBrain {
        /// Number of Byzantine-from-genesis validators.
        count: usize,
    },
    /// The Lemma 2 adversary: reactively corrupts the highest-VRF
    /// proposer of each view until the budget is spent (corruptions land
    /// Δ later — mild adaptivity).
    AdaptiveLeaderCorruption {
        /// Corruption budget.
        budget: usize,
    },
}

impl AdversarySpec {
    fn label(self) -> String {
        match self {
            AdversarySpec::None => "none".into(),
            AdversarySpec::SplitBrain { count } => format!("split{count}"),
            AdversarySpec::AdaptiveLeaderCorruption { budget } => format!("adaptive{budget}"),
        }
    }
}

/// One fully-specified simulation scenario — a single cell of a
/// [`ScenarioMatrix`].
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Position in the expanded matrix (report ordering key).
    pub index: usize,
    /// Number of validators.
    pub n: usize,
    /// Δ in ticks.
    pub delta: u64,
    /// Views to simulate.
    pub views: u64,
    /// Engine seed (delays, workload times, churn sampling).
    pub seed: u64,
    /// Sleep/wake schedule family.
    pub participation: ParticipationSpec,
    /// Delay policy family.
    pub delay: DelaySpec,
    /// Adversary family.
    pub adversary: AdversarySpec,
    /// Transaction workload.
    pub workload: TxWorkload,
    /// Bounded mempool admission policy (unbounded legacy pool if
    /// `None`).
    pub admission: Option<AdmissionPolicy>,
}

impl Scenario {
    /// A compact human-readable label, e.g.
    /// `n7 d8 v10 s1 full/worst/split2` (overload rows append the
    /// workload and `capN` admission capacity).
    pub fn label(&self) -> String {
        let mut label = format!(
            "n{} d{} v{} s{} {}/{}/{}",
            self.n,
            self.delta,
            self.views,
            self.seed,
            self.participation.label(),
            self.delay.label(),
            self.adversary.label()
        );
        if let TxWorkload::OpenLoop(spec) = &self.workload {
            label.push(' ');
            label.push_str(&spec.label());
        }
        if let Some(policy) = self.admission {
            label.push_str(&format!(" cap{}", policy.capacity));
        }
        label
    }

    /// Builds and runs the scenario to completion.
    ///
    /// Every call constructs an independent simulation seeded from
    /// `self.seed` (the engine derives its own `StdRng` from it), so
    /// repeated or concurrent runs of the same scenario are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the scenario parameters are invalid (`n == 0`,
    /// `views == 0`, or an adversary count ≥ `n`) — matrices are
    /// validated programmer input, not untrusted data.
    pub fn run_report(&self) -> TobReport {
        assert!(self.n > 0, "scenario needs validators");
        assert!(self.views > 0, "scenario needs views");
        let delta = Delta::new(self.delta);
        let horizon = ViewSchedule::new(delta).view_start(View::new(self.views)) + delta * 2;
        let mut builder = TobSimulationBuilder::new(self.n)
            .views(self.views)
            .seed(self.seed)
            .delta(delta)
            .workload(self.workload.clone())
            .participation(self.participation.build(self.n, delta, horizon, self.seed));
        if let Some(policy) = self.admission {
            builder = builder.admission(policy);
        }
        builder = match self.delay {
            DelaySpec::Uniform => builder.delay(Box::new(UniformDelay)),
            DelaySpec::WorstCase => builder.delay(Box::new(WorstCaseDelay)),
            DelaySpec::BestCase => builder.delay(Box::new(BestCaseDelay)),
        };
        match self.adversary {
            AdversarySpec::None => {}
            AdversarySpec::SplitBrain { count } => {
                assert!(count < self.n, "cannot corrupt everyone");
                let half_a: Vec<ValidatorId> =
                    ValidatorId::all(self.n).filter(|v| v.index() % 2 == 0).collect();
                let half_b: Vec<ValidatorId> =
                    ValidatorId::all(self.n).filter(|v| v.index() % 2 == 1).collect();
                for v in ValidatorId::all(self.n).skip(self.n - count) {
                    let (a, b) = (half_a.clone(), half_b.clone());
                    let cfg = TobConfig::new(self.n).with_delta(delta);
                    builder = builder.byzantine(
                        v,
                        Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
                    );
                }
            }
            AdversarySpec::AdaptiveLeaderCorruption { budget } => {
                builder =
                    builder.controller(Box::new(AdaptiveLeaderCorruptor::new(delta, budget)));
            }
        }
        builder.run().expect("matrix scenarios are valid by construction")
    }
}

/// A declarative scenario matrix: the cartesian product of every axis.
///
/// Expansion order is deterministic (outermost axis first:
/// `n → Δ → participation → delay → adversary → seed`), and every
/// scenario records its index, so parallel execution can always restore
/// matrix order.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// Validator-count axis.
    pub ns: Vec<usize>,
    /// Δ axis, in ticks.
    pub deltas: Vec<u64>,
    /// Views per scenario.
    pub views: u64,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Participation axis.
    pub participation: Vec<ParticipationSpec>,
    /// Delay-policy axis.
    pub delays: Vec<DelaySpec>,
    /// Adversary axis.
    pub adversaries: Vec<AdversarySpec>,
    /// Workload applied to every scenario.
    pub workload: TxWorkload,
    /// Admission policy applied to every scenario (`None` = unbounded).
    pub admission: Option<AdmissionPolicy>,
}

impl ScenarioMatrix {
    /// A minimal matrix over the given `n` and Δ axes; every other axis
    /// starts as a singleton (full participation, uniform delays, no
    /// adversary, one-per-view workload, seed 1).
    pub fn new(ns: Vec<usize>, deltas: Vec<u64>) -> Self {
        ScenarioMatrix {
            ns,
            deltas,
            views: 10,
            seeds: vec![1],
            participation: vec![ParticipationSpec::Full],
            delays: vec![DelaySpec::Uniform],
            adversaries: vec![AdversarySpec::None],
            workload: TxWorkload::PerView { count: 2, size: 48 },
            admission: None,
        }
    }

    /// Sets the number of views per scenario.
    pub fn views(mut self, views: u64) -> Self {
        self.views = views;
        self
    }

    /// Replaces the seed axis.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the participation axis.
    pub fn participation(mut self, axis: Vec<ParticipationSpec>) -> Self {
        self.participation = axis;
        self
    }

    /// Replaces the delay-policy axis.
    pub fn delays(mut self, axis: Vec<DelaySpec>) -> Self {
        self.delays = axis;
        self
    }

    /// Replaces the adversary axis.
    pub fn adversaries(mut self, axis: Vec<AdversarySpec>) -> Self {
        self.adversaries = axis;
        self
    }

    /// Sets the workload for every scenario.
    pub fn workload(mut self, workload: TxWorkload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets a bounded admission policy for every scenario.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Number of scenarios in the expansion.
    pub fn len(&self) -> usize {
        self.ns.len()
            * self.deltas.len()
            * self.participation.len()
            * self.delays.len()
            * self.adversaries.len()
            * self.seeds.len()
    }

    /// Whether the matrix is empty (some axis has no entries).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the matrix into its ordered scenario list.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.ns {
            for &delta in &self.deltas {
                for participation in &self.participation {
                    for &delay in &self.delays {
                        for &adversary in &self.adversaries {
                            for &seed in &self.seeds {
                                out.push(Scenario {
                                    index: out.len(),
                                    n,
                                    delta,
                                    views: self.views,
                                    seed,
                                    participation: participation.clone(),
                                    delay,
                                    adversary,
                                    workload: self.workload.clone(),
                                    admission: self.admission,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_sim::OpenLoopSpec;

    #[test]
    fn expansion_is_the_cartesian_product_in_order() {
        let m = ScenarioMatrix::new(vec![4, 5], vec![4])
            .views(3)
            .seeds(vec![1, 2])
            .delays(vec![DelaySpec::Uniform, DelaySpec::WorstCase]);
        assert_eq!(m.len(), 8);
        let s = m.scenarios();
        assert_eq!(s.len(), 8);
        for (i, sc) in s.iter().enumerate() {
            assert_eq!(sc.index, i);
        }
        // n is the outermost axis, seed the innermost.
        assert_eq!((s[0].n, s[0].delay, s[0].seed), (4, DelaySpec::Uniform, 1));
        assert_eq!((s[1].n, s[1].delay, s[1].seed), (4, DelaySpec::Uniform, 2));
        assert_eq!((s[2].n, s[2].delay, s[2].seed), (4, DelaySpec::WorstCase, 1));
        assert_eq!((s[4].n, s[4].delay, s[4].seed), (5, DelaySpec::Uniform, 1));
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        let m = ScenarioMatrix::new(vec![4], vec![8])
            .adversaries(vec![AdversarySpec::None, AdversarySpec::SplitBrain { count: 1 }]);
        let labels: Vec<String> = m.scenarios().iter().map(Scenario::label).collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1]);
        assert!(labels[0].contains("n4"));
        assert!(labels[1].contains("split1"));
    }

    #[test]
    fn scenario_runs_and_decides() {
        let m = ScenarioMatrix::new(vec![4], vec![4]).views(4);
        let report = m.scenarios()[0].run_report();
        report.assert_safety();
        assert!(report.decided_blocks() > 0);
    }

    #[test]
    fn open_loop_overload_row_sheds_load_at_bounded_capacity() {
        let spec = OpenLoopSpec {
            users: 50_000,
            rate_milli: 40_000,
            ..OpenLoopSpec::default()
        };
        let m = ScenarioMatrix::new(vec![4], vec![4])
            .views(4)
            .workload(TxWorkload::OpenLoop(spec))
            .admission(AdmissionPolicy { capacity: 64, rate_cap: 0, rate_window: 64 });
        let scenario = &m.scenarios()[0];
        assert!(scenario.label().contains("cap64"), "label: {}", scenario.label());
        let report = scenario.run_report();
        report.assert_safety();
        let adm = report.admission();
        assert!(adm.accepted > 0, "open-loop traffic must reach the pool");
        assert!(adm.busy + adm.evicted > 0, "overload row must shed load");
        assert!(adm.pending_peak <= 64, "pending bounded by capacity");
    }
}
