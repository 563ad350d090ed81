//! High-level assembly of whole-network TOB-SVD simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tobsvd_core::leader::good_leader;
use tobsvd_core::{IdleNode, Node, StateFault, TobConfig, Validator, ViewSchedule};
use tobsvd_storage::{shared, MemDurable, SharedDurable};
use tobsvd_types::{BlockStore, Delta, SignerSet, Time, Transaction, ValidatorId, View};

use crate::{DecisionRecord, SimConfig, SimReport, Simulation, SimulationBuilder};

/// Transaction workload injected into the shared mempool before the run.
///
/// Submission times are honored by proposers (`pending_for_at` filters by
/// submission time), so pre-populating the pool is equivalent to
/// submitting live.
#[derive(Clone, Debug, PartialEq)]
pub enum TxWorkload {
    /// No transactions (pure consensus benchmarking).
    None,
    /// `count` transactions of `size` bytes submitted one tick before
    /// every view's proposal time — the paper's *expected latency*
    /// scenario ("submitted right before the next proposal").
    PerView {
        /// Transactions per view.
        count: usize,
        /// Transaction payload size in bytes.
        size: usize,
    },
    /// `total` transactions of `size` bytes at uniformly random times —
    /// the *transaction expected latency* scenario.
    Random {
        /// Total transactions over the whole run.
        total: usize,
        /// Transaction payload size in bytes.
        size: usize,
    },
}

/// Factory building a Byzantine node once the shared store exists.
pub type ByzantineNodeFactory = Box<dyn FnOnce(&BlockStore) -> Box<dyn Node> + Send>;

/// One engine setting, applied by [`TobSimulationBuilder::engine`].
type EngineStep = Box<dyn FnOnce(SimulationBuilder) -> SimulationBuilder + Send>;

/// Builder for a complete TOB-SVD network simulation: it builds the
/// validators (with durable storage for crash and state-fault
/// targets), injects the workload, runs to the horizon and records the
/// good leader of each view. Engine settings — sleep schedule, delay,
/// adversary, invariants, … — are [`SimulationBuilder`]'s own, set
/// through [`TobSimulationBuilder::engine`].
///
/// ```
/// use tobsvd_sim::{TobSimulationBuilder, WorstCaseDelay};
///
/// let report = TobSimulationBuilder::new(6)
///     .views(8)
///     .seed(3)
///     .engine(|sim| sim.delay(Box::new(WorstCaseDelay)))
///     .run()
///     .expect("valid configuration");
/// report.assert_safety();
/// assert!(report.max_decided_len() > 1);
/// ```
pub struct TobSimulationBuilder {
    n: usize,
    views: u64,
    seed: u64,
    delta: Delta,
    workload: TxWorkload,
    byzantine: Vec<(ValidatorId, ByzantineNodeFactory)>,
    recovery: bool,
    certificates: bool,
    crashes: Vec<(ValidatorId, Time, Time)>,
    state_faults: Vec<(ValidatorId, Time, StateFault)>,
    snapshot_every: u64,
    engine: Vec<EngineStep>,
}

/// Errors from [`TobSimulationBuilder::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TobError {
    /// `n` must be at least 1.
    NoValidators,
    /// `n` exceeds [`SignerSet::CAPACITY`], the signer bitmap's width.
    TooManyValidators(usize),
    /// At least one view must be simulated.
    NoViews,
    /// A Byzantine slot index is out of range.
    BadByzantineSlot(ValidatorId),
    /// A crash/restart fault is malformed: the validator is out of
    /// range or the restart does not come after the kill.
    BadCrash(ValidatorId),
    /// A state-corruption fault targets a validator out of range.
    BadStateFault(ValidatorId),
}

impl std::fmt::Display for TobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TobError::NoValidators => write!(f, "n must be at least 1"),
            TobError::TooManyValidators(n) => write!(f, "n = {n} exceeds {}", SignerSet::CAPACITY),
            TobError::NoViews => write!(f, "must simulate at least one view"),
            TobError::BadByzantineSlot(v) => write!(f, "byzantine slot {v} out of range"),
            TobError::BadCrash(v) => write!(f, "malformed crash/restart fault for {v}"),
            TobError::BadStateFault(v) => write!(f, "state fault targets out-of-range {v}"),
        }
    }
}

impl std::error::Error for TobError {}

impl TobSimulationBuilder {
    /// Builder for `n` validators.
    pub fn new(n: usize) -> Self {
        TobSimulationBuilder {
            n,
            views: 10,
            seed: 0,
            delta: Delta::default(),
            workload: TxWorkload::PerView { count: 2, size: 64 },
            byzantine: Vec::new(),
            recovery: false,
            certificates: true,
            crashes: Vec::new(),
            state_faults: Vec::new(),
            snapshot_every: 8,
            engine: Vec::new(),
        }
    }

    /// Applies `f` to the engine's [`SimulationBuilder`]: every engine
    /// setting (participation, corruption, delay, delivery filter,
    /// controller, Byzantine factory, invariants, advance mode,
    /// `drop_while_asleep`, mempool, store) is set there, under the
    /// engine's own name. The steps run in call order, right after
    /// `Simulation::builder`, before the workload reads the mempool and
    /// the validators read the store, so `with_mempool` and `with_store`
    /// take effect. The `Send` bound asks nothing new: every trait
    /// object the engine takes (delay, filter, controller, invariants,
    /// factories) is already `Send`. Nodes, crashes and state faults
    /// stay on the facade, which builds the validators and their
    /// durable storage from them: use [`TobSimulationBuilder::byzantine`],
    /// [`TobSimulationBuilder::crash_restart`] and
    /// [`TobSimulationBuilder::state_fault`], not the engine's setters.
    pub fn engine(
        mut self,
        f: impl FnOnce(SimulationBuilder) -> SimulationBuilder + Send + 'static,
    ) -> Self {
        self.engine.push(Box::new(f));
        self
    }

    /// Schedules a kill/restart fault: validator `v` crashes at `at`
    /// (all volatile state lost; deliveries dropped while down) and
    /// restarts at `restart_at`, rebuilt from its durable storage
    /// plane — a [`MemDurable`] WAL + snapshot backend is attached to
    /// every crash target automatically.
    pub fn crash_restart(mut self, v: ValidatorId, at: Time, restart_at: Time) -> Self {
        self.crashes.push((v, at, restart_at));
        self
    }

    /// Schedules a state-corruption fault: `fault` strikes validator
    /// `v`'s state at tick `at` (see [`StateFault`] for the canonical
    /// fault space). Every state-fault target gets a [`MemDurable`]
    /// storage plane attached, so durable-image faults have an image
    /// to corrupt and counter faults have real persistence to disturb.
    pub fn state_fault(mut self, v: ValidatorId, at: Time, fault: StateFault) -> Self {
        self.state_faults.push((v, at, fault));
        self
    }

    /// Snapshot checkpoint cadence of the durable storage plane, in
    /// decided blocks (8 by default; 0 = WAL only).
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Enables the §2 recovery protocol on every honest validator.
    /// Pair it with the engine's `drop_while_asleep` (practical sleep:
    /// messages to a sleeper are dropped, not buffered) to restore
    /// liveness there.
    pub fn recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Enables or disables the quorum-certificate aggregation plane
    /// (on by default). Disable to reproduce the per-vote forwarding
    /// baseline whose communication is Table 1's cubic fit.
    pub fn certificates(mut self, on: bool) -> Self {
        self.certificates = on;
        self
    }

    /// Number of views to simulate.
    pub fn views(mut self, views: u64) -> Self {
        self.views = views;
        self
    }

    /// RNG seed (delivery delays, workload times).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The network delay bound Δ.
    pub fn delta(mut self, delta: Delta) -> Self {
        self.delta = delta;
        self
    }

    /// The transaction workload.
    pub fn workload(mut self, workload: TxWorkload) -> Self {
        self.workload = workload;
        self
    }

    /// Installs a Byzantine-from-genesis node.
    pub fn byzantine(mut self, v: ValidatorId, factory: ByzantineNodeFactory) -> Self {
        self.byzantine.push((v, factory));
        self
    }

    /// Runs the simulation for the configured number of views plus the
    /// trailing 2Δ needed to decide the last view's proposals.
    ///
    /// # Errors
    ///
    /// Returns a [`TobError`] for invalid configurations.
    pub fn run(self) -> Result<TobReport, TobError> {
        if self.n == 0 {
            return Err(TobError::NoValidators);
        }
        if self.n > SignerSet::CAPACITY {
            return Err(TobError::TooManyValidators(self.n));
        }
        if self.views == 0 {
            return Err(TobError::NoViews);
        }
        for (v, _) in &self.byzantine {
            if v.index() >= self.n {
                return Err(TobError::BadByzantineSlot(*v));
            }
        }
        for (v, at, restart_at) in &self.crashes {
            if v.index() >= self.n || restart_at <= at {
                return Err(TobError::BadCrash(*v));
            }
        }
        for (v, _, _) in &self.state_faults {
            if v.index() >= self.n {
                return Err(TobError::BadStateFault(*v));
            }
        }

        let cfg = SimConfig::new(self.n).with_delta(self.delta).with_seed(self.seed);
        let tob_cfg = TobConfig::new(self.n)
            .with_delta(self.delta)
            .with_recovery(self.recovery)
            .with_certificates(self.certificates)
            .with_snapshot_every(self.snapshot_every);
        let sched = ViewSchedule::new(self.delta);
        let mut builder = self.engine.into_iter().fold(Simulation::builder(cfg), |b, f| f(b));

        // Workload: pre-submit with future submission times.
        let horizon = sched.view_start(View::new(self.views));
        {
            let mempool = builder.mempool().clone();
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7a5c_3b1d);
            let mut nonce = 0u64;
            match self.workload {
                TxWorkload::None => {}
                TxWorkload::PerView { count, size } => {
                    for view in 0..self.views {
                        let t_v = sched.view_start(View::new(view));
                        let submit = t_v.saturating_sub(Time::new(1));
                        for _ in 0..count {
                            mempool.submit(Transaction::synthetic(nonce, size), submit);
                            nonce += 1;
                        }
                    }
                }
                TxWorkload::Random { total, size } => {
                    for _ in 0..total {
                        let t = Time::new(rng.gen_range(0..horizon.ticks().max(1)));
                        mempool.submit(Transaction::synthetic(nonce, size), t);
                        nonce += 1;
                    }
                }
            }
        }

        // Nodes.
        let store = builder.store().clone();
        let mut byz_map: std::collections::BTreeMap<usize, ByzantineNodeFactory> =
            self.byzantine.into_iter().map(|(v, f)| (v.index(), f)).collect();
        // Every crash target gets an in-memory durable backend shared
        // between its incarnations: the pre-crash validator writes the
        // WAL + snapshots, the restart factory recovers from them.
        let mut durables: std::collections::BTreeMap<usize, SharedDurable> =
            std::collections::BTreeMap::new();
        for (v, _, _) in &self.crashes {
            durables.entry(v.index()).or_insert_with(|| shared(MemDurable::new()));
        }
        // State-fault targets too: durable-image faults need an image
        // to corrupt, and counter faults only bite when persistence is
        // actually running.
        for (v, _, _) in &self.state_faults {
            durables.entry(v.index()).or_insert_with(|| shared(MemDurable::new()));
        }
        for v in ValidatorId::all(self.n) {
            if let Some(f) = byz_map.remove(&v.index()) {
                builder = builder.byzantine_node(v, f(&store));
            } else {
                let mut val = Validator::new(v, tob_cfg.clone(), &store);
                if let Some(handle) = durables.get(&v.index()) {
                    val = val.with_durable(handle.clone());
                }
                builder = builder.node(v, Box::new(val));
            }
        }
        if !self.crashes.is_empty() {
            let factory_cfg = tob_cfg.clone();
            let factory_store = store.clone();
            let factory_durables = durables.clone();
            builder = builder.crashes(self.crashes.clone()).restart_factory(Box::new(
                move |v, _t| -> Box<dyn Node> {
                    match factory_durables.get(&v.index()) {
                        Some(handle) => Box::new(Validator::recovered(
                            v,
                            factory_cfg.clone(),
                            &factory_store,
                            handle.clone(),
                        )),
                        // Unreachable (only crash targets restart), but
                        // degrade to an inert node rather than panic.
                        None => Box::new(IdleNode),
                    }
                },
            ));
        }
        if !self.state_faults.is_empty() {
            builder = builder.state_faults(self.state_faults.clone());
        }

        let mut sim = builder.build();
        let end = sched.run_end(self.views);
        sim.run_until(end);

        // Ground-truth good-leader record per view.
        let eff = sim.effective_participation();
        let corruption = sim.corruption().clone();
        let mut leaders = Vec::with_capacity(self.views as usize);
        for view in (0..self.views).map(View::new) {
            let t_v = sched.view_start(view);
            let awake = eff.awake_honest_at(t_v, &corruption);
            let byz = corruption.byzantine_at(t_v + self.delta);
            leaders.push((view, good_leader(view, &awake, &byz)));
        }

        Ok(TobReport {
            views: self.views,
            delta: self.delta,
            report: sim.report(),
            good_leaders: leaders,
            n: self.n,
            sim,
        })
    }
}

/// Result of a [`TobSimulationBuilder::run`]. Per-validator counters are
/// read off the finished validators themselves ([`TobReport::validator`]),
/// not off a copy.
pub struct TobReport {
    /// Number of views simulated.
    pub views: u64,
    /// The Δ used.
    pub delta: Delta,
    /// Engine-level summary (metrics, safety, confirmed txs, the shared
    /// block store).
    pub report: SimReport,
    /// Ground truth: the good leader of each view, if one existed.
    pub good_leaders: Vec<(View, Option<ValidatorId>)>,
    n: usize,
    /// The finished simulation, kept so reports read validators in place.
    sim: Simulation,
}

impl std::fmt::Debug for TobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TobReport")
            .field("views", &self.views)
            .field("delta", &self.delta)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl TobReport {
    /// Validator `v` as the run left it. `None` for an out-of-range id,
    /// a Byzantine slot, and a crash target still down at the end (its
    /// slot holds an [`IdleNode`]) — the cases where there is no honest
    /// state to judge.
    pub fn validator(&self, v: ValidatorId) -> Option<&Validator> {
        if v.index() >= self.n || self.sim.is_byzantine(v) {
            return None;
        }
        self.sim.node(v).as_any().downcast_ref()
    }

    /// Every validator [`TobReport::validator`] returns, in id order.
    pub fn honest_validators(&self) -> impl Iterator<Item = &Validator> {
        ValidatorId::all(self.n).filter_map(|v| self.validator(v))
    }

    /// Length of the longest decided log across honest validators.
    pub fn max_decided_len(&self) -> u64 {
        self.report.max_decided_len()
    }

    /// Number of decided blocks beyond genesis.
    pub fn decided_blocks(&self) -> u64 {
        self.max_decided_len().saturating_sub(1)
    }

    /// Panics if any safety violation was observed.
    ///
    /// # Panics
    ///
    /// Panics on conflicting decisions.
    pub fn assert_safety(&self) {
        self.report.assert_safety();
    }

    /// Fraction of views that had a good leader.
    pub fn good_leader_fraction(&self) -> f64 {
        if self.good_leaders.is_empty() {
            return 0.0;
        }
        let good = self.good_leaders.iter().filter(|(_, l)| l.is_some()).count();
        good as f64 / self.good_leaders.len() as f64
    }

    /// Average original `LOG` broadcasts per decided block — the
    /// *voting phases per new block* metric of Table 1, normalized
    /// per validator.
    pub fn voting_phases_per_block(&self) -> Option<f64> {
        let (honest, votes) = self
            .honest_validators()
            .fold((0u64, 0u64), |(n, votes), val| (n + 1, votes + val.votes_cast()));
        if honest == 0 || self.decided_blocks() == 0 {
            return None;
        }
        Some(votes as f64 / honest as f64 / self.decided_blocks() as f64)
    }

    /// Confirmation latencies of all confirmed transactions, in Δ.
    pub fn tx_latencies_deltas(&self) -> Vec<f64> {
        self.report
            .confirmed
            .iter()
            .map(|c| c.latency() as f64 / self.delta.ticks() as f64)
            .collect()
    }

    /// Per-block decision latency in Δ: time from the proposal of each
    /// decided block (its view's start) to the *first* decision by any
    /// honest validator whose log covers it, taken over the full
    /// decision history (not just final transcripts — early blocks are
    /// credited with their actual first coverage, mid-run).
    pub fn block_decision_latencies_deltas(&self) -> Vec<f64> {
        let sched = ViewSchedule::new(self.delta);
        let mut latencies = Vec::new();
        let history: &[DecisionRecord] = &self.report.decisions;
        let store = &self.report.store;
        if let Some(longest) = self.report.longest_decided {
            if let Some(chain) = store.chain_range(longest.tip(), 1) {
                for (offset, id) in chain.into_iter().enumerate() {
                    let Some(block) = store.get(id) else { continue };
                    let proposed_at = sched.view_start(block.view());
                    let height = 2 + offset as u64; // log length covering this block
                    // Earliest decision record covering this block.
                    let decided_at = history
                        .iter()
                        .filter(|r| {
                            r.log.len() >= height && store.is_ancestor(id, r.log.tip())
                        })
                        .map(|r| r.at)
                        .min();
                    if let Some(at) = decided_at {
                        latencies
                            .push((at - proposed_at) as f64 / self.delta.ticks() as f64);
                    }
                }
            }
        }
        latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_core::{AdmissionPolicy, Mempool};

    #[test]
    fn fault_free_run_decides_every_view() {
        let report = TobSimulationBuilder::new(6).views(8).seed(1).run().expect("runs");
        report.assert_safety();
        // With no faults every view has a good leader and decides one
        // block; the last two views' proposals decide after the horizon
        // extension, so at least views−1 blocks are decided.
        assert!(
            report.decided_blocks() >= report.views - 1,
            "decided {} of {} views",
            report.decided_blocks(),
            report.views
        );
        assert!((report.good_leader_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn all_honest_validators_agree() {
        let report = TobSimulationBuilder::new(5).views(6).seed(2).run().expect("runs");
        report.assert_safety();
        let lens: Vec<u64> = report.honest_validators().map(|v| v.decided().len()).collect();
        assert_eq!(lens.len(), 5);
        // All validators within one view of each other.
        let max = *lens.iter().max().unwrap();
        for l in lens {
            assert!(max - l <= 1, "decided lengths too far apart");
        }
    }

    #[test]
    fn single_vote_per_view() {
        let report = TobSimulationBuilder::new(4).views(10).seed(3).run().expect("runs");
        for val in report.honest_validators() {
            // One LOG broadcast per view (±1 for the trailing view).
            let votes = val.votes_cast();
            assert!(votes <= report.views + 1, "more votes than views: {votes}");
            assert!(votes >= report.views - 1);
        }
        // Best case: 1 voting phase per decided block.
        let phases = report.voting_phases_per_block().expect("blocks decided");
        assert!(phases < 1.5, "voting phases per block = {phases}");
    }

    #[test]
    fn transactions_confirm_with_bounded_latency() {
        // The default unbounded pool, then a bounded one installed
        // through the engine hook: the hook runs before the workload
        // fills the pool, so 24 submissions meet a capacity of 4 and
        // the excess is shed while the chain still confirms.
        let policy = AdmissionPolicy { capacity: 4, rate_cap: 0, rate_window: 1 };
        for bounded in [false, true] {
            let mut builder = TobSimulationBuilder::new(5)
                .views(8)
                .seed(4)
                .workload(TxWorkload::PerView { count: 3, size: 32 });
            if bounded {
                builder = builder.engine(move |sim| sim.with_mempool(Mempool::bounded(policy)));
            }
            let report = builder.run().expect("runs");
            report.assert_safety();
            assert!(!report.report.confirmed.is_empty(), "txs must confirm");
            for lat in report.tx_latencies_deltas() {
                // Fault-free: submitted right before a proposal, decided
                // 6Δ later (small slack for the tick discretization).
                assert!(lat <= 7.0, "latency {lat}Δ too high for fault-free run");
            }
            let adm = report.report.admission;
            assert_eq!(adm.busy + adm.evicted > 0, bounded, "{adm:?}");
            if bounded {
                assert!(adm.pending_peak <= policy.capacity as u64, "capacity breached: {adm:?}");
            }
        }
    }

    #[test]
    fn crash_restart_recovers_durably_and_reconverges() {
        // Validator 2 is killed mid-view-5 and restarted at view 8's
        // start. Its restart incarnation recovers from the MemDurable
        // snapshot + WAL, catches the rest up over §2 recovery and the
        // delta-sync fetch plane, and re-converges with the network.
        // Validator 5 is killed for good (its restart lies past the
        // horizon) and slot 6 is Byzantine: neither has honest state
        // left to read, which is what `crates/check` calls "not
        // judgeable".
        let v = ValidatorId::new(2);
        let (down, byz) = (ValidatorId::new(5), ValidatorId::new(6));
        let report = TobSimulationBuilder::new(7)
            .views(14)
            .seed(6)
            .recovery(true)
            .engine(|sim| sim.drop_while_asleep(true))
            .snapshot_every(4)
            .crash_restart(v, Time::new(5 * 32 + 3), Time::new(8 * 32))
            .crash_restart(down, Time::new(6 * 32), Time::new(1_000_000))
            .byzantine(byz, Box::new(|_| Box::new(IdleNode)))
            .run()
            .expect("runs");
        report.assert_safety();
        assert_eq!(report.report.metrics.crashes, 2);
        assert!(report.validator(byz).is_none(), "a Byzantine slot has no validator");
        assert!(report.validator(down).is_none(), "a target still down has no validator");
        assert!(report.validator(ValidatorId::new(7)).is_none(), "out of range");
        assert_eq!(report.honest_validators().count(), 5);
        let restarted = report.validator(v).expect("the restarted incarnation is readable");
        assert_eq!(restarted.wal_errors(), 0);
        assert!(
            restarted.persisted_len() > 1,
            "the durable plane must have persisted decisions across the restart"
        );
        let (len, max) = (restarted.decided().len(), report.max_decided_len());
        assert!(len + 2 >= max, "restarted validator re-converged to {len} of {max}");
    }

    #[test]
    fn crash_validation() {
        let err = TobSimulationBuilder::new(3)
            .crash_restart(ValidatorId::new(9), Time::new(1), Time::new(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, TobError::BadCrash(_)));
        let err = TobSimulationBuilder::new(3)
            .crash_restart(ValidatorId::new(1), Time::new(5), Time::new(5))
            .run()
            .unwrap_err();
        assert!(matches!(err, TobError::BadCrash(_)));
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            TobSimulationBuilder::new(0).run().unwrap_err(),
            TobError::NoValidators
        ));
        assert_eq!(
            TobSimulationBuilder::new(SignerSet::CAPACITY + 1).run().unwrap_err(),
            TobError::TooManyValidators(SignerSet::CAPACITY + 1)
        );
        assert!(matches!(
            TobSimulationBuilder::new(3).views(0).run().unwrap_err(),
            TobError::NoViews
        ));
        let err = TobSimulationBuilder::new(3)
            .byzantine(
                ValidatorId::new(9),
                Box::new(|_| Box::new(IdleNode)),
            )
            .run()
            .unwrap_err();
        assert!(matches!(err, TobError::BadByzantineSlot(_)));
    }
}
