//! The scenario space the explorer samples from.

use rand::rngs::StdRng;
use rand::Rng;
use tobsvd_sim::StateFault;

use crate::scenario::{
    ByzStrategy, CheckScenario, DelayKind, FetchFaultKind, Lever, LeverKind, SyncMode,
};

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
    /// independent of thread count. Levers are drawn kind by kind and
    /// sorted into canonical order once at the end.
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
        let mut levers: Vec<Lever> = Vec::new();
        for &validator in pool.iter().take(byz_count) {
            let strategy = if self.overload {
                // Equivocation is what actually breaks safety past the
                // bound; omission merely stalls.
                ByzStrategy::SplitBrain
            } else {
                ByzStrategy::ALL[rng.gen_range(0..ByzStrategy::ALL.len())]
            };
            levers.push(Lever { validator, kind: LeverKind::Byzantine(strategy) });
        }

        // Remaining misbehavior budget churns or gets corrupted mid-run.
        // Corruptions, crashes and state faults each take a validator no
        // lever touches yet (so every re-convergence bound is
        // attributable); `rest` never holds a Byzantine validator.
        let rest: Vec<u32> = pool[byz_count..].to_vec();
        let untouched = |levers: &[Lever], v: u32| levers.iter().all(|l| l.validator != v);
        let horizon = CheckScenario::fault_free(n, delta, views, 0).horizon().ticks();
        let mut slept = false;
        if !rest.is_empty() {
            let n_sleeps = rng.gen_range(0..=self.max_sleep_windows);
            for _ in 0..n_sleeps {
                let validator = rest[rng.gen_range(0..rest.len())];
                let from = rng.gen_range(0..horizon.max(1));
                let len = rng.gen_range(1..=(4 * delta).max(2));
                levers
                    .push(Lever { validator, kind: LeverKind::Sleep { from, until: from + len } });
                slept = true;
            }
            let n_corr = rng.gen_range(0..=self.max_corruptions);
            for _ in 0..n_corr {
                let validator = rest[rng.gen_range(0..rest.len())];
                if !untouched(&levers, validator) {
                    continue;
                }
                let at = rng.gen_range(0..horizon.max(1));
                levers.push(Lever { validator, kind: LeverKind::Corrupt { at } });
            }
        }

        // Half of the churny scenarios run the practical drop+recover
        // semantics, where the fetch subprotocol actually carries
        // traffic — and may then get fetch-corruption windows aimed at
        // the misbehaving pool (an untouched honest majority remains,
        // so every invariant must still hold).
        let mut sync = SyncMode::Buffered;
        if self.fetch_attack && slept && rng.gen_range(0..2) == 0 {
            sync = SyncMode::DropRecover;
            let n_faults = rng.gen_range(0..=self.max_fetch_faults);
            for _ in 0..n_faults {
                let validator = rest[rng.gen_range(0..rest.len())];
                let kind = FetchFaultKind::ALL[rng.gen_range(0..FetchFaultKind::ALL.len())];
                let from = rng.gen_range(0..horizon.max(1));
                let len = rng.gen_range(1..=(4 * delta).max(2));
                levers.push(Lever {
                    validator,
                    kind: LeverKind::Fetch { from, until: from + len, kind },
                });
            }
        }

        // Kill/restart faults force the practical drop+recover
        // semantics: a restarted validator reconverges through the §2
        // recovery broadcast and the delta-sync fetch plane.
        if self.max_crashes > 0 && !rest.is_empty() {
            let n_crashes = rng.gen_range(0..=self.max_crashes);
            for _ in 0..n_crashes {
                let validator = rest[rng.gen_range(0..rest.len())];
                if !untouched(&levers, validator) {
                    continue;
                }
                let at = rng.gen_range(0..horizon.max(1));
                let down = rng.gen_range(1..=(4 * delta).max(2));
                levers.push(Lever {
                    validator,
                    kind: LeverKind::Crash { at, restart_at: at + down },
                });
                sync = SyncMode::DropRecover;
            }
        }

        // State-corruption faults likewise force the practical
        // drop+recover semantics: the local audits repair through the
        // §2 recovery broadcast and the delta-sync fetch plane. Only
        // volatile kinds are sampled here: a durable-image fault is
        // invisible without a restart, and the crash lever lives on its
        // own validator (the combined case is covered by the dedicated
        // crash+corruption suites). A zero budget must not touch the
        // RNG at all.
        if self.max_state_faults > 0 && !rest.is_empty() {
            let n_faults = rng.gen_range(0..=self.max_state_faults);
            for _ in 0..n_faults {
                let validator = rest[rng.gen_range(0..rest.len())];
                if !untouched(&levers, validator) {
                    continue;
                }
                let kind = rng.gen_range(0..StateFault::MEMORY_KINDS);
                let fault = StateFault::from_draws(kind, rng.gen::<u64>());
                let at = rng.gen_range(0..horizon.max(1));
                levers.push(Lever { validator, kind: LeverKind::State { at, fault } });
                sync = SyncMode::DropRecover;
            }
        }
        levers.sort_by_key(Lever::order_key);

        CheckScenario { n, delta, views, seed: rng.gen::<u64>(), delay, txs_per_view, levers, sync }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
            let mut misbehaving: Vec<u32> = s.levers.iter().map(|l| l.validator).collect();
            misbehaving.sort_unstable();
            misbehaving.dedup();
            assert!(
                misbehaving.len() <= bound,
                "misbehaving set {misbehaving:?} exceeds bound {bound} in {s:?}"
            );
            if s.sync == SyncMode::DropRecover {
                drop_recover += 1;
            }
            let of_kind = |rank: usize| s.levers.iter().filter(move |l| l.kind.rank() == rank);
            if of_kind(3).next().is_some() {
                with_faults += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "faults only make sense with fetches");
            }
            // Crashes and state faults each sit on a validator no other
            // lever touches.
            for own in of_kind(4).chain(of_kind(5)) {
                assert_eq!(
                    s.levers.iter().filter(|l| l.validator == own.validator).count(),
                    1,
                    "{own:?} shares its validator in {s:?}"
                );
            }
            if of_kind(4).next().is_some() {
                with_crashes += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "restarts recover over the sync plane");
            }
            if of_kind(5).next().is_some() {
                with_state_faults += 1;
                assert_eq!(s.sync, SyncMode::DropRecover, "repair runs over the sync plane");
                for f in of_kind(5) {
                    assert!(
                        !matches!(
                            f.kind,
                            LeverKind::State {
                                fault: StateFault::SnapshotBitFlip { .. }
                                    | StateFault::WalBitFlip { .. }
                                    | StateFault::WalTear { .. },
                                ..
                            }
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
