//! Safety (Theorem 4) under every adversary in the toolkit, at the
//! corruption bound of the (5Δ, 2Δ, ½)-sleepy model.
//!
//! "If two honest validators deliver logs Λ₁ and Λ₂, then Λ₁ and Λ₂ are
//! compatible." The engine's `DecisionObserver` checks this online for
//! every decision of every honest validator; `assert_safety` fails the
//! test on the first conflicting pair.

use proptest::prelude::*;
use tob_svd::adversary::{LateVoter, SilentNode, SplitBrainNode, SplitDelay};
use tob_svd::protocol::TobConfig;
use tob_svd::sim::{DelayPolicy, TobSimulationBuilder, TxWorkload, UniformDelay, WorstCaseDelay};
use tob_svd::types::ValidatorId;

fn halves(n: usize) -> (Vec<ValidatorId>, Vec<ValidatorId>) {
    (
        ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect(),
        ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect(),
    )
}

/// Builds a run with `byz` Byzantine validators of the given strategy mix.
fn run_with_adversary(
    n: usize,
    byz: usize,
    strategy: &str,
    seed: u64,
    delay: Box<dyn DelayPolicy>,
    views: u64,
) -> tob_svd::sim::TobReport {
    let (ha, hb) = halves(n);
    let mut builder = TobSimulationBuilder::new(n)
        .views(views)
        .seed(seed)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .engine(move |sim| sim.delay(delay));
    for (k, v) in ValidatorId::all(n).skip(n - byz).enumerate() {
        let cfg = TobConfig::new(n);
        let (a, b) = (ha.clone(), hb.clone());
        let strategy = match strategy {
            "mixed" => ["split", "silent", "late"][k % 3],
            s => s,
        };
        builder = match strategy {
            "split" => builder.byzantine(
                v,
                Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
            ),
            "silent" => builder.byzantine(v, Box::new(|_| Box::new(SilentNode))),
            "late" => builder.byzantine(
                v,
                Box::new(move |store| Box::new(LateVoter::new(v, cfg, store))),
            ),
            other => unreachable!("unknown strategy {other}"),
        };
    }
    builder.run().expect("valid configuration")
}

#[test]
fn safety_under_split_brain_at_the_bound() {
    for (n, seed) in [(5usize, 1u64), (7, 2), (9, 3), (9, 4)] {
        let byz = (n - 1) / 2;
        let report = run_with_adversary(n, byz, "split", seed, Box::new(WorstCaseDelay), 30);
        report.assert_safety();
        assert!(
            report.decided_blocks() > 0,
            "n={n}: liveness must survive the split-brain adversary"
        );
    }
}

#[test]
fn safety_under_silent_omission() {
    let report = run_with_adversary(9, 4, "silent", 5, Box::new(UniformDelay), 20);
    report.assert_safety();
    // Omission-only adversaries cannot even slow the chain: all honest
    // proposals reach all honest voters, so every view decides.
    assert!(
        report.decided_blocks() >= report.views - 1,
        "omission faults must not affect per-view decisions: {} of {}",
        report.decided_blocks(),
        report.views
    );
}

#[test]
fn safety_under_late_voters() {
    let report = run_with_adversary(7, 3, "late", 6, Box::new(WorstCaseDelay), 25);
    report.assert_safety();
    assert!(report.decided_blocks() > 0);
}

#[test]
fn safety_under_mixed_strategies() {
    let report = run_with_adversary(9, 4, "mixed", 7, Box::new(UniformDelay), 25);
    report.assert_safety();
    assert!(report.decided_blocks() > 0);
}

#[test]
fn safety_with_adversarial_network_split() {
    // The delay adversary keeps even validators a full Δ ahead of odd
    // ones while split-brain equivocators work on top.
    let n = 9;
    let fast: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let report = run_with_adversary(
        n,
        4,
        "split",
        8,
        Box::new(SplitDelay::new(fast)),
        30,
    );
    report.assert_safety();
    assert!(report.decided_blocks() > 0);
}

#[test]
fn per_validator_decisions_are_monotone_prefixes() {
    let report = run_with_adversary(7, 3, "split", 9, Box::new(WorstCaseDelay), 20);
    report.assert_safety();
    // Every validator's final decided log is a prefix of the longest.
    let longest = report.report.longest_decided.expect("some decision");
    for rec in &report.report.latest_decisions {
        assert!(
            rec.log.is_prefix_of(&longest, &report.report.store)
                || longest.is_prefix_of(&rec.log, &report.report.store),
            "{}'s decision {} incompatible with longest {}",
            rec.validator,
            rec.log,
            longest
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized safety sweep: any byzantine count up to the bound, any
    /// strategy mix, any delay policy, any seed — no conflicting
    /// decisions, ever.
    #[test]
    fn randomized_safety_sweep(
        n in 4usize..10,
        byz_frac in 0.0f64..1.0,
        strategy in prop_oneof![Just("split"), Just("silent"), Just("late"), Just("mixed")],
        delay_sel in 0u8..3,
        seed in any::<u64>(),
    ) {
        let max_byz = (n - 1) / 2;
        let byz = ((byz_frac * (max_byz + 1) as f64) as usize).min(max_byz);
        let delay: Box<dyn DelayPolicy> = match delay_sel {
            0 => Box::new(UniformDelay),
            1 => Box::new(WorstCaseDelay),
            _ => Box::new(SplitDelay::new(
                ValidatorId::all(n).filter(|v| v.index() < n / 2),
            )),
        };
        let report = run_with_adversary(n, byz, strategy, seed, delay, 12);
        prop_assert!(report.report.safe, "violations: {:?}", report.report.violations);
    }
}
