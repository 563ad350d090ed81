//! Liveness (Theorem 5) and its supporting lemmas, measured end to end.
//!
//! "For every valid transaction tx in the pool, there exists a time t
//! such that all honest validators awake for sufficiently long after t
//! deliver a log that includes tx."

use tob_svd::adversary::churn;
use tob_svd::protocol::{TobSimulationBuilder, TxWorkload};
use tob_svd::sim::compliance::{check, SleepyParams};
use tob_svd::sim::{CorruptionSchedule, WorstCaseDelay};
use tob_svd::types::{Delta, View};

#[test]
fn fault_free_chain_grows_every_view() {
    let report = TobSimulationBuilder::new(6)
        .views(15)
        .seed(1)
        .delay(Box::new(WorstCaseDelay))
        .run()
        .expect("runs");
    report.assert_safety();
    // Every view has a good leader; decisions lag proposals by 6Δ, so at
    // least views − 1 blocks are decided within the horizon.
    assert!(report.decided_blocks() >= report.views - 1);
    assert!((report.good_leader_fraction() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn every_pooled_tx_confirms_under_good_leaders() {
    let report = TobSimulationBuilder::new(6)
        .views(12)
        .seed(2)
        .workload(TxWorkload::PerView { count: 3, size: 32 })
        .run()
        .expect("runs");
    report.assert_safety();
    // Txs for the final view may still be in flight; everything earlier
    // must be confirmed.
    let expected_min = (report.views - 2) * 3;
    assert!(
        report.report.confirmed.len() as u64 >= expected_min,
        "only {} of ≥{} txs confirmed",
        report.report.confirmed.len(),
        expected_min
    );
}

/// Regression pin for the paper's per-slot phase bound *and* the
/// event-driven engine: under full participation with no adversary,
/// every honest validator decides every view, every decided block lands
/// exactly 6Δ after its proposal (the grade-2 output time of its GA),
/// and the engine executes only O(phases) ticks. A regression to
/// tick-stepping would blow `Metrics::executed_ticks` up to the full
/// horizon and fail loudly here.
#[test]
fn good_case_decisions_meet_phase_bound_without_tick_stepping() {
    let views = 20u64;
    let report = TobSimulationBuilder::new(6)
        .views(views)
        .seed(8)
        .delay(Box::new(WorstCaseDelay))
        .run()
        .expect("runs");
    report.assert_safety();

    // Every honest validator individually decided every view (±1 for
    // the trailing horizon).
    for v in report.honest_validators() {
        let len = v.decided().len();
        assert!(len >= views - 1, "{} fell behind: decided {len} of {views} views", v.id());
    }

    // Per-slot O(Δ) bound: each decided block is anchored exactly 6Δ
    // after its proposal time.
    let latencies = report.block_decision_latencies_deltas();
    assert!(!latencies.is_empty());
    for lat in &latencies {
        assert!(
            (*lat - 6.0).abs() < 1e-9,
            "good-case decision latency must be exactly 6Δ, got {lat}Δ"
        );
    }

    // Engine-shape regression guard: with worst-case delays all traffic
    // lands on phase boundaries (plus the senders' own next-tick
    // copies), so the event-driven engine executes ~2 ticks per phase.
    // Tick-stepping would execute every tick of the horizon.
    let m = &report.report.metrics;
    let phases = m.ticks / report.delta.ticks() + 1;
    assert!(
        m.executed_ticks <= 3 * phases,
        "engine executed {} of {} ticks (~{} phases) — tick-stepping regression?",
        m.executed_ticks,
        m.ticks,
        phases
    );
}

#[test]
fn liveness_under_rotating_churn() {
    let n = 10;
    let views = 24u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    let schedule = churn::rotating_sleep(n, 5, 6 * delta.ticks(), horizon);
    // Verify the schedule is inside the TOB-SVD model before running.
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    assert!(
        check(&schedule, &CorruptionSchedule::none(), params, horizon).is_none(),
        "rotating schedule must be compliant"
    );
    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(3)
        .participation(schedule)
        .workload(TxWorkload::PerView { count: 2, size: 32 })
        .run()
        .expect("runs");
    report.assert_safety();
    assert!(
        report.decided_blocks() as f64 >= views as f64 * 0.5,
        "churned chain grew only {} blocks in {} views",
        report.decided_blocks(),
        views
    );
    assert!(!report.report.confirmed.is_empty());
}

#[test]
fn liveness_under_compliant_random_churn() {
    let n = 9;
    let views = 20u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    let corruption = CorruptionSchedule::none();
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    let schedule = churn::compliant_random_churn(
        n,
        horizon,
        4 * delta.ticks(),
        0.85,
        &corruption,
        params,
        11,
        100,
    )
    .expect("compliant schedule");
    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(4)
        .participation(schedule)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .run()
        .expect("runs");
    report.assert_safety();
    assert!(report.decided_blocks() > 0, "compliant churn must not halt the chain");
}

#[test]
fn sleeping_validator_catches_up_after_waking() {
    // Lemma 4 flavor: a validator that sleeps for several views and then
    // stays awake decides a log extending everything decided meanwhile.
    let n = 6;
    let views = 16u64;
    let delta = Delta::default();
    let mut schedule = tob_svd::sim::ParticipationSchedule::always_awake(n);
    // v5 sleeps views 4..10, awake before and after.
    let sleep_from = View::new(4).start_time(delta);
    let wake_at = View::new(10).start_time(delta);
    schedule.set_intervals(
        tob_svd::types::ValidatorId::new(5),
        vec![
            (tob_svd::types::Time::ZERO, sleep_from),
            (wake_at, View::new(views + 2).start_time(delta)),
        ],
    );
    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(5)
        .participation(schedule)
        .run()
        .expect("runs");
    report.assert_safety();
    let lens: Vec<(u32, u64)> =
        report.honest_validators().map(|v| (v.id().raw(), v.decided().len())).collect();
    let sleeper = lens.iter().find(|(v, _)| *v == 5).expect("v5 stats").1;
    let max = lens.iter().map(|(_, l)| *l).max().unwrap();
    assert!(
        max - sleeper <= 1,
        "woken validator should catch up: sleeper at {sleeper}, max {max} ({lens:?})"
    );
}

#[test]
fn decisions_follow_good_leader_views() {
    // Ground-truth cross-check: with worst-case delays and a split-brain
    // adversary, a block is decided for (at least) every good-leader view.
    use tob_svd::adversary::SplitBrainNode;
    use tob_svd::protocol::TobConfig;
    use tob_svd::types::ValidatorId;

    let n = 9;
    let byz = 4;
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(40)
        .seed(6)
        .delay(Box::new(WorstCaseDelay));
    for v in ValidatorId::all(n).skip(n - byz) {
        let (a, b) = (half_a.clone(), half_b.clone());
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, TobConfig::new(n), store, a, b))),
        );
    }
    let report = builder.run().expect("runs");
    report.assert_safety();
    let good_views = report.good_leaders.iter().filter(|(_, l)| l.is_some()).count() as u64;
    // Each good-leader view (except possibly the last two, whose
    // decisions fall past the horizon) contributes one decided block.
    assert!(
        report.decided_blocks() + 2 >= good_views,
        "decided {} blocks but {} views had good leaders",
        report.decided_blocks(),
        good_views
    );
}
