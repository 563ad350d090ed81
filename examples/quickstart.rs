//! Quickstart: a fault-free 8-validator TOB-SVD network for 12 views.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Shows the basic API surface: build a simulation, run it, read back
//! the decided log, per-validator agreement and the vote/decision
//! counters that make TOB-SVD a *single-vote* protocol.

use tob_svd::sim::{TobSimulationBuilder, TxWorkload};

fn main() {
    let report = TobSimulationBuilder::new(8)
        .views(12)
        .seed(7)
        .workload(TxWorkload::PerView { count: 3, size: 64 })
        .run()
        .expect("valid configuration");

    report.assert_safety();

    println!("TOB-SVD quickstart — 8 validators, 12 views, no faults\n");
    println!(
        "longest decided log: {} blocks beyond genesis",
        report.decided_blocks()
    );
    println!(
        "good-leader views:   {:.0}%",
        report.good_leader_fraction() * 100.0
    );

    println!("\nper-validator state:");
    for val in report.honest_validators() {
        println!(
            "  {}: decided len {}, proposals {}, votes {} (→ one vote per view), decisions {}",
            val.id(),
            val.decided().len(),
            val.proposals_made(),
            val.votes_cast(),
            val.decisions_made(),
        );
    }

    let phases = report
        .voting_phases_per_block()
        .expect("blocks were decided");
    println!("\nvoting phases per decided block: {phases:.2} (paper best case: 1)");

    let confirmed = report.report.confirmed.len();
    let mean_latency: f64 =
        report.tx_latencies_deltas().iter().sum::<f64>() / confirmed.max(1) as f64;
    println!("transactions confirmed: {confirmed}, mean latency {mean_latency:.1}Δ (paper best case: 6Δ)");
}
