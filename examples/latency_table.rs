//! Prints the Table 1 comparison (paper constants vs the geometric
//! leader-lottery model vs a quick measured TOB-SVD run).
//!
//! ```sh
//! cargo run --release --example latency_table
//! ```
//!
//! This is a fast, example-sized rendition of the full `table1` bench
//! (`cargo bench -p tobsvd-bench --bench table1`), which uses longer
//! runs and asserts the shape claims.

use tob_svd::analysis::Table;
use tob_svd::baselines::{
    closed_form_expected, closed_form_tx_expected, phases_per_block, spec::all_specs,
};
use tob_svd::protocol::{TobSimulationBuilder, TxWorkload};
use tob_svd::sim::WorstCaseDelay;

fn main() {
    // Quick fault-free measured column.
    let report = TobSimulationBuilder::new(6)
        .views(10)
        .seed(2)
        .workload(TxWorkload::PerView { count: 1, size: 48 })
        .delay(Box::new(WorstCaseDelay))
        .run()
        .expect("runs");
    report.assert_safety();
    let lats = report.tx_latencies_deltas();
    let measured_best = lats.iter().copied().fold(f64::INFINITY, f64::min);

    let p = 0.5; // the adversarial boundary of Lemma 2
    let mut table = Table::new(vec![
        "protocol",
        "resilience",
        "best (Δ)",
        "expected (Δ)",
        "tx-expected (Δ)",
        "phases best",
        "phases expected",
        "comm",
    ]);
    for spec in all_specs() {
        let model_exp = closed_form_expected(&spec.structure, p);
        let model_tx = closed_form_tx_expected(&spec.structure, p);
        let model_ph = phases_per_block(&spec.structure, p);
        let mark = if spec.geometric_model_exact { "" } else { "*" };
        table.row(vec![
            spec.name.to_string(),
            format!("{}/{}", spec.resilience.0, spec.resilience.1),
            format!("{}", spec.paper.best),
            format!("{}{} (model {:.0})", spec.paper.expected, mark, model_exp),
            format!("{}{} (model {:.1})", spec.paper.tx_expected, mark, model_tx),
            format!("{}", spec.paper.phases_best),
            format!("{} (model {:.0})", spec.paper.phases_expected, model_ph),
            format!("O(Ln^{})", spec.paper.comm_exponent),
        ]);
    }
    println!("Table 1 — paper constants, geometric model at p(good leader) = ½:\n");
    println!("{}", table.render());
    println!("* that protocol's own expected-case accounting differs from the plain");
    println!("  geometric model — see README, \"Build, test, bench\".\n");
    println!(
        "measured TOB-SVD best-case latency (fault-free, worst-case Δ delays): {measured_best:.1}Δ (paper: 6Δ)"
    );
}
