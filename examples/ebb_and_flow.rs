//! The ebb-and-flow construction from the paper's introduction:
//! TOB-SVD (dynamically available) + a finality gadget (partially
//! synchronous), run through a period of network asynchrony.
//!
//! ```sh
//! cargo run --example ebb_and_flow
//! ```
//!
//! During the asynchrony window the available chain's guarantees are
//! void (its model needs synchrony); the gadget's checkpoints remain
//! consistent throughout and finality resumes once synchrony returns.

use tob_svd::finality::FinalitySimulation;

fn main() {
    println!("ebb-and-flow: 6 validators, 14 views, asynchrony during views 4..8 (3Δ delays)\n");
    let report = FinalitySimulation::new(6)
        .with_asynchrony(4, 8, 3)
        .run();

    println!("per-validator state after the run:");
    for o in &report.outcomes {
        println!(
            "  {}: available chain {} blocks | finalized {} blocks | checkpoints at epochs {:?}",
            o.validator,
            o.decided_len - 1,
            o.finalized.len() - 1,
            o.history.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        );
    }

    println!(
        "\navailable chain safe through asynchrony: {} (not guaranteed — needs synchrony)",
        report.available_chain_safe
    );
    assert!(
        report.checkpoints_consistent(),
        "checkpoints must NEVER conflict — that is the gadget's guarantee"
    );
    println!("finalized checkpoints pairwise consistent: true (guaranteed)");
    println!(
        "finality range across validators: {}..{} blocks",
        report.min_finalized_len() - 1,
        report.max_finalized_len() - 1
    );
    println!("\nobservation: once a whole view passes with no votes (all locks lost to");
    println!("asynchrony), Figure 4's \"skip actions whose GA outputs are missing\" rule");
    println!("stalls the available chain permanently — TOB-SVD assumes synchrony from");
    println!("t = 0 and has no built-in resynchronization. The gadget's checkpoints are");
    println!("exactly what survives; restarting the available chain from the latest");
    println!("finalized checkpoint is the ebb-and-flow recovery path (future work in the");
    println!("paper's terms — see README, \"Build, test, bench\").");
}
