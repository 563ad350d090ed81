//! Regenerates **Table 1** of the paper: the six-protocol comparison of
//! adversarial resilience, best-case latency, expected latency,
//! transaction expected latency, voting phases per new block (best and
//! expected) and communication complexity.
//!
//! Three sources per number:
//!
//! * **paper** — the constant printed in Table 1;
//! * **model** — the geometric leader-lottery process at the adversarial
//!   boundary p(good leader) = ½ (closed form; flagged where a
//!   baseline's own accounting differs, see README § "Build, test,
//!   bench");
//! * **measured** — TOB-SVD only: the real protocol under the
//!   discrete-event simulator, fault-free for the best case and with a
//!   split-brain adversary at the corruption bound for the expected
//!   case (reported at the run's actual good-leader fraction, alongside
//!   the model evaluated at that same fraction for validation).

use tobsvd_bench::analysis::{Summary, Table};
use tobsvd_bench::baselines::{
    all_specs, closed_form_expected, closed_form_tx_expected, phases_per_block,
};
use tobsvd_bench::{mean, run_tobsvd};
use tobsvd_sim::TxWorkload;

fn main() {
    println!("=== Table 1 reproduction — dynamically available TOB protocols ===\n");

    // ---- measured TOB-SVD: best case (fault-free, worst-case delays).
    let best_report = run_tobsvd(8, 0, 12, 7, TxWorkload::PerView { count: 1, size: 48 });
    best_report.assert_safety();
    let block_lats = best_report.block_decision_latencies_deltas();
    let measured_best = block_lats.iter().copied().fold(f64::INFINITY, f64::min);

    // ---- measured TOB-SVD: expected case (split-brain adversary at the
    // corruption bound, txs submitted right before each proposal).
    let n = 9;
    let byz = 4; // f = 4 < h = 5: the largest compliant static corruption
    let exp_report = run_tobsvd(n, byz, 120, 11, TxWorkload::PerView { count: 1, size: 48 });
    exp_report.assert_safety();
    let p_measured = exp_report.good_leader_fraction();
    let tx_lats = exp_report.tx_latencies_deltas();
    let measured_expected = mean(&tx_lats).unwrap_or(f64::NAN);
    let measured_phases = exp_report.voting_phases_per_block().unwrap_or(f64::NAN);

    // ---- measured TOB-SVD: transaction expected latency (random
    // submission times over the same adversarial run).
    let txexp_report = run_tobsvd(n, byz, 120, 13, TxWorkload::Random { total: 400, size: 48 });
    txexp_report.assert_safety();
    let txexp_lats = txexp_report.tx_latencies_deltas();
    let measured_tx_expected = mean(&txexp_lats).unwrap_or(f64::NAN);

    let specs = all_specs();
    let p_boundary = 0.5;

    let mut table = Table::new(vec![
        "metric",
        "TOB-SVD (paper)",
        "TOB-SVD (model p=1/2)",
        "TOB-SVD (measured)",
        "MR",
        "MMR2",
        "GL",
        "1/3-MMR",
        "1/4-MMR",
    ]);

    let by_name = |name: &str| specs.iter().find(|s| s.name == name).expect("spec");
    let tob = by_name("TOB-SVD");
    let baselines = ["MR", "MMR2", "GL", "1/3-MMR", "1/4-MMR"];

    let fmt = |x: f64| {
        if x.is_nan() {
            "-".to_string()
        } else if (x - x.round()).abs() < 1e-9 {
            format!("{}", x.round())
        } else {
            format!("{x:.2}")
        }
    };

    table.row(
        std::iter::once("resilience".to_string())
            .chain(["1/2".into(), "1/2".into(), format!("{byz}/{n} corrupted")])
            .chain(baselines.iter().map(|b| {
                let s = by_name(b);
                format!("{}/{}", s.resilience.0, s.resilience.1)
            }))
            .collect(),
    );
    table.row(
        std::iter::once("best-case latency (Δ)".to_string())
            .chain([
                fmt(tob.paper.best),
                fmt(tob.structure.decision_offset as f64),
                fmt(measured_best),
            ])
            .chain(baselines.iter().map(|b| fmt(by_name(b).paper.best)))
            .collect(),
    );
    table.row(
        std::iter::once("expected latency (Δ)".to_string())
            .chain([
                fmt(tob.paper.expected),
                fmt(closed_form_expected(&tob.structure, p_boundary)),
                format!("{} @p={:.2}", fmt(measured_expected), p_measured),
            ])
            .chain(baselines.iter().map(|b| {
                let s = by_name(b);
                let model = closed_form_expected(&s.structure, p_boundary);
                if (model - s.paper.expected).abs() < 1e-9 {
                    fmt(s.paper.expected)
                } else {
                    format!("{}*", fmt(s.paper.expected))
                }
            }))
            .collect(),
    );
    table.row(
        std::iter::once("tx expected latency (Δ)".to_string())
            .chain([
                fmt(tob.paper.tx_expected),
                fmt(closed_form_tx_expected(&tob.structure, p_boundary)),
                format!(
                    "{} @p={:.2}",
                    fmt(measured_tx_expected),
                    txexp_report.good_leader_fraction()
                ),
            ])
            .chain(baselines.iter().map(|b| {
                let s = by_name(b);
                let model = closed_form_tx_expected(&s.structure, p_boundary);
                if (model - s.paper.tx_expected).abs() < 1e-9 {
                    fmt(s.paper.tx_expected)
                } else {
                    format!("{}*", fmt(s.paper.tx_expected))
                }
            }))
            .collect(),
    );
    table.row(
        std::iter::once("voting phases / block (best)".to_string())
            .chain([
                fmt(tob.paper.phases_best as f64),
                fmt(tob.structure.phases_per_view as f64),
                fmt(best_report.voting_phases_per_block().unwrap_or(f64::NAN)),
            ])
            .chain(baselines.iter().map(|b| fmt(by_name(b).paper.phases_best as f64)))
            .collect(),
    );
    table.row(
        std::iter::once("voting phases / block (expected)".to_string())
            .chain([
                fmt(tob.paper.phases_expected as f64),
                fmt(phases_per_block(&tob.structure, p_boundary)),
                format!("{} @p={:.2}", fmt(measured_phases), p_measured),
            ])
            .chain(
                baselines
                    .iter()
                    .map(|b| fmt(by_name(b).paper.phases_expected as f64)),
            )
            .collect(),
    );
    table.row(
        std::iter::once("communication".to_string())
            .chain([
                "O(Ln^3)".into(),
                "O(Ln^3)".into(),
                "see comm_complexity bench".into(),
            ])
            .chain(
                baselines
                    .iter()
                    .map(|b| format!("O(Ln^{})", by_name(b).paper.comm_exponent)),
            )
            .collect(),
    );

    println!("{}", table.render());
    println!("*  paper constant uses that protocol's own expected-case accounting;");
    println!(
        "   the plain geometric model gives MMR2 expected = {}Δ and MR tx-expected = {}Δ.",
        closed_form_expected(&by_name("MMR2").structure, p_boundary),
        closed_form_tx_expected(&by_name("MR").structure, p_boundary),
    );

    // ---- validation block: measured vs model at the *measured* p.
    println!("\n=== validation: measured TOB-SVD vs model at the run's own p ===");
    let model_at_p = closed_form_expected(&tob.structure, p_measured);
    println!(
        "expected latency: measured {:.2}Δ vs model({:.3}) {:.2}Δ  (n={n}, f={byz}, {} views, {} txs)",
        measured_expected,
        p_measured,
        model_at_p,
        exp_report.views,
        tx_lats.len(),
    );
    if let Some(s) = Summary::from_slice(&tx_lats) {
        println!(
            "latency distribution (Δ): min {:.1} / median {:.1} / p90 {:.1} / max {:.1}",
            s.min, s.median, s.p90, s.max
        );
    }
    let model_phases = phases_per_block(&tob.structure, p_measured);
    println!("voting phases per block: measured {measured_phases:.2} vs model {model_phases:.2}");

    // Shape assertions: the qualitative claims of Table 1 must hold in
    // the measured data, not only in the constants.
    assert!(
        (measured_best - 6.0).abs() < 0.5,
        "best case should be ≈6Δ, got {measured_best}"
    );
    assert!(
        (measured_expected - model_at_p).abs() < 2.0,
        "measured expected latency {measured_expected} too far from model {model_at_p}"
    );
    assert!(p_measured > 0.5, "Lemma 2: good-leader fraction must exceed 1/2");
    println!("\nall shape assertions passed.");
}
