//! Byzantine resilience at the ½ boundary.
//!
//! ```sh
//! cargo run --example byzantine_safety
//! ```
//!
//! Part 1 runs TOB-SVD with the strongest generic adversary in the
//! repository — split-brain validators that equivocate every vote and
//! every proposal toward two halves of the network — at the largest
//! corruption compliant with Condition (1) (f = 4 of n = 9). Safety and
//! liveness both hold; latency degrades exactly as the geometric model
//! predicts.
//!
//! Part 2 crosses the threshold at the GA level (f = h) and shows the
//! Validity property — the engine behind TOB-SVD's liveness and lock
//! propagation (Lemma 1) — collapse: unanimous honest inputs no longer
//! produce any output. The ½ bound is tight.
//!
//! (A single GA instance's Consistency and Graded Delivery are
//! quorum-intersection arguments that hold at *any* corruption level —
//! honest forwarding spreads equivocation evidence within 2Δ, before the
//! earliest output phase at 3Δ. What the adversary gains above ½ is the
//! power to veto outputs, which kills Validity, locks and decisions.)

use tob_svd::adversary::{GaEquivocator, SplitBrainNode};
use tob_svd::protocol::TobConfig;
use tob_svd::sim::{GaHarness, GaKind, SimConfig, TobSimulationBuilder, TxWorkload, WorstCaseDelay};
use tob_svd::types::{InstanceId, Log, Time, ValidatorId, View};

fn main() {
    below_threshold();
    above_threshold();
}

fn below_threshold() {
    let n = 9;
    let byz = 4; // f = 4 < h = 5
    println!("— Part 1: split-brain adversary below threshold (f = {byz}, n = {n}) —\n");
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();

    let mut builder = TobSimulationBuilder::new(n)
        .views(40)
        .seed(17)
        .workload(TxWorkload::PerView { count: 1, size: 48 })
        .engine(|sim| sim.delay(Box::new(WorstCaseDelay)));
    for v in ValidatorId::all(n).skip(n - byz) {
        let (a, b) = (half_a.clone(), half_b.clone());
        builder = builder.byzantine(
            v,
            Box::new(move |store| {
                Box::new(SplitBrainNode::new(v, TobConfig::new(n), store, a, b))
            }),
        );
    }
    let report = builder.run().expect("runs");
    report.assert_safety();
    println!("safety: no conflicting decisions across {} views", report.views);
    println!(
        "liveness: {} blocks decided; good-leader fraction {:.2} (> 1/2, Lemma 2)",
        report.decided_blocks(),
        report.good_leader_fraction()
    );
    let mean: f64 = report.tx_latencies_deltas().iter().sum::<f64>()
        / report.report.confirmed.len().max(1) as f64;
    println!("mean confirmation latency {mean:.1}Δ (degrades toward the 10Δ bound as p → ½)\n");
}

fn above_threshold() {
    println!("— Part 2: crossing the threshold (f = h) kills GA Validity —\n");
    let n = 4;
    let all: Vec<ValidatorId> = ValidatorId::all(n).collect();

    // Scenario A (compliant, f = 1 < h = 3): honest v0..v2 input
    // extensions of a common log A; one Byzantine conflict-votes B.
    // Validity holds: everyone outputs A at every grade.
    let run = |byz_ids: &[u32], seed: u64| {
        let cfg = SimConfig::new(n).with_seed(seed);
        let mut h = GaHarness::new(cfg, GaKind::Three);
        let store = h.store().clone();
        let g = Log::genesis(&store);
        let branch_a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let branch_b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        for v in ValidatorId::all(n) {
            if byz_ids.contains(&v.raw()) {
                // Byzantine: consistently vote the conflicting branch B
                // (sent to everyone — no equivocation to get caught on).
                h.byzantine(
                    v,
                    Box::new(GaEquivocator::new(
                        v,
                        InstanceId(0),
                        Time::ZERO,
                        branch_b,
                        all.clone(),
                        branch_b,
                        Vec::new(),
                    )),
                );
            } else {
                h.input(v, branch_a);
            }
        }
        (h.run(), branch_a)
    };

    let (result, branch_a) = run(&[3], 5);
    let honest_out = result.outputs[0][2];
    println!(
        "f = 1 < h = 3: honest grade-2 output = {honest_out:?} (Validity holds: extends the honest input)"
    );
    assert_eq!(honest_out, Some(branch_a));

    let (result, branch_a) = run(&[2, 3], 6);
    let out0 = result.outputs[0][2];
    let out1 = result.outputs[1][2];
    println!("f = 2 = h = 2: honest grade-2 outputs = {out0:?} / {out1:?}");
    // The unanimous honest branch is vetoed; outputs regress to the
    // genesis log (the trivial common prefix every log extends).
    for out in [out0, out1] {
        let out = out.expect("genesis always has unanimous support");
        assert!(
            out != branch_a && !branch_a.is_prefix_of(&out, &result.store),
            "the honest branch must NOT be output at f = h"
        );
        assert_eq!(out.len(), 1, "only the genesis log survives");
    }
    println!("=> the unanimously-input honest branch is never output — only the genesis");
    println!("   log survives. Validity fails exactly at f = h; without it there are no");
    println!("   locks, no new decisions (Lemma 1, Theorem 5): the chain stops growing.");
    println!("   The ½ resilience of Table 1 row 1 is tight.");
}
