//! Shared helpers of the paper-artifact regenerators.
//!
//! The `benches/` targets of this crate regenerate the tables and
//! figures of the paper — and nothing else; performance is measured by
//! the `perf/` ledger declared in `BENCHMARK.json`:
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table 1 (all seven metric rows, six protocols) |
//! | `fig3_timeline` | Figure 3 (view/GA overlap timeline) |
//! | `comm_complexity` | Table 1 row 7 measured: O(L·n³) growth fit |
//! | `ablation_stabilization` | §2/§6.3 stabilization-period ablation |
//!
//! Run them with `cargo bench -p tobsvd-bench` (or a specific
//! `--bench` target).

#![forbid(unsafe_code)]

use tobsvd_adversary::SplitBrainNode;
use tobsvd_core::{TobConfig, TobReport, TobSimulationBuilder, TxWorkload};
use tobsvd_sim::WorstCaseDelay;
use tobsvd_types::{Delta, ValidatorId};

/// Even/odd split of the validator set — the two halves a split-brain
/// adversary equivocates toward.
pub fn halves(n: usize) -> (Vec<ValidatorId>, Vec<ValidatorId>) {
    let a = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let b = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    (a, b)
}

/// Runs TOB-SVD with `byz` split-brain Byzantine validators (the last
/// `byz` validator ids), worst-case network delays, and the given
/// workload. The worst-case delay policy makes the latency numbers tight
/// against the paper's Δ accounting and keeps equivocation splits clean
/// (second-hand forwards land after the voting deadline).
///
/// Runs the paper's protocol verbatim — per-vote forwarding, no
/// certificates — so the Table 1 reproductions keep measuring the
/// published O(L·n³) behavior.
pub fn run_tobsvd(
    n: usize,
    byz: usize,
    views: u64,
    seed: u64,
    workload: TxWorkload,
) -> TobReport {
    assert!(byz < n, "cannot corrupt everyone");
    let delta = Delta::default();
    let (half_a, half_b) = halves(n);
    let mut builder = TobSimulationBuilder::new(n)
        .views(views)
        .seed(seed)
        .delta(delta)
        .workload(workload)
        .certificates(false)
        .delay(Box::new(WorstCaseDelay));
    for v in ValidatorId::all(n).skip(n - byz) {
        let (a, b) = (half_a.clone(), half_b.clone());
        let cfg = TobConfig::new(n).with_delta(delta).with_certificates(false);
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
        );
    }
    builder.run().expect("valid configuration")
}

/// Mean of a slice, `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_partition() {
        let (a, b) = halves(7);
        assert_eq!(a.len() + b.len(), 7);
        for v in &a {
            assert!(!b.contains(v));
        }
    }

    #[test]
    fn fault_free_run_is_tight() {
        let report = run_tobsvd(5, 0, 6, 1, TxWorkload::PerView { count: 1, size: 32 });
        report.assert_safety();
        assert!(report.decided_blocks() >= 5);
    }

    #[test]
    fn split_brain_run_stays_safe() {
        let report = run_tobsvd(9, 4, 8, 2, TxWorkload::PerView { count: 1, size: 32 });
        report.assert_safety();
    }
}
