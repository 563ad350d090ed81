//! Table 1 comparison substrate: the published constants of the five
//! baseline protocols (MR, MMR2, GL, 1/3-MMR, 1/4-MMR) and TOB-SVD, and
//! the leader-lottery view process that regenerates them.
//!
//! All six protocols share a common skeleton: proposals every
//! `view_len`·Δ; a view with a *good leader* (probability `p`, > ½ by
//! Lemma 2, → ½ at the adversarial boundary) decides its proposal
//! `decision_offset`·Δ after the proposal; a bad view decides nothing
//! new. Expected-case rows of Table 1 follow from the geometric
//! distribution of "views until the first good one".
//!
//! Where a baseline's own accounting deviates from the plain geometric
//! model (MMR2's expected case, MR's transaction expected latency), the
//! spec carries the paper constant and `table1` prints both, flagged
//! ([`BaselineSpec::geometric_model_exact`]).

/// Structural parameters of a protocol's view process (in Δ).
#[derive(Clone, Copy, Debug)]
pub struct ViewProcess {
    /// Time between consecutive proposals, in Δ.
    pub view_len: u64,
    /// Proposal → decision latency in a good view, in Δ (the best case).
    pub decision_offset: u64,
    /// Voting phases each view costs.
    pub phases_per_view: u32,
}

/// Closed-form expected latency (in Δ) of a transaction submitted right
/// before a proposal: `decision_offset + view_len·(1−p)/p`.
pub fn closed_form_expected(p_struct: &ViewProcess, p_good: f64) -> f64 {
    assert!(p_good > 0.0 && p_good <= 1.0, "p_good must be in (0, 1]");
    p_struct.decision_offset as f64 + p_struct.view_len as f64 * (1.0 - p_good) / p_good
}

/// Closed-form transaction expected latency (in Δ): half a proposal
/// interval of queueing plus the expected latency (paper §2).
pub fn closed_form_tx_expected(p_struct: &ViewProcess, p_good: f64) -> f64 {
    p_struct.view_len as f64 / 2.0 + closed_form_expected(p_struct, p_good)
}

/// Expected voting phases per decided block: every view costs
/// `phases_per_view`, one block is decided per good view, so
/// `phases_per_view / p`.
pub fn phases_per_block(p_struct: &ViewProcess, p_good: f64) -> f64 {
    assert!(p_good > 0.0 && p_good <= 1.0, "p_good must be in (0, 1]");
    p_struct.phases_per_view as f64 / p_good
}

/// The published Table 1 row of a protocol (latencies in Δ).
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Best-case latency.
    pub best: f64,
    /// Expected latency.
    pub expected: f64,
    /// Transaction expected latency.
    pub tx_expected: f64,
    /// Voting phases per new block, best case.
    pub phases_best: u32,
    /// Voting phases per new block, expected case.
    pub phases_expected: u32,
    /// Communication complexity exponent of `n` (`O(L·n^e)`).
    pub comm_exponent: u32,
}

/// One protocol in the comparison.
#[derive(Clone, Copy, Debug)]
pub struct BaselineSpec {
    /// Display name.
    pub name: &'static str,
    /// Adversarial resilience as a fraction (numerator, denominator).
    pub resilience: (u32, u32),
    /// The paper's Table 1 constants.
    pub paper: PaperRow,
    /// Structural view process generating the constants.
    pub structure: ViewProcess,
    /// Whether the plain geometric leader-lottery model reproduces the
    /// paper's expected-case rows exactly (false for MMR2's expected
    /// latency and MR's tx-expected latency, which use those papers' own
    /// finer-grained accounting).
    pub geometric_model_exact: bool,
}

/// All six protocols of Table 1, TOB-SVD first.
pub fn all_specs() -> Vec<BaselineSpec> {
    vec![
        BaselineSpec {
            name: "TOB-SVD",
            resilience: (1, 2),
            paper: PaperRow {
                best: 6.0,
                expected: 10.0,
                tx_expected: 12.0,
                phases_best: 1,
                phases_expected: 2,
                comm_exponent: 3,
            },
            structure: ViewProcess { view_len: 4, decision_offset: 6, phases_per_view: 1 },
            geometric_model_exact: true,
        },
        BaselineSpec {
            name: "MR",
            resilience: (1, 2),
            paper: PaperRow {
                best: 16.0,
                expected: 32.0,
                tx_expected: 50.5,
                phases_best: 10,
                phases_expected: 20,
                comm_exponent: 3,
            },
            structure: ViewProcess { view_len: 16, decision_offset: 16, phases_per_view: 10 },
            geometric_model_exact: false, // tx-expected uses MR's own accounting
        },
        BaselineSpec {
            name: "MMR2",
            resilience: (1, 2),
            paper: PaperRow {
                best: 4.0,
                expected: 14.0,
                tx_expected: 19.0,
                phases_best: 3,
                phases_expected: 12,
                comm_exponent: 3,
            },
            structure: ViewProcess { view_len: 5, decision_offset: 4, phases_per_view: 3 },
            geometric_model_exact: false, // expected case needs 2 extra views in MMR2's accounting
        },
        BaselineSpec {
            name: "GL",
            resilience: (1, 2),
            paper: PaperRow {
                best: 10.0,
                expected: 20.0,
                tx_expected: 25.0,
                phases_best: 5,
                phases_expected: 10,
                comm_exponent: 3,
            },
            structure: ViewProcess { view_len: 10, decision_offset: 10, phases_per_view: 5 },
            geometric_model_exact: true,
        },
        BaselineSpec {
            name: "1/3-MMR",
            resilience: (1, 3),
            paper: PaperRow {
                best: 3.0,
                expected: 6.0,
                tx_expected: 7.5,
                phases_best: 2,
                phases_expected: 4,
                comm_exponent: 2,
            },
            structure: ViewProcess { view_len: 3, decision_offset: 3, phases_per_view: 2 },
            geometric_model_exact: true,
        },
        BaselineSpec {
            name: "1/4-MMR",
            resilience: (1, 4),
            paper: PaperRow {
                best: 2.0,
                expected: 4.0,
                tx_expected: 5.0,
                phases_best: 1,
                phases_expected: 2,
                comm_exponent: 2,
            },
            structure: ViewProcess { view_len: 2, decision_offset: 2, phases_per_view: 1 },
            geometric_model_exact: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tob() -> ViewProcess {
        ViewProcess { view_len: 4, decision_offset: 6, phases_per_view: 1 }
    }

    #[test]
    fn closed_forms_at_half_and_one() {
        let p = tob();
        assert!((closed_form_expected(&p, 0.5) - 10.0).abs() < 1e-12);
        assert!((closed_form_tx_expected(&p, 0.5) - 12.0).abs() < 1e-12);
        assert!((phases_per_block(&p, 0.5) - 2.0).abs() < 1e-12);
        // Perfect leaders: expected collapses to best case.
        assert!((closed_form_expected(&p, 1.0) - 6.0).abs() < 1e-12);
        assert!((phases_per_block(&p, 1.0) - 1.0).abs() < 1e-12);
        assert!(closed_form_expected(&p, 0.9) < closed_form_expected(&p, 0.5));
        assert!(phases_per_block(&p, 0.9) < phases_per_block(&p, 0.5));
    }

    #[test]
    #[should_panic(expected = "p_good must be in (0, 1]")]
    fn zero_probability_rejected() {
        let _ = closed_form_expected(&tob(), 0.0);
    }

    #[test]
    fn geometric_exact_protocols_regenerate_their_rows() {
        for spec in all_specs() {
            assert_eq!(spec.paper.best, spec.structure.decision_offset as f64, "{}", spec.name);
            let expected = closed_form_expected(&spec.structure, 0.5);
            let tx = closed_form_tx_expected(&spec.structure, 0.5);
            let exact = (expected - spec.paper.expected).abs() < 1e-9
                && (tx - spec.paper.tx_expected).abs() < 1e-9;
            assert_eq!(exact, spec.geometric_model_exact, "{}: model {expected}/{tx}", spec.name);
        }
        let tob = &all_specs()[0];
        assert_eq!(tob.name, "TOB-SVD");
        assert_eq!(tob.paper.best, 6.0);
        let phases = phases_per_block(&tob.structure, 0.5);
        assert!((phases - tob.paper.phases_expected as f64).abs() < 1e-9);
    }

    #[test]
    fn tob_svd_wins_expected_latency_among_half_resilient() {
        let specs = all_specs();
        let tob = &specs[0];
        for other in specs.iter().filter(|s| s.resilience == (1, 2) && s.name != "TOB-SVD") {
            assert!(
                tob.paper.expected < other.paper.expected,
                "TOB-SVD must beat {} on expected latency",
                other.name
            );
            assert!(tob.paper.tx_expected < other.paper.tx_expected);
            assert!(tob.paper.phases_expected <= other.paper.phases_expected);
        }
    }
}
