//! The §4 experiment: the background Momose–Ren GA counts equivocations
//! in its support sets (`X_Λ`) and vote tallies, which costs it
//! **Uniqueness at grade 0** — a single honest validator can output two
//! conflicting logs. The paper's 2-grade GA (Figure 1) closes exactly
//! this gap by erasing equivocators and time-shifting the equivocator
//! set. Both claims are exhibited on the same adversarial scenario.

use tob_svd::adversary::GaEquivocator;
use tob_svd::ga::properties;
use tob_svd::sim::{BestCaseDelay, GaHarness, GaKind, SimConfig};
use tob_svd::types::{InstanceId, Log, Time, ValidatorId, View};

/// Two honest validators split across branches + two Byzantine
/// validators that equivocate both branches to everyone.
fn build(kind: GaKind, seed: u64) -> (tob_svd::sim::GaRunResult, Log, Log) {
    let n = 4;
    let cfg = SimConfig::new(n).with_seed(seed);
    let mut h = GaHarness::new(cfg, kind);
    let store = h.store().clone();
    let g = Log::genesis(&store);
    let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
    let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
    let all: Vec<ValidatorId> = ValidatorId::all(n).collect();

    h.input(ValidatorId::new(0), a);
    h.input(ValidatorId::new(1), b);
    for byz in [2u32, 3] {
        h.byzantine(
            ValidatorId::new(byz),
            Box::new(GaEquivocator::new(
                ValidatorId::new(byz),
                InstanceId(0),
                Time::ZERO,
                a,
                all.clone(),
                b,
                all.clone(),
            )),
        );
    }
    h.delay(Box::new(BestCaseDelay));
    (h.run(), a, b)
}

#[test]
fn mr_ga_outputs_conflicting_logs_at_grade_0() {
    let (result, a, b) = build(GaKind::Mr, 3);
    // X_a = {v0, v2, v3} and X_b = {v1, v2, v3}, both majorities of
    // S = 4, so honest validators vote for both branches; the vote tally
    // then counts each (equivocating) voter toward both branches while
    // the denominator counts voters once → both branches pass.
    let honest0 = &result.mr_grade0[0];
    assert!(
        honest0.len() >= 2,
        "expected conflicting grade-0 outputs, got {honest0:?}"
    );
    assert!(
        properties::uniqueness(honest0, &result.store).is_err(),
        "outputs must conflict: {honest0:?}"
    );
    assert!(honest0.contains(&a));
    assert!(honest0.contains(&b));
}

#[test]
fn figure1_ga_preserves_uniqueness_on_the_same_attack() {
    let (result, a, b) = build(GaKind::Two, 3);
    // The 2-grade GA erases equivocators from V: each honest validator
    // sees one vote per branch (2·1 ≤ 4) and the shared genesis prefix
    // at best — never two conflicting outputs.
    for i in 0..2 {
        let out = result.outputs[i][0];
        if let Some(out) = out {
            assert!(
                !out.conflicts(&a, &result.store) || !out.conflicts(&b, &result.store),
                "v{i} grade-0 output {out} conflicts with both branches"
            );
            assert_eq!(out.len(), 1, "only genesis can pass for v{i}, got {out}");
        }
        // Grade 1 likewise.
        assert!(
            result.outputs[i][1].map(|o| o.len()).unwrap_or(1) <= 1,
            "no branch may reach grade 1"
        );
    }
}

#[test]
fn gap_needs_equivocation_counting_not_just_byzantines() {
    // Control experiment: the same two Byzantine validators voting *one*
    // branch consistently (no equivocation) do not create conflicting
    // grade-0 outputs in the MR GA — the gap is specifically about
    // counting equivocations.
    let n = 4;
    let cfg = SimConfig::new(n).with_seed(7);
    let mut h = GaHarness::new(cfg, GaKind::Mr);
    let store = h.store().clone();
    let g = Log::genesis(&store);
    let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
    let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
    let all: Vec<ValidatorId> = ValidatorId::all(n).collect();
    h.input(ValidatorId::new(0), a);
    h.input(ValidatorId::new(1), b);
    for byz in [2u32, 3] {
        h.byzantine(
            ValidatorId::new(byz),
            Box::new(GaEquivocator::new(
                ValidatorId::new(byz),
                InstanceId(0),
                Time::ZERO,
                a,
                all.clone(),
                a, // same branch to everyone: no equivocation
                Vec::new(),
            )),
        );
    }
    h.delay(Box::new(BestCaseDelay));
    let result = h.run();
    for i in 0..2 {
        if let Err(violation) = properties::uniqueness(&result.mr_grade0[i], &result.store) {
            panic!("v{i}: consistent byz votes must not create conflicts: {violation}");
        }
    }
}
