//! Threshold tightness: the protocol's guarantees at, below and above
//! the ½ corruption bound of the (T_b, T_s, ½)-sleepy model.

use tob_svd::adversary::{GaEquivocator, SplitBrainNode};
use tob_svd::protocol::TobConfig;
use tob_svd::sim::compliance::{check, SleepyParams};
use tob_svd::sim::{
    CorruptionSchedule, GaHarness, GaKind, ParticipationSchedule, SimConfig, TobSimulationBuilder,
    TxWorkload, WorstCaseDelay,
};
use tob_svd::types::{Delta, InstanceId, Log, Time, ValidatorId, View};

/// f = ⌊(n−1)/2⌋ is compliant with everyone awake; f = ⌈n/2⌉ is not.
#[test]
fn compliance_boundary() {
    let delta = Delta::default();
    let params = SleepyParams::half(5 * delta.ticks(), 2 * delta.ticks());
    for n in 3usize..12 {
        let part = ParticipationSchedule::always_awake(n);
        let ok_f = (n - 1) / 2;
        let corr = CorruptionSchedule::from_genesis(
            ValidatorId::all(n).skip(n - ok_f),
        );
        assert!(
            check(&part, &corr, params, Time::new(300)).is_none(),
            "n={n}, f={ok_f} must be compliant"
        );
        let bad_f = n / 2 + (n % 2); // ⌈n/2⌉
        let corr = CorruptionSchedule::from_genesis(
            ValidatorId::all(n).skip(n - bad_f),
        );
        assert!(
            check(&part, &corr, params, Time::new(300)).is_some(),
            "n={n}, f={bad_f} must violate Condition (1)"
        );
    }
}

/// Below the bound: Validity holds — unanimous honest inputs always
/// come out, whatever one under-threshold Byzantine coalition votes.
#[test]
fn validity_below_threshold() {
    for n in [4usize, 6, 8] {
        let f = (n - 1) / 2;
        let cfg = SimConfig::new(n).with_seed(n as u64);
        let mut h = GaHarness::new(cfg, GaKind::Three);
        let store = h.store().clone();
        let base = Log::genesis(&store).extend_empty(&store, ValidatorId::new(90), View::new(1));
        let conflicting =
            Log::genesis(&store).extend_empty(&store, ValidatorId::new(91), View::new(1));
        let all: Vec<ValidatorId> = ValidatorId::all(n).collect();
        for v in ValidatorId::all(n) {
            if v.index() >= n - f {
                h.byzantine(
                    v,
                    Box::new(GaEquivocator::new(
                        v,
                        InstanceId(0),
                        Time::ZERO,
                        conflicting,
                        all.clone(),
                        conflicting,
                        Vec::new(),
                    )),
                );
            } else {
                h.input(v, base);
            }
        }
        let result = h.run();
        for i in 0..n - f {
            for g in 0..3u8 {
                assert_eq!(
                    result.outputs[i][g as usize],
                    Some(base),
                    "n={n}, f={f}: honest v{i} must output the base at grade {g}"
                );
            }
        }
    }
}

/// At the bound (f = h): Validity dies — the unanimous honest branch is
/// vetoed and only the genesis prefix survives.
#[test]
fn validity_dies_at_f_equals_h() {
    let n = 6;
    let f = 3;
    let cfg = SimConfig::new(n).with_seed(9);
    let mut h = GaHarness::new(cfg, GaKind::Three);
    let store = h.store().clone();
    let base = Log::genesis(&store).extend_empty(&store, ValidatorId::new(90), View::new(1));
    let conflicting =
        Log::genesis(&store).extend_empty(&store, ValidatorId::new(91), View::new(1));
    let all: Vec<ValidatorId> = ValidatorId::all(n).collect();
    for v in ValidatorId::all(n) {
        if v.index() >= n - f {
            h.byzantine(
                v,
                Box::new(GaEquivocator::new(
                    v,
                    InstanceId(0),
                    Time::ZERO,
                    conflicting,
                    all.clone(),
                    conflicting,
                    Vec::new(),
                )),
            );
        } else {
            h.input(v, base);
        }
    }
    let result = h.run();
    for i in 0..n - f {
        let out = result.outputs[i][2];
        assert!(
            !matches!(out, Some(o) if base.is_prefix_of(&o, &result.store)),
            "v{i}: the honest branch must be vetoed at f = h, got {out:?}"
        );
    }
}

/// Above the bound, the TOB chain stops growing (liveness death), while
/// the per-instance quorum-intersection arguments keep the observed
/// executions conflict-free for this adversary.
#[test]
fn chain_halts_above_threshold() {
    let n = 6;
    let f = 3; // f = h: over the model bound
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(15)
        .seed(10)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .engine(|sim| sim.delay(Box::new(WorstCaseDelay)));
    for v in ValidatorId::all(n).skip(n - f) {
        let (a, b) = (half_a.clone(), half_b.clone());
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, TobConfig::new(n), store, a, b))),
        );
    }
    let report = builder.run().expect("runs");
    // Liveness: gone. With f = h every vote count ties at best; no lock
    // and no decision ever forms beyond genesis.
    assert_eq!(
        report.decided_blocks(),
        0,
        "no block should decide at f = h, got {}",
        report.decided_blocks()
    );
    // This particular adversary also never managed to split decisions
    // (there were none) — the recorded execution stays safe.
    report.assert_safety();
}

/// Liveness degrades gracefully as f approaches the bound: more
/// Byzantine split-brains → fewer good-leader views → fewer blocks.
#[test]
fn graceful_degradation_toward_the_bound() {
    let n = 9;
    let views = 30u64;
    let mut decided = Vec::new();
    for f in [0usize, 2, 4] {
        let half_a: Vec<ValidatorId> =
            ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
        let half_b: Vec<ValidatorId> =
            ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
        let mut builder = TobSimulationBuilder::new(n)
            .views(views)
            .seed(31)
            .engine(|sim| sim.delay(Box::new(WorstCaseDelay)));
        for v in ValidatorId::all(n).skip(n - f) {
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
        decided.push(report.decided_blocks());
    }
    assert!(
        decided[0] >= decided[1] && decided[1] >= decided[2],
        "block count should fall with f: {decided:?}"
    );
    assert!(decided[2] > 0, "below the bound the chain still grows");
}
