//! Exhaustive model checking of the 2-grade GA over link-delay
//! schedules.
//!
//! Randomized tests sample the adversary's delay choices; this test
//! *enumerates* them: for a 4-validator instance (two honest validators
//! split across conflicting branches, one honest swing vote, one
//! Byzantine targeted equivocator), every directed link is assigned
//! either the fastest (1 tick) or the slowest (Δ) delay — all 2¹²
//! combinations. Every execution must satisfy Consistency, Graded
//! Delivery, Uniqueness and Integrity.
//!
//! This covers, among others, the exact schedule family from the
//! Theorem 1 proof narrative: one validator sees support early and
//! another learns of equivocations only at the last allowed moment.

use tob_svd::adversary::{FnDelay, GaEquivocator};
use tob_svd::sim::{GaHarness, GaKind, SimConfig};
use tob_svd::types::{InstanceId, Log, Time, ValidatorId, View};

const N: usize = 4;

/// Directed-link index for (from, to), skipping self-links.
fn link_index(from: ValidatorId, to: ValidatorId) -> usize {
    let f = from.index();
    let t = to.index();
    let t_adj = if t > f { t - 1 } else { t };
    f * (N - 1) + t_adj
}

#[test]
fn all_link_delay_combinations_preserve_ga2_properties() {
    let combos = 1u32 << (N * (N - 1)); // 2^12
    let mut checked = 0u32;
    for mask in 0..combos {
        let cfg = SimConfig::new(N).with_seed(1);
        let mut h = GaHarness::new(cfg, GaKind::Two);
        let store = h.store().clone();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));

        h.input(ValidatorId::new(0), a);
        h.input(ValidatorId::new(1), b);
        h.input(ValidatorId::new(2), a);
        h.byzantine(
            ValidatorId::new(3),
            Box::new(GaEquivocator::new(
                ValidatorId::new(3),
                InstanceId(0),
                Time::ZERO,
                a,
                vec![ValidatorId::new(0), ValidatorId::new(2)],
                b,
                vec![ValidatorId::new(1)],
            )),
        );
        h.delay(Box::new(FnDelay(
            move |_m: &tob_svd::types::SignedMessage, from, to, _at, delta: tob_svd::types::Delta| {
                if mask & (1 << link_index(from, to)) != 0 {
                    delta.ticks()
                } else {
                    1
                }
            },
        )));
        let result = h.run();

        let honest = [0usize, 1, 2];
        // Consistency + Uniqueness at grade 1.
        for &i in &honest {
            for &j in &honest {
                if let (Some(x), Some(y)) = (result.outputs[i][1], result.outputs[j][1]) {
                    assert!(
                        x.compatible(&y, &result.store),
                        "mask {mask:#014b}: grade-1 conflict {x} vs {y}"
                    );
                }
            }
        }
        // Graded Delivery 1 → 0.
        for &i in &honest {
            if let Some(hi) = result.outputs[i][1] {
                for &j in &honest {
                    if result.participated[j][0] {
                        let lo = result.outputs[j][0];
                        assert!(
                            matches!(lo, Some(lo) if hi.is_prefix_of(&lo, &result.store)),
                            "mask {mask:#014b}: v{i} grade-1 {hi} not delivered at v{j} grade 0 ({lo:?})"
                        );
                    }
                }
            }
        }
        // Integrity: outputs extend some honest input.
        let inputs = [a, b, a];
        for &i in &honest {
            for gr in 0..2usize {
                if let Some(out) = result.outputs[i][gr] {
                    assert!(
                        inputs.iter().any(|inp| out.is_prefix_of(inp, &result.store)),
                        "mask {mask:#014b}: v{i} grade-{gr} output {out} beyond honest inputs"
                    );
                }
            }
        }
        checked += 1;
    }
    assert_eq!(checked, combos);
}

/// A focused sub-family with the swing validator asleep at Δ (cannot
/// participate at grade 1): Graded Delivery obligations shrink with
/// participation exactly as specified, under all byz-link delays.
#[test]
fn delay_combinations_with_reduced_participation() {
    use tob_svd::sim::ParticipationSchedule;
    // Only the 6 links out of the Byzantine validator are enumerated
    // (64 combos); honest links stay fast.
    for mask in 0u32..64 {
        let cfg = SimConfig::new(N).with_seed(2);
        let mut h = GaHarness::new(cfg, GaKind::Two);
        let store = h.store().clone();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        h.input(ValidatorId::new(0), a);
        h.input(ValidatorId::new(1), a);
        h.input(ValidatorId::new(2), b);
        h.byzantine(
            ValidatorId::new(3),
            Box::new(GaEquivocator::new(
                ValidatorId::new(3),
                InstanceId(0),
                Time::ZERO,
                a,
                vec![ValidatorId::new(0)],
                b,
                vec![ValidatorId::new(1), ValidatorId::new(2)],
            )),
        );
        // v2 misses the Δ snapshot (asleep for one tick around it).
        let mut part = ParticipationSchedule::always_awake(N);
        let delta = tob_svd::types::Delta::default().ticks();
        part.set_intervals(
            ValidatorId::new(2),
            vec![
                (Time::ZERO, Time::new(delta)),
                (Time::new(delta + 1), Time::new(10 * delta)),
            ],
        );
        h.participation(part);
        h.delay(Box::new(FnDelay(
            move |m: &tob_svd::types::SignedMessage, _from, to: ValidatorId, _at, d: tob_svd::types::Delta| {
                if m.sender() == ValidatorId::new(3) {
                    let bit = to.index().min(2);
                    if mask & (1 << bit) != 0 {
                        return d.ticks();
                    }
                }
                1
            },
        )));
        let result = h.run();
        // v2 must not participate at grade 1.
        assert!(!result.participated[2][1], "mask {mask}: v2 missed the snapshot");
        // The remaining obligations still hold.
        for i in [0usize, 1] {
            if let Some(hi) = result.outputs[i][1] {
                for j in [0usize, 1, 2] {
                    if result.participated[j][0] {
                        let lo = result.outputs[j][0];
                        assert!(
                            matches!(lo, Some(lo) if hi.is_prefix_of(&lo, &result.store)),
                            "mask {mask}: graded delivery broken at v{j}"
                        );
                    }
                }
            }
        }
    }
}
