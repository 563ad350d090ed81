//! Exhaustive model checking of the k-grade GAs (Figures 1 and 2) over
//! link-delay schedules.
//!
//! Randomized tests sample the adversary's delay choices; this test
//! *enumerates* them: for a 4-validator instance (two honest validators
//! split across conflicting branches, one honest swing vote, one
//! Byzantine targeted equivocator), every directed link is assigned
//! either the fastest (1 tick) or the slowest (Δ) delay — all 2¹²
//! combinations, for k = 2 and k = 3. Every execution must satisfy
//! Consistency, Graded Delivery, Uniqueness, Integrity and Validity
//! (for the genesis log, the one base every honest input extends), as
//! `tob_svd::ga::properties` states them.
//!
//! This covers, among others, the exact schedule family from the
//! Theorem 1 proof narrative: one validator sees support early and
//! another learns of equivocations only at the last allowed moment.

use tob_svd::adversary::{FnDelay, GaEquivocator};
use tob_svd::ga::properties;
use tob_svd::sim::{GaHarness, GaKind, GaRunResult, SimConfig};
use tob_svd::types::{InstanceId, Log, Time, ValidatorId, View};

const N: usize = 4;
const KINDS: [GaKind; 2] = [GaKind::Two, GaKind::Three];

/// Directed-link index for (from, to), skipping self-links.
fn link_index(from: ValidatorId, to: ValidatorId) -> usize {
    let f = from.index();
    let t = to.index();
    let t_adj = if t > f { t - 1 } else { t };
    f * (N - 1) + t_adj
}

/// The GA properties on `result`'s honest validators; the first
/// violation, if any. Uniqueness needs no call: each validator's outputs
/// at a grade are the prefixes of one highest log.
fn check_properties(result: &GaRunResult) -> Result<(), String> {
    let (honest, store) = (result.honest_outcomes(), &result.store);
    properties::consistency(&honest, store)?;
    properties::graded_delivery(&honest, store)?;
    properties::integrity(&honest, &result.honest_inputs(), store)?;
    properties::validity(&honest, Log::genesis(store), store)
}

#[test]
fn all_link_delay_combinations_preserve_ga_properties() {
    let combos = 1u32 << (N * (N - 1)); // 2^12
    for kind in KINDS {
        let mut checked = 0u32;
        for mask in 0..combos {
            let cfg = SimConfig::new(N).with_seed(1);
            let mut h = GaHarness::new(cfg, kind);
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
            if let Err(violation) = check_properties(&h.run()) {
                panic!("{kind:?} mask {mask:#014b}: {violation}");
            }
            checked += 1;
        }
        assert_eq!(checked, combos, "{kind:?}");
    }
}

/// A focused sub-family with the swing validator asleep at Δ, which
/// gates grade k − 1 (it cannot participate there): Graded Delivery
/// obligations shrink with participation exactly as specified, under
/// all byz-link delays.
#[test]
fn delay_combinations_with_reduced_participation() {
    use tob_svd::sim::ParticipationSchedule;
    for kind in KINDS {
        let gated = usize::from(kind.grades() - 1);
        // Only copies of the Byzantine validator's messages are delayed,
        // one bit per (which of its two logs, which of v0, v1, v2 the
        // copy reaches): 2 × 3 = 6 bits, 64 distinct schedules. Copies
        // to v3 and honest messages stay fast.
        for mask in 0u32..64 {
            let cfg = SimConfig::new(N).with_seed(2);
            let mut h = GaHarness::new(cfg, kind);
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
                    if m.sender() == ValidatorId::new(3) && to.index() < 3 {
                        let second_log = usize::from(m.payload().log() == Some(b));
                        if mask & (1 << (3 * second_log + to.index())) != 0 {
                            return d.ticks();
                        }
                    }
                    1
                },
            )));
            let result = h.run();
            // v2 must not participate at the grade the Δ snapshot gates.
            assert!(!result.participated[2][gated], "{kind:?} mask {mask}: v2 missed the snapshot");
            // The remaining obligations still hold.
            if let Err(violation) = check_properties(&result) {
                panic!("{kind:?} mask {mask}: {violation}");
            }
        }
    }
}
