//! Crypto-operation budget regression for the verification fast path.
//!
//! The receive pipeline is dedup-before-verify: per validator, a
//! verified-id set (seeded only post-verify) lets duplicate copies of a
//! broadcast skip signature checking entirely, sender keys come from a
//! process-wide cache instead of per-delivery derivation, and VRFs are
//! verified on demand — only a claim whose priority is used, once per
//! claim. Crypto work is counted in one place —
//! the `Context::crypto_ops` the engine folds into `Metrics` — so this
//! suite reads the run's `Metrics` and the finished validators' filed
//! ids, and pins the resulting budget on a fault-free 50-view n=8 run:
//!
//! * **exactly 1 signature verification per unique message id per
//!   validator** (no forged frames to reject): `m.sig_verifies` equals
//!   the sum of every validator's `verified_ids()`. The sum implies the
//!   per-validator equality: a validator files an id only after
//!   verifying it, so each validator's verifications are at least its
//!   filed ids, and terms that are each ≥ their counterpart can only
//!   sum to equal totals if every pair is equal;
//! * **`sig_verify_skips` tiles the duplicate deliveries**: together the
//!   two counters account for every delivered copy, so no delivery can
//!   dodge the accounting (or sneak in an unverified processing path);
//! * VRF verifications are linear, not quadratic: about one per
//!   validator per view (the vote input's), where verifying on receipt
//!   cost one per `(sender, view)` pair per validator.
//!
//! A regression that re-verifies per delivery breaks the first equality
//! by an order of magnitude (gossip fan-out makes duplicates dominate);
//! a regression that skips verification of *fresh* ids breaks it the
//! other way, and the tiling too.

use tob_svd::protocol::{TobReport, TobSimulationBuilder, TxWorkload};

const N: usize = 8;
const VIEWS: u64 = 50;

#[test]
fn one_signature_verify_per_unique_message_per_validator() {
    // Per-vote baseline: this test pins the dedup-before-verify budget
    // under the paper's gossip echo, where duplicate copies dominate.
    // (The aggregation plane removes the echo — and with it the
    // duplicates — which `certificate_counters_tile_under_churn` below
    // covers.)
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(5)
        .certificates(false)
        .workload(TxWorkload::PerView { count: 4, size: 128 })
        .run()
        .expect("fault-free run");
    report.assert_safety();
    let m = &report.report.metrics;
    assert!(report.decided_blocks() >= VIEWS - 2, "fault-free run decides nearly every view");

    // One verification per unique verified id, summed over validators
    // (the module doc derives the per-validator equality from it), and
    // one table: every id that passes for verified was sighted (fetch-
    // plane ids are never filed, and this run sends none).
    assert_eq!(m.block_request_broadcasts, 0);
    assert_eq!(m.sig_verifies, verified_ids(&report), "one verification per unique id");
    for v in report.honest_validators() {
        assert_eq!(v.verified_ids(), v.unique_messages_seen(), "{}: one table, no raw ids", v.id());
    }
    // VRF budget: c·n·(views + 2) with c = 1 — each validator checks
    // the one claim its vote adopts (measured 408 = 8 × 51 vote phases;
    // verifying on receipt measured n² per view, 3 264).
    assert!(
        m.vrf_verifies <= N as u64 * (VIEWS + 2),
        "VRF verifies {} exceed the linear budget",
        m.vrf_verifies
    );

    // Aggregate tiling: every delivered copy was either verified or
    // skipped — the two counters partition the deliveries exactly
    // (always-awake run: no buffered copies counted at a later wake).
    assert_eq!(
        m.sig_verifies + m.sig_verify_skips,
        m.deliveries,
        "sig_verifies + sig_verify_skips must tile deliveries"
    );

    // The saving is real: with n=8 gossip fan-out, duplicate copies are
    // the overwhelming majority of deliveries (measured 88.9 %).
    let skip_fraction = m.sig_verify_skips as f64 / m.deliveries as f64;
    assert!(
        skip_fraction >= 0.8,
        "expected ≥80% of deliveries to skip crypto, got {:.1}%",
        skip_fraction * 100.0
    );
}

/// The budget holds under churn too — waking validators receive bursts
/// of buffered duplicates, which must all hit the skip path (buffered
/// copies were counted as deliveries when they arrived, so exact tiling
/// is not required here; the per-validator unique-id bound is). This
/// scenario uses buffered sleep semantics, so it produces no fetch
/// traffic — asserted below, because fetch frames verify without being
/// retained and would legitimately break the strict equality.
#[test]
fn budget_holds_with_sleep_churn() {
    use tob_svd::sim::ParticipationSchedule;
    use tob_svd::types::{Time, ValidatorId};

    let delta = 8u64;
    let mut part = ParticipationSchedule::always_awake(N);
    // Two sleepers with staggered naps.
    part.set_intervals(
        ValidatorId::new(2),
        vec![(Time::ZERO, Time::new(40 * delta)), (Time::new(60 * delta), Time::new(100_000))],
    );
    part.set_intervals(
        ValidatorId::new(5),
        vec![(Time::ZERO, Time::new(80 * delta)), (Time::new(110 * delta), Time::new(100_000))],
    );
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(9)
        .participation(part)
        .run()
        .expect("churn run");
    report.assert_safety();
    // Precondition for the strict equality below: no fetch-plane frames
    // (those verify with retain=false and would put sig_verifies above
    // verified_ids by exactly their count — correct, but not what this
    // scenario is calibrated to measure).
    assert_eq!(report.report.metrics.block_request_broadcasts, 0, "buffered churn needs no fetches");
    assert_eq!(report.report.metrics.block_response_broadcasts, 0);
    assert_eq!(
        report.report.metrics.sig_verifies,
        verified_ids(&report),
        "one verification per unique message id even across naps"
    );
}

/// Certificate-era churn: with the aggregation plane on (the default)
/// and validators sleeping mid-view while certificates are in flight,
/// every certificate broadcast the engine counted is one validator's
/// emission, counted once — no emission may be lost when a context is
/// applied for a validator that naps right after, and none may be
/// double-counted across the sleep boundary.
#[test]
fn certificate_counters_tile_under_churn() {
    use tob_svd::sim::ParticipationSchedule;
    use tob_svd::types::{Time, ValidatorId};

    let delta = 8u64;
    let mut part = ParticipationSchedule::always_awake(N);
    // Nap boundaries deliberately *inside* views (not on view starts),
    // so certificates assembled at phase boundaries are in flight to
    // validators that sleep before the next boundary.
    part.set_intervals(
        ValidatorId::new(1),
        vec![(Time::ZERO, Time::new(30 * delta + 3)), (Time::new(70 * delta + 5), Time::new(100_000))],
    );
    part.set_intervals(
        ValidatorId::new(6),
        vec![(Time::ZERO, Time::new(90 * delta + 2)), (Time::new(130 * delta + 1), Time::new(100_000))],
    );
    let report = TobSimulationBuilder::new(N)
        .views(VIEWS)
        .seed(11)
        .participation(part)
        .run()
        .expect("churn run");
    report.assert_safety();
    let m = &report.report.metrics;

    // Certificates were genuinely in flight.
    assert!(m.certificate_broadcasts > 0, "aggregation plane must be active");
    assert!(m.certificate_bytes > 0, "certificate deliveries must be byte-accounted");
    assert!(m.agg_verify_skips > 0, "subset-skip fast path must fire");
    assert_eq!(
        m.certificate_broadcasts,
        report.honest_validators().map(|v| v.certificates_emitted()).sum::<u64>(),
        "every certificate broadcast is one validator's emission, counted once"
    );
}

/// Distinct ids that pass for verified, summed over the validators.
fn verified_ids(report: &TobReport) -> u64 {
    report.honest_validators().map(|v| v.verified_ids() as u64).sum()
}
