//! Crypto-operation budget regression for the verification fast path.
//!
//! The receive pipeline is dedup-before-verify: per validator, a
//! verified-id set (seeded only post-verify) lets duplicate copies of a
//! broadcast skip signature checking entirely, sender keys come from a
//! process-wide cache instead of per-delivery derivation, and VRF checks
//! memoize per `(sender, view)`. This suite pins the resulting budget on
//! a fault-free 50-view n=8 run:
//!
//! * **≤ 1 signature verification per unique message id per validator**
//!   (exactly 1 in a fault-free run — no forged frames to reject);
//! * **`sig_verify_skips` tiles the duplicate deliveries**: together the
//!   two counters account for every delivered copy, so no delivery can
//!   dodge the accounting (or sneak in an unverified processing path);
//! * VRF verifications stay within one per `(sender, view)` pair per
//!   validator, with the memo absorbing proposal duplicates.
//!
//! A regression that re-verifies per delivery fails the first bound by
//! an order of magnitude (gossip fan-out makes duplicates dominate);
//! a regression that skips verification of *fresh* ids breaks the
//! tiling.

use tob_svd::protocol::{TobSimulationBuilder, TxWorkload};

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

    // Per validator: verifications = unique verified ids (≤ 1 each),
    // and the fast path actually fired (there are duplicates to skip).
    for stats in report.validators.iter().flatten() {
        let c = &stats.crypto;
        assert_eq!(
            c.sig_verifies, c.verified_ids as u64,
            "{}: one verification per unique message id",
            stats.validator
        );
        assert_eq!(
            c.verified_ids, c.unique_messages_seen,
            "{}: every id that passes for verified was sighted — one table, no \
             raw ids (fetch-plane ids are never filed)",
            stats.validator
        );
        assert!(
            c.sig_verify_skips > c.sig_verifies,
            "{}: duplicates must dominate under gossip fan-out \
             ({} skips vs {} verifies)",
            stats.validator,
            c.sig_verify_skips,
            c.sig_verifies
        );
        // VRF budget: at most one verification per proposing sender per
        // live view (views + warm-up slack).
        assert!(
            c.vrf_verifies <= (N as u64) * (VIEWS + 2),
            "{}: VRF verifies {} exceed the (sender, view) budget",
            stats.validator,
            c.vrf_verifies
        );
    }

    // Aggregate tiling: every delivered copy was either verified or
    // skipped — the two counters partition the deliveries exactly
    // (always-awake run: no buffered copies counted at a later wake).
    assert_eq!(
        m.sig_verifies + m.sig_verify_skips,
        m.deliveries,
        "sig_verifies + sig_verify_skips must tile deliveries"
    );

    // Aggregate = sum of per-validator counters (the engine's Context
    // plumbing loses nothing).
    let per_validator_verifies: u64 = report
        .validators
        .iter()
        .flatten()
        .map(|s| s.crypto.sig_verifies)
        .sum();
    let per_validator_skips: u64 = report
        .validators
        .iter()
        .flatten()
        .map(|s| s.crypto.sig_verify_skips)
        .sum();
    assert_eq!(m.sig_verifies, per_validator_verifies);
    assert_eq!(m.sig_verify_skips, per_validator_skips);

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
    for stats in report.validators.iter().flatten() {
        let c = &stats.crypto;
        assert_eq!(
            c.sig_verifies, c.verified_ids as u64,
            "{}: one verification per unique message id even across naps",
            stats.validator
        );
    }
}

/// Certificate-era churn: with the aggregation plane on (the default)
/// and validators sleeping mid-view while certificates are in flight,
/// the engine-level aggregates must still equal the per-validator sums
/// — no counter tick may be lost when a context is applied for a
/// validator that naps right after, and no certificate broadcast may be
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

    // Engine aggregates = per-validator sums, for every counter the
    // aggregation plane touches.
    let sum =
        |f: fn(&tob_svd::protocol::CryptoStats) -> u64| -> u64 {
            report.validators.iter().flatten().map(|s| f(&s.crypto)).sum()
        };
    assert_eq!(m.agg_verifies, sum(|c| c.agg_verifies), "agg_verifies must tile");
    assert_eq!(m.agg_verify_skips, sum(|c| c.agg_verify_skips), "agg_verify_skips must tile");
    assert_eq!(m.sig_verifies, sum(|c| c.sig_verifies), "sig_verifies must tile");
    assert_eq!(m.sig_verify_skips, sum(|c| c.sig_verify_skips), "sig_verify_skips must tile");
    assert_eq!(
        m.certificate_broadcasts,
        sum(|c| c.certificates_emitted),
        "every certificate broadcast is one validator's emission, counted once"
    );
}
