//! Wire-byte budget regression for the delta-sync message plane.
//!
//! Every delivered copy is charged its exact wire encoding
//! (`wire::encoded_len`), and the same run accumulates what the
//! pre-delta-sync full-chain codec would have shipped
//! (`Metrics::inline_equiv_bytes`). Two pins keep the refactor honest:
//!
//! * the savings ratio stays ≥ 5× (the acceptance bar of the delta-sync
//!   refactor; at this scale it measures ~20×, growing with horizon
//!   because inline chains are O(views) per message);
//! * absolute wire bytes per decided block stay under a fixed budget,
//!   so an accidental return to chain inlining — or an announcement
//!   format regression — fails loudly rather than silently bloating
//!   every run.
//!
//! The budget is calibrated from a measured ~1.09 MB/block at this
//! configuration (n=8, 60 views, 4×128B txs per view; gossip
//! amplification makes this O(n³) deliveries per view) with ~50%
//! headroom. The inline-equivalent accounting measures ~23 MB/block, so
//! the two bounds cannot both hold for an inlining regression.

use tob_svd::sim::{TobSimulationBuilder, TxWorkload};

/// Wire bytes per decided block allowed at this configuration.
const BYTES_PER_BLOCK_BUDGET: f64 = 1.7e6;

/// Minimum delta-sync saving vs the full-chain codec.
const MIN_SAVINGS_RATIO: f64 = 5.0;

#[test]
fn wire_bytes_per_decided_block_stay_under_budget() {
    let report = TobSimulationBuilder::new(8)
        .views(60)
        .seed(5)
        .workload(TxWorkload::PerView { count: 4, size: 128 })
        .run()
        .expect("runs");
    report.assert_safety();
    let m = &report.report.metrics;
    let blocks = report.decided_blocks();
    assert!(blocks >= 58, "fault-free run must decide nearly every view, got {blocks}");

    let per_block = m.bytes_delivered as f64 / blocks as f64;
    assert!(
        per_block <= BYTES_PER_BLOCK_BUDGET,
        "wire bytes per decided block {per_block:.0} exceed the {BYTES_PER_BLOCK_BUDGET:.0} budget \
         (inline-chain regression?)"
    );

    let ratio = m.inline_equiv_bytes as f64 / m.bytes_delivered as f64;
    assert!(
        ratio >= MIN_SAVINGS_RATIO,
        "delta-sync saving collapsed: {ratio:.1}x < {MIN_SAVINGS_RATIO}x \
         ({} wire bytes vs {} inline-equivalent)",
        m.bytes_delivered,
        m.inline_equiv_bytes
    );

    // Per-kind accounting is complete: the kind counters tile the total.
    let tiled = m.log_bytes
        + m.proposal_bytes
        + m.vote_bytes
        + m.recovery_bytes
        + m.finality_bytes
        + m.block_request_bytes
        + m.block_response_bytes
        + m.certificate_bytes;
    assert_eq!(tiled, m.bytes_delivered, "per-kind byte counters must tile bytes_delivered");

    // A fault-free always-awake run needs no fetches at all: the
    // subprotocol must stay silent rather than add background chatter.
    assert_eq!(m.block_request_broadcasts, 0);
    assert_eq!(m.block_response_broadcasts, 0);
}

/// Announcements must not grow with the chain: the average delivered
/// bytes of the last 10 views' traffic match the first 10 views' (same
/// per-view message mix, constant per-message size), which is exactly
/// what full-chain inlining breaks.
#[test]
fn per_view_wire_bytes_are_flat_over_the_horizon() {
    let run_views = |views: u64| {
        let report = TobSimulationBuilder::new(6)
            .views(views)
            .seed(7)
            .workload(TxWorkload::PerView { count: 2, size: 64 })
            .run()
            .expect("runs");
        report.report.metrics.bytes_delivered
    };
    let short = run_views(10);
    let long = run_views(40);
    // 4x the views ⇒ ~4x the bytes under delta sync (±20% for warm-up
    // and horizon edges). Inline chains would give ~O(views²) growth:
    // the long run would cost ≳ 10x the short one.
    let growth = long as f64 / short as f64;
    assert!(
        (3.2..=5.0).contains(&growth),
        "wire bytes must grow linearly with the horizon, got {growth:.2}x for 4x views"
    );
}
