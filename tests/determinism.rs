//! Seed-determinism regression: two simulations built with identical
//! parameters must produce **byte-identical** decided logs, validator
//! by validator — block ids, proposers, views and transaction payloads
//! included. This pins down reproducibility before any performance
//! work touches the engine: a refactor that reorders RNG draws or
//! iteration over hash maps will flip these bytes and fail here, not
//! in a flaky downstream experiment.

use tob_svd::adversary::{churn, AdaptiveLeaderCorruptor, SplitBrainNode};
use tob_svd::protocol::{TobConfig, TobReport, TobSimulationBuilder, TxWorkload};
use tob_svd::sim::{AdvanceMode, CorruptionSchedule, WorstCaseDelay};
use tob_svd::types::{Delta, Time, ValidatorId, View};

mod common;
use common::report_transcript;

fn fault_free_run(seed: u64) -> TobReport {
    TobSimulationBuilder::new(7)
        .views(10)
        .seed(seed)
        .workload(TxWorkload::PerView { count: 2, size: 48 })
        .run()
        .expect("valid configuration")
}

fn adversarial_run(seed: u64) -> TobReport {
    let n = 9;
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(12)
        .seed(seed)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .delay(Box::new(WorstCaseDelay));
    for v in ValidatorId::all(n).skip(n - 3) {
        let (a, b) = (half_a.clone(), half_b.clone());
        let cfg = TobConfig::new(n);
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
        );
    }
    builder.run().expect("valid configuration")
}

#[test]
fn fault_free_runs_are_byte_identical_per_seed() {
    for seed in [0u64, 7, 0xdead_beef] {
        let (r1, r2) = (fault_free_run(seed), fault_free_run(seed));
        r1.assert_safety();
        assert!(r1.decided_blocks() > 0, "seed {seed}: nothing decided");
        assert_eq!(
            report_transcript(&r1),
            report_transcript(&r2),
            "seed {seed}: two identical runs diverged"
        );
    }
}

#[test]
fn adversarial_runs_are_byte_identical_per_seed() {
    for seed in [1u64, 42] {
        let (r1, r2) = (adversarial_run(seed), adversarial_run(seed));
        r1.assert_safety();
        assert_eq!(
            report_transcript(&r1),
            report_transcript(&r2),
            "seed {seed}: adversarial runs diverged"
        );
    }
}

fn random_workload_run(seed: u64) -> TobReport {
    TobSimulationBuilder::new(7)
        .views(10)
        .seed(seed)
        .workload(TxWorkload::Random { total: 20, size: 40 })
        .run()
        .expect("valid configuration")
}

#[test]
fn transcript_is_seed_sensitive() {
    // The engine seed drives the random-workload submission times (and
    // the uniform delay draws), so different seeds should pack
    // different transactions into the decided blocks somewhere across a
    // batch of seeds. (Equality of a single pair would not be a bug, so
    // compare the whole batch.) Fault-free runs with the `PerView`
    // workload are intentionally seed-*insensitive* — leader election
    // is VRF-determined — which the identical-run tests above pin.
    let transcripts: Vec<Vec<u8>> =
        (0..4u64).map(|s| report_transcript(&random_workload_run(s))).collect();
    assert!(
        transcripts.windows(2).any(|w| w[0] != w[1]),
        "four different seeds produced identical transcripts — seed is being ignored"
    );
}

#[test]
fn random_workload_runs_are_byte_identical_per_seed() {
    let (r1, r2) = (random_workload_run(5), random_workload_run(5));
    r1.assert_safety();
    assert_eq!(report_transcript(&r1), report_transcript(&r2));
}

#[test]
fn metrics_and_leaders_are_deterministic_per_seed() {
    let (r1, r2) = (fault_free_run(11), fault_free_run(11));
    assert_eq!(r1.report.metrics.deliveries, r2.report.metrics.deliveries);
    assert_eq!(r1.report.metrics.bytes_delivered, r2.report.metrics.bytes_delivered);
    assert_eq!(r1.good_leaders, r2.good_leaders);
    assert_eq!(r1.report.final_time, r2.report.final_time);
}

// ---------------------------------------------------------------------
// Differential determinism: the event-driven engine vs the tick-loop
// reference. The two advance modes execute different *sets* of ticks but
// must produce byte-identical transcripts — same decided blocks, same
// decision times, same delivery/byte counts, same good-leader record —
// across randomized seeds, participation schedules, corruption
// schedules, delay policies and live controllers.
// ---------------------------------------------------------------------

/// Asserts a (mode-agnostic) full-report match between two runs and
/// that the event-driven run did no more work than the reference.
fn assert_reports_identical(ev: &TobReport, tl: &TobReport, what: &str) {
    assert_eq!(
        report_transcript(ev),
        report_transcript(tl),
        "{what}: decided-log transcripts diverged between advance modes"
    );
    assert_eq!(ev.report.final_time, tl.report.final_time, "{what}: final time");
    assert_eq!(ev.report.metrics.deliveries, tl.report.metrics.deliveries, "{what}: deliveries");
    assert_eq!(
        ev.report.metrics.bytes_delivered, tl.report.metrics.bytes_delivered,
        "{what}: bytes"
    );
    assert_eq!(ev.report.metrics.buffered, tl.report.metrics.buffered, "{what}: buffered");
    assert_eq!(ev.report.metrics.dropped, tl.report.metrics.dropped, "{what}: dropped");
    assert_eq!(ev.report.metrics.decisions, tl.report.metrics.decisions, "{what}: decisions");
    assert_eq!(ev.report.metrics.ticks, tl.report.metrics.ticks, "{what}: horizon");
    assert_eq!(ev.good_leaders, tl.good_leaders, "{what}: good-leader record");
    assert_eq!(ev.report.confirmed.len(), tl.report.confirmed.len(), "{what}: confirmations");
    assert!(
        ev.report.metrics.executed_ticks <= tl.report.metrics.executed_ticks,
        "{what}: event-driven engine executed more ticks than the tick loop"
    );
}

/// A randomized sleepy-model run: seed-derived random churn, a
/// seed-derived corruption schedule, and a random transaction workload.
fn randomized_sleepy_run(seed: u64, mode: AdvanceMode) -> TobReport {
    let n = 8usize;
    let views = 10u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    let participation =
        churn::random_churn(n, horizon, 2 * delta.ticks(), 0.8, seed ^ 0xfeed_f00d);
    let mut corruption = CorruptionSchedule::none();
    // Two seed-derived mid-run corruptions (mild adaptivity applies).
    for k in 0..2u64 {
        let v = ValidatorId::new(((seed + 3 * k) % n as u64) as u32);
        corruption.schedule(v, Time::new(24 + (seed % 5 + k) * 16), delta);
    }
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(seed)
        .advance(mode)
        .workload(TxWorkload::Random { total: 24, size: 32 })
        .participation(participation)
        .corruption(corruption)
        .run()
        .expect("valid configuration")
}

#[test]
fn event_driven_matches_tick_loop_under_randomized_churn_and_corruption() {
    for seed in [0u64, 1, 2, 7, 42, 0xdead_beef] {
        let ev = randomized_sleepy_run(seed, AdvanceMode::EventDriven);
        let tl = randomized_sleepy_run(seed, AdvanceMode::TickLoop);
        assert_reports_identical(&ev, &tl, &format!("churn+corruption seed {seed}"));
    }
}

fn adversarial_mode_run(seed: u64, mode: AdvanceMode) -> TobReport {
    let n = 9;
    let half_a: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 0).collect();
    let half_b: Vec<ValidatorId> = ValidatorId::all(n).filter(|v| v.index() % 2 == 1).collect();
    let mut builder = TobSimulationBuilder::new(n)
        .views(8)
        .seed(seed)
        .advance(mode)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .delay(Box::new(WorstCaseDelay));
    for v in ValidatorId::all(n).skip(n - 3) {
        let (a, b) = (half_a.clone(), half_b.clone());
        let cfg = TobConfig::new(n);
        builder = builder.byzantine(
            v,
            Box::new(move |store| Box::new(SplitBrainNode::new(v, cfg, store, a, b))),
        );
    }
    builder.run().expect("valid configuration")
}

#[test]
fn event_driven_matches_tick_loop_under_split_brain_equivocation() {
    for seed in [1u64, 42] {
        let ev = adversarial_mode_run(seed, AdvanceMode::EventDriven);
        let tl = adversarial_mode_run(seed, AdvanceMode::TickLoop);
        ev.assert_safety();
        assert_reports_identical(&ev, &tl, &format!("split-brain seed {seed}"));
    }
}

fn live_controller_run(seed: u64, mode: AdvanceMode) -> TobReport {
    // The Lemma 2 adversary exercises the controller command path
    // (reactive corruption via next_wakeup-less traffic observation).
    TobSimulationBuilder::new(7)
        .views(8)
        .seed(seed)
        .advance(mode)
        .workload(TxWorkload::PerView { count: 1, size: 24 })
        .controller(Box::new(AdaptiveLeaderCorruptor::new(Delta::default(), 2)))
        .run()
        .expect("valid configuration")
}

#[test]
fn event_driven_matches_tick_loop_with_live_adversary_controller() {
    for seed in [3u64, 9] {
        let ev = live_controller_run(seed, AdvanceMode::EventDriven);
        let tl = live_controller_run(seed, AdvanceMode::TickLoop);
        assert_reports_identical(&ev, &tl, &format!("live controller seed {seed}"));
    }
}

fn recovery_mode_run(seed: u64, mode: AdvanceMode) -> TobReport {
    // Practical sleep semantics: dropped messages + recovery protocol.
    let n = 6usize;
    let views = 8u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    let participation = churn::rotating_sleep(n, 3, 4 * delta.ticks(), horizon);
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(seed)
        .advance(mode)
        .drop_while_asleep(true)
        .recovery(true)
        .participation(participation)
        .workload(TxWorkload::PerView { count: 1, size: 16 })
        .run()
        .expect("valid configuration")
}

#[test]
fn event_driven_matches_tick_loop_with_drop_while_asleep_recovery() {
    for seed in [5u64, 11] {
        let ev = recovery_mode_run(seed, AdvanceMode::EventDriven);
        let tl = recovery_mode_run(seed, AdvanceMode::TickLoop);
        assert_reports_identical(&ev, &tl, &format!("recovery seed {seed}"));
    }
}

/// A deep sleeper (past the recovery archive window) forces the
/// delta-sync fetch subprotocol to carry the catch-up: this run has
/// real `BlockRequest`/`BlockResponse` traffic, and both advance modes
/// must agree on every byte of it.
fn fetch_heavy_run(seed: u64, mode: AdvanceMode) -> TobReport {
    let n = 6usize;
    let views = 14u64;
    let delta = Delta::default();
    let view_ticks = 4 * delta.ticks();
    let mut sched = tob_svd::sim::ParticipationSchedule::always_awake(n);
    sched.set_intervals(
        ValidatorId::new(0),
        vec![
            (Time::ZERO, Time::new(3 * delta.ticks())),
            (Time::new(6 * view_ticks), Time::new((views + 2) * view_ticks)),
        ],
    );
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(seed)
        .advance(mode)
        .drop_while_asleep(true)
        .recovery(true)
        .participation(sched)
        .workload(TxWorkload::PerView { count: 1, size: 24 })
        .run()
        .expect("valid configuration")
}

#[test]
fn event_driven_matches_tick_loop_with_delta_sync_fetch_traffic() {
    for seed in [2u64, 13] {
        let ev = fetch_heavy_run(seed, AdvanceMode::EventDriven);
        let tl = fetch_heavy_run(seed, AdvanceMode::TickLoop);
        assert!(
            ev.report.metrics.block_request_broadcasts > 0
                && ev.report.metrics.block_response_broadcasts > 0,
            "seed {seed}: the run must actually exercise the fetch subprotocol"
        );
        assert_reports_identical(&ev, &tl, &format!("delta-sync fetch seed {seed}"));
        // The fetch plane itself is pinned byte-for-byte too.
        let (evm, tlm) = (&ev.report.metrics, &tl.report.metrics);
        assert_eq!(evm.block_request_broadcasts, tlm.block_request_broadcasts);
        assert_eq!(evm.block_response_broadcasts, tlm.block_response_broadcasts);
        assert_eq!(evm.block_request_bytes, tlm.block_request_bytes);
        assert_eq!(evm.block_response_bytes, tlm.block_response_bytes);
        assert_eq!(evm.inline_equiv_bytes, tlm.inline_equiv_bytes);
    }
}

// ---------------------------------------------------------------------
// Pinned per-vote transcript: the paper's relay strategy
// (`certificates(false)`, immediate per-receiver forwarding) must keep
// producing exactly this run — decided bytes, decision ticks and every
// per-kind message/byte/verification counter. The value was taken at
// the commit *before* the relay strategy moved behind
// `Option<AggregationPlane>`, so it pins that the move altered no
// message, forward or verification on the path that has no plane. It
// was re-pinned once since, when VRFs moved to on-demand checks: the
// same hash without `vrf_verifies`/`vrf_verify_skips` was equal on both
// sides of that change (412 → 392 checks, 0 → 50 verdict reuses).
// ---------------------------------------------------------------------

fn per_vote_churn_run() -> TobReport {
    let n = 8usize;
    let views = 12u64;
    let delta = Delta::default();
    let horizon = View::new(views + 1).start_time(delta);
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(17)
        .certificates(false)
        .drop_while_asleep(true)
        .recovery(true)
        .participation(churn::rotating_sleep(n, 4, 4 * delta.ticks(), horizon))
        .workload(TxWorkload::PerView { count: 2, size: 32 })
        .run()
        .expect("valid configuration")
}

#[test]
fn per_vote_transcript_fingerprint_is_pinned() {
    let report = per_vote_churn_run();
    report.assert_safety();
    let m = &report.report.metrics;
    assert_eq!(m.certificate_broadcasts, 0, "per-vote mode emits no certificates");
    assert!(m.forwards > 0 && m.sync_broadcasts() > 0, "the run must exercise echo and fetch");
    let mut h = tob_svd::crypto::Hasher::new("test/per-vote-transcript");
    h.update(&report_transcript(&report));
    for counter in [
        m.log_broadcasts,
        m.proposal_broadcasts,
        m.recovery_broadcasts,
        m.block_request_broadcasts,
        m.block_response_broadcasts,
        m.forwards,
        m.deliveries,
        m.bytes_delivered,
        m.inline_equiv_bytes,
        m.sig_verifies,
        m.sig_verify_skips,
        m.vrf_verifies,
        m.vrf_verify_skips,
        m.dropped,
        m.decisions,
    ] {
        h.update_u64(counter);
    }
    assert_eq!(
        h.finalize().to_hex(),
        "1cbab163033a098c57f2ab958cf25c0d7833c2f8c4cf1630197e2069412724f8",
        "the per-vote (certificates = false) run changed"
    );
}
