//! The §2 recovery protocol under *practical* sleep semantics.
//!
//! The sleepy model assumes a waking validator "immediately receives all
//! messages it should have received while asleep" — which the paper
//! itself calls "not practical for real-world systems" and replaces, in
//! practice, with a RECOVERY round: upon waking, broadcast a request;
//! peers re-send what you missed; after ≈ 2Δ you are caught up.
//!
//! These tests flip the simulator into drop-while-asleep mode (no magic
//! buffering). Honest gossip already re-delivers every message within
//! 2Δ of its send, so only naps covering a message's *entire forwarding
//! tail* lose information permanently — and such naps necessarily span
//! the mid-GA snapshot phases, whose absence no recovery can undo
//! (grades 1–2 are lost either way, exactly the stabilization-period
//! story). What recovery *does* restore is the current-V capabilities:
//! the grade-0 output of the ongoing GA, and with it the validator's
//! ability to propose. That restored capability is what these tests
//! measure.

use tob_svd::adversary::FnDelay;
use tob_svd::protocol::{TobSimulationBuilder, TxWorkload};
use tob_svd::sim::ParticipationSchedule;
use tob_svd::types::{Delta, SignedMessage, Time, ValidatorId};

fn napper() -> ValidatorId {
    ValidatorId::new(0)
}

/// Naps from right after each view's vote phase until just past the
/// forwarding tail of the votes: [t_v+Δ+1, t_v+3Δ+1). Every copy of
/// every view-v vote addressed to the napper — direct and forwarded —
/// lands inside the nap.
fn napping_schedule(n: usize, views: u64, delta: Delta) -> ParticipationSchedule {
    let d = delta.ticks();
    let mut sched = ParticipationSchedule::always_awake(n);
    let mut awake = Vec::new();
    let mut cursor = 0u64;
    for view in 0..=views {
        let nap_start = view * 4 * d + d + 1;
        let nap_end = view * 4 * d + 3 * d + 1;
        if nap_start > cursor {
            awake.push((Time::new(cursor), Time::new(nap_start)));
        }
        cursor = nap_end;
    }
    awake.push((Time::new(cursor), Time::new((views + 2) * 4 * d)));
    sched.set_intervals(napper(), awake);
    sched
}

/// Short deterministic delays so the recovery round trip (wake →
/// request → responses) completes well before the next phase boundary.
fn fast_delay() -> FnDelay<impl FnMut(&SignedMessage, ValidatorId, ValidatorId, Time, Delta) -> u64 + Send>
{
    FnDelay(|_m: &SignedMessage, _from, _to: ValidatorId, _at, _d| 1)
}

fn run(views: u64, drop_mode: bool, recovery: bool) -> tob_svd::protocol::TobReport {
    let n = 6;
    let delta = Delta::default();
    TobSimulationBuilder::new(n)
        .views(views)
        .seed(21)
        .participation(napping_schedule(n, views, delta))
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .delay(Box::new(fast_delay()))
        .drop_while_asleep(drop_mode)
        .recovery(recovery)
        .run()
        .expect("runs")
}

/// (votes, proposals, decisions) of the napper.
fn napper_stats(report: &tob_svd::protocol::TobReport) -> (u64, u64, u64) {
    let s = report.validator(ValidatorId::new(0)).expect("napper is honest");
    (s.votes_cast(), s.proposals_made(), s.decisions_made())
}

#[test]
fn model_buffering_restores_grade0_but_not_snapshots() {
    // Under buffered semantics the napper gets everything at wake —
    // current-V capabilities (grade 0 → proposals) work fully, while the
    // missed mid-GA snapshots still cost it votes and decisions (that is
    // the T_s = 2Δ stabilization requirement, not a delivery problem).
    let report = run(16, false, false);
    report.assert_safety();
    let (votes, proposals, _) = napper_stats(&report);
    assert!(
        proposals >= 15,
        "buffered mode: napper should propose every view, got {proposals}"
    );
    assert!(votes <= 2, "missed snapshots cost the votes regardless, got {votes}");
    assert_eq!(report.report.metrics.dropped, 0);
}

#[test]
fn dropping_without_recovery_kills_the_grade0_path() {
    let report = run(16, true, false);
    report.assert_safety();
    let (_, proposals, _) = napper_stats(&report);
    // The votes' whole forwarding tail fell in the nap: the napper's V
    // stays empty, GA_v never reaches a grade-0 majority for it, so it
    // has no candidate and cannot propose.
    assert!(
        proposals <= 2,
        "drop mode without recovery: proposals should vanish, got {proposals}"
    );
    assert!(report.report.metrics.dropped > 0, "messages must actually be dropped");
    // The rest of the network is unaffected.
    for v in report.honest_validators().skip(1) {
        assert!(v.votes_cast() >= 15, "{}: {} votes", v.id(), v.votes_cast());
    }
    assert!(report.decided_blocks() >= report.views - 2);
}

#[test]
fn recovery_restores_the_grade0_path() {
    let report = run(16, true, true);
    report.assert_safety();
    let (_, proposals, _) = napper_stats(&report);
    // RECOVERY at wake (t_v+3Δ+1): request reaches peers one tick later,
    // re-sent votes land one tick after that — before GA_v's grade-0
    // output phase at t_v+4Δ. Candidates (and proposals) come back.
    assert!(
        proposals >= 14,
        "recovery should restore proposals, got {proposals}"
    );
    assert!(
        report.report.metrics.recovery_broadcasts >= 14,
        "one RECOVERY per nap expected, got {}",
        report.report.metrics.recovery_broadcasts
    );
    assert!(report.report.metrics.forwards > 0, "responses are targeted forwards");
}

#[test]
fn recovery_matches_the_model_buffering_on_recoverable_capabilities() {
    let buffered = run(16, false, false);
    let recovered = run(16, true, true);
    let (_, p_buffered, _) = napper_stats(&buffered);
    let (_, p_recovered, _) = napper_stats(&recovered);
    // The recovery round trip costs two ticks per nap, which shaves the
    // warm-up/boundary views; everything else matches the model's
    // instant-buffering assumption.
    assert!(
        p_recovered + 3 >= p_buffered,
        "recovery ({p_recovered}) should match the model assumption ({p_buffered})"
    );
}

/// Delta-sync catch-up: a validator that sleeps through *more views
/// than the recovery archive retains* (~3) wakes into a world where the
/// re-sent announcements reference blocks nobody will ever announce
/// again — the chain content below the archive window can only arrive
/// through the `BlockRequest`/`BlockResponse` fetch subprotocol. This
/// is the §2 recovery path running entirely on the fetch machinery
/// instead of full-log re-sends.
#[test]
fn deep_sleeper_catches_up_purely_via_fetches() {
    let n = 6;
    let delta = Delta::default();
    let views = 16u64;
    let view_ticks = 4 * delta.ticks();
    let mut sched = ParticipationSchedule::always_awake(n);
    // Awake for view 0, asleep until view 6 starts, awake to the end.
    sched.set_intervals(
        napper(),
        vec![
            (Time::ZERO, Time::new(3 * delta.ticks())),
            (Time::new(6 * view_ticks), Time::new((views + 2) * view_ticks)),
        ],
    );
    let report = TobSimulationBuilder::new(n)
        .views(views)
        .seed(9)
        .participation(sched)
        .workload(TxWorkload::PerView { count: 1, size: 32 })
        .delay(Box::new(fast_delay()))
        .drop_while_asleep(true)
        .recovery(true)
        .run()
        .expect("runs");
    report.assert_safety();

    let sleeper = report.validator(ValidatorId::new(0)).expect("napper is honest");
    let sync = sleeper.sync();
    // The gap below the archive window was closed by fetches alone.
    assert!(
        sync.blocks_fetched() >= 3,
        "the deep sleeper must fetch the pruned-archive gap: {} blocks",
        sync.blocks_fetched()
    );
    assert!(sync.requests_sent() >= 1);
    assert_eq!(sync.pending_len(), 0, "every parked message must resolve");
    // Someone served those fetches, and the wire metrics saw both sides.
    assert!(report.honest_validators().any(|v| v.sync().responses_served() > 0));
    assert!(report.report.metrics.block_request_broadcasts >= 1);
    assert!(report.report.metrics.block_response_broadcasts >= 1);
    assert!(report.report.metrics.block_response_bytes > 0);
    // And the sleeper is a full participant again: its decided log ends
    // within a view of the network's.
    let max = report.max_decided_len();
    let len = sleeper.decided().len();
    assert!(len + 2 >= max, "sleeper decided {len} of {max} blocks — catch-up failed");
}

#[test]
fn recovery_has_no_effect_when_nobody_sleeps() {
    // Enabled-but-unused recovery must not disturb the protocol or the
    // metrics beyond zero recovery traffic.
    let n = 5;
    let report = TobSimulationBuilder::new(n)
        .views(10)
        .seed(3)
        .drop_while_asleep(true)
        .recovery(true)
        .run()
        .expect("runs");
    report.assert_safety();
    assert_eq!(report.report.metrics.recovery_broadcasts, 0);
    assert!(report.decided_blocks() >= report.views - 1);
}
