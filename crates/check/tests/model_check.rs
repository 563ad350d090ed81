//! End-to-end model-checker guarantees:
//!
//! 1. ≥ 1000 randomized executions run deterministically — the same
//!    master seed produces the same per-execution verdicts (pinned by
//!    an order-sensitive fingerprint) for *any* thread count.
//! 2. A seeded known-bad adversary configuration (over-bound
//!    split-brain cast from the hostile space) demonstrably shrinks to
//!    a minimal reproducer.
//! 3. The checked-in reproducer fixture replays byte-for-byte: parsing
//!    and re-emitting reproduces the exact file bytes, the scenario
//!    still violates the recorded invariants, and it is a shrink
//!    fixpoint (re-shrinking changes nothing).
//! 4. The two shrunk reproducers of a validator deciding right after a
//!    drop-and-RECOVERY wake, recorded before the wake rule
//!    (`Validator::on_wake`), replay clean.

use tobsvd_check::{checker, shrink, CheckConfig, Reproducer, ScenarioSpace};

/// A compact space (small n, Δ, horizons) so a four-digit execution
/// count stays cheap in debug builds; coverage-oriented exploration
/// uses the default space (see the crate's unit tests and the
/// `model_check` example driver).
fn compact_space() -> ScenarioSpace {
    ScenarioSpace {
        n: (4, 5),
        deltas: vec![2],
        views: (3, 5),
        ..ScenarioSpace::default()
    }
}

#[test]
fn thousand_executions_deterministic_for_any_thread_count() {
    let executions = 1000;
    let cfg = CheckConfig::new(executions, 0xD15EA5E).space(compact_space());
    let serial = checker::run(&cfg.clone().threads(1));
    let parallel = checker::run(&cfg.clone().threads(4));

    assert_eq!(serial.executions, executions);
    assert_eq!(
        serial.fingerprint, parallel.fingerprint,
        "thread count leaked into the verdicts"
    );
    assert_eq!(serial.failures, parallel.failures);
    assert!(
        serial.all_passed(),
        "a model-compliant schedule violated an invariant — protocol or engine bug: {:?}",
        serial.failures.first()
    );
    // The exploration actually exercised the protocol.
    assert!(serial.total_decided_blocks > executions as u64);

    // Different seed ⇒ different exploration.
    let other = checker::run(&CheckConfig::new(64, 0xBADCAFE).space(compact_space()).threads(2));
    assert_ne!(other.fingerprint, serial.fingerprint);
}

#[test]
fn known_bad_configuration_shrinks_to_minimal_reproducer() {
    // Seed 42 of the hostile space: its very first batch contains an
    // over-bound split-brain cast that halts the chain (the fixture in
    // tests/fixtures/ was generated from exactly this hunt).
    let cfg = CheckConfig::new(0, 42).space(ScenarioSpace::hostile());
    let report = checker::run_until_failure(&cfg, 64, 256);
    let failure = report.failures.first().expect("hostile hunt finds a failure");
    assert!(failure.scenario.overloaded(), "the known-bad cast exceeds the bound");

    let result = shrink(&failure.scenario);
    // Shrinking made real progress on the headline axes…
    assert!(result.minimal.views <= failure.scenario.views);
    assert!(result.minimal.complexity() <= failure.scenario.complexity());
    assert!(result.minimal.n <= failure.scenario.n);
    // …still fails the same invariant…
    assert!(result
        .violated
        .iter()
        .any(|n| failure.verdict.failure_signature().contains(n)));
    // …and matches the checked-in fixture exactly (shrinking is
    // deterministic end to end).
    let fixture = include_str!("fixtures/shrunk_overbound_splitbrain.json");
    let expected = Reproducer::from_json(fixture).expect("fixture parses");
    assert_eq!(result.minimal, expected.scenario, "shrink result drifted from the fixture");
}

#[test]
fn fixture_replays_byte_for_byte() {
    let fixture = include_str!("fixtures/shrunk_overbound_splitbrain.json");
    let repro = Reproducer::from_json(fixture).expect("fixture parses");

    // Byte-for-byte: re-emission reproduces the exact file contents.
    assert_eq!(repro.to_json(), fixture, "fixture is not in canonical form");

    // The minimal scenario still violates exactly the recorded
    // invariants when replayed.
    assert!(repro.replay(), "fixture no longer reproduces its violation");
    let verdict = repro.scenario.run();
    assert_eq!(
        verdict.failure_signature(),
        repro.invariants.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // It is a shrink fixpoint: re-shrinking cannot reduce it further.
    let reshrunk = shrink(&repro.scenario);
    assert_eq!(reshrunk.minimal, repro.scenario, "fixture is not minimal");
}

/// Found at 20 000 executions on seeds 1 and 3 and shrunk: n = 7, Δ = 4,
/// worst-case delay, a split-brain validator 0 and one sleeper under
/// drop-and-RECOVERY. The sleeper woke inside `GA_{v−1}` holding its
/// V^Δ from before the sleep and decided a grade-2 log nobody else
/// locked, before the RECOVERY replies brought the second branch.
#[test]
fn woken_validator_fixtures_replay_clean() {
    for fixture in [
        include_str!("fixtures/wake_before_recovery_seed1.json"),
        include_str!("fixtures/wake_before_recovery_seed3.json"),
    ] {
        let repro = Reproducer::from_json(fixture).expect("fixture parses");
        assert_eq!(repro.to_json(), fixture, "fixture is not in canonical form");
        assert!(!repro.replay(), "a woken validator decided before its recovery arrived");
        let verdict = repro.scenario.run();
        assert!(verdict.passed(), "violations: {:?}", verdict.violations);
    }
}
