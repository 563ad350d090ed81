//! Self-stabilization guarantees, end to end:
//!
//! 1. ≥ 1000 fixed-seed randomized executions with state-corruption
//!    faults enabled run deterministically and pass every invariant —
//!    within the model, a corrupted-then-honest validator always
//!    audits, repairs and re-converges.
//! 2. A hand-built known-bad configuration (a validator's durable WAL
//!    torn by bit rot, then crash-restarted too close to the horizon to
//!    re-sync) demonstrably fails `state-reconvergence` and shrinks to
//!    a minimal reproducer.
//! 3. The checked-in state-corruption reproducer fixture replays
//!    byte-for-byte and is a shrink fixpoint.

use tobsvd_check::{
    checker, shrink, CheckConfig, CheckScenario, Lever, LeverKind, Reconvergence, Reproducer,
    ScenarioSpace, SyncMode,
};
use tobsvd_sim::StateFault;

/// A compact space concentrated on the state-corruption lever: the
/// competing churn/corruption/fetch/crash levers are zeroed so the
/// misbehavior budget left over from the Byzantine cast goes to
/// volatile-state faults (up to two per scenario, each forcing the
/// drop+recover sync plane the repairs run over).
fn stabilization_space() -> ScenarioSpace {
    ScenarioSpace {
        n: (5, 7),
        deltas: vec![2],
        views: (3, 5),
        max_sleep_windows: 0,
        max_corruptions: 0,
        max_fetch_faults: 0,
        max_crashes: 0,
        max_state_faults: 2,
        ..ScenarioSpace::default()
    }
}

/// Latent bit rot meets an ill-timed restart: validator 0's entire
/// durable WAL is torn away mid-run (invisible while the process is
/// up — in-memory audits see healthy volatile state), then the process
/// is killed and restarted so close to the horizon that the recovered
/// genesis image cannot be re-synced in time. The crash itself is
/// benign (its own re-convergence grace has not elapsed, so
/// `crash-reconvergence` stays quiet); the *state corruption* is what
/// strands the validator, and `state-reconvergence` — whose clock
/// starts at the corruption tick, long before the horizon — must flag
/// it.
fn torn_wal_restart() -> CheckScenario {
    CheckScenario {
        sync: SyncMode::DropRecover,
        levers: vec![
            Lever { validator: 0, kind: LeverKind::Crash { at: 60, restart_at: 94 } },
            Lever {
                validator: 0,
                kind: LeverKind::State { at: 50, fault: StateFault::WalTear { bytes: 1_000_000 } },
            },
        ],
        ..CheckScenario::fault_free(4, 2, 12, 9)
    }
}

#[test]
fn thousand_state_corruption_executions_all_pass() {
    let executions = 1000;
    let cfg = CheckConfig::new(executions, 0x57AB1E).space(stabilization_space());
    let serial = checker::run(&cfg.clone().threads(1));
    let parallel = checker::run(&cfg.clone().threads(4));

    assert_eq!(serial.executions, executions);
    assert_eq!(
        serial.fingerprint, parallel.fingerprint,
        "thread count leaked into the verdicts"
    );
    assert!(
        serial.all_passed(),
        "a model-compliant state corruption defeated the stabilization plane: {:?}",
        serial.failures.first()
    );

    // The exploration genuinely exercised the lever: a healthy share of
    // the sampled scenarios carry at least one state fault.
    let with_faults = (0..executions)
        .filter(|i| {
            let levers = checker::scenario_at(&cfg, *i).levers;
            levers.iter().any(|l| matches!(l.kind, LeverKind::State { .. }))
        })
        .count();
    assert!(with_faults >= 100, "only {with_faults} of {executions} samples corrupt state");
}

#[test]
fn torn_wal_restart_fails_state_reconvergence_and_shrinks_to_fixture() {
    let scenario = torn_wal_restart();
    let verdict = scenario.run();
    assert!(
        verdict.failure_signature().contains(&Reconvergence::STATE),
        "the torn-WAL restart must fail re-convergence: {verdict:?}"
    );
    assert!(verdict.observer_safe, "state corruption must never cost safety");
    assert!(verdict.decided_blocks >= 3, "the chain must grow despite the stragglers");

    let result = shrink(&scenario);
    assert!(result.violated.contains(&Reconvergence::STATE));
    assert!(result.minimal.complexity() <= scenario.complexity());
    assert_eq!(
        result.minimal.levers.iter().filter(|l| matches!(l.kind, LeverKind::State { .. })).count(),
        1,
        "the state fault is load-bearing: {:?}",
        result.minimal
    );

    let artifact = Reproducer {
        scenario: result.minimal.clone(),
        invariants: result.violated.iter().map(|s| s.to_string()).collect(),
    };
    let fixture = include_str!("fixtures/shrunk_state_corruption.json");
    assert_eq!(artifact.to_json(), fixture, "shrink result drifted from the fixture");
}

#[test]
fn state_corruption_fixture_replays_byte_for_byte() {
    let fixture = include_str!("fixtures/shrunk_state_corruption.json");
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
