//! Tick arithmetic at the top of the `u64` range — the dynamic half of
//! the static gate's `arithmetic_side_effects` scope (README § "Static
//! analysis"): the lint binds `Time`/`Delta`/`View` themselves, this
//! suite binds their callers. `cargo test` builds with overflow checks
//! on, so any raw `*`/`+` on a tick count that a huge Δ can reach
//! panics here; what saturates instead must still terminate and stay
//! safe (with Δ ≥ 2⁶⁰ the 18Δ horizon itself saturates at `u64::MAX`).

use tob_svd::sim::{StateFault, TobReport, TobSimulationBuilder};
use tob_svd::types::{Delta, Time, ValidatorId};

const DELTAS: [u64; 4] = [1 << 32, 1 << 57, 1 << 60, u64::MAX / 4];

fn builder(delta: u64) -> TobSimulationBuilder {
    TobSimulationBuilder::new(4)
        .views(4)
        .seed(3)
        .delta(Delta::new(delta))
        .recovery(true)
}

fn run(b: TobSimulationBuilder) -> TobReport {
    let report = b.run().expect("valid configuration");
    report.assert_safety();
    report
}

#[test]
fn huge_deltas_terminate_safely_under_both_relay_strategies() {
    for delta in DELTAS {
        for certificates in [true, false] {
            let report = run(builder(delta).certificates(certificates));
            // 2⁵⁷ is the largest of these whose horizon still fits:
            // below saturation the run is an ordinary one and decides.
            if delta <= 1 << 57 {
                assert!(report.decided_blocks() >= 2, "Δ={delta} certificates={certificates}");
            }
        }
    }
}

/// `Simulation::run_until(u64::MAX)` used to spin forever: the clock's
/// `+= 1` saturates, so "time ≤ horizon" never turned false.
#[test]
fn a_horizon_that_saturates_the_clock_still_returns() {
    let report = run(TobSimulationBuilder::new(4).views(4).delta(Delta::new(1 << 60)));
    assert_eq!(report.report.metrics.ticks, u64::MAX);
}

#[test]
fn crash_restart_and_sync_amnesia_survive_a_huge_delta() {
    let delta = 1u64 << 57;
    let v = ValidatorId::new(1);
    run(builder(delta).crash_restart(v, Time::new(5 * delta + 1), Time::new(9 * delta)));
    run(builder(delta).state_fault(v, Time::new(6 * delta + 1), StateFault::SyncAmnesia));
}
