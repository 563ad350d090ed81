//! The per-phase audit discipline, pinned by counters.
//!
//! Every audit that runs at a phase boundary is an O(1) trigger with
//! the scan behind it. `SyncState::audit`'s `known ⊆ store` scan (one
//! store lookup per fault-forced id) must not run at all in a healthy
//! run — and must still run, at the same boundary and with the same
//! repair count as the unconditional scan it replaced, when sync
//! knowledge is corrupted.

use tob_svd::sim::{StateFault, TobReport, TobSimulationBuilder};
use tob_svd::types::{Time, ValidatorId};

const N: usize = 6;
const VICTIM: u32 = 2;

/// A 40-view certificate run with one state fault striking `VICTIM`
/// mid-run (tick 130 sits strictly between two phase boundaries).
fn faulted_run(fault: StateFault) -> TobReport {
    let report = TobSimulationBuilder::new(N)
        .views(40)
        .seed(11)
        .certificates(true)
        .state_fault(ValidatorId::new(VICTIM), Time::new(130), fault)
        .run()
        .expect("faulted scenario runs");
    report.assert_safety();
    report
}

#[test]
fn fault_free_long_run_never_scans() {
    let report = TobSimulationBuilder::new(8)
        .views(200)
        .seed(23)
        .certificates(true)
        .run()
        .expect("fault-free run");
    report.assert_safety();
    assert!(report.decided_blocks() >= 198);
    for v in report.honest_validators() {
        assert!(v.audits_run() >= 4 * 200, "{}: one audit per phase boundary", v.id());
        assert_eq!(v.sync().audit_scans(), 0, "{}: healthy state must never pay the scan", v.id());
        assert_eq!(v.audit_repairs(), 0, "{}", v.id());
    }
}

#[test]
fn sync_poison_trips_the_scan_with_the_parents_repair_count() {
    let report = faulted_run(StateFault::SyncPoison { seed: 0xBAD5EED });
    for v in report.honest_validators() {
        if v.id() == ValidatorId::new(VICTIM) {
            assert!(v.sync().audit_scans() >= 1, "poisoned knowledge must trip the full scan");
            // Taken from the parent commit (unconditional scan), same
            // scenario: the four forged ids, nothing else.
            assert_eq!(v.audit_repairs(), 4);
        } else {
            assert_eq!((v.sync().audit_scans(), v.audit_repairs()), (0, 0), "{}", v.id());
        }
    }
    assert!(
        report.decided_blocks() >= 38,
        "the network never stalls for the victim"
    );
}

#[test]
fn sync_amnesia_still_rearms_recover_fetch_at_the_same_boundary() {
    let report = faulted_run(StateFault::SyncAmnesia);
    let victim = report.validator(ValidatorId::new(VICTIM)).expect("victim is honest");
    let sync = victim.sync();
    // Parent-commit numbers for this scenario: one repair (the
    // forgotten decided tip re-arms recover-fetch), then the fetch
    // plane re-learns the chain. A re-arm one boundary late would park
    // and fetch differently, so the whole-run traffic is pinned too.
    assert_eq!(victim.audit_repairs(), 1);
    assert_eq!((sync.requests_sent(), sync.blocks_fetched(), sync.parked_total()), (2, 4, 10));
    let m = &report.report.metrics;
    assert_eq!(
        (m.block_request_broadcasts, m.block_response_broadcasts),
        (2, 6)
    );
    assert_eq!((m.deliveries, m.bytes_delivered), (5923, 3_187_022));
    assert!(sync.audit_scans() >= 1, "wiped knowledge trips the scan once");
    assert_eq!(victim.decided().len(), report.max_decided_len(), "victim re-converged");
    for v in report.honest_validators().filter(|v| v.id() != victim.id()) {
        assert_eq!((v.sync().audit_scans(), v.audit_repairs()), (0, 0), "{}", v.id());
    }
}
