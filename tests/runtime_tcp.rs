//! End-to-end test of the real TCP runtime: the sans-io validator
//! deciding over actual sockets, with agreement across processes'
//! independent stores.

use std::time::Duration;

use tob_svd::runtime::{ClusterConfig, LocalCluster, NodeOutcome};
use tob_svd::sim::invariant::{DecisionEvent, DecisionMonotonicity, Invariant};
use tob_svd::sim::{DecisionObserver, DecisionRecord};
use tob_svd::types::{Log, Time};

/// ROADMAP 1b over TCP: a node's decision events form one chain in its
/// own store — each decided tip extends the one before it.
fn assert_decisions_append_only(o: &NodeOutcome) {
    let observer = DecisionObserver::new(o.store.clone());
    let mut monotone = DecisionMonotonicity::new();
    for ev in &o.decided_events {
        let log = Log::from_parts(&o.store, ev.tip, ev.len).expect("a decided tip is in its store");
        let record = DecisionRecord { validator: o.me, at: Time::new(ev.tick), log };
        let event = DecisionEvent { record: &record, observer: &observer, store: &o.store };
        if let Err(violation) = monotone.on_decision(&event) {
            panic!("{violation}");
        }
    }
}

#[test]
fn four_node_cluster_decides_and_agrees() {
    let report = LocalCluster::run(
        ClusterConfig::new(4).views(5).tick(Duration::from_millis(8)),
    )
    .expect("cluster runs");
    report.assert_agreement();
    assert!(
        report.min_decided_len() > 1,
        "every node must decide ≥ 1 block: {:?}",
        report.outcomes()
    );
    // One vote per view, sharp: the single-vote property over a real
    // network.
    for o in report.outcomes() {
        assert!(
            o.votes_cast >= 4 && o.votes_cast <= 7,
            "{:?}: ~one vote per view expected",
            o
        );
        assert!(o.frames.0 > 0 && o.frames.1 > 0, "mesh traffic must flow");
        assert_eq!(o.encode_failures, 0, "{}: every chain it sent read back from its store", o.me);
        assert_decisions_append_only(&o);
    }
    // Loopback self-copies are not mesh frames: across a fault-free
    // cluster nothing is received that was not sent.
    let received: u64 = report.outcomes().iter().map(|o| o.frames.0).sum();
    let sent: u64 = report.outcomes().iter().map(|o| o.frames.1).sum();
    assert!(received <= sent, "{received} frames received, only {sent} sent");
}

#[test]
fn nodes_progress_in_lockstep() {
    let report = LocalCluster::run(
        ClusterConfig::new(3).views(6).tick(Duration::from_millis(8)),
    )
    .expect("cluster runs");
    report.assert_agreement();
    // With a healthy localhost mesh every node should be within one
    // block of the front.
    assert!(
        report.max_decided_len() - report.min_decided_len() <= 1,
        "nodes too far apart: {:?}",
        report.outcomes()
    );
    assert!(report.outcomes().iter().all(|o| o.encode_failures == 0));
    report.outcomes().iter().for_each(assert_decisions_append_only);
}
