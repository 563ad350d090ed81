//! End-to-end test of the real TCP runtime: the sans-io validator
//! deciding over actual sockets, with agreement across processes'
//! independent stores.

use std::time::Duration;

use tob_svd::runtime::{ClusterConfig, LocalCluster};

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
    }
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
}
