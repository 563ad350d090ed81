//! End-to-end test of the real TCP runtime: the sans-io validator
//! deciding over actual sockets, with agreement across processes'
//! independent stores.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use tob_svd::runtime::{ClientConn, ClusterConfig, LocalCluster, NodeOutcome};
use tob_svd::sim::invariant::{DecisionEvent, DecisionMonotonicity, Invariant};
use tob_svd::sim::{DecisionObserver, DecisionRecord};
use tob_svd::types::{Log, Time, TxId, ValidatorId};

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

/// One pass over the sockets per tick, none in between: each node's
/// scans are its visited ticks (tick 0 through the last) plus at most
/// one per tick duration of warm-up before tick 0. A return to polling
/// the sockets between ticks fails here, not only in a CPU benchmark.
#[test]
fn each_node_reads_its_sockets_once_per_tick() {
    // Wall time only bounds the warm-up before tick 0; the assertion
    // compares pass counts.
    #[allow(clippy::disallowed_methods)]
    let spawned = Instant::now();
    let cluster = LocalCluster::spawn(ClusterConfig::new(3).views(3).tick(Duration::from_millis(8)))
        .expect("cluster spawns");
    let (clock, run_ticks) = (cluster.clock(), cluster.run_ticks());
    let report = cluster.join().expect("cluster runs");
    report.assert_agreement();
    let warmup = clock.instant_of(0).saturating_duration_since(spawned);
    let warmup_ticks = (warmup.as_nanos() / clock.tick_duration().as_nanos()) as u64;
    let visited = run_ticks + 1;
    for o in report.outcomes() {
        assert!(
            (visited..=visited + warmup_ticks).contains(&o.ingest.scans),
            "{}: {} scans over {visited} ticks and {warmup_ticks} of warm-up",
            o.me,
            o.ingest.scans
        );
    }
}

/// Clients that reach node 0 alone still reach every proposer: node 0
/// pushes what it admits to its peers' pools, so every node decides
/// every client transaction, and blocks that node 1 or node 2 proposed
/// (views they led) carry some of them.
#[test]
fn transactions_submitted_to_one_node_are_decided_everywhere_and_proposed_by_all() {
    const VIEWS: u64 = 10;
    const LOADED_VIEWS: u64 = 6;
    let cfg = ClusterConfig::new(3).views(VIEWS).tick(Duration::from_millis(8));
    let view_ticks = 4 * cfg.delta.ticks();
    let cluster = LocalCluster::spawn(cfg).expect("cluster spawns");
    let (clock, run_ticks) = (cluster.clock(), cluster.run_ticks());
    let node0 = cluster.addr_of(ValidatorId::new(0)).expect("node 0 listens");
    let mut client = ClientConn::connect(node0, 1).expect("client connects");
    // Four submissions per view, then the last views drain.
    let mut ids: Vec<TxId> = Vec::new();
    for view in 0..LOADED_VIEWS {
        clock.wait_for(view * view_ticks);
        ids.extend((0..4).map(|i| client.submit(1, format!("view {view} tx {i}").into_bytes())));
        client.pump().expect("client pumps");
    }
    while clock.now_tick().ticks() < run_ticks && !client.is_closed() {
        client.pump().expect("client pumps");
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = cluster.join().expect("cluster runs");
    report.assert_agreement();

    for o in report.outcomes() {
        let decided = report.decided_tx_ticks(o.me);
        let missing: Vec<_> = ids.iter().filter(|id| !decided.contains_key(id)).collect();
        assert!(missing.is_empty(), "{} never decided {} of {}", o.me, missing.len(), ids.len());
    }
    let o = &report.outcomes()[0];
    let wanted: BTreeSet<TxId> = ids.iter().copied().collect();
    let proposers: BTreeSet<ValidatorId> = o
        .store
        .chain_range(o.decided_tip, 1)
        .expect("the decided chain is stored")
        .into_iter()
        .filter_map(|id| o.store.get(id))
        .filter(|block| block.txs().iter().any(|tx| wanted.contains(&tx.id())))
        .filter_map(|block| block.proposer())
        .collect();
    assert!(proposers.iter().any(|p| p.index() != 0), "only {proposers:?} proposed client transactions");

    // Announcement bytes, batches included, reconcile across the mesh:
    // nothing is received that was not sent.
    let received: u64 = report.outcomes().iter().map(|o| o.announce_bytes.0).sum();
    let sent: u64 = report.outcomes().iter().map(|o| o.announce_bytes.1).sum();
    assert!(0 < received && received <= sent, "{received} announcement bytes received, {sent} sent");

    // A node sends a peer a tip's body once per link, or never to the
    // block's proposer, and hash-only frames after it: in a fault-free
    // cluster every such frame resolves from the receiver's store, and
    // no node fetches a block.
    for o in report.outcomes() {
        assert_eq!((o.blocks_fetched, o.sync_bytes), (0, (0, 0)), "{} fetched", o.me);
    }
}
