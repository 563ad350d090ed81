//! Runs a real 5-node TOB-SVD cluster over localhost TCP.
//!
//! ```sh
//! cargo run --release --example real_network
//! ```
//!
//! Each node is an OS thread with its own block store, talking to its
//! peers through length-prefixed wire frames carrying *hash
//! announcements* (content-addressed delta sync: tip hash + parent-hash
//! list + a one-block inline window; gaps are filled by
//! `BlockRequest`/`BlockResponse` fetches served from the local store).
//! The same sans-io `Validator` as in the simulator; Δ = 40 ms of wall
//! clock. The per-kind byte report at the end shows the delta-sync
//! saving end to end: announcement bytes stay flat as the chain grows,
//! and a healthy steady-state cluster needs no fetch traffic at all.
//!
//! One client submits a few transactions to node 0 alone. Node 0 pushes
//! what it admits to every peer's pool, so the run asserts that every
//! node decides all of them.
//!
//! A node sends a peer each block body once per link (never to the
//! block's proposer) and names the block by hash after that. The run
//! asserts that no node had to fetch a block.
//!
//! Stdout carries what the run decides: blocks, votes and agreement.
//! Frame and byte counts depend on socket timing, so they go to
//! stderr, and two runs print the same stdout.

use std::time::Duration;

use tob_svd::runtime::{ClientConn, ClusterConfig, LocalCluster};
use tob_svd::types::{TxId, ValidatorId};

/// Transactions the client submits, all to node 0.
const CLIENT_TXS: usize = 8;

fn main() {
    let cfg = ClusterConfig::new(5).views(6).tick(Duration::from_millis(10));
    println!(
        "starting 5 TCP nodes on 127.0.0.1 — Δ = {}ms, {} views…\n",
        cfg.delta.ticks() * 10,
        cfg.views
    );
    let cluster = LocalCluster::spawn(cfg).expect("cluster spawns");
    let (clock, run_ticks) = (cluster.clock(), cluster.run_ticks());
    let node0 = cluster.addr_of(ValidatorId::new(0)).expect("node 0 listens");
    let mut client = ClientConn::connect(node0, 1).expect("client connects");
    let submitted: Vec<TxId> =
        (0..CLIENT_TXS).map(|i| client.submit(1, format!("transfer {i}").into_bytes())).collect();
    while clock.now_tick().ticks() < run_ticks && !client.is_closed() {
        client.pump().expect("client pumps");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = cluster.join().expect("cluster runs");

    println!("per-node outcomes:");
    for o in report.outcomes() {
        println!("  {}: decided {} blocks, {} votes", o.me, o.decided_len - 1, o.votes_cast);
    }

    eprintln!("\nmesh frames and wire bytes per kind (delta-sync message plane):");
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for o in report.outcomes() {
        eprintln!(
            "  {}: {} frames in / {} frames out; announcements {} B in / {} B out, fetch {} B in / {} B out, {} blocks fetched",
            o.me,
            o.frames.0,
            o.frames.1,
            o.announce_bytes.0,
            o.announce_bytes.1,
            o.sync_bytes.0,
            o.sync_bytes.1,
            o.blocks_fetched
        );
        totals.0 += o.announce_bytes.0;
        totals.1 += o.announce_bytes.1;
        totals.2 += o.sync_bytes.0;
        totals.3 += o.sync_bytes.1;
    }
    // Sum one direction only: every wire frame is counted once by its
    // sender and once by its receiver, so in+out would double-count.
    let decided = report.max_decided_len().saturating_sub(1).max(1);
    eprintln!(
        "  total on the wire: announcements {} B, fetch {} B — {} announcement bytes per decided block",
        totals.1,
        totals.3,
        totals.1 / decided
    );

    report.assert_agreement();
    println!(
        "\nagreement: all nodes' decided logs are pairwise compatible (min {} / max {} blocks)",
        report.min_decided_len() - 1,
        report.max_decided_len() - 1
    );
    for o in report.outcomes() {
        let decided = report.decided_tx_ticks(o.me);
        let count = submitted.iter().filter(|id| decided.contains_key(id)).count();
        assert_eq!(count, CLIENT_TXS, "{} decided {count} of the client's transactions", o.me);
    }
    println!("client: {CLIENT_TXS} transactions submitted to node 0 only; every node decided all {CLIENT_TXS}");
    for o in report.outcomes() {
        assert_eq!(o.blocks_fetched, 0, "{} fetched blocks in a fault-free cluster", o.me);
    }
    println!("fetch: no node fetched a block; every hash-only frame resolved from its receiver's store");
}
