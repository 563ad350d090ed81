//! End-to-end backpressure test of the ingestion plane: a flood of
//! client submissions against a node with a tiny bounded mempool must
//!
//! * keep mempool memory bounded (pending never exceeds the hard
//!   capacity),
//! * shed the excess with explicit `Busy` acks instead of queueing,
//! * never let slow or stalled clients head-of-line-block the peer
//!   mesh (consensus keeps deciding at full speed), and
//! * account for every accepted transaction: decided, explicitly
//!   evicted, or still pending within the capacity bound at shutdown.

use std::io::Write;
use std::time::Duration;

use tob_svd::runtime::{ClientConn, ClusterConfig, LocalCluster};
use tob_svd::sim::AdmissionPolicy;
use tob_svd::types::client::AckStatus;
use tob_svd::types::{Time, ValidatorId};

const CAPACITY: usize = 16;

#[test]
fn saturated_node_sheds_load_without_blocking_peers() {
    let policy = AdmissionPolicy { capacity: CAPACITY, rate_cap: 0, rate_window: 64 };
    let cfg = ClusterConfig::new(3)
        .views(6)
        .tick(Duration::from_millis(8))
        .admission(policy);
    let cluster = LocalCluster::spawn(cfg).expect("cluster spawns");
    let v0 = ValidatorId::new(0);
    let addr = cluster.addr_of(v0).expect("node 0 listens");
    let clock = cluster.clock();
    let run_ticks = cluster.run_ticks();

    // A stalled client: sends half a frame and then goes silent. Under
    // the old thread-per-connection layout this pinned a reader thread;
    // under the readiness loop it must cost nothing.
    let mut stalled = std::net::TcpStream::connect(addr).expect("stalled client connects");
    stalled.write_all(&[0, 0, 0, 40, 0xC5]).expect("partial frame");

    // Flooding clients: submit far more than CAPACITY can hold while
    // the chain drains only a few per block.
    let mut conns: Vec<ClientConn> = (0..8)
        .map(|c| ClientConn::connect(addr, c).expect("client connects"))
        .collect();
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut busy = 0u64;
    let deadline = Time::new(run_ticks.saturating_sub(run_ticks / 4));
    let mut nonce = 0u64;
    while clock.now_tick() < deadline {
        for conn in &mut conns {
            if conn.is_closed() {
                continue;
            }
            // Keep the pipeline shallow enough that acks keep flowing.
            if conn.pending_out() < 4096 {
                let fee = nonce % 7;
                let payload = format!("bp-tx-{}-{nonce}", conn.client()).into_bytes();
                let _ = conn.submit(fee, payload);
                submitted += 1;
                nonce += 1;
            }
            for ack in conn.pump().expect("pump") {
                match ack.status {
                    AckStatus::Accepted | AckStatus::Duplicate => accepted += 1,
                    AckStatus::Busy => busy += 1,
                    AckStatus::RateLimited => {}
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Drain the remaining acks before the run ends.
    let drain_until = clock.now_tick() + (100 / clock.tick_duration().as_millis()) as u64; // ≈ 100 ms
    while clock.now_tick() < drain_until {
        for conn in &mut conns {
            if conn.is_closed() {
                continue;
            }
            for ack in conn.pump().expect("pump") {
                match ack.status {
                    AckStatus::Accepted | AckStatus::Duplicate => accepted += 1,
                    AckStatus::Busy => busy += 1,
                    AckStatus::RateLimited => {}
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(conns);
    drop(stalled);

    let report = cluster.join().expect("cluster joins");

    // Peer traffic was never head-of-line blocked: consensus decided
    // and all nodes agree, stalled/flooding clients notwithstanding.
    report.assert_agreement();
    assert!(
        report.min_decided_len() > 1,
        "every node must decide despite client flood: {:?}",
        report.outcomes()
    );

    let outcome = report
        .outcomes()
        .into_iter()
        .find(|o| o.me == v0)
        .expect("node 0 outcome");

    assert!(submitted > 100, "flood must actually flood (submitted {submitted})");
    assert!(busy > 0, "saturation must surface as Busy acks (submitted {submitted})");
    assert_eq!(
        outcome.ingest.acks_busy + outcome.admission.rate_limited,
        outcome.admission.busy + outcome.admission.rate_limited,
        "every Busy admission verdict must be acked"
    );

    // Bounded memory: the pool never held more than CAPACITY records
    // (client flood included; seed txs live in the same pool).
    assert!(
        outcome.admission.pending_peak as usize <= CAPACITY,
        "pending peak {} exceeds capacity {CAPACITY}",
        outcome.admission.pending_peak
    );

    // Every accepted submission is accounted for: decided on-chain,
    // explicitly evicted for a better-paying record, or still pending
    // (and a pending set is ≤ CAPACITY by the bound above). `decided`
    // counts the seed txs too, which only loosens the inequality.
    let decided = report.decided_tx_ticks(v0).len() as u64;
    assert!(accepted > 0, "some submissions must get through");
    assert!(
        outcome.ingest.acks_accepted <= decided + outcome.admission.evicted + CAPACITY as u64,
        "accepted txs leaked: {} accepted, {} decided, {} evicted",
        outcome.ingest.acks_accepted,
        decided,
        outcome.admission.evicted
    );

    // The readiness loop served every socket in one thread: sessions
    // were concurrent (8 floods + 1 stalled + 2 peers) and per-session
    // buffers stayed within the slow-client budget.
    assert!(
        outcome.ingest.sessions_peak >= 10,
        "expected ≥ 10 concurrent sessions, saw {}",
        outcome.ingest.sessions_peak
    );
}
