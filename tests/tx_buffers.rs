//! One buffer per transaction.
//!
//! Every awake validator proposes in every view (§3.3), so with a
//! shared mempool the same pending transaction sits in up to n stored
//! blocks. A transaction's payload is one reference-counted buffer:
//!
//! * the mempool's record and every stored block that includes the
//!   transaction share it, with no per-proposal copy;
//! * a decoder copies a payload once out of its frame or WAL read
//!   buffer, so a decoded block never keeps that buffer alive, and it
//!   still yields the same id and bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use tob_svd::crypto::Keypair;
use tob_svd::protocol::{TobConfig, Validator, ViewSchedule};
use tob_svd::sim::{Context, Node, SimConfig, Simulation};
use tob_svd::storage::{decode_wal, encode_record, replay_into, BlockRecord, Recovered, WalRecord};
use tob_svd::types::{
    wire, BlockId, BlockStore, Delta, Log, Payload, SignedMessage, Time, Transaction, TxId,
    ValidatorId, View,
};

const N: usize = 4;
const VIEWS: u64 = 6;

/// A validator that records the tip of every log it is sent.
struct Tap {
    inner: Validator,
    tips: Arc<Mutex<BTreeSet<BlockId>>>,
}

impl Node for Tap {
    fn on_wake(&mut self, ctx: &mut Context) {
        self.inner.on_wake(ctx);
    }

    fn on_phase(&mut self, ctx: &mut Context) {
        self.inner.on_phase(ctx);
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        if let Some(log) = msg.payload().log() {
            self.tips.lock().expect("no tap panicked").insert(log.tip());
        }
        self.inner.on_message(msg, ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Where `tx`'s payload bytes live.
fn buffer(tx: &Transaction) -> *const u8 {
    tx.payload().as_ptr()
}

/// The address range of `bytes`.
fn span(bytes: &[u8]) -> Range<usize> {
    let start = bytes.as_ptr() as usize;
    start..start + bytes.len()
}

#[test]
fn stored_blocks_share_the_mempools_buffer() {
    let delta = Delta::new(8);
    let sched = ViewSchedule::new(delta);
    let mut builder = Simulation::builder(SimConfig::new(N).with_delta(delta).with_seed(3));
    // Three transactions due one tick before each view's proposal; the
    // test keeps a clone of each, which shares the mempool record's
    // buffer.
    let mut submitted: BTreeMap<TxId, Transaction> = BTreeMap::new();
    for view in 0..VIEWS {
        let due = sched.view_start(View::new(view)).saturating_sub(Time::new(1));
        for j in 0..3 {
            let tx = Transaction::synthetic(view << 8 | j, 64);
            submitted.insert(tx.id(), tx.clone());
            builder.mempool().submit(tx, due);
        }
    }
    let store = builder.store().clone();
    let tips = Arc::new(Mutex::new(BTreeSet::new()));
    for v in ValidatorId::all(N) {
        let inner = Validator::new(v, TobConfig::new(N).with_delta(delta), &store);
        builder = builder.node(v, Box::new(Tap { inner, tips: tips.clone() }));
    }
    let mut sim = builder.build();
    sim.run_until(sched.view_start(View::new(VIEWS)) + delta * 2);
    let report = sim.report();
    report.assert_safety();
    assert!(report.max_decided_len() > VIEWS - 1, "the run decides");

    // Every stored block lies on the chain of a log some validator was
    // sent: every proposal reaches every validator.
    let mut blocks = BTreeSet::new();
    for tip in tips.lock().expect("no tap panicked").iter() {
        blocks.extend(store.chain_range(*tip, 1).expect("a sent log is stored"));
    }
    assert_eq!(blocks.len() + 1, store.len(), "every stored block but genesis is visited");

    let (mut refs, mut buffers) = (0, BTreeSet::new());
    for id in blocks {
        for tx in store.get(id).expect("visited block is stored").txs() {
            let original = &submitted[&tx.id()];
            assert_eq!(buffer(tx), buffer(original), "{id}: {} has its own copy", tx.id());
            refs += 1;
            buffers.insert(buffer(tx) as usize);
        }
    }
    // The n competing proposals of a view carry the same pending
    // transactions: far more references than buffers.
    assert!(refs >= 2 * buffers.len(), "{refs} references to {} buffers", buffers.len());
}

/// A chain of `blocks` blocks beyond genesis, two 48-byte transactions
/// each.
fn chain(store: &BlockStore, blocks: u64) -> Log {
    let mut log = Log::genesis(store);
    for i in 0..blocks {
        let txs = vec![Transaction::synthetic(2 * i, 48), Transaction::synthetic(2 * i + 1, 48)];
        log = log.extend(store, ValidatorId::new(0), View::new(i + 1), txs);
    }
    log
}

/// Each decoded transaction has the original's id and bytes, in a
/// buffer of its own: neither the original's nor inside `source`.
fn assert_copied_once(original: &BlockStore, decoded: &BlockStore, tip: BlockId, source: &[u8]) {
    let ids = original.chain_range(tip, 1).expect("chain stored");
    for id in ids {
        let (a, b) = (original.get(id).expect("stored"), decoded.get(id).expect("decoded"));
        assert_eq!(a.txs().len(), b.txs().len());
        for (a, b) in a.txs().iter().zip(b.txs()) {
            assert_eq!((a.id(), a.payload()), (b.id(), b.payload()));
            assert_ne!(buffer(a), buffer(b), "{id}: a decoded payload shares the sender's");
            assert!(!span(source).contains(&(buffer(b) as usize)), "{id}: payload inside its frame");
        }
    }
}

#[test]
fn wire_decode_copies_each_payload_out_of_its_frame() {
    let store = BlockStore::new();
    let log = chain(&store, 4);
    let sender = ValidatorId::new(0);
    let response = SignedMessage::sign(
        &Keypair::from_seed(sender.key_seed()),
        sender,
        Payload::BlockResponse { tip: log.tip(), from_height: 1, count: 4 },
    );
    let frame = wire::encode_message(&response, &store).expect("encode");
    let rx = BlockStore::new();
    wire::decode_message(frame.clone(), &rx).expect("the response decodes into a cold store");
    assert_copied_once(&store, &rx, log.tip(), &frame);
}

#[test]
fn wal_replay_copies_each_payload_out_of_its_read_buffer() {
    let store = BlockStore::new();
    let log = chain(&store, 4);
    let mut image = Vec::new();
    for id in store.chain_range(log.tip(), 1).expect("chain stored") {
        let block = store.get(id).expect("stored");
        let record = BlockRecord {
            parent: block.parent(),
            expected_id: id,
            proposer: block.proposer().expect("not genesis"),
            view: block.view(),
            txs: block.txs().to_vec(),
        };
        encode_record(&mut image, &WalRecord::Block(record)).expect("encode");
    }
    let (wal, torn_bytes) = decode_wal(&image);
    assert_eq!((wal.len(), torn_bytes), (4, 0));
    let rx = BlockStore::new();
    let replayed = replay_into(&rx, &Recovered { snapshot: None, wal, torn_bytes });
    assert_eq!(replayed.known.len(), 4);
    assert_copied_once(&store, &rx, log.tip(), &image);
}
